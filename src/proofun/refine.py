"""Bidirectional refinement: elaborate user terms containing placeholders
into meta-free, well-typed terms.

Typechecking runs in two phases.  The typing phase alternates inference
(`reconstruct`), checking (`reconstruct_with_type`), and type forcing
(`force_type`), creating meta-variables for every hole and solving them
through unification as early as possible.  The essence phase (`essence` /
`essence_with_hint`) then erases proof-functional structure and checks that
strong pairs and strong sums carry one shared computational content.

The sort discipline is the logical-framework one: the only product rules
are (Type, Type) and (Type, Kind), with Type : Kind.  Checking-mode rules
are syntax-directed and take priority; the default rule infers a type and
unifies it with the expectation, blaming the innermost offending subterm.

A type the refiner synthesised is well formed by construction and is
trusted, never elaborated again (as in Coquand's type-checking algorithm
for dependent types): the `Abs` inference rule decides the product rule
from the sort of the domain and the sort read off the body's type.
"""

from __future__ import annotations

from dataclasses import dataclass

from proofun.env import (
    EssDecl, EssDef, EssenceEnv, GlobalEnv, LocalEnv, MetaEnv, SortDecl,
    SortDef, TypedDecl, TypedDef,
)
from proofun.errors import (
    EssenceMismatch, InternalError, TypeCheckError, UnificationFailure,
    UnresolvedMeta,
)
from proofun.normalize import whnf, zonk
from proofun.pretty import show_term
from proofun.subtype import is_subtype
from proofun.syntax import (
    Abs, App, Coercion, Const, Inter, Let, Location, Meta, Prod,
    SInLeft, SInRight, SMatch, Sort, SortKind, SPair, SPrLeft, SPrRight,
    Term, Underscore, Union, Var,
    beta_redex, contains_meta, erase_context, first_meta, instantiate, lift,
    mk_app, msubst, replace_bound, sort_kind, sort_type,
)
from proofun.unify import unify, unify_essence

_PTS_RULES = ((SortKind.TYPE, SortKind.TYPE), (SortKind.TYPE, SortKind.KIND))


def _fresh_wildcard(phi: MetaEnv, ctx: LocalEnv, loc: Location
                    ) -> tuple[MetaEnv, Term, Term]:
    """Mint ?x : ?y : ?z (term meta, type meta, sort meta) over `ctx`."""
    phi, zid = phi.fresh_meta(SortDecl())
    phi, yid = phi.fresh_meta(TypedDecl(ctx, Meta(loc, zid, ())))
    ty = Meta(loc, yid, erase_context(len(ctx)))
    phi, xid = phi.fresh_meta(TypedDecl(ctx, ty))
    return phi, Meta(loc, xid, erase_context(len(ctx))), ty


def _pts_check(phi: MetaEnv, genv: GlobalEnv, ctx_dom: LocalEnv,
               ctx_cod: LocalEnv, s1: Term, s2: Term, loc: Location
               ) -> tuple[MetaEnv, Term]:
    """Resolve the product side condition by trying the allowed sort pairs
    in order; returns the sort of the product."""
    for a, b in _PTS_RULES:
        try:
            phi2 = unify(phi, genv, ctx_dom, s1, Sort(loc, a))
            phi2 = unify(phi2, genv, ctx_cod, s2, Sort(loc, b))
            return phi2, Sort(loc, b)
        except UnificationFailure:
            continue
    raise TypeCheckError("this product is not allowed by the sort discipline", loc)


def _infer_abs(phi: MetaEnv, genv: GlobalEnv, ctx: LocalEnv, t: Abs
               ) -> tuple[Term, Term, Term, MetaEnv]:
    """Inference for an abstraction: the refined term, its product type and
    the sort of that product.  The product is trusted, not re-checked: its
    domain was forced and its codomain was synthesised, so only the product
    rule is left to decide, from the domain's sort and the body type's sort,
    which a nested abstraction hands back and `_sort_of` reads otherwise."""
    dom2, s1, phi = force_type(phi, genv, ctx, t.domain)
    inner = ctx.push_decl(t.name, dom2)
    if isinstance(t.body, Abs):
        body2, tau, s2, phi = _infer_abs(phi, genv, inner, t.body)
    else:
        body2, tau, phi = reconstruct(phi, genv, inner, t.body)
        s2, phi = _sort_of(phi, genv, inner, tau)
    phi, sort = _pts_check(phi, genv, ctx, inner, s1, s2, t.loc)
    return (Abs(t.loc, t.name, dom2, body2), Prod(t.loc, t.name, dom2, tau),
            sort, phi)


def _sort_of(phi: MetaEnv, genv: GlobalEnv, ctx: LocalEnv, ty: Term
             ) -> tuple[Term, MetaEnv]:
    """Sort of `ty`, a type the refiner synthesised, read off its shape
    without re-checking it ("retyping"): through products to the final
    codomain, then through the type of its variable, constant or meta head.
    Other shapes, sorts included, go through `force_type`."""
    ty = whnf(phi, genv, ctx, ty)
    while isinstance(ty, Prod):
        ctx = ctx.push_decl(ty.name, ty.domain)
        ty = whnf(phi, genv, ctx, ty.codomain)
    head, nargs = (ty.head, len(ty.spine)) if isinstance(ty, App) else (ty, 0)
    if isinstance(head, (Var, Const, Meta)):
        _h, kind, phi = reconstruct(phi, genv, ctx, head)
        kind = whnf(phi, genv, ctx, kind)
        # A sort is closed, so the arguments need not be substituted.
        kind_ctx = ctx
        while nargs and isinstance(kind, Prod):
            kind_ctx = kind_ctx.push_decl(kind.name, kind.domain)
            kind, nargs = whnf(phi, genv, kind_ctx, kind.codomain), nargs - 1
        if not nargs and isinstance(kind, (Sort, Meta)):
            return kind, phi
    _t, sort, phi = force_type(phi, genv, ctx, ty)
    return sort, phi


def reconstruct(phi: MetaEnv, genv: GlobalEnv, ctx: LocalEnv, t: Term
                ) -> tuple[Term, Term, MetaEnv]:
    """Inference mode: fill the holes of `t` and return the refined term
    together with its type."""
    match t:
        case Sort(loc, SortKind.TYPE):
            return t, sort_kind(loc), phi
        case Sort(loc, SortKind.KIND):
            raise TypeCheckError("Kind itself has no type", loc)
        case Var(loc, n):
            _, ty = ctx.find_var(n)
            return t, ty, phi
        case Const(loc, name):
            found = genv.find_const(False, name)
            if found is None:
                raise TypeCheckError(f'unknown identifier "{name}"', loc)
            return t, found[1], phi
        case Underscore(loc):
            phi, term, ty = _fresh_wildcard(phi, ctx, loc)
            return term, ty, phi
        case Meta(loc, mid, susp):
            entry = phi.lookup(mid)
            match entry:
                case SortDecl() | SortDef():
                    return t, sort_kind(loc), phi
                case TypedDecl(mctx, ty) | TypedDef(mctx, _, ty):
                    n = len(mctx)
                    if len(susp) != n:
                        raise InternalError("bad suspension length")
                    checked: list[Term] = []
                    for i in range(n):
                        want = msubst(mctx.entries[n - 1 - i].type, tuple(checked))
                        elem, phi = reconstruct_with_type(
                            phi, genv, ctx, susp[i], want)
                        checked.append(elem)
                    return (Meta(loc, mid, tuple(checked)),
                            msubst(ty, tuple(checked)), phi)
            raise InternalError("essence meta in a typing judgment")
        case Let(loc, name, annot, bound, body):
            annot2, _s, phi = force_type(phi, genv, ctx, annot)
            bound2, phi = reconstruct_with_type(phi, genv, ctx, bound, annot2)
            inner = ctx.push_def(name, bound2, annot2)
            body2, tau, phi = reconstruct(phi, genv, inner, body)
            return (Let(loc, name, annot2, bound2, body2),
                    beta_redex(tau, bound2), phi)
        case Prod(loc, name, dom, cod):
            dom2, s1, phi = force_type(phi, genv, ctx, dom)
            inner = ctx.push_decl(name, dom2)
            cod2, s2, phi = force_type(phi, genv, inner, cod)
            phi, sort = _pts_check(phi, genv, ctx, inner, s1, s2, loc)
            return Prod(loc, name, dom2, cod2), sort, phi
        case Abs():
            term, prod, _sort, phi = _infer_abs(phi, genv, ctx, t)
            return term, prod, phi
        case App(loc, head, spine):
            term, sigma, phi = reconstruct(phi, genv, ctx, head)
            # While `sigma` is syntactically a product chain, the arguments
            # checked against it are kept `pending` instead of substituted
            # one by one: each domain gets them in one substitution when it
            # is reached, the rest of the chain once, when it ends.
            args: list[Term] = []
            pending: list[Term] = []
            for arg in spine:
                if not isinstance(sigma, Prod):
                    sigma, pending = instantiate(sigma, pending), []
                    view = whnf(phi, genv, ctx, sigma)
                    if isinstance(view, Prod):
                        sigma = view
                if isinstance(sigma, Prod):
                    want = instantiate(sigma.domain, pending)
                    arg2, phi = reconstruct_with_type(phi, genv, ctx, arg, want)
                    pending.append(arg2)
                    sigma = sigma.codomain
                else:
                    arg2, sigma1, phi = reconstruct(phi, genv, ctx, arg)
                    phi, yid = phi.fresh_meta(SortDecl())
                    inner = ctx.push_decl("x", sigma1)
                    phi, xid = phi.fresh_meta(
                        TypedDecl(inner, Meta(loc, yid, ())))
                    target = Prod(loc, "x", sigma1,
                                  Meta(loc, xid, erase_context(len(ctx) + 1)))
                    try:
                        phi = unify(phi, genv, ctx, sigma, target)
                    except UnificationFailure:
                        term = mk_app(loc, term, args)
                        raise TypeCheckError(
                            f'the term "{show_term(zonk(phi, term), ctx.names())}" '
                            f'has type "{show_term(zonk(phi, sigma), ctx.names())}" '
                            'and cannot be applied', term.loc) from None
                    sigma = Meta(loc, xid, erase_context(len(ctx)) + (arg2,))
                args.append(arg2)
            return mk_app(loc, term, args), instantiate(sigma, pending), phi
        case Inter(loc, left, right):
            left2, phi = reconstruct_with_type(phi, genv, ctx, left, sort_type(loc))
            right2, phi = reconstruct_with_type(phi, genv, ctx, right, sort_type(loc))
            return Inter(loc, left2, right2), sort_type(loc), phi
        case Union(loc, left, right):
            left2, phi = reconstruct_with_type(phi, genv, ctx, left, sort_type(loc))
            right2, phi = reconstruct_with_type(phi, genv, ctx, right, sort_type(loc))
            return Union(loc, left2, right2), sort_type(loc), phi
        case SPair(loc, left, right):
            left2, s1, phi = reconstruct(phi, genv, ctx, left)
            right2, s2, phi = reconstruct(phi, genv, ctx, right)
            ty = Inter(loc, s1, s2)
            _t, phi = reconstruct_with_type(phi, genv, ctx, ty, sort_type(loc))
            return SPair(loc, left2, right2), ty, phi
        case SPrLeft(loc, body) | SPrRight(loc, body):
            left_side = isinstance(t, SPrLeft)
            body2, sigma, phi = reconstruct(phi, genv, ctx, body)
            view = whnf(phi, genv, ctx, sigma)
            if isinstance(view, Inter):
                ty = view.left if left_side else view.right
            else:
                phi, x1 = phi.fresh_meta(TypedDecl(ctx, sort_type(loc)))
                phi, x2 = phi.fresh_meta(TypedDecl(ctx, sort_type(loc)))
                susp = erase_context(len(ctx))
                try:
                    phi = unify(phi, genv, ctx, sigma,
                                Inter(loc, Meta(loc, x1, susp), Meta(loc, x2, susp)))
                except UnificationFailure:
                    names = ctx.names()
                    raise TypeCheckError(
                        f'the term "{show_term(zonk(phi, body2), names)}" has '
                        f'type "{show_term(zonk(phi, sigma), names)}" while it '
                        'is expected to have an intersection type', body.loc) \
                        from None
                ty = Meta(loc, x1 if left_side else x2, susp)
            node = SPrLeft if left_side else SPrRight
            return node(loc, body2), ty, phi
        case SInLeft(loc, other, body) | SInRight(loc, other, body):
            # No inference rule appears for injections in checking-only
            # presentations, but untyped definitions need one: infer the
            # payload and pair it with the annotated other side.
            left_side = isinstance(t, SInLeft)
            other2, phi = reconstruct_with_type(phi, genv, ctx, other, sort_type(loc))
            body2, tau, phi = reconstruct(phi, genv, ctx, body)
            node = SInLeft if left_side else SInRight
            ty = Union(loc, tau, other2) if left_side else Union(loc, other2, tau)
            return node(loc, other2, body2), ty, phi
        case SMatch(loc, scrut, motive, n1, a1, b1, n2, a2, b2):
            scrut2, sigma, phi = reconstruct(phi, genv, ctx, scrut)
            a1_2, phi = reconstruct_with_type(phi, genv, ctx, a1, sort_type(loc))
            a2_2, phi = reconstruct_with_type(phi, genv, ctx, a2, sort_type(loc))
            union = Union(loc, a1_2, a2_2)
            try:
                phi = unify(phi, genv, ctx, sigma, union)
            except UnificationFailure:
                names = ctx.names()
                raise TypeCheckError(
                    f'the term "{show_term(zonk(phi, scrut2), names)}" has type '
                    f'"{show_term(zonk(phi, sigma), names)}" while it is expected '
                    f'to have type "{show_term(zonk(phi, union), names)}".',
                    scrut.loc) from None
            motive2, phi = reconstruct_with_type(
                phi, genv, ctx, motive,
                Prod(loc, "x", union, sort_type(loc)))
            if not isinstance(motive2, Abs):
                raise InternalError("smatch motive is not an abstraction")
            ret = motive2.body
            expected1 = replace_bound(ret, SInLeft(loc, lift(0, 1, a2_2),
                                                   Var(loc, 0)))
            b1_2, phi = reconstruct_with_type(
                phi, genv, ctx.push_decl(n1, a1_2), b1, expected1)
            expected2 = replace_bound(ret, SInRight(loc, lift(0, 1, a1_2),
                                                    Var(loc, 0)))
            b2_2, phi = reconstruct_with_type(
                phi, genv, ctx.push_decl(n2, a2_2), b2, expected2)
            result = SMatch(loc, scrut2, motive2, n1, a1_2, b1_2, n2, a2_2, b2_2)
            return result, beta_redex(ret, scrut2), phi
        case Coercion(loc, target, body):
            target2, _s, phi = force_type(phi, genv, ctx, target)
            body2, tau, phi = reconstruct(phi, genv, ctx, body)
            tau_z = zonk(phi, tau)
            target_z = zonk(phi, target2)
            if contains_meta(tau_z) or contains_meta(target_z):
                raise TypeCheckError(
                    "cannot decide subtyping against an incomplete type", loc)
            if not is_subtype(genv, ctx, tau_z, target_z):
                raise TypeCheckError(
                    f'the term "{show_term(zonk(phi, body2), ctx.names())}" has type '
                    f'"{show_term(tau_z, ctx.names())}" which is not a subtype of '
                    f'"{show_term(target_z, ctx.names())}"', body.loc)
            return Coercion(loc, target2, body2), target2, phi
    raise InternalError(f"reconstruct: unhandled node {t!r}")


def force_type(phi: MetaEnv, genv: GlobalEnv, ctx: LocalEnv, t: Term
               ) -> tuple[Term, Term, MetaEnv]:
    """Refine `t` while ensuring it is a type: its type must unify with
    Type, with Kind, or (when both would do) with a fresh sort meta."""
    t2, tau, phi = reconstruct(phi, genv, ctx, t)
    loc = t.loc

    def probe(sort: Term) -> MetaEnv | None:
        try:
            return unify(phi, genv, ctx, tau, sort)
        except UnificationFailure:
            return None

    as_type = probe(sort_type(loc))
    as_kind = probe(sort_kind(loc))
    if as_type is not None and as_kind is not None:
        phi2, sid = phi.fresh_meta(SortDecl())
        phi3 = unify(phi2, genv, ctx, tau, Meta(loc, sid, ()))
        return t2, tau, phi3
    if as_type is not None:
        return t2, tau, as_type
    if as_kind is not None:
        return t2, tau, as_kind
    raise TypeCheckError(
        f'the term "{show_term(zonk(phi, t2), ctx.names())}" is not a type', loc)


def reconstruct_with_type(phi: MetaEnv, genv: GlobalEnv, ctx: LocalEnv,
                          t: Term, expected: Term) -> tuple[Term, MetaEnv]:
    """Checking mode: refine `t` against `expected`.  Syntax-directed rules
    fire when the expected type's view matches; otherwise the default rule
    infers and unifies."""

    def default() -> tuple[Term, MetaEnv]:
        t2, sigma, phi2 = reconstruct(phi, genv, ctx, t)
        try:
            return t2, unify(phi2, genv, ctx, sigma, expected)
        except UnificationFailure:
            names = ctx.names()
            raise TypeCheckError(
                f'the term "{show_term(zonk(phi2, t2), names)}" has type '
                f'"{show_term(zonk(phi2, sigma), names)}" while it is expected '
                f'to have type "{show_term(zonk(phi2, expected), names)}".',
                t.loc) from None

    match t:
        case Let(loc, name, annot, bound, body):
            annot2, _s, phi = force_type(phi, genv, ctx, annot)
            bound2, phi = reconstruct_with_type(phi, genv, ctx, bound, annot2)
            inner = ctx.push_def(name, bound2, annot2)
            # The expectation moves under one extra binder.
            body2, phi = reconstruct_with_type(phi, genv, inner, body,
                                               lift(0, 1, expected))
            return Let(loc, name, annot2, bound2, body2), phi
        case Abs(loc, name, dom, body):
            view = whnf(phi, genv, ctx, expected)
            if not isinstance(view, Prod):
                return default()
            dom2, _s, phi = force_type(phi, genv, ctx, dom)
            try:
                phi = unify(phi, genv, ctx, dom2, view.domain)
            except UnificationFailure:
                names = ctx.names()
                raise TypeCheckError(
                    f'the domain "{show_term(zonk(phi, dom2), names)}" does not '
                    f'match the expected domain '
                    f'"{show_term(zonk(phi, view.domain), names)}"',
                    dom.loc) from None
            body2, phi = reconstruct_with_type(
                phi, genv, ctx.push_decl(name, dom2), body, view.codomain)
            return Abs(loc, name, dom2, body2), phi
        case SPair(loc, left, right):
            view = whnf(phi, genv, ctx, expected)
            if not isinstance(view, Inter):
                return default()
            left2, phi = reconstruct_with_type(phi, genv, ctx, left, view.left)
            right2, phi = reconstruct_with_type(phi, genv, ctx, right, view.right)
            return SPair(loc, left2, right2), phi
        case SPrLeft(loc, body) | SPrRight(loc, body):
            left_side = isinstance(t, SPrLeft)
            phi, xid = phi.fresh_meta(TypedDecl(ctx, sort_type(loc)))
            other = Meta(loc, xid, erase_context(len(ctx)))
            inter = Inter(loc, expected, other) if left_side else \
                Inter(loc, other, expected)
            _ty, phi = reconstruct_with_type(phi, genv, ctx, inter, sort_type(loc))
            body2, phi = reconstruct_with_type(phi, genv, ctx, body, inter)
            node = SPrLeft if left_side else SPrRight
            return node(loc, body2), phi
        case SInLeft(loc, other, body) | SInRight(loc, other, body):
            left_side = isinstance(t, SInLeft)
            view = whnf(phi, genv, ctx, expected)
            if not isinstance(view, Union):
                return default()
            other2, phi = reconstruct_with_type(phi, genv, ctx, other,
                                                sort_type(loc))
            target = view.right if left_side else view.left
            try:
                phi = unify(phi, genv, ctx, other2, target)
            except UnificationFailure:
                names = ctx.names()
                raise TypeCheckError(
                    f'the annotation "{show_term(zonk(phi, other2), names)}" '
                    f'does not match the union component '
                    f'"{show_term(zonk(phi, target), names)}"',
                    other.loc) from None
            body2, phi = reconstruct_with_type(
                phi, genv, ctx, body, view.left if left_side else view.right)
            node = SInLeft if left_side else SInRight
            return node(loc, other2, body2), phi
        case Underscore(loc):
            phi, xid = phi.fresh_meta(TypedDecl(ctx, expected))
            return Meta(loc, xid, erase_context(len(ctx))), phi
        case _:
            return default()


# ---------------------------------------------------------------------------
# Essence phase


def essence(phi: MetaEnv, genv: GlobalEnv, psi: EssenceEnv, t: Term
            ) -> tuple[Term, MetaEnv]:
    """Erase proof-functional structure, checking along the way that strong
    pairs and strong sums share the essence of their first component."""
    match t:
        case Sort() | Var() | Const():
            return t, phi
        case Underscore():
            raise InternalError("essence of an unrefined placeholder")
        case Meta(loc, mid, susp):
            entry = phi.lookup(mid)
            if isinstance(entry, (SortDecl, SortDef)):
                return t, phi
            if isinstance(entry, (EssDecl, EssDef)):
                return t, phi
            phi, eid = phi.essence_companion(mid)
            parts: list[Term] = []
            for s in susp:
                m, phi = essence(phi, genv, psi, s)
                parts.append(m)
            return Meta(loc, eid, tuple(parts)), phi
        case Abs(loc, name, dom, body):
            if not isinstance(dom, Underscore):
                _sd, phi = essence(phi, genv, psi, dom)
            m, phi = essence(phi, genv, psi.push_bare(name), body)
            return Abs(loc, name, Underscore(loc), m), phi
        case Prod(loc, name, dom, cod):
            e1, phi = essence(phi, genv, psi, dom)
            e2, phi = essence(phi, genv, psi.push_bare(name), cod)
            return Prod(loc, name, e1, e2), phi
        case Let(loc, name, annot, bound, body):
            if not isinstance(annot, Underscore):
                _sa, phi = essence(phi, genv, psi, annot)
            m1, phi = essence(phi, genv, psi, bound)
            m2, phi = essence(phi, genv, psi.push_def(name, m1), body)
            return Let(loc, name, Underscore(loc), m1, m2), phi
        case App(loc, head, spine):
            m, phi = essence(phi, genv, psi, head)
            for arg in spine:
                n, phi = essence(phi, genv, psi, arg)
                m = mk_app(loc, m, (n,))
            return m, phi
        case Inter(loc, left, right):
            e1, phi = essence(phi, genv, psi, left)
            e2, phi = essence(phi, genv, psi, right)
            return Inter(loc, e1, e2), phi
        case Union(loc, left, right):
            e1, phi = essence(phi, genv, psi, left)
            e2, phi = essence(phi, genv, psi, right)
            return Union(loc, e1, e2), phi
        case SPair(loc, left, right):
            m, phi = essence(phi, genv, psi, left)
            phi = essence_with_hint(phi, genv, psi, m, right)
            return m, phi
        case SPrLeft(_, body) | SPrRight(_, body):
            return essence(phi, genv, psi, body)
        case SInLeft(_, _, body) | SInRight(_, _, body):
            return essence(phi, genv, psi, body)
        case Coercion(_, _, body):
            return essence(phi, genv, psi, body)
        case SMatch(loc, scrut, motive, n1, a1, b1, n2, a2, b2):
            big_n, phi = essence(phi, genv, psi, scrut)
            _sm, phi = essence(phi, genv, psi, motive)
            _s1, phi = essence(phi, genv, psi, a1)
            m, phi = essence(phi, genv, psi.push_bare(n1), b1)
            _s2, phi = essence(phi, genv, psi, a2)
            phi = essence_with_hint(phi, genv, psi.push_bare(n2), m, b2)
            return App(loc, Abs(loc, n1, Underscore(loc), m), (big_n,)), phi
    raise InternalError(f"essence: unhandled node {t!r}")


def essence_with_hint(phi: MetaEnv, genv: GlobalEnv, psi: EssenceEnv,
                      hint: Term, t: Term) -> MetaEnv:
    """Checking-mode essence judgment: verify that `t` erases to `hint`."""

    def default() -> MetaEnv:
        m2, phi2 = essence(phi, genv, psi, t)
        try:
            return unify_essence(phi2, genv, psi, hint, m2)
        except UnificationFailure:
            names = psi.names()
            raise EssenceMismatch(
                f'the term has essence "{show_term(zonk(phi2, m2), names)}" '
                f'while it is expected to have essence '
                f'"{show_term(zonk(phi2, hint), names)}"', t.loc) from None

    match t:
        case SPair(_, left, right):
            phi = essence_with_hint(phi, genv, psi, hint, left)
            return essence_with_hint(phi, genv, psi, hint, right)
        case SPrLeft(_, body) | SPrRight(_, body):
            return essence_with_hint(phi, genv, psi, hint, body)
        case SInLeft(_, other, body) | SInRight(_, other, body):
            _s, phi = essence(phi, genv, psi, other)
            return essence_with_hint(phi, genv, psi, hint, body)
        case Let(_, name, annot, bound, body):
            if not isinstance(annot, Underscore):
                _sa, phi = essence(phi, genv, psi, annot)
            m1, phi = essence(phi, genv, psi, bound)
            return essence_with_hint(phi, genv, psi.push_def(name, m1),
                                     lift(0, 1, hint), body)
        case Prod(_, name, dom, cod):
            view = whnf(phi, genv, psi, hint, is_essence=True)
            if not isinstance(view, Prod):
                return default()
            phi = essence_with_hint(phi, genv, psi, view.domain, dom)
            return essence_with_hint(phi, genv, psi.push_bare(name),
                                     view.codomain, cod)
        case Abs(_, name, _, body):
            view = whnf(phi, genv, psi, hint, is_essence=True)
            if not isinstance(view, Abs):
                return default()
            return essence_with_hint(phi, genv, psi.push_bare(name),
                                     view.body, body)
        case Inter(_, left, right):
            view = whnf(phi, genv, psi, hint, is_essence=True)
            if not isinstance(view, Inter):
                return default()
            phi = essence_with_hint(phi, genv, psi, view.left, left)
            return essence_with_hint(phi, genv, psi, view.right, right)
        case Union(_, left, right):
            view = whnf(phi, genv, psi, hint, is_essence=True)
            if not isinstance(view, Union):
                return default()
            phi = essence_with_hint(phi, genv, psi, view.left, left)
            return essence_with_hint(phi, genv, psi, view.right, right)
        case _:
            return default()


# ---------------------------------------------------------------------------
# Orchestration


@dataclass(frozen=True)
class Elaborated:
    term: Term
    type: Term
    essence: Term
    type_essence: Term


def _check_meta_free(part: Term, fallback: Location) -> None:
    bad = first_meta(part)
    if bad is not None:
        loc = bad.loc if bad.loc.start != (0, 0) else fallback
        raise UnresolvedMeta(bad.mid, loc)


def elaborate(genv: GlobalEnv, t: Term, expected: Term | None = None) -> Elaborated:
    """Run both refinement phases from an empty meta-environment and return
    the four components a definition stores; fails if any hole is left."""
    phi = MetaEnv()
    ctx = LocalEnv()
    psi = EssenceEnv()
    if expected is not None:
        expected2, _s, phi = force_type(phi, genv, ctx, expected)
        term, phi = reconstruct_with_type(phi, genv, ctx, t, expected2)
        ty = expected2
    else:
        term, ty, phi = reconstruct(phi, genv, ctx, t)
    ess, phi = essence(phi, genv, psi, zonk(phi, term))
    ty_ess, phi = essence(phi, genv, psi, zonk(phi, ty))
    term, ty = zonk(phi, term), zonk(phi, ty)
    ess, ty_ess = zonk(phi, ess), zonk(phi, ty_ess)
    for part in (term, ty, ess, ty_ess):
        _check_meta_free(part, t.loc)
    return Elaborated(term, ty, ess, ty_ess)


def elaborate_type(genv: GlobalEnv, t: Term) -> tuple[Term, Term]:
    """Elaborate an axiom's type; returns (type, type essence)."""
    phi = MetaEnv()
    t2, _s, phi = force_type(phi, genv, LocalEnv(), t)
    ess, phi = essence(phi, genv, EssenceEnv(), zonk(phi, t2))
    t2, ess = zonk(phi, t2), zonk(phi, ess)
    _check_meta_free(t2, t.loc)
    _check_meta_free(ess, t.loc)
    return t2, ess
