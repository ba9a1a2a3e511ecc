"""Bidirectional refinement: elaborate user terms containing placeholders
into meta-free, well-typed terms.

Typechecking runs in two phases.  The typing phase alternates inference
(`reconstruct`), checking (`reconstruct_with_type`), and type forcing
(`force_type`), creating meta-variables for every hole and solving them
through unification as early as possible.  The essence phase (`essence` /
`essence_with_hint`) then erases proof-functional structure and checks that
strong pairs and strong sums carry one shared computational content.

The sort discipline is the logical-framework one: the only product rules
are (Type, Type) and (Type, Kind), with Type : Kind.  Sorts are read off
the weak head normal form of a synthesised type, not unified, as in the
Pure Type System checkers of van Benthem Jutting, McKinna and Pollack
(1993).  Checking-mode rules are syntax-directed and take priority; the
default rule infers a type and unifies it with the expectation, blaming
the innermost offending subterm.

A type the refiner synthesised is well formed by construction and is
trusted, never elaborated again (as in Coquand's type-checking algorithm
for dependent types): the `Abs` inference rule decides the product rule
from the sort of the domain and the sort read off the body's type.
"""

from __future__ import annotations

from operator import is_

from proofun.env import ConstInfo, GlobalEnv, LocalEnv, MetaEnv, SortMeta, TypedMeta
from proofun.errors import (
    EssenceMismatch, InternalError, TypeCheckError, UnificationFailure,
    UnresolvedMeta, too_deep_as_error,
)
from proofun.normalize import whnf, zonk
from proofun.pretty import show_term
from proofun.subtype import is_subtype
from proofun.syntax import (
    Abs, App, Coercion, Const, Inter, Let, Location, Meta, Prod,
    SInLeft, SInRight, SMatch, Sort, SortKind, SPair, SPrLeft, SPrRight,
    Term, Underscore, Union, Var,
    beta_redex, changes_essence, contains_meta, erase_context, first_meta,
    instantiate, lift, mk_app, msubst, replace_bound, sort_kind, sort_type,
)
from proofun.unify import unify, unify_essence

_PTS_RULES = ((SortKind.TYPE, SortKind.TYPE), (SortKind.TYPE, SortKind.KIND))


def _shown(phi: MetaEnv, ctx: LocalEnv, t: Term) -> str:
    """`t` as an error message shows it: solved metas expanded, bound
    variables named after `ctx`."""
    return show_term(zonk(phi, t), ctx.names())


_EXPECTED_TYPE = 'the term "{t}" has type "{a}" while it is expected to have type "{b}".'


def _unify_or(phi: MetaEnv, ctx: LocalEnv, a: Term, b: Term,
              loc: Location, message: str, subject: Term | tuple | None = None,
              is_essence: bool = False) -> None:
    """Unify `a` with `b` (their essences if `is_essence`), or fail with
    `message` at `loc`: a `TypeCheckError`, or an `EssenceMismatch`.  The
    message's fields `{a}`, `{b}` and `{t}` (the `subject`) are shown only
    on failure, and only those it names, with the metas as they were before
    the failed unification.  A `subject` `(head, args)` is the application
    of `head` to `args`, built only then and blamed at its own location."""
    mark = phi.mark()
    try:
        return (unify_essence if is_essence else unify)(phi, ctx, a, b)
    except UnificationFailure:
        phi.undo(mark)
    if isinstance(subject, tuple):
        subject = mk_app(loc, *subject)
        loc = subject.loc
    shown = {}
    for key, term in (("t", subject), ("a", a), ("b", b)):
        if "{" + key + "}" in message:
            shown[key] = _shown(phi, ctx, term)
    raise (EssenceMismatch if is_essence else TypeCheckError)(message.format_map(shown), loc)


def _hole(phi: MetaEnv, ctx: LocalEnv, ty: Term, loc: Location) -> Meta:
    """A fresh meta ?x : `ty` over `ctx`, under the identity suspension."""
    return Meta(loc, phi.fresh_meta(TypedMeta(ctx, ty)), erase_context(len(ctx)))


def _pts_check(phi: MetaEnv, ctx_dom: LocalEnv, ctx_cod: LocalEnv, s1: Term, s2: Term,
               loc: Location) -> Term:
    """Resolve the product side condition; returns the sort of the product.
    Two sorts are looked up in the rules; otherwise the allowed sort pairs
    are tried in order against the metas."""
    v1, v2 = whnf(phi, ctx_dom, s1), whnf(phi, ctx_cod, s2)
    if isinstance(v1, Sort) and isinstance(v2, Sort):
        if (v1.kind, v2.kind) in _PTS_RULES:
            return Sort(loc, v2.kind)
    else:
        mark = phi.mark()
        for a, b in _PTS_RULES:
            try:
                unify(phi, ctx_dom, s1, Sort(loc, a))
                unify(phi, ctx_cod, s2, Sort(loc, b))
                return Sort(loc, b)
            except UnificationFailure:
                phi.undo(mark)
    raise TypeCheckError("this product is not allowed by the sort discipline", loc)


def _infer_abs(phi: MetaEnv, ctx: LocalEnv, t: Abs) -> tuple[Term, Term, Term]:
    """Inference for an abstraction: the refined term, its product type and
    the sort of that product.  The product is trusted, not re-checked: its
    domain was forced and its codomain was synthesised, so only the product
    rule is left to decide, from the domain's sort and the body type's sort,
    which a nested abstraction hands back and `_sort_of` reads otherwise."""
    dom2, s1 = force_type(phi, ctx, t.domain)
    inner = ctx.push_decl(t.name, dom2)
    if isinstance(t.body, Abs):
        body2, tau, s2 = _infer_abs(phi, inner, t.body)
    else:
        body2, tau = reconstruct(phi, inner, t.body)
        s2 = _sort_of(phi, inner, tau)
    sort = _pts_check(phi, ctx, inner, s1, s2, t.loc)
    term = t if dom2 is t.domain and body2 is t.body else Abs(t.loc, t.name, dom2, body2)
    return term, Prod(t.loc, t.name, dom2, tau), sort


def _sort_of(phi: MetaEnv, ctx: LocalEnv, ty: Term) -> Term:
    """Sort of `ty`, a type the refiner synthesised, read off its shape
    without re-checking it ("retyping"): through products to the final
    codomain, then through the type of its variable, constant or meta head.
    Other shapes, sorts included, go through `force_type`."""
    ty = whnf(phi, ctx, ty)
    while isinstance(ty, Prod):
        ctx = ctx.push_decl(ty.name, ty.domain)
        ty = whnf(phi, ctx, ty.codomain)
    head, nargs = (ty.head, len(ty.spine)) if isinstance(ty, App) else (ty, 0)
    if isinstance(head, (Var, Const, Meta)):
        kind = whnf(phi, ctx, reconstruct(phi, ctx, head)[1])
        # A sort is closed, so the arguments need not be substituted.
        kind_ctx = ctx
        while nargs and isinstance(kind, Prod):
            kind_ctx = kind_ctx.push_decl(kind.name, kind.domain)
            kind, nargs = whnf(phi, kind_ctx, kind.codomain), nargs - 1
        if not nargs and isinstance(kind, (Sort, Meta)):
            return kind
    return force_type(phi, ctx, ty)[1]


def reconstruct(phi: MetaEnv, ctx: LocalEnv, t: Term) -> tuple[Term, Term]:
    """Inference mode: fill the holes of `t` and return the refined term
    together with its type."""
    match t:
        case Sort(loc, SortKind.TYPE):
            return t, sort_kind(loc)
        case Sort(loc, SortKind.KIND):
            raise TypeCheckError("Kind itself has no type", loc)
        case Var(loc, n):
            return t, ctx.find_var(n)
        case Const(loc, name):
            info = phi.genv.lookup(name)
            if info is None:
                raise TypeCheckError(f'unknown identifier "{name}"', loc)
            return t, info.type
        case Underscore(loc):  # ?x : ?y : ?z, a term, a type and a sort meta
            ty = _hole(phi, ctx, Meta(loc, phi.fresh_meta(SortMeta()), ()), loc)
            return _hole(phi, ctx, ty, loc), ty
        case Meta(loc, mid, susp):
            entry = phi.lookup(mid)
            match entry:
                case SortMeta():
                    return t, sort_kind(loc)
                case TypedMeta(mctx, ty):
                    n = len(mctx)
                    if len(susp) != n:
                        raise InternalError("bad suspension length")
                    checked: list[Term] = []
                    for i in range(n):
                        # Entry n-1-i is scoped over the i entries before
                        # it: the prefix checked so far, passed uncopied.
                        want = msubst(mctx.entries[n - 1 - i].type, checked)
                        checked.append(reconstruct_with_type(phi, ctx, susp[i], want))
                    susp2 = tuple(checked)
                    return Meta(loc, mid, susp2), msubst(ty, susp2)
            raise InternalError("essence meta in a typing judgment")
        case Let(loc, name, annot, bound, body):
            annot2, _s = force_type(phi, ctx, annot)
            bound2 = reconstruct_with_type(phi, ctx, bound, annot2)
            inner = ctx.push_def(name, bound2, annot2)
            body2, tau = reconstruct(phi, inner, body)
            return Let(loc, name, annot2, bound2, body2), beta_redex(zonk(phi, tau), bound2)
        case Prod():
            # A product chain is walked in a loop, so its length costs no
            # stack: the domains outermost first, the final codomain, then
            # the product rule from the innermost product out.
            chain = []
            while isinstance(t, Prod):
                dom2, s1 = force_type(phi, ctx, t.domain)
                chain.append((t, ctx, dom2, s1))
                ctx = ctx.push_decl(t.name, dom2)
                t = t.codomain
            cod2, sort = force_type(phi, ctx, t)
            for prod, outer, dom2, s1 in reversed(chain):
                sort = _pts_check(phi, outer, ctx, s1, sort, prod.loc)
                if dom2 is not prod.domain or cod2 is not prod.codomain:
                    prod = Prod(prod.loc, prod.name, dom2, cod2)
                cod2, ctx = prod, outer
            return cod2, sort
        case Abs():
            return _infer_abs(phi, ctx, t)[:2]
        case App(loc, head, spine):
            term, sigma = reconstruct(phi, ctx, head)
            # While `sigma` is syntactically a product chain, the arguments
            # checked against it are kept `pending` instead of substituted
            # one by one: each domain gets them in one substitution when it
            # is reached, the rest of the chain once, when it ends.
            args: list[Term] = []
            pending: list[Term] = []
            for arg in spine:
                if not isinstance(sigma, Prod):
                    sigma, pending = instantiate(sigma, pending), []
                    view = whnf(phi, ctx, sigma)
                    if isinstance(view, Prod):
                        sigma = view
                if isinstance(sigma, Prod):
                    want = instantiate(sigma.domain, pending)
                    arg2 = reconstruct_with_type(phi, ctx, arg, want)
                    pending.append(arg2)
                    sigma = sigma.codomain
                else:
                    arg2, sigma1 = reconstruct(phi, ctx, arg)
                    yid = phi.fresh_meta(SortMeta())
                    cod = _hole(phi, ctx.push_decl("x", sigma1), Meta(loc, yid, ()), loc)
                    _unify_or(phi, ctx, sigma, Prod(loc, "x", sigma1, cod), loc,
                              'the term "{t}" has type "{a}" and cannot be applied',
                              (term, args))
                    sigma = Meta(loc, cod.mid, erase_context(len(ctx)) + (arg2,))
                args.append(arg2)
            if term is not head or type(head) is App or not all(map(is_, args, spine)):
                t = mk_app(loc, term, args)  # else `t` is its own refinement
            return t, instantiate(sigma, pending)
        case Inter(loc, left, right) | Union(loc, left, right):
            left2 = reconstruct_with_type(phi, ctx, left, sort_type(loc))
            right2 = reconstruct_with_type(phi, ctx, right, sort_type(loc))
            if left2 is not left or right2 is not right:
                t = type(t)(loc, left2, right2)
            return t, sort_type(loc)
        case SPair(loc, left, right):
            left2, s1 = reconstruct(phi, ctx, left)
            right2, s2 = reconstruct(phi, ctx, right)
            ty = Inter(loc, s1, s2)
            reconstruct_with_type(phi, ctx, ty, sort_type(loc))
            return SPair(loc, left2, right2), ty
        case SPrLeft(loc, body) | SPrRight(loc, body):
            left_side = isinstance(t, SPrLeft)
            body2, sigma = reconstruct(phi, ctx, body)
            view = whnf(phi, ctx, sigma)
            if isinstance(view, Inter):
                ty = view.left if left_side else view.right
            else:
                x1 = _hole(phi, ctx, sort_type(loc), loc)
                x2 = _hole(phi, ctx, sort_type(loc), loc)
                _unify_or(phi, ctx, sigma, Inter(loc, x1, x2), body.loc,
                          'the term "{t}" has type "{a}" while it is expected '
                          'to have an intersection type', body2)
                ty = x1 if left_side else x2
            node = SPrLeft if left_side else SPrRight
            return node(loc, body2), ty
        case SInLeft(loc, other, body) | SInRight(loc, other, body):
            # No inference rule appears for injections in checking-only
            # presentations, but untyped definitions need one: infer the
            # payload and pair it with the annotated other side.
            left_side = isinstance(t, SInLeft)
            other2 = reconstruct_with_type(phi, ctx, other, sort_type(loc))
            body2, tau = reconstruct(phi, ctx, body)
            node = SInLeft if left_side else SInRight
            ty = Union(loc, tau, other2) if left_side else Union(loc, other2, tau)
            return node(loc, other2, body2), ty
        case SMatch(loc, scrut, motive, n1, a1, b1, n2, a2, b2):
            scrut2, sigma = reconstruct(phi, ctx, scrut)
            a1_2 = reconstruct_with_type(phi, ctx, a1, sort_type(loc))
            a2_2 = reconstruct_with_type(phi, ctx, a2, sort_type(loc))
            union = Union(loc, a1_2, a2_2)
            _unify_or(phi, ctx, sigma, union, scrut.loc, _EXPECTED_TYPE, scrut2)
            motive2 = reconstruct_with_type(phi, ctx, motive,
                                            Prod(loc, "x", union, sort_type(loc)))
            if not isinstance(motive2, Abs):
                raise InternalError("smatch motive is not an abstraction")
            ret = motive2.body
            expected1 = replace_bound(ret, SInLeft(loc, lift(0, 1, a2_2),
                                                   Var(loc, 0)))
            b1_2 = reconstruct_with_type(phi, ctx.push_decl(n1, a1_2), b1, expected1)
            expected2 = replace_bound(ret, SInRight(loc, lift(0, 1, a1_2),
                                                    Var(loc, 0)))
            b2_2 = reconstruct_with_type(phi, ctx.push_decl(n2, a2_2), b2, expected2)
            result = SMatch(loc, scrut2, motive2, n1, a1_2, b1_2, n2, a2_2, b2_2)
            return result, beta_redex(ret, scrut2)
        case Coercion(loc, target, body):
            target2, _s = force_type(phi, ctx, target)
            body2, tau = reconstruct(phi, ctx, body)
            tau_z = zonk(phi, tau)
            target_z = zonk(phi, target2)
            if contains_meta(tau_z) or contains_meta(target_z):
                raise TypeCheckError(
                    "cannot decide subtyping against an incomplete type", loc)
            if not is_subtype(phi.genv, ctx, tau_z, target_z):
                raise TypeCheckError(
                    f'the term "{_shown(phi, ctx, body2)}" has type "{_shown(phi, ctx, tau_z)}"'
                    f' which is not a subtype of "{_shown(phi, ctx, target_z)}"', body.loc)
            return Coercion(loc, target2, body2), target2
    raise InternalError(f"reconstruct: unhandled node {t!r}")


def force_type(phi: MetaEnv, ctx: LocalEnv, t: Term) -> tuple[Term, Term]:
    """Refine `t` while ensuring it is a type, and return its type `tau`: a
    sort in the weak head normal form of `tau` decides at once, otherwise
    `tau` must unify with a fresh sort meta (only a flexible `tau` does)."""
    t2, tau = reconstruct(phi, ctx, t)
    if not isinstance(whnf(phi, ctx, tau), Sort):
        sort = Meta(t.loc, phi.fresh_meta(SortMeta()), ())
        _unify_or(phi, ctx, tau, sort, t.loc, 'the term "{t}" is not a type', t2)
    return t2, tau


def reconstruct_with_type(phi: MetaEnv, ctx: LocalEnv, t: Term, expected: Term) -> Term:
    """Checking mode: refine `t` against `expected`.  Syntax-directed rules
    fire when the expected type's view matches; otherwise the default rule
    infers and unifies."""

    def default() -> Term:
        t2, sigma = reconstruct(phi, ctx, t)
        _unify_or(phi, ctx, sigma, expected, t.loc, _EXPECTED_TYPE, t2)
        return t2

    match t:
        case Let(loc, name, annot, bound, body):
            annot2, _s = force_type(phi, ctx, annot)
            bound2 = reconstruct_with_type(phi, ctx, bound, annot2)
            inner = ctx.push_def(name, bound2, annot2)
            # The expectation moves under one extra binder.
            body2 = reconstruct_with_type(phi, inner, body, lift(0, 1, expected))
            return Let(loc, name, annot2, bound2, body2)
        case Abs(loc, name, dom, body):
            view = whnf(phi, ctx, expected)
            if not isinstance(view, Prod):
                return default()
            dom2, _s = force_type(phi, ctx, dom)
            _unify_or(phi, ctx, dom2, view.domain, dom.loc,
                      'the domain "{a}" does not match the expected domain "{b}"')
            body2 = reconstruct_with_type(phi, ctx.push_decl(name, dom2), body, view.codomain)
            return t if dom2 is dom and body2 is body else Abs(loc, name, dom2, body2)
        case SPair(loc, left, right):
            view = whnf(phi, ctx, expected)
            if not isinstance(view, Inter):
                return default()
            left2 = reconstruct_with_type(phi, ctx, left, view.left)
            right2 = reconstruct_with_type(phi, ctx, right, view.right)
            return SPair(loc, left2, right2)
        case SPrLeft(loc, body) | SPrRight(loc, body):
            left_side = isinstance(t, SPrLeft)
            other = _hole(phi, ctx, sort_type(loc), loc)
            inter = Inter(loc, expected, other) if left_side else \
                Inter(loc, other, expected)
            reconstruct_with_type(phi, ctx, inter, sort_type(loc))
            body2 = reconstruct_with_type(phi, ctx, body, inter)
            node = SPrLeft if left_side else SPrRight
            return node(loc, body2)
        case SInLeft(loc, other, body) | SInRight(loc, other, body):
            left_side = isinstance(t, SInLeft)
            view = whnf(phi, ctx, expected)
            if not isinstance(view, Union):
                return default()
            other2 = reconstruct_with_type(phi, ctx, other, sort_type(loc))
            target = view.right if left_side else view.left
            _unify_or(phi, ctx, other2, target, other.loc,
                      'the annotation "{a}" does not match the union component "{b}"')
            body2 = reconstruct_with_type(phi, ctx, body, view.left if left_side else view.right)
            node = SInLeft if left_side else SInRight
            return node(loc, other2, body2)
        case Underscore(loc):
            return _hole(phi, ctx, expected, loc)
        case _:
            return default()


# ---------------------------------------------------------------------------
# Essence phase


def essence(phi: MetaEnv, psi: LocalEnv, t: Term) -> Term:
    """Erase proof-functional structure, checking along the way that strong
    pairs and strong sums share the essence of their first component.  A
    term whose facts show it is its own essence (see `changes_essence`)
    comes back as the same object at once, however large it is.  The
    essences of type annotations are checked and dropped."""
    if not changes_essence(t):
        return t
    match t:
        case Underscore():
            raise InternalError("essence of an unrefined placeholder")
        case Meta(loc, mid, susp):
            if not isinstance(phi.lookup(mid), TypedMeta):
                return t
            eid = phi.essence_companion(mid)
            return Meta(loc, eid, tuple(essence(phi, psi, s) for s in susp))
        case Abs(loc, name, dom, body):
            if not isinstance(dom, Underscore):
                essence(phi, psi, dom)
            m = essence(phi, psi.push_decl(name, Underscore(loc)), body)
            return Abs(loc, name, Underscore(loc), m)
        case Prod(loc, name, dom, cod):
            return Prod(loc, name, essence(phi, psi, dom),
                        essence(phi, psi.push_decl(name, Underscore(loc)), cod))
        case Let(loc, name, annot, bound, body):
            if not isinstance(annot, Underscore):
                essence(phi, psi, annot)
            m1 = essence(phi, psi, bound)
            m2 = essence(phi, psi.push_def(name, m1, Underscore(loc)), body)
            return Let(loc, name, Underscore(loc), m1, m2)
        case App(loc, head, spine):
            return mk_app(loc, essence(phi, psi, head),
                          [essence(phi, psi, arg) for arg in spine])
        case Inter(loc, left, right) | Union(loc, left, right):
            return type(t)(loc, essence(phi, psi, left), essence(phi, psi, right))
        case SPair(loc, left, right):
            m = essence(phi, psi, left)
            essence_with_hint(phi, psi, m, right)
            return m
        case SPrLeft(_, body) | SPrRight(_, body):
            return essence(phi, psi, body)
        case SInLeft(_, other, body) | SInRight(_, other, body) | Coercion(_, other, body):
            essence(phi, psi, other)
            return essence(phi, psi, body)
        case SMatch(loc, scrut, motive, n1, a1, b1, n2, a2, b2):
            big_n = essence(phi, psi, scrut)
            essence(phi, psi, motive)
            essence(phi, psi, a1)
            m = essence(phi, psi.push_decl(n1, Underscore(loc)), b1)
            essence(phi, psi, a2)
            essence_with_hint(phi, psi.push_decl(n2, Underscore(loc)), m, b2)
            return App(loc, Abs(loc, n1, Underscore(loc), m), (big_n,))
    raise InternalError(f"essence: unhandled node {t!r}")


def essence_with_hint(phi: MetaEnv, psi: LocalEnv, hint: Term, t: Term) -> None:
    """Checking-mode essence judgment: verify that `t` erases to `hint`.  It
    runs after the typing phase, on terms whose type has sort `Type`, so a
    product, `&` or `|` (whose type is a sort) never reaches it."""

    def default() -> None:
        _unify_or(phi, psi, hint, essence(phi, psi, t), t.loc,
                  'the term has essence "{b}" while it is expected to have essence "{a}"',
                  is_essence=True)

    match t:
        case SPair(_, left, right):
            essence_with_hint(phi, psi, hint, left)
            essence_with_hint(phi, psi, hint, right)
        case SPrLeft(_, body) | SPrRight(_, body):
            essence_with_hint(phi, psi, hint, body)
        case SInLeft(_, other, body) | SInRight(_, other, body):
            essence(phi, psi, other)
            essence_with_hint(phi, psi, hint, body)
        case Let(loc, name, annot, bound, body):
            if not isinstance(annot, Underscore):
                essence(phi, psi, annot)
            m1 = essence(phi, psi, bound)
            essence_with_hint(phi, psi.push_def(name, m1, Underscore(loc)),
                              lift(0, 1, hint), body)
        case Abs(loc, name, _, body):
            view = whnf(phi, psi, hint, is_essence=True)
            if isinstance(view, Abs):
                essence_with_hint(phi, psi.push_decl(name, Underscore(loc)),
                                  view.body, body)
            else:
                default()
        case _:
            default()


# ---------------------------------------------------------------------------
# Orchestration


def _check_meta_free(part: Term, fallback: Location) -> None:
    bad = first_meta(part)
    if bad is not None:
        loc = bad.loc if bad.loc.start != (0, 0) else fallback
        raise UnresolvedMeta(bad.mid, loc)


def _closed(phi: MetaEnv, fallback: Location, *parts: Term) -> list[Term]:
    """The closing step of both elaborators: the essence of each part in
    order, then every part and every essence with its metas expanded; fails
    on the first one left with a meta."""
    zonked, essences = [], []
    for part in parts:
        zonked.append(zonk(phi, part))
        essences.append(essence(phi, LocalEnv(), zonked[-1]))
    closed = [zonk(phi, part) for part in (*zonked, *essences)]
    for part in closed:
        _check_meta_free(part, fallback)
    return closed


@too_deep_as_error
def elaborate(genv: GlobalEnv, t: Term, expected: Term | None = None) -> ConstInfo:
    """Run both refinement phases in a new meta-environment and return the
    definition the signature stores: body, type and their essences; fails
    if any hole is left."""
    phi = MetaEnv(genv)
    ctx = LocalEnv()
    if expected is not None:
        ty, _s = force_type(phi, ctx, expected)
        term = reconstruct_with_type(phi, ctx, t, ty)
    else:
        term, ty = reconstruct(phi, ctx, t)
    body, ty, essence, type_essence = _closed(phi, t.loc, term, ty)
    return ConstInfo(type_essence=type_essence, type=ty, essence=essence, body=body)


@too_deep_as_error
def elaborate_type(genv: GlobalEnv, t: Term) -> ConstInfo:
    """Elaborate an axiom's type and return the axiom the signature stores:
    the type and its essence, with no body."""
    phi = MetaEnv(genv)
    t2, _s = force_type(phi, LocalEnv(), t)
    ty, type_essence = _closed(phi, t.loc, t2)
    return ConstInfo(type_essence=type_essence, type=ty)
