"""Shared test utilities: parsing shortcuts, a reference signature, random
term generators, and a tiny named lambda-calculus used as an independent
oracle for the de Bruijn machinery."""

from __future__ import annotations

import os
import random
from typing import NamedTuple

from proofun.env import EssMeta, GlobalEnv, LocalEnv, MetaEnv, SortMeta, TypedMeta
from proofun.errors import (
    FuelExhausted, InternalError, LexError, ProverError, TypeCheckError,
    UnificationFailure,
)
from proofun.normalize import (
    DEFAULT_FUEL, delta_phi_expand, is_eta, normalize_meta, zonk,
)
from proofun.parser import KEYWORDS, _IDCHARS, fix_index, parse_term
from proofun.pretty import show_term
from proofun.refine import elaborate, elaborate_type, essence_with_hint, reconstruct
from proofun.syntax import (
    Abs, App, Coercion, Const, Inter, Let, Location, Meta, NOWHERE, Prod,
    SInLeft, SInRight, SMatch, Sort, SortKind, SPair, SPrLeft, SPrRight, Term,
    Underscore, Union, Var, beta_redex, contains_meta, erase_context, lift, mk_app,
    sort_kind, sort_type, visit_term,
)
from proofun.unify import try_hopu, unify

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

CORPUS_FILES = ["basics.bull", "pierce.bull", "harrop.bull",
                "deductions.bull", "lf_encoding.bull"]


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, name)


def push_dummy(ctx: LocalEnv) -> LocalEnv:
    """`ctx` under one more binder, whose name and type play no part."""
    return ctx.push_decl("", Underscore(NOWHERE))


def P(src: str) -> Term:
    """Parse and index a closed term."""
    return fix_index(parse_term(src))


def axiom(genv: GlobalEnv, name: str, ty_src: str) -> None:
    genv.add(name, elaborate_type(genv, P(ty_src)))


def define(genv: GlobalEnv, name: str, body_src: str, ty_src: str | None = None):
    expected = P(ty_src) if ty_src else None
    result = elaborate(genv, P(body_src), expected)
    genv.add(name, result)
    return result


def local_body(ctx: LocalEnv, index: int) -> Term | None:
    """The body of the local definition at `index`, lifted to be
    well-scoped at the query point; None for a declaration."""
    body = ctx.entries[index].body
    return None if body is None else lift(0, index + 1, body)


def make_test_genv() -> GlobalEnv:
    """Small fixed signature over two atoms used by the random generators."""
    genv = GlobalEnv()
    axiom(genv, "A", "Type")
    axiom(genv, "B", "Type")
    axiom(genv, "a", "A")
    axiom(genv, "b", "B")
    axiom(genv, "f", "A -> A")
    axiom(genv, "g", "A -> B")
    axiom(genv, "h", "A -> B -> A")
    axiom(genv, "k", "(A -> A) -> A")
    return genv


# ---------------------------------------------------------------------------
# Named lambda-terms: the independent oracle for lift / beta_redex.
# Terms are tuples: ("var", x) | ("const", c) | ("lam", x, body) | ("app", f, a)


def named_free_vars(t) -> set[str]:
    match t:
        case ("var", x):
            return {x}
        case ("const", _):
            return set()
        case ("lam", x, b):
            return named_free_vars(b) - {x}
        case ("app", f, a):
            return named_free_vars(f) | named_free_vars(a)
    raise AssertionError(t)


def named_subst(t, x: str, v, counter: list[int]):
    """Capture-avoiding substitution t[v/x] with on-demand renaming."""
    match t:
        case ("var", y):
            return v if y == x else t
        case ("const", _):
            return t
        case ("app", f, a):
            return ("app", named_subst(f, x, v, counter),
                    named_subst(a, x, v, counter))
        case ("lam", y, b):
            if y == x:
                return t
            if y in named_free_vars(v):
                counter[0] += 1
                fresh = f"{y}_r{counter[0]}"
                b = named_subst(b, y, ("var", fresh), counter)
                y = fresh
            return ("lam", y, named_subst(b, x, v, counter))
    raise AssertionError(t)


def named_to_syntax(t) -> Term:
    """Render a named tuple-term as a parser-style term (variables are
    constants until fix_index runs)."""
    match t:
        case ("var", x) | ("const", x):
            return Const(NOWHERE, x)
        case ("lam", x, b):
            return Abs(NOWHERE, x, Underscore(NOWHERE), named_to_syntax(b))
        case ("app", f, a):
            return App(NOWHERE, named_to_syntax(f), (named_to_syntax(a),))
    raise AssertionError(t)


def enumerate_closed_named(max_size: int, consts=("c1", "c2")):
    """All closed named lambda-terms up to `max_size` nodes over the given
    constants, with canonically named binders."""

    def build(size: int, scope: tuple[str, ...]):
        if size <= 0:
            return
        if size == 1:
            for c in consts:
                yield ("const", c)
            for x in scope:
                yield ("var", x)
            return
        fresh = f"x{len(scope)}"
        for b in build(size - 1, scope + (fresh,)):
            yield ("lam", fresh, b)
        for i in range(1, size - 1):
            for fpart in build(i, scope):
                for apart in build(size - 1 - i, scope):
                    yield ("app", fpart, apart)

    for size in range(1, max_size + 1):
        yield from build(size, ())


# ---------------------------------------------------------------------------
# Random generators


def random_named_term(rng: random.Random, size: int, scope: tuple[str, ...] = (),
                      consts=("c", "d")) -> tuple:
    """Random clash-free named term for print/index round-trips."""
    if size <= 1:
        leaves = [("const", c) for c in consts] + [("var", x) for x in scope]
        return rng.choice(leaves)
    if rng.random() < 0.45:
        fresh = f"v{len(scope)}"
        return ("lam", fresh, random_named_term(rng, size - 1, scope + (fresh,), consts))
    cut = rng.randint(1, size - 1)
    return ("app", random_named_term(rng, cut, scope, consts),
            random_named_term(rng, size - cut, scope, consts))


_ATOM_A = Const(NOWHERE, "A")
_ATOM_B = Const(NOWHERE, "B")


def random_simple_type(rng: random.Random, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.45:
        return rng.choice((_ATOM_A, _ATOM_B))
    return Prod(NOWHERE, "", random_simple_type(rng, depth - 1),
                random_simple_type(rng, depth - 1))


_SIGNATURE: dict[str, str] = {
    "a": "A", "b": "B", "f": "A -> A", "g": "A -> B", "h": "A -> B -> A",
    "k": "(A -> A) -> A",
}


_SIGNATURE_TYPES: dict[str, Term] = {name: P(ty) for name, ty in _SIGNATURE.items()}


def _type_of_const(name: str) -> Term:
    return _SIGNATURE_TYPES[name]


def random_typed_term(rng: random.Random, ty: Term, ctx_types: list[Term],
                      fuel: int) -> Term:
    """Type-directed generation of well-typed terms over `make_test_genv`;
    strongly normalizing by construction, with deliberate redexes (lets,
    applied abstractions, projections of duplicated pairs).  All types in
    play are closed, so entering a binder needs no lifting."""
    candidates: list[Term] = []
    for i, vt in enumerate(ctx_types):
        if vt == ty:
            candidates.append(Var(NOWHERE, i))
    for name in _SIGNATURE:
        if _type_of_const(name) == ty:
            candidates.append(Const(NOWHERE, name))
    if fuel <= 0 and candidates:
        return rng.choice(candidates)
    roll = rng.random()
    if isinstance(ty, Prod) and (roll < 0.55 or not candidates):
        body = random_typed_term(rng, ty.codomain, [ty.domain] + ctx_types,
                                 fuel - 1)
        return Abs(NOWHERE, f"t{len(ctx_types)}", ty.domain, body)
    if roll < 0.2:
        tau = random_simple_type(rng, 1)
        bound = random_typed_term(rng, tau, ctx_types, fuel - 1)
        body = random_typed_term(rng, ty, [tau] + ctx_types, fuel - 1)
        return Let(NOWHERE, f"l{len(ctx_types)}", tau, bound, body)
    if roll < 0.4:
        inner = random_typed_term(rng, ty, ctx_types, fuel - 1)
        pair = SPair(NOWHERE, inner, inner)
        node = SPrLeft if rng.random() < 0.5 else SPrRight
        return node(NOWHERE, pair)
    if roll < 0.65:
        arg_ty = random_simple_type(rng, 1)
        fun = random_typed_term(rng, Prod(NOWHERE, "", arg_ty, ty),
                                ctx_types, fuel - 1)
        arg = random_typed_term(rng, arg_ty, ctx_types, fuel - 1)
        return mk_app(NOWHERE, fun, (arg,))
    if candidates:
        return rng.choice(candidates)
    if isinstance(ty, Prod):
        body = random_typed_term(rng, ty.codomain, [ty.domain] + ctx_types,
                                 fuel - 1)
        return Abs(NOWHERE, f"t{len(ctx_types)}", ty.domain, body)
    return Const(NOWHERE, "a" if ty == _ATOM_A else "b")


def random_refined_term(rng: random.Random, max_fuel: int = 4) -> tuple[Term, Term]:
    """(term, type) pair over the reference signature, closed."""
    ty = random_simple_type(rng, rng.randint(0, 2))
    return random_typed_term(rng, ty, [], max_fuel), ty


# ---------------------------------------------------------------------------
# Subtype enumeration


def conjunction_of_unions(unions: list[list[str]]) -> str:
    """Concrete syntax of (u00 | u01 | ...) & (u10 | ...) & ..."""
    return " & ".join(f"({' | '.join(u)})" for u in unions)


def enumerate_types(max_connectives: int = 2, atoms=("a", "b")) -> list[Term]:
    """All types over the atoms with at most `max_connectives` of ->, &, |
    (syntactically deduplicated, locations shared)."""
    by_size: list[list[Term]] = [[Const(NOWHERE, a) for a in atoms]]
    for size in range(1, max_connectives + 1):
        layer: list[Term] = []
        for left_size in range(0, size):
            right_size = size - 1 - left_size
            for left in by_size[left_size]:
                for right in by_size[right_size]:
                    layer.append(Prod(NOWHERE, "", left, right))
                    layer.append(Inter(NOWHERE, left, right))
                    layer.append(Union(NOWHERE, left, right))
        by_size.append(layer)
    return [t for layer in by_size for t in layer]


# ---------------------------------------------------------------------------
# Reference normalizer: the applicative-order engine the head-first one in
# `proofun.normalize` replaced.  Children are normalized first, then the root
# is contracted, and a contractum that may hold new redexes is normalized
# again.  Kept only so tests can compare the two engines.


def reference_normalize(phi: MetaEnv | None, is_essence: bool, genv: GlobalEnv,
                        ctx: LocalEnv, t: Term,
                        fuel: int = DEFAULT_FUEL) -> Term:
    """Normal form of `t` by the applicative-order engine; `phi=None` is
    strict (`strongly_normalize`), otherwise solved metas are expanded
    (`normalize_meta`)."""
    left = [fuel]

    def norm(ctx: LocalEnv, t: Term) -> Term:
        while True:
            left[0] -= 1
            if left[0] < 0:
                raise InternalError("reference_normalize ran out of fuel")
            t = visit_term(lambda c: norm(ctx, c),
                           lambda _s, c: norm(push_dummy(ctx), c), t)
            t, again = _reference_contract(phi, is_essence, genv, ctx, t)
            if not again:
                return t

    return norm(ctx, t)


def _reference_contract(phi: MetaEnv | None, is_essence: bool, genv: GlobalEnv,
                        ctx: LocalEnv, t: Term) -> tuple[Term, bool]:
    """One root contraction of a term whose children are normal; the flag
    asks for the contractum to be normalized again."""
    match t:
        case App(l, App(_, h, s2), s1):
            return App(l, h, s2 + s1), True
        case App(_, h, ()):
            return h, False
        case App(l, Abs(_, _, _, body), spine):
            return mk_app(l, beta_redex(body, spine[0]), spine[1:]), True
        case Let(_, _, _, bound, body):
            return beta_redex(body, bound), True
        case Var(_, n):
            body = local_body(ctx, n)
            if body is None:
                return t, False
            if isinstance(body, Var):
                return body, False
            return body, True
        case Const(_, name):
            body = genv.find_const(is_essence, name)
            if body is None:
                return t, False
            return body, True
        case Abs(_, _, _, App(l2, head, spine)) if spine and (
                isinstance(spine[-1], Var) and spine[-1].index == 0):
            if is_eta(App(l2, head, spine[:-1])):
                head2 = lift(0, -1, head)
                rest = tuple(lift(0, -1, a) for a in spine[:-1])
                return (head2 if not rest else App(l2, head2, rest)), False
            return t, False
        case SPrLeft(_, SPair(_, x, _)):
            return x, False
        case SPrRight(_, SPair(_, _, x)):
            return x, False
        case SMatch(_, SInLeft(_, _, payload), _, _, _, branch1, _, _, _):
            return beta_redex(branch1, payload), True
        case SMatch(_, SInRight(_, _, payload), _, _, _, _, _, _, branch2):
            return beta_redex(branch2, payload), True
        case Meta() as m:
            if phi is None:
                raise InternalError("reference_normalize reached a meta-variable")
            expanded = delta_phi_expand(phi, m)
            if expanded is None:
                return t, False
            return expanded, True
        case _:
            return t, False


# ---------------------------------------------------------------------------
# Reference head view: the substitution rewriter `proofun.normalize.whnf`
# replaced.  It applies the reduction rules at the root of a de Bruijn term,
# by substitution, until none applies, and leaves the children alone.  Kept
# only so tests can compare the two head views.

_REFERENCE_INERT = (Prod, Abs, Inter, Union, Sort, SPair, SInLeft, SInRight,
                    Coercion, Underscore)


def reference_whnf(phi: MetaEnv, ctx: LocalEnv, t: Term,
                   is_essence: bool = False, fuel: int = DEFAULT_FUEL) -> Term:
    """The weak head normal form of `t` by root rewriting, one tick of
    `fuel` per step.  A term already in weak head normal form comes back as
    the same object, which the application case relies on to stop."""
    left = [fuel]

    def go(t: Term) -> Term:
        while type(t) not in _REFERENCE_INERT:
            left[0] -= 1
            if left[0] < 0:
                raise FuelExhausted("reference_whnf ran out of fuel")
            match t:
                case App(l, App(_, h, s2), s1):
                    t = App(l, h, s2 + s1)
                case App(_, h, ()):
                    t = h
                case App(l, Abs(_, _, _, body), spine):
                    t = mk_app(l, beta_redex(body, spine[0]), spine[1:])
                case App(l, h, spine):
                    h2 = go(h)
                    if h2 is h:
                        return t
                    t = App(l, h2, spine)
                case Var(_, n):
                    body = local_body(ctx, n)
                    if body is None:
                        return t
                    t = body
                case Const(_, name):
                    body = phi.genv.find_const(is_essence, name)
                    if body is None:  # unbound or axiom: fixed
                        return t
                    t = body
                case Let(_, _, _, bound, body):
                    t = beta_redex(body, bound)
                case SPrLeft(l, body) | SPrRight(l, body):
                    pair = go(body)
                    if type(pair) is not SPair:
                        return t if pair is body else type(t)(l, pair)
                    t = pair.left if type(t) is SPrLeft else pair.right
                case SMatch(l, scrutinee, motive, n1, a1, b1, n2, a2, b2):
                    injection = go(scrutinee)
                    if type(injection) is SInLeft:
                        t = beta_redex(b1, injection.body)
                    elif type(injection) is SInRight:
                        t = beta_redex(b2, injection.body)
                    else:
                        return (t if injection is scrutinee
                                else SMatch(l, injection, motive, n1, a1, b1, n2, a2, b2))
                case Meta() as m:
                    expanded = delta_phi_expand(phi, m)
                    if expanded is None:
                        return t
                    t = expanded
                case _:
                    raise InternalError(f"reference_whnf: unknown node {t!r}")
        return t

    return go(t)


# ---------------------------------------------------------------------------
# Reference unifier: the eager algorithm the lazy, head-first `unify` in
# `proofun.unify` replaced.  Both sides are normalized on entry, and a
# subterm is normalized again only when a meta was solved since its parent
# was normalized and it mentions a meta: when the store's trail has grown
# past the mark taken then.  Kept only so tests can compare the two
# unifiers; `try_hopu` is shared.


def reference_unify(phi: MetaEnv, ctx: LocalEnv, t1: Term,
                    t2: Term, is_essence: bool = False) -> None:
    t1 = normalize_meta(phi, ctx, t1, is_essence)
    t2 = normalize_meta(phi, ctx, t2, is_essence)
    if t1 != t2:
        _reference_unify_normal(phi, ctx, t1, t2, is_essence, phi.mark())


def _reference_unify_normal(phi: MetaEnv, ctx: LocalEnv,
                            t1: Term, t2: Term, is_essence: bool,
                            normal_at: int) -> None:
    if phi.mark() != normal_at:
        if contains_meta(t1):
            t1 = normalize_meta(phi, ctx, t1, is_essence)
        if contains_meta(t2):
            t2 = normalize_meta(phi, ctx, t2, is_essence)
    if isinstance(t1, (Sort, Var, Const, Underscore, Meta)) and t1 == t2:
        return
    here = phi.mark()

    def recur(ctx: LocalEnv, a: Term, b: Term) -> None:
        _reference_unify_normal(phi, ctx, a, b, is_essence, here)

    if isinstance(t1, Meta) or isinstance(t2, Meta):
        if isinstance(t1, Meta) and try_hopu(phi, ctx, t1, t2, is_essence) is not None:
            return
        if isinstance(t2, Meta) and try_hopu(phi, ctx, t2, t1, is_essence) is not None:
            return
        raise UnificationFailure(t1, t2, t1.loc)

    if isinstance(t1, Abs) and not isinstance(t2, Abs):
        applied = mk_app(t2.loc, lift(0, 1, t2), (Var(NOWHERE, 0),))
        return recur(ctx.push_decl(t1.name, t1.domain), t1.body, applied)
    if isinstance(t2, Abs) and not isinstance(t1, Abs):
        applied = mk_app(t1.loc, lift(0, 1, t1), (Var(NOWHERE, 0),))
        return recur(ctx.push_decl(t2.name, t2.domain), applied, t2.body)

    match (t1, t2):
        case (Abs(_, n1, d1, b1), Abs(_, _, d2, b2)):
            recur(ctx, d1, d2)
            return recur(ctx.push_decl(n1, d1), b1, b2)
        case (Prod(_, n1, d1, c1), Prod(_, _, d2, c2)):
            recur(ctx, d1, d2)
            return recur(ctx.push_decl(n1, d1), c1, c2)
        case (Inter(_, a1, a2), Inter(_, b1, b2)):
            recur(ctx, a1, b1)
            return recur(ctx, a2, b2)
        case (Union(_, a1, a2), Union(_, b1, b2)):
            recur(ctx, a1, b1)
            return recur(ctx, a2, b2)
        case (SPair(_, a1, a2), SPair(_, b1, b2)):
            recur(ctx, a1, b1)
            return recur(ctx, a2, b2)
        case (SPrLeft(_, a), SPrLeft(_, b)) | (SPrRight(_, a), SPrRight(_, b)):
            return recur(ctx, a, b)
        case (SInLeft(_, o1, a), SInLeft(_, o2, b)) | (SInRight(_, o1, a), SInRight(_, o2, b)):
            recur(ctx, o1, o2)
            return recur(ctx, a, b)
        case (Coercion(_, s1, a), Coercion(_, s2, b)):
            recur(ctx, s1, s2)
            return recur(ctx, a, b)
        case (SMatch(_, s1, m1, x1, a1, l1, y1, c1, r1),
              SMatch(_, s2, m2, _, a2, l2, _, c2, r2)):
            recur(ctx, s1, s2)
            recur(ctx, m1, m2)
            recur(ctx, a1, a2)
            recur(ctx.push_decl(x1, a1), l1, l2)
            recur(ctx, c1, c2)
            return recur(ctx.push_decl(y1, c1), r1, r2)
        case (App(_, h1, s1), App(_, h2, s2)):
            if len(s1) != len(s2):
                raise UnificationFailure(t1, t2, t1.loc)
            recur(ctx, h1, h2)
            for a, b in zip(s1, s2):
                recur(ctx, a, b)
            return
    raise UnificationFailure(t1, t2, t1.loc)


def unify_outcome(unifier, phi: MetaEnv, ctx: LocalEnv,
                  t1: Term, t2: Term, is_essence: bool = False):
    """What a unifier decides on one problem: the exception type it raised,
    or the normalized solution (None while unsolved) of every meta-variable
    of the resulting store, keyed by id.  The store is given back as it was,
    so two unifiers can be run on it in turn."""
    mark = phi.mark()
    try:
        unifier(phi, ctx, t1, t2, is_essence)
        solutions = {}
        for mid, entry in phi.entries.items():
            if entry.value is None:
                solutions[mid] = None
                continue
            if isinstance(entry, SortMeta):
                solutions[mid] = normalize_meta(phi, LocalEnv(), entry.value)
                continue
            essence = isinstance(entry, EssMeta)
            meta = Meta(NOWHERE, mid, erase_context(len(entry.ctx)))
            solutions[mid] = normalize_meta(phi, entry.ctx, meta, essence)
        return solutions
    except (UnificationFailure, InternalError) as exc:
        return type(exc).__name__
    finally:
        phi.undo(mark)


def snapshot(phi: MetaEnv) -> tuple[dict, dict]:
    """Copies of the store's entries and companions, to compare."""
    return dict(phi.entries), dict(phi.companions)


# ---------------------------------------------------------------------------
# Reference printer: the naming pass `fix_id` and `render` as they were
# before the constant-occurrence index.  At every binder the naming pass
# collects the constants of the binder's whole scope, and `render` scans a
# product's whole codomain for its name.  Kept only so tests can compare
# `show_term` with it.


def _reference_const_names(t: Term) -> set[str]:
    names: set[str] = set()

    def collect(t: Term) -> Term:
        if isinstance(t, Const):
            names.add(t.name)
            return t
        return visit_term(collect, lambda _s, c: collect(c), t)

    collect(t)
    return names


def _reference_pick_name(hint: str, forbidden: set[str]) -> str:
    base = hint or "x"
    if base not in forbidden:
        return base
    i = 0
    while f"{base}{i}" in forbidden:
        i += 1
    return f"{base}{i}"


def reference_fix_id(t: Term, scope: tuple[str, ...] = ()) -> Term:
    def bind(hint: str, child: Term, names: list[str]) -> str:
        return _reference_pick_name(hint, set(names) | _reference_const_names(child))

    def go(t: Term, names: list[str]) -> Term:
        match t:
            case Var(loc, n):
                if n >= len(names):
                    raise InternalError(f"fix_id: index {n} out of range")
                return Const(loc, names[n])
            case Let(loc, name, annot, bound, body):
                chosen = bind(name, body, names)
                return Let(loc, chosen, go(annot, names), go(bound, names),
                           go(body, [chosen] + names))
            case Prod(loc, name, dom, cod):
                chosen = bind(name, cod, names)
                return Prod(loc, chosen, go(dom, names), go(cod, [chosen] + names))
            case Abs(loc, name, dom, body):
                chosen = bind(name, body, names)
                return Abs(loc, chosen, go(dom, names), go(body, [chosen] + names))
            case SMatch(loc, scrut, motive, n1, a1, b1, n2, a2, b2):
                c1 = bind(n1, b1, names)
                c2 = bind(n2, b2, names)
                return SMatch(loc, go(scrut, names), go(motive, names),
                              c1, go(a1, names), go(b1, [c1] + names),
                              c2, go(a2, names), go(b2, [c2] + names))
            case Meta(loc, mid, susp):
                return Meta(loc, mid, tuple(go(s, names) for s in susp))
            case _:
                return visit_term(lambda c: go(c, names), lambda _s, c: go(c, names), t)

    return go(t, list(scope))


_ARROW, _UNION, _INTER, _APP, _ATOM = 0, 1, 2, 3, 4


def reference_render(t: Term, prec: int = _ARROW) -> str:
    r = reference_render

    def wrap(level: int, body: str) -> str:
        return f"({body})" if prec > level else body

    def occurs(name: str, t: Term) -> bool:
        return name in _reference_const_names(t)

    match t:
        case Sort(_, kind):
            return kind.value
        case Const(_, name):
            return name
        case Underscore():
            return "_"
        case Meta(_, mid, susp):
            return f"?{mid}[{'; '.join(r(s) for s in susp)}]"
        case Prod(_, name, dom, cod):
            if name and occurs(name, cod):
                binder = f"forall {name}" if isinstance(dom, Underscore) else \
                    f"forall {name} : {r(dom)}"
                return wrap(_ARROW, f"{binder}, {r(cod)}")
            return wrap(_ARROW, f"{r(dom, _UNION)} -> {r(cod, _ARROW)}")
        case Union(_, left, right):
            return wrap(_UNION, f"{r(left, _INTER)} | {r(right, _UNION)}")
        case Inter(_, left, right):
            return wrap(_INTER, f"{r(left, _APP)} & {r(right, _INTER)}")
        case Abs(_, name, dom, body):
            binder = f"fun {name}" if isinstance(dom, Underscore) else \
                f"fun {name} : {r(dom)}"
            return wrap(_ARROW, f"{binder} => {r(body)}")
        case Let(_, name, annot, bound, body):
            head = f"let {name}" if isinstance(annot, Underscore) else \
                f"let {name} : {r(annot)}"
            return wrap(_ARROW, f"{head} := {r(bound)} in {r(body)}")
        case App(_, head, spine):
            return wrap(_APP, " ".join([r(head, _APP)] + [r(a, _ATOM) for a in spine]))
        case SPair(_, left, right):
            return f"<{r(left)}, {r(right)}>"
        case SPrLeft(_, body):
            return wrap(_APP, f"proj_l {r(body, _ATOM)}")
        case SPrRight(_, body):
            return wrap(_APP, f"proj_r {r(body, _ATOM)}")
        case SInLeft(_, other, body):
            return wrap(_APP, f"inj_l {r(other, _ATOM)} {r(body, _ATOM)}")
        case SInRight(_, other, body):
            return wrap(_APP, f"inj_r {r(other, _ATOM)} {r(body, _ATOM)}")
        case Coercion(_, target, body):
            return wrap(_APP, f"coe {r(target, _ATOM)} {r(body, _ATOM)}")
        case SMatch(_, scrut, motive, n1, a1, b1, n2, a2, b2):
            parts = [f"smatch {r(scrut)}"]
            if isinstance(motive, Abs):
                if motive.name and occurs(motive.name, motive.body):
                    parts.append(f"as {motive.name}")
                if not isinstance(motive.body, Underscore):
                    parts.append(f"return {r(motive.body)}")
            branch1 = f"{n1} => {r(b1)}" if isinstance(a1, Underscore) else \
                f"{n1} : {r(a1)} => {r(b1)}"
            branch2 = f"{n2} => {r(b2)}" if isinstance(a2, Underscore) else \
                f"{n2} : {r(a2)} => {r(b2)}"
            parts.append(f"with {branch1}, {branch2} end")
            return " ".join(parts)
    raise AssertionError(t)


# Binder hints and constants share one small pool, so that a hint collides
# with a constant in its scope, with an enclosing name, or with a name of
# its own x/x0/x1 suffix chain.
_PRINT_HINTS = ("", "x", "x0", "x1", "y", "y0", "c")
_PRINT_CONSTS = ("x", "x0", "x1", "y", "c", "A")


def random_printable_term(rng: random.Random, size: int, depth: int = 0,
                          indexed: bool = True) -> Term:
    """Random term over every node kind, for the printer differential.
    Indexed, its bound variables are indices below `depth` (which counts
    the scope the term is shown in).  Not indexed, it is a parsed-style term:
    bound variables are constants, and an inner binder may shadow an outer
    one."""

    def sub(n: int, under: int = 0) -> Term:
        return random_printable_term(rng, n, depth + under, indexed)

    def sizes(k: int) -> list[int]:
        cuts = sorted(rng.randint(0, size - 1) for _ in range(k - 1))
        return [max(1, b - a) for a, b in zip([0] + cuts, cuts + [size - 1])]

    def hint() -> str:
        return rng.choice(_PRINT_HINTS)

    def maybe_hole(n: int) -> Term:
        return Underscore(NOWHERE) if rng.random() < 0.25 else sub(n)

    if size <= 1:
        roll = rng.random()
        if indexed and depth and roll < 0.5:
            return Var(NOWHERE, rng.randrange(depth))
        if roll < 0.9:
            return Const(NOWHERE, rng.choice(_PRINT_CONSTS))
        return rng.choice([Sort(NOWHERE, SortKind.TYPE), Underscore(NOWHERE)])
    kind = rng.randrange(10)
    if kind in (0, 1, 2):
        d, b = sizes(2)
        node = (Prod, Abs, Prod)[kind]
        return node(NOWHERE, hint(), maybe_hole(d), sub(b, 1))
    if kind == 3:
        a, v, b = sizes(3)
        return Let(NOWHERE, hint(), maybe_hole(a), sub(v), sub(b, 1))
    if kind == 4:
        parts = sizes(rng.randint(2, 4))
        return App(NOWHERE, sub(parts[0]), tuple(sub(n) for n in parts[1:]))
    if kind == 5:
        a, b = sizes(2)
        node = rng.choice([Inter, Union, SPair, SInLeft, SInRight, Coercion])
        return node(NOWHERE, sub(a), sub(b))
    if kind == 6:
        return rng.choice([SPrLeft, SPrRight])(NOWHERE, sub(size - 1))
    if kind == 7:
        s, m, a1, b1, a2, b2 = sizes(6)
        body = Underscore(NOWHERE) if rng.random() < 0.25 else sub(m, 1)
        motive = Abs(NOWHERE, hint(), Underscore(NOWHERE), body)
        return SMatch(NOWHERE, sub(s), motive, hint(), maybe_hole(a1), sub(b1, 1),
                      hint(), maybe_hole(a2), sub(b2, 1))
    return Meta(NOWHERE, rng.randrange(5), tuple(sub(n) for n in sizes(rng.randint(1, 3))))


# ---------------------------------------------------------------------------
# Reference sort decision: `force_type` as it was before sorts were read off
# the synthesised type.  The type of the refined term is unified with Type
# and with Kind, and with a fresh sort meta when both succeed.  Kept only so
# tests can compare the two.


def reference_force_type(phi: MetaEnv, ctx: LocalEnv, t: Term
                         ) -> tuple[Term, Term]:
    t2, tau = reconstruct(phi, ctx, t)
    loc = t.loc
    mark = phi.mark()

    def probe(sort: Term) -> bool:
        try:
            unify(phi, ctx, tau, sort)
            return True
        except UnificationFailure:
            return False
        finally:
            phi.undo(mark)

    as_type = probe(sort_type(loc))
    as_kind = probe(sort_kind(loc))
    if as_type and as_kind:
        unify(phi, ctx, tau, Meta(loc, phi.fresh_meta(SortMeta()), ()))
    elif as_type or as_kind:
        unify(phi, ctx, tau, sort_type(loc) if as_type else sort_kind(loc))
    else:
        raise TypeCheckError(
            f'the term "{show_term(zonk(phi, t2), ctx.names())}" is not a type', loc)
    return t2, tau


def force_type_outcome(force, phi: MetaEnv, ctx: LocalEnv,
                       t: Term):
    """What a sort decision gives: the refined term, its type and the whole
    meta-environment, or the error's class, text and location.  The store is
    given back as it was."""
    mark = phi.mark()
    try:
        t2, tau = force(phi, ctx, t)
        return t2, tau, snapshot(phi)
    except ProverError as exc:
        return type(exc).__name__, exc.message, exc.loc
    finally:
        phi.undo(mark)


# ---------------------------------------------------------------------------
# Reference essence: `essence` as it was before a node knew whether its
# essence is itself.  Every node is walked and rebuilt, sorts, variables and
# constants included.  Strong pairs and matches check their hints with the
# production `essence_with_hint`.  Kept only so tests can compare the two.


def reference_essence(phi: MetaEnv, psi: LocalEnv, t: Term) -> Term:
    def go(psi: LocalEnv, t: Term) -> Term:
        match t:
            case Sort() | Var() | Const():
                return t
            case Underscore():
                raise InternalError("essence of an unrefined placeholder")
            case Meta(loc, mid, susp):
                if not isinstance(phi.lookup(mid), TypedMeta):
                    return t
                eid = phi.essence_companion(mid)
                return Meta(loc, eid, tuple(go(psi, s) for s in susp))
            case Abs(loc, name, dom, body):
                if not isinstance(dom, Underscore):
                    go(psi, dom)
                return Abs(loc, name, Underscore(loc),
                           go(psi.push_decl(name, Underscore(loc)), body))
            case Prod(loc, name, dom, cod):
                return Prod(loc, name, go(psi, dom),
                            go(psi.push_decl(name, Underscore(loc)), cod))
            case Let(loc, name, annot, bound, body):
                if not isinstance(annot, Underscore):
                    go(psi, annot)
                m1 = go(psi, bound)
                m2 = go(psi.push_def(name, m1, Underscore(loc)), body)
                return Let(loc, name, Underscore(loc), m1, m2)
            case App(loc, head, spine):
                return mk_app(loc, go(psi, head), [go(psi, arg) for arg in spine])
            case Inter(loc, left, right) | Union(loc, left, right):
                return type(t)(loc, go(psi, left), go(psi, right))
            case SPair(loc, left, right):
                m = go(psi, left)
                essence_with_hint(phi, psi, m, right)
                return m
            case SPrLeft(_, body) | SPrRight(_, body):
                return go(psi, body)
            case SInLeft(_, other, body) | SInRight(_, other, body) | Coercion(_, other, body):
                go(psi, other)
                return go(psi, body)
            case SMatch(loc, scrut, motive, n1, a1, b1, n2, a2, b2):
                big_n = go(psi, scrut)
                go(psi, motive)
                go(psi, a1)
                m = go(psi.push_decl(n1, Underscore(loc)), b1)
                go(psi, a2)
                essence_with_hint(phi, psi.push_decl(n2, Underscore(loc)), m, b2)
                return App(loc, Abs(loc, n1, Underscore(loc), m), (big_n,))
        raise InternalError(f"reference_essence: unhandled node {t!r}")

    return go(psi, t)


def essence_outcome(ess, phi: MetaEnv, psi: LocalEnv, t: Term):
    """What an essence judgment gives: the essence and the whole
    meta-environment, or the error's class, text and location.  The store is
    given back as it was."""
    mark = phi.mark()
    try:
        return ess(phi, psi, t), snapshot(phi)
    except ProverError as exc:
        return type(exc).__name__, exc.message, exc.loc
    finally:
        phi.undo(mark)


# ---------------------------------------------------------------------------
# Reference front end: the lexer and `fix_index` as they were before tokens
# and locations got cheaper constructors and `fix_index` kept a stack of
# binding depths per name.  `fix_index` copies the list of enclosing names at every binder and scans
# it for every constant.  Kept only so tests can compare the front end with
# them.


class ReferenceToken(NamedTuple):
    kind: str
    text: str
    loc: Location


def reference_tokenize(text: str, source: str = "<input>") -> list[ReferenceToken]:
    toks: list[ReferenceToken] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def here(width: int) -> Location:
        return Location(source, (line, col), (line, col + width))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("(*", i):
            depth, start = 1, here(2)
            i += 2
            col += 2
            while i < n and depth:
                if text.startswith("(*", i):
                    depth += 1
                    i += 2
                    col += 2
                elif text.startswith("*)", i):
                    depth -= 1
                    i += 2
                    col += 2
                elif text[i] == "\n":
                    line += 1
                    col = 1
                    i += 1
                else:
                    i += 1
                    col += 1
            if depth:
                raise LexError("unterminated comment", start)
            continue
        if c == '"':
            start = here(1)
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise LexError("unterminated string", start)
            value = text[i + 1:j]
            end = (line, col + (j - i) + 1)
            toks.append(ReferenceToken("STRING", value, Location(source, (line, col), end)))
            col += (j - i) + 1
            i = j + 1
            continue
        two = text[i:i + 2]
        if two in ("->", "=>", ":="):
            kind = {"->": "ARROW", "=>": "DARROW", ":=": "COLONEQ"}[two]
            toks.append(ReferenceToken(kind, two, here(2)))
            i += 2
            col += 2
            continue
        if c in "()<>&|:,.":
            kind = {"(": "LPAREN", ")": "RPAREN", "<": "LT", ">": "GT",
                    "&": "AMP", "|": "BAR", ":": "COLON", ",": "COMMA",
                    ".": "DOT"}[c]
            toks.append(ReferenceToken(kind, c, here(1)))
            i += 1
            col += 1
            continue
        if c in _IDCHARS:
            j = i
            while j < n and text[j] in _IDCHARS:
                j += 1
            word = text[i:j]
            if word == "_":
                kind = "UNDERSCORE"
            elif word in KEYWORDS:
                kind = "KW"
            else:
                kind = "ID"
            toks.append(ReferenceToken(kind, word, here(j - i)))
            col += j - i
            i = j
            continue
        raise LexError(f'unexpected character "{c}"', here(1))
    toks.append(ReferenceToken("EOF", "", Location(source, (line, col), (line, col))))
    return toks


def reference_fix_index(t: Term, scope: tuple[str, ...] = ()) -> Term:
    """Index `t` under `scope`.  A binder whose domain is the same object as
    its parent binder's (a group `(x y : A)` from the parser) reads it with
    the names its parent read it with, the parent's own name hidden."""
    def go(t: Term, names: list, group: tuple[Term, list] | None = None) -> Term:
        match t:
            case Const(loc, name):
                try:
                    return Var(loc, names.index(name))
                except ValueError:
                    return t
            case Abs(loc, name, dom, body) | Prod(loc, name, dom, body):
                dom_names = [None] + group[1] if group and dom is group[0] else names
                return type(t)(loc, name, go(dom, dom_names),
                               go(body, [name] + names, (dom, dom_names)))
            case _:
                return visit_term(lambda c: go(c, names), lambda s, c: go(c, [s] + names), t)

    return go(t, list(scope))
