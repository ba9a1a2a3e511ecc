"""Strong normalization under beta, eta, projection, injection, let, and the
three delta rules (global definitions, local definitions, solved metas).

There is one set of reduction rules, `_whnf`, which rewrites the root of a
term until it is no longer a redex (weak head normal form).  Strong
normalization is head-first: `_norm` takes the weak head normal form, then
normalizes the children, then applies eta to an abstraction whose body is
normal.  A discarded argument is therefore never normalized, and a
duplicated, unevaluated argument is normalized once per copy.  A subterm
that is already normal comes back as the same object.  One fuel
budget covers a whole call: a tick per `_whnf` step plus a tick per node
`_norm` visits.

`strongly_normalize` is the strict entry point for meta-free terms;
`normalize_meta` additionally expands solved meta-variables and treats
unsolved ones as rigid atoms, which is what unification needs; `whnf` is
the head view the refiner's premises use.
"""

from __future__ import annotations

from dataclasses import replace
from operator import is_

from proofun.env import EssDef, GlobalEnv, LocalEnv, MetaEnv, SortDef, TypedDef
from proofun.errors import FuelExhausted, InternalError
from proofun.syntax import (
    Abs, App, Coercion, Const, Inter, Let, Meta, Prod, SInLeft, SInRight,
    SMatch, SPair, SPrLeft, SPrRight, Sort, Term, Underscore, Union, Var,
    beta_redex, contains_meta, first_underscore, free_in, lift, mk_app,
    msubst, visit_term,
)

DEFAULT_FUEL = 1_000_000


class _Fuel:
    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise FuelExhausted("normalization did not terminate within the step budget")


def is_eta(t: Term) -> bool:
    """True iff index 0 does not occur free in `t`, so an enclosing binder
    can be stripped and the indices shifted down."""
    if isinstance(t, App) and not t.spine:
        return not free_in(0, t.head)
    return not free_in(0, t)


def delta_phi_expand(phi: MetaEnv, m: Meta) -> Term | None:
    """Solution of an instantiated meta-variable with its suspended
    substitution applied; None while the meta is only declared."""
    entry = phi.lookup(m.mid)
    match entry:
        case SortDef(sort):
            return sort  # sort metas ignore their suspension
        case TypedDef(ctx, body, _) | EssDef(ctx, body):
            if len(ctx) != len(m.susp):
                raise InternalError("suspension length does not match the meta context")
            return msubst(body, m.susp)
        case _:
            return None


def _norm(phi: MetaEnv | None, is_essence: bool, genv: GlobalEnv,
          ctx: LocalEnv, t: Term, fuel: _Fuel) -> Term:
    fuel.tick()
    t = _whnf(phi, genv, ctx, t, is_essence, fuel)
    norm = lambda c: _norm(phi, is_essence, genv, ctx, c, fuel)
    under = lambda _s, c: _norm(phi, is_essence, genv, ctx.push_dummy(), c, fuel)
    keep = lambda s, _c: s
    if type(t) is App:  # its head is in weak head normal form: skip that root
        head, spine = visit_term(norm, under, keep, t.head), []
        for a in t.spine:  # not `map(norm, ...)`: one Python frame per nesting level
            spine.append(_norm(phi, is_essence, genv, ctx, a, fuel))
        if head is t.head and all(map(is_, spine, t.spine)):
            return t
        return App(t.loc, head, tuple(spine))
    t = visit_term(norm, under, keep, t)
    match t:
        # eta: fun x => h a1 .. an x  ~>  h a1 .. an, when x is not free there
        case Abs(_, _, _, App(l, head, spine)) if (
                isinstance(spine[-1], Var) and spine[-1].index == 0
                and is_eta(App(l, head, spine[:-1]))):
            return mk_app(l, lift(0, -1, head),
                          tuple(lift(0, -1, a) for a in spine[:-1]))
    return t


def strongly_normalize(is_essence: bool, genv: GlobalEnv, ctx: LocalEnv,
                       t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normal form of a meta-free term.  Non-termination is out of contract
    for ill-typed input; the fuel budget turns it into a reported error."""
    if contains_meta(t):
        raise InternalError("strongly_normalize: input contains a meta-variable")
    if not is_essence and first_underscore(t) is not None:
        raise InternalError("strongly_normalize: input contains a placeholder")
    return _norm(None, is_essence, genv, ctx, t, _Fuel(fuel))


def normalize_meta(phi: MetaEnv, genv: GlobalEnv, ctx: LocalEnv, t: Term,
                   is_essence: bool = False, fuel: int = DEFAULT_FUEL) -> Term:
    """Normalization for the unifier and refiner: solved metas are expanded,
    unsolved ones normalize their suspensions and stay put."""
    return _norm(phi, is_essence, genv, ctx, t, _Fuel(fuel))


def whnf(phi: MetaEnv, genv: GlobalEnv, ctx: LocalEnv, t: Term,
         is_essence: bool = False, fuel: int = DEFAULT_FUEL) -> Term:
    """Reduce just enough to expose the top connective (a view, not a normal
    form); used by the refiner's beta-view premises.  The heads of
    applications, the bodies of projections and the scrutinees of matches
    are reduced on the same `fuel` budget."""
    return _whnf(phi, genv, ctx, t, is_essence, _Fuel(fuel))


# Node kinds whose root is never a redex: `_whnf` hands them back untouched.
_INERT = frozenset({Prod, Abs, Inter, Union, Sort, SPair, SInLeft, SInRight,
                    Coercion, Underscore})


def _whnf(phi: MetaEnv | None, genv: GlobalEnv, ctx: LocalEnv, t: Term,
          is_essence: bool, fuel: _Fuel) -> Term:
    """The reduction rules, applied at the root until none applies.  A term
    already in weak head normal form comes back as the same object, which
    the application case relies on to stop."""
    while type(t) not in _INERT:
        fuel.tick()
        match t:
            case App(l, App(_, h, s2), s1):
                t = App(l, h, s2 + s1)
            case App(_, h, ()):
                t = h
            case App(l, Abs(_, _, _, body), spine):
                t = mk_app(l, beta_redex(body, spine[0]), spine[1:])
            case App(l, h, spine):
                h2 = _whnf(phi, genv, ctx, h, is_essence, fuel)
                if h2 is h:
                    return t
                t = App(l, h2, spine)
            case Var(_, n):
                body = ctx.def_body(n)
                if body is None:
                    return t
                t = body
            case Const(_, name):
                found = genv.find_const(is_essence, name)
                if found is None or found[0] is None:  # unbound or axiom: fixed
                    return t
                t = found[0]
            case Let(_, _, _, bound, body):
                t = beta_redex(body, bound)
            case SPrLeft(l, body) | SPrRight(l, body):
                pair = _whnf(phi, genv, ctx, body, is_essence, fuel)
                if type(pair) is not SPair:
                    return t if pair is body else type(t)(l, pair)
                t = pair.left if type(t) is SPrLeft else pair.right
            case SMatch(scrutinee=scrutinee):
                injection = _whnf(phi, genv, ctx, scrutinee, is_essence, fuel)
                if type(injection) is SInLeft:
                    t = beta_redex(t.branch1, injection.body)
                elif type(injection) is SInRight:
                    t = beta_redex(t.branch2, injection.body)
                else:
                    return t if injection is scrutinee else replace(t, scrutinee=injection)
            case Meta() as m:
                if phi is None:
                    raise InternalError("strongly_normalize reached a meta-variable")
                expanded = delta_phi_expand(phi, m)
                if expanded is None:
                    return t
                t = expanded
            case _:
                raise InternalError(f"_whnf: unknown node {t!r}")
    return t


def zonk(phi: MetaEnv, t: Term) -> Term:
    """Deeply replace every solved meta-variable by its solution (with the
    suspended substitution applied); no other reduction is performed.  Only
    the nodes above a meta-variable are visited: a meta-free subterm comes
    back as the same object."""
    return _zonk(phi, t)


def _zonk(phi: MetaEnv, t: Term) -> Term:
    if not contains_meta(t):
        return t
    if type(t) is Meta:
        expanded = delta_phi_expand(phi, t)
        if expanded is not None:
            return _zonk(phi, expanded)
    return visit_term(
        lambda c: _zonk(phi, c),
        lambda _s, c: _zonk(phi, c),
        lambda s, _c: s,
        t,
    )
