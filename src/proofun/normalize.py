"""Strong normalization under beta, eta, projection, injection, let, and the
three delta rules (global definitions, local definitions, solved metas).

The strategy is applicative order: normalize all children left to right,
then contract the root if it is a redex, and repeat.  `strongly_normalize`
is the strict entry point for meta-free terms; `normalize_meta` additionally
expands solved meta-variables and treats unsolved ones as rigid atoms, which
is what unification needs.
"""

from __future__ import annotations

from proofun.env import Context, EssDef, GlobalEnv, MetaEnv, SortDef, TypedDef
from proofun.errors import FuelExhausted, InternalError
from proofun.syntax import (
    Abs, App, Const, Let, Meta, SInLeft, SInRight, SMatch, SPair, SPrLeft,
    SPrRight, Term, Var,
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
        case TypedDef(ctx, body, _):
            if len(ctx) != len(m.susp):
                raise InternalError("suspension length does not match the meta context")
            return msubst(body, m.susp)
        case EssDef(ctx, essence):
            if len(ctx) != len(m.susp):
                raise InternalError("suspension length does not match the meta context")
            return msubst(essence, m.susp)
        case _:
            return None


_DONE, _AGAIN = False, True


def _contract(phi: MetaEnv | None, is_essence: bool, genv: GlobalEnv,
              ctx: Context, t: Term) -> tuple[Term, bool]:
    """One root contraction; children of `t` are already normal.  `_AGAIN`
    asks the driver to renormalize the contractum, `_DONE` means the result
    is final (already normal by construction)."""
    match t:
        # Spine discipline: reductions can create odd spines, re-merge first.
        case App(l, App(_, h, s2), s1):
            return App(l, h, s2 + s1), _AGAIN
        case App(_, h, ()):
            return h, _DONE
        case App(l, Abs(_, _, _, body), spine):
            contractum = beta_redex(body, spine[0])
            return mk_app(l, contractum, spine[1:]), _AGAIN
        case Let(_, _, _, bound, body):
            return beta_redex(body, bound), _AGAIN
        case Var(_, n):
            body = ctx.def_body(n)
            if body is None:
                return t, _DONE
            if isinstance(body, Var):
                return body, _DONE
            return body, _AGAIN
        case Const(_, name):
            found = genv.find_const(is_essence, name)
            if found is None or found[0] is None:  # unbound or axiom: fixed
                return t, _DONE
            return found[0], _AGAIN
        case Abs(_, _, _, App(l2, head, spine)) if spine and (
                isinstance(spine[-1], Var) and spine[-1].index == 0):
            if is_eta(App(l2, head, spine[:-1])):
                head2 = lift(0, -1, head)
                rest = tuple(lift(0, -1, a) for a in spine[:-1])
                return (head2 if not rest else App(l2, head2, rest)), _DONE
            return t, _DONE
        case SPrLeft(_, SPair(_, x, _)):
            return x, _DONE
        case SPrRight(_, SPair(_, _, x)):
            return x, _DONE
        case SMatch(_, SInLeft(_, _, payload), _, _, _, branch1, _, _, _):
            return beta_redex(branch1, payload), _AGAIN
        case SMatch(_, SInRight(_, _, payload), _, _, _, _, _, _, branch2):
            return beta_redex(branch2, payload), _AGAIN
        case Meta() as m:
            if phi is None:
                raise InternalError("strongly_normalize reached a meta-variable")
            expanded = delta_phi_expand(phi, m)
            if expanded is None:
                return t, _DONE
            return expanded, _AGAIN
        case _:
            return t, _DONE


def _norm(phi: MetaEnv | None, is_essence: bool, genv: GlobalEnv,
          ctx: Context, t: Term, fuel: _Fuel) -> Term:
    while True:
        fuel.tick()
        t = visit_term(
            lambda c: _norm(phi, is_essence, genv, ctx, c, fuel),
            lambda _s, c: _norm(phi, is_essence, genv, ctx.push_dummy(), c, fuel),
            lambda s, _c: s,
            t,
        )
        t, again = _contract(phi, is_essence, genv, ctx, t)
        if not again:
            return t


def strongly_normalize(is_essence: bool, genv: GlobalEnv, ctx: Context,
                       t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normal form of a meta-free term.  Non-termination is out of contract
    for ill-typed input; the fuel budget turns it into a reported error."""
    if contains_meta(t):
        raise InternalError("strongly_normalize: input contains a meta-variable")
    if not is_essence and first_underscore(t) is not None:
        raise InternalError("strongly_normalize: input contains a placeholder")
    return _norm(None, is_essence, genv, ctx, t, _Fuel(fuel))


def normalize_meta(phi: MetaEnv, genv: GlobalEnv, ctx: Context, t: Term,
                   is_essence: bool = False, fuel: int = DEFAULT_FUEL) -> Term:
    """Normalization for the unifier and refiner: solved metas are expanded,
    unsolved ones normalize their suspensions and stay put."""
    return _norm(phi, is_essence, genv, ctx, t, _Fuel(fuel))


def whnf(phi: MetaEnv, genv: GlobalEnv, ctx: Context, t: Term,
         is_essence: bool = False, fuel: int = DEFAULT_FUEL) -> Term:
    """Reduce just enough to expose the top connective (a view, not a normal
    form); used by the refiner's beta-view premises.  Head reductions of
    applications draw on the same `fuel` budget as the rest."""
    return _whnf(phi, genv, ctx, t, is_essence, _Fuel(fuel))


def _whnf(phi: MetaEnv, genv: GlobalEnv, ctx: Context, t: Term,
          is_essence: bool, budget: _Fuel) -> Term:
    while True:
        budget.tick()
        match t:
            case Meta() as m:
                expanded = delta_phi_expand(phi, m)
                if expanded is None:
                    return t
                t = expanded
            case App(l, App(_, h, s2), s1):
                t = App(l, h, s2 + s1)
            case App(_, h, ()):
                t = h
            case App(l, Abs(_, _, _, body), spine):
                t = mk_app(l, beta_redex(body, spine[0]), spine[1:])
            case Let(_, _, _, bound, body):
                t = beta_redex(body, bound)
            case SPrLeft(_, SPair(_, x, _)):
                t = x
            case SPrRight(_, SPair(_, _, x)):
                t = x
            case SMatch(_, SInLeft(_, _, p), _, _, _, b1, _, _, _):
                t = beta_redex(b1, p)
            case SMatch(_, SInRight(_, _, p), _, _, _, _, _, _, b2):
                t = beta_redex(b2, p)
            case Var(_, n):
                body = ctx.def_body(n)
                if body is None:
                    return t
                t = body
            case Const(_, name):
                found = genv.find_const(is_essence, name)
                if found is None or found[0] is None:
                    return t
                t = found[0]
            case App(l, h, spine):
                h2 = _whnf(phi, genv, ctx, h, is_essence, budget)
                if h2 is h:
                    return t
                t = App(l, h2, spine)
            case _:
                return t


def zonk(phi: MetaEnv, t: Term) -> Term:
    """Deeply replace every solved meta-variable by its solution (with the
    suspended substitution applied); no other reduction is performed."""
    if isinstance(t, Meta):
        expanded = delta_phi_expand(phi, t)
        if expanded is not None:
            return zonk(phi, expanded)
        return Meta(t.loc, t.mid, tuple(zonk(phi, s) for s in t.susp))
    return visit_term(
        lambda c: zonk(phi, c),
        lambda _s, c: zonk(phi, c),
        lambda s, _c: s,
        t,
    )
