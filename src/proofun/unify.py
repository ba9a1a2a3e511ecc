"""Higher-order unification: structural congruences, eta rules, and pattern
unification for meta-variables, threading an explicit meta-environment.

`unify` normalizes both sides once (solved metas expanded) and then
recurses on the normal forms: every subterm reached is normal under the
meta-environment its parent was normalized in.  A subterm is normalized
again only when a meta was solved since then and the subterm mentions a
meta, since only a solution can create a redex inside a normal form.
Alpha-equality is tested once on entry and below that only at leaves and
meta-variables.

Meta-variables are solved by pattern unification: when a meta is applied
to distinct variables and the other side mentions nothing outside them,
the inverse index permutation gives the unique solution.  Suspension
entries that are not variables are skipped during inversion, which still
yields a sound solution whenever the right-hand side does not need them;
anything harder fails rather than postponing constraints.
"""

from __future__ import annotations

from proofun.env import (
    Bare, Context, Decl, EssDecl, EssenceEnv, EssLocalDef, GlobalEnv,
    LocalDef, LocalEnv, MetaEnv, SortDecl, TypedDecl,
)
from proofun.errors import InternalError, UnificationFailure
from proofun.normalize import normalize_meta, zonk
from proofun.syntax import (
    Abs, App, Coercion, Const, Inter, Location, Meta, NOWHERE, Prod, SInLeft,
    SInRight, SMatch, Sort, SPair, SPrLeft, SPrRight, Term, Underscore, Union,
    Var, contains_meta, lift, map_term, mk_app, same_term, subterms,
    visit_term,
)


def _push(ctx: Context, name: str, ty: Term) -> Context:
    if isinstance(ctx, EssenceEnv):
        return ctx.push_bare(name)
    return ctx.push_decl(name, ty)


def _occurs(mid: int, t: Term) -> bool:
    return any(isinstance(s, Meta) and s.mid == mid for s in subterms(t))


class _NotInvertible(Exception):
    pass


class _NeedsPruning(Exception):
    """A meta-variable on the right-hand side suspends terms the solution
    cannot mention; it must be restricted to the kept positions first."""

    def __init__(self, mid: int, keep: list[int]):
        self.mid = mid
        self.keep = keep


def _suspension_inverse(susp: tuple[Term, ...]) -> dict[int, int]:
    """Map each distinct variable in the suspension to its solution index;
    duplicated variables are ambiguous and non-variables not invertible."""
    n = len(susp)
    inverse: dict[int, int] = {}
    duplicated: set[int] = set()
    for i, s in enumerate(susp):
        if isinstance(s, Var):
            if s.index in inverse or s.index in duplicated:
                inverse.pop(s.index, None)
                duplicated.add(s.index)
            else:
                inverse[s.index] = n - 1 - i
    return inverse


def _invert(inverse: dict[int, int], t: Term, k: int = 0) -> Term:
    """Rewrite `t` into the solution space of the meta being solved.  A free
    variable outside the pattern aborts; when it sits inside another meta's
    suspension, that meta is reported for pruning instead."""
    match t:
        case Var(loc, idx):
            if idx < k:
                return Var(loc, idx)
            if idx - k in inverse:
                return Var(loc, inverse[idx - k] + k)
            raise _NotInvertible
        case Meta(loc, mid, susp):
            inverted: list[Term] = []
            keep: list[int] = []
            for i, s in enumerate(susp):
                try:
                    inverted.append(_invert(inverse, s, k))
                    keep.append(i)
                except _NotInvertible:
                    pass
            if len(keep) == len(susp):
                return Meta(loc, mid, tuple(inverted))
            raise _NeedsPruning(mid, keep)
        case _:
            return visit_term(
                lambda c: _invert(inverse, c, k),
                lambda _s, c: _invert(inverse, c, k + 1),
                lambda s, _c: s,
                t,
            )


def _strengthen(t: Term, new_pos: dict[int, int], r: int, p: int) -> Term:
    """Re-index a term scoped over the first `p` context positions so it is
    scoped over the kept positions only (`r` of them)."""

    def f(k: int, loc: Location, m: int) -> Term:
        if m < k:
            return Var(loc, m)
        q = p - 1 - (m - k)
        if q not in new_pos:
            raise _NotInvertible
        return Var(loc, (r - 1 - new_pos[q]) + k)

    return map_term(0, f, t)


def _prune_meta(phi: MetaEnv, mid: int, keep: list[int]) -> MetaEnv | None:
    """Instantiate `mid` with a fresh meta over the kept context positions.
    None when a kept entry (or the meta's type) depends on a dropped one."""
    entry = phi.lookup(mid)
    if not isinstance(entry, (TypedDecl, EssDecl)):
        return None
    n = len(entry.ctx)
    kept = sorted(set(keep))
    if len(kept) >= n:
        return None
    new_pos = {p: r for r, p in enumerate(kept)}

    def cut(t: Term, r: int, p: int) -> Term:
        return _strengthen(zonk(phi, t), new_pos, r, p)

    try:
        if isinstance(entry, TypedDecl):
            old = entry.ctx.entries
            rebuilt: list[Decl | LocalDef] = []
            for r, p in enumerate(kept):
                e = old[n - 1 - p]
                if isinstance(e, LocalDef):
                    rebuilt.append(LocalDef(e.name, cut(e.body, r, p),
                                            cut(e.type, r, p)))
                else:
                    rebuilt.append(Decl(e.name, cut(e.type, r, p)))
            pruned_ctx = LocalEnv(tuple(reversed(rebuilt)))
            pruned_ty = cut(entry.type, len(kept), n)
            phi, fresh = phi.fresh_meta(TypedDecl(pruned_ctx, pruned_ty))
        else:
            old_e = entry.ctx.entries
            rebuilt_e: list[Bare | EssLocalDef] = []
            for r, p in enumerate(kept):
                e = old_e[n - 1 - p]
                if isinstance(e, EssLocalDef):
                    rebuilt_e.append(EssLocalDef(e.name, cut(e.essence, r, p)))
                else:
                    rebuilt_e.append(Bare(e.name))
            phi, fresh = phi.fresh_meta(EssDecl(EssenceEnv(tuple(reversed(rebuilt_e)))))
    except _NotInvertible:
        return None
    susp = tuple(Var(NOWHERE, n - 1 - p) for p in kept)
    return phi.instantiate_meta(mid, Meta(NOWHERE, fresh, susp))


def try_hopu(phi: MetaEnv, genv: GlobalEnv, ctx: Context, m: Meta, rhs: Term,
             is_essence: bool = False) -> MetaEnv | None:
    """Solve `m ≐ rhs` by pattern unification with pruning; None when the
    problem is outside the fragment, so the caller can fall back.  An
    occurs-check violation is a hard failure, not a fallback."""
    while True:
        entry = phi.lookup(m.mid)
        rhs_n = normalize_meta(phi, genv, ctx, rhs, is_essence)
        if _occurs(m.mid, rhs_n):
            raise UnificationFailure(m, rhs_n, m.loc)
        if isinstance(entry, SortDecl):
            if isinstance(rhs_n, Sort):
                return phi.instantiate_meta(m.mid, rhs_n)
            if isinstance(rhs_n, Meta) and isinstance(phi.lookup(rhs_n.mid), SortDecl):
                return phi.instantiate_meta(m.mid, rhs_n)
            return None
        if not isinstance(entry, (TypedDecl, EssDecl)):
            raise InternalError("try_hopu on an instantiated meta-variable")
        if len(entry.ctx) != len(m.susp):
            raise InternalError("suspension length does not match the meta context")
        inverse = _suspension_inverse(m.susp)
        try:
            solution = _invert(inverse, rhs_n)
        except _NotInvertible:
            return None
        except _NeedsPruning as need:
            pruned = _prune_meta(phi, need.mid, need.keep)
            if pruned is None:
                return None
            phi = pruned  # each round strictly shrinks a suspension
            continue
        return phi.instantiate_meta(m.mid, solution)


def unify(phi: MetaEnv, genv: GlobalEnv, ctx: Context, t1: Term, t2: Term,
          is_essence: bool = False) -> MetaEnv:
    """Unify two terms, returning the extended meta-environment or raising
    `UnificationFailure` on a rigid mismatch."""
    t1 = normalize_meta(phi, genv, ctx, t1, is_essence)
    t2 = normalize_meta(phi, genv, ctx, t2, is_essence)
    if same_term(t1, t2):
        return phi
    return _unify_normal(phi, genv, ctx, t1, t2, is_essence, phi)


def _unify_normal(phi: MetaEnv, genv: GlobalEnv, ctx: Context, t1: Term,
                  t2: Term, is_essence: bool, normal_at: MetaEnv) -> MetaEnv:
    """`unify` on two terms already normal under `normal_at`, an earlier or
    the current state of `phi`.  A side is normalized again only when metas
    were solved since then and it mentions one."""
    if phi is not normal_at:
        if contains_meta(t1):
            t1 = normalize_meta(phi, genv, ctx, t1, is_essence)
        if contains_meta(t2):
            t2 = normalize_meta(phi, genv, ctx, t2, is_essence)
    if isinstance(t1, (Sort, Var, Const, Underscore, Meta)) and same_term(t1, t2):
        return phi
    here = phi

    def recur(phi: MetaEnv, ctx: Context, a: Term, b: Term) -> MetaEnv:
        return _unify_normal(phi, genv, ctx, a, b, is_essence, here)

    # Meta cases first: a meta can absorb an abstraction, so they take
    # priority over the eta rules.
    if isinstance(t1, Meta) or isinstance(t2, Meta):
        if isinstance(t1, Meta):
            solved = try_hopu(phi, genv, ctx, t1, t2, is_essence)
            if solved is not None:
                return solved
        if isinstance(t2, Meta):
            solved = try_hopu(phi, genv, ctx, t2, t1, is_essence)
            if solved is not None:
                return solved
        raise UnificationFailure(t1, t2, t1.loc)

    # Eta: exactly one side is an abstraction.
    if isinstance(t1, Abs) and not isinstance(t2, Abs):
        applied = mk_app(t2.loc, lift(0, 1, t2), (Var(NOWHERE, 0),))
        return recur(phi, _push(ctx, t1.name, t1.domain), t1.body, applied)
    if isinstance(t2, Abs) and not isinstance(t1, Abs):
        applied = mk_app(t1.loc, lift(0, 1, t1), (Var(NOWHERE, 0),))
        return recur(phi, _push(ctx, t2.name, t2.domain), applied, t2.body)

    match (t1, t2):
        case (Abs(_, n1, d1, b1), Abs(_, _, d2, b2)):
            phi = recur(phi, ctx, d1, d2)
            return recur(phi, _push(ctx, n1, d1), b1, b2)
        case (Prod(_, n1, d1, c1), Prod(_, _, d2, c2)):
            phi = recur(phi, ctx, d1, d2)
            return recur(phi, _push(ctx, n1, d1), c1, c2)
        case (Inter(_, a1, a2), Inter(_, b1, b2)):
            phi = recur(phi, ctx, a1, b1)
            return recur(phi, ctx, a2, b2)
        case (Union(_, a1, a2), Union(_, b1, b2)):
            phi = recur(phi, ctx, a1, b1)
            return recur(phi, ctx, a2, b2)
        case (SPair(_, a1, a2), SPair(_, b1, b2)):
            phi = recur(phi, ctx, a1, b1)
            return recur(phi, ctx, a2, b2)
        case (SPrLeft(_, a), SPrLeft(_, b)) | (SPrRight(_, a), SPrRight(_, b)):
            return recur(phi, ctx, a, b)
        case (SInLeft(_, o1, a), SInLeft(_, o2, b)) | (SInRight(_, o1, a), SInRight(_, o2, b)):
            phi = recur(phi, ctx, o1, o2)
            return recur(phi, ctx, a, b)
        case (Coercion(_, s1, a), Coercion(_, s2, b)):
            phi = recur(phi, ctx, s1, s2)
            return recur(phi, ctx, a, b)
        case (SMatch(_, s1, m1, x1, a1, l1, y1, c1, r1),
              SMatch(_, s2, m2, _, a2, l2, _, c2, r2)):
            phi = recur(phi, ctx, s1, s2)
            phi = recur(phi, ctx, m1, m2)
            phi = recur(phi, ctx, a1, a2)
            phi = recur(phi, _push(ctx, x1, a1), l1, l2)
            phi = recur(phi, ctx, c1, c2)
            return recur(phi, _push(ctx, y1, c1), r1, r2)
        # Fallback: recursively unify every subterm of like-shaped nodes.
        case (App(_, h1, s1), App(_, h2, s2)):
            if len(s1) != len(s2):
                raise UnificationFailure(t1, t2, t1.loc)
            phi = recur(phi, ctx, h1, h2)
            for a, b in zip(s1, s2):
                phi = recur(phi, ctx, a, b)
            return phi
    raise UnificationFailure(t1, t2, t1.loc)


def unify_essence(phi: MetaEnv, genv: GlobalEnv, psi: EssenceEnv,
                  m1: Term, m2: Term) -> MetaEnv:
    """The same engine restricted to the essence sublanguage."""
    return unify(phi, genv, psi, m1, m2, is_essence=True)
