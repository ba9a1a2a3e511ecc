"""Higher-order unification: one congruence rule, eta rules, and pattern
unification for meta-variables, solving them in place in the command's
meta-environment.

Unification is head-first, like conversion checking: `==` terms unify at
once, and otherwise each step compares the weak head normal forms of both
sides under the current meta-environment and recurses into their unreduced
children.  A child is reduced only when the comparison reaches it, under the
solutions found so far.  Definitions unfold at the head eagerly, not on a
head mismatch: postponing them would solve more metas (`f ?m =?= f a` with
`f := fun _ => c` would give `?m := a`), changing which definitions are
accepted.  Head views are eta-short, as normal forms are, so `fun x => ?m x`
stays the flexible `?m`.  Two heads of the same kind, other than
abstractions and metas, unify child by child in the node layout's order,
each child under the binder of the first head it sits under.  Binders push
a declaration whose type the essence phase never reads.

Meta-variables are solved by pattern unification: when a meta is applied
to distinct variables and the other side mentions nothing outside them,
the inverse index permutation gives the unique solution.  Inversion only
asks which suspension entries are variables, so the head view of an
unsolved meta views each entry and reads none back, except one viewed as
an abstraction (which may eta-contract to a variable) or a meta.  Two
views of the same meta whose suspensions differ are still compared as
normal forms before either is inverted.  Suspension entries that are not
variables are skipped during inversion, which still yields a sound
solution whenever the right-hand side does not need them; anything harder
fails rather than postponing constraints.
"""

from __future__ import annotations

from operator import is_not

from proofun.env import Decl, EssMeta, LocalEnv, MetaEnv, SortMeta, TypedMeta
from proofun.errors import TOO_DEEP, InternalError, ProverError, UnificationFailure
from proofun.normalize import normalize_meta, whnf, zonk
from proofun.syntax import (
    Abs, App, Const, Meta, NOWHERE, Sort, Term, Underscore, Var, binders, children,
    contains_meta, lift, loose, metas, mk_app, visit_term,
)


def _occurs(mid: int, t: Term) -> bool:
    return any(m.mid == mid for m in metas(t))


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
        if type(s) is Var:
            if s.index in inverse or s.index in duplicated:
                inverse.pop(s.index, None)
                duplicated.add(s.index)
            else:
                inverse[s.index] = n - 1 - i
    return inverse


def _invert(inverse: dict[int, int], t: Term, k: int = 0) -> Term:
    """Rewrite `t` into the solution space of the meta being solved.  A free
    variable outside the pattern aborts; when it sits inside another meta's
    suspension, that meta is reported for pruning instead.  A meta-free
    subterm whose free indices are all below `k` comes back as itself."""
    if loose(t) <= k and not contains_meta(t):
        return t
    kind = type(t)
    if kind is Var:
        idx = t.index - k
        if idx in inverse:
            return Var(t.loc, inverse[idx] + k)
        raise _NotInvertible
    if kind is Meta:
        susp = t.susp
        inverted: list[Term] = []
        keep: list[int] = []
        for i, s in enumerate(susp):
            try:
                inverted.append(_invert(inverse, s, k))
                keep.append(i)
            except _NotInvertible:
                pass
        if len(keep) == len(susp):
            return Meta(t.loc, t.mid, tuple(inverted))
        raise _NeedsPruning(t.mid, keep)
    return visit_term(lambda c: _invert(inverse, c, k),
                      lambda _s, c: _invert(inverse, c, k + 1), t)


def _prune_meta(phi: MetaEnv, mid: int, kept: list[int]) -> bool:
    """Instantiate `mid` with a fresh meta over the kept context positions.
    False, with nothing set, when a kept entry (or the meta's type) depends
    on a dropped one.
    `mid` is unsolved (`try_hopu` normalizes the right-hand side first) and
    not a sort meta (its suspension is empty, so nothing is dropped), and
    `kept` lists, in increasing order, fewer positions than its suspension
    has."""
    entry = phi.lookup(mid)
    n = len(entry.ctx)

    def cut(t: Term, r: int, p: int) -> Term:
        """Re-index `t`, scoped over the first `p` context positions, over
        the first `r` kept ones."""
        inverse = {p - 1 - q: r - 1 - i for i, q in enumerate(kept[:r])}
        return _invert(inverse, zonk(phi, t))

    try:
        old = entry.ctx.entries
        rebuilt: list[Decl] = []
        for r, p in enumerate(kept):
            e = old[n - 1 - p]
            rebuilt.append(Decl(e.name, cut(e.type, r, p),
                                None if e.body is None else cut(e.body, r, p)))
        pruned_ctx = LocalEnv(tuple(reversed(rebuilt)))
        if type(entry) is TypedMeta:
            decl = TypedMeta(pruned_ctx, cut(entry.type, len(kept), n))
        else:
            decl = EssMeta(pruned_ctx)
    except (_NotInvertible, _NeedsPruning):
        return False
    susp = tuple(Var(NOWHERE, n - 1 - p) for p in kept)
    phi.instantiate_meta(mid, Meta(NOWHERE, phi.fresh_meta(decl), susp))
    return True


def try_hopu(phi: MetaEnv, ctx: LocalEnv, m: Meta, rhs: Term,
             is_essence: bool = False) -> Term | None:
    """Solve `m ≐ rhs` by pattern unification with pruning and return the
    solution; None, with the pruning undone, when the problem is outside the
    fragment, so the caller can fall back.  An occurs-check violation is a
    hard failure, not a fallback."""
    mark = phi.mark()
    while True:
        entry = phi.lookup(m.mid)
        rhs_n = normalize_meta(phi, ctx, rhs, is_essence)
        if _occurs(m.mid, rhs_n):
            raise UnificationFailure(m, rhs_n, m.loc)
        if entry.value is not None:
            raise InternalError("try_hopu on an instantiated meta-variable")
        if type(entry) is SortMeta:
            if type(rhs_n) is not Sort and not (
                    type(rhs_n) is Meta and phi.lookup(rhs_n.mid) == SortMeta()):
                return None
            solution = rhs_n
            break
        if len(entry.ctx) != len(m.susp):
            raise InternalError("suspension length does not match the meta context")
        try:
            solution = _invert(_suspension_inverse(m.susp), rhs_n)
            break
        except _NotInvertible:
            pass
        except _NeedsPruning as need:
            if _prune_meta(phi, need.mid, need.keep):
                continue  # each round strictly shrinks a suspension
        phi.undo(mark)
        return None
    phi.instantiate_meta(m.mid, solution)
    return solution


def unify(phi: MetaEnv, ctx: LocalEnv, t1: Term, t2: Term, is_essence: bool = False) -> None:
    """Unify two terms, solving metas in `phi`, or raise
    `UnificationFailure` on a rigid mismatch; the caller undoes what a
    failed unification solved.  Terms nested too deeply to walk raise a
    `ProverError` with no location (`errors.TOO_DEEP`)."""
    try:
        if t1 != t2:
            _unify_heads(phi, ctx, t1, t2, is_essence)
    except RecursionError:  # free until raised, unlike a decorator's frame on this hot path
        raise ProverError(TOO_DEEP) from None


def _head(phi: MetaEnv, ctx: LocalEnv, t: Term, is_essence: bool) -> Term:
    """The eta-short weak head normal form of `t`.  Nested abstractions are
    viewed down to their first body that is not one; only when that body
    applies something to a term whose view is the innermost variable can the
    normal form eta-contract, and then the abstraction is normalized whole.
    An unsolved meta has each suspension entry viewed: inversion needs
    variables, not redexes.  Only an entry viewed as an abstraction or a
    meta is normalized, and the meta is rebuilt only if an entry changed."""
    outer, abstractions = ctx, []
    t = whnf(phi, ctx, t, is_essence)
    while type(t) is Abs:
        abstractions.append(t)
        ctx = ctx.push_decl(t.name, t.domain)
        t = whnf(phi, ctx, t.body, is_essence)
    if abstractions and type(t) is App and (
            _head(phi, ctx, t.spine[-1], is_essence) == Var(NOWHERE, 0)):
        return normalize_meta(phi, outer, abstractions[0], is_essence)
    if type(t) is Meta:
        susp = [whnf(phi, ctx, s, is_essence) for s in t.susp]
        susp = [normalize_meta(phi, ctx, s, is_essence) if type(s) is Abs or type(s) is Meta
                else s for s in susp]
        if any(map(is_not, susp, t.susp)):
            t = Meta(t.loc, t.mid, tuple(susp))
    for b in reversed(abstractions):
        t = Abs(b.loc, b.name, b.domain, t)
    return t


def _peel(t: Term) -> Term:
    """The body of an abstraction, or `t` applied to the new variable."""
    if type(t) is Abs:
        return t.body
    return mk_app(t.loc, lift(0, 1, t), (Var(NOWHERE, 0),))


# The head kinds whose equal views unify at once: the leaves, and metas.
_COMPARED_FIRST = frozenset({Var, Const, Sort, Underscore, Meta})


def _unify_heads(phi: MetaEnv, ctx: LocalEnv, t1: Term, t2: Term, is_essence: bool) -> None:
    """One step below `unify`'s entry: compare the heads, then recurse
    into the children by calling itself, one Python frame per nesting
    level."""
    t1 = _head(phi, ctx, t1, is_essence)
    t2 = _head(phi, ctx, t2, is_essence)
    k1, k2 = type(t1), type(t2)
    if t1 is t2 or k1 in _COMPARED_FIRST and t1 == t2:
        return

    # Meta cases first: a meta can absorb an abstraction, so they take
    # priority over the eta rules.
    if k1 is Meta or k2 is Meta:
        if (k1 is Meta and k2 is Meta and t1.mid == t2.mid
                and normalize_meta(phi, ctx, t1, is_essence)
                == normalize_meta(phi, ctx, t2, is_essence)):
            return
        if k1 is Meta and try_hopu(phi, ctx, t1, t2, is_essence) is not None:
            return
        if k2 is Meta and try_hopu(phi, ctx, t2, t1, is_essence) is not None:
            return
        raise UnificationFailure(t1, t2, t1.loc)

    # Abstractions, with eta when exactly one side is one.  The body of a head
    # view is a head view, so binders are peeled here, not viewed again.
    if k1 is Abs or k2 is Abs:
        while (k1 is Abs or k2 is Abs) and not (k1 is Meta or k2 is Meta):
            if k1 is Abs and k2 is Abs:
                _unify_heads(phi, ctx, t1.domain, t2.domain, is_essence)
            binder = t1 if k1 is Abs else t2
            ctx, t1, t2 = ctx.push_decl(binder.name, binder.domain), _peel(t1), _peel(t2)
            k1, k2 = type(t1), type(t2)
        return _unify_heads(phi, ctx, t1, t2, is_essence)

    # Like-shaped nodes: unify their children in order, each under the
    # binder of `t1` it sits under.  Leaves that differ are a mismatch.
    kids1, kids2 = children(t1), children(t2)
    if k1 is not k2 or not kids1 or len(kids1) != len(kids2):
        raise UnificationFailure(t1, t2, t1.loc)
    for a, b, binder in zip(kids1, kids2, binders(t1)):
        _unify_heads(phi, ctx if binder is None else ctx.push_decl(*binder), a, b, is_essence)


def unify_essence(phi: MetaEnv, psi: LocalEnv, m1: Term, m2: Term) -> None:
    """The same engine restricted to the essence sublanguage."""
    unify(phi, psi, m1, m2, is_essence=True)
