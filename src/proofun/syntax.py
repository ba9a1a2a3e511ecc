"""Core term representation and de Bruijn machinery.

Terms, types, essences, and type essences all share a single tree type, so
the same traversals, substitution, and normalization code serve every layer.
Bound variables are de Bruijn indices (`Var`); binders keep the original
source name purely as a printing hint.  Applications are kept in spine form:
a head term plus the tuple of all arguments, leftmost argument first.

Every node carries a `Location`, which never influences equality: use
`same_term` for alpha-equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

from proofun.errors import InternalError


@dataclass(frozen=True)
class Location:
    """Source span. `(0, 0)` positions mark synthesized nodes."""

    source: str = "<input>"
    start: tuple[int, int] = (0, 0)  # (line, column), 1-based
    end: tuple[int, int] = (0, 0)


NOWHERE = Location()


def span(a: Location, b: Location) -> Location:
    """Smallest location covering both `a` and `b` (same source assumed)."""
    if a.start == (0, 0):
        return b
    if b.start == (0, 0):
        return a
    return Location(a.source, min(a.start, b.start), max(a.end, b.end))


class SortKind(Enum):
    TYPE = "Type"
    KIND = "Kind"


class Term:
    """Base class for all nodes; see the concrete dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Sort(Term):
    loc: Location
    kind: SortKind


@dataclass(frozen=True)
class Let(Term):
    """let name : annot := bound in body   (body binds index 0)"""

    loc: Location
    name: str
    annot: Term
    bound: Term
    body: Term


@dataclass(frozen=True)
class Prod(Term):
    """forall name : domain, codomain   (codomain binds index 0)"""

    loc: Location
    name: str
    domain: Term
    codomain: Term


@dataclass(frozen=True)
class Abs(Term):
    """fun name : domain => body   (body binds index 0)

    Essence abstractions are untyped; they carry `Underscore` as the domain.
    """

    loc: Location
    name: str
    domain: Term
    body: Term


@dataclass(frozen=True)
class App(Term):
    """head applied to spine, leftmost argument first; head is never an App
    in normalized or refined terms."""

    loc: Location
    head: Term
    spine: tuple[Term, ...]


@dataclass(frozen=True)
class Inter(Term):
    loc: Location
    left: Term
    right: Term


@dataclass(frozen=True)
class Union(Term):
    loc: Location
    left: Term
    right: Term


@dataclass(frozen=True)
class SPair(Term):
    """Strong pair: both components must share one essence."""

    loc: Location
    left: Term
    right: Term


@dataclass(frozen=True)
class SPrLeft(Term):
    loc: Location
    body: Term


@dataclass(frozen=True)
class SPrRight(Term):
    loc: Location
    body: Term


@dataclass(frozen=True)
class SMatch(Term):
    """Strong sum elimination.

    `motive` is always a lambda abstraction (the parser guarantees it);
    each branch binds index 0 to the matched component.
    """

    loc: Location
    scrutinee: Term
    motive: Term
    name1: str
    annot1: Term
    branch1: Term
    name2: str
    annot2: Term
    branch2: Term


@dataclass(frozen=True)
class SInLeft(Term):
    """inj_l other body : typeof(body) | other"""

    loc: Location
    other: Term
    body: Term


@dataclass(frozen=True)
class SInRight(Term):
    """inj_r other body : other | typeof(body)"""

    loc: Location
    other: Term
    body: Term


@dataclass(frozen=True)
class Coercion(Term):
    """coe target body: explicit up-cast, requires typeof(body) <= target."""

    loc: Location
    target: Term
    body: Term


@dataclass(frozen=True)
class Var(Term):
    loc: Location
    index: int


@dataclass(frozen=True)
class Const(Term):
    loc: Location
    name: str


@dataclass(frozen=True)
class Underscore(Term):
    loc: Location


@dataclass(frozen=True)
class Meta(Term):
    """Meta-variable with its suspended substitution (one term per local
    variable in scope at creation time)."""

    loc: Location
    mid: int
    susp: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Generic traversals


def visit_term(
    f: Callable[[Term], Term],
    g: Callable[[str, Term], Term],
    h: Callable[[str, Term], str],
    t: Term,
) -> Term:
    """Rebuild `t` mapping `f` over children outside binders, `g` over
    children under a binder, and `h` over binder names.  The node kind and
    location are preserved."""
    match t:
        case Sort() | Var() | Const() | Underscore():
            return t
        case Let(loc, name, annot, bound, body):
            return Let(loc, h(name, body), f(annot), f(bound), g(name, body))
        case Prod(loc, name, dom, cod):
            return Prod(loc, h(name, cod), f(dom), g(name, cod))
        case Abs(loc, name, dom, body):
            return Abs(loc, h(name, body), f(dom), g(name, body))
        case App(loc, head, spine):
            return App(loc, f(head), tuple(f(a) for a in spine))
        case Inter(loc, left, right):
            return Inter(loc, f(left), f(right))
        case Union(loc, left, right):
            return Union(loc, f(left), f(right))
        case SPair(loc, left, right):
            return SPair(loc, f(left), f(right))
        case SPrLeft(loc, body):
            return SPrLeft(loc, f(body))
        case SPrRight(loc, body):
            return SPrRight(loc, f(body))
        case SMatch(loc, scrut, motive, n1, a1, b1, n2, a2, b2):
            return SMatch(
                loc, f(scrut), f(motive),
                h(n1, b1), f(a1), g(n1, b1),
                h(n2, b2), f(a2), g(n2, b2),
            )
        case SInLeft(loc, other, body):
            return SInLeft(loc, f(other), f(body))
        case SInRight(loc, other, body):
            return SInRight(loc, f(other), f(body))
        case Coercion(loc, target, body):
            return Coercion(loc, f(target), f(body))
        case Meta(loc, mid, susp):
            return Meta(loc, mid, tuple(f(a) for a in susp))
    raise InternalError(f"visit_term: unknown node {t!r}")


def map_term(k: int, fn: Callable[[int, Location, int], Term], t: Term) -> Term:
    """Replace every `Var(loc, n)` at binder offset `d` by `fn(k + d, loc, n)`;
    meta-variable suspensions are traversed like ordinary children."""
    match t:
        case Var(loc, n):
            return fn(k, loc, n)
        case _:
            return visit_term(
                lambda c: map_term(k, fn, c),
                lambda _s, c: map_term(k + 1, fn, c),
                lambda s, _c: s,
                t,
            )


def lift(k: int, n: int, t: Term) -> Term:
    """Shift free indices >= `k` by `n`; indices below `k` are untouched.

    A negative shift asserts that no index underflows: the only negative
    caller is eta-reduction, which checks `is_eta` first.
    """
    if n == 0:
        return t

    def shift(k2: int, loc: Location, m: int) -> Term:
        if m < k2:
            return Var(loc, m)
        if m + n < 0:
            raise InternalError(f"lift underflow: index {m} shifted by {n}")
        return Var(loc, m + n)

    return map_term(k, shift, t)


def instantiate(body: Term, args: Sequence[Term]) -> Term:
    """Strip `len(args)` enclosing binders from `body` at once: index i gets
    `args[n-1-i]` (the last argument is index 0), and the remaining free
    indices drop by n.  One walk of `body`, whatever the number of args."""
    n = len(args)
    if n == 0:
        return body

    def subst(k: int, loc: Location, m: int) -> Term:
        if m < k:
            return Var(loc, m)
        if m - k < n:
            return lift(0, k, args[n - 1 - (m - k)])
        return Var(loc, m - n)

    return map_term(0, subst, body)


def beta_redex(body: Term, arg: Term) -> Term:
    """Contract `(fun x => body) arg`: substitute index 0 by `arg` and strip
    the enclosing binder, decrementing the remaining free indices."""
    return instantiate(body, (arg,))


def replace_bound(t: Term, arg: Term) -> Term:
    """Substitute index 0 by `arg` while keeping the binder depth unchanged."""
    return beta_redex(lift(1, 1, t), arg)


def msubst(solution: Term, susp: tuple[Term, ...]) -> Term:
    """Simultaneously substitute the suspended terms for the declared local
    variables of a meta-variable solution (index n-1 gets susp[0])."""
    n = len(susp)

    def subst(k: int, loc: Location, m: int) -> Term:
        if m < k:
            return Var(loc, m)
        if m - k >= n:
            raise InternalError("meta solution escapes its declared context")
        return lift(0, k, susp[n - 1 - (m - k)])

    return map_term(0, subst, solution)


def erase_context(n: int) -> tuple[Term, ...]:
    """The identity suspension over a local context of length `n`: the list
    x1;...;xn rendered as de Bruijn variables (indices n-1 down to 0)."""
    return tuple(Var(NOWHERE, n - 1 - i) for i in range(n))


# ---------------------------------------------------------------------------
# Predicates and comparisons


def free_in(index: int, t: Term) -> bool:
    """True iff `Var(index)` occurs free in `t`."""
    hit = False

    def check(k: int, loc: Location, m: int) -> Term:
        nonlocal hit
        if m == index + k:
            hit = True
        return Var(loc, m)

    map_term(0, check, t)
    return hit


def same_term(a: Term, b: Term) -> bool:
    """Structural equality up to locations and binder name hints."""
    match (a, b):
        case (Sort(_, k1), Sort(_, k2)):
            return k1 == k2
        case (Var(_, i), Var(_, j)):
            return i == j
        case (Const(_, x), Const(_, y)):
            return x == y
        case (Underscore(), Underscore()):
            return True
        case (Meta(_, i, s1), Meta(_, j, s2)):
            return i == j and len(s1) == len(s2) and all(
                same_term(x, y) for x, y in zip(s1, s2))
        case (Let(_, _, a1, a2, a3), Let(_, _, b1, b2, b3)):
            return same_term(a1, b1) and same_term(a2, b2) and same_term(a3, b3)
        case (Prod(_, _, a1, a2), Prod(_, _, b1, b2)):
            return same_term(a1, b1) and same_term(a2, b2)
        case (Abs(_, _, a1, a2), Abs(_, _, b1, b2)):
            return same_term(a1, b1) and same_term(a2, b2)
        case (App(_, h1, s1), App(_, h2, s2)):
            return same_term(h1, h2) and len(s1) == len(s2) and all(
                same_term(x, y) for x, y in zip(s1, s2))
        case (Inter(_, a1, a2), Inter(_, b1, b2)):
            return same_term(a1, b1) and same_term(a2, b2)
        case (Union(_, a1, a2), Union(_, b1, b2)):
            return same_term(a1, b1) and same_term(a2, b2)
        case (SPair(_, a1, a2), SPair(_, b1, b2)):
            return same_term(a1, b1) and same_term(a2, b2)
        case (SPrLeft(_, a1), SPrLeft(_, b1)):
            return same_term(a1, b1)
        case (SPrRight(_, a1), SPrRight(_, b1)):
            return same_term(a1, b1)
        case (SMatch(_, a1, a2, _, a3, a4, _, a5, a6),
              SMatch(_, b1, b2, _, b3, b4, _, b5, b6)):
            return all(same_term(x, y) for x, y in
                       ((a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5), (a6, b6)))
        case (SInLeft(_, a1, a2), SInLeft(_, b1, b2)):
            return same_term(a1, b1) and same_term(a2, b2)
        case (SInRight(_, a1, a2), SInRight(_, b1, b2)):
            return same_term(a1, b1) and same_term(a2, b2)
        case (Coercion(_, a1, a2), Coercion(_, b1, b2)):
            return same_term(a1, b1) and same_term(a2, b2)
    return False


def children(t: Term) -> tuple[Term, ...]:
    """All immediate child terms, including those under binders and inside
    meta-variable suspensions."""
    match t:
        case Sort() | Var() | Const() | Underscore():
            return ()
        case Let(_, _, a, b, c):
            return (a, b, c)
        case Prod(_, _, a, b) | Abs(_, _, a, b):
            return (a, b)
        case App(_, h, sp):
            return (h, *sp)
        case (Inter(_, a, b) | Union(_, a, b) | SPair(_, a, b)
              | SInLeft(_, a, b) | SInRight(_, a, b) | Coercion(_, a, b)):
            return (a, b)
        case SPrLeft(_, a) | SPrRight(_, a):
            return (a,)
        case SMatch(_, s, m, _, a1, b1, _, a2, b2):
            return (s, m, a1, b1, a2, b2)
        case Meta(_, _, susp):
            return susp
    raise InternalError(f"children: unknown node {t!r}")


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm of `t` in pre-order (`t` first, children left to
    right), walked with an explicit stack so that a node costs the same to
    reach at any depth."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


def first_meta(t: Term) -> Meta | None:
    for s in subterms(t):
        if isinstance(s, Meta):
            return s
    return None


def contains_meta(t: Term) -> bool:
    return first_meta(t) is not None


def first_underscore(t: Term) -> Underscore | None:
    for s in subterms(t):
        if isinstance(s, Underscore):
            return s
    return None


def is_essence_term(t: Term) -> bool:
    """True iff `t` stays inside the essence sublanguage: no strong pairs,
    projections, sums, injections, or coercions anywhere."""
    banned = (SPair, SPrLeft, SPrRight, SMatch, SInLeft, SInRight, Coercion)
    return not any(isinstance(s, banned) for s in subterms(t))


def mk_app(loc: Location, head: Term, args: tuple[Term, ...] | list[Term]) -> Term:
    """Apply `head` to `args`, merging into an existing spine so no App node
    ever has an App head."""
    if not args:
        return head
    if isinstance(head, App):
        return App(loc, head.head, head.spine + tuple(args))
    return App(loc, head, tuple(args))


def sort_type(loc: Location = NOWHERE) -> Sort:
    return Sort(loc, SortKind.TYPE)


def sort_kind(loc: Location = NOWHERE) -> Sort:
    return Sort(loc, SortKind.KIND)
