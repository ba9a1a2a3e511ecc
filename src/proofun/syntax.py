"""Core term representation and de Bruijn machinery.

Terms, types, essences, and type essences all share a single tree type, so
the same traversals, substitution, and normalization code serve every layer.
Bound variables are de Bruijn indices (`Var`); binders keep the original
source name purely as a printing hint.  Applications are kept in spine form:
a head term plus the tuple of all arguments, leftmost argument first.

Every node carries a `Location`.  Locations and binder names are hints:
they are excluded from the generated `==` and `hash`, so `==` on terms is
alpha-equivalence.

Each node also stores four facts about itself: `loose`, one more than its
largest free de Bruijn index (0 when it is closed), whether a meta-variable
occurs in it (`contains_meta`), whether a placeholder `_` does
(`contains_underscore`), and whether the essence changes it
(`changes_essence`: a `fun`, `let`, meta, placeholder or proof-functional
node occurs, or an application `mk_app` would merge).  A term built only
from sorts, variables, constants, products, applications, `&` and `|` is
its own essence.  Its constructor computes the facts from its children's,
a constant amount of work per child, so every node knows them from birth
and each query takes constant time.  They live in the instance
dictionary, not in a field, so `==`, `hash`, `repr` and `replace` ignore
them.

The layout of each node kind is declared once, by its annotated fields and
`_UNDER_BINDER`: its children in field order, for each child the binder it
sits under, and its hints (the location and those binders' names).  The
constructors, `record`'s methods, `children`, `binders` and `visit_term`
all read it, so a generic walk has no case per node kind.

Rebuilds share: `visit_term` returns its input object when every child
comes back as the same object, and `map_term` (so `lift`, `instantiate`
and `msubst`) also returns a subterm unchanged when its facts show that no
index in it can change.  A term that a traversal leaves alone is therefore
the very object it was given.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from operator import is_
from typing import Callable, Iterator, NamedTuple, Sequence

from proofun.errors import InternalError


class Location(NamedTuple):
    """Source span `(source, start, end)`, each position a 1-based
    `(line, column)`; `(0, 0)` positions mark synthesized nodes.  A tuple,
    so the lexer and `span` build one with `tuple.__new__`, in C."""

    source: str = "<input>"
    start: tuple[int, int] = (0, 0)
    end: tuple[int, int] = (0, 0)


NOWHERE = Location()


def span(a: Location, b: Location) -> Location:
    """Smallest location covering both `a` and `b` (same source assumed)."""
    start, other = a.start, b.start
    if start == (0, 0):
        return b
    if other == (0, 0):
        return a
    end, last = a.end, b.end
    return tuple.__new__(Location, (a.source, start if start <= other else other,
                                    end if end >= last else last))


class SortKind(Enum):
    TYPE = "Type"
    KIND = "Kind"


class Term:
    """Base class for all nodes; see the node kinds below.  Each kind is a
    frozen record (see `record`) whose fields are its annotations."""

    __slots__ = ()
    # The facts of the node, `8 * loose + 4 * changes_essence +
    # 2 * contains_underscore + contains_meta`, set by its constructor (see
    # `_constructor`).
    _facts: int


class Sort(Term):
    loc: Location
    kind: SortKind


class Let(Term):
    """let name : annot := bound in body   (body binds index 0)"""

    loc: Location
    name: str
    annot: Term
    bound: Term
    body: Term


class Prod(Term):
    """forall name : domain, codomain   (codomain binds index 0)"""

    loc: Location
    name: str
    domain: Term
    codomain: Term


class Abs(Term):
    """fun name : domain => body   (body binds index 0)

    Essence abstractions are untyped; they carry `Underscore` as the domain.
    """

    loc: Location
    name: str
    domain: Term
    body: Term


class App(Term):
    """head applied to spine, leftmost argument first; head is never an App
    in normalized or refined terms."""

    loc: Location
    head: Term
    spine: tuple[Term, ...]


class Inter(Term):
    loc: Location
    left: Term
    right: Term


class Union(Term):
    loc: Location
    left: Term
    right: Term


class SPair(Term):
    """Strong pair: both components must share one essence."""

    loc: Location
    left: Term
    right: Term


class SPrLeft(Term):
    loc: Location
    body: Term


class SPrRight(Term):
    loc: Location
    body: Term


class SMatch(Term):
    """Strong sum elimination.

    The parser builds `motive` as a lambda abstraction (normalisation may
    eta-reduce it); each branch binds index 0 to the matched component.
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


class SInLeft(Term):
    """inj_l other body : typeof(body) | other"""

    loc: Location
    other: Term
    body: Term


class SInRight(Term):
    """inj_r other body : other | typeof(body)"""

    loc: Location
    other: Term
    body: Term


class Coercion(Term):
    """coe target body: explicit up-cast, requires typeof(body) <= target."""

    loc: Location
    target: Term
    body: Term


class Var(Term):
    loc: Location
    index: int


class Const(Term):
    loc: Location
    name: str


class Underscore(Term):
    loc: Location


class Meta(Term):
    """Meta-variable with its suspended substitution (one term per local
    variable in scope at creation time)."""

    loc: Location
    mid: int
    susp: tuple[Term, ...]


# The fields of each node kind that sit under one binder of that node, each
# with the fields of that binder's name and type.
_UNDER_BINDER = {Let: {"body": ("name", "annot")}, Prod: {"codomain": ("name", "domain")},
                 Abs: {"body": ("name", "domain")},
                 SMatch: {"branch1": ("name1", "annot1"), "branch2": ("name2", "annot2")}}

# Node kinds the essence always changes.  An application changes when its
# head is an application or it has no arguments: `mk_app` merges it.
_ESSENCE_CHANGING = {Abs, Let, SPair, SPrLeft, SPrRight, SInLeft, SInRight, Coercion,
                     SMatch, Meta, Underscore}

# Folds the facts `x` of one child into the node's facts `f`: the larger
# loose range, and the essence, placeholder and meta flags of either.
_JOIN = "f = (f if f > x else x) | (f | x) & 7"


def _frozen(self: object, name: str, *_value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _repr(self: object) -> str:
    shown = ", ".join([f"{n}={getattr(self, n)!r}" for n in self.__match_args__])
    return f"{self.__class__.__qualname__}({shown})"


def record(cls: type, hints: Sequence[str] = ()) -> type:
    """Make `cls` a frozen record of the fields its own annotations declare,
    in order, with the methods a frozen dataclass would get: `==` and
    `hash` over the fields not in `hints`, compiled by one `exec` with the
    code a dataclass emits (they are hot: unification and subtyping compare
    terms); `__match_args__`; a `repr` of every field; a guard that makes
    assigning a field an `AttributeError`; and, unless `cls` has its own,
    an `__init__` whose defaults are the fields' class attributes."""
    names = tuple(cls.__dict__["__annotations__"])
    mine = "".join(f"self.{n}," for n in names if n not in hints)
    source = (f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
              f"        return ({mine}) == ({mine.replace('self.', 'other.')})\n"
              f"    return NotImplemented\ndef __hash__(self):\n    return hash(({mine}))\n")
    if "__init__" not in cls.__dict__:
        source += "".join([f"def __init__(self, {', '.join(names)}):\n    d = self.__dict__\n",
                           *(f"    d[{n!r}] = {n}\n" for n in names)])
    methods: dict[str, Callable[..., object]] = {}
    exec(source, {}, methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__name__}.{name}"
        setattr(cls, name, method)
    if "__init__" in methods:
        cls.__init__.__defaults__ = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    cls.__match_args__, cls.__repr__ = names, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj: object, **changes: object) -> object:
    """A copy of the record `obj` with `changes` to its fields."""
    return type(obj)(*(changes.get(n, getattr(obj, n)) for n in obj.__match_args__))


def _constructor(cls: type) -> Callable[..., None]:
    """The `__init__` of node kind `cls`.  It stores the fields in the
    instance dictionary (past `record`'s frozen guard) and sets `_facts`
    from the children's facts in a constant number of steps per child; a
    child under a binder counts with its loose range lowered by one."""
    under = _UNDER_BINDER.get(cls, ())
    fields = cls.__dict__["__annotations__"]
    names = list(fields)
    own = int(cls is Meta) + 2 * int(cls is Underscore) + 4 * int(cls in _ESSENCE_CHANGING)
    lines = ["d = self.__dict__", *(f"d[{n!r}] = {n}" for n in names),
             "f = 8 * index + 8" if cls is Var else
             "f = 4 if type(head) is App or not spine else 0" if cls is App else
             f"f = {own}"]
    for name, kind in fields.items():
        if kind == "Term":
            lines.append(f"x = {name}._facts")
            if name in under:
                lines.append("x = x - 8 if x > 7 else x")
            lines.append(_JOIN)
        elif kind == "tuple[Term, ...]":
            lines += [f"for c in {name}:", f"    x = c._facts; {_JOIN}"]
    lines.append("d['_facts'] = f")
    source = "".join(f"    {line}\n" for line in lines)
    namespace: dict[str, Callable[..., None] | type] = {"App": App}
    exec(f"def __init__(self, {', '.join(names)}):\n{source}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__name__}.__init__"
    return init


def _layout(cls: type) -> tuple[Callable[..., tuple], Callable[..., tuple],
                                Callable[..., Term]]:
    """The children, binders and rebuild functions of node kind `cls`, read
    off its fields in field order (a `tuple[Term, ...]` field comes last)."""
    under = _UNDER_BINDER.get(cls, {})
    kids, bound, args = [], [], []
    for name, kind in cls.__dict__["__annotations__"].items():
        if kind == "Term":
            args.append(f"c[{len(kids)}]")
            kids.append(f"t.{name}")
            bound.append("(t.{}, t.{})".format(*under[name]) if name in under else "None")
        elif kind == "tuple[Term, ...]":
            args.append(f"tuple(c[{len(kids)}:])")
            kids.append(f"*t.{name}")
            bound.append(f"*[None] * len(t.{name})")
        else:
            args.append(f"t.{name}")
    return (eval(f"lambda t: ({''.join(k + ', ' for k in kids)})"),
            eval(f"lambda t: ({''.join(b + ', ' for b in bound)})"),
            eval(f"lambda t, c: K({', '.join(args)})", {"K": cls}))


# The layout of each node kind.  Its children are its `Term` fields and the
# entries of its `tuple[Term, ...]` field; each child has the `(name, type)`
# of the binder it sits under, or None; a node of the same kind is rebuilt
# from new children with its location, hints and other fields kept; and
# `==` and `hash` skip the location and the binders' names.
_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]]] = {}
_BINDERS: dict[type, Callable[[Term], tuple[tuple[str, Term] | None, ...]]] = {}
_REBUILD: dict[type, Callable[[Term, Sequence[Term]], Term]] = {}

for _kind in Term.__subclasses__():
    _kind.__init__ = _constructor(_kind)
    record(_kind, ("loc", *(name for name, _ in _UNDER_BINDER.get(_kind, {}).values())))
    _CHILDREN[_kind], _BINDERS[_kind], _REBUILD[_kind] = _layout(_kind)


# ---------------------------------------------------------------------------
# Generic traversals


def visit_term(f: Callable[[Term], Term], g: Callable[[str, Term], Term], t: Term) -> Term:
    """Rebuild `t` mapping `f` over its children outside binders and
    `g(name, child)` over those under one, in field order.  The node kind,
    location, hints and other fields are kept, and `t` itself comes back
    when every child does."""
    kind = type(t)
    try:
        old, bound = _CHILDREN[kind](t), _BINDERS[kind](t)
    except KeyError:
        raise InternalError(f"visit_term: unknown node {t!r}") from None
    new = []
    for c, b in zip(old, bound):  # a comprehension would add a frame per nesting level
        new.append(f(c) if b is None else g(b[0], c))
    return t if all(map(is_, new, old)) else _REBUILD[kind](t, new)


def map_term(k: int, fn: Callable[[int, Location, int], Term], t: Term) -> Term:
    """Replace every free `Var(loc, n)` at binder offset `d` (one with
    `n >= k + d`) by `fn(k + d, loc, n)`; bound variables are kept, and
    meta-variable suspensions are traversed like ordinary children.  A
    subterm whose facts show no free index at or above its offset comes
    back unchanged without being walked."""
    if t._facts >> 3 <= k:
        return t
    if type(t) is Var:
        return fn(k, t.loc, t.index)
    return visit_term(lambda c: map_term(k, fn, c), lambda _s, c: map_term(k + 1, fn, c), t)


def lift(k: int, n: int, t: Term) -> Term:
    """Shift free indices >= `k` by `n`; indices below `k` are untouched.

    A negative shift asserts that no index underflows: the only negative
    caller is eta-reduction, which checks `is_eta` first.
    """
    if n == 0:
        return t

    def shift(_k: int, loc: Location, m: int) -> Term:
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


def msubst(solution: Term, susp: Sequence[Term]) -> Term:
    """Simultaneously substitute the suspended terms for the declared local
    variables of a meta-variable solution (index n-1 gets susp[0])."""
    n = len(susp)

    def subst(k: int, loc: Location, m: int) -> Term:
        if m - k >= n:
            raise InternalError("meta solution escapes its declared context")
        return lift(0, k, susp[n - 1 - (m - k)])

    return map_term(0, subst, solution)


def erase_context(n: int) -> tuple[Term, ...]:
    """The identity suspension over a local context of length `n`: the list
    x1;...;xn rendered as de Bruijn variables (indices n-1 down to 0)."""
    return tuple(Var(NOWHERE, n - 1 - i) for i in range(n))


# ---------------------------------------------------------------------------
# Predicates


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


def children(t: Term) -> tuple[Term, ...]:
    """All immediate child terms, including those under binders and inside
    meta-variable suspensions."""
    try:
        return _CHILDREN[type(t)](t)
    except KeyError:
        raise InternalError(f"children: unknown node {t!r}") from None


def binders(t: Term) -> tuple[tuple[str, Term] | None, ...]:
    """For each child of `t`, the `(name, type)` of the binder of `t` it
    sits under, or None."""
    try:
        return _BINDERS[type(t)](t)
    except KeyError:
        raise InternalError(f"binders: unknown node {t!r}") from None


def loose(t: Term) -> int:
    """One more than the largest free de Bruijn index of `t`; 0 if closed."""
    return t._facts >> 3


def contains_meta(t: Term) -> bool:
    return bool(t._facts & 1)


def contains_underscore(t: Term) -> bool:
    return bool(t._facts & 2)


def changes_essence(t: Term) -> bool:
    return bool(t._facts & 4)


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm of `t` in pre-order (`t` first, children left to
    right), walked with an explicit stack so that a node costs the same to
    reach at any depth."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


class ConstOccurrences:
    """Answers "does `Const(name)` occur in `u`?" for the subterms `u` of one
    root term, in O(log n) each after O(n) set-up.

    Both halves of the set-up are lazy.  The first query collects the
    constant names of the whole root, and a name that occurs nowhere is
    answered from that set.  The first query for any other name builds the
    pre-order index: each name keeps the sorted positions of its
    occurrences, and each subterm (by identity) the interval of positions
    it covers.  A subterm object shared by several positions has the same
    constants at each, so any one of its intervals answers for all.
    `show_term` asks only while it picks a binder's name, so it builds the
    index only when a binder hint, or a suffixed candidate for it, is a
    constant's name.
    """

    __slots__ = ("_root", "_names", "_at", "_spans")

    def __init__(self, root: Term):
        self._root = root
        self._names: set[str] | None = None
        self._at: dict[str, list[int]] = {}
        self._spans: dict[int, tuple[int, int]] | None = None

    def occurs(self, name: str, u: Term) -> bool:
        if self._names is None:
            self._names = {s.name for s in subterms(self._root) if type(s) is Const}
        if name not in self._names:
            return False
        if self._spans is None:
            self._index()
        start, end = self._spans[id(u)]
        at = self._at[name]
        i = bisect_left(at, start)
        return i < len(at) and at[i] < end

    def _index(self) -> None:
        at, spans, pos = self._at, {}, 0
        stack: list[Term | int] = [self._root]
        while stack:
            s = stack.pop()
            if type(s) is int:  # the pre-order position of a node whose subtree is done
                spans[id(stack.pop())] = (s, pos)
                continue
            if type(s) is Const:
                at.setdefault(s.name, []).append(pos)
            stack += (s, pos)
            stack.extend(reversed(children(s)))
            pos += 1
        self._spans = spans


def metas(t: Term) -> Iterator[Meta]:
    """Every meta-variable occurrence in `t`, in pre-order; meta-free
    subtrees are skipped by their facts."""
    stack = [t]
    while stack:
        s = stack.pop()
        if contains_meta(s):
            if type(s) is Meta:
                yield s
            stack.extend(reversed(children(s)))


def first_meta(t: Term) -> Meta | None:
    return next(metas(t), None)


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
