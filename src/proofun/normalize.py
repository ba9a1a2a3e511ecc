"""Strong normalization under beta, eta, projection, injection, let, and the
three delta rules (global definitions, local definitions, solved metas).

One normalizer serves every caller.  `strongly_normalize` is the strict
entry point for meta-free terms, which `Compute` and subtyping use;
`normalize_meta` also expands solved meta-variables and keeps unsolved ones
with their suspensions normalized, which is what the unifier needs of a
right-hand side.  Both normalize by evaluation: `_eval` runs a term in an
environment of arguments that are evaluated when first needed and then
kept (call-by-need), and `_quote` reads the value back into an indexed,
eta-short term.  Nothing is substituted except a solved meta's suspension,
so a β, ζ or δ step costs the same whatever the size of the argument, and
each global definition is looked up once per call.  An unsolved meta is a flexible head: applied to
arguments it stays a neutral spine, and the read-back normalizes its
suspension entries.

`whnf` is the head view the refiner and unifier use.  It runs the same
evaluator to a weak-head value and reads that value back by substitution,
reducing nothing below the root, so every reduction rule is written once,
in `_eval`.

The evaluator is head-first, so a discarded argument is never normalized.
One fuel budget covers a whole call: a tick per evaluation step, and per
node read back for `Compute`, subtyping and the unifier's normal forms
alike.  The head view's read-back reduces nothing and takes no ticks.
"""

from __future__ import annotations

from operator import is_
from typing import TypeAlias

from proofun.env import GlobalEnv, LocalEnv, MetaEnv, SortMeta
from proofun.errors import FuelExhausted, InternalError, too_deep_as_error
from proofun.syntax import (
    NOWHERE, Abs, App, Coercion, Const, Inter, Let, Location, Meta, Prod, SInLeft,
    SInRight, SMatch, SPair, SPrLeft, SPrRight, Sort, Term, Underscore, Union, Var,
    children, contains_meta, contains_underscore, free_in, lift, map_term, mk_app,
    msubst, rebuild, replace,
)

DEFAULT_FUEL = 1_000_000


# Node kinds whose root is never a redex: `whnf` hands them back untouched.
_INERT = frozenset({Prod, Abs, Inter, Union, Sort, SPair, SInLeft, SInRight,
                    Coercion, Underscore})


def is_eta(t: Term) -> bool:
    """True iff index 0 does not occur free in `t`, so an enclosing binder
    can be stripped and the indices shifted down."""
    return not free_in(0, t)


def _eta_contract(body: Term) -> Term | None:
    """Eta: the normal form of `fun x => body` when `body` is the normal
    `h a1 .. an x` with `x` (index 0) not free in `h a1 .. an`, which is
    `h a1 .. an` with its indices shifted down; None for any other body."""
    if type(body) is not App:
        return None
    head, spine = body.head, body.spine
    if not (type(spine[-1]) is Var and spine[-1].index == 0
            and is_eta(App(body.loc, head, spine[:-1]))):
        return None
    return mk_app(body.loc, lift(0, -1, head), tuple(lift(0, -1, a) for a in spine[:-1]))


def delta_phi_expand(phi: MetaEnv, m: Meta) -> Term | None:
    """Solution of an instantiated meta-variable with its suspended
    substitution applied; None while the meta is only declared."""
    entry = phi.lookup(m.mid)
    value = entry.value
    if value is None or type(entry) is SortMeta:
        return value  # sort metas ignore their suspension
    if len(entry.ctx) != len(m.susp):
        raise InternalError("suspension length does not match the meta context")
    return msubst(value, m.susp)


@too_deep_as_error
def strongly_normalize(genv: GlobalEnv, ctx: LocalEnv, t: Term, is_essence: bool = False) -> Term:
    """Normal form of a meta-free term.  A term that does not normalize
    within the fuel budget raises `FuelExhausted`; one nested too deeply
    raises a `ProverError` (`errors.TOO_DEEP`)."""
    if contains_meta(t):
        raise InternalError("strongly_normalize: input contains a meta-variable")
    if not is_essence and contains_underscore(t):
        raise InternalError("strongly_normalize: input contains a placeholder")
    return _nf(t, 0, len(ctx), _Machine(MetaEnv(genv), ctx, is_essence))


def normalize_meta(phi: MetaEnv, ctx: LocalEnv, t: Term, is_essence: bool = False) -> Term:
    """Normalization for the unifier and refiner: solved metas are expanded,
    unsolved ones normalize their suspensions and stay put.  Internal, like
    `whnf`: a term nested too deeply raises a bare `RecursionError`, which
    the public entry point that called it turns into a `ProverError`."""
    return _nf(t, 0, len(ctx), _Machine(phi, ctx, is_essence))


# ---------------------------------------------------------------------------
# Normalization by evaluation: the engine behind both entry points.
#
# A term is evaluated in an environment, a linked list `(thunk, rest)` whose
# first entry is index 0.  The list ends in an offset into the context
# `ctx`: index i past the end of a list ending in k is entry k + i of `ctx`.
# An entry is a thunk: an argument, a `let`-bound term or a local definition
# of the context, with the environment it was written in, evaluated the
# first time it is needed and then kept, so a discarded argument is never
# evaluated and a duplicated one is evaluated once.  A forced thunk keeps its
# term and environment too: the head view reads an argument back as written.
# A variable that stands for itself (a declaration of the context, or the
# binder being read back) has a thunk that holds its value from the start.
# A value is
#   - a `_Clo`: a node whose root is never a redex (`fun`, `forall`, `&`,
#     `|`, a pair, an injection, a coercion, an unsolved meta) with the
#     environment of its free variables, so nothing below its root has been
#     evaluated yet;
#   - a `_Rigid`: a head that cannot reduce, applied to a spine of thunks.
#     The head is a de Bruijn *level* (a variable bound outside the term),
#     an axiom, a sort, a placeholder, a `_Clo` that is not a function (an
#     unsolved meta is the flexible case), or a `_Stuck` projection or match;
#   - a `Sort`, `Underscore` or axiom `Const` node, standing for itself.
# `_quote` reads a value back into an indexed, eta-short term.  Levels count
# binders from the outside, so a value stays valid under more binders, and
# the read-back turns level l at depth d into index d - 1 - l.

_Env: TypeAlias = "tuple[_Thunk, _Env] | int"


class _Thunk:
    __slots__ = ("term", "env", "value")

    def __init__(self, term: Term | None, env: _Env | None, value: _Value | None = None):
        self.term, self.env, self.value = term, env, value


class _Clo:
    __slots__ = ("term", "env")

    def __init__(self, term: Term, env: _Env):
        self.term, self.env = term, env


class _Stuck:
    """A projection or match whose scrutinee evaluated to `scrutinee`, a
    value that is not a pair or injection."""

    __slots__ = ("term", "env", "scrutinee")

    def __init__(self, term: Term, env: _Env, scrutinee: _Value):
        self.term, self.env, self.scrutinee = term, env, scrutinee


class _Rigid:
    __slots__ = ("head", "spine")

    def __init__(self, head: int | Term | _Clo | _Stuck, spine: tuple[_Thunk, ...]):
        self.head, self.spine = head, spine


_Value: TypeAlias = "_Clo | _Rigid | Term"

# Node kinds whose value is a closure.  Each has two children; the second
# is under a binder for `Abs` and `Prod`.
_CLOSED_OVER = _INERT - {Sort, Underscore}


class _Machine:
    """What one normalization call shares: the meta-environment (and
    through it the signature), the local context, the side, the steps left
    of its fuel budget (`DEFAULT_FUEL` at the start), and the thunks of the
    global definitions and context entries used, each made once per call.
    Running out of fuel raises `FuelExhausted`, a `ProverError`."""

    __slots__ = ("phi", "ctx", "is_essence", "fuel", "consts", "entries")

    def __init__(self, phi: MetaEnv, ctx: LocalEnv, is_essence: bool):
        self.phi, self.ctx, self.is_essence = phi, ctx, is_essence
        self.fuel = DEFAULT_FUEL
        self.consts: dict[str, _Thunk | None] = {}
        self.entries: dict[int, _Thunk] = {}

    def tick(self) -> None:
        """Spend one step of the budget."""
        self.fuel -= 1
        if self.fuel < 0:
            raise FuelExhausted("normalization did not terminate within the step budget")

    def const(self, name: str) -> _Thunk | None:
        """The thunk of a definition's body; None for an axiom or an unbound
        name, which stay fixed."""
        try:
            return self.consts[name]
        except KeyError:
            body = self.phi.genv.find_const(self.is_essence, name)
            # A closed body: its environment holds no entry of `ctx`.
            thunk = None if body is None else _Thunk(body, len(self.ctx))
            self.consts[name] = thunk
            return thunk

    def entry(self, index: int) -> _Thunk:
        """The thunk of entry `index` of the context: a local definition's
        body in the entries after it, or a declared variable itself."""
        try:
            return self.entries[index]
        except KeyError:
            entries = self.ctx.entries
            if not 0 <= index < len(entries):
                raise InternalError(f"_eval: unbound index {index}") from None
            body = entries[index].body
            if body is None:
                thunk = _Thunk(None, None, _Rigid(len(entries) - 1 - index, ()))
            else:
                thunk = _Thunk(body, index + 1)
            self.entries[index] = thunk
            return thunk


def _eval(t: Term, env: _Env, m: _Machine) -> _Value:
    """The value of `t` in `env`.  Every contraction in tail position (β,
    ζ, δ, a solved meta, a projection of a pair, a match of an injection,
    entering a thunk) continues the loop instead of recursing, so a looping
    term runs out of fuel, not out of stack.  Arguments wait in `pending`,
    the next one last.  A thunk being evaluated waits in `updates`, with the
    number of arguments that were pending when it was entered: the first
    value reached with that many pending is the thunk's value."""
    pending: list[_Thunk] = []
    updates: list[tuple[_Thunk, int]] = []
    floor = 0  # arguments below this belong to a thunk's caller
    tick = m.tick
    while True:
        tick()
        k = type(t)
        if k is App:
            for a in reversed(t.spine):
                pending.append(_Thunk(a, env))
            t = t.head
            continue
        if k is Abs:
            if len(pending) > floor:
                env, t = (pending.pop(), env), t.body
                continue
            v: _Value = _Clo(t, env)
        elif k is Var or k is Const:
            if k is Var:
                e, i = env, t.index
                try:
                    while i:
                        e, i = e[1], i - 1
                    thunk = e[0]
                except TypeError:  # `e` is the offset that ends the list
                    thunk = m.entry(e + i)
            else:
                thunk = m.const(t.name)
            if thunk is None:  # an axiom or unbound constant: fixed
                v = t
            elif thunk.value is None:
                floor = len(pending)
                updates.append((thunk, floor))
                t, env = thunk.term, thunk.env
                continue
            else:
                v = thunk.value
        elif k is Let:
            env, t = (_Thunk(t.bound, env), env), t.body
            continue
        elif k is SPrLeft or k is SPrRight:
            pair = _eval(t.body, env, m)
            if type(pair) is _Clo and type(pair.term) is SPair:
                t, env = pair.term.left if k is SPrLeft else pair.term.right, pair.env
                continue
            v = _Rigid(_Stuck(t, env, pair), ())
        elif k is SMatch:
            injection = _eval(t.scrutinee, env, m)
            if type(injection) is _Clo and type(injection.term) in (SInLeft, SInRight):
                branch = t.branch1 if type(injection.term) is SInLeft else t.branch2
                env, t = (_Thunk(injection.term.body, injection.env), env), branch
                continue
            v = _Rigid(_Stuck(t, env, injection), ())
        elif k in _CLOSED_OVER:
            v = _Clo(t, env)
        elif k is Meta:
            expanded = delta_phi_expand(m.phi, t)
            if expanded is not None:
                t = expanded
                continue
            v = _Clo(t, env)
        elif k is Sort or k is Underscore:
            v = t
        else:
            raise InternalError(f"_eval: unexpected node {t!r}")
        # `v` is a value: store it in the thunks it is the value of, and apply
        # it to the pending arguments.
        while True:
            if len(pending) == floor:
                if not updates:
                    return v
                thunk = updates.pop()[0]
                thunk.value = v
                floor = updates[-1][1] if updates else 0
            elif type(v) is _Clo and type(v.term) is Abs:
                env, t = (pending.pop(), v.env), v.term.body
                break
            else:  # a rigid head, or a non-function applied: stuck
                args = pending[floor:]
                del pending[floor:]
                args.reverse()
                v = (_Rigid(v.head, v.spine + tuple(args)) if type(v) is _Rigid
                     else _Rigid(v, tuple(args)))


def _force(thunk: _Thunk, m: _Machine) -> _Value:
    if thunk.value is None:
        thunk.value = _eval(thunk.term, thunk.env, m)
    return thunk.value


def _quote(v: _Value, depth: int, m: _Machine) -> Term:
    """Read `v` back as a normal term under `depth` binders.  One Python
    frame per nested application: an argument is forced before the frame
    that reads it back is entered."""
    k = type(v)
    if k is _Clo:
        return _quote_node(v.term, v.env, depth, m)
    if k is not _Rigid:
        return v  # a sort, placeholder or axiom
    m.tick()
    head = v.head
    if type(head) is int:
        head = Var(NOWHERE, depth - 1 - head)
    elif type(head) is _Stuck:
        head = _quote_stuck(head, depth, m)
    elif type(head) is _Clo:
        head = _quote_node(head.term, head.env, depth, m)
    if not v.spine:
        return head
    args = []
    for thunk in v.spine:
        args.append(_quote(_force(thunk, m), depth, m))
    return App(NOWHERE, head, tuple(args))


def _nf(t: Term, env: _Env, depth: int, m: _Machine) -> Term:
    """The normal form of `t` in `env`: `_quote(_eval(t))`, reading a node
    whose root is never a redex back directly."""
    k = type(t)
    if k in _CLOSED_OVER:
        return _quote_node(t, env, depth, m)
    if k is Const and m.const(t.name) is None:  # an axiom: fixed
        m.tick()
        return t
    return _quote(_eval(t, env, m), depth, m)


def _quote_node(t: Term, env: _Env, depth: int, m: _Machine) -> Term:
    """Read back the closure of `t`, a node whose root is never a redex:
    its children are normalized in `env` (under a binder, with a fresh
    variable at level `depth` added), and an abstraction is eta-reduced.
    A node whose children all come back unchanged comes back itself; the
    children of an unsolved meta are its suspension entries."""
    m.tick()
    k = type(t)
    if k is Meta:
        susp = [_nf(s, env, depth, m) for s in t.susp]
        return t if all(map(is_, susp, t.susp)) else Meta(t.loc, t.mid, tuple(susp))
    a, b = children(t)
    a2 = _nf(a, env, depth, m)
    if k is not Abs and k is not Prod:
        b2 = _nf(b, env, depth, m)
        return t if a2 is a and b2 is b else k(t.loc, a2, b2)
    b2 = _nf(b, (_Thunk(None, None, _Rigid(depth, ())), env), depth + 1, m)
    if k is Abs and (contracted := _eta_contract(b2)) is not None:
        return contracted
    return t if a2 is a and b2 is b else k(t.loc, t.name, a2, b2)


def _quote_stuck(stuck: _Stuck, depth: int, m: _Machine) -> Term:
    """Read back a projection or match that did not reduce: the value of its
    scrutinee, and its other parts normalized in its environment."""
    t, env = stuck.term, stuck.env
    scrutinee = _quote(stuck.scrutinee, depth, m)
    if type(t) is not SMatch:
        return type(t)(t.loc, scrutinee)
    under = (_Thunk(None, None, _Rigid(depth, ())), env)
    return SMatch(t.loc, scrutinee, _nf(t.motive, env, depth, m),
                  t.name1, _nf(t.annot1, env, depth, m), _nf(t.branch1, under, depth + 1, m),
                  t.name2, _nf(t.annot2, env, depth, m), _nf(t.branch2, under, depth + 1, m))


# ---------------------------------------------------------------------------
# The head view: a weak-head value read back by substitution.


def whnf(phi: MetaEnv, ctx: LocalEnv, t: Term, is_essence: bool = False) -> Term:
    """Reduce just enough to expose the top connective (a view, not a normal
    form); used by the refiner's beta-view premises and the unifier's head
    views.  The evaluator takes `t` to a weak-head value on the fuel budget,
    and `_view` reads it back without reducing anything below its root.  A
    term already in weak head normal form comes back as the same object.
    These do so at once, without starting the evaluator: a node that is
    never a redex, an unsolved meta, a declared variable of `ctx` (one
    without a body) and an axiom or unbound constant, the last two also
    when applied to a spine.  Internal: a term nested too deeply raises a
    bare `RecursionError`, which the public entry point that called it
    turns into a `ProverError`."""
    k = type(t)
    if k in _INERT or k is Meta and phi.lookup(t.mid).value is None:
        return t
    head = t.head if k is App else t
    if type(head) is Var:
        if 0 <= head.index < len(ctx.entries) and ctx.entries[head.index].body is None:
            return t  # a declared variable, or one applied
    elif type(head) is Const and phi.genv.find_const(is_essence, head.name) is None:
        return t  # an axiom or an unbound name, or one applied
    view = _view(_eval(t, 0, _Machine(phi, ctx, is_essence)), len(ctx), {})
    return t if view is t or view == t else view


def _view(v: _Value, depth: int, read: dict[_Thunk, Term]) -> Term:
    """Read a weak-head value back as a term under `depth` binders: a
    closure by substitution, a rigid spine as its arguments as written, and
    a stuck projection or match with its scrutinee's view.  `read` keeps the
    term each thunk was read as, so an argument used twice is shared."""
    k = type(v)
    if k is _Clo:
        return _read(v.term, v.env, read)
    if k is not _Rigid:
        return v  # a sort, placeholder or axiom
    head = v.head
    if type(head) is int:
        head = Var(NOWHERE, depth - 1 - head)
    elif type(head) is _Clo:
        head = _read(head.term, head.env, read)
    elif type(head) is _Stuck:
        t, scrutinee = head.term, _view(head.scrutinee, depth, read)
        head = (replace(_read(t, head.env, read), scrutinee=scrutinee) if type(t) is SMatch
                else type(t)(t.loc, scrutinee))
    if not v.spine:
        return head
    return App(NOWHERE, head, tuple(_read(a.term, a.env, read) for a in v.spine))


def _read(t: Term, env: _Env, read: dict[_Thunk, Term]) -> Term:
    """`t` with its environment substituted: an entry of the list becomes
    the term of its thunk (read the same way), and an index past the list's
    end becomes the context index.  Nothing is reduced."""
    if type(env) is int:
        return lift(0, env, t)

    def entry(k: int, loc: Location, index: int) -> Term:
        e, i = env, index - k
        while type(e) is tuple:
            if not i:
                thunk = e[0]
                if thunk not in read:
                    read[thunk] = _read(thunk.term, thunk.env, read)
                return lift(0, k, read[thunk])
            e, i = e[1], i - 1
        return Var(loc, e + i + k)

    return map_term(0, entry, t)


def zonk(phi: MetaEnv, t: Term) -> Term:
    """Deeply replace every solved meta-variable by its solution (with the
    suspended substitution applied); no other reduction is performed.  Only
    the nodes above a meta-variable are visited: a meta-free subterm comes
    back as the same object.  The walk takes one Python frame per nesting
    level, so it reaches the refiner's depth."""
    return _zonk(phi, t)


def _zonk(phi: MetaEnv, t: Term) -> Term:
    """`zonk` by recursion, one frame per nesting level: the children are
    walked in a loop and the node is rebuilt only if one of them changed."""
    if not contains_meta(t):
        return t
    if type(t) is Meta:
        expanded = delta_phi_expand(phi, t)
        if expanded is not None:
            return _zonk(phi, expanded)
    old, new = children(t), []
    for c in old:  # a comprehension would add a frame per nesting level
        new.append(_zonk(phi, c))
    return rebuild(t, old, new)
