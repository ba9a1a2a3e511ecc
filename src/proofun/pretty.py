"""Precedence-aware rendering of terms back to concrete syntax, and the
caret-style error display used by the REPL.

`render` expects a named term (the output of `fix_id`); `show_term` bundles
the two steps for error messages and command output.  Printing is minimal:
parentheses appear only where re-parsing would otherwise change the tree, so
`parse_term(render(t))` round-trips.
"""

from __future__ import annotations

from proofun.errors import InternalError, ProverError, too_deep_as_error
from proofun.parser import fix_id
from proofun.syntax import (
    Abs, App, Coercion, Const, ConstOccurrences, Inter, Let, Meta, Prod,
    SInLeft, SInRight, SMatch, SPair, SPrLeft, SPrRight, Sort, Term,
    Underscore, Union, Var,
)

# Precedence levels, loosest to tightest.
_ARROW, _UNION, _INTER, _APP, _ATOM = 0, 1, 2, 3, 4


def render(t: Term, prec: int = _ARROW) -> str:
    """Concrete syntax for a named term (no `Var` nodes).  `fix_id` names a
    non-dependent product `""`, which prints as an arrow with no occurrence query."""
    consts = ConstOccurrences(t)

    def go(t: Term, prec: int = _ARROW) -> str:
        def wrap(level: int, body: str) -> str:
            return f"({body})" if prec > level else body

        match t:
            case Sort(_, kind):
                return kind.value
            case Const(_, name):
                return name
            case Underscore():
                return "_"
            case Meta(_, mid, susp):
                inner = "; ".join(go(s) for s in susp)
                return f"?{mid}[{inner}]"
            case Prod(_, name, dom, cod):
                if name and consts.occurs(name, cod):
                    binder = f"forall {name}" if isinstance(dom, Underscore) else \
                        f"forall {name} : {go(dom)}"
                    return wrap(_ARROW, f"{binder}, {go(cod)}")
                return wrap(_ARROW, f"{go(dom, _UNION)} -> {go(cod, _ARROW)}")
            case Union(_, left, right):
                return wrap(_UNION, f"{go(left, _INTER)} | {go(right, _UNION)}")
            case Inter(_, left, right):
                return wrap(_INTER, f"{go(left, _APP)} & {go(right, _INTER)}")
            case Abs(_, name, dom, body):
                binder = f"fun {name}" if isinstance(dom, Underscore) else \
                    f"fun {name} : {go(dom)}"
                return wrap(_ARROW, f"{binder} => {go(body)}")
            case Let(_, name, annot, bound, body):
                head = f"let {name}" if isinstance(annot, Underscore) else \
                    f"let {name} : {go(annot)}"
                return wrap(_ARROW, f"{head} := {go(bound)} in {go(body)}")
            case App(_, head, spine):
                parts = [go(head, _APP)]
                for a in spine:  # not a comprehension: one Python frame per nesting level
                    parts.append(go(a, _ATOM))
                return wrap(_APP, " ".join(parts))
            case SPair(_, left, right):
                return f"<{go(left)}, {go(right)}>"
            case SPrLeft(_, body):
                return wrap(_APP, f"proj_l {go(body, _ATOM)}")
            case SPrRight(_, body):
                return wrap(_APP, f"proj_r {go(body, _ATOM)}")
            case SInLeft(_, other, body):
                return wrap(_APP, f"inj_l {go(other, _ATOM)} {go(body, _ATOM)}")
            case SInRight(_, other, body):
                return wrap(_APP, f"inj_r {go(other, _ATOM)} {go(body, _ATOM)}")
            case Coercion(_, target, body):
                return wrap(_APP, f"coe {go(target, _ATOM)} {go(body, _ATOM)}")
            case SMatch(_, scrut, motive, n1, a1, b1, n2, a2, b2):
                parts = [f"smatch {go(scrut)}"]
                if isinstance(motive, Abs):
                    if motive.name and consts.occurs(motive.name, motive.body):
                        parts.append(f"as {motive.name}")
                    if not isinstance(motive.body, Underscore):
                        parts.append(f"return {go(motive.body)}")
                branch1 = f"{n1} => {go(b1)}" if isinstance(a1, Underscore) else \
                    f"{n1} : {go(a1)} => {go(b1)}"
                branch2 = f"{n2} => {go(b2)}" if isinstance(a2, Underscore) else \
                    f"{n2} : {go(a2)} => {go(b2)}"
                parts.append(f"with {branch1}, {branch2} end")
                return " ".join(parts)
            case Var(_, index):
                raise InternalError(f"render: unresolved de Bruijn index {index}")
        raise InternalError(f"render: unknown node {t!r}")

    return go(t, prec)


@too_deep_as_error
def show_term(t: Term, scope: tuple[str, ...] | list[str] = ()) -> str:
    """Render an indexed term using the given scope names (innermost first)."""
    return render(fix_id(t, scope))


def render_error(source_text: str, err: ProverError) -> str:
    """Echo the offending source line, underline the blamed span with
    carets, then print the error message."""
    loc = err.loc
    lines = source_text.splitlines()
    if loc is not None and loc.start != (0, 0) and 1 <= loc.start[0] <= len(lines):
        line = lines[loc.start[0] - 1]
        if loc.end[0] == loc.start[0] and loc.end[1] > loc.start[1]:
            width = loc.end[1] - loc.start[1]
        else:
            width = 1
        caret = " " * (loc.start[1] - 1) + "^" * width
        return f"{line}\n{caret}\nError: {err.message}"
    return f"Error: {err.message}"
