"""Precedence-aware printing of terms as concrete syntax, and the caret-style
error display used by the REPL.

`show_term` prints an indexed term in one walk: at each binder it picks a
printable name (`binder_names`, the policy `fix_id` also follows), it
resolves each `Var` to its binder's name as it goes, and it prints a
product as `forall` only when that name was printed in the codomain.
Printing is minimal: parentheses appear only where re-parsing would
otherwise change the tree, so `parse_term(show_term(t))` round-trips.
"""

from __future__ import annotations

from proofun.errors import InternalError, ProverError, too_deep_as_error
from proofun.syntax import (
    Abs, App, Coercion, Const, ConstOccurrences, Inter, Let, Meta, Prod,
    SInLeft, SInRight, SMatch, SPair, SPrLeft, SPrRight, Sort, Term,
    Underscore, Union, Var,
)

# Precedence levels, loosest to tightest.
_ARROW, _UNION, _INTER, _APP, _ATOM = 0, 1, 2, 3, 4
# The level of each node kind's text: printed where a tighter level is
# expected, it is parenthesised.  The kinds not listed print as atoms.
_LEVEL = {Prod: _ARROW, Abs: _ARROW, Let: _ARROW, Union: _UNION, Inter: _INTER,
          App: _APP, SPrLeft: _APP, SPrRight: _APP, SInLeft: _APP, SInRight: _APP,
          Coercion: _APP}


def binder_names(root: Term, scope: tuple[str, ...] | list[str] = ()) -> tuple:
    """The naming policy for printing the indexed term `root` under `scope`
    (innermost first), shared by `show_term` and `fix_id`: a binder keeps
    its hint (`x` when empty) unless that would capture a constant occurring
    in its scope or shadow an enclosing name; then it takes the first free
    numeric suffix.

    Returns `(bind, enter, leave, names, used)`: `bind(hint, scope_term)`
    picks a binder's name, `enter(name)` opens its scope, `leave(name)`
    closes it and says whether a `Var` resolved to the name in it; `names`
    (outermost first) and `used` are the `Var` lookup state."""
    consts = ConstOccurrences(root)
    names = list(reversed(scope))  # outermost first: index n is names[-1 - n]
    used = [True] * len(names)  # used[i]: names[i] has been printed
    taken = set(scope)
    # floor[base] = j: the candidates of `base` before suffix j are all taken
    # (suffix -1 is `base` itself), so a chain of binders with one hint
    # costs O(1) per binder.
    floor: dict[str, int] = {}

    def bind(hint: str, child: Term) -> str:
        base = hint or "x"
        j = floor.get(base, -1)
        skipping = True
        while True:
            chosen = f"{base}{j}" if j >= 0 else base
            if chosen in taken:
                if skipping:
                    floor[base] = j + 1
            elif consts.occurs(chosen, child):
                skipping = False
            else:
                return chosen
            j += 1

    def enter(name: str) -> None:
        names.append(name)
        used.append(False)
        taken.add(name)  # a chosen name is never taken already

    def leave(name: str) -> bool:
        names.pop()
        taken.remove(name)
        # `name` is the candidate j of every base it splits into as base + str(j);
        # lowering a floor further than needed is harmless.
        cut = len(name)
        while cut:
            digits = name[cut:]
            j = int(digits) if digits else -1
            if floor.get(name[:cut], -1) > j:
                floor[name[:cut]] = j
            if not "0" <= name[cut - 1] <= "9":
                break
            cut -= 1
        return used.pop()  # whether `name` was printed in its scope

    return bind, enter, leave, names, used


@too_deep_as_error
def show_term(t: Term, scope: tuple[str, ...] | list[str] = ()) -> str:
    """Concrete syntax for an indexed term under the given scope names
    (innermost first), with `binder_names`' names.  One Python frame per
    nesting level: every node kind, spines and binders included, is printed
    in `go` itself."""
    bind, enter, leave, names, used = binder_names(t, scope)

    def go(t: Term, prec: int) -> str:
        tp = type(t)
        if tp is Var:
            n = t.index
            if n >= len(names):
                raise InternalError(f"printer: de Bruijn index {n} out of scope")
            used[-1 - n] = True
            return names[-1 - n]
        if tp is Const:
            return t.name
        if tp is App:
            parts = [go(t.head, _APP)]
            for a in t.spine:  # not a comprehension: one Python frame per nesting level
                parts.append(go(a, _ATOM))
            text = " ".join(parts)
        elif tp is Abs:
            dom, body = t.domain, t.body
            name = bind(t.name, body)
            head = f"fun {name}" if type(dom) is Underscore else \
                f"fun {name} : {go(dom, _ARROW)}"
            enter(name)
            text = f"{head} => {go(body, _ARROW)}"
            leave(name)
        elif tp is Prod:
            dom, cod = t.domain, t.codomain
            name = bind(t.name, cod)
            domain = go(dom, _ARROW)  # printed once, for either form
            enter(name)
            codomain = go(cod, _ARROW)
            if leave(name):
                text = f"forall {name}, {codomain}" if type(dom) is Underscore else \
                    f"forall {name} : {domain}, {codomain}"
            elif _LEVEL.get(type(dom), _ATOM) < _UNION:
                text = f"({domain}) -> {codomain}"
            else:
                text = f"{domain} -> {codomain}"
        elif tp is Sort:
            return t.kind.value
        elif tp is Let:
            annot, body = t.annot, t.body
            name = bind(t.name, body)
            head = f"let {name}" if type(annot) is Underscore else \
                f"let {name} : {go(annot, _ARROW)}"
            bound = go(t.bound, _ARROW)
            enter(name)
            text = f"{head} := {bound} in {go(body, _ARROW)}"
            leave(name)
        elif tp is Underscore:
            return "_"
        elif tp is Union:
            text = f"{go(t.left, _INTER)} | {go(t.right, _UNION)}"
        elif tp is Inter:
            text = f"{go(t.left, _APP)} & {go(t.right, _INTER)}"
        elif tp is SPair:
            return f"<{go(t.left, _ARROW)}, {go(t.right, _ARROW)}>"
        elif tp is SPrLeft:
            text = f"proj_l {go(t.body, _ATOM)}"
        elif tp is SPrRight:
            text = f"proj_r {go(t.body, _ATOM)}"
        elif tp is SInLeft:
            text = f"inj_l {go(t.other, _ATOM)} {go(t.body, _ATOM)}"
        elif tp is SInRight:
            text = f"inj_r {go(t.other, _ATOM)} {go(t.body, _ATOM)}"
        elif tp is Coercion:
            text = f"coe {go(t.target, _ATOM)} {go(t.body, _ATOM)}"
        elif tp is Meta:
            parts = []
            for s in t.susp:
                parts.append(go(s, _ARROW))
            return f"?{t.mid}[{'; '.join(parts)}]"
        elif tp is SMatch:
            b1, b2, motive = t.branch1, t.branch2, t.motive
            n1, n2 = bind(t.name1, b1), bind(t.name2, b2)
            parts = [f"smatch {go(t.scrutinee, _ARROW)}"]
            if type(motive) is Abs:  # named like a product: `as` only when used
                body = motive.body
                name = bind(motive.name, body)
                go(motive.domain, _ARROW)  # not printed, but its variables count as used
                enter(name)
                result = None if type(body) is Underscore else go(body, _ARROW)
                if leave(name):
                    parts.append(f"as {name}")
                if result is not None:
                    parts.append(f"return {result}")
            else:  # eta-reduced by normalisation: `P` prints as `as x return P x`
                name = bind("", motive)
                parts.append(f"as {name} return {go(motive, _APP)} {name}")
            branches = []
            for name, annot, branch in ((n1, t.annot1, b1), (n2, t.annot2, b2)):
                head = name if type(annot) is Underscore else f"{name} : {go(annot, _ARROW)}"
                enter(name)
                branches.append(f"{head} => {go(branch, _ARROW)}")
                leave(name)
            parts.append(f"with {branches[0]}, {branches[1]} end")
            return " ".join(parts)
        else:
            raise InternalError(f"printer: unknown node {t!r}")
        return f"({text})" if prec > _LEVEL[tp] else text

    return go(t, _ARROW)


def render_error(source_text: str, err: ProverError) -> str:
    """Echo the source line where the blamed span starts, underline the
    span on it with carets, then print the error message."""
    loc, size = err.loc, len(source_text)
    start = -1 if loc is None else loc.start
    first = source_text.rfind("\n", 0, max(start, 0)) + 1  # the line's column 0
    # Only "\n" ends a line, as in the lexer; a final "\n" starts none.
    if 0 <= start <= size and first < size:
        stop = source_text.find("\n", start)
        stop = size if stop < 0 else stop  # where the line ends
        line = source_text[first:stop].removesuffix("\r")
        width = loc.end - start if start < loc.end <= stop else 1
        # The lexer counts a tab as one column: keep the line's tabs, before
        # and inside the span, so the carets sit under it at any tab width.
        column = start - first
        under = line[:column + width].ljust(column + width)
        caret = "".join("\t" if c == "\t" else " " if i < column else "^"
                        for i, c in enumerate(under))
        return f"{line}\n{caret}\nError: {err.message}"
    return f"Error: {err.message}"
