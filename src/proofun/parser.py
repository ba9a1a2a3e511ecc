"""Lexer and recursive-descent parser for the concrete term syntax and the
command language, plus the named/indexed conversions `fix_index` / `fix_id`
(the checker calls neither: it parses to indexed terms and prints them with
`show_term`).

The parser resolves names as it builds each node: with a stack of binding
depths per name, a name bound by an enclosing binder becomes a de Bruijn
`Var` index in O(1), and a free name stays a `Const` to be resolved against
the global signature.  Operator precedence, tightest first:

    application  >  &  >  |  >  ->        (-> , & , | associate right,
                                           application associates left)

`_Parser.term` climbs precedence (Pratt, *Top Down Operator Precedence*,
POPL 1973): after an application it loops over the infix operators binding
at least as tightly as its `level`, re-entering itself at an operator's own
level for its right operand.  An arrow nests one frame deep, `(` two.

`proj_l`, `proj_r`, `inj_l`, `inj_r`, and `coe` are prefix keywords that
consume exactly their displayed argument count at application precedence.
Comments are `(* ... *)` and nest.  The lexer is one regular expression
with an alternative per token shape; `tokenize` splits the text by it up to
each comment, counts the comment's nesting, and restarts after it.  Tokens
come as columns of kinds, texts and offsets (`Tokens`) built in C; a
`Location` is built only for a node, a line and column only to show an
error.  A script is lexed once and parsed from its one token list.
"""

from __future__ import annotations

import re
from itertools import accumulate, repeat
from operator import is_

from proofun.errors import InternalError, LexError, ParseError, too_deep_as_error
from proofun.pretty import binder_names
from proofun.syntax import (
    Abs, App, Coercion, Const, Inter, Let, Location, Meta,
    Prod, SInLeft, SInRight, SMatch, SPair, SPrLeft, SPrRight, Sort, SortKind,
    Term, Underscore, Union, Var, lift, mk_app, record, span, visit_term,
)

KEYWORDS = frozenset({
    "Type", "let", "in", "forall", "fun", "smatch", "as", "return", "with",
    "end", "proj_l", "proj_r", "inj_l", "inj_r", "coe",
})

_COMMAND_WORDS = frozenset({
    "Help", "Load", "Axiom", "Definition", "Print", "Printall", "Compute", "Quit",
})

_IDCHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'")


_KIND_NAMES = {
    "ARROW": "->", "DARROW": "=>", "COLONEQ": ":=", "COLON": ":",
    "COMMA": ",", "DOT": ".", "LPAREN": "(", "RPAREN": ")", "LT": "<",
    "GT": ">", "AMP": "&", "BAR": "|", "ID": "an identifier",
    "STRING": "a quoted path",
}


UNTERMINATED_COMMENT = "unterminated comment"
_OPERATORS = {text: kind for kind, text in _KIND_NAMES.items() if kind not in ("ID", "STRING")}
# The kind of each operator, keyword and `_`; any other word is an `ID`.
_KINDS = {**_OPERATORS, **dict.fromkeys(KEYWORDS, "KW"), "_": "UNDERSCORE"}

# One alternative per token shape, tried in order: each two-character
# operator before its one-character prefix.  Split by it, a text alternates
# between gaps, which must be blank, and tokens.
_STRING = r'"[^"\n]*"'
_TOKEN = re.compile("(" + "|".join((
    _STRING, "[" + re.escape("".join(sorted(_IDCHARS))) + "]+",
    *map(re.escape, sorted(_OPERATORS, key=len, reverse=True)),
)) + ")")
# The longest prefix of blanks and tokens: it ends at a bad character.
_TILED = re.compile(r"(?:[ \t\r\n]|" + _TOKEN.pattern + ")*")
# A complete string or a comment opener: the first opener it finds that is
# not a string's opens a comment.
_OPENER = re.compile(_STRING + r"|\(\*")
_NESTING = re.compile(r"\(\*|\*\)")


@record
class Tokens:
    """The tokens of a text as parallel columns: kind, text (a string's
    without its quotes) and start and end offsets; the last is `EOF`."""

    source: str
    kinds: list[str]
    texts: list[str]
    starts: list[int]
    ends: list[int]

    def __len__(self) -> int:
        return len(self.kinds)

    def loc(self, i: int) -> Location:
        return tuple.__new__(Location, (self.source, self.starts[i], self.ends[i]))


def tokenize(text: str, source: str = "<input>") -> Tokens:
    """The tokens of `text`, ending with an `EOF` token.  Each stretch up to
    the next comment opener outside a string is split by `_TOKEN` in one
    call, its offsets summed by `accumulate`; the comment's end is found by
    counting nesting."""
    kinds, texts, starts, ends = [], [], [], []  # the columns of `Tokens`
    pos, size = 0, len(text)
    while pos < size:
        stop = size
        for opener in _OPENER.finditer(text, pos):
            if opener.group() == "(*":
                stop = opener.start()
                break
        chunk = text[pos:stop]
        pieces = _TOKEN.split(chunk)
        if "".join(pieces[::2]).strip(" \t\r\n"):
            at = pos + _TILED.match(chunk).end()
            raise LexError("unterminated string" if text[at] == '"' else
                           f'unexpected character "{text[at]}"', Location(source, at, at + 1))
        words = pieces[1::2]
        bounds = list(accumulate(map(len, pieces), initial=pos))
        kinds += map(_KINDS.get, words, repeat("ID"))
        texts += words
        starts += bounds[1:-1:2]
        ends += bounds[2::2]
        if '"' in chunk:  # a string's kind, and its text without the quotes
            for i in range(len(texts) - len(words), len(texts)):
                if texts[i][0] == '"':
                    kinds[i], texts[i] = "STRING", texts[i][1:-1]
        if stop == size:
            break
        depth = 1  # a comment, which ends where its nesting does
        for nest in _NESTING.finditer(text, stop + 2):
            depth += 1 if nest.group() == "(*" else -1
            if not depth:
                break
        if depth:
            raise LexError(UNTERMINATED_COMMENT, Location(source, stop, stop + 2))
        pos = nest.end()
    return Tokens(source, kinds + ["EOF"], texts + [""], starts + [size], ends + [size])


# ---------------------------------------------------------------------------
# Commands


@record
class Help:
    loc: Location


@record
class Load:
    loc: Location
    path: str


@record
class Axiom:
    loc: Location
    name: str
    type: Term


@record
class Definition:
    loc: Location
    name: str
    type: Term | None
    body: Term


@record
class Print:
    loc: Location
    name: str


@record
class Printall:
    loc: Location


@record
class Compute:
    loc: Location
    name: str


@record
class Quit:
    loc: Location


Command = Help | Load | Axiom | Definition | Print | Printall | Compute | Quit


# The binding level of each infix operator, loosest first; all associate right.
_LEVELS = {"ARROW": 0, "BAR": 1, "AMP": 2}
# The prefix keywords, which take their atoms at application precedence.
_PREFIXES = {"proj_l": SPrLeft, "proj_r": SPrRight, "inj_l": SInLeft, "inj_r": SInRight,
             "coe": Coercion}


class _Parser:
    def __init__(self, toks: Tokens):
        self.kinds, self.texts, self.loc = toks.kinds, toks.texts, toks.loc
        self.pos = 0
        self.scope: dict[str, list[int]] = {}  # each bound name's binding depths
        self.binders: list[list[int]] = []  # the depth stack each open binder pushed to
        self.depth = 0  # the number of binders open at the cursor

    def bind(self, name: str) -> None:
        """Open a binder for `name` over what is parsed next."""
        self.binders.append(bound := self.scope.setdefault(name, []))
        bound.append(self.depth)
        self.depth += 1

    def unbind(self, count: int, t: Term | None = None) -> Term | None:
        """Close the `count` innermost binders, those over `t`; returns `t`."""
        for _ in range(count):
            self.binders.pop().pop()
        self.depth -= count
        return t

    def next(self) -> int:
        """Consume the token at the cursor; returns its index."""
        i = self.pos
        if self.kinds[i] != "EOF":  # `pos` never passes the final EOF token
            self.pos += 1
        return i

    def at(self, kind: str, text: str | None = None) -> bool:
        i = self.pos
        return self.kinds[i] == kind and (text is None or self.texts[i] == text)

    def expect(self, kind: str, text: str | None = None) -> int:
        i = self.pos
        if self.kinds[i] != kind or text is not None and self.texts[i] != text:
            raise self.fail(f'expected "{text or _KIND_NAMES.get(kind, kind.lower())}"')
        if kind != "EOF":
            self.pos += 1
        return i

    def fail(self, expected: str) -> ParseError:
        """`expected` and what was found, at the cursor."""
        found = self.texts[self.pos] or "end of input"
        return ParseError(f'{expected} but found "{found}"', self.loc(self.pos))

    # -- terms --------------------------------------------------------------

    def term(self, level: int = 0) -> Term:
        """A term whose infix operators all bind at `level` (`_LEVELS`) or
        tighter, by precedence climbing.  A binder reaches as far right as
        it can, so it stands only where an arrow may (`level` 0)."""
        i = self.pos
        node = None
        if self.kinds[i] == "KW":
            if not level and self.texts[i] in ("fun", "forall", "let"):
                return self.binder()
            node = _PREFIXES.get(self.texts[i])
        if node is None:
            left = self.atom()
        else:  # `proj_l`/`proj_r` take one atom, the other prefixes two
            self.pos += 1
            args = [self.atom()]
            if node is not SPrLeft and node is not SPrRight and args[0] is not None:
                args.append(self.atom())
            left = None if args[-1] is None else node(span(self.loc(i), args[-1].loc), *args)
        if left is None:
            raise self.fail("expected a term")
        spine = []
        while (arg := self.atom()) is not None:
            spine.append(arg)
        if spine:
            left = App(span(left.loc, spine[-1].loc), left, tuple(spine))
        while True:
            op = _LEVELS.get(self.kinds[self.pos])  # the next operator's level
            if op is None or op < level:
                return left
            self.pos += 1
            self.depth += not op  # an arrow's codomain is under its unnamed binder
            right = self.term(op)  # the same level again: right-associative
            self.depth -= not op
            loc = span(left.loc, right.loc)
            left = (Prod(loc, "", left, right) if op == 0 else
                    Union(loc, left, right) if op == 1 else Inter(loc, left, right))

    def binder(self) -> Term:
        i = self.next()
        word, loc = self.texts[i], self.loc(i)
        if word != "let":  # fun ARGS => t  or  forall ARGS, t
            args = self.args(typed_tail=True)
            self.expect("DARROW" if word == "fun" else "COMMA")
            body = self.unbind(len(args), self.term())
            return self.fold(Abs if word == "fun" else Prod, loc, args, body)
        name, annot, bound = self.defined(loc)  # let ID [args] [: T] := t1 in t2
        self.expect("KW", "in")
        self.bind(name)
        body = self.unbind(1, self.term())
        return Let(span(loc, body.loc), name,
                   Underscore(loc) if annot is None else annot, bound, body)

    def defined(self, loc: Location) -> tuple[str, Term | None, Term]:
        """`ID [args] [: T] := t`: the name, its type (None when absent) and
        its body, each under one binder per argument."""
        name = self.ident()
        args = self.args() if self.args_ahead() else []
        ty = None
        if self.at("COLON"):
            self.next()
            ty = self.fold(Prod, loc, args, self.term())
        self.expect("COLONEQ")
        return name, ty, self.fold(Abs, loc, args, self.unbind(len(args), self.term()))

    def fold(self, node: type[Abs] | type[Prod], loc: Location,
             args: list[tuple[str, Term]], body: Term) -> Term:
        """`body` under one `node` binder per argument, the first outermost."""
        for name, annot in reversed(args):
            body = node(span(loc, body.loc), name, annot, body)
        return body

    def args_ahead(self) -> bool:
        return self.at("ID") or (self.at("LPAREN") and self.kinds[self.pos + 1] == "ID")

    def args(self, typed_tail: bool = False) -> list[tuple[str, Term]]:
        """Non-empty argument sequence: bare names or `(x y z : T)` groups.
        Each name is bound from its end on, until the caller unbinds them.

        With `typed_tail` (fun/forall position) a trailing `: T` types the
        final run of bare names, so `fun x y : A => e` works unparenthesized.
        """
        out: list[tuple[str, Term]] = []
        bare_run = 0
        while True:
            if self.at("ID"):
                i = self.next()
                out.append((self.texts[i], Underscore(self.loc(i))))
                self.bind(self.texts[i])
                bare_run += 1
            elif self.at("LPAREN") and self.kinds[self.pos + 1] == "ID":
                self.group(out, *self.typed_names())
                bare_run = 0
            else:
                break
        if not out:
            raise ParseError("expected at least one argument", self.loc(self.pos))
        if typed_tail and bare_run and self.at("COLON"):
            self.next()
            run, out[-bare_run:] = out[-bare_run:], []
            self.unbind(bare_run)
            self.group(out, [n for n, _ in run], self.term())
        return out

    def typed_names(self) -> tuple[list[str], Term]:
        """`( ID+ : T )`: the names and their one type."""
        self.expect("LPAREN")
        names = [self.ident()]
        while self.at("ID"):
            names.append(self.ident())
        self.expect("COLON")
        annot = self.term()
        self.expect("RPAREN")
        return names, annot

    def group(self, out: list[tuple[str, Term]], names: list[str], annot: Term) -> None:
        """Bind `names` in turn, each typed `annot` lifted past the earlier ones."""
        for i, name in enumerate(names):
            out.append((name, lift(0, i, annot)))
            self.bind(name)

    def ident(self) -> str:
        return self.texts[self.expect("ID")]

    def atom(self) -> Term | None:
        """The atom at the cursor, or None, consuming nothing, if no atom
        starts there."""
        i = self.pos
        kind = self.kinds[i]
        if kind == "ID":
            self.pos += 1
            name = self.texts[i]
            bound = self.scope.get(name)
            return Var(self.loc(i), self.depth - 1 - bound[-1]) if bound else Const(self.loc(i), name)
        if kind == "LPAREN":
            self.pos += 1
            inner = self.term()
            self.expect("RPAREN")
            return inner
        if kind == "UNDERSCORE":
            self.pos += 1
            return Underscore(self.loc(i))
        if kind == "LT":
            self.pos += 1
            left = self.term()
            self.expect("COMMA")
            right = self.term()
            return SPair(span(self.loc(i), self.loc(self.expect("GT"))), left, right)
        if kind == "KW" and self.texts[i] == "Type":
            self.pos += 1
            return Sort(self.loc(i), SortKind.TYPE)
        if kind == "KW" and self.texts[i] == "smatch":
            return self.smatch()
        return None

    def smatch(self) -> Term:
        start = self.loc(self.expect("KW", "smatch"))
        scrut = self.term()
        as_name = ""
        if self.at("KW", "as"):
            self.next()
            as_name = self.ident()
        ret: Term = Underscore(start)
        self.bind(as_name)
        if self.at("KW", "return"):
            self.next()
            ret = self.term()
        self.unbind(1)
        motive = Abs(span(start, ret.loc), as_name, Underscore(start), ret)
        self.expect("KW", "with")
        n1, a1, b1 = self.branch()
        self.expect("COMMA")
        n2, a2, b2 = self.branch()
        end = self.loc(self.expect("KW", "end"))
        return SMatch(span(start, end), scrut, motive, n1, a1, b1, n2, a2, b2)

    def branch(self) -> tuple[str, Term, Term]:
        i = self.expect("ID")
        annot: Term = Underscore(self.loc(i))
        if self.at("COLON"):
            self.next()
            annot = self.term()
        self.expect("DARROW")
        self.bind(self.texts[i])
        return self.texts[i], annot, self.unbind(1, self.term())

    # -- commands -----------------------------------------------------------

    def command(self) -> list[Command]:
        word = self.texts[self.pos]
        if self.kinds[self.pos] != "ID" or word not in _COMMAND_WORDS:
            raise self.fail("expected a command")
        loc = self.loc(self.next())
        if word in ("Help", "Printall", "Quit"):
            self.expect("DOT")
            return [{"Help": Help, "Printall": Printall, "Quit": Quit}[word](loc)]
        if word == "Load":
            path = self.texts[self.expect("STRING")]
            self.expect("DOT")
            return [Load(loc, path)]
        if word in ("Print", "Compute"):
            name = self.ident()
            self.expect("DOT")
            return [Print(loc, name) if word == "Print" else Compute(loc, name)]
        if word == "Axiom":
            return self.axiom(loc)
        return self.definition(loc)

    def axiom(self, loc: Location) -> list[Command]:
        """`Axiom name : type.` or a sequence of `(names : type)` groups,
        which expands to one atomic command per name."""
        if self.at("ID"):
            name = self.ident()
            self.expect("COLON")
            ty = self.term()
            self.expect("DOT")
            return [Axiom(loc, name, ty)]
        out: list[Command] = []
        while self.at("LPAREN"):
            names, ty = self.typed_names()
            out.extend(Axiom(loc, n, ty) for n in names)
        if not out:
            raise ParseError("expected a name or a parenthesized group", self.loc(self.pos))
        self.expect("DOT")
        return out

    def definition(self, loc: Location) -> list[Command]:
        name, ty, body = self.defined(loc)
        self.expect("DOT")
        return [Definition(loc, name, ty, body)]


@too_deep_as_error
def parse_term(text: str, source: str = "<input>") -> Term:
    """Parse a single term; bound names come back as `Var`s, free ones as `Const`s."""
    p = _Parser(tokenize(text, source))
    t = p.term()
    p.expect("EOF")
    return t


@too_deep_as_error
def parse_command(text: str, source: str = "<input>") -> list[Command]:
    """Parse one period-terminated source command into its atomic commands."""
    p = _Parser(tokenize(text, source))
    cmds = p.command()
    p.expect("EOF")
    return cmds


@too_deep_as_error
def parse_script(text: str, source: str = "<script>") -> list[list[Command]]:
    """Parse a whole command stream; each inner list is one atomic unit."""
    p = _Parser(tokenize(text, source))
    out = []
    while not p.at("EOF"):
        out.append(p.command())
    return out


# ---------------------------------------------------------------------------
# Named <-> indexed conversions


def fix_index(t: Term, scope: tuple[str, ...] | list[str] = ()) -> Term:
    """Replace names bound by `scope` (innermost first) or by enclosing
    binders with de Bruijn indices; unknown names stay constants.  For terms
    built by hand: the parser resolves names itself.  Each name
    maps to the stack of depths that bind it, so a lookup is O(1).  The node
    kinds the parser builds in bulk are rebuilt here, the others by
    `visit_term`; a node with no bound name in it comes back itself."""
    depths: dict[str, list[int]] = {}
    for depth, name in enumerate(reversed(scope)):
        depths.setdefault(name, []).append(depth)
    depth = len(scope)

    def go(t: Term, group: tuple[Term, Term] | None = None) -> Term:
        kind = type(t)
        if kind is Const:
            bound = depths.get(t.name)
            return Var(t.loc, depth - 1 - bound[-1]) if bound else t
        if kind is App:
            head, spine = go(t.head), tuple(map(go, t.spine))
            if head is t.head and all(map(is_, spine, t.spine)):
                return t
            return App(t.loc, head, spine)
        if kind is Abs or kind is Prod:
            # The parser gives every name of a group `(x y : A)` the same `A`
            # object: it is resolved once, outside the group, and lifted past
            # each earlier name of the group.
            dom = (lift(0, 1, group[1]) if group and t.domain is group[0]
                   else go(t.domain))
            body = t.body if kind is Abs else t.codomain
            body2 = under(t.name, body, (t.domain, dom))
            return t if dom is t.domain and body2 is body else kind(t.loc, t.name, dom, body2)
        return visit_term(go, under, t)

    def under(name: str, child: Term, group: tuple[Term, Term] | None = None) -> Term:
        nonlocal depth
        bound = depths.setdefault(name, [])
        bound.append(depth)
        depth += 1
        child = go(child, group)
        depth -= 1
        bound.pop()
        return child

    return go(t)


@too_deep_as_error
def fix_id(t: Term, scope: tuple[str, ...] | list[str] = ()) -> Term:
    """Replace de Bruijn indices with printable names: the named copy of `t`
    that `show_term` prints, with each binder named by the printer's policy
    (`binder_names`).  A product or `smatch` motive whose bound variable is
    never used gets the name `""`, so the name's occurrence decides whether
    it prints as dependent."""
    bind, enter, leave, names, used = binder_names(t, scope)

    # One frame per nesting level: the spine and every binder are walked here.
    def go(t: Term) -> Term:
        match t:
            case Var(loc, n):
                if n >= len(names):
                    raise InternalError(f"fix_id: index {n} out of range")
                used[-1 - n] = True
                return Const(loc, names[-1 - n])
            case App(loc, head, spine):
                return App(loc, go(head), tuple(map(go, spine)))
            case Abs(loc, name, dom, body) | Prod(loc, name, dom, body):
                chosen = bind(name, body)
                dom = go(dom)
                enter(chosen)
                body = go(body)
                kept = leave(chosen) or type(t) is Abs  # `fun` always prints its name
                return type(t)(loc, chosen if kept else "", dom, body)
            case Let(loc, name, annot, bound, body):
                chosen = bind(name, body)
                annot, bound = go(annot), go(bound)
                enter(chosen)
                body = go(body)
                leave(chosen)
                return Let(loc, chosen, annot, bound, body)
            case SMatch(loc, scrut, motive, n1, a1, b1, n2, a2, b2):
                c1, c2 = bind(n1, b1), bind(n2, b2)
                scrut, a1, a2 = go(scrut), go(a1), go(a2)
                if type(motive) is Abs:  # named like a product: `""` when unused
                    m = go(Prod(motive.loc, motive.name, motive.domain, motive.body))
                    motive = Abs(m.loc, m.name, m.domain, m.codomain)
                else:  # eta-reduced by normalisation: `P` prints as `as x return P x`
                    chosen, m = bind("", motive), motive.loc
                    body = mk_app(m, go(motive), (Const(m, chosen),))
                    motive = Abs(m, chosen, Underscore(m), body)
                enter(c1)
                b1 = go(b1)
                leave(c1)
                enter(c2)
                b2 = go(b2)
                leave(c2)
                return SMatch(loc, scrut, motive, c1, a1, b1, c2, a2, b2)
            case (Inter(loc, a, b) | Union(loc, a, b) | SPair(loc, a, b)
                  | SInLeft(loc, a, b) | SInRight(loc, a, b) | Coercion(loc, a, b)):
                return type(t)(loc, go(a), go(b))
            case SPrLeft(loc, a) | SPrRight(loc, a):
                return type(t)(loc, go(a))
            case Meta(loc, mid, susp):
                return Meta(loc, mid, tuple(map(go, susp)))
            case Sort() | Const() | Underscore():
                return t
        raise InternalError(f"fix_id: unknown node {t!r}")

    return go(t)
