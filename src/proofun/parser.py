"""Lexer and recursive-descent parser for the concrete term syntax and the
command language, plus the named/indexed conversions `fix_index` / `fix_id`
(the checker prints indexed terms with `show_term` and does not call
`fix_id`).

The parser produces terms whose variables are all `Const` nodes; `fix_index`
then rewrites names bound by enclosing binders into de Bruijn `Var` indices,
leaving genuinely free names as constants to be resolved against the global
signature.  Operator precedence, tightest first:

    application  >  &  >  |  >  ->        (-> , & , | associate right,
                                           application associates left)

`_Parser.term` climbs precedence (Pratt, *Top Down Operator Precedence*,
POPL 1973): after an application it loops over the infix operators binding
at least as tightly as its `level`, re-entering itself at an operator's own
level for its right operand.  An arrow nests one frame deep, `(` two.

`proj_l`, `proj_r`, `inj_l`, `inj_r`, and `coe` are prefix keywords that
consume exactly their displayed argument count at application precedence.
Comments are `(* ... *)` and nest.  The lexer is one regular expression
with an alternative per token shape; `tokenize` runs one `finditer` loop
over it up to each comment, counts the comment's nesting, and restarts
after it.  Tokens and their `Location`s are tuples built in C.  A script is
lexed once and parsed from its one token list.
"""

from __future__ import annotations

import re
from operator import is_
from typing import NamedTuple

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


class Token(NamedTuple):
    kind: str  # ID KW UNDERSCORE STRING LPAREN RPAREN LT GT AMP BAR ARROW DARROW COLONEQ COLON COMMA DOT EOF
    text: str
    loc: Location


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

# After any blanks, one alternative per token shape, tried in order: `(*`
# before `(`, each two-character operator before its one-character prefix,
# and an empty match at the end of the text.  Some alternative matches at
# every position, so successive matches tile the text.
_LEXEME = re.compile("[ \t\r]*(?:" + "|".join((
    r"(?P<NL>\n)", r"(?P<COMMENT>\(\*)", r'(?P<STRING>"[^"\n]*")',
    "(?P<WORD>[" + re.escape("".join(sorted(_IDCHARS))) + "]+)",
    "(?P<OP>" + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True))) + ")",
    r"(?P<BAD>.)", r"\Z",
)) + ")")
_NESTING = re.compile(r"\(\*|\*\)")


def tokenize(text: str, source: str = "<input>") -> list[Token]:
    """The tokens of `text`, ending with an `EOF` token.  No token spans a
    line, so a column is the offset past the start of the current line.
    One `finditer` pass runs up to each comment; the comment's end is found
    by counting nesting, and a new pass starts after it."""
    toks: list[Token] = []
    append, new, kinds = toks.append, tuple.__new__, _KINDS
    line, before, pos = 1, -1, 0  # `before`: the offset of column 0 of the line
    while True:
        for m in _LEXEME.finditer(text, pos):
            kind = m.lastgroup
            if kind == "NL":
                line, before = line + 1, m.end() - 1
                continue
            if kind is None:  # the end of the text
                col = len(text) - before
                append(new(Token, ("EOF", "", new(Location, (source, (line, col), (line, col))))))
                return toks
            start, end = m.span(kind)
            here = new(Location, (source, (line, start - before), (line, end - before)))
            if kind == "WORD" or kind == "OP":
                lexeme = text[start:end]
                append(new(Token, (kinds.get(lexeme, "ID"), lexeme, here)))
            elif kind == "STRING":
                append(new(Token, ("STRING", text[start + 1:end - 1], here)))
            elif kind == "COMMENT":
                break
            elif text[start] == '"':
                raise LexError("unterminated string", here)
            else:
                raise LexError(f'unexpected character "{text[start]}"', here)
        depth = 1
        for nest in _NESTING.finditer(text, end):
            depth += 1 if nest.group() == "(*" else -1
            if not depth:
                break
        if depth:
            raise LexError(UNTERMINATED_COMMENT, here)
        pos = nest.end()
        newlines = text.count("\n", start, pos)
        if newlines:
            line, before = line + newlines, text.rindex("\n", start, pos)


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
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":  # `pos` never passes the final EOF token
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.toks[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != kind or text is not None and tok.text != text:
            want = text or _KIND_NAMES.get(kind, kind.lower())
            raise ParseError(f'expected "{want}" but found "{tok.text or "end of input"}"',
                             tok.loc)
        if kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().loc)

    # -- terms --------------------------------------------------------------

    def term(self, level: int = 0) -> Term:
        """A term whose infix operators all bind at `level` (`_LEVELS`) or
        tighter, by precedence climbing.  A binder reaches as far right as
        it can, so it stands only where an arrow may (`level` 0)."""
        tok = self.toks[self.pos]
        node = None
        if tok.kind == "KW":
            if not level and tok.text in ("fun", "forall", "let"):
                return self.binder()
            node = _PREFIXES.get(tok.text)
        if node is None:
            left = self.atom()
        else:  # `proj_l`/`proj_r` take one atom, the other prefixes two
            self.pos += 1
            args = [self.atom()]
            if node is not SPrLeft and node is not SPrRight and args[0] is not None:
                args.append(self.atom())
            left = None if args[-1] is None else node(span(tok.loc, args[-1].loc), *args)
        if left is None:
            raise self.fail(f'expected a term but found "{self.peek().text or "end of input"}"')
        spine = []
        while (arg := self.atom()) is not None:
            spine.append(arg)
        if spine:
            left = App(span(left.loc, spine[-1].loc), left, tuple(spine))
        while True:
            op = _LEVELS.get(self.toks[self.pos].kind)  # the next operator's level
            if op is None or op < level:
                return left
            self.pos += 1
            right = self.term(op)  # the same level again: right-associative
            loc = span(left.loc, right.loc)
            left = (Prod(loc, "", left, right) if op == 0 else
                    Union(loc, left, right) if op == 1 else Inter(loc, left, right))

    def binder(self) -> Term:
        tok = self.next()
        if tok.text != "let":  # fun ARGS => t  or  forall ARGS, t
            args = self.args(typed_tail=True)
            self.expect("DARROW" if tok.text == "fun" else "COMMA")
            return self.fold(Abs if tok.text == "fun" else Prod, tok.loc, args, self.term())
        # let ID [args] [: T] := t1 in t2
        name = self.ident()
        args = self.args() if self.args_ahead() else []
        annot: Term = Underscore(tok.loc)
        if self.at("COLON"):
            self.next()
            annot = self.fold(Prod, tok.loc, args, self.term())
        self.expect("COLONEQ")
        bound = self.fold(Abs, tok.loc, args, self.term())
        self.expect("KW", "in")
        body = self.term()
        return Let(span(tok.loc, body.loc), name, annot, bound, body)

    def fold(self, node: type[Abs] | type[Prod], loc: Location,
             args: list[tuple[str, Term]], body: Term) -> Term:
        """`body` under one `node` binder per argument, the first outermost."""
        for name, annot in reversed(args):
            body = node(span(loc, body.loc), name, annot, body)
        return body

    def args_ahead(self) -> bool:
        return self.at("ID") or (self.at("LPAREN") and self.toks[self.pos + 1].kind == "ID")

    def args(self, typed_tail: bool = False) -> list[tuple[str, Term]]:
        """Non-empty argument sequence: bare names or `(x y z : T)` groups.

        With `typed_tail` (fun/forall position) a trailing `: T` types the
        final run of bare names, so `fun x y : A => e` works unparenthesized.
        """
        out: list[tuple[str, Term]] = []
        bare_run = 0
        while True:
            if self.at("ID"):
                tok = self.next()
                out.append((tok.text, Underscore(tok.loc)))
                bare_run += 1
            elif self.at("LPAREN") and self.toks[self.pos + 1].kind == "ID":
                self.next()
                names = [self.ident()]
                while self.at("ID"):
                    names.append(self.ident())
                self.expect("COLON")
                annot = self.term()
                self.expect("RPAREN")
                out.extend((n, annot) for n in names)
                bare_run = 0
            else:
                break
        if not out:
            raise self.fail("expected at least one argument")
        if typed_tail and bare_run and self.at("COLON"):
            self.next()
            annot = self.term()
            out[-bare_run:] = [(n, annot) for n, _ in out[-bare_run:]]
        return out

    def ident(self) -> str:
        return self.expect("ID").text

    def atom(self) -> Term | None:
        """The atom at the cursor, or None, consuming nothing, if no atom
        starts there."""
        tok = self.toks[self.pos]
        kind = tok.kind
        if kind == "ID":
            self.pos += 1
            return Const(tok.loc, tok.text)
        if kind == "LPAREN":
            self.pos += 1
            inner = self.term()
            self.expect("RPAREN")
            return inner
        if kind == "UNDERSCORE":
            self.pos += 1
            return Underscore(tok.loc)
        if kind == "LT":
            self.pos += 1
            left = self.term()
            self.expect("COMMA")
            right = self.term()
            close = self.expect("GT")
            return SPair(span(tok.loc, close.loc), left, right)
        if kind == "KW" and tok.text == "Type":
            self.pos += 1
            return Sort(tok.loc, SortKind.TYPE)
        if kind == "KW" and tok.text == "smatch":
            return self.smatch()
        return None

    def smatch(self) -> Term:
        start = self.expect("KW", "smatch")
        scrut = self.term()
        as_name = ""
        if self.at("KW", "as"):
            self.next()
            as_name = self.ident()
        ret: Term = Underscore(start.loc)
        if self.at("KW", "return"):
            self.next()
            ret = self.term()
        motive = Abs(span(start.loc, ret.loc), as_name, Underscore(start.loc), ret)
        self.expect("KW", "with")
        n1, a1, b1 = self.branch()
        self.expect("COMMA")
        n2, a2, b2 = self.branch()
        end = self.expect("KW", "end")
        return SMatch(span(start.loc, end.loc), scrut, motive, n1, a1, b1, n2, a2, b2)

    def branch(self) -> tuple[str, Term, Term]:
        name_tok = self.expect("ID")
        annot: Term = Underscore(name_tok.loc)
        if self.at("COLON"):
            self.next()
            annot = self.term()
        self.expect("DARROW")
        body = self.term()
        return name_tok.text, annot, body

    # -- commands -----------------------------------------------------------

    def command(self) -> list[Command]:
        tok = self.peek()
        if tok.kind != "ID" or tok.text not in _COMMAND_WORDS:
            raise self.fail(
                f'expected a command but found "{tok.text or "end of input"}"')
        self.next()
        word = tok.text
        if word in ("Help", "Printall", "Quit"):
            self.expect("DOT")
            return [{"Help": Help, "Printall": Printall, "Quit": Quit}[word](tok.loc)]
        if word == "Load":
            path = self.expect("STRING").text
            self.expect("DOT")
            return [Load(tok.loc, path)]
        if word in ("Print", "Compute"):
            name = self.ident()
            self.expect("DOT")
            return [Print(tok.loc, name) if word == "Print" else Compute(tok.loc, name)]
        if word == "Axiom":
            return self.axiom(tok.loc)
        return self.definition(tok.loc)

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
            self.next()
            names = [self.ident()]
            while self.at("ID"):
                names.append(self.ident())
            self.expect("COLON")
            ty = self.term()
            self.expect("RPAREN")
            out.extend(Axiom(loc, n, ty) for n in names)
        if not out:
            raise self.fail("expected a name or a parenthesized group")
        self.expect("DOT")
        return out

    def definition(self, loc: Location) -> list[Command]:
        name = self.ident()
        args = self.args() if self.args_ahead() else []
        ty: Term | None = None
        if self.at("COLON"):
            self.next()
            ty = self.fold(Prod, loc, args, self.term())
        self.expect("COLONEQ")
        body = self.fold(Abs, loc, args, self.term())
        self.expect("DOT")
        return [Definition(loc, name, ty, body)]


@too_deep_as_error
def parse_term(text: str, source: str = "<input>") -> Term:
    """Parse a single term; variables come back as `Const` nodes."""
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
    binders with de Bruijn indices; unknown names stay constants.  Each name
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
