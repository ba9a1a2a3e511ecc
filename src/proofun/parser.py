"""Lexer and recursive-descent parser for the concrete term syntax and the
command language, plus the named/indexed conversions `fix_index` / `fix_id`.

The parser produces terms whose variables are all `Const` nodes; `fix_index`
then rewrites names bound by enclosing binders into de Bruijn `Var` indices,
leaving genuinely free names as constants to be resolved against the global
signature.  Operator precedence, tightest first:

    application  >  &  >  |  >  ->        (-> , & , | associate right,
                                           application associates left)

`proj_l`, `proj_r`, `inj_l`, `inj_r`, and `coe` are prefix keywords that
consume exactly their displayed argument count at application precedence.
Comments are `(* ... *)` and nest.  The lexer is one regular expression
with an alternative per token shape, plus a loop that counts comment
nesting; a script is lexed once and parsed from its one token list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from proofun.errors import InternalError, LexError, ParseError, too_deep_as_error
from proofun.pretty import binder_names
from proofun.syntax import (
    Abs, App, Coercion, Const, Inter, Let, Location, Meta,
    Prod, SInLeft, SInRight, SMatch, SPair, SPrLeft, SPrRight, Sort, SortKind,
    Term, Underscore, Union, Var, mk_app, span, visit_term,
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

# After any blanks, one alternative per token shape, tried in order: `(*`
# before `(`, each two-character operator before its one-character prefix,
# and an empty match at the end of the text.
_LEXEME = re.compile("[ \t\r]*(?:" + "|".join((
    r"(?P<NL>\n)", r"(?P<COMMENT>\(\*)", r'(?P<STRING>"[^"\n]*")',
    "(?P<WORD>[" + re.escape("".join(sorted(_IDCHARS))) + "]+)",
    "(?P<OP>" + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True))) + ")",
    r"(?P<BAD>.)", r"\Z",
)) + ")")
_NESTING = re.compile(r"\(\*|\*\)")


def tokenize(text: str, source: str = "<input>") -> list[Token]:
    """The tokens of `text`, ending with an `EOF` token.  No token spans a
    line, so a column is the offset past the start of the current line."""
    toks: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while True:
        m = _LEXEME.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        if kind == "NL":
            line, line_start = line + 1, pos
            continue
        if kind is None:  # the end of the text
            break
        start, lexeme = m.start(kind), m.group(kind)
        here = Location(source, (line, start - line_start + 1), (line, pos - line_start + 1))
        if kind == "WORD":
            kind = "UNDERSCORE" if lexeme == "_" else "KW" if lexeme in KEYWORDS else "ID"
            toks.append(Token(kind, lexeme, here))
        elif kind == "OP":
            toks.append(Token(_OPERATORS[lexeme], lexeme, here))
        elif kind == "STRING":
            toks.append(Token("STRING", lexeme[1:-1], here))
        elif kind == "COMMENT":
            depth = 1
            for nest in _NESTING.finditer(text, pos):
                depth += 1 if nest.group() == "(*" else -1
                if not depth:
                    break
            if depth:
                raise LexError(UNTERMINATED_COMMENT, here)
            pos = nest.end()
            newlines = text.count("\n", start, pos)
            if newlines:
                line, line_start = line + newlines, text.rindex("\n", start, pos) + 1
        elif lexeme == '"':
            raise LexError("unterminated string", here)
        else:
            raise LexError(f'unexpected character "{lexeme}"', here)
    col = len(text) - line_start + 1
    toks.append(Token("EOF", "", Location(source, (line, col), (line, col))))
    return toks


# ---------------------------------------------------------------------------
# Commands


@dataclass(frozen=True)
class Help:
    loc: Location


@dataclass(frozen=True)
class Load:
    loc: Location
    path: str


@dataclass(frozen=True)
class Axiom:
    loc: Location
    name: str
    type: Term


@dataclass(frozen=True)
class Definition:
    loc: Location
    name: str
    type: Term | None
    body: Term


@dataclass(frozen=True)
class Print:
    loc: Location
    name: str


@dataclass(frozen=True)
class Printall:
    loc: Location


@dataclass(frozen=True)
class Compute:
    loc: Location
    name: str


@dataclass(frozen=True)
class Quit:
    loc: Location


Command = Help | Load | Axiom | Definition | Print | Printall | Compute | Quit


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        # `pos` never passes the final EOF token, so only a lookahead clamps.
        if ahead:
            return self.toks[min(self.pos + ahead, len(self.toks) - 1)]
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or _KIND_NAMES.get(kind, kind.lower())
            raise ParseError(f'expected "{want}" but found "{tok.text or "end of input"}"',
                             tok.loc)
        return self.next()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().loc)

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "KW" and tok.text in ("fun", "forall", "let"):
            return self.binder()
        return self.arrow()

    def binder(self) -> Term:
        tok = self.next()
        if tok.text == "fun":
            args = self.args(typed_tail=True)
            self.expect("DARROW")
            body = self.term()
            return self.fold_abs(tok.loc, args, body)
        if tok.text == "forall":
            args = self.args(typed_tail=True)
            self.expect("COMMA")
            body = self.term()
            return self.fold_prod(tok.loc, args, body)
        # let ID [args] [: T] := t1 in t2
        name = self.ident()
        args = self.args() if self.args_ahead() else []
        annot: Term = Underscore(tok.loc)
        if self.at("COLON"):
            self.next()
            annot = self.fold_prod(tok.loc, args, self.term())
        self.expect("COLONEQ")
        bound = self.fold_abs(tok.loc, args, self.term())
        self.expect("KW", "in")
        body = self.term()
        return Let(span(tok.loc, body.loc), name, annot, bound, body)

    def fold_abs(self, loc: Location, args: list[tuple[str, Term]], body: Term) -> Term:
        for name, annot in reversed(args):
            body = Abs(span(loc, body.loc), name, annot, body)
        return body

    def fold_prod(self, loc: Location, args: list[tuple[str, Term]], body: Term) -> Term:
        for name, annot in reversed(args):
            body = Prod(span(loc, body.loc), name, annot, body)
        return body

    def args_ahead(self) -> bool:
        return self.at("ID") or (self.at("LPAREN") and self.peek(1).kind == "ID")

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
            elif self.at("LPAREN") and self.peek(1).kind == "ID":
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

    def arrow(self) -> Term:
        left = self.union()
        if self.at("ARROW"):
            self.next()
            right = self.term()
            return Prod(span(left.loc, right.loc), "", left, right)
        return left

    def union(self) -> Term:
        left = self.inter()
        if self.at("BAR"):
            self.next()
            right = self.union()
            return Union(span(left.loc, right.loc), left, right)
        return left

    def inter(self) -> Term:
        left = self.app()
        if self.at("AMP"):
            self.next()
            right = self.inter()
            return Inter(span(left.loc, right.loc), left, right)
        return left

    def app(self) -> Term:
        head = self.prefix()
        args = []
        while self.atom_ahead():
            args.append(self.atom())
        if not args:
            return head
        return App(span(head.loc, args[-1].loc), head, tuple(args))

    def prefix(self) -> Term:
        tok = self.peek()
        if tok.kind == "KW" and tok.text in ("proj_l", "proj_r"):
            self.next()
            body = self.atom()
            node = SPrLeft if tok.text == "proj_l" else SPrRight
            return node(span(tok.loc, body.loc), body)
        if tok.kind == "KW" and tok.text in ("inj_l", "inj_r", "coe"):
            self.next()
            first = self.atom()
            second = self.atom()
            loc = span(tok.loc, second.loc)
            if tok.text == "inj_l":
                return SInLeft(loc, first, second)
            if tok.text == "inj_r":
                return SInRight(loc, first, second)
            return Coercion(loc, first, second)
        return self.atom()

    def atom_ahead(self) -> bool:
        tok = self.peek()
        return (tok.kind in ("ID", "UNDERSCORE", "LPAREN", "LT")
                or (tok.kind == "KW" and tok.text in ("Type", "smatch")))

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ID":
            self.next()
            return Const(tok.loc, tok.text)
        if tok.kind == "UNDERSCORE":
            self.next()
            return Underscore(tok.loc)
        if tok.kind == "KW" and tok.text == "Type":
            self.next()
            return Sort(tok.loc, SortKind.TYPE)
        if tok.kind == "LPAREN":
            self.next()
            inner = self.term()
            self.expect("RPAREN")
            return inner
        if tok.kind == "LT":
            self.next()
            left = self.term()
            self.expect("COMMA")
            right = self.term()
            close = self.expect("GT")
            return SPair(span(tok.loc, close.loc), left, right)
        if tok.kind == "KW" and tok.text == "smatch":
            return self.smatch()
        raise self.fail(f'expected a term but found "{tok.text or "end of input"}"')

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
            ty = self.fold_prod(loc, args, self.term())
        self.expect("COLONEQ")
        body = self.fold_abs(loc, args, self.term())
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
    maps to the stack of depths that bind it, so a lookup is O(1)."""
    depths: dict[str, list[int]] = {}
    for depth, name in enumerate(reversed(scope)):
        depths.setdefault(name, []).append(depth)
    depth = len(scope)

    def go(t: Term) -> Term:
        if type(t) is Const:
            bound = depths.get(t.name)
            return Var(t.loc, depth - 1 - bound[-1]) if bound else t
        return visit_term(go, under, lambda s, _c: s, t)

    def under(name: str, child: Term) -> Term:
        nonlocal depth
        bound = depths.setdefault(name, [])
        bound.append(depth)
        depth += 1
        child = go(child)
        depth -= 1
        bound.pop()
        return child

    return go(t)


def fix_id(t: Term, scope: tuple[str, ...] | list[str] = ()) -> Term:
    """Replace de Bruijn indices with printable names: the named copy of `t`
    that `show_term` prints, with each binder named by the printer's policy
    (`binder_names`).  A product or `smatch` motive whose bound variable is
    never used gets the name `""`, so `render` need not ask where its name
    occurs."""
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
                kept = leave(chosen, body) or type(t) is Abs  # `fun` always prints its name
                return type(t)(loc, chosen if kept else "", dom, body)
            case Let(loc, name, annot, bound, body):
                chosen = bind(name, body)
                annot, bound = go(annot), go(bound)
                enter(chosen)
                body = go(body)
                leave(chosen, body)
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
                leave(c1, b1)
                enter(c2)
                b2 = go(b2)
                leave(c2, b2)
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
