"""Read-eval-print loop and command-line entry point.

A source command expands to a list of atomic commands which run against a
snapshot of the signature: if any atomic command fails or is interrupted,
the whole list is rolled back and the error reported, so a failed command
never changes the environment.  Loaded files are one command stream in
which every source command is its own atomic unit; a failure aborts the
rest of the file but keeps the earlier successes.  A stream is lexed once
and parsed one source command at a time from its single token list; lexing,
parsing and running share one failure path, so an error or an interruption
at any of them is reported the same way.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import IO

from proofun.env import ConstInfo, GlobalEnv, LocalEnv
from proofun.errors import CommandError, LexError, ParseError, ProverError, TOO_DEEP
from proofun.normalize import strongly_normalize
from proofun.parser import (
    Axiom, Command, Compute, Definition, Help, Load, Print, Printall, Quit,
    UNTERMINATED_COMMENT, tokenize, _Parser,
)
from proofun.pretty import render_error, show_term
from proofun.refine import elaborate, elaborate_type
from proofun.syntax import Location

HELP_TEXT = '''\
Help.                               show this list of commands
Load "file".                        for loading a script file
Axiom term : type.                  define a constant or an axiom
Definition name [: type] := term.   define a term
Print name.                         print the definition of name
Printall.                           print all the signature
                                    (axioms and definitions)
Compute name.                       normalize name and print the result
Quit.                               quit'''

_RED = "\x1b[31m"
_RESET = "\x1b[0m"


class QuitRequested(Exception):
    pass


class Session:
    def __init__(self, quiet: bool = False, color: bool = False,
                 out: IO[str] | None = None, err: IO[str] | None = None) -> None:
        self.genv = GlobalEnv()
        self.quiet, self.color = quiet, color
        self.out, self.err = out, err  # None: current sys.stdout / sys.stderr
        self.loading: set[str] = set()  # real paths of open Loads

    def emit(self, text: str) -> None:
        print(text, file=self.out or sys.stdout)

    def ack(self, text: str) -> None:
        if not self.quiet:
            print(text, file=self.out or sys.stdout)

    def report(self, source_text: str, error: ProverError) -> None:
        rendered = render_error(source_text, error)
        if self.color:
            rendered = f"{_RED}{rendered}{_RESET}"
        print(rendered, file=self.err or sys.stderr)


def exec_command(session: Session, cmd: Command, typed: dict[int, ConstInfo]) -> None:
    """Run one atomic command; prover errors propagate to the caller.
    `typed` maps the `id` of each axiom type the running source command has
    elaborated to its entry; the command keeps those types alive."""
    genv = session.genv
    match cmd:
        case Help():
            session.emit(HELP_TEXT)
        case Quit():
            raise QuitRequested
        case Axiom(loc, name, ty):
            # A group `(a b : T)` gives its names one `T` object.  Once that
            # has elaborated it mentions none of them, so they share its entry.
            if id(ty) not in typed:
                typed[id(ty)] = elaborate_type(genv, ty)
            genv.add(name, typed[id(ty)])
            session.ack(f"{name} is declared.")
        case Definition(loc, name, ty, body):
            genv.add(name, elaborate(genv, body, ty))
            session.ack(f"{name} is defined.")
        case Print(loc, name):
            info = genv.lookup(name)
            if info is None:
                raise CommandError(f'unknown identifier "{name}"', loc)
            session.emit(f"{name} : {show_term(info.type)}")
            if info.body is not None:
                session.emit(f"{name} := {show_term(info.body)}")
        case Printall():
            for name, info in genv.items():
                kind = "Axiom" if info.body is None else "Definition"
                session.emit(f"{kind} {name} : {show_term(info.type)}")
        case Compute(loc, name):
            info = genv.lookup(name)
            if info is None:
                raise CommandError(f'unknown identifier "{name}"', loc)
            if info.body is None:
                session.emit(name)  # axioms are their own normal form
            else:
                nf = strongly_normalize(genv, LocalEnv(), info.body)
                session.emit(show_term(nf))
        case Load(loc, path):
            if not load_file(session, path, loc):
                raise _LoadFailed
        case _:
            raise CommandError("unsupported command", None)


class _LoadFailed(Exception):
    """Internal marker: the file reported its own errors and kept earlier
    successes, so the enclosing command list must not roll back."""


def run_source(session: Session, text: str, source: str = "<input>") -> bool:
    """Run a whole command stream; each source command is atomic.  Returns
    False as soon as one command fails (the remainder is not run).  An
    error with no location of its own (running out of fuel is one), the
    nesting limit and an interruption (Ctrl-C) are reported at the running
    command."""
    mark = loc = None  # the signature before this source command; the running command's place
    try:
        toks = tokenize(text, source)
        if len(toks) > 1 and toks.kinds[-2] != "DOT":  # checked before anything runs
            raise ParseError('expected "." at the end of the command', toks.loc(-2))
        parser = _Parser(toks)
        while not parser.at("EOF"):
            mark, loc, typed = session.genv.snapshot(), None, {}
            for cmd in _parse_chunk(parser):
                loc = cmd.loc
                exec_command(session, cmd, typed)
        return True
    except _LoadFailed:
        return False  # inner file already reported; keep its successes
    except ProverError as error:
        failure = error
    except RecursionError:
        failure = ProverError(TOO_DEEP)
    except KeyboardInterrupt:
        failure = ProverError("interrupted")
    if failure.loc is None:
        failure.loc = loc
    if mark is not None:
        session.genv.rollback(mark)
    session.report(text, failure)
    return False


def load_file(session: Session, path: str, loc: Location | None = None) -> bool:
    """Run the file at `path`.  A `Load` of a file that is still being
    loaded (a cycle) is an error at that `Load`."""
    key = os.path.realpath(path)
    if key in session.loading:
        raise CommandError(f'cyclic Load: "{path}" is already being loaded', loc)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CommandError(f'cannot open "{path}": {exc.strerror}', loc) from None
    session.loading.add(key)
    try:
        return run_source(session, text, source=path)
    finally:
        session.loading.discard(key)


def _parse_chunk(parser: _Parser) -> list[Command]:
    """The atomic commands of the next source command.  A command never
    contains a period and the grammar reads one only to end a command, so
    the parser never reads past the command's own period."""
    return parser.command()


def _incomplete(text: str, source: str) -> bool:
    """True while the buffer's last token is not a command terminator (the
    tail `run_source` checks), or it ends inside a comment that may close on
    a later line."""
    try:
        toks = tokenize(text, source)
    except LexError as error:
        return error.message == UNTERMINATED_COMMENT  # other lex errors: report now
    return len(toks) < 2 or toks.kinds[-2] != "DOT"  # the last token is EOF


def repl(session: Session) -> int:
    show_prompt = sys.stdin.isatty()
    buffer = ""
    while True:
        prompt = ("> " if not buffer else "  ") if show_prompt else ""
        try:
            line = input(prompt)
        except EOFError:  # an unfinished command is reported as a script's would be
            run_source(session, buffer, "<input>")
            return 0
        buffer += line + "\n"
        if _incomplete(buffer, "<input>"):
            continue
        try:
            run_source(session, buffer, "<input>")
        except QuitRequested:
            return 0
        buffer = ""


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: building costs 5x parsing."""
    parser = argparse.ArgumentParser(
        prog="proofun",
        description="Proof checker for a dependent lambda-calculus with "
                    "strong intersection and union types.")
    parser.add_argument("scripts", nargs="*", metavar="script.bull",
                        help="script files to load (non-interactive mode)")
    parser.add_argument("--no-color", action="store_true",
                        help="disable ANSI colors in error output")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress declaration acknowledgements")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    color = sys.stderr.isatty() and not args.no_color
    session = Session(quiet=args.quiet, color=color)
    if args.scripts:
        for path in args.scripts:
            try:
                if not load_file(session, path):
                    return 1
            except ProverError as error:
                session.report("", error)
                return 1
            except QuitRequested:
                return 0
        return 0
    try:
        return repl(session)
    except QuitRequested:
        return 0


if __name__ == "__main__":
    sys.exit(main())
