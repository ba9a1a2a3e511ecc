"""Exception hierarchy shared by the whole checker."""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, ParamSpec, TypeVar

if TYPE_CHECKING:
    from proofun.syntax import Location, Term

_P = ParamSpec("_P")
_R = TypeVar("_R")

TOO_DEEP = "the input is nested too deeply to process"


class ProverError(Exception):
    """Base class for user-facing errors; carries a source location."""

    def __init__(self, message: str, loc: "Location | None" = None):
        super().__init__(message)
        self.message = message
        self.loc = loc


class LexError(ProverError):
    pass


class ParseError(ProverError):
    pass


class TypeCheckError(ProverError):
    """Refinement failure: unbound name, mismatch, sort violation, bad coercion."""


class UnificationFailure(ProverError):
    """Rigid-rigid mismatch between two terms; signals a type error upstream."""

    def __init__(self, t1: "Term", t2: "Term", loc: "Location | None" = None):
        super().__init__("terms do not unify", loc)
        self.t1 = t1
        self.t2 = t2


class EssenceMismatch(ProverError):
    """Strong pair or strong sum whose components have incompatible essences."""


class UnresolvedMeta(ProverError):
    """A placeholder survived refinement with no instantiation."""

    def __init__(self, mid: int, loc: "Location | None" = None):
        super().__init__(f"cannot infer a term for the placeholder ?{mid}", loc)
        self.mid = mid


class CommandError(ProverError):
    """REPL-level failure: unknown name, duplicate name, unreadable file."""


class InternalError(Exception):
    """A broken internal invariant; never raised on well-formed user input."""


class FuelExhausted(InternalError):
    """Normalization step budget ran out (ill-typed internal term)."""


def too_deep_as_error(fn: Callable[_P, _R]) -> Callable[_P, _R]:
    """Report a `RecursionError` escaping `fn` as a `ProverError` with no
    location, so a library entry point never leaks one."""

    @functools.wraps(fn)
    def wrapper(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise ProverError(TOO_DEEP) from None

    return wrapper
