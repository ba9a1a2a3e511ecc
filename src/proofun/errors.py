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


class FuelExhausted(ProverError):
    """A normalization ran out of its step budget (`normalize.DEFAULT_FUEL`
    steps).  A well-typed term can need more, so this is a reported limit
    like the nesting depth (`TOO_DEEP`), not a broken invariant."""


class InternalError(Exception):
    """A broken internal invariant; never raised on well-formed user input.
    Resource limits are `ProverError`s: `FuelExhausted` and `TOO_DEEP`."""


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
