"""The three environments: global signature, local context, and the
meta-variable environment, which carries the signature it checks against.

Each environment has one entry class per kind, whose value is an optional
field: `None` means declared (an axiom, a local declaration, an unsolved
meta), a term means defined or solved.  A checked constant is one
`ConstInfo`: the elaborators build it and the signature stores it as is.

A local context is an immutable stack (index 0 is the most recent entry);
entry types and bodies are stored relative to their own position, and
`find_var` lifts a type on retrieval.  The essence phase uses the same
stack: its declarations carry `Underscore` as their type and its
definitions bind essences.  The meta-environment is one mutable store per
command, and it knows the command's signature, so the refiner, unifier and
normaliser take the store alone: `fresh_meta` and `instantiate_meta` update
it in place and record what they set on a trail, and the few searches that
backtrack take a `mark` and `undo` to it.
"""

from __future__ import annotations

from typing import Iterator, Union as TyUnion

from proofun.errors import CommandError, InternalError
from proofun.syntax import NOWHERE, Term, Underscore, lift, record, replace


# ---------------------------------------------------------------------------
# Local environment (Gamma)


@record
class Decl:
    """A declaration, or a local definition when `body` is set."""
    name: str
    type: Term
    body: Term | None = None


@record
class LocalEnv:
    entries: tuple[Decl, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def push_decl(self, name: str, type_: Term) -> LocalEnv:
        return LocalEnv((Decl(name, type_),) + self.entries)

    def push_def(self, name: str, body: Term, type_: Term) -> LocalEnv:
        return LocalEnv((Decl(name, type_, body),) + self.entries)

    def find_var(self, index: int) -> Term:
        """Type of the entry at `index`, lifted by index+1 so it is
        well-scoped at the query point."""
        if not 0 <= index < len(self.entries):
            raise InternalError(f"find_var: index {index} out of range")
        return lift(0, index + 1, self.entries[index].type)

    def names(self) -> list[str]:
        """Name hints, innermost first (parallel to de Bruijn indices)."""
        return [e.name for e in self.entries]


# ---------------------------------------------------------------------------
# Global environment (Sigma)


@record
class ConstInfo:
    """A checked constant: an axiom, or a definition when `essence` and
    `body` are set.  Every field is meta-free."""
    type_essence: Term
    type: Term
    essence: Term | None = None
    body: Term | None = None


class GlobalEnv:
    """Ordered signature of fully elaborated constants.

    Entries are immutable and meta-free, and a command only adds entries.
    So a snapshot is the number of entries, and rolling back to it removes
    the entries added since, newest first: both take time in the number of
    entries removed, not in the size of the signature.
    """

    def __init__(self) -> None:
        self._entries: dict[str, ConstInfo] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def lookup(self, name: str) -> ConstInfo | None:
        return self._entries.get(name)

    def add(self, name: str, info: ConstInfo) -> None:
        if name in self._entries:
            raise CommandError(f'the name "{name}" is already defined')
        self._entries[name] = info

    def find_const(self, is_essence: bool, name: str) -> Term | None:
        """The definiens of a constant: its body, or its essence on the
        essence side.  None for an axiom or an unbound name, which delta
        leaves fixed."""
        info = self._entries.get(name)
        if info is None:
            return None
        return info.essence if is_essence else info.body

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, ConstInfo]]:
        return iter(self._entries.items())

    def snapshot(self) -> int:
        """A mark to `rollback` to: the number of entries."""
        return len(self._entries)

    def rollback(self, mark: int) -> None:
        """Remove every entry added since `snapshot()` returned `mark`."""
        while len(self._entries) > mark:
            self._entries.popitem()


# ---------------------------------------------------------------------------
# Meta environment (Phi)


@record
class SortMeta:
    value: Term | None = None


@record
class TypedMeta:
    ctx: LocalEnv
    type: Term
    value: Term | None = None


@record
class EssMeta:
    ctx: LocalEnv
    value: Term | None = None


MetaEntry = TyUnion[SortMeta, TypedMeta, EssMeta]


class MetaEnv:
    """The checking state of one command: the signature `genv` it is
    checked against, the declared and solved meta-variables, the essence
    companions, and a trail of what was set, newest last.  The signature is
    only read; the side (terms or their essences) is an argument of each
    call, not part of the store, since one store serves both phases.

    Ids are handed out in order, so the next fresh id is the number of
    entries, and undoing a fresh meta frees its id.  Instantiation is
    write-once: an entry's `value` is set once and only `undo` unsets it.
    `companions` links a typed meta-variable to the essence meta standing
    for it during the second typing phase.  Each change costs O(1), and
    `undo` costs the number of changes it unsets.
    """

    __slots__ = ("genv", "entries", "companions", "_trail")

    def __init__(self, genv: GlobalEnv) -> None:
        self.genv = genv
        self.entries: dict[int, MetaEntry] = {}
        self.companions: dict[int, int] = {}
        # (table, key, value before): None means the key was absent.
        self._trail: list[tuple[dict, int, MetaEntry | None]] = []

    def lookup(self, mid: int) -> MetaEntry:
        try:
            return self.entries[mid]
        except KeyError:
            raise InternalError(f"unknown meta-variable ?{mid}") from None

    def mark(self) -> int:
        """A point to `undo` to: the length of the trail."""
        return len(self._trail)

    def undo(self, mark: int) -> None:
        """Unset every entry, fresh id and companion set since `mark()`
        returned `mark`, newest first."""
        trail = self._trail
        while len(trail) > mark:
            table, key, before = trail.pop()
            if before is None:
                del table[key]
            else:
                table[key] = before

    def fresh_meta(self, decl: MetaEntry) -> int:
        if decl.value is not None:
            raise InternalError("fresh_meta expects an unsolved entry")
        mid = len(self.entries)
        self.entries[mid] = decl
        self._trail.append((self.entries, mid, None))
        return mid

    def instantiate_meta(self, mid: int, solution: Term) -> None:
        entry = self.lookup(mid)
        if entry.value is not None:
            raise InternalError(f"meta-variable ?{mid} instantiated twice")
        self.entries[mid] = replace(entry, value=solution)
        self._trail.append((self.entries, mid, entry))

    def essence_companion(self, mid: int) -> int:
        """Essence meta standing for the typed meta `mid`, minted on demand
        over a bare copy of the typed meta's context."""
        eid = self.companions.get(mid)
        if eid is None:
            entry = self.lookup(mid)
            if not isinstance(entry, TypedMeta):
                raise InternalError(f"?{mid} has no essence companion")
            psi = LocalEnv(tuple(Decl(e.name, Underscore(NOWHERE))
                                 for e in entry.ctx.entries))
            eid = self.companions[mid] = self.fresh_meta(EssMeta(psi))
            self._trail.append((self.companions, mid, None))
        return eid
