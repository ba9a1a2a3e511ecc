"""The three environments: global signature, local context, and the
meta-variable environment.

Each environment has one entry class per kind, whose value is an optional
field: `None` means declared (an axiom, a local declaration, an unsolved
meta), a term means defined or solved.  A checked constant is one
`ConstInfo`: the elaborators build it and the signature stores it as is.

A local context is an immutable stack (index 0 is the most recent entry);
entry types and bodies are stored relative to their own position, and
`find_var` lifts a type on retrieval.  The essence phase uses the same
stack: its declarations carry `Underscore` as their type and its
definitions bind essences.  The meta-environment is a persistent value:
`fresh_meta` and `instantiate_meta` return updated copies, which makes the
force-type probes and REPL backtracking trivial.
"""

from __future__ import annotations

from typing import Iterator, Union as TyUnion

from proofun.errors import CommandError, InternalError
from proofun.syntax import NOWHERE, Term, Underscore, _frozen, lift, record, replace


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
    """Declared and solved meta-variables plus the fresh-id counter.

    Instantiation is write-once: an entry's `value` is set once and never
    changes.  `companions` links a typed meta-variable to the essence meta
    standing for it during the second typing phase.  Frozen; compared by
    identity.
    """

    __slots__ = ("next_id", "entries", "companions")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, next_id: int = 0, entries: dict[int, MetaEntry] | None = None,
                 companions: dict[int, int] | None = None) -> None:
        put = object.__setattr__
        put(self, "next_id", next_id)
        put(self, "entries", {} if entries is None else entries)
        put(self, "companions", {} if companions is None else companions)

    def lookup(self, mid: int) -> MetaEntry:
        try:
            return self.entries[mid]
        except KeyError:
            raise InternalError(f"unknown meta-variable ?{mid}") from None

    def fresh_meta(self, decl: MetaEntry) -> tuple[MetaEnv, int]:
        if decl.value is not None:
            raise InternalError("fresh_meta expects an unsolved entry")
        mid = self.next_id
        entries = dict(self.entries)
        entries[mid] = decl
        return MetaEnv(mid + 1, entries, self.companions), mid

    def instantiate_meta(self, mid: int, solution: Term) -> MetaEnv:
        entry = self.lookup(mid)
        if entry.value is not None:
            raise InternalError(f"meta-variable ?{mid} instantiated twice")
        entries = dict(self.entries)
        entries[mid] = replace(entry, value=solution)
        return MetaEnv(self.next_id, entries, self.companions)

    def essence_companion(self, mid: int) -> tuple[MetaEnv, int]:
        """Essence meta standing for the typed meta `mid`, minted on demand
        over a bare copy of the typed meta's context."""
        if mid in self.companions:
            return self, self.companions[mid]
        entry = self.lookup(mid)
        if not isinstance(entry, TypedMeta):
            raise InternalError(f"?{mid} has no essence companion")
        psi = LocalEnv(tuple(Decl(e.name, Underscore(NOWHERE))
                             for e in entry.ctx.entries))
        phi, eid = self.fresh_meta(EssMeta(psi))
        companions = dict(phi.companions)
        companions[mid] = eid
        return MetaEnv(phi.next_id, phi.entries, companions), eid
