"""The three environments: global signature, local context, and the
meta-variable environment.

A local context is an immutable stack (index 0 is the most recent entry);
entry types and bodies are stored relative to their own position and lifted
on retrieval.  The essence phase uses the same stack: its declarations carry
`Underscore` as their type and its definitions bind essences.  The
meta-environment is a persistent value: `fresh_meta` and `instantiate_meta`
return updated copies, which makes the force-type probes and REPL
backtracking trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union as TyUnion

from proofun.errors import CommandError, InternalError
from proofun.syntax import NOWHERE, Term, Underscore, lift


# ---------------------------------------------------------------------------
# Local environment (Gamma)


@dataclass(frozen=True)
class Decl:
    name: str
    type: Term


@dataclass(frozen=True)
class LocalDef:
    name: str
    body: Term
    type: Term


@dataclass(frozen=True)
class LocalEnv:
    entries: tuple[TyUnion[Decl, LocalDef], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def push_decl(self, name: str, type_: Term) -> LocalEnv:
        return LocalEnv((Decl(name, type_),) + self.entries)

    def push_def(self, name: str, body: Term, type_: Term) -> LocalEnv:
        return LocalEnv((LocalDef(name, body, type_),) + self.entries)

    def push_dummy(self) -> LocalEnv:
        return self.push_decl("", Underscore(NOWHERE))

    def find_var(self, index: int) -> tuple[Term | None, Term]:
        """Type (and body, for a local definition) of the entry at `index`,
        lifted by index+1 so the result is well-scoped at the query point."""
        if not 0 <= index < len(self.entries):
            raise InternalError(f"find_var: index {index} out of range")
        entry = self.entries[index]
        ty = lift(0, index + 1, entry.type)
        if isinstance(entry, LocalDef):
            return lift(0, index + 1, entry.body), ty
        return None, ty

    def names(self) -> list[str]:
        """Name hints, innermost first (parallel to de Bruijn indices)."""
        return [e.name for e in self.entries]


# ---------------------------------------------------------------------------
# Global environment (Sigma)


@dataclass(frozen=True)
class AxiomInfo:
    type_essence: Term
    type: Term


@dataclass(frozen=True)
class DefInfo:
    essence: Term
    body: Term
    type_essence: Term
    type: Term


class GlobalEnv:
    """Ordered signature of fully elaborated constants.

    Entries are immutable and meta-free, and a command only adds entries.
    So a snapshot is the number of entries, and rolling back to it removes
    the entries added since, newest first: both take time in the number of
    entries removed, not in the size of the signature.
    """

    def __init__(self) -> None:
        self._entries: dict[str, AxiomInfo | DefInfo] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def lookup(self, name: str) -> AxiomInfo | DefInfo | None:
        return self._entries.get(name)

    def add_axiom(self, name: str, type_essence: Term, type_: Term) -> None:
        if name in self._entries:
            raise CommandError(f'the name "{name}" is already defined')
        self._entries[name] = AxiomInfo(type_essence, type_)

    def add_definition(self, name: str, essence: Term, body: Term,
                       type_essence: Term, type_: Term) -> None:
        if name in self._entries:
            raise CommandError(f'the name "{name}" is already defined')
        self._entries[name] = DefInfo(essence, body, type_essence, type_)

    def find_const(self, is_essence: bool, name: str) -> tuple[Term | None, Term] | None:
        """(body, type) of a definition — or (essence, type essence) on the
        essence side; axioms answer with no body so delta leaves them fixed."""
        info = self._entries.get(name)
        if info is None:
            return None
        if isinstance(info, AxiomInfo):
            return None, info.type_essence if is_essence else info.type
        if is_essence:
            return info.essence, info.type_essence
        return info.body, info.type

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, AxiomInfo | DefInfo]]:
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


@dataclass(frozen=True)
class SortDecl:
    pass


@dataclass(frozen=True)
class SortDef:
    sort: Term


@dataclass(frozen=True)
class TypedDecl:
    ctx: LocalEnv
    type: Term


@dataclass(frozen=True)
class TypedDef:
    ctx: LocalEnv
    body: Term
    type: Term


@dataclass(frozen=True)
class EssDecl:
    ctx: LocalEnv


@dataclass(frozen=True)
class EssDef:
    ctx: LocalEnv
    essence: Term


MetaEntry = TyUnion[SortDecl, SortDef, TypedDecl, TypedDef, EssDecl, EssDef]


@dataclass(frozen=True, eq=False)
class MetaEnv:
    """Declared and solved meta-variables plus the fresh-id counter.

    Instantiation is write-once: a declaration may become a definition, a
    definition never changes.  `companions` links a typed meta-variable to
    the essence meta standing for it during the second typing phase.
    """

    next_id: int = 0
    entries: dict[int, MetaEntry] = field(default_factory=dict)
    companions: dict[int, int] = field(default_factory=dict)

    def lookup(self, mid: int) -> MetaEntry:
        try:
            return self.entries[mid]
        except KeyError:
            raise InternalError(f"unknown meta-variable ?{mid}") from None

    def fresh_meta(self, decl: MetaEntry) -> tuple[MetaEnv, int]:
        if not isinstance(decl, (SortDecl, TypedDecl, EssDecl)):
            raise InternalError("fresh_meta expects a declaration form")
        mid = self.next_id
        entries = dict(self.entries)
        entries[mid] = decl
        return MetaEnv(mid + 1, entries, self.companions), mid

    def instantiate_meta(self, mid: int, solution: Term) -> MetaEnv:
        entry = self.lookup(mid)
        match entry:
            case SortDecl():
                new: MetaEntry = SortDef(solution)
            case TypedDecl(ctx, ty):
                new = TypedDef(ctx, solution, ty)
            case EssDecl(ctx):
                new = EssDef(ctx, solution)
            case _:
                raise InternalError(f"meta-variable ?{mid} instantiated twice")
        entries = dict(self.entries)
        entries[mid] = new
        return MetaEnv(self.next_id, entries, self.companions)

    def essence_companion(self, mid: int) -> tuple[MetaEnv, int]:
        """Essence meta standing for the typed meta `mid`, minted on demand
        over a bare copy of the typed meta's context."""
        if mid in self.companions:
            return self, self.companions[mid]
        entry = self.lookup(mid)
        if not isinstance(entry, (TypedDecl, TypedDef)):
            raise InternalError(f"?{mid} has no essence companion")
        psi = LocalEnv(tuple(Decl(e.name, Underscore(NOWHERE))
                             for e in entry.ctx.entries))
        phi, eid = self.fresh_meta(EssDecl(psi))
        companions = dict(phi.companions)
        companions[mid] = eid
        return MetaEnv(phi.next_id, phi.entries, companions), eid

    def ids(self) -> list[int]:
        return list(self.entries)

