"""Environments: lookup lifting, meta bookkeeping, signature discipline."""

import random

import pytest

from proofun.env import (
    ConstInfo, Decl, EssMeta, GlobalEnv, LocalEnv, MetaEnv, SortMeta, TypedMeta,
)
from proofun.errors import CommandError, InternalError
from proofun.normalize import delta_phi_expand, whnf
from proofun.syntax import (
    Const, Meta, NOWHERE, Prod, Sort, SortKind, Underscore, Var, free_in, lift,
    sort_type,
)

from helpers import axiom, define, make_test_genv

L = NOWHERE


# ------------- LocalEnv -------------


def test_find_var_decl_lifts_by_one():
    ctx = LocalEnv().push_decl("x", Const(L, "s"))
    assert ctx.find_var(0) == lift(0, 1, Const(L, "s"))


def test_find_var_def_returns_lifted_body():
    # `find_var` gives the type; the head view unfolds the lifted body.
    ctx = LocalEnv().push_decl("y", Const(L, "s")).push_def("x", Var(L, 0), Var(L, 0))
    assert ctx.find_var(0) == Var(L, 1)
    assert whnf(MetaEnv(GlobalEnv()), ctx, Var(L, 0)) == Var(L, 1)


def test_find_var_deeper_entry():
    ctx = LocalEnv().push_decl("x", Const(L, "s")).push_decl("y", Const(L, "t"))
    assert ctx.find_var(1) == Const(L, "s")
    # A type mentioning an earlier variable lifts into scope at the query point.
    ctx2 = LocalEnv().push_decl("x", Const(L, "s")).push_decl("p", Var(L, 0))
    assert ctx2.find_var(0) == Var(L, 1)  # still points at x


def test_find_var_out_of_range_is_internal_error():
    with pytest.raises(InternalError):
        LocalEnv().find_var(0)


def test_find_var_types_are_well_scoped():
    rng = random.Random(31)
    for _ in range(200):
        ctx = LocalEnv()
        depth = rng.randint(1, 6)
        for i in range(depth):
            # type refers to a random earlier variable when one exists
            if i and rng.random() < 0.5:
                ty = Var(L, rng.randrange(i))
            else:
                ty = Const(L, "A")
            ctx = ctx.push_decl(f"v{i}", ty)
        for i in range(depth):
            ty = ctx.find_var(i)
            assert not free_in(len(ctx), ty)
            assert all(not free_in(j, ty) for j in range(len(ctx), len(ctx) + 3))


# ------------- GlobalEnv -------------


def test_find_const_unbound():
    assert GlobalEnv().find_const(False, "nope") is None


def test_find_const_axiom_has_no_body():
    genv = GlobalEnv()
    axiom(genv, "a", "Type")
    assert genv.find_const(False, "a") is None
    ty = genv.lookup("a").type
    assert ty == Sort(ty.loc, SortKind.TYPE)


def test_find_const_definition_essence_side():
    genv = GlobalEnv()
    axiom(genv, "s", "Type")
    define(genv, "id", "fun x : s => x")
    body = genv.find_const(True, "id")
    # The essence of the identity is the untyped identity abstraction.
    from proofun.syntax import Abs, Underscore
    assert isinstance(body, Abs) and isinstance(body.domain, Underscore)
    assert isinstance(genv.lookup("id").type_essence, Prod)


def test_duplicate_names_rejected():
    genv = GlobalEnv()
    axiom(genv, "a", "Type")
    with pytest.raises(CommandError):
        axiom(genv, "a", "Type")


def test_snapshot_isolated_from_later_insertions():
    # A snapshot is a mark: rolling back to it removes exactly the entries
    # added since, and frees their names.
    genv = GlobalEnv()
    axiom(genv, "a", "Type")
    mark = genv.snapshot()
    axiom(genv, "b", "Type")
    define(genv, "c", "b")
    assert genv.names() == ["a", "b", "c"]
    genv.rollback(mark)
    assert genv.names() == ["a"] and "b" not in genv and genv.lookup("c") is None
    genv.rollback(mark)  # nothing left to remove
    assert genv.names() == ["a"]
    axiom(genv, "b", "Type")
    assert genv.names() == ["a", "b"]


# ------------- MetaEnv -------------

_MCTX = LocalEnv().push_decl("x", Const(L, "s"))
# One unsolved entry of each meta kind (sort, typed, essence), with a
# solution of the right kind.  The lifecycle tests run over all three.
_UNSOLVED = [
    (SortMeta(), sort_type()),
    (TypedMeta(_MCTX, Const(L, "s")), Var(L, 0)),
    (EssMeta(_MCTX), Var(L, 0)),
]


def _with_value(entry, value):
    """`entry` with its `value` field (the last one of each kind) set."""
    kept = {SortMeta: (), TypedMeta: ("ctx", "type"), EssMeta: ("ctx",)}[type(entry)]
    return type(entry)(*(getattr(entry, name) for name in kept), value)


def test_fresh_ids_are_consecutive_and_entries_kept():
    phi = MetaEnv(GlobalEnv())
    a, b = phi.fresh_meta(SortMeta()), phi.fresh_meta(SortMeta())
    assert (a, b) == (0, 1)
    assert phi.lookup(a) == SortMeta()


def test_fresh_typed_decl_retrievable():
    ctx = LocalEnv().push_decl("x", Const(L, "s"))
    phi = MetaEnv(GlobalEnv())
    entry = phi.lookup(phi.fresh_meta(TypedMeta(ctx, Const(L, "s"))))
    assert entry.ctx == ctx and entry.type == Const(L, "s") and entry.value is None


def test_instantiate_then_lookup():
    # Instantiation sets the value and keeps everything else of the entry.
    for unsolved, solution in _UNSOLVED:
        phi = MetaEnv(GlobalEnv())
        mid = phi.fresh_meta(unsolved)
        phi.instantiate_meta(mid, solution)
        solved = phi.lookup(mid)
        assert type(solved) is type(unsolved) and solved.value is solution
        assert _with_value(solved, None) == unsolved
        if not isinstance(unsolved, SortMeta):
            assert solved.ctx is unsolved.ctx
        if isinstance(unsolved, TypedMeta):
            assert solved.type is unsolved.type


def test_instantiate_does_not_disturb_others():
    for unsolved, solution in _UNSOLVED:
        phi = MetaEnv(GlobalEnv())
        a, b = phi.fresh_meta(unsolved), phi.fresh_meta(unsolved)
        phi.instantiate_meta(a, solution)
        assert phi.lookup(b) == unsolved


def test_double_instantiation_is_internal_error():
    for unsolved, solution in _UNSOLVED:
        phi = MetaEnv(GlobalEnv())
        mid = phi.fresh_meta(unsolved)
        phi.instantiate_meta(mid, solution)
        with pytest.raises(InternalError):
            phi.instantiate_meta(mid, solution)


def test_fresh_meta_of_a_solved_entry_is_internal_error():
    for unsolved, solution in _UNSOLVED:
        with pytest.raises(InternalError):
            MetaEnv(GlobalEnv()).fresh_meta(_with_value(unsolved, solution))


def test_sort_meta_delta_reduction():
    phi = MetaEnv(GlobalEnv())
    mid = phi.fresh_meta(SortMeta())
    phi.instantiate_meta(mid, sort_type())
    assert delta_phi_expand(phi, Meta(L, mid, ())) == sort_type()


def test_essence_companion_is_stable():
    with_def = _MCTX.push_def("d", Var(L, 0), Const(L, "s"))
    for ctx in (_MCTX, with_def):
        phi = MetaEnv(GlobalEnv())
        mid = phi.fresh_meta(TypedMeta(ctx, Const(L, "s")))
        e1, e2 = phi.essence_companion(mid), phi.essence_companion(mid)
        assert e1 == e2
        companion = phi.lookup(e1)
        assert isinstance(companion, EssMeta) and companion.value is None
        assert len(companion.ctx) == len(ctx)
        # The companion's context is the typed one with every type erased
        # and every local definition's body dropped.
        assert companion.ctx.names() == ctx.names()
        assert all(isinstance(e.type, Underscore) and e.body is None
                   for e in companion.ctx.entries)


def test_replaying_corpus_preserves_prefix_typing():
    # Every inserted entry elaborated against the signature prefix before it;
    # replaying the same definitions in order must succeed from scratch.
    genv = make_test_genv()
    define(genv, "twice", "fun u : A => f (f u)")
    define(genv, "pick", "fun u : A => h u (g u)")
    replay = GlobalEnv()
    for name, info in genv.items():
        from proofun.refine import elaborate
        if info.body is None:
            replay.add(name, info)
        else:
            replay.add(name, elaborate(replay, info.body, info.type))
    assert replay.names() == genv.names()


# ------------- records -------------

_AT = "Location(source='<input>', start=(0, 0), end=(0, 0))"


def test_entry_reprs_list_every_field_in_order():
    s, v = f"Const(loc={_AT}, name='s')", f"Var(loc={_AT}, index=0)"
    x = f"Decl(name='x', type={s}, body=None)"
    assert repr(Decl("x", Const(L, "s"))) == x
    ctx = LocalEnv().push_decl("x", Const(L, "s")).push_def("y", Var(L, 0), Const(L, "s"))
    assert repr(ctx) == f"LocalEnv(entries=(Decl(name='y', type={s}, body={v}), {x}))"
    assert (repr(ConstInfo(Const(L, "s"), Const(L, "s")))
            == f"ConstInfo(type_essence={s}, type={s}, essence=None, body=None)")
    assert (repr(TypedMeta(LocalEnv(), sort_type()))
            == f"TypedMeta(ctx=LocalEnv(entries=()), type=Sort(loc={_AT}, "
               f"kind=<SortKind.TYPE: 'Type'>), value=None)")
    assert (repr(SortMeta(Sort(L, SortKind.KIND)))
            == f"SortMeta(value=Sort(loc={_AT}, kind=<SortKind.KIND: 'Kind'>))")


def test_entries_are_frozen():
    for record, name in [(Decl("x", Const(L, "s")), "body"), (LocalEnv(), "entries"),
                         (ConstInfo(Const(L, "s"), Const(L, "s")), "body"),
                         *((u, "value") for u, _ in _UNSOLVED)]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, Const(L, "t"))
        assert getattr(record, name) is before


def test_meta_environments_share_no_dict():
    a, b = MetaEnv(GlobalEnv()), MetaEnv(GlobalEnv())
    assert a.entries is not b.entries and a.companions is not b.companions
    assert a.entries == b.entries == {} and a.companions == b.companions == {}


def _state(phi):
    return len(phi.entries), dict(phi.entries), dict(phi.companions)


def test_undo_restores_fresh_ids_entries_and_companions_across_nested_marks():
    phi = MetaEnv(GlobalEnv())
    typed = phi.fresh_meta(TypedMeta(_MCTX, Const(L, "s")))
    outer, at_outer = phi.mark(), _state(phi)
    phi.instantiate_meta(phi.fresh_meta(SortMeta()), sort_type())
    eid = phi.essence_companion(typed)
    inner, at_inner = phi.mark(), _state(phi)
    phi.instantiate_meta(eid, Var(L, 0))
    phi.instantiate_meta(typed, Var(L, 0))
    phi.fresh_meta(EssMeta(_MCTX))
    phi.undo(inner)
    assert _state(phi) == at_inner and phi.mark() == inner
    phi.undo(outer)
    assert _state(phi) == at_outer and phi.mark() == outer
    # The ids undone are handed out again, in the same order, and a
    # companion is minted anew.
    assert phi.fresh_meta(SortMeta()) == 1
    assert phi.essence_companion(typed) == 2 and phi.companions == {typed: 2}


def test_solving_stays_write_once_under_the_trail():
    for unsolved, solution in _UNSOLVED:
        phi = MetaEnv(GlobalEnv())
        mid = phi.fresh_meta(unsolved)
        phi.instantiate_meta(mid, solution)
        mark = phi.mark()
        other = phi.fresh_meta(unsolved)
        phi.instantiate_meta(other, solution)
        phi.undo(mark)
        # An undo to a mark after the solution leaves it solved.
        with pytest.raises(InternalError):
            phi.instantiate_meta(mid, solution)
        assert phi.lookup(mid).value is solution and len(phi.entries) == 1
