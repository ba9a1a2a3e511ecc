"""Unification: structural rules, eta, pattern unification with pruning,
laziness, the suite-wide soundness harness, and a differential against the
eager reference unifier."""

import io
import itertools
import random

import pytest

from proofun import normalize, refine
from proofun.env import Decl, GlobalEnv, LocalEnv, MetaEnv, SortMeta, TypedMeta
from proofun.errors import UnificationFailure
from proofun.normalize import normalize_meta, strongly_normalize, zonk
from proofun.syntax import (
    Abs, App, Const, Meta, NOWHERE, Sort, Term, Underscore, Var,
    erase_context, mk_app, sort_kind, sort_type, visit_term,
)
from proofun.repl import Session, load_file, run_source
from proofun.unify import try_hopu, unify, unify_essence

from helpers import (
    CORPUS_FILES, P, corpus_path, define, make_test_genv, random_refined_term,
    push_dummy, reference_unify, snapshot, unify_outcome,
)

L = NOWHERE
GENV = make_test_genv()
CTX = LocalEnv()


def assert_monotone(before: dict, after: MetaEnv) -> None:
    """Declared entries (`before`, a copy of an earlier store's) are never
    removed and definitions never change."""
    for mid, entry in before.items():
        assert mid in after.entries
        if isinstance(entry, TypedMeta) and entry.value is not None:
            assert after.entries[mid] == entry


def assert_sound(phi: MetaEnv, ctx, t1: Term, t2: Term) -> None:
    """After a successful unification, expanding the instantiations and
    normalizing yields alpha-equal terms."""
    n1 = strongly_normalize(phi.genv, ctx, zonk(phi, t1))
    n2 = strongly_normalize(phi.genv, ctx, zonk(phi, t2))
    assert n1 == n2


# ------------- identity and congruence rules -------------


def test_sorts_unify_when_equal():
    phi = MetaEnv(GENV)
    unify(phi, CTX, sort_type(), sort_type())
    assert phi.mark() == 0
    with pytest.raises(UnificationFailure):
        unify(phi, CTX, sort_type(), sort_kind())


def test_distinct_constants_fail():
    with pytest.raises(UnificationFailure):
        unify(MetaEnv(GENV), CTX, P("a"), P("b"))


def test_congruence_on_intersection():
    phi = MetaEnv(GENV)
    unify(phi, CTX, P("A & B"), P("A & B"))
    assert phi.entries == {}


def test_stuck_matches_unify_part_by_part_under_their_binders():
    # Both sides are a stuck `smatch`, one with a hole in its second branch:
    # the parts unify in order, each branch under its own binder, so the hole
    # is solved under `y : B`.
    session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(session, "Axiom (A B C : Type) (P : C -> Type) (h : (A -> C) & (B -> C)).")
    assert run_source(session, (
        "Definition d (z : A | B) (p : P (smatch z with x => proj_l h x, y => proj_r h y end))"
        " : P (smatch z with x => proj_l h x, y => _ end) := p.")), session.err.getvalue()
    assert run_source(session, "Print d.")
    match = "smatch z return C with x : A => proj_l h x, y : B => proj_r h y end"
    assert session.out.getvalue() == (f"d : forall z : A | B, P {match} -> P {match}\n"
                                      f"d := fun z : A | B => fun p : P {match} => p\n")


def test_eta_left_against_rigid_head_fails_on_var_app_mismatch():
    # unify (fun x : A => x) with the axiom f : A -> A proceeds via eta to
    # x =? f x, a rigid mismatch.
    with pytest.raises(UnificationFailure):
        unify(MetaEnv(GENV), CTX, P("fun x : A => x"), P("f"))


def test_eta_succeeds_when_expansion_matches():
    phi = MetaEnv(GENV)
    unify(phi, CTX, P("fun x : A => f x"), P("f"))
    assert_sound(phi, CTX, P("fun x : A => f x"), P("f"))


def test_abs_congruence_under_binder():
    t1 = P("fun x : A => h x (g x)")
    t2 = P("fun y : A => h y (g y)")
    phi = MetaEnv(GENV)
    unify(phi, CTX, t1, t2)
    assert phi.entries == {}


# ------------- laziness -------------


def test_rigid_heads_are_compared_before_arguments_are_reduced():
    # The arguments have no normal form; distinct axiom heads decide alone.
    omega = "((fun (x : A) => x x) (fun (x : A) => x x))"
    with pytest.raises(UnificationFailure):
        unify(MetaEnv(GENV), CTX, P(f"f {omega}"), P(f"g {omega}"))


def test_equal_terms_are_not_reduced(monkeypatch):
    genv = make_test_genv()
    define(genv, "twice", "fun (x : A) => f (f x)")
    steps = []
    for name in ("_nf", "_eval"):
        original = getattr(normalize, name)
        monkeypatch.setattr(normalize, name, lambda *args, _f=original, _n=name:
                            steps.append(_n) or _f(*args))
    phi = MetaEnv(genv)
    unify(phi, CTX, P("twice (twice a)"), P("twice (twice a)"))
    assert steps == [] and phi.mark() == 0
    unify(phi, CTX, P("twice a"), P("f (f a)"))
    assert steps  # the counter does see reductions


# ------------- pattern unification -------------


def _typed_meta(phi, ctx, ty=None):
    ty = ty if ty is not None else Const(L, "A")
    return Meta(L, phi.fresh_meta(TypedMeta(ctx, ty)), erase_context(len(ctx)))


def test_empty_pattern_solves_to_constant():
    phi = MetaEnv(GENV)
    m = _typed_meta(phi, CTX)
    unify(phi, CTX, m, P("a"))
    assert zonk(phi, m) == P("a")


def test_projection_pattern():
    ctx = CTX.push_decl("y", Const(L, "A"))
    phi = MetaEnv(GENV)
    m = _typed_meta(phi, ctx)
    unify(phi, ctx, m, Var(L, 0))
    entry = phi.lookup(m.mid)
    assert isinstance(entry, TypedMeta) and entry.value == Var(L, 0)


def test_hopu_worked_example_permutes_de_bruijn_indices():
    # ?f y x z  =?=  x c y   creates   ?f := fun y => fun x => fun z => x c y
    genv = GlobalEnv()
    from helpers import axiom
    axiom(genv, "s1", "Type")
    axiom(genv, "s2", "Type")
    axiom(genv, "s3", "Type")
    axiom(genv, "s4", "Type")
    axiom(genv, "c", "s1")
    ctx = (LocalEnv().push_decl("x", Const(L, "s1"))
           .push_decl("y", Const(L, "s2")).push_decl("z", Const(L, "s3")))
    x, y, z = Var(L, 2), Var(L, 1), Var(L, 0)
    meta_ctx = (LocalEnv().push_decl("y", Const(L, "s2"))
                .push_decl("x", Const(L, "s1")).push_decl("z", Const(L, "s3")))
    phi = MetaEnv(genv)
    fid = phi.fresh_meta(TypedMeta(meta_ctx, Const(L, "s4")))
    problem_lhs = Meta(L, fid, (y, x, z))
    rhs = mk_app(L, x, (Const(L, "c"), y))
    unify(phi, ctx, problem_lhs, rhs)
    solution = phi.lookup(fid).value
    # In the declared context (y, x, z) the solution reads x c y.
    assert solution == mk_app(L, Var(L, 1), (Const(L, "c"), Var(L, 2)))
    # Presented as an abstraction over that context, binder order follows
    # the suspension.
    lam = solution
    for name, ty in [("z", "s3"), ("x", "s1"), ("y", "s2")]:
        lam = Abs(L, name, Const(L, name.replace("z", "s3") if False else ty), lam)
    expected = P("fun y : s2 => fun x : s1 => fun z : s3 => x c y")
    assert lam == expected
    assert_sound(phi, ctx, problem_lhs, rhs)


def test_occurs_check_is_hard_failure():
    phi = MetaEnv(GENV)
    m = _typed_meta(phi, CTX)
    rhs = mk_app(L, Const(L, "f"), (m,))
    with pytest.raises(UnificationFailure):
        unify(phi, CTX, m, rhs)


_WITH_X = CTX.push_decl("x", Const(L, "A"))


@pytest.mark.parametrize("ctx, entry", [
    (_WITH_X, mk_app(L, P("fun (z : A) => z"), (Var(L, 0),))),
    (_WITH_X.push_def("y", Var(L, 0), Const(L, "A")), Var(L, 0)),
], ids=["beta_redex", "let_bound_alias"])
def test_suspension_entries_are_normalized_before_inversion(ctx, entry):
    # The suspension holds a redex that reduces to x; only the variable x
    # can be inverted.
    phi = MetaEnv(GENV)
    mid = phi.fresh_meta(TypedMeta(_WITH_X, Const(L, "A")))
    x = Var(L, len(ctx) - 1)
    unify(phi, ctx, Meta(L, mid, (entry,)), mk_app(L, P("f"), (x,)))
    assert phi.lookup(mid).value == mk_app(L, P("f"), (Var(L, 0),))


def test_one_meta_with_convertible_suspensions_unifies_with_itself():
    # The entries `f ((fun z => z) x)` and `f x` are not variables, so neither
    # side inverts, and each side mentions the meta: only comparing the two
    # metas' normal forms solves the problem.
    phi = MetaEnv(GENV)
    mid = phi.fresh_meta(TypedMeta(_WITH_X, Const(L, "A")))
    x = Var(L, 0)
    redex = mk_app(L, P("f"), (mk_app(L, P("fun (z : A) => z"), (x,)),))
    same = Meta(L, mid, (redex,)), Meta(L, mid, (mk_app(L, P("f"), (x,)),))
    unify(phi, _WITH_X, *same)
    unify(phi, _WITH_X, *reversed(same))
    assert phi.mark() == 1  # the fresh meta only: nothing was solved
    other = Meta(L, mid, (mk_app(L, P("g"), (x,)),))
    for lhs, rhs in [(same[0], other), (other, same[1])]:
        with pytest.raises(UnificationFailure):
            unify(phi, _WITH_X, lhs, rhs)


def test_rigid_free_variable_outside_pattern_fails():
    ctx = CTX.push_decl("u", Const(L, "A"))
    phi = MetaEnv(GENV)
    mid = phi.fresh_meta(TypedMeta(CTX, Const(L, "A")))
    closed_meta = Meta(L, mid, ())  # suspension does not cover u
    with pytest.raises(UnificationFailure):
        unify(phi, ctx, closed_meta, Var(L, 0))


def test_duplicate_suspension_variables_are_ambiguous():
    ctx = CTX.push_decl("u", Const(L, "A"))
    two = LocalEnv().push_decl("p", Const(L, "A")).push_decl("q", Const(L, "A"))
    phi = MetaEnv(GENV)
    mid = phi.fresh_meta(TypedMeta(two, Const(L, "A")))
    doubled = Meta(L, mid, (Var(L, 0), Var(L, 0)))
    with pytest.raises(UnificationFailure):
        unify(phi, ctx, doubled, Var(L, 0))
    # but a right-hand side that ignores the duplicate solves fine
    unify(phi, ctx, doubled, Const(L, "a"))
    assert zonk(phi, doubled) == Const(L, "a")
    # A third occurrence keeps the variable ambiguous.
    three = two.push_decl("r", Const(L, "A"))
    mid = phi.fresh_meta(TypedMeta(three, Const(L, "A")))
    tripled = Meta(L, mid, (Var(L, 0), Var(L, 0), Var(L, 0)))
    with pytest.raises(UnificationFailure):
        unify(phi, ctx, tripled, Var(L, 0))


def test_pruning_restricts_meta_to_shared_variables():
    # ?m[u] =?= g' applied over [u; w]-suspended meta: w must be pruned away.
    ctx = CTX.push_decl("u", Const(L, "A")).push_decl("w", Const(L, "A"))
    narrow_ctx = LocalEnv().push_decl("u", Const(L, "A"))
    phi = MetaEnv(GENV)
    narrow = phi.fresh_meta(TypedMeta(narrow_ctx, Const(L, "A")))
    wide = phi.fresh_meta(TypedMeta(ctx, Const(L, "A")))
    lhs = Meta(L, narrow, (Var(L, 1),))       # ?narrow[u]
    rhs = Meta(L, wide, erase_context(2))     # ?wide[u; w]
    before = dict(phi.entries)
    unify(phi, ctx, lhs, rhs)
    assert_monotone(before, phi)
    # Instantiating the pruned result makes both sides equal.
    n1 = normalize_meta(phi, ctx, lhs)
    n2 = normalize_meta(phi, ctx, rhs)
    assert n1 == n2


def test_pruning_an_essence_meta_keeps_it_an_essence_meta():
    # The essence-side twin: ?narrow[x] =?= ?wide[x; y] over bare binders.
    from proofun.env import EssMeta
    psi = LocalEnv().push_decl("x", Underscore(L)).push_decl("y", Underscore(L))
    narrow_psi = LocalEnv().push_decl("x", Underscore(L))
    phi = MetaEnv(GENV)
    narrow = phi.fresh_meta(EssMeta(narrow_psi))
    wide = phi.fresh_meta(EssMeta(psi))
    unify_essence(phi, psi, Meta(L, narrow, (Var(L, 1),)),
                  Meta(L, wide, erase_context(2)))
    pruned = phi.lookup(wide)
    assert isinstance(pruned, EssMeta) and isinstance(pruned.value, Meta)
    fresh = phi.lookup(pruned.value.mid)
    assert isinstance(fresh, EssMeta) and fresh.value is None
    assert fresh.ctx.names() == ["x"]


def test_pruning_is_refused_when_a_kept_entry_depends_on_a_dropped_one():
    # ?m[y] =?= g ?n[x; y] over (x : A) (y : P x): x must be pruned from ?n,
    # but y's type mentions x, so no restriction of ?n exists.
    genv = make_test_genv()
    from helpers import axiom
    axiom(genv, "P", "A -> Type")
    ctx = CTX.push_decl("x", Const(L, "A")).push_decl("y", mk_app(L, P("P"), (Var(L, 0),)))
    phi = MetaEnv(genv)
    n = phi.fresh_meta(TypedMeta(ctx, Const(L, "A")))
    m = phi.fresh_meta(TypedMeta(LocalEnv().push_decl("y", Const(L, "B")),
                                 Const(L, "B")))
    lhs = Meta(L, m, (Var(L, 0),))
    rhs = mk_app(L, P("g"), (Meta(L, n, erase_context(2)),))
    before = snapshot(phi)
    assert try_hopu(phi, ctx, lhs, rhs) is None
    assert snapshot(phi) == before
    with pytest.raises(UnificationFailure):
        unify(phi, ctx, lhs, rhs)


def test_a_pattern_problem_that_fails_after_pruning_undoes_the_pruning():
    # ?m[x] =?= h ?n[x; y] y over (x : A) (y : A): ?n is pruned to ?n'[x]
    # first, then `y` cannot be inverted; the store is given back unchanged.
    ctx = CTX.push_decl("x", Const(L, "A")).push_decl("y", Const(L, "A"))
    phi = MetaEnv(GENV)
    n = phi.fresh_meta(TypedMeta(ctx, Const(L, "A")))
    m = phi.fresh_meta(TypedMeta(CTX.push_decl("x", Const(L, "A")), Const(L, "A")))
    lhs = Meta(L, m, (Var(L, 1),))
    rhs = mk_app(L, P("h"), (Meta(L, n, erase_context(2)), Var(L, 0)))
    before = snapshot(phi)
    assert try_hopu(phi, ctx, lhs, rhs) is None
    assert snapshot(phi) == before and phi.mark() == 2


def test_pruning_keeps_a_local_definition_and_re_indexes_its_body():
    # ?m[x; d] =?= f ?n[x; w; d; y] over (x : A) (w : B) (d : A := f x) (y : A):
    # w and y are pruned from ?n, and the kept definition d's body is
    # re-indexed over the kept entries (x moves from index 1 to index 0).
    genv = make_test_genv()
    from helpers import axiom
    axiom(genv, "Q", "A -> Type")
    A, f = Const(L, "A"), P("f")
    ctx = (CTX.push_decl("x", A).push_decl("w", Const(L, "B"))
           .push_def("d", mk_app(L, f, (Var(L, 1),)), A).push_decl("y", A))
    phi = MetaEnv(genv)
    n = phi.fresh_meta(TypedMeta(ctx, mk_app(L, P("Q"), (Var(L, 1),))))
    m_ctx = LocalEnv().push_decl("x", A).push_def("d", mk_app(L, f, (Var(L, 0),)), A)
    m = phi.fresh_meta(TypedMeta(m_ctx, A))
    lhs = Meta(L, m, (Var(L, 3), Var(L, 1)))
    rhs = mk_app(L, f, (Meta(L, n, erase_context(4)),))
    solution = try_hopu(phi, ctx, lhs, rhs)
    assert solution is not None and len(phi.entries) == 3
    fresh = phi.lookup(2)
    assert isinstance(fresh, TypedMeta) and fresh.value is None
    assert fresh.ctx.entries == (Decl("d", A, mk_app(L, f, (Var(L, 0),))), Decl("x", A))
    assert fresh.type == mk_app(L, P("Q"), (Var(L, 0),))
    assert phi.lookup(n).value == Meta(L, 2, (Var(L, 3), Var(L, 1)))
    assert phi.lookup(m).value is solution and solution == mk_app(
        L, f, (Meta(L, 2, (Var(L, 1), mk_app(L, f, (Var(L, 1),)))),))


def test_sort_meta_takes_sorts_only():
    phi = MetaEnv(GENV)
    m = Meta(L, phi.fresh_meta(SortMeta()), ())
    mark = phi.mark()
    unify(phi, CTX, m, sort_kind())
    assert zonk(phi, m) == sort_kind()
    phi.undo(mark)
    with pytest.raises(UnificationFailure):
        unify(phi, CTX, m, P("a"))


def test_flex_rigid_through_solved_metas():
    phi = MetaEnv(GENV)
    m1, m2 = _typed_meta(phi, CTX), _typed_meta(phi, CTX)
    unify(phi, CTX, m1, m2)          # link the two metas
    unify(phi, CTX, m1, P("f a"))    # solve through the link
    assert zonk(phi, m2) == P("f a")


@pytest.mark.parametrize("ty, wrapper, rhs, solution", [
    ("A -> A", "fun (q : A -> A) (x : A) => q x",
     "fun (y : A) => h y b", "fun y : A => h y b"),
    ("A -> B -> A", "fun (q : A -> B -> A) (x : A) (y : B) => q x y",
     "fun (u : A) (v : B) => h (f u) v", "fun u : A => h (f u)"),
    ("A -> A", "fun (q : A -> A) (x : A) => q ((fun (z : A) => z) x)",
     "fun (y : A) => h y b", "fun y : A => h y b"),
    ("(A -> A) -> A -> A",
     "fun (q : (A -> A) -> A -> A) (x : A -> A) => q (fun (y : A) => x y)",
     "fun (u : A -> A) (z : A) => f (u z)", "fun (u : A -> A) (z : A) => f (u z)"),
], ids=["one_binder", "two_binders", "variable_after_reduction",
        "eta_expanded_variable"])
def test_eta_expanded_meta_is_flexible(ty, wrapper, rhs, solution):
    # `fun x => ?m x` is the meta itself: it takes the whole other side
    # instead of being matched against its body head by head.
    phi = MetaEnv(GENV)
    m = _typed_meta(phi, CTX, P(ty))
    lhs = mk_app(L, P(wrapper), (m,))
    unify(phi, CTX, lhs, P(rhs))
    assert normalize_meta(phi, CTX, m) == P(solution)
    assert_sound(phi, CTX, lhs, P(rhs))


@pytest.mark.parametrize("script", [
    """Axiom (A : Type) (f g : A -> A) (P : (A -> A) -> Type)
             (p : P (fun (y : A) => f (g y))).
       Definition d : P ((fun (q : A -> A) (x : A) => q x) _) := p.""",
    # The hole's argument `fun y => x y` is the variable `x` only up to eta.
    """Axiom (A : Type) (f : A -> A) (P : ((A -> A) -> A -> A) -> Type)
             (p : P (fun (u : A -> A) (z : A) => f (u z))).
       Definition d : P ((fun (q : (A -> A) -> A -> A) (x : A -> A) =>
                          q (fun (y : A) => x y)) _) := p.""",
], ids=["one_binder", "eta_expanded_variable"])
def test_eta_expanded_hole_is_solved_in_a_definition(script):
    session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(session, script), session.err.getvalue()


# ------------- HOPU most-generality on small pattern problems -------------


def _enumerate_bodies(n_vars: int, size: int):
    """All candidate solution bodies over `n_vars` context variables, the
    constant c, and applications, up to `size` nodes."""
    leaves = [Var(L, i) for i in range(n_vars)] + [Const(L, "c")]
    if size <= 1:
        yield from leaves
        return
    yield from _enumerate_bodies(n_vars, size - 1)
    for head_size in range(1, size):
        for head in _enumerate_bodies(n_vars, 1):
            for arg in _enumerate_bodies(n_vars, size - 1 - head_size):
                if head_size == 1:
                    yield mk_app(L, head, (arg,))


def test_hopu_solution_is_the_unique_pattern_solution():
    genv = GlobalEnv()
    from helpers import axiom
    axiom(genv, "S", "Type")
    axiom(genv, "c", "S")
    rng = random.Random(47)
    ty = Const(L, "S")
    for n_vars in (1, 2, 3):
        meta_ctx = LocalEnv()
        for i in range(n_vars):
            meta_ctx = meta_ctx.push_decl(f"w{i}", ty)
        ctx = LocalEnv()
        for i in range(n_vars):
            ctx = ctx.push_decl(f"v{i}", ty)
        perms = list(itertools.permutations(range(n_vars)))
        bodies = [b for b in _enumerate_bodies(n_vars, 5)]
        for perm in perms:
            susp = tuple(Var(L, j) for j in perm)
            for rhs_body in rng.sample(bodies, min(25, len(bodies))):
                phi = MetaEnv(genv)
                mid = phi.fresh_meta(TypedMeta(meta_ctx, ty))
                problem = Meta(L, mid, susp)
                solution = try_hopu(phi, ctx, problem, rhs_body)
                assert solution is not None and phi.lookup(mid).value is solution
                # brute force: the solution is the unique body (modulo
                # alpha) whose expansion through the suspension is the rhs
                from proofun.syntax import msubst
                matches = [cand for cand in bodies
                           if msubst(cand, susp) == rhs_body]
                assert matches
                assert all(m == matches[0] for m in matches)
                assert solution == matches[0]


# ------------- random suites -------------


def test_idempotent_trigger_on_random_normal_terms():
    rng = random.Random(53)
    count = 0
    while count < 1000:
        t, _ty = random_refined_term(rng)
        t = strongly_normalize(GENV, CTX, t)
        phi = MetaEnv(GENV)
        unify(phi, CTX, t, t)
        assert phi.entries == {}
        count += 1


def test_symmetry_of_outcome_on_random_pairs():
    rng = random.Random(59)
    agreements = 0
    for _ in range(300):
        t1, _ = random_refined_term(rng)
        t2, _ = random_refined_term(rng)
        def attempt(a, b):
            try:
                unify(MetaEnv(GENV), CTX, a, b)
                return True
            except UnificationFailure:
                return False
        assert attempt(t1, t2) == attempt(t2, t1)
        agreements += 1
    assert agreements == 300


def test_unify_essence_normalizes_local_definitions():
    # let-bound essences differ as variables but agree after delta-psi.
    psi = (LocalEnv().push_def("id1", P("fun x => x"), Underscore(L))
           .push_def("id2", P("fun x => x"), Underscore(L)))
    phi = MetaEnv(GENV)
    unify_essence(phi, psi, Var(L, 1), Var(L, 0))
    assert phi.entries == {}


def test_unify_essence_rejects_different_shapes():
    with pytest.raises(UnificationFailure):
        unify_essence(MetaEnv(GENV), LocalEnv(),
                      P("fun x => x"), P("fun x => fun y => y"))


def test_a_leaf_mismatch_900_applications_deep_is_a_unification_failure():
    # `_unify_heads` calls itself once per nesting level, so two spines
    # that differ only at the leaf are compared down to it.
    t1, t2 = Const(L, "a"), Const(L, "b")
    for _ in range(900):
        t1, t2 = App(L, Const(L, "f"), (t1,)), App(L, Const(L, "f"), (t2,))
    try:
        unify(MetaEnv(GlobalEnv()), LocalEnv(), t1, t2)
        outcome = None
    except UnificationFailure as failure:
        outcome = (failure.t1, failure.t2)
    except RecursionError:  # kept out of pytest, whose report of it is very slow
        outcome = "RecursionError"
    assert outcome == (Const(L, "a"), Const(L, "b"))


def test_monotonicity_across_calls():
    rng = random.Random(61)
    for _ in range(100):
        phi = MetaEnv(GENV)
        m = _typed_meta(phi, CTX)
        t, _ = random_refined_term(rng)
        t = strongly_normalize(GENV, CTX, t)
        before = dict(phi.entries)
        try:
            unify(phi, CTX, m, t)
        except UnificationFailure:
            continue
        assert_monotone(before, phi)
        assert_sound(phi, CTX, m, t)


def test_essence_meta_absorbs_an_abstraction():
    from proofun.env import EssMeta
    phi = MetaEnv(GENV)
    m = Meta(L, phi.fresh_meta(EssMeta(LocalEnv())), ())
    unify_essence(phi, LocalEnv(), m, P("fun x => x"))
    solved = normalize_meta(phi, LocalEnv(), m, is_essence=True)
    assert solved == P("fun x => x")


# ------------- differential against the eager reference unifier -------------


def _assert_agrees(phi, ctx, t1, t2, is_essence=False):
    lazy = unify_outcome(unify, phi, ctx, t1, t2, is_essence)
    eager = unify_outcome(reference_unify, phi, ctx, t1, t2, is_essence)
    assert lazy == eager, (t1, t2)


def test_agrees_with_reference_unifier_on_corpus_calls(monkeypatch):
    # Every problem the refiner poses while checking the corpus, compared
    # when it is posed (the signature grows afterwards).
    calls = []

    def recording_unify(phi, ctx, t1, t2, is_essence=False):
        calls.append((t1, t2))
        _assert_agrees(phi, ctx, t1, t2, is_essence)
        unify(phi, ctx, t1, t2, is_essence)

    monkeypatch.setattr(refine, "unify", recording_unify)
    monkeypatch.setattr(refine, "unify_essence", lambda phi, psi, m1, m2:
                        recording_unify(phi, psi, m1, m2, True))
    for name in CORPUS_FILES:
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(session, corpus_path(name)), session.err.getvalue()
    # Sorts are read off synthesised types, not unified, so the floor counts
    # only the problems with a `Sort` node on neither side (300 of them).
    assert sum(not isinstance(t1, Sort) and not isinstance(t2, Sort)
               for t1, t2 in calls) > 250


# Applied to a meta, these reduce to its eta-expansions by one and two binders,
# then with a redex and with an eta-expanded variable in place of the variable.
_ETA_WRAPPERS = [None, P("fun (q : A -> A) (x : A) => q x"),
                 P("fun (q : A -> B -> A) (x : A) (y : B) => q x y"),
                 P("fun (q : A -> A) (x : A) => q ((fun (z : A) => z) x)"),
                 P("fun (q : (A -> A) -> A -> A) (x : A -> A) => q (fun (y : A) => x y)")]


def _with_metas(rng, phi, t, share):
    """Replace random subterms of `t` by fresh typed metas over the binders
    above them, some of them eta-expanded (the declared types play no part
    in unification)."""

    def go(t, depth):
        if rng.random() < share:
            ctx = LocalEnv()
            for _ in range(depth):
                ctx = push_dummy(ctx)
            meta = Meta(L, phi.fresh_meta(TypedMeta(ctx, Const(L, "A"))), erase_context(depth))
            wrapper = rng.choice(_ETA_WRAPPERS)
            return meta if wrapper is None else mk_app(L, wrapper, (meta,))
        return visit_term(lambda c: go(c, depth), lambda _s, c: go(c, depth + 1), t)

    return go(t, 0)


def test_agrees_with_reference_unifier_on_random_pairs():
    rng = random.Random(59)
    for _ in range(300):
        t1, _ = random_refined_term(rng)
        t2, _ = random_refined_term(rng)
        phi = MetaEnv(GENV)
        m1, m2, m3 = (_with_metas(rng, phi, t, 0.15) for t in (t1, t1, t2))
        for a, b in [(t1, t2), (m1, t1), (t1, m1), (m1, m2), (m1, m3), (m3, m1)]:
            _assert_agrees(phi, CTX, a, b)
