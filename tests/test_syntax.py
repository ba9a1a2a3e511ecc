"""Core term machinery: traversals, lifting, substitution, equality."""

import random

import pytest

from proofun.env import LocalEnv, MetaEnv, TypedDecl
from proofun.errors import InternalError
from proofun.normalize import delta_phi_expand
from proofun.parser import fix_index
from proofun.syntax import (
    Abs, App, Const, Meta, NOWHERE, Prod, Sort, SortKind, Underscore,
    Var, beta_redex, children, erase_context, free_in, instantiate, lift,
    map_term, same_term, subterms, visit_term,
)

from helpers import (
    P, enumerate_closed_named, named_subst, named_to_syntax, random_named_term,
)

L = NOWHERE


def _c(name):
    return Const(L, name)


# ------------- visit_term -------------


def test_visit_identity_is_bit_equal():
    t = P("fun x : A => smatch x as q return B with y : C => f y, z : D => g z end")
    out = visit_term(lambda c: c, lambda _s, c: c, lambda s, _c: s, t)
    assert out == t


def test_visit_abs_contract():
    t = Abs(L, "x", _c("A"), Var(L, 0))
    out = visit_term(lambda c: _c("F"), lambda s, c: _c("G"),
                     lambda s, c: s + "!", t)
    assert out == Abs(L, "x!", _c("F"), _c("G"))


def test_visit_app_spine_children():
    t = App(L, _c("hd"), (_c("a"), _c("b")))
    seen = []
    visit_term(lambda c: seen.append(c) or c, lambda _s, c: c,
               lambda s, _c: s, t)
    assert seen == [_c("hd"), _c("a"), _c("b")]


def _collect_direct(t, under=0, acc=None):
    """Direct recursive traversal used as the oracle for visit_term."""
    if acc is None:
        acc = []
    match t:
        case Var(_, n):
            acc.append((under, n))
        case _:
            from proofun.syntax import children, Abs, Prod, Let, SMatch
            binder_children = set()
            match t:
                case Abs(_, _, _, b) | Prod(_, _, _, b):
                    binder_children = {id(b)}
                case Let(_, _, _, _, b):
                    binder_children = {id(b)}
                case SMatch(_, _, _, _, _, b1, _, _, b2):
                    binder_children = {id(b1), id(b2)}
            for c in children(t):
                _collect_direct(c, under + (1 if id(c) in binder_children else 0), acc)
    return acc


def test_visit_matches_direct_recursion_on_random_terms():
    rng = random.Random(7)
    for _ in range(100):
        t = fix_index(named_to_syntax(random_named_term(rng, rng.randint(2, 10))))
        via_visit = []

        def walk(t, depth):
            if isinstance(t, Var):
                via_visit.append((depth, t.index))
                return t
            return visit_term(lambda c: walk(c, depth),
                              lambda _s, c: walk(c, depth + 1),
                              lambda s, _c: s, t)

        walk(t, 0)
        assert via_visit == _collect_direct(t)


# ------------- map_term / lift -------------


def test_map_identity():
    t = P("fun x : A => f x y")
    assert map_term(0, lambda k, l, n: Var(l, n), t) == t


def test_lift_zero_is_identity():
    t = P("fun x : A => f x")
    assert lift(0, 0, t) == t


def test_lift_free_var():
    assert lift(0, 2, Var(L, 0)) == Var(L, 2)


def test_lift_cutoff_counts_from_the_root():
    # Inside the binder the cutoff becomes 2, so Var 1 (root-level index 0,
    # below the cutoff 1) stays put; this matches the defining listing and
    # the named weakening oracle.
    t = Abs(L, "x", _c("A"), App(L, Var(L, 0), (Var(L, 1),)))
    assert lift(1, 1, t) == t
    shifted = Abs(L, "x", _c("A"), App(L, Var(L, 0), (Var(L, 2),)))
    assert lift(0, 1, t) == shifted


def test_lift_closed_term_unchanged():
    t = P("fun x : A => x")
    assert lift(0, 5, t) == t


def test_lift_matches_scope_weakening_oracle():
    # Lifting free indices by one agrees with re-indexing the named term
    # under a scope with one extra (never-occurring) name pushed in front.
    rng = random.Random(11)
    for _ in range(100):
        named = random_named_term(rng, rng.randint(1, 9), scope=("u", "w"))
        t = named_to_syntax(named)
        lifted = lift(0, 1, fix_index(t, ["u", "w"]))
        weakened = fix_index(t, ["#fresh", "u", "w"])
        assert same_term(lifted, weakened)


def test_lift_composition():
    rng = random.Random(13)
    for _ in range(1000):
        named = random_named_term(rng, rng.randint(1, 8), scope=("u",))
        t = fix_index(named_to_syntax(named), ["u"])
        k = rng.randint(0, 2)
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        assert lift(k, n, lift(k, m, t)) == lift(k, n + m, t)


def test_negative_lift_underflow_asserts():
    with pytest.raises(InternalError):
        lift(0, -1, Var(L, 0))


# ------------- beta_redex -------------


def test_beta_var_zero():
    assert beta_redex(Var(L, 0), _c("c")) == _c("c")


def test_beta_enclosing_binder_removed():
    assert beta_redex(Var(L, 1), _c("c")) == Var(L, 0)


def test_beta_propagates_into_suspension():
    body = Meta(L, 0, (Var(L, 0),))
    assert beta_redex(body, _c("c")) == Meta(L, 0, (_c("c"),))


def test_beta_agrees_with_named_substitution_oracle():
    # Every closed term of size <= 8 over two constants whose shape is a
    # beta-redex, contracted both ways.
    checked = 0
    for t in enumerate_closed_named(8):
        if not (t[0] == "app" and t[1][0] == "lam"):
            continue
        (_, (_, x, body), arg) = t
        via_debruijn = beta_redex(
            fix_index(named_to_syntax(body), [x]),
            fix_index(named_to_syntax(arg)))
        counter = [0]
        named_result = named_subst(body, x, arg, counter)
        via_named = fix_index(named_to_syntax(named_result))
        assert same_term(via_debruijn, via_named)
        checked += 1
    assert checked > 500


def test_instantiate_is_successive_beta_from_the_outermost_binder():
    # The body is scoped over z, x, y (y innermost); the arguments over z.
    rng = random.Random(11)
    for _ in range(200):
        named = random_named_term(rng, rng.randint(1, 10), ("z", "x", "y"))
        body = fix_index(named_to_syntax(named), ["y", "x", "z"])
        ax, ay = (fix_index(named_to_syntax(random_named_term(rng, 3, ("z",))), ["z"])
                  for _ in range(2))
        stepwise = beta_redex(beta_redex(body, lift(0, 1, ay)), ax)
        assert same_term(instantiate(body, (ax, ay)), stepwise)
    assert instantiate(body, ()) is body


def test_subterms_is_preorder_at_any_depth():
    def preorder(t):
        return [t] + [s for c in children(t) for s in preorder(c)]

    rng = random.Random(5)
    for _ in range(100):
        t = fix_index(named_to_syntax(random_named_term(rng, rng.randint(1, 12))))
        t = App(L, Meta(L, 0, (t, Underscore(L))), (t, Meta(L, 1, ())))
        assert [id(s) for s in subterms(t)] == [id(s) for s in preorder(t)]
    deep = Var(L, 0)
    for _ in range(5000):
        deep = Abs(L, "x", Underscore(L), deep)
    assert sum(1 for _ in subterms(deep)) == 10001


# ------------- erase_context -------------


def test_erase_empty():
    assert erase_context(0) == ()


def test_erase_singleton():
    assert erase_context(1) == (Var(L, 0),)


def test_erase_two():
    assert erase_context(2) == (Var(L, 1), Var(L, 0))


def test_identity_suspension_invariant_under_projection():
    # ?m[erase_context(G)] expands to exactly the variable ?m was
    # instantiated with, for every variable of G.
    ctx = LocalEnv().push_decl("x", _c("A")).push_decl("y", _c("B"))
    for i in range(2):
        phi = MetaEnv()
        phi, mid = phi.fresh_meta(TypedDecl(ctx, _c("A")))
        phi = phi.instantiate_meta(mid, Var(L, i))
        expanded = delta_phi_expand(phi, Meta(L, mid, erase_context(2)))
        assert expanded == Var(L, i)


# ------------- same_term / free_in -------------


def test_same_term_reflexive_on_samples():
    rng = random.Random(17)
    for _ in range(50):
        t = fix_index(named_to_syntax(random_named_term(rng, rng.randint(1, 8))))
        assert same_term(t, t)


def test_same_term_ignores_hints_and_locations():
    t1 = Abs(L, "x", _c("A"), Var(L, 0))
    from proofun.syntax import Location
    other_loc = Location("elsewhere", (3, 1), (3, 5))
    t2 = Abs(other_loc, "y", Const(other_loc, "A"), Var(other_loc, 0))
    assert same_term(t1, t2)


def test_same_term_distinguishes_indices():
    assert not same_term(Var(L, 0), Var(L, 1))


def test_same_term_equivalence_relation_on_triples():
    rng = random.Random(19)
    pool = [fix_index(named_to_syntax(random_named_term(rng, rng.randint(1, 6))))
            for _ in range(30)]
    for _ in range(300):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert same_term(a, a)
        assert same_term(a, b) == same_term(b, a)
        if same_term(a, b) and same_term(b, c):
            assert same_term(a, c)


def test_free_in_var_itself():
    assert free_in(0, Var(L, 0))


def test_free_in_bound_occurrence_is_not_free():
    assert not free_in(0, Abs(L, "x", _c("A"), Var(L, 0)))


def test_free_in_shifted_under_binder():
    assert free_in(0, Abs(L, "x", _c("A"), Var(L, 1)))


def test_sorts_and_underscore_compare():
    assert same_term(Sort(L, SortKind.TYPE), Sort(L, SortKind.TYPE))
    assert not same_term(Sort(L, SortKind.TYPE), Sort(L, SortKind.KIND))
    assert same_term(Underscore(L), Underscore(L))
