"""Subtyping: rewriting normal forms and the decision procedure, checked
against the declarative derivation-search oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from proofun.env import GlobalEnv, LocalEnv
from proofun.normalize import strongly_normalize
from proofun.pretty import show_term
from proofun.subtype import anf, canf, danf, is_subtype
from proofun.syntax import (
    Const, Inter, NOWHERE, Prod, Term, Union, subterms,
)

from helpers import P, conjunction_of_unions, enumerate_types, push_dummy
from oracle_subtype import derivable

GENV = GlobalEnv()
CTX = LocalEnv()


def sub(a: str, b: str) -> bool:
    return is_subtype(GENV, CTX, P(a), P(b))


# ------------- rewriters -------------


def test_anf_atomic_unchanged():
    t = P("a")
    assert repr(anf(t)) == repr(t)


def test_anf_distributes_union_domain():
    assert anf(P("(a | b) -> c")) == P("(a -> c) & (b -> c)")


def test_anf_distributes_inter_codomain():
    assert anf(P("a -> b & c")) == P("(a -> b) & (a -> c)")


def test_canf_distributes_union_over_inter():
    assert canf(P("a | b & c")) == P("(a | b) & (a | c)")


def test_canf_inter_is_componentwise():
    assert canf(P("a & b")) == Inter(NOWHERE, canf(P("a")), canf(P("b")))


def test_canf_atom():
    assert repr(canf(P("a"))) == repr(P("a"))


def test_danf_distributes_inter_over_union():
    assert danf(P("(a | b) & c")) == P("a & c | b & c")


def test_danf_union_is_componentwise():
    assert danf(P("a | b")) == Union(NOWHERE, danf(P("a")), danf(P("b")))


def test_danf_atom():
    assert repr(danf(P("a"))) == repr(P("a"))


@pytest.mark.parametrize("nf, src, expected", [
    (canf, "(a & b) | (c & d)", "((a | c) & (a | d)) & (b | c) & (b | d)"),
    (danf, "(a | b) & (c | d)", "(a & c | a & d) | b & c | b & d"),
    (anf, "(a | b) -> c & d", "((a -> c) & (a -> d)) & (b -> c) & (b -> d)"),
    (anf, "((a | b) & c) -> d | e", "(a & c -> d | e) & (b & c -> d | e)"),
    (canf, "a | (b -> c & d)", "(a | (b -> c)) & (a | (b -> d))"),
], ids=["canf_both_sides", "danf_both_sides", "anf_domain_and_codomain",
        "anf_danf_domain", "canf_of_anf_atom"])
def test_nested_normal_forms_are_exact(nf, src, expected):
    assert nf(P(src)) == P(expected)
    assert show_term(nf(P(src))) == expected


def test_distribution_keeps_the_split_nodes_locations():
    t = P("(a & b) | (c & d)")
    c = canf(t)
    assert c.loc == t.left.loc
    assert c.left.loc == c.right.loc == t.right.loc
    assert c.left.left.loc == NOWHERE  # a join, not a split node
    arrow = P("(a | b) -> c")
    a = anf(arrow)
    assert a.loc == arrow.domain.loc
    assert a.left.loc == a.right.loc == arrow.loc


def _no_union_above_inter(t: Term) -> bool:
    match t:
        case Inter(_, left, right):
            return _no_union_above_inter(left) and _no_union_above_inter(right)
        case Union(_, left, right):
            return _no_inter_at_top(left) and _no_inter_at_top(right)
        case _:
            return True


def _no_inter_at_top(t: Term) -> bool:
    match t:
        case Inter():
            return False
        case Union(_, left, right):
            return _no_inter_at_top(left) and _no_inter_at_top(right)
        case _:
            return True


def _arrows_are_normal(t: Term) -> bool:
    for s in subterms(t):
        if isinstance(s, Prod):
            if isinstance(s.domain, Union) or isinstance(s.codomain, Inter):
                return False
    return True


def test_normal_form_shapes():
    for t in enumerate_types(3):
        c = canf(t)
        assert _no_union_above_inter(c), t
        assert _arrows_are_normal(c), t
        d = danf(t)
        assert _no_inter_at_top_dual(d), t
        assert _arrows_are_normal(d), t


def _no_inter_at_top_dual(t: Term) -> bool:
    # danf: a union of intersections -- no intersection above a union
    match t:
        case Union(_, left, right):
            return _no_inter_at_top_dual(left) and _no_inter_at_top_dual(right)
        case Inter(_, left, right):
            return _no_union_inside(left) and _no_union_inside(right)
        case _:
            return True


def _no_union_inside(t: Term) -> bool:
    match t:
        case Union():
            return False
        case Inter(_, left, right):
            return _no_union_inside(left) and _no_union_inside(right)
        case _:
            return True


# ------------- decision procedure: named examples -------------


def test_reflexivity_at_atoms():
    assert sub("a", "a")


def test_intersection_projects():
    assert sub("a & b", "a")


def test_union_domain_arrow():
    assert sub("(a -> c) & (b -> c)", "(a | b) -> c")


def test_distinct_atoms_unrelated():
    assert not sub("a", "b")


def test_union_injection():
    assert sub("a", "a | b")


# ------------- properties over the enumeration -------------


TYPES = enumerate_types(2)


def test_reflexivity_over_enumeration():
    deeper = enumerate_types(3)
    rng = random.Random(41)
    sample = rng.sample(deeper, 400) + TYPES
    for t in sample:
        assert is_subtype(GENV, CTX, t, t), t


def test_transitivity_over_enumeration():
    n = len(TYPES)
    rel = [[is_subtype(GENV, CTX, x, y) for y in TYPES] for x in TYPES]
    for i in range(n):
        row_i = rel[i]
        for j in range(n):
            if row_i[j]:
                row_j = rel[j]
                for k in range(n):
                    if row_j[k]:
                        assert row_i[k], (TYPES[i], TYPES[j], TYPES[k])


def test_normal_forms_are_semantically_invariant():
    for t in TYPES:
        for rewritten in (canf(t), danf(t)):
            assert is_subtype(GENV, CTX, t, rewritten), t
            assert is_subtype(GENV, CTX, rewritten, t), t


def test_oracle_agreement_on_sample():
    # The full enumeration runs in the acceptance suite; here a fast sample.
    rng = random.Random(43)
    memo = {}
    for _ in range(1500):
        x, y = rng.choice(TYPES), rng.choice(TYPES)
        assert is_subtype(GENV, CTX, x, y) == derivable(x, y, memo=memo), (x, y)


def test_oracle_agreement_on_named_example_pairs():
    named = [
        ("a", "a", True),
        ("a & b", "a", True),
        ("(a -> c) & (b -> c)", "(a | b) -> c", True),
        ("(a | b) -> c", "(a -> c) & (b -> c)", True),
        ("a -> b & c", "(a -> b) & (a -> c)", True),
        ("(a -> b) & (a -> c)", "a -> b & c", True),
        ("(a | b) & (a | c)", "a | b & c", True),
        ("a", "b", False),
        ("a | b", "a & b", False),
        ("a -> c", "(a | b) -> c", False),  # contravariance: needs a|b <= a
        ("(a | b) -> c", "b -> c", True),
    ]
    memo = {}
    for a, b, want in named:
        assert sub(a, b) == want, (a, b)
        assert derivable(P(a), P(b), memo=memo) == want, (a, b)


def test_dependent_products_compare_structurally():
    genv = GlobalEnv()
    from helpers import axiom
    axiom(genv, "nat", "Type")
    axiom(genv, "vec", "nat -> Type")
    a = P("forall n : nat, vec n -> vec n")
    assert is_subtype(genv, LocalEnv(), a, a)
    b = P("forall n : nat, vec n -> nat")
    assert not is_subtype(genv, LocalEnv(), a, b)


def test_meta_input_is_rejected():
    import pytest
    from proofun.env import MetaEnv, TypedMeta
    from proofun.errors import InternalError
    from proofun.syntax import Const, Meta, NOWHERE
    phi = MetaEnv(GENV)
    mid = phi.fresh_meta(TypedMeta(LocalEnv(), Const(NOWHERE, "a")))
    with pytest.raises(InternalError):
        is_subtype(GENV, CTX, Meta(NOWHERE, mid, ()), P("a"))


def test_oracle_agreement_sampled_at_depth_three():
    rng = random.Random(101)
    deeper = enumerate_types(3)
    memo = {}
    for _ in range(3000):
        x, y = rng.choice(deeper), rng.choice(deeper)
        assert is_subtype(GENV, CTX, x, y) == derivable(x, y, memo=memo), (x, y)


# ------------- differential: the procedure that builds the left's DNF -------------


def dnf_is_subtype(a: Term, b: Term) -> bool:
    """Reference decision: the left side materialised in disjunctive normal
    form, the right in conjunctive normal form, compared structurally."""

    def compare(ctx: LocalEnv, a: Term, b: Term) -> bool:
        match (a, b):
            case (Union(_, a1, a2), _):
                return compare(ctx, a1, b) and compare(ctx, a2, b)
            case (_, Inter(_, b1, b2)):
                return compare(ctx, a, b1) and compare(ctx, a, b2)
            case (Inter(_, a1, a2), _):
                return compare(ctx, a1, b) or compare(ctx, a2, b)
            case (_, Union(_, b1, b2)):
                return compare(ctx, a, b1) or compare(ctx, a, b2)
            case (Prod(_, _, a1, a2), Prod(_, _, b1, b2)):
                return compare(ctx, b1, a1) and compare(push_dummy(ctx), a2, b2)
            case _:
                return a == b

    def nf(t: Term) -> Term:
        return strongly_normalize(GENV, CTX, t)

    return compare(CTX, danf(nf(a)), canf(nf(b)))


def test_agrees_with_dnf_procedure_at_depth_three():
    rng = random.Random(211)
    deeper = enumerate_types(3)
    for _ in range(3000):
        x, y = rng.choice(deeper), rng.choice(deeper)
        assert is_subtype(GENV, CTX, x, y) == dnf_is_subtype(x, y), (x, y)


def _types(depth: int) -> st.SearchStrategy[Term]:
    atom = st.sampled_from("abcd").map(lambda name: Const(NOWHERE, name))
    if depth == 0:
        return atom
    smaller = _types(depth - 1)
    node = st.tuples(st.sampled_from(("->", "&", "|")), smaller, smaller).map(
        lambda t: Prod(NOWHERE, "", t[1], t[2]) if t[0] == "->"
        else (Inter if t[0] == "&" else Union)(NOWHERE, t[1], t[2]))
    return st.one_of(atom, node)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_types(4), _types(4))
def test_agrees_with_dnf_procedure_on_generated_types(x, y):
    # Random pairs are mostly unrelated; the last two pairs always hold.
    for a, b in ((x, y), (x, x), (Inter(NOWHERE, x, y), Union(NOWHERE, y, x))):
        assert is_subtype(GENV, CTX, a, b) == dnf_is_subtype(a, b), (a, b)


def _benchmark_shapes():
    """(left, right, expected) in the shapes of the subtyping benchmark:
    a wide intersection of unions coerced to a permutation of itself with
    each union reordered, or to one with a conjunct narrowed to an atom;
    arrows distributed over a union domain or an intersection codomain."""
    rng = random.Random(5)
    unions = [[f"{k}{i}" for k in "abc"[:w]] for i, w in enumerate([2, 3, 2, 2, 3])]
    permuted = [rng.sample(u, len(u)) for u in rng.sample(unions, len(unions))]
    narrowed = [u[:] for u in permuted]
    narrowed[2] = narrowed[2][:1]
    yield conjunction_of_unions(unions), conjunction_of_unions(permuted), True
    yield conjunction_of_unions(unions), conjunction_of_unions(narrowed), False
    xs = ["x0", "x1", "x2", "x3"]
    for order, want in ((["x2", "x0", "x3", "x1"], True), (["x2", "z", "x0", "x3", "x1"], False)):
        yield " & ".join(f"({x} -> c)" for x in xs), f"({' | '.join(order)}) -> c", want
        yield " & ".join(f"(c -> {x})" for x in xs), f"c -> {' & '.join(order)}", want


def test_agrees_with_dnf_procedure_on_benchmark_shapes():
    for left, right, want in _benchmark_shapes():
        x, y = P(left), P(right)
        assert is_subtype(GENV, CTX, x, y) == dnf_is_subtype(x, y) == want, (left, right)
