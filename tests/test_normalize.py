"""The evaluator: reduction rules, spine discipline, idempotence, fuel."""

import random

import pytest

from proofun.env import GlobalEnv, LocalEnv, MetaEnv, TypedDecl
from proofun.errors import FuelExhausted, InternalError
from proofun.normalize import (
    delta_phi_expand, is_eta, normalize_meta, strongly_normalize, whnf, zonk,
)
from proofun.parser import fix_id, fix_index, parse_term
from proofun.pretty import render
from proofun.syntax import (
    Abs, App, Const, Let, Meta, NOWHERE, SInLeft, SInRight, SMatch, SPair,
    SPrLeft, SPrRight, Term, Underscore, Var, erase_context,
    same_term, subterms,
)

from helpers import P, axiom, define, make_test_genv, random_refined_term

L = NOWHERE


def nf(genv, t):
    return strongly_normalize(False, genv, LocalEnv(), t)


# ------------- individual reduction rules -------------


def test_projection_of_strong_pair():
    genv = GlobalEnv()
    assert render(fix_id(nf(genv, P("proj_l < d1, d2 >")))) == "d1"
    assert render(fix_id(nf(genv, P("proj_r < d1, d2 >")))) == "d2"


def test_injection_reduces_matching_branch():
    genv = GlobalEnv()
    motive = Abs(L, "q", P("tau | rho"), Const(L, "T"))
    sm = SMatch(L, P("inj_l rho d3"), motive,
                "x", Const(L, "tau"), fix_index(parse_term("f1 x"), ["x"]),
                "x", Const(L, "rho"), fix_index(parse_term("f2 x"), ["x"]))
    assert render(fix_id(nf(genv, sm))) == "f1 d3"


def test_beta_merges_spines():
    # (fun x => x S1) (D S2) reduces to D applied to the merged spine S2 ++ S1.
    genv = GlobalEnv()
    t = P("(fun x : A => x s1a s1b) (d s2a s2b)")
    result = nf(genv, t)
    assert isinstance(result, App)
    assert [a.name for a in result.spine] == ["s2a", "s2b", "s1a", "s1b"]
    assert not isinstance(result.head, App)


def test_eta_reduction():
    genv = GlobalEnv()
    assert render(fix_id(nf(genv, P("fun x : A => f x")))) == "f"
    # x free in the head: no eta
    t = P("fun x : A => x x")
    assert same_term(nf(genv, t), t)


def test_zeta_reduces_let():
    genv = GlobalEnv()
    assert render(fix_id(nf(genv, P("let x : s := d1 in f x x")))) == "f d1 d1"


def test_delta_global_definitions_unfold_but_axioms_stay():
    genv = make_test_genv()
    from helpers import define
    define(genv, "twice", "fun u : A => f (f u)")
    assert render(fix_id(nf(genv, P("twice a")))) == "f (f a)"
    assert render(fix_id(nf(genv, P("f a")))) == "f a"  # axiom head is rigid


def test_delta_local_definition():
    genv = GlobalEnv()
    ctx = LocalEnv().push_def("x", Const(L, "c"), Const(L, "s"))
    assert strongly_normalize(False, genv, ctx, Var(L, 0)) == Const(L, "c")


def test_printing_example_renders_y0():
    genv = GlobalEnv()
    axiom(genv, "nat", "Type")
    axiom(genv, "y", "nat")
    t = P("(fun (x y : nat) => x) y")
    assert render(fix_id(nf(genv, t))) == "fun y0 : nat => y"


# ------------- is_eta -------------


def test_is_eta_constant_head():
    assert is_eta(App(L, Const(L, "f"), ()))


def test_is_eta_rejects_bound_occurrence():
    assert not is_eta(Var(L, 0))


def test_is_eta_shifted_indices():
    assert is_eta(App(L, Var(L, 1), (Var(L, 2),)))


# ------------- delta_phi_expand -------------


def test_uninstantiated_meta_expands_to_none():
    phi, mid = MetaEnv().fresh_meta(TypedDecl(LocalEnv(), Const(L, "s")))
    assert delta_phi_expand(phi, Meta(L, mid, ())) is None


def test_suspension_substitutes_into_solution():
    # (x : s |- ?y := x) expands ?y[c] to c.
    ctx = LocalEnv().push_decl("x", Const(L, "s"))
    phi, mid = MetaEnv().fresh_meta(TypedDecl(ctx, Const(L, "s")))
    phi = phi.instantiate_meta(mid, Var(L, 0))
    assert delta_phi_expand(phi, Meta(L, mid, (Const(L, "c"),))) == Const(L, "c")


def test_sort_meta_discards_suspension():
    from proofun.env import SortDecl
    from proofun.syntax import sort_type
    phi, mid = MetaEnv().fresh_meta(SortDecl())
    phi = phi.instantiate_meta(mid, sort_type())
    assert delta_phi_expand(phi, Meta(L, mid, (Const(L, "junk"),))) == sort_type()


# ------------- strictness -------------


def test_meta_input_is_internal_error():
    with pytest.raises(InternalError):
        nf(GlobalEnv(), Meta(L, 0, ()))


def test_placeholder_input_is_internal_error():
    with pytest.raises(InternalError):
        nf(GlobalEnv(), Underscore(L))


def test_essence_mode_tolerates_untyped_binders():
    genv = GlobalEnv()
    from proofun.env import EssenceEnv
    t = App(L, Abs(L, "x", Underscore(L), Var(L, 0)), (Const(L, "c"),))
    out = strongly_normalize(True, genv, EssenceEnv(), t)
    assert out == Const(L, "c")


def test_fuel_exhaustion_reports_instead_of_hanging():
    # well-typed input is the contract; a looping ill-typed term must raise
    omega = fix_index(parse_term("(fun (x : A) => x x) (fun (x : A) => x x)"))
    with pytest.raises(FuelExhausted):
        strongly_normalize(False, GlobalEnv(), LocalEnv(), omega, fuel=5000)


def test_whnf_head_reductions_share_one_fuel_budget():
    genv = make_test_genv()
    define(genv, "c0", "f")
    for i in range(1, 4):
        define(genv, f"c{i}", f"c{i - 1}")
    t = P("c3 a")
    # one step for the application, five to unfold c3 down to the axiom f,
    # two more for the resulting application: eight in all
    with pytest.raises(FuelExhausted):
        whnf(MetaEnv(), genv, LocalEnv(), t, fuel=5)
    assert same_term(whnf(MetaEnv(), genv, LocalEnv(), t), P("f a"))


# ------------- normal-form properties -------------


def _redex_free(genv, t: Term) -> bool:
    for s in subterms(t):
        match s:
            case App(_, App(), _) | App(_, Abs(), _) | App(_, _, ()):
                return False
            case Let():
                return False
            case SPrLeft(_, SPair()) | SPrRight(_, SPair()):
                return False
            case SMatch(scrutinee=SInLeft()) | SMatch(scrutinee=SInRight()):
                return False
            case Abs(_, _, _, App(_, head, spine)) if spine and (
                    isinstance(spine[-1], Var) and spine[-1].index == 0):
                if is_eta(App(L, head, spine[:-1])):
                    return False
            case Const(_, name):
                found = genv.find_const(False, name)
                if found is not None and found[0] is not None:
                    return False
    return True


def test_idempotence_and_redex_freedom_on_random_terms():
    genv = make_test_genv()
    rng = random.Random(37)
    for _ in range(1000):
        t, _ty = random_refined_term(rng)
        once = nf(genv, t)
        assert _redex_free(genv, once)
        assert same_term(once, nf(genv, once))


def test_whnf_exposes_head_without_normalizing_children():
    genv = make_test_genv()
    phi = MetaEnv()
    t = P("(fun q : A -> A => q) (fun u : A => f ((fun w : A => w) u))")
    view = whnf(phi, genv, LocalEnv(), t)
    assert isinstance(view, Abs)
    # the inner redex is untouched by the view
    assert any(isinstance(s, App) and isinstance(s.head, Abs)
               for s in subterms(view))


def test_zonk_expands_solved_metas_deeply():
    ctx = LocalEnv().push_decl("x", Const(L, "s"))
    phi, inner = MetaEnv().fresh_meta(TypedDecl(ctx, Const(L, "s")))
    phi, outer = phi.fresh_meta(TypedDecl(ctx, Const(L, "s")))
    phi = phi.instantiate_meta(inner, Var(L, 0))
    phi = phi.instantiate_meta(outer, Meta(L, inner, erase_context(1)))
    t = Meta(L, outer, (Const(L, "c"),))
    assert zonk(phi, t) == Const(L, "c")
    assert normalize_meta(phi, GlobalEnv(), ctx, t) == Const(L, "c")
