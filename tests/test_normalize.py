"""The normalizers: reduction rules, spine discipline, idempotence, fuel,
head-first order, call-by-need, and agreement of evaluation
(`strongly_normalize`), substitution (`normalize_meta`) and the
applicative-order reference."""

import io
import random

import pytest

from proofun import normalize
from proofun.env import DefInfo, GlobalEnv, LocalEnv, MetaEnv, TypedDecl
from proofun.errors import FuelExhausted, InternalError
from proofun.normalize import (
    delta_phi_expand, is_eta, normalize_meta, strongly_normalize, whnf, zonk,
)
from proofun.parser import fix_id, fix_index, parse_term
from proofun.pretty import render, show_term
from proofun.refine import elaborate
from proofun.repl import Session, load_file
from proofun.syntax import (
    Abs, App, Const, Let, Meta, NOWHERE, Prod, SInLeft, SInRight, SMatch, SPair,
    SPrLeft, SPrRight, Term, Underscore, Var, erase_context, subterms,
)

from helpers import (
    CORPUS_FILES, P, axiom, corpus_path, define, make_test_genv,
    random_refined_term, reference_normalize,
)

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
    assert nf(genv, t) == t


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


def test_chains_of_local_definitions_unfold_fully():
    # [y := x; x := c]: y unfolds to x, which unfolds in turn to c
    genv = GlobalEnv()
    ctx = (LocalEnv().push_def("x", Const(L, "c"), Const(L, "s"))
           .push_def("y", Var(L, 0), Const(L, "s")))
    assert whnf(MetaEnv(), genv, ctx, Var(L, 0)) == Const(L, "c")
    assert strongly_normalize(False, genv, ctx, Var(L, 0)) == Const(L, "c")
    assert normalize_meta(MetaEnv(), genv, ctx, Var(L, 0)) == Const(L, "c")


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
    nested = Abs(L, "x", Const(L, "A"), App(L, Var(L, 0), (Underscore(L),)))
    for t in (Underscore(L), nested, Prod(L, "", Const(L, "A"), nested)):
        with pytest.raises(InternalError, match="contains a placeholder"):
            nf(GlobalEnv(), t)


def test_essence_mode_tolerates_untyped_binders():
    genv = GlobalEnv()
    t = App(L, Abs(L, "x", Underscore(L), Var(L, 0)), (Const(L, "c"),))
    out = strongly_normalize(True, genv, LocalEnv(), t)
    assert out == Const(L, "c")


def test_fuel_exhaustion_reports_instead_of_hanging():
    # well-typed input is the contract; a looping ill-typed term must raise
    omega = fix_index(parse_term("(fun (x : A) => x x) (fun (x : A) => x x)"))
    with pytest.raises(FuelExhausted):
        strongly_normalize(False, GlobalEnv(), LocalEnv(), omega, fuel=5000)


def test_discarded_arguments_are_never_normalized():
    # head-first: the looping argument is dropped before anyone looks at it
    t = P("(fun (y : A) => d) ((fun (x : A) => x x) (fun (x : A) => x x))")
    assert nf(GlobalEnv(), t) == Const(L, "d")


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
    assert whnf(MetaEnv(), genv, LocalEnv(), t) == P("f a")


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
        assert once == nf(genv, once)


def test_whnf_exposes_head_without_normalizing_children():
    genv = make_test_genv()
    phi = MetaEnv()
    t = P("(fun q : A -> A => q) (fun u : A => f ((fun w : A => w) u))")
    view = whnf(phi, genv, LocalEnv(), t)
    assert isinstance(view, Abs)
    # the inner redex is untouched by the view
    assert any(isinstance(s, App) and isinstance(s.head, Abs)
               for s in subterms(view))


def test_whnf_reduces_the_body_of_a_projection():
    t = P("proj_l ((fun (p : A) => p) <d1, d2>)")
    assert whnf(MetaEnv(), GlobalEnv(), LocalEnv(), t) == Const(L, "d1")


def test_whnf_reduces_the_scrutinee_of_a_match():
    motive = Abs(L, "q", P("tau | rho"), Const(L, "T"))
    scrutinee = P("(fun (q : tau | rho) => q) (inj_l rho d3)")
    sm = SMatch(L, scrutinee, motive,
                "x", Const(L, "tau"), fix_index(parse_term("f1 x"), ["x"]),
                "x", Const(L, "rho"), fix_index(parse_term("f2 x"), ["x"]))
    view = whnf(MetaEnv(), GlobalEnv(), LocalEnv(), sm)
    assert view == P("f1 d3")


def _solved_meta_chain():
    """`?outer[c]` in the context `x : s`, where `?outer := ?inner[x]` and
    `?inner := x`: two solved metas to expand, giving `c`."""
    ctx = LocalEnv().push_decl("x", Const(L, "s"))
    phi, inner = MetaEnv().fresh_meta(TypedDecl(ctx, Const(L, "s")))
    phi, outer = phi.fresh_meta(TypedDecl(ctx, Const(L, "s")))
    phi = phi.instantiate_meta(inner, Var(L, 0))
    phi = phi.instantiate_meta(outer, Meta(L, inner, erase_context(1)))
    return phi, ctx, Meta(L, outer, (Const(L, "c"),))


def test_zonk_expands_solved_metas_deeply():
    phi, ctx, t = _solved_meta_chain()
    assert zonk(phi, t) == Const(L, "c")
    assert normalize_meta(phi, GlobalEnv(), ctx, t) == Const(L, "c")


# ------------- agreement of evaluation, substitution and the reference -------------


def _assert_agrees(expected: Term, got: Term, scope=()):
    assert expected == got, (show_term(expected, scope), show_term(got, scope))
    assert show_term(expected, scope) == show_term(got, scope)


def _engines_agree(is_essence, genv, ctx, t, scope=()):
    """`strongly_normalize` (evaluation), `normalize_meta` on an empty
    meta-environment (substitution) and `reference_normalize` (applicative
    order) give the same normal form; it is returned."""
    got = strongly_normalize(is_essence, genv, ctx, t)
    _assert_agrees(normalize_meta(MetaEnv(), genv, ctx, t, is_essence), got, scope)
    _assert_agrees(reference_normalize(None, is_essence, genv, ctx, t), got, scope)
    return got


def test_agrees_with_applicative_reference():
    """The evaluator, the head-first substitution engine and the
    applicative-order one (`helpers.reference_normalize`) give the same
    normal form, binder names included, on random typed terms and their
    essences, on every corpus definition's type, type essence, body and
    essence, and (the last two engines) on terms with solved metas.

    Only locations may differ: the engines contract redexes in a different
    order, so a normal form may keep the span of another source node (in
    pierce.bull the essence of `Is_0_Test` keeps the inner application's
    span instead of the `smatch` one).  `==` ignores locations, so it is
    the right check here.  No user sees the location of a normal form: `refine` catches every
    `UnificationFailure` and re-raises it with source locations."""
    genv = make_test_genv()
    rng = random.Random(41)
    for i in range(3000):
        t, ty = random_refined_term(rng)
        _engines_agree(False, genv, LocalEnv(), t)
        if i % 2 == 0:
            _engines_agree(True, genv, LocalEnv(), elaborate(genv, t, ty).essence)

    for name in CORPUS_FILES:
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(session, corpus_path(name)), session.err.getvalue()
        corpus_genv = session.genv
        for _const, info in corpus_genv.items():
            _engines_agree(False, corpus_genv, LocalEnv(), info.type)
            _engines_agree(True, corpus_genv, LocalEnv(), info.type_essence)
            if isinstance(info, DefInfo):
                _engines_agree(False, corpus_genv, LocalEnv(), info.body)
                _engines_agree(True, corpus_genv, LocalEnv(), info.essence)

    phi, ctx, chain = _solved_meta_chain()
    genv = GlobalEnv()
    for t in (chain, App(L, Const(L, "f"), (chain, chain)),
              App(L, Abs(L, "u", Const(L, "s"), App(L, Var(L, 0), (Var(L, 1),))),
                  (Abs(L, "w", Const(L, "s"), chain),)),
              SPrLeft(L, SPair(L, chain, Var(L, 0)))):
        _assert_agrees(reference_normalize(phi, False, genv, ctx, t),
                       normalize_meta(phi, genv, ctx, t), ["x"])


def _match(scrutinee: str) -> SMatch:
    motive = Abs(L, "q", P("A | B"), Const(L, "A"))
    return SMatch(L, P(scrutinee), motive,
                  "x", Const(L, "A"), fix_index(parse_term("(fun (y : A) => y) x"), ["x"]),
                  "x", Const(L, "B"), fix_index(parse_term("h a x"), ["x"]))


@pytest.mark.parametrize("term, normal", [
    ("proj_l ((fun (r : A & A) => r) p)", "proj_l p"),
    ("(proj_r p) ((fun (y : A) => y) a)", "proj_r p a"),
    # a component is read in its pair's own environment
    ("proj_r ((fun (y : A) => <f y, f y>) a)", "f a"),
    ("(coe (A -> A) ((fun (y : A -> A) => y) f)) a", "coe (A -> A) f a"),
    ("<(fun (y : A) => y) a, f> a", "<a, f> a"),
    (_match("(fun (q : A | B) => q) w"),
     "smatch w return A with x : A => x, x : B => h a x end"),
    # the injection's payload is read in the injection's own environment
    (_match("(fun (y : B) => inj_r A y) b"), "h a b"),
], ids=["projection", "applied_projection", "projection_reduces", "coe_applied",
        "pair_applied", "smatch", "smatch_reduces"])
def test_eliminations_normalize_their_parts(term, normal):
    genv = make_test_genv()
    t = P(term) if isinstance(term, str) else term
    assert show_term(_engines_agree(False, genv, LocalEnv(), t)) == normal


def test_local_definitions_in_the_context_unfold():
    # [u : A; x := f u; y : A]: x unfolds, u and y stay; eta removes z
    genv = make_test_genv()
    scope = ["y", "x", "u"]
    ctx = (LocalEnv().push_decl("u", Const(L, "A"))
           .push_def("x", fix_index(parse_term("f u"), ["u"]), Const(L, "A"))
           .push_decl("y", Const(L, "A")))
    t = fix_index(parse_term("fun (z : B) => h x z"), scope)
    assert show_term(_engines_agree(False, genv, ctx, t, scope), scope) == "h (f u)"
    t = fix_index(parse_term("(fun (v : A) => h v (g y)) x"), scope)
    assert show_term(_engines_agree(False, genv, ctx, t, scope), scope) == "h (f u) (g y)"


def test_a_duplicated_argument_is_evaluated_once(monkeypatch):
    # call-by-need: `y` occurs twice, but its 20 redexes are contracted once
    budgets = []

    class RecordedFuel(normalize._Fuel):
        def __init__(self, left: int):
            super().__init__(left)
            budgets.append((left, self))

    monkeypatch.setattr(normalize, "_Fuel", RecordedFuel)

    def steps(src: str) -> int:
        assert nf(make_test_genv(), P(src)) == P("h a a")
        start, fuel = budgets[-1]
        return start - fuel.left

    e = "a"
    for _ in range(20):
        e = f"(fun (u : A) => u) ({e})"
    shared, copied = steps(f"let y : A := {e} in h y y"), steps(f"h ({e}) ({e})")
    assert shared + 20 < copied, (shared, copied)
