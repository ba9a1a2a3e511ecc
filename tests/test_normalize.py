"""The normalizer and the head view: reduction rules, spine discipline,
idempotence, fuel, head-first order, call-by-need, and agreement of the
evaluator's two entry points (`strongly_normalize` for meta-free terms,
`normalize_meta` for terms with solved and unsolved metas) with the
applicative-order reference."""

import io
import random

import pytest

from proofun import normalize
from proofun.env import Decl, EssMeta, GlobalEnv, LocalEnv, MetaEnv, SortMeta, TypedMeta
from proofun.errors import FuelExhausted, InternalError, ProverError
from proofun.normalize import (
    delta_phi_expand, is_eta, normalize_meta, strongly_normalize, whnf, zonk,
)
from proofun.parser import fix_id, fix_index, parse_term
from proofun.pretty import show_term
from proofun.refine import elaborate, elaborate_type
from proofun.repl import Session, load_file
from proofun.subtype import is_subtype
from proofun.syntax import (
    Abs, App, Const, Let, Meta, NOWHERE, Prod, SInLeft, SInRight, SMatch, SPair,
    SPrLeft, SPrRight, Term, Underscore, Var, contains_meta, erase_context, lift,
    mk_app, sort_type, subterms, visit_term,
)

from helpers import (
    CORPUS_FILES, P, axiom, corpus_path, define, make_test_genv, push_dummy,
    random_refined_term, random_simple_type, random_typed_term, reference_normalize,
    reference_render, reference_whnf,
)

L = NOWHERE


def nf(genv, t):
    return strongly_normalize(genv, LocalEnv(), t)


# ------------- individual reduction rules -------------


def test_projection_of_strong_pair():
    genv = GlobalEnv()
    assert reference_render(fix_id(nf(genv, P("proj_l < d1, d2 >")))) == "d1"
    assert reference_render(fix_id(nf(genv, P("proj_r < d1, d2 >")))) == "d2"


def test_injection_reduces_matching_branch():
    genv = GlobalEnv()
    motive = Abs(L, "q", P("tau | rho"), Const(L, "T"))
    sm = SMatch(L, P("inj_l rho d3"), motive,
                "x", Const(L, "tau"), fix_index(parse_term("f1 x"), ["x"]),
                "x", Const(L, "rho"), fix_index(parse_term("f2 x"), ["x"]))
    assert reference_render(fix_id(nf(genv, sm))) == "f1 d3"


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
    assert reference_render(fix_id(nf(genv, P("fun x : A => f x")))) == "f"
    # x free in the head: no eta
    t = P("fun x : A => x x")
    assert nf(genv, t) == t


def test_zeta_reduces_let():
    genv = GlobalEnv()
    assert reference_render(fix_id(nf(genv, P("let x : s := d1 in f x x")))) == "f d1 d1"


def test_delta_global_definitions_unfold_but_axioms_stay():
    genv = make_test_genv()
    from helpers import define
    define(genv, "twice", "fun u : A => f (f u)")
    assert reference_render(fix_id(nf(genv, P("twice a")))) == "f (f a)"
    assert reference_render(fix_id(nf(genv, P("f a")))) == "f a"  # axiom head is rigid


def test_delta_local_definition():
    genv = GlobalEnv()
    ctx = LocalEnv().push_def("x", Const(L, "c"), Const(L, "s"))
    assert strongly_normalize(genv, ctx, Var(L, 0)) == Const(L, "c")


def test_chains_of_local_definitions_unfold_fully():
    # [y := x; x := c]: y unfolds to x, which unfolds in turn to c
    genv = GlobalEnv()
    ctx = (LocalEnv().push_def("x", Const(L, "c"), Const(L, "s"))
           .push_def("y", Var(L, 0), Const(L, "s")))
    assert whnf(MetaEnv(genv), ctx, Var(L, 0)) == Const(L, "c")
    assert strongly_normalize(genv, ctx, Var(L, 0)) == Const(L, "c")
    assert normalize_meta(MetaEnv(genv), ctx, Var(L, 0)) == Const(L, "c")


def test_printing_example_renders_y0():
    genv = GlobalEnv()
    axiom(genv, "nat", "Type")
    axiom(genv, "y", "nat")
    t = P("(fun (x y : nat) => x) y")
    assert reference_render(fix_id(nf(genv, t))) == "fun y0 : nat => y"


# ------------- is_eta -------------


def test_is_eta_constant_head():
    assert is_eta(App(L, Const(L, "f"), ()))


def test_is_eta_rejects_bound_occurrence():
    assert not is_eta(Var(L, 0))


def test_is_eta_shifted_indices():
    assert is_eta(App(L, Var(L, 1), (Var(L, 2),)))


# ------------- delta_phi_expand -------------


def test_uninstantiated_meta_expands_to_none():
    phi = MetaEnv(GlobalEnv())
    mid = phi.fresh_meta(TypedMeta(LocalEnv(), Const(L, "s")))
    assert delta_phi_expand(phi, Meta(L, mid, ())) is None


def test_suspension_substitutes_into_solution():
    # (x : s |- ?y := x) expands ?y[c] to c.
    ctx = LocalEnv().push_decl("x", Const(L, "s"))
    phi = MetaEnv(GlobalEnv())
    mid = phi.fresh_meta(TypedMeta(ctx, Const(L, "s")))
    phi.instantiate_meta(mid, Var(L, 0))
    assert delta_phi_expand(phi, Meta(L, mid, (Const(L, "c"),))) == Const(L, "c")


def test_sort_meta_discards_suspension():
    from proofun.syntax import sort_type
    phi = MetaEnv(GlobalEnv())
    mid = phi.fresh_meta(SortMeta())
    phi.instantiate_meta(mid, sort_type())
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
    out = strongly_normalize(genv, LocalEnv(), t, True)
    assert out == Const(L, "c")


def test_fuel_exhaustion_reports_instead_of_hanging(monkeypatch):
    # well-typed input is the contract; a looping ill-typed term must raise
    omega = fix_index(parse_term("(fun (x : A) => x x) (fun (x : A) => x x)"))
    monkeypatch.setattr(normalize, "DEFAULT_FUEL", 5000)
    with pytest.raises(FuelExhausted):
        strongly_normalize(GlobalEnv(), LocalEnv(), omega)


def _identity_tower_genv() -> GlobalEnv:
    genv = GlobalEnv()
    for name, ty in [("A", "Type"), ("P", "A -> Type"), ("a", "A"), ("p", "P a")]:
        axiom(genv, name, ty)
    define(genv, "i", "fun (x : A) => x")
    return genv


_TOWER = "P (i (i (i a)))"  # is `P a` after three unfoldings of `i`


@pytest.mark.parametrize("entry", [
    lambda genv: elaborate(genv, P("p"), P(_TOWER)),
    lambda genv: elaborate_type(genv, P(f"(fun (z : {_TOWER}) => A) p")),
    lambda genv: is_subtype(genv, LocalEnv(), P("P a"), P(_TOWER)),
    lambda genv: strongly_normalize(genv, LocalEnv(), P(_TOWER)),
    lambda genv: whnf(MetaEnv(genv), LocalEnv(), P("i (i (i a))")),
], ids=["elaborate", "elaborate_type", "is_subtype", "strongly_normalize", "whnf"])
def test_running_out_of_fuel_on_well_typed_input_is_a_prover_error(monkeypatch, entry):
    genv = _identity_tower_genv()
    entry(genv)  # well-typed: it succeeds on the full budget
    monkeypatch.setattr(normalize, "DEFAULT_FUEL", 2)
    with pytest.raises(FuelExhausted) as info:
        entry(genv)
    assert isinstance(info.value, ProverError) and not isinstance(info.value, InternalError)
    assert info.value.message == "normalization did not terminate within the step budget"


def test_discarded_arguments_are_never_normalized():
    # head-first: the looping argument is dropped before anyone looks at it
    t = P("(fun (y : A) => d) ((fun (x : A) => x x) (fun (x : A) => x x))")
    assert nf(GlobalEnv(), t) == Const(L, "d")


def test_whnf_head_reductions_share_one_fuel_budget(monkeypatch):
    genv = make_test_genv()
    define(genv, "c0", "f")
    for i in range(1, 4):
        define(genv, f"c{i}", f"c{i - 1}")
    t = P("c3 a")
    # one evaluation step for the application, one for each of c3, c2, c1
    # and c0, and one for the axiom f: six in all
    monkeypatch.setattr(normalize, "DEFAULT_FUEL", 5)
    with pytest.raises(FuelExhausted):
        whnf(MetaEnv(genv), LocalEnv(), t)
    monkeypatch.undo()
    assert whnf(MetaEnv(genv), LocalEnv(), t) == P("f a")


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
                if genv.find_const(False, name) is not None:
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
    phi = MetaEnv(genv)
    t = P("(fun q : A -> A => q) (fun u : A => f ((fun w : A => w) u))")
    view = whnf(phi, LocalEnv(), t)
    assert isinstance(view, Abs)
    # the inner redex is untouched by the view
    assert any(isinstance(s, App) and isinstance(s.head, Abs)
               for s in subterms(view))


def test_whnf_reduces_the_body_of_a_projection():
    t = P("proj_l ((fun (p : A) => p) <d1, d2>)")
    assert whnf(MetaEnv(GlobalEnv()), LocalEnv(), t) == Const(L, "d1")


def test_whnf_reduces_the_scrutinee_of_a_match():
    motive = Abs(L, "q", P("tau | rho"), Const(L, "T"))
    scrutinee = P("(fun (q : tau | rho) => q) (inj_l rho d3)")
    sm = SMatch(L, scrutinee, motive,
                "x", Const(L, "tau"), fix_index(parse_term("f1 x"), ["x"]),
                "x", Const(L, "rho"), fix_index(parse_term("f2 x"), ["x"]))
    view = whnf(MetaEnv(GlobalEnv()), LocalEnv(), sm)
    assert view == P("f1 d3")


def _solved_meta_chain():
    """`?outer[c]` in the context `x : s`, where `?outer := ?inner[x]` and
    `?inner := x`: two solved metas to expand, giving `c`."""
    ctx = LocalEnv().push_decl("x", Const(L, "s"))
    phi = MetaEnv(GlobalEnv())
    inner = phi.fresh_meta(TypedMeta(ctx, Const(L, "s")))
    outer = phi.fresh_meta(TypedMeta(ctx, Const(L, "s")))
    phi.instantiate_meta(inner, Var(L, 0))
    phi.instantiate_meta(outer, Meta(L, inner, erase_context(1)))
    return phi, ctx, Meta(L, outer, (Const(L, "c"),))


def test_zonk_expands_solved_metas_deeply():
    phi, ctx, t = _solved_meta_chain()
    assert zonk(phi, t) == Const(L, "c")
    assert normalize_meta(phi, ctx, t) == Const(L, "c")


# ------------- agreement of the entry points and the reference -------------


def _assert_agrees(expected: Term, got: Term, scope=()):
    assert expected == got, (show_term(expected, scope), show_term(got, scope))
    assert show_term(expected, scope) == show_term(got, scope)


def _engines_agree(is_essence, genv, ctx, t, scope=()):
    """`strongly_normalize`, `normalize_meta` on an empty meta-environment
    (the same evaluator, entered for the unifier) and `reference_normalize`
    (applicative order) give the same normal form; it is returned."""
    got = strongly_normalize(genv, ctx, t, is_essence)
    _assert_agrees(normalize_meta(MetaEnv(genv), ctx, t, is_essence), got, scope)
    _assert_agrees(reference_normalize(None, is_essence, genv, ctx, t), got, scope)
    return got


def test_agrees_with_applicative_reference():
    """The evaluator, through both entry points, and the applicative-order
    engine (`helpers.reference_normalize`) give the same normal form, binder
    names included, on random typed terms and their essences, on every
    corpus definition's type, type essence, body and essence, and
    (`normalize_meta` and the reference) on terms with solved metas.

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
            if info.body is not None:
                _engines_agree(False, corpus_genv, LocalEnv(), info.body)
                _engines_agree(True, corpus_genv, LocalEnv(), info.essence)

    phi, ctx, chain = _solved_meta_chain()
    genv = GlobalEnv()
    for t in (chain, App(L, Const(L, "f"), (chain, chain)),
              App(L, Abs(L, "u", Const(L, "s"), App(L, Var(L, 0), (Var(L, 1),))),
                  (Abs(L, "w", Const(L, "s"), chain),)),
              SPrLeft(L, SPair(L, chain, Var(L, 0)))):
        _assert_agrees(reference_normalize(phi, False, genv, ctx, t),
                       normalize_meta(phi, ctx, t), ["x"])


class _Metas:
    """Puts meta-variables into a meta-free term, bottom-up, at random
    subterms `s` (under `depth` binders of the term and the `outer` entries
    of its context).  A solved meta gives `s` back when expanded and
    normalized: `?m[id] := s`; `?m[id] u := fun y => ...y...`, `s` with its
    last argument `u` abstracted; or `?m[id; u] := ...y...`, the same body
    with `u` in the suspension.  An unsolved meta (only when `unsolved`)
    keeps `s` out of the term: its suspension holds variables in scope, `s`
    itself and reducible entries, and it may be applied to arguments; and
    a binder's annotation `T` may become `T -> ?s`, with `?s` a sort meta,
    solved or not.  `kinds` records which forms were made."""

    def __init__(self, genv: GlobalEnv, rng: random.Random, outer: int, is_essence: bool,
                 unsolved: bool):
        self.rng, self.outer, self.is_essence, self.unsolved = rng, outer, is_essence, unsolved
        self.phi, self.kinds = MetaEnv(genv), set()
        self.annot = Underscore(L) if is_essence else Const(L, "A")

    def fresh(self, length: int, solution: Term | None = None) -> int:
        ctx = LocalEnv(tuple(Decl(f"z{i}", self.annot) for i in range(length)))
        decl = EssMeta(ctx) if self.is_essence else TypedMeta(ctx, Const(L, "A"))
        mid = self.phi.fresh_meta(decl)
        if solution is not None:
            self.phi.instantiate_meta(mid, solution)
        return mid

    def reducible(self, u: Term) -> Term:
        """`u`, or the redex `(fun z => z) u`."""
        if self.rng.random() < 0.5:
            return u
        return App(L, Abs(L, "z", self.annot, Var(L, 0)), (u,))

    def put(self, t: Term, depth: int) -> Term:
        t = visit_term(lambda c: self.put(c, depth),
                       lambda _s, c: self.put(c, depth + 1), t)
        if self.unsolved and type(t) is Abs and self.rng.random() < 0.1:
            solved = self.rng.random() < 0.5
            self.kinds.add("sort_solved" if solved else "sort_unsolved")
            sid = self.phi.fresh_meta(SortMeta())
            if solved:
                self.phi.instantiate_meta(sid, sort_type())
            junk = (self.reducible(Const(L, "a")),) if self.rng.random() < 0.3 else ()
            return Abs(L, t.name, Prod(L, "", t.domain, Meta(L, sid, junk)), t.body)
        roll, k = self.rng.random(), self.outer + depth
        ident = erase_context(k)
        if roll < 0.12:
            self.kinds.add("identity")
            return Meta(L, self.fresh(k, t), ident)
        if roll < 0.3 and type(t) is App:
            u = t.spine[-1]
            body = mk_app(L, lift(0, 1, t.head),
                          tuple(lift(0, 1, a) for a in t.spine[:-1]) + (Var(L, 0),))
            if roll < 0.21:
                self.kinds.add("abstraction_applied")
                solution = Abs(L, "y", self.annot, body)
                return App(L, Meta(L, self.fresh(k, solution), ident), (self.reducible(u),))
            self.kinds.add("suspension_entry")
            return Meta(L, self.fresh(k + 1, body), ident + (self.reducible(u),))
        if roll < 0.45 and self.unsolved:
            pool = [t, Const(L, "f")] + [Var(L, i) for i in range(k)]
            susp = tuple(self.reducible(self.rng.choice(pool))
                         for _ in range(self.rng.randint(0, 3)))
            args = tuple(self.reducible(self.rng.choice(pool))
                         for _ in range(self.rng.choice((0, 0, 1, 2))))
            self.kinds.add("unsolved_applied" if args else "unsolved")
            return mk_app(L, Meta(L, self.fresh(len(susp)), susp), args)
        return t


def _metas_agree(rng, is_essence, genv, ctx, t, unsolved, scope=()):
    """`normalize_meta` of `t` with metas put in agrees with the reference,
    is its own normal form and, when every meta is solved, is the normal
    form of `t` itself; the forms made, and where metas ended up, are
    returned."""
    metas = _Metas(genv, rng, len(ctx), is_essence, unsolved)
    with_metas = metas.put(t, 0)
    got = normalize_meta(metas.phi, ctx, with_metas, is_essence)
    _assert_agrees(reference_normalize(metas.phi, is_essence, genv, ctx, with_metas),
                   got, scope)
    assert normalize_meta(metas.phi, ctx, got, is_essence) == got
    if not unsolved:
        _assert_agrees(strongly_normalize(genv, ctx, t, is_essence), got, scope)
    for s in subterms(with_metas):
        if type(s) is Abs and contains_meta(s.body):
            metas.kinds.add("under_binder")
        elif type(s) is Let and contains_meta(s.body):
            metas.kinds.add("let_body")
        elif type(s) is Let and contains_meta(s.bound):
            metas.kinds.add("let_bound")
    return metas.kinds


def test_metas_agree_with_the_reference_on_random_terms():
    """A seeded differential over random typed terms and their essences
    with solved and unsolved metas put in: under binders, in `let`-bound
    terms and `let` bodies, with local definitions in the context, solved
    metas whose solution is an abstraction applied to arguments or uses a
    suspension entry, sort metas, and unsolved metas with reducible
    suspension entries, applied or not."""
    genv = make_test_genv()
    rng = random.Random(43)
    closed = LocalEnv()
    scope = ["x", "u"]
    with_def = (LocalEnv().push_decl("u", Const(L, "A"))
                .push_def("x", fix_index(parse_term("f u"), ["u"]), Const(L, "A")))
    kinds = set()
    for i in range(600):
        t, ty = random_refined_term(rng)
        for unsolved in (False, True):
            kinds |= _metas_agree(rng, False, genv, closed, t, unsolved)
            if i % 2 == 0:
                essence = elaborate(genv, t, ty).essence
                kinds |= _metas_agree(rng, True, genv, closed, essence, unsolved)
        ty = random_simple_type(rng, rng.randint(0, 2))
        t = random_typed_term(rng, ty, [Const(L, "A"), Const(L, "A")], 4)
        kinds |= _metas_agree(rng, False, genv, with_def, t, True, scope)
    assert kinds == {"identity", "abstraction_applied", "suspension_entry", "unsolved",
                     "unsolved_applied", "sort_solved", "sort_unsolved", "under_binder",
                     "let_body", "let_bound"}


def test_a_normal_input_with_metas_comes_back_equal():
    ctx = LocalEnv().push_decl("x", Const(L, "A"))
    phi = MetaEnv(make_test_genv())
    mid = phi.fresh_meta(TypedMeta(ctx, Const(L, "A")))
    flex = Meta(L, mid, (Var(L, 0),))
    outer = phi.fresh_meta(TypedMeta(LocalEnv(), Const(L, "A")))
    inner = Meta(L, mid, (Var(L, 0),))
    for t, context in ((flex, ctx),
                       (Abs(L, "x", Const(L, "A"), App(L, inner, (Const(L, "a"),))),
                        LocalEnv()),
                       (Meta(L, outer, ()), LocalEnv())):
        assert normalize_meta(phi, context, t) == t


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
    machines = []

    class RecordedMachine(normalize._Machine):
        def __init__(self, *args):
            super().__init__(*args)
            machines.append(self)

    monkeypatch.setattr(normalize, "_Machine", RecordedMachine)

    def steps(src: str) -> int:
        assert nf(make_test_genv(), P(src)) == P("h a a")
        return normalize.DEFAULT_FUEL - machines[-1].fuel

    e = "a"
    for _ in range(20):
        e = f"(fun (u : A) => u) ({e})"
    shared, copied = steps(f"let y : A := {e} in h y y"), steps(f"h ({e}) ({e})")
    assert shared + 20 < copied, (shared, copied)


# ------------- the head view and its reference -------------


def _in_context(ctx: LocalEnv, t: Term) -> list[tuple[LocalEnv, Term]]:
    """Every subterm of `t` with its context: each binder above it adds a
    declaration."""
    out = [(ctx, t)]
    visit_term(lambda c: out.extend(_in_context(ctx, c)) or c,
               lambda _s, c: out.extend(_in_context(push_dummy(ctx), c)) or c, t)
    return out


def _views_agree(phi, ctx, t, is_essence=False) -> int:
    """`whnf` and `reference_whnf` give equal views of every subterm of `t`,
    and a subterm the reference leaves alone comes back from `whnf` as the
    same object; the number of subterms that reduced is returned."""
    reduced = 0
    for c, s in _in_context(ctx, t):
        expected = reference_whnf(phi, c, s, is_essence)
        got = whnf(phi, c, s, is_essence)
        assert got == expected, (s, expected, got)
        if expected is s:
            assert got is s, s
        else:
            reduced += 1
    return reduced


def test_whnf_agrees_with_the_substitution_reference():
    """The evaluator's weak-head value read back (`whnf`) and root rewriting
    by substitution (`helpers.reference_whnf`) agree on every subterm of
    random typed terms and their essences, of the same terms with solved and
    unsolved metas put in, of terms over a context with a local definition,
    and of every corpus definition."""
    genv = make_test_genv()
    rng = random.Random(47)
    with_def = (LocalEnv().push_decl("u", Const(L, "A"))
                .push_def("x", fix_index(parse_term("f u"), ["u"]), Const(L, "A")))
    reduced = 0
    for i in range(1000):
        t, ty = random_refined_term(rng)
        reduced += _views_agree(MetaEnv(genv), LocalEnv(), t)
        if i % 2 == 0:
            reduced += _views_agree(MetaEnv(genv), LocalEnv(),
                                    elaborate(genv, t, ty).essence, True)
        metas = _Metas(genv, rng, 0, False, unsolved=i % 2 == 1)
        with_metas = metas.put(t, 0)
        reduced += _views_agree(metas.phi, LocalEnv(), with_metas)
        t = random_typed_term(rng, random_simple_type(rng, rng.randint(0, 2)),
                              [Const(L, "A"), Const(L, "A")], 4)
        reduced += _views_agree(MetaEnv(genv), with_def, t)
    assert reduced > 5000, reduced

    for name in CORPUS_FILES:
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(session, corpus_path(name)), session.err.getvalue()
        for _const, info in session.genv.items():
            _views_agree(MetaEnv(session.genv), LocalEnv(), info.type)
            _views_agree(MetaEnv(session.genv), LocalEnv(), info.type_essence, True)
            if info.body is not None:
                _views_agree(MetaEnv(session.genv), LocalEnv(), info.body)
                _views_agree(MetaEnv(session.genv), LocalEnv(), info.essence, True)


_VIEW_SCOPE = ["y", "x", "u"]


def _view_context() -> tuple[GlobalEnv, LocalEnv]:
    """The signature with `q : A & A` and `p := q`, and the context
    [u : B; x := fun z => h z u; y : A]."""
    genv = make_test_genv()
    axiom(genv, "q", "A & A")
    define(genv, "p", "q")
    ctx = (LocalEnv().push_decl("u", Const(L, "B"))
           .push_def("x", fix_index(parse_term("fun (z : A) => h z u"), ["u"]), P("A -> A"))
           .push_decl("y", Const(L, "A")))
    return genv, ctx


@pytest.mark.parametrize("term, view", [
    # `x` is forced by the projection, but the argument reads back as written
    ("(fun (x : A & A) => (proj_l x) x) p", "proj_l q p"),
    ("let w : A -> A := fun (z : A) => h z (g y) in w (f y)", "h (f y) (g y)"),
    ("x y", "h y u"),
    ("x", "fun z : A => h z u"),
    ("proj_l ((fun (r : A & A) => r) q)", "proj_l q"),
    ("(fun (v : A) => smatch w return A with z : A => h v (g z), z : B => v end) y",
     "smatch w return A with z : A => h y (g z), z : B => y end"),
    ("smatch ((fun (r : A | B) => r) w) return A with z : A => z, z : B => y end",
     "smatch w return A with z : A => z, z : B => y end"),
], ids=["forced_thunk", "let_head", "local_definition_applied", "local_definition",
        "stuck_projection", "stuck_match", "stuck_match_reduced_scrutinee"])
def test_whnf_reads_the_weak_head_value_back(term, view):
    genv, ctx = _view_context()
    t = fix_index(parse_term(term), _VIEW_SCOPE)
    got = whnf(MetaEnv(genv), ctx, t)
    assert got == reference_whnf(MetaEnv(genv), ctx, t)
    assert show_term(got, _VIEW_SCOPE) == view


@pytest.mark.parametrize("term", [
    "y", "u", "f y", "h (f y) u", "proj_l y", "w", "a",
    "smatch y return A with z : A => z, z : B => y end",
])
def test_whnf_gives_back_a_weak_head_normal_input_itself(term):
    genv, ctx = _view_context()
    t = fix_index(parse_term(term), _VIEW_SCOPE)
    assert whnf(MetaEnv(genv), ctx, t) is t
    phi = MetaEnv(genv)
    mid = phi.fresh_meta(TypedMeta(ctx, Const(L, "A")))
    flex = App(L, Meta(L, mid, erase_context(len(ctx))), (t,))
    assert whnf(phi, ctx, flex) is flex


def test_whnf_reads_an_argument_used_twice_back_once():
    t = P("let x1 : A := f a in let x2 : A := h x1 x1 in let x3 : A := h x2 x2 in g x3")
    view = whnf(MetaEnv(make_test_genv()), LocalEnv(), t)
    assert show_term(view) == "g (h (h (f a) (f a)) (h (f a) (f a)))"
    x3 = view.spine[0]
    assert x3.spine[0] is x3.spine[1] and x3.spine[0].spine[0] is x3.spine[0].spine[1]


def test_whnf_gives_back_an_unsolved_meta_and_an_axiom_without_evaluating(monkeypatch):
    genv = make_test_genv()
    define(genv, "d", "f a")
    ctx = LocalEnv().push_decl("y", Const(L, "A"))
    phi = MetaEnv(genv)
    sid = phi.fresh_meta(SortMeta())
    tid = phi.fresh_meta(TypedMeta(ctx, Const(L, "A")))
    eid = phi.fresh_meta(EssMeta(ctx))
    solved = phi.fresh_meta(TypedMeta(ctx, Const(L, "A")))
    phi.instantiate_meta(solved, Const(L, "a"))
    entered = []
    evaluate = normalize._eval

    def counting_eval(*args):
        entered.append(args[0])
        return evaluate(*args)

    monkeypatch.setattr(normalize, "_eval", counting_eval)
    fixed = [Meta(L, sid, ()), Meta(L, tid, (Var(L, 0),)), Meta(L, eid, (Var(L, 0),)),
             Const(L, "a"), Const(L, "f"), Const(L, "unbound")]
    for t in fixed:
        for is_essence in (False, True):
            assert whnf(phi, ctx, t, is_essence) is t
    assert entered == []
    # a solved meta and a definition still reduce, through the evaluator
    assert whnf(phi, ctx, Meta(L, solved, (Var(L, 0),))) == Const(L, "a")
    assert whnf(phi, ctx, Const(L, "d")) == P("f a")
    assert len(entered) == 2


def test_whnf_gives_back_a_neutral_term_without_starting_the_evaluator(monkeypatch):
    # A declared variable, applied or not, and an axiom applied are already
    # head views; a let-bound variable and a defined constant still unfold.
    genv = make_test_genv()
    define(genv, "d", "fun (z : A) => f z")
    ctx = (LocalEnv().push_decl("x", P("A -> B -> A"))
           .push_def("y", P("a"), Const(L, "A")))
    x, y = Var(L, 1), Var(L, 0)
    neutral = [x, mk_app(L, x, (P("a"), P("b"))), mk_app(L, P("f"), (P("a"),))]

    def no_machine(*_args):
        raise AssertionError("whnf started the evaluator")

    with monkeypatch.context() as patch:
        patch.setattr(normalize, "_Machine", no_machine)
        for t in neutral:
            for is_essence in (False, True):
                assert whnf(MetaEnv(genv), ctx, t, is_essence) is t
    assert whnf(MetaEnv(genv), ctx, y) == P("a")
    assert whnf(MetaEnv(genv), ctx, mk_app(L, P("d"), (P("a"),))) == P("f a")
