"""Bidirectional refinement: inference, checking, type forcing, and the
essence phase, against the worked examples."""

import io
import random

import pytest

from proofun.env import (
    EssDef, EssenceEnv, GlobalEnv, LocalEnv, MetaEnv, TypedDecl,
)
from proofun.errors import (
    EssenceMismatch, TypeCheckError, UnresolvedMeta,
)
from proofun.normalize import strongly_normalize, zonk
from proofun.parser import fix_index, parse_term
from proofun.pretty import render_error, show_term
from proofun.repl import Session, run_source
from proofun.refine import (
    elaborate, elaborate_type, essence, essence_with_hint, force_type,
    reconstruct, reconstruct_with_type,
)
from proofun.syntax import (
    Abs, Meta, NOWHERE, Underscore,
    contains_meta, same_term, sort_kind, sort_type,
)

from helpers import P, axiom, define, make_test_genv, random_refined_term

L = NOWHERE


def fresh_genv():
    genv = GlobalEnv()
    axiom(genv, "nat", "Type")
    axiom(genv, "0", "nat")
    axiom(genv, "eq", "nat -> nat -> Type")
    axiom(genv, "eq_refl", "forall x : nat, eq x x")
    return genv


# ------------- reconstruct -------------


def test_type_has_kind():
    t, ty, phi = reconstruct(MetaEnv(), GlobalEnv(), LocalEnv(), sort_type())
    assert ty == sort_kind(ty.loc)
    assert phi.entries == {}


def test_kind_is_not_typable():
    with pytest.raises(TypeCheckError):
        reconstruct(MetaEnv(), GlobalEnv(), LocalEnv(), sort_kind())


def test_wildcard_mints_term_and_type_metas():
    genv = GlobalEnv()
    ctx = LocalEnv().push_decl("v", sort_type())
    t, ty, phi = reconstruct(MetaEnv(), genv, ctx, Underscore(L))
    assert isinstance(t, Meta) and isinstance(ty, Meta)
    assert len(t.susp) == 1 and len(ty.susp) == 1  # suspended over the context
    assert len(phi.entries) == 3  # sort meta, type meta, term meta


def test_unknown_identifier_blamed():
    with pytest.raises(TypeCheckError) as info:
        reconstruct(MetaEnv(), GlobalEnv(), LocalEnv(), P("mystery"))
    assert 'unknown identifier "mystery"' in info.value.message


def test_eq_refl_worked_example():
    genv = fresh_genv()
    result = elaborate(genv, P("eq_refl _"), P("eq _ 0"))
    assert show_term(result.term) == "eq_refl 0"
    assert show_term(result.type) == "eq 0 0"
    assert show_term(result.essence) == "eq_refl 0"


def test_application_not_a_function():
    genv = fresh_genv()
    with pytest.raises(TypeCheckError) as info:
        elaborate(genv, P("0 0"))
    assert "cannot be applied" in info.value.message


def test_products_respect_the_sort_discipline():
    genv = fresh_genv()
    # term-level product and type-family product are fine
    elaborate_type(genv, P("nat -> nat"))
    elaborate_type(genv, P("nat -> Type"))
    # abstracting over all of Type needs (Kind, _), which is not allowed
    with pytest.raises(TypeCheckError):
        elaborate(genv, P("fun x : Type => x"))


def test_abstraction_sort_discipline_messages_and_spans():
    session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(session, "Axiom (A : Type) (P : A -> Type) (a : A).")
    discipline = "this product is not allowed by the sort discipline"
    rejected = [
        # (body, caret column, caret width, message)
        ("fun (X : Type) => X", 17, 19, discipline),
        ("fun (x : A) => Type", 32, 4, "Kind itself has no type"),
        ("fun (x : A) => fun (X : Type) => X", 32, 19, discipline),
        ("fun (f : A -> Type) => f", 17, 24, discipline),
    ]
    for body, column, width, message in rejected:
        session.err = io.StringIO()
        line = f"Definition d := {body}."
        assert not run_source(session, line)
        caret = " " * (column - 1) + "^" * width
        assert session.err.getvalue() == f"{line}\n{caret}\nError: {message}\n"
    accepted = [
        ("fun (x : A) => P", "A -> A -> Type", "fun x : A => P"),
        ("fun (x : A) (y : P x) => y",
         "forall x : A, P x -> P x", "fun x : A => fun y : P x => y"),
        ("fun (x : A) => (fun (y : _) => y) x",
         "A -> A", "fun x : A => (fun y : A => y) x"),
    ]
    for i, (body, ty, printed) in enumerate(accepted):
        assert run_source(session, f"Definition d{i} := {body}.")
        session.out = io.StringIO()
        assert run_source(session, f"Print d{i}.")
        assert session.out.getvalue() == f"d{i} : {ty}\nd{i} := {printed}\n"


def test_let_infers_and_substitutes():
    genv = fresh_genv()
    result = elaborate(genv, P("let n : nat := 0 in eq_refl n"))
    assert show_term(result.type) == "eq 0 0"


def test_annotation_must_be_a_type():
    genv = fresh_genv()
    with pytest.raises(TypeCheckError) as info:
        elaborate(genv, P("fun x : eq_refl => x"))
    assert "is not a type" in info.value.message


# ------------- force_type -------------


def test_force_type_on_type_itself():
    t, sort, phi = force_type(MetaEnv(), GlobalEnv(), LocalEnv(), sort_type())
    assert same_term(zonk(phi, sort), sort_kind())


def test_force_type_on_atom():
    genv = fresh_genv()
    t, sort, phi = force_type(MetaEnv(), genv, LocalEnv(), P("nat"))
    assert same_term(zonk(phi, sort), sort_type())


def test_force_type_on_wildcard_yields_sort_meta():
    genv = fresh_genv()
    t, sort, phi = force_type(MetaEnv(), genv, LocalEnv(), Underscore(L))
    resolved = zonk(phi, sort)
    assert isinstance(resolved, Meta)
    from proofun.env import SortDecl
    assert isinstance(phi.lookup(resolved.mid), SortDecl)


def test_force_type_rejects_terms():
    genv = fresh_genv()
    with pytest.raises(TypeCheckError):
        force_type(MetaEnv(), genv, LocalEnv(), P("0"))


# ------------- reconstruct_with_type -------------


def test_checking_abs_against_product():
    genv = fresh_genv()
    t, phi = reconstruct_with_type(MetaEnv(), genv, LocalEnv(),
                                   P("fun x => x"), P("nat -> nat"))
    assert isinstance(t, Abs)
    assert same_term(zonk(phi, t.domain), P("nat"))


def test_checking_wildcard_against_expected_type():
    genv = fresh_genv()
    t, phi = reconstruct_with_type(MetaEnv(), genv, LocalEnv(),
                                   Underscore(L), P("nat"))
    assert isinstance(t, Meta)
    entry = phi.lookup(t.mid)
    assert same_term(entry.type, P("nat"))


def test_checking_abs_with_wrong_domain_fails_at_domain():
    genv = make_test_genv()
    with pytest.raises(TypeCheckError):
        reconstruct_with_type(MetaEnv(), genv, LocalEnv(),
                              P("fun x : A => x"), P("B -> B"))


def test_error_message_blames_innermost_subterm():
    genv = GlobalEnv()
    axiom(genv, "bool", "Type")
    axiom(genv, "nat", "Type")
    axiom(genv, "f", "(bool -> nat -> bool) -> bool")
    src = "f (fun x y => y)"
    with pytest.raises(TypeCheckError) as info:
        elaborate(genv, fix_index(parse_term(src)))
    expected = (
        "f (fun x y => y)\n"
        "              ^\n"
        'Error: the term "y" has type "nat" while it is expected to have '
        'type "bool".'
    )
    assert render_error(src, info.value) == expected


def test_coercion_requires_subtyping():
    genv = make_test_genv()
    result = elaborate(genv, P("coe (A | B) a"))
    assert show_term(result.type) == "A | B"
    with pytest.raises(TypeCheckError) as info:
        elaborate(genv, P("coe B a"))
    assert "not a subtype" in info.value.message


def test_strong_pair_checking_mode():
    genv = make_test_genv()
    result = elaborate(genv, P("<fun x : A => x, fun x : B => x>"),
                       P("(A -> A) & (B -> B)"))
    assert show_term(result.essence) == "fun x => x"


def test_projection_inference_and_checking():
    genv = make_test_genv()
    axiom(genv, "both", "(A -> A) & (B -> B)")
    result = elaborate(genv, P("proj_l both"))
    assert show_term(result.type) == "A -> A"
    result = elaborate(genv, P("(proj_r both) b"))
    assert show_term(result.type) == "B"


def test_injection_checking_unifies_other_component():
    genv = make_test_genv()
    result = elaborate(genv, P("inj_l B a"), P("A | B"))
    assert show_term(result.type) == "A | B"
    with pytest.raises(TypeCheckError):
        elaborate(genv, P("inj_l B a"), P("B | A"))  # payload side mismatch


def test_unresolved_domain_reports_unsolved_meta():
    genv = make_test_genv()
    with pytest.raises(UnresolvedMeta):
        elaborate(genv, P("fun x => x"))


# ------------- the strong-pair example of the introduction -------------


def test_strong_pair_hole_gets_type_and_essence_constraint():
    genv = GlobalEnv()
    axiom(genv, "s", "Type")
    axiom(genv, "t", "Type")
    phi = MetaEnv()
    ctx = LocalEnv()
    term, phi = reconstruct_with_type(
        phi, genv, ctx, P("<fun x : s => x, fun x : t => _>"),
        P("(s -> s) & (t -> t)"))
    # Phase 1: the hole is a typed meta of type t in the context x : t.
    hole = term.right.body
    assert isinstance(hole, Meta)
    entry = phi.lookup(hole.mid)
    assert isinstance(entry, TypedDecl)
    assert same_term(entry.type, P("t"))
    assert len(entry.ctx) == 1
    # Phase 2: its essence companion is constrained to the bound variable x.
    with pytest.raises(UnresolvedMeta):
        # the hole itself can never be solved, but the essence phase runs first
        _finish(genv, phi, term)
    phi2 = _essence_phi(genv, phi, term)
    eid = phi2.companions[hole.mid]
    companion = phi2.lookup(eid)
    assert isinstance(companion, EssDef)
    from proofun.syntax import Var
    assert same_term(companion.essence, Var(L, 0))


def _essence_phi(genv, phi, term):
    _m, phi = essence(phi, genv, EssenceEnv(), zonk(phi, term))
    return phi


def _finish(genv, phi, term):
    from proofun.refine import _check_meta_free
    _m, phi = essence(phi, genv, EssenceEnv(), zonk(phi, term))
    _check_meta_free(zonk(phi, term), L)


# ------------- essence phase -------------


def test_essence_transparent_through_proofs():
    genv = make_test_genv()
    axiom(genv, "both", "(A -> A) & (B -> B)")
    result = elaborate(genv, P("proj_l both"))
    assert show_term(result.essence) == "both"


def test_essence_of_polymorphic_identity():
    genv = GlobalEnv()
    axiom(genv, "s", "Type")
    axiom(genv, "t", "Type")
    result = elaborate(genv, P("<fun x : s => x, fun x : t => x>"),
                       P("(s -> s) & (t -> t)"))
    assert show_term(result.essence) == "fun x => x"


def test_essence_mismatch_one_vs_two_abstractions():
    genv = GlobalEnv()
    axiom(genv, "A", "Type")
    with pytest.raises(EssenceMismatch):
        elaborate(genv, P("<fun x : A => x, fun x : A => fun y : A => y>"))


def test_union_elimination_rejects_i_vs_k_essences():
    genv = GlobalEnv()
    axiom(genv, "A", "Type")
    axiom(genv, "z", "A | A")
    src = ("smatch z with x : A => inj_l (A -> A -> A) (fun y : A => y), "
           "x : A => inj_r (A -> A) (fun y : A => fun w : A => w) end")
    with pytest.raises(EssenceMismatch):
        elaborate(genv, P(src))


def test_smatch_essence_shape():
    genv = GlobalEnv()
    axiom(genv, "A", "Type")
    axiom(genv, "u", "A | A")
    axiom(genv, "q", "A -> A")
    src = "smatch u with x : A => q x, x : A => q x end"
    result = elaborate(genv, P(src))
    assert show_term(result.essence) == "(fun x => q x) u"


def test_hint_checking_through_projection():
    genv = make_test_genv()
    axiom(genv, "d", "(A -> A) & (B -> B)")
    phi = MetaEnv()
    # hint (fun x => x)'s body x against proj_r d: transparent, then the
    # global essence of d is the constant itself, eta-equal to fun x => x? No:
    # d is an axiom, so its essence is d itself and the hint fails.
    with pytest.raises(EssenceMismatch):
        essence_with_hint(phi, genv, EssenceEnv(), P("fun x => x"),
                          P("proj_r d"))


def test_hint_checking_succeeds_via_definition_unfolding():
    genv = make_test_genv()
    define(genv, "idA", "fun x : A => x")
    phi = essence_with_hint(MetaEnv(), genv, EssenceEnv(), P("fun x => x"),
                            P("idA"))
    assert phi.entries == {}


# ------------- whole-pipeline properties -------------


def test_outputs_are_meta_free():
    genv = make_test_genv()
    rng = random.Random(67)
    for _ in range(100):
        t, ty = random_refined_term(rng)
        result = elaborate(genv, t, ty)
        for part in (result.term, result.type, result.essence,
                     result.type_essence):
            assert not contains_meta(part)


def test_recheck_stability():
    genv = make_test_genv()
    rng = random.Random(71)
    for _ in range(100):
        t, ty = random_refined_term(rng)
        first = elaborate(genv, t, ty)
        second = elaborate(genv, first.term, first.type)
        assert same_term(first.term, second.term)


def test_checking_accepts_what_inference_produced():
    genv = make_test_genv()
    rng = random.Random(73)
    for _ in range(100):
        t, _ty = random_refined_term(rng)
        inferred = elaborate(genv, t)
        again = elaborate(genv, t, inferred.type)
        assert same_term(inferred.term, again.term)


def test_subject_reduction_on_random_terms():
    genv = make_test_genv()
    rng = random.Random(79)
    for _ in range(100):
        t, ty = random_refined_term(rng)
        result = elaborate(genv, t, ty)
        reduced = strongly_normalize(False, genv, LocalEnv(), result.term)
        re_elab = elaborate(genv, reduced, result.type)
        assert same_term(
            strongly_normalize(False, genv, LocalEnv(), re_elab.term), reduced)


# ------------- corpus-level properties -------------


def _corpus_definitions():
    import io
    from proofun.env import AxiomInfo
    from proofun.repl import Session, load_file
    from helpers import CORPUS_FILES, corpus_path
    for name in CORPUS_FILES:
        s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(s, corpus_path(name))
        for const, info in s.genv.items():
            if not isinstance(info, AxiomInfo):
                yield s.genv, const, info


def test_corpus_recheck_stability():
    for genv, const, info in _corpus_definitions():
        again = elaborate(genv, info.body, info.type)
        assert same_term(again.term, info.body), const
        assert same_term(again.type, info.type), const


def test_corpus_subject_reduction():
    for genv, const, info in _corpus_definitions():
        reduced = strongly_normalize(False, genv, LocalEnv(), info.body)
        again = elaborate(genv, reduced, info.type)
        norm = lambda t: strongly_normalize(False, genv, LocalEnv(), t)
        assert same_term(norm(again.type), norm(info.type)), const


def test_corpus_strong_pairs_have_beta_equal_component_essences():
    from proofun.syntax import Abs, Let, Prod, SMatch, SPair, children
    from proofun.env import EssenceEnv
    found = 0

    def walk(genv, psi, t):
        nonlocal found
        if isinstance(t, SPair):
            e1, phi = essence(MetaEnv(), genv, psi, t.left)
            e2, phi = essence(phi, genv, psi, t.right)
            n1 = strongly_normalize(True, genv, psi, e1)
            n2 = strongly_normalize(True, genv, psi, e2)
            assert same_term(n1, n2)
            found += 1
        match t:
            case Let(_, name, annot, bound, body):
                walk(genv, psi, annot)
                walk(genv, psi, bound)
                m, _phi = essence(MetaEnv(), genv, psi, bound)
                walk(genv, psi.push_def(name, m), body)
            case Abs(_, name, dom, body) | Prod(_, name, dom, body):
                walk(genv, psi, dom)
                walk(genv, psi.push_bare(name), body)
            case SMatch(_, scr, mot, n1_, a1, b1, n2_, a2, b2):
                for c in (scr, mot, a1, a2):
                    walk(genv, psi, c)
                walk(genv, psi.push_bare(n1_), b1)
                walk(genv, psi.push_bare(n2_), b2)
            case _:
                for c in children(t):
                    walk(genv, psi, c)

    for genv, const, info in _corpus_definitions():
        walk(genv, EssenceEnv(), info.body)
    assert found >= 1  # the polymorphic identity's pair at least


def test_refiner_output_keeps_spines_merged():
    from proofun.syntax import App, subterms
    genv = make_test_genv()
    rng = random.Random(97)
    for _ in range(60):
        t, ty = random_refined_term(rng)
        result = elaborate(genv, t, ty)
        for part in (result.term, result.type):
            for sub in subterms(part):
                if isinstance(sub, App):
                    assert not isinstance(sub.head, App)


def test_meta_var_rule_rederives_suspended_type():
    genv = make_test_genv()
    ctx = LocalEnv().push_decl("u", P("A"))
    mctx = LocalEnv().push_decl("w", P("A"))
    phi, mid = MetaEnv().fresh_meta(TypedDecl(mctx, P("B")))
    from proofun.syntax import Var
    term = Meta(L, mid, (Var(L, 0),))
    out, ty, phi2 = reconstruct(phi, genv, ctx, term)
    assert isinstance(out, Meta) and out.mid == mid
    assert same_term(ty, P("B"))
    # the suspension was checked: a badly typed suspension is rejected
    with pytest.raises(TypeCheckError):
        reconstruct(phi, genv, ctx, Meta(L, mid, (P("b"),)))


def test_refiner_threading_is_monotone():
    from test_unify import assert_monotone
    genv = make_test_genv()
    phi = MetaEnv()
    t1, ty1, phi1 = reconstruct(phi, genv, LocalEnv(), P("fun x : A => _"))
    assert_monotone(phi, phi1)
    t2, phi2 = reconstruct_with_type(phi1, genv, LocalEnv(),
                                     P("fun x : A => x"), P("A -> A"))
    assert_monotone(phi1, phi2)


def test_default_rule_checks_conversion_through_definitions():
    # The expected and inferred types differ syntactically but agree after
    # unfolding a definition and beta-reducing.
    import io
    from proofun.repl import Session, run_source
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, """
        Axiom (o : Type) (atom : o -> Type) (i j : o).
        Definition fst2 (x : o) (y : o) := x.
        Definition conv : atom (fst2 i j) -> atom i :=
            fun h : atom (fst2 i j) => h.
        Definition back : atom i -> atom (fst2 i j) :=
            fun h : atom i => h.
    """), s.err.getvalue()


def test_unresolved_meta_blames_the_hole_location():
    genv = make_test_genv()
    from proofun.errors import UnresolvedMeta as UM
    src = "fun q => q"
    with pytest.raises(UM) as info:
        elaborate(genv, fix_index(parse_term(src)))
    assert info.value.loc is not None


def test_dependent_smatch_motive():
    import io
    from proofun.repl import Session, run_source
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, """
        Axiom (A B : Type) (P : A | B -> Type).
        Axiom p : forall z : A | B, P z.
        Axiom u : A | B.
        Definition dep := smatch u as z return P z
            with x : A => p (inj_l B x), y : B => p (inj_r A y) end.
    """), s.err.getvalue()
    info = s.genv.lookup("dep")
    from proofun.pretty import show_term
    assert show_term(info.type) == "P u"
    # the two branches share the essence p z, so the essence of the match
    # is the redex (fun x => p x) u
    assert show_term(info.essence) == "(fun x => p x) u"


def test_dependent_smatch_rejects_unshared_branch_essences():
    import io
    from proofun.repl import Session, run_source
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert not run_source(s, """
        Axiom (A B : Type) (P : A | B -> Type).
        Axiom pa : forall x : A, P (inj_l B x).
        Axiom pb : forall y : B, P (inj_r A y).
        Axiom u : A | B.
        Definition dep := smatch u as z return P z
            with x : A => pa x, y : B => pb y end.
    """)
    assert "essence" in s.err.getvalue()


def test_smatch_on_non_union_scrutinee_blamed():
    genv = make_test_genv()
    with pytest.raises(TypeCheckError) as info:
        elaborate(genv, P("smatch a with x : A => x, y : A => y end"))
    assert "expected to have type" in info.value.message


def test_lf_encoding_families_share_one_essence():
    # The point of the shallow framework encoding: every coerced family
    # member erases to the same underlying term.
    import io
    from proofun.repl import Session, load_file
    from helpers import corpus_path
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert load_file(s, corpus_path("lf_encoding.bull"))
    psi = EssenceEnv()

    def normal_essence(name):
        info = s.genv.lookup(name)
        return strongly_normalize(True, s.genv, psi, info.essence)

    from proofun.pretty import show_term
    families = {
        ("obj", "fam", "knd", "sup"): "term same",
        ("star", "sqre"): "tp",
        ("lam_1", "lam_2"): "lam",
        ("pi_1", "pi_2"): "pi",
        ("app_1", "app_2"): "app",
    }
    for group, shared in families.items():
        base = normal_essence(group[0])
        assert show_term(base) == shared
        for other in group[1:]:
            assert same_term(base, normal_essence(other)), (group[0], other)
