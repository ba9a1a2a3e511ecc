"""Bidirectional refinement: inference, checking, type forcing, and the
essence phase, against the worked examples."""

import io
import random
import sys
from types import FunctionType

import pytest

import proofun
from proofun import refine
from proofun.env import EssMeta, GlobalEnv, LocalEnv, MetaEnv, SortMeta, TypedMeta
from proofun.errors import (
    TOO_DEEP, EssenceMismatch, ProverError, TypeCheckError, UnresolvedMeta,
)
from proofun.normalize import strongly_normalize, whnf, zonk
from proofun.parser import fix_index, parse_term
from proofun.pretty import render_error, show_term
from proofun.repl import Session, load_file, run_source
from proofun.refine import (
    elaborate, elaborate_type, essence, essence_with_hint, force_type,
    reconstruct, reconstruct_with_type,
)
from proofun.subtype import is_subtype
from proofun.syntax import (
    Abs, App, Const, Inter, Location, Meta, NOWHERE, Prod, Sort, SPrLeft, Term,
    Underscore, Union, Var, contains_meta, sort_kind, sort_type, visit_term,
)
from proofun.unify import unify

from helpers import (
    CORPUS_FILES, P, axiom, corpus_path, define, essence_outcome, force_type_outcome,
    make_test_genv, random_refined_term, reference_essence, reference_force_type,
)
from test_growth import FAMILIES

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
    phi = MetaEnv(GlobalEnv())
    t, ty = reconstruct(phi, LocalEnv(), sort_type())
    assert ty == sort_kind(ty.loc)
    assert phi.entries == {}


def test_kind_is_not_typable():
    with pytest.raises(TypeCheckError):
        reconstruct(MetaEnv(GlobalEnv()), LocalEnv(), sort_kind())


def test_wildcard_mints_term_and_type_metas():
    genv = GlobalEnv()
    ctx = LocalEnv().push_decl("v", sort_type())
    phi = MetaEnv(genv)
    t, ty = reconstruct(phi, ctx, Underscore(L))
    assert isinstance(t, Meta) and isinstance(ty, Meta)
    assert len(t.susp) == 1 and len(ty.susp) == 1  # suspended over the context
    assert len(phi.entries) == 3  # sort meta, type meta, term meta


def test_unknown_identifier_blamed():
    with pytest.raises(TypeCheckError) as info:
        reconstruct(MetaEnv(GlobalEnv()), LocalEnv(), P("mystery"))
    assert 'unknown identifier "mystery"' in info.value.message


def test_eq_refl_worked_example():
    genv = fresh_genv()
    result = elaborate(genv, P("eq_refl _"), P("eq _ 0"))
    assert show_term(result.body) == "eq_refl 0"
    assert show_term(result.type) == "eq 0 0"
    assert show_term(result.essence) == "eq_refl 0"


def test_application_not_a_function():
    genv = fresh_genv()
    with pytest.raises(TypeCheckError) as info:
        elaborate(genv, P("0 0"))
    assert "cannot be applied" in info.value.message


@pytest.mark.parametrize("command, column, width, message", [
    ("Definition d := a a.", 17, 1, 'the term "a" has type "A" and cannot be applied'),
    ("Definition d := f a b.", 17, 5, 'the term "f a" has type "A" and cannot be applied'),
    ("Definition d := proj_l a.", 24, 1,
     'the term "a" has type "A" while it is expected to have an intersection type'),
    ("Definition d := smatch a return A with x : A => x, y : B => a end.", 24, 1,
     'the term "a" has type "A" while it is expected to have type "A | B".'),
    ("Definition d := coe B a.", 23, 1, 'the term "a" has type "A" which is not a subtype of "B"'),
    ("Definition d := f b.", 19, 1,
     'the term "b" has type "B" while it is expected to have type "A".'),
    ("Definition d := fun (x : a) => x.", 26, 1, 'the term "a" is not a type'),
    ("Definition d : A -> A := fun (x : B) => x.", 35, 1,
     'the domain "B" does not match the expected domain "A"'),
    ("Definition d : A | B := inj_l A a.", 31, 1,
     'the annotation "A" does not match the union component "B"'),
    ("Definition d := <a, b>.", 21, 1,
     'the term has essence "b" while it is expected to have essence "a"'),
    ("Definition k : A := <a, a>.", 21, 6,
     'the term "<a, a>" has type "A & A" while it is expected to have type "A".'),
], ids=["spine", "spine_of_two", "projection", "smatch", "coe", "checking", "not_a_type",
        "domain", "injection", "essence", "pair_not_intersection"])
def test_has_type_messages_are_exact(command, column, width, message):
    # The whole report: the echoed command, the caret under the blamed
    # subterm, and the message.
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom (A B : Type) (a : A) (b : B) (f : A -> A).")
    assert not run_source(s, command)
    caret = " " * (column - 1) + "^" * width
    assert s.err.getvalue() == f"{command}\n{caret}\nError: {message}\n"


def test_a_failed_unification_is_reported_before_its_partial_solutions():
    # Unifying `P ?0 ?0` with `P a b` solves `?0 := a` before `a` meets `b`;
    # the message shows the types as they were before that unification.
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom (A : Type) (P : A -> A -> Type) (a b : A)"
                         " (q : forall (x : A), P x x) (g : P a b -> A).")
    command = "Definition d := g (q _)."
    assert not run_source(s, command)
    assert s.err.getvalue() == (
        f"{command}\n{' ' * 19}^^^\nError: the term \"q ?0[]\" has type \"P ?0[] ?0[]\""
        ' while it is expected to have type "P a b".\n')


_KIND_NOT_TYPE = 'the term "{}" has type "Kind" while it is expected to have type "Type".'


@pytest.mark.parametrize("command, column, width, message", [
    ("Definition k := <a, A -> A>.", 21, 6, _KIND_NOT_TYPE.format("Type")),
    ("Definition k := <fun (x : A) => x, fun (x : A) => A & B>.", 36, 20,
     _KIND_NOT_TYPE.format("A -> Type")),
    ("Definition k : A & (A -> Type) := <a, fun (x : A) => A | B>.", 21, 9,
     _KIND_NOT_TYPE.format("A -> Type")),
    ("Definition k := <a, inj_l B (A -> A)>.", 30, 6, _KIND_NOT_TYPE.format("Type")),
], ids=["product", "intersection", "union", "injected_product"])
def test_a_type_in_a_strong_pair_is_rejected_by_the_typing_phase(command, column, width, message):
    # The essence phase checks a pair's components only after the typing
    # phase has succeeded, and only at positions whose type has sort `Type`.
    # A product, `&` or `|` has a sort as its type, so the typing phase
    # rejects these pairs before any essence is compared.
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom (A B : Type) (a : A) (b : B) (f : A -> A).")
    raised = []
    s.report = lambda text, error: raised.append(type(error)) or Session.report(s, text, error)
    assert not run_source(s, command)
    assert raised == [TypeCheckError]
    caret = " " * (column - 1) + "^" * width
    assert s.err.getvalue() == f"{command}\n{caret}\nError: {message}\n"


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


def test_inferred_let_type_has_no_solved_meta():
    # The bound term is substituted into the body's type with its solved
    # metas expanded, so an unannotated `let` (whose declared type is a
    # wildcard, solved by the bound term) gives back a meta-free type.
    genv = GlobalEnv()
    axiom(genv, "A", "Type")
    axiom(genv, "g", "A -> A")
    axiom(genv, "a", "A")
    _t, ty = reconstruct(MetaEnv(genv), LocalEnv(), P("let y := g a in y"))
    assert not contains_meta(ty)
    assert show_term(ty) == "A"


def test_annotation_must_be_a_type():
    genv = fresh_genv()
    with pytest.raises(TypeCheckError) as info:
        elaborate(genv, P("fun x : eq_refl => x"))
    assert "is not a type" in info.value.message


# ------------- force_type -------------


def test_force_type_on_type_itself():
    phi = MetaEnv(GlobalEnv())
    t, sort = force_type(phi, LocalEnv(), sort_type())
    assert zonk(phi, sort) == sort_kind()


def test_force_type_on_atom():
    genv = fresh_genv()
    phi = MetaEnv(genv)
    t, sort = force_type(phi, LocalEnv(), P("nat"))
    assert zonk(phi, sort) == sort_type()


def test_force_type_on_wildcard_yields_sort_meta():
    genv = fresh_genv()
    phi = MetaEnv(genv)
    t, sort = force_type(phi, LocalEnv(), Underscore(L))
    resolved = zonk(phi, sort)
    assert isinstance(resolved, Meta)
    assert phi.lookup(resolved.mid) == SortMeta()


def test_force_type_rejects_terms():
    genv = fresh_genv()
    with pytest.raises(TypeCheckError):
        force_type(MetaEnv(genv), LocalEnv(), P("0"))


def _sort_decision_cases():
    """(name, meta-environment, context, term) for the sort decision: sorts
    behind definitions and solved metas, flexible types and non-types."""
    genv = fresh_genv()
    define(genv, "T", "Type")
    axiom(genv, "a", "T")
    axiom(genv, "b", "a")
    empty, ctx = LocalEnv(), LocalEnv().push_decl("x", P("nat"))
    phi = MetaEnv(genv)
    zid = phi.fresh_meta(SortMeta())
    phi.instantiate_meta(zid, sort_type())
    yid = phi.fresh_meta(TypedMeta(empty, Meta(L, zid, ())))
    kid = phi.fresh_meta(TypedMeta(empty, sort_kind()))
    phi.instantiate_meta(kid, sort_type())
    tid = phi.fresh_meta(TypedMeta(empty, Meta(L, kid, ())))
    sid = phi.fresh_meta(SortMeta())
    vid = phi.fresh_meta(TypedMeta(empty, Meta(L, sid, ())))
    # A meta over (x : nat) whose type is a type meta; used at `0` below, so
    # the suspension of that type is not a variable.
    fid = phi.fresh_meta(TypedMeta(ctx, sort_kind()))
    gid = phi.fresh_meta(TypedMeta(ctx, Meta(L, fid, (Var(L, 0),))))
    cases = [
        ("Type", MetaEnv(genv), empty, sort_type()),
        ("Kind", MetaEnv(genv), empty, sort_kind()),
        ("atom", MetaEnv(genv), empty, P("nat")),
        ("definition of a sort", MetaEnv(genv), empty, P("T")),
        ("sort behind a definition", MetaEnv(genv), empty, P("a")),
        ("term of a defined type", MetaEnv(genv), empty, P("b")),
        ("solved sort meta", phi, empty, Meta(L, yid, ())),
        ("solved typed meta", phi, empty, Meta(L, tid, ())),
        ("unsolved sort meta", phi, empty, Meta(L, vid, ())),
        ("meta of a flexible type", phi, empty, Meta(L, gid, (P("0"),))),
        ("wildcard", MetaEnv(genv), empty, Underscore(L)),
        ("wildcard under a binder", MetaEnv(genv), ctx, Underscore(L)),
        ("product into Kind", MetaEnv(genv), empty, P("nat -> Type")),
        ("product out of Kind", MetaEnv(genv), empty, P("Type -> Type")),
        ("dependent product", MetaEnv(genv), empty, P("forall x : nat, eq x x")),
        ("non-type", MetaEnv(genv), empty, P("0")),
        ("type family", MetaEnv(genv), empty, P("eq 0")),
        ("variable of a non-sort", MetaEnv(genv), ctx, Var(L, 0)),
    ]
    return genv, cases


def test_sort_decision_agrees_with_the_two_probe_reference():
    _genv, cases = _sort_decision_cases()
    outcomes = {}
    for name, phi, ctx, t in cases:
        outcomes[name] = force_type_outcome(force_type, phi, ctx, t)
        assert outcomes[name] == \
            force_type_outcome(reference_force_type, phi, ctx, t), name
    assert outcomes["non-type"] == ("TypeCheckError", 'the term "0" is not a type',
                                    Location("<input>", 0, 1))
    assert outcomes["term of a defined type"][1] == 'the term "b" is not a type'
    assert outcomes["Kind"][1] == "Kind itself has no type"
    assert outcomes["product out of Kind"][1] == \
        "this product is not allowed by the sort discipline"
    # `_` comes back as a typed meta whose type is solved to a sort meta.
    for name in ("wildcard", "wildcard under a binder"):
        t2, sort, (entries, _companions) = outcomes[name]
        assert isinstance(t2, Meta) and isinstance(sort, Meta)
        assert entries[entries[sort.mid].value.mid] == SortMeta()


def test_sort_decision_agrees_with_the_reference_on_corpus_calls(monkeypatch):
    # Every top-level `force_type` call made while checking the corpus and
    # the growth-test shapes is decided by both; nested calls inside a
    # comparison run unchecked.  A product chain is one call, not one per
    # codomain, so the corpus alone makes 326 calls.
    original, busy, compared = refine.force_type, False, 0

    def checking(phi, ctx, t):
        nonlocal busy, compared
        if not busy:
            busy = True
            try:
                new = force_type_outcome(original, phi, ctx, t)
                old = force_type_outcome(reference_force_type, phi, ctx, t)
            finally:
                busy = False
            assert new == old, t
            compared += 1
        return original(phi, ctx, t)

    monkeypatch.setattr(refine, "force_type", checking)
    for name in CORPUS_FILES:
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(session, corpus_path(name)), session.err.getvalue()
    for family, size in FAMILIES:
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert run_source(session, family(size // 4 or 1)), session.err.getvalue()
    assert compared > 400


def test_a_sort_is_read_without_unifying(monkeypatch):
    genv, _cases = _sort_decision_cases()
    posed = []

    def counting(*args, **kwargs):
        posed.append(args)
        return unify(*args, **kwargs)

    monkeypatch.setattr(refine, "unify", counting)
    for src in ("Type", "nat", "T", "a", "nat -> Type", "nat -> nat"):
        phi = MetaEnv(genv)
        t, sort = force_type(phi, LocalEnv(), P(src))
        assert isinstance(whnf(phi, LocalEnv(), sort), Sort), src
    assert posed == []


# ------------- reconstruct_with_type -------------


def test_checking_abs_against_product():
    genv = fresh_genv()
    phi = MetaEnv(genv)
    t = reconstruct_with_type(phi, LocalEnv(), P("fun x => x"), P("nat -> nat"))
    assert isinstance(t, Abs)
    assert zonk(phi, t.domain) == P("nat")


def test_checking_wildcard_against_expected_type():
    genv = fresh_genv()
    phi = MetaEnv(genv)
    t = reconstruct_with_type(phi, LocalEnv(), Underscore(L), P("nat"))
    assert isinstance(t, Meta)
    entry = phi.lookup(t.mid)
    assert entry.type == P("nat")


def test_checking_abs_with_wrong_domain_fails_at_domain():
    genv = make_test_genv()
    with pytest.raises(TypeCheckError):
        reconstruct_with_type(MetaEnv(genv), LocalEnv(),
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


def test_projection_of_a_flexible_type_infers_its_component():
    # `q` has a hole for its type, so `proj_l q` unifies that hole with an
    # intersection of two fresh ones; the application then solves them.
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom (A : Type) (a : A).")
    assert run_source(s, "Definition e := (fun q => proj_l q) (coe (A & A) a)."), s.err.getvalue()
    assert show_term(s.genv.lookup("e").type) == "A"


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
    phi = MetaEnv(genv)
    ctx = LocalEnv()
    term = reconstruct_with_type(
        phi, ctx, P("<fun x : s => x, fun x : t => _>"),
        P("(s -> s) & (t -> t)"))
    # Phase 1: the hole is a typed meta of type t in the context x : t.
    hole = term.right.body
    assert isinstance(hole, Meta)
    entry = phi.lookup(hole.mid)
    assert isinstance(entry, TypedMeta) and entry.value is None
    assert entry.type == P("t")
    assert len(entry.ctx) == 1
    # Phase 2: its essence companion is constrained to the bound variable x.
    mark = phi.mark()
    with pytest.raises(UnresolvedMeta):
        # the hole itself can never be solved, but the essence phase runs first
        _finish(phi, term)
    phi.undo(mark)
    essence(phi, LocalEnv(), zonk(phi, term))
    eid = phi.companions[hole.mid]
    companion = phi.lookup(eid)
    assert isinstance(companion, EssMeta) and companion.value is not None
    from proofun.syntax import Var
    assert companion.value == Var(L, 0)


def _finish(phi, term):
    from proofun.refine import _check_meta_free
    essence(phi, LocalEnv(), zonk(phi, term))
    _check_meta_free(zonk(phi, term), L)


@pytest.mark.parametrize("src", ["forall (x : A), A -> B", "(A -> A) & (B | A)", "h (f a) b",
                                 "fun (x : A) (y : B) => h x y"])
def test_refinement_gives_back_a_term_it_does_not_change(src):
    genv = make_test_genv()
    t = P(src)
    t2, ty = reconstruct(MetaEnv(genv), LocalEnv(), t)
    assert t2 is t
    assert reconstruct_with_type(MetaEnv(genv), LocalEnv(), t, ty) is t


def test_refinement_merges_an_application_head_into_the_spine():
    genv = make_test_genv()
    t = P("(h (f a)) b")
    t2, _ty = reconstruct(MetaEnv(genv), LocalEnv(), t)
    assert type(t.head) is App and type(t2.head) is Const and t2 == P("h (f a) b")


# ------------- essence phase -------------


def test_essence_transparent_through_proofs():
    genv = make_test_genv()
    axiom(genv, "both", "(A -> A) & (B -> B)")
    result = elaborate(genv, P("proj_l both"))
    assert show_term(result.essence) == "both"


@pytest.mark.parametrize("n", [50, 100])
def test_essence_of_an_application_builds_one_app_node(n, monkeypatch):
    # Growing the spine one argument at a time would copy it, and rescan it
    # for its facts, once per argument: O(n^2) work whatever the call count.
    built = []
    init = App.__init__

    def counting_init(self, *fields):
        built.append(self)
        init(self, *fields)

    # One argument changes in the essence, so the spine is rebuilt.
    args = [Const(L, f"a{i}") for i in range(n)]
    t = App(L, Const(L, "f"), (*args[:n // 2], SPrLeft(L, Const(L, "p")), *args[n // 2:]))
    monkeypatch.setattr(App, "__init__", counting_init)
    m = essence(MetaEnv(GlobalEnv()), LocalEnv(), t)
    monkeypatch.undo()
    assert len(built) == 1
    assert m == App(L, Const(L, "f"), (*args[:n // 2], Const(L, "p"), *args[n // 2:]))


def _essence_free_term(rng, depth, bound=0):
    """A random tree of products, applications, `&` and `|` over sorts,
    variables and constants: a term that is its own essence."""
    if depth == 0 or rng.random() < 0.2:
        leaves = [sort_type(), Const(L, rng.choice("ABfg"))]
        return rng.choice(leaves + [Var(L, rng.randrange(bound))] if bound else leaves)
    roll = rng.randrange(4)
    if roll == 0:
        return Prod(L, "x", _essence_free_term(rng, depth - 1, bound),
                    _essence_free_term(rng, depth - 1, bound + 1))
    if roll == 1:
        head = rng.choice([Const(L, "f"), Var(L, bound)]) if bound else Const(L, "f")
        spine = tuple(_essence_free_term(rng, depth - 1, bound)
                      for _ in range(rng.randint(1, 3)))
        return App(L, head, spine)
    node = Inter if roll == 2 else Union
    return node(L, _essence_free_term(rng, depth - 1, bound),
                _essence_free_term(rng, depth - 1, bound))


def test_essence_of_an_essence_free_term_is_the_term_itself(monkeypatch):
    rng = random.Random(53)
    terms = [_essence_free_term(rng, 6) for _ in range(200)]
    terms.append(P("forall (x : Type) (y : x), (x -> x) & (f x | g y x)"))
    built = []

    def counting(init):
        def counting_init(self, *fields):
            built.append(self)
            init(self, *fields)
        return counting_init

    for kind in Term.__subclasses__():
        monkeypatch.setattr(kind, "__init__", counting(kind.__init__))
    phi, psi = MetaEnv(GlobalEnv()), LocalEnv()
    for t in terms:
        assert essence(phi, psi, t) is t
    assert built == [] and phi.mark() == 0


def _domains_as_holes(t):
    """`t` with the domain of every abstraction replaced by `_`."""
    t = visit_term(_domains_as_holes, lambda _s, c: _domains_as_holes(c), t)
    return Abs(t.loc, t.name, Underscore(L), t.body) if type(t) is Abs else t


def test_essence_agrees_with_the_reference_on_random_terms():
    rng = random.Random(59)
    genv = make_test_genv()
    refined = 0
    for _ in range(400):
        t, ty = random_refined_term(rng)
        for part in (t, ty):
            assert (essence_outcome(essence, MetaEnv(genv), LocalEnv(), part)
                    == essence_outcome(reference_essence, MetaEnv(genv), LocalEnv(), part))
        # with metas, solved and unsolved: the holes refined against the type
        try:
            phi = MetaEnv(genv)
            t2 = reconstruct_with_type(phi, LocalEnv(), _domains_as_holes(t), ty)
        except TypeCheckError:
            continue
        for part in (t2, zonk(phi, t2)):
            assert (essence_outcome(essence, phi, LocalEnv(), part)
                    == essence_outcome(reference_essence, phi, LocalEnv(), part))
        refined += contains_meta(t2)
    assert refined > 100, refined


def test_essence_agrees_with_the_reference_on_every_corpus_elaboration(monkeypatch):
    # Every essence `elaborate` and `elaborate_type` ask for (a definition's
    # term and type, an axiom's type) is compared.
    checked, depth = [], [0]
    production = refine.essence

    def checking(phi, psi, t):
        # The reference runs at depth 0: the essences it asks of
        # `refine.essence` for default-rule subterms (the right component of
        # a strong pair, the second branch of an `smatch`) are compared too.
        if depth[0] == 0:
            expected = essence_outcome(reference_essence, phi, psi, t)
        depth[0] += 1
        try:
            if depth[0] == 1:
                assert essence_outcome(production, phi, psi, t) == expected
                checked.append(t)
            return production(phi, psi, t)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(refine, "essence", checking)
    for name in CORPUS_FILES:
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(session, corpus_path(name)), session.err.getvalue()
    assert len(checked) > 100, len(checked)


def test_type_essence_of_an_intersection_keeps_a_type_family_redex():
    # The essence of `&` is the `&` of its sides' essences: the redex on the
    # left stays a redex, with its domain erased.
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom (A B : Type) (a : A) (P : A -> Type)"
                         " (c : (fun (x : A) => P x) a & B).")
    info = s.genv.lookup("c")
    assert show_term(info.type) == "(fun x : A => P x) a & B"
    assert info.type_essence == P("(fun x => P x) a & B")
    assert show_term(info.type_essence) == "(fun x => P x) a & B"
    assert type(info.type_essence.left.head.domain) is Underscore


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
    phi = MetaEnv(genv)
    # hint (fun x => x)'s body x against proj_r d: transparent, then the
    # global essence of d is the constant itself, eta-equal to fun x => x? No:
    # d is an axiom, so its essence is d itself and the hint fails.
    with pytest.raises(EssenceMismatch):
        essence_with_hint(phi, LocalEnv(), P("fun x => x"),
                          P("proj_r d"))


def test_hint_checking_succeeds_via_definition_unfolding():
    genv = make_test_genv()
    define(genv, "idA", "fun x : A => x")
    phi = MetaEnv(genv)
    essence_with_hint(phi, LocalEnv(), P("fun x => x"), P("idA"))
    assert phi.entries == {}


# ------------- whole-pipeline properties -------------


def test_outputs_are_meta_free():
    genv = make_test_genv()
    rng = random.Random(67)
    for _ in range(100):
        t, ty = random_refined_term(rng)
        result = elaborate(genv, t, ty)
        for part in (result.body, result.type, result.essence,
                     result.type_essence):
            assert not contains_meta(part)


def test_recheck_stability():
    genv = make_test_genv()
    rng = random.Random(71)
    for _ in range(100):
        t, ty = random_refined_term(rng)
        first = elaborate(genv, t, ty)
        second = elaborate(genv, first.body, first.type)
        assert first.body == second.body


def test_checking_accepts_what_inference_produced():
    genv = make_test_genv()
    rng = random.Random(73)
    for _ in range(100):
        t, _ty = random_refined_term(rng)
        inferred = elaborate(genv, t)
        again = elaborate(genv, t, inferred.type)
        assert inferred.body == again.body


def test_subject_reduction_on_random_terms():
    genv = make_test_genv()
    rng = random.Random(79)
    for _ in range(100):
        t, ty = random_refined_term(rng)
        result = elaborate(genv, t, ty)
        reduced = strongly_normalize(genv, LocalEnv(), result.body)
        re_elab = elaborate(genv, reduced, result.type)
        assert strongly_normalize(genv, LocalEnv(), re_elab.body) == reduced


# ------------- corpus-level properties -------------


def _corpus_definitions():
    import io
    from proofun.repl import Session, load_file
    from helpers import CORPUS_FILES, corpus_path
    for name in CORPUS_FILES:
        s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(s, corpus_path(name))
        for const, info in s.genv.items():
            if info.body is not None:
                yield s.genv, const, info


def test_corpus_recheck_stability():
    for genv, const, info in _corpus_definitions():
        again = elaborate(genv, info.body, info.type)
        assert again.body == info.body, const
        assert again.type == info.type, const


def test_corpus_subject_reduction():
    for genv, const, info in _corpus_definitions():
        reduced = strongly_normalize(genv, LocalEnv(), info.body)
        again = elaborate(genv, reduced, info.type)
        norm = lambda t: strongly_normalize(genv, LocalEnv(), t)
        assert norm(again.type) == norm(info.type), const


def test_corpus_strong_pairs_have_beta_equal_component_essences():
    from proofun.syntax import Abs, Let, Prod, SMatch, SPair, children
    found = 0

    def walk(genv, psi, t):
        nonlocal found
        if isinstance(t, SPair):
            phi = MetaEnv(genv)
            e1, e2 = essence(phi, psi, t.left), essence(phi, psi, t.right)
            n1 = strongly_normalize(genv, psi, e1, True)
            n2 = strongly_normalize(genv, psi, e2, True)
            assert n1 == n2
            found += 1
        match t:
            case Let(_, name, annot, bound, body):
                walk(genv, psi, annot)
                walk(genv, psi, bound)
                m = essence(MetaEnv(genv), psi, bound)
                walk(genv, psi.push_def(name, m, Underscore(L)), body)
            case Abs(_, name, dom, body) | Prod(_, name, dom, body):
                walk(genv, psi, dom)
                walk(genv, psi.push_decl(name, Underscore(L)), body)
            case SMatch(_, scr, mot, n1_, a1, b1, n2_, a2, b2):
                for c in (scr, mot, a1, a2):
                    walk(genv, psi, c)
                walk(genv, psi.push_decl(n1_, Underscore(L)), b1)
                walk(genv, psi.push_decl(n2_, Underscore(L)), b2)
            case _:
                for c in children(t):
                    walk(genv, psi, c)

    for genv, const, info in _corpus_definitions():
        walk(genv, LocalEnv(), info.body)
    assert found >= 1  # the polymorphic identity's pair at least


def test_refiner_output_keeps_spines_merged():
    from proofun.syntax import App, subterms
    genv = make_test_genv()
    rng = random.Random(97)
    for _ in range(60):
        t, ty = random_refined_term(rng)
        result = elaborate(genv, t, ty)
        for part in (result.body, result.type):
            for sub in subterms(part):
                if isinstance(sub, App):
                    assert not isinstance(sub.head, App)


def test_meta_var_rule_rederives_suspended_type():
    genv = make_test_genv()
    ctx = LocalEnv().push_decl("u", P("A"))
    mctx = LocalEnv().push_decl("w", P("A"))
    phi = MetaEnv(genv)
    mid = phi.fresh_meta(TypedMeta(mctx, P("B")))
    from proofun.syntax import Var
    term = Meta(L, mid, (Var(L, 0),))
    out, ty = reconstruct(phi, ctx, term)
    assert isinstance(out, Meta) and out.mid == mid
    assert ty == P("B")
    # the suspension was checked: a badly typed suspension is rejected
    with pytest.raises(TypeCheckError):
        reconstruct(phi, ctx, Meta(L, mid, (P("b"),)))


def test_refiner_threading_is_monotone():
    from test_unify import assert_monotone
    genv = make_test_genv()
    phi = MetaEnv(genv)
    reconstruct(phi, LocalEnv(), P("fun x : A => _"))
    before = dict(phi.entries)
    reconstruct_with_type(phi, LocalEnv(), P("fun x : A => x"), P("A -> A"))
    assert_monotone(before, phi)


def test_default_rule_checks_conversion_through_definitions():
    # The expected and inferred types differ syntactically but agree after
    # unfolding a definition and beta-reducing.
    import io
    from proofun.repl import Session, load_file, run_source
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


_P_B = "P (proj_l <a, b>)"


@pytest.mark.parametrize("command, column", [
    (f"Definition d5 : (A | P a) & (A | P a) := < inj_l (P a) a, inj_l ({_P_B}) a >.", 80),
    (f"Definition d7 : (A | P a) & (A | P a) := < inj_l ({_P_B}) a, inj_l (P a) a >.", 65),
    (f"Definition d6 : A | P a := inj_l ({_P_B}) a.", 49),
    (f"Definition d8 : A | P a := coe (A | {_P_B}) (inj_l (P a) a).", 51),
], ids=["pair_second", "pair_first", "injection", "coercion"])
def test_the_essence_of_an_annotation_is_checked_wherever_it_sits(command, column):
    # The annotation of an injection and the target of a coercion are
    # checked in the essence phase wherever they sit, as an abstraction's
    # domain is: `<a, b>` in them is rejected whether or not a hint is given.
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom (A : Type) (P : A -> Type) (a b : A).")
    assert not run_source(s, command)
    assert s.err.getvalue() == (
        f"{command}\n{' ' * (column - 1)}^\n"
        'Error: the term has essence "b" while it is expected to have essence "a"\n')


@pytest.mark.parametrize("command, report", [
    ("Definition d (y : _) := y a.",
     "^^^^^^^^^^^^^^^^^^^^^^^^^^^\nError: cannot infer a term for the placeholder ?6"),
    ("Definition d := fun (y : _) (x : A) => y x x.",
     "                ^^^^^^^^^^^^^^^^^^^^^^^^^^^^\n"
     "Error: cannot infer a term for the placeholder ?9"),
], ids=["applied_hole", "duplicated_argument"])
def test_unresolved_meta_with_a_synthesized_location_blames_the_command(command, report):
    # A meta minted by pruning has no location of its own: the error falls
    # back on the elaborated term, and its number is the one minted, which
    # pins the order in which fresh ids are handed out.
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom A : Type.\nAxiom a : A.")
    assert not run_source(s, command + "\n")
    assert s.err.getvalue() == f"{command}\n{report}\n"


def test_dependent_smatch_motive():
    import io
    from proofun.repl import Session, load_file, run_source
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
    from proofun.repl import Session, load_file, run_source
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
    psi = LocalEnv()

    def normal_essence(name):
        info = s.genv.lookup(name)
        return strongly_normalize(s.genv, psi, info.essence, True)

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
            assert base == normal_essence(other), (group[0], other)


@pytest.mark.parametrize("entry", [
    elaborate, elaborate_type, lambda genv, t: is_subtype(genv, LocalEnv(), t, t),
], ids=["elaborate", "elaborate_type", "is_subtype"])
def test_entry_points_report_deep_nesting_as_prover_error(entry):
    genv = GlobalEnv()
    axiom(genv, "a", "Type")
    chain = Const(L, "a")
    for _ in range(3000):
        chain = Inter(L, chain, Const(L, "a"))
    with pytest.raises(ProverError) as info:
        entry(genv, chain)
    assert info.value.message == TOO_DEEP and info.value.loc is None


# Public functions that take neither a term nor text, or that do not raise
# on an error, with the reason.
_NO_DEEP_INPUT = {
    "main": "takes command-line arguments",
    "render_error": "renders an error under its source line: it parses and walks nothing",
    "run_source": "reports the limit at the running command instead of raising "
                  "(tests/test_repl.py)",
}


@pytest.mark.parametrize("name", sorted(
    name for name in proofun.__all__
    if type(getattr(proofun, name)) is FunctionType and name not in _NO_DEEP_INPUT))
def test_every_public_entry_point_reports_deep_input_as_too_deep(name):
    # `f (f (... a))` 5,000 applications deep, as a term and as text.  A
    # public function missing from `calls` fails here until it is added.
    genv = GlobalEnv()
    axiom(genv, "A", "Type")
    axiom(genv, "f", "A -> A")
    axiom(genv, "a", "A")
    spine, other = Const(L, "a"), Const(L, "b")
    for _ in range(5000):
        spine, other = App(L, Const(L, "f"), (spine,)), App(L, Const(L, "f"), (other,))
    text = "f (" * 5000 + "a" + ")" * 5000
    calls = {
        "elaborate": lambda: proofun.elaborate(genv, spine),
        "elaborate_type": lambda: proofun.elaborate_type(genv, spine),
        "fix_id": lambda: proofun.fix_id(spine),
        "is_subtype": lambda: proofun.is_subtype(genv, LocalEnv(), spine, spine),
        "parse_command": lambda: proofun.parse_command(f"Definition d := {text}."),
        "parse_term": lambda: proofun.parse_term(text),
        "show_term": lambda: proofun.show_term(spine),
        "strongly_normalize": lambda: proofun.strongly_normalize(genv, LocalEnv(), spine),
        "unify": lambda: proofun.unify(MetaEnv(genv), LocalEnv(), spine, other),
        "unify_essence": lambda: proofun.unify_essence(MetaEnv(genv), LocalEnv(), spine, other),
    }
    try:
        calls[name]()
        outcome = None
    except ProverError as error:
        outcome = (error.message, error.loc)
    except RecursionError:  # kept out of pytest, whose report of it is very slow
        outcome = "RecursionError"
    assert outcome == (TOO_DEEP, None)


@pytest.mark.parametrize("hole", [False, True], ids=["plain", "hole_in_domain"])
def test_a_long_product_chain_is_checked_at_the_default_recursion_limit(hole):
    # A chain of 900 arrows nests as deeply as the parser allows; the
    # refiner walks a product chain in a loop, so it is accepted and printed.
    n = 900
    if hole:
        src = ("Axiom (A : Type) (P : A -> Type). Axiom g : forall (x : _), "
               + " -> ".join(["P x"] * (n + 1)) + ". Print g.")
        printed = "g : forall x : A, " + " -> ".join(["P x"] * (n + 1))
    else:
        src = "Axiom (A : Type). Axiom g : " + " -> ".join(["A"] * (n + 1)) + ". Print g."
        printed = "g : " + " -> ".join(["A"] * (n + 1))
    session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(session, src), session.err.getvalue()[-200:]
    assert session.out.getvalue() == printed + "\n"


@pytest.mark.parametrize("annotated", [False, True], ids=["inferred", "checked"])
@pytest.mark.parametrize("shape, n", [("spine", 300), ("fun", 450)])
def test_the_refiner_nests_deeply_at_the_default_recursion_limit(shape, n, annotated):
    # The refiner spends two Python frames per nested application (the
    # application rule and its argument's checking rule) and one per
    # nested `fun`, so both shapes fit the default recursion limit, inferred
    # and checked.  Two frames more per level of either shape would reject
    # them.
    assert sys.getrecursionlimit() == 1000
    if shape == "spine":  # f (f (... a))
        body, ty = "f (" * n + "a" + ")" * n, "A"
    else:
        body, ty = "fun (x : A) => " * n + "x", " -> ".join(["A"] * (n + 1))
    annotation = f" : {ty}" if annotated else ""
    src = f"Axiom (A : Type) (f : A -> A) (a : A). Definition d{annotation} := {body}."
    session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(session, src), session.err.getvalue()[-200:]
    info = session.genv.lookup("d")  # compared as printed: `==` recurses per level
    assert show_term(info.body) == show_term(parse_term(body))
    assert show_term(info.type) == ty
