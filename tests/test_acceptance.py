"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated budget."""

import io
import random
import time

import pytest

from proofun.env import EssMeta, GlobalEnv, LocalEnv, MetaEnv, TypedMeta
from proofun.errors import EssenceMismatch, TypeCheckError
from proofun.normalize import normalize_meta, strongly_normalize, zonk
from proofun.parser import fix_index, parse_term
from proofun.pretty import render_error, show_term
from proofun.refine import elaborate, essence, reconstruct_with_type
from proofun.repl import Session, load_file, run_source
from proofun.subtype import is_subtype
from proofun.syntax import Abs, Const, Meta, NOWHERE, Underscore, Var, mk_app
from proofun.unify import unify

from helpers import (
    P, axiom, corpus_path, CORPUS_FILES, enumerate_types, make_test_genv,
    random_refined_term,
)
from oracle_subtype import derivable
from test_normalize import _redex_free

L = NOWHERE


def test_criterion_1_corpus_elaborates_with_zero_errors():
    started = time.time()
    sessions = {}
    for name in CORPUS_FILES:
        s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(s, corpus_path(name)), \
            f"{name} failed:\n{s.err.getvalue()}"
        assert s.err.getvalue() == ""
        sessions[name] = s
    elapsed = time.time() - started
    assert elapsed < 5.0, f"corpus took {elapsed:.2f}s"
    # spot-check the contents that matter
    assert "Is_0_Test" in sessions["pierce.bull"].genv
    info = sessions["pierce.bull"].genv.lookup("Is_0_Test")
    assert show_term(info.type) == "F"  # (Is_0 Test) : F
    harrop = sessions["harrop.bull"].genv
    solve_rules = [n for n in harrop.names() if n.startswith("solve_")]
    backchain_rules = [n for n in harrop.names() if n.startswith("backchain_")]
    assert len(solve_rules) == 5 and len(backchain_rules) == 6
    assert "of_app" in sessions["lf_encoding.bull"].genv
    assert "impl_E" in sessions["deductions.bull"].genv
    print(f"\nPASS criterion 1: corpus elaborated with zero errors "
          f"in {elapsed:.2f}s (< 5s)")


def test_criterion_2_refinement_worked_examples():
    genv = GlobalEnv()
    axiom(genv, "nat", "Type")
    axiom(genv, "0", "nat")
    axiom(genv, "eq", "nat -> nat -> Type")
    axiom(genv, "eq_refl", "forall x : nat, eq x x")
    result = elaborate(genv, P("eq_refl _"), P("eq _ 0"))
    assert show_term(result.body) == "eq_refl 0"
    assert show_term(result.type) == "eq 0 0"

    genv2 = GlobalEnv()
    axiom(genv2, "s", "Type")
    axiom(genv2, "t", "Type")
    phi = MetaEnv(genv2)
    term = reconstruct_with_type(
        phi, LocalEnv(), P("<fun x : s => x, fun x : t => _>"),
        P("(s -> s) & (t -> t)"))
    hole = term.right.body
    assert isinstance(hole, Meta)
    entry = phi.lookup(hole.mid)
    assert isinstance(entry, TypedMeta) and entry.value is None and entry.type == P("t")
    essence(phi, LocalEnv(), zonk(phi, term))
    companion = phi.lookup(phi.companions[hole.mid])
    assert isinstance(companion, EssMeta) and companion.value is not None
    # essence(?y) is beta-equal to the bound variable x
    psi = LocalEnv().push_decl("x", Underscore(L))
    solved = normalize_meta(phi, psi, companion.value, is_essence=True)
    assert solved == Var(L, 0)
    print("\nPASS criterion 2: eq_refl _ : eq _ 0 elaborates to eq_refl 0 : "
          "eq 0 0; strong-pair hole has essence x")


def test_criterion_3_error_localization_golden():
    genv = GlobalEnv()
    axiom(genv, "bool", "Type")
    axiom(genv, "nat", "Type")
    axiom(genv, "f", "(bool -> nat -> bool) -> bool")
    src = "f (fun x y => y)"
    with pytest.raises(TypeCheckError) as info:
        elaborate(genv, fix_index(parse_term(src)))
    rendered = render_error(src, info.value)
    import os
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "error_localization.txt"), encoding="utf-8") as f:
        golden = f.read()
    strip = lambda s: "\n".join(line.rstrip() for line in s.rstrip("\n").splitlines())
    assert strip(rendered) == strip(golden)
    print("\nPASS criterion 3: error text and caret position match the "
          "reference display byte-exactly")


def test_criterion_4_subtyping_oracle_equivalence():
    genv, ctx = GlobalEnv(), LocalEnv()
    types = enumerate_types(2)
    pairs = len(types) ** 2
    started = time.time()
    memo = {}
    for x in types:
        for y in types:
            assert is_subtype(genv, ctx, x, y) == derivable(x, y, memo=memo), \
                (x, y)
    # the named deeper examples ride along
    extra = [("(a -> c) & (b -> c)", "(a | b) -> c", True),
             ("(a | b) & (a | c)", "a | b & c", True),
             ("a & b", "a", True), ("a", "a | b", True), ("a", "b", False)]
    for a, b, want in extra:
        assert is_subtype(genv, ctx, P(a), P(b)) == want
        assert derivable(P(a), P(b)) == want
    elapsed = time.time() - started
    assert elapsed < 60.0, f"equivalence run took {elapsed:.1f}s"
    print(f"\nPASS criterion 4: decision procedure agrees with the "
          f"declarative oracle on all {pairs} pairs in {elapsed:.1f}s (< 60s)")


def test_criterion_5_unifier_soundness():
    genv = make_test_genv()
    ctx = LocalEnv()
    rng = random.Random(83)
    successes = 0

    def check(phi, c, t1, t2):
        nonlocal successes
        n1 = strongly_normalize(genv, c, zonk(phi, t1))
        n2 = strongly_normalize(genv, c, zonk(phi, t2))
        assert n1 == n2
        successes += 1

    for _ in range(800):
        t, _ty = random_refined_term(rng)
        t = strongly_normalize(genv, ctx, t)
        phi = MetaEnv(genv)
        unify(phi, ctx, t, t)
        check(phi, ctx, t, t)

    # generated pattern problems: ?m[permuted vars] against a random rhs
    atom = Const(L, "A")
    for _ in range(300):
        n = rng.randint(1, 3)
        mctx = LocalEnv()
        pctx = LocalEnv()
        for i in range(n):
            mctx = mctx.push_decl(f"w{i}", atom)
            pctx = pctx.push_decl(f"v{i}", atom)
        perm = list(range(n))
        rng.shuffle(perm)
        susp = tuple(Var(L, j) for j in perm)
        head = rng.choice([Var(L, rng.randrange(n)), Const(L, "f")])
        rhs = head if rng.random() < 0.4 else mk_app(
            L, Const(L, "f"), (Var(L, rng.randrange(n)),))
        phi = MetaEnv(genv)
        mid = phi.fresh_meta(TypedMeta(mctx, atom))
        problem = Meta(L, mid, susp)
        unify(phi, pctx, problem, rhs)
        n1 = normalize_meta(phi, pctx, problem)
        n2 = normalize_meta(phi, pctx, rhs)
        assert n1 == n2
        successes += 1

    # the worked example: ?f y x z = x c y
    genv2 = GlobalEnv()
    for name in ("s1", "s2", "s3", "s4"):
        axiom(genv2, name, "Type")
    axiom(genv2, "c", "s1")
    ctx2 = (LocalEnv().push_decl("x", Const(L, "s1"))
            .push_decl("y", Const(L, "s2")).push_decl("z", Const(L, "s3")))
    mctx = (LocalEnv().push_decl("y", Const(L, "s2"))
            .push_decl("x", Const(L, "s1")).push_decl("z", Const(L, "s3")))
    phi = MetaEnv(genv2)
    fid = phi.fresh_meta(TypedMeta(mctx, Const(L, "s4")))
    lhs = Meta(L, fid, (Var(L, 1), Var(L, 2), Var(L, 0)))  # ?f[y; x; z]
    rhs = mk_app(L, Var(L, 2), (Const(L, "c"), Var(L, 1)))  # x c y
    unify(phi, ctx2, lhs, rhs)
    solution = phi.lookup(fid).value
    lam = solution
    for name, ty in (("z", "s3"), ("x", "s1"), ("y", "s2")):
        lam = Abs(L, name, Const(L, ty), lam)
    assert lam == P("fun y : s2 => fun x : s1 => fun z : s3 => x c y")
    successes += 1

    assert successes >= 1000
    print(f"\nPASS criterion 5: {successes} successful unifications all "
          "sound; the permutation example reproduces the reference solution")


def test_criterion_6_normalization_properties():
    genv = make_test_genv()
    ctx = LocalEnv()
    rng = random.Random(89)
    for _ in range(1000):
        raw, ty = random_refined_term(rng)
        t = elaborate(genv, raw, ty).body
        once = strongly_normalize(genv, ctx, t)
        assert _redex_free(genv, once)
        assert once == strongly_normalize(genv, ctx, once)
        # evaluation and substitution give the same normal form
        assert once == normalize_meta(MetaEnv(genv), ctx, t)

    # corpus definitions: idempotence, delta-transparency, essence coherence
    for name in CORPUS_FILES:
        s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        assert load_file(s, corpus_path(name))
        for const, info in s.genv.items():
            if info.body is None:
                continue
            nf = strongly_normalize(s.genv, ctx, info.body)
            assert nf == strongly_normalize(s.genv, ctx, nf)
            assert nf == normalize_meta(MetaEnv(s.genv), ctx, info.body)
            assert _redex_free(s.genv, nf)
            # Compute on the name agrees with inlining the definition first
            via_const = strongly_normalize(s.genv, ctx, Const(L, const))
            assert via_const == nf
            # essence(normalize(body)) is beta-equal to normalize(essence)
            e1 = essence(MetaEnv(s.genv), LocalEnv(), nf)
            e1 = strongly_normalize(s.genv, LocalEnv(), e1, True)
            e2 = strongly_normalize(s.genv, LocalEnv(), info.essence, True)
            assert e1 == e2, const

    # the printing example renders byte-exactly
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom nat : Type. Axiom y : nat. "
                         "Definition t := (fun (x y : nat) => x) y. Compute t.")
    assert s.out.getvalue() == "fun y0 : nat => y\n"
    print("\nPASS criterion 6: idempotence and redex-freedom hold; the "
          "renaming example prints byte-exactly")


def test_criterion_7_essence_discipline():
    genv = GlobalEnv()
    axiom(genv, "A", "Type")
    with pytest.raises(EssenceMismatch):
        elaborate(genv, P("<fun x : A => x, fun x : A => fun y : A => y>"))
    axiom(genv, "z", "A | A")
    src = ("smatch z with x : A => inj_l (A -> A -> A) (fun y : A => y), "
           "x : A => inj_r (A -> A) (fun y : A => fun w : A => w) end")
    with pytest.raises(EssenceMismatch):
        elaborate(genv, P(src))
    print("\nPASS criterion 7: strong pair and strong sum with one-vs-two "
          "abstraction essences are both rejected")


def test_criterion_8_repl_atomicity_and_replay():
    s = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    assert run_source(s, "Axiom base : Type.")

    def printall(sess):
        saved = sess.out
        sess.out = io.StringIO()
        assert run_source(sess, "Printall.")
        text = sess.out.getvalue()
        sess.out = saved
        return text

    before = printall(s)
    assert not run_source(s, "Axiom (p : Type) (q : Type) (r : missing).")
    assert printall(s) == before

    for name in CORPUS_FILES:
        replays = []
        for _ in range(2):
            fresh = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
            assert load_file(fresh, corpus_path(name))
            replays.append(printall(fresh))
        assert replays[0] == replays[1], name
    print("\nPASS criterion 8: failed command lists leave the signature "
          "byte-identical; script replay is deterministic")
