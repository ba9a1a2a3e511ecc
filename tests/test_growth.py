"""Growth of checking work with the size of deep terms and wide types.

The work is the number of Python function calls (generator resumptions
included) made inside the proofun package while one script is checked; the
node constructors, compiled from strings, count when the package calls
them.  Unlike a time, that count is deterministic.  Doubling the size of
a script must multiply its count by less than MAX_RATIO: checking these
shapes is linear in their size (a quadratic path gives a ratio near 4).  The size is
the nesting depth, except for `conj_coercion`, where it is the number of
conjuncts of an intersection of unions (an exponential path, such as the
left side's disjunctive normal form, gives a ratio of 2^size), and for
`church_product`, where it is the Church numeral n multiplied by 2 (the
normal form of the product has 2n applications; an engine that normalizes
each contractum again is quadratic in it).  The `print_` families end in
`Print`, whose naming pass asks at every binder whether its name occurs
in the binder's scope.  In `solved_hole_used_n_times` the size is the
number of uses of a hole whose solution is an arrow of that size: a
checker that walks or copies the solution at each use is quadratic.
"""

import io
import os
import random
import sys

import pytest

import proofun
from proofun import refine
from proofun.repl import Session, run_source

from helpers import conjunction_of_unions

PACKAGE_DIR = os.path.dirname(proofun.__file__)
MAX_RATIO = 2.5


def nested_fun(n: int) -> str:
    binders = " => ".join(f"fun (x{i} : A)" for i in range(n))
    return f"Axiom (A : Type) (g : A -> A).\nDefinition d := {binders} => g x{n // 2}.\n"


def application_spine(n: int) -> str:
    arrow = " -> ".join(["A"] * (n + 1))
    return (f"Axiom (A : Type) (h : {arrow}) (u : A).\n"
            f"Definition d := h {' '.join(['u'] * n)}.\n")


def hole_against_arrow(n: int) -> str:
    arrow = " -> ".join(["A"] * n + ["B"])
    hole = " -> ".join(["A"] * n + ["_"])
    return (f"Axiom (A B : Type) (k : ({arrow}) -> B).\n"
            f"Definition d (y : {hole}) := k y.\n")


def pair_of_projections(n: int) -> str:
    left = " -> ".join(["A"] * (n + 1))
    right = " -> ".join(["B"] * (n + 1))
    xs = " ".join(["x"] * n)
    return (f"Axiom (A B : Type) (h : ({left}) & ({right})).\n"
            f"Definition d := <fun (x : A) => proj_l h {xs}, "
            f"fun (x : B) => proj_r h {xs}>.\n")


def conj_coercion(k: int) -> str:
    unions = [[f"a{i}", f"b{i}"] for i in range(k)]
    rng = random.Random(k)
    permuted = [u[::-1] for u in rng.sample(unions, k)]
    names = " ".join(" ".join(u) for u in unions)
    return (f"Axiom ({names} : Type) (w : {conjunction_of_unions(unions)}).\n"
            f"Definition d := coe ({conjunction_of_unions(permuted)}) w.\n")


def church_product(n: int) -> str:
    nat = "(o -> o) -> o -> o"

    def church(k: int) -> str:
        return f"fun (f : o -> o) (x : o) => {'f (' * k}x{')' * k}"

    return (f"Axiom (o : Type).\n"
            f"Definition mul := fun (m n : {nat}) (f : o -> o) (x : o) => m (n f) x.\n"
            f"Definition c{n} := {church(n)}.\n"
            f"Definition c2 := {church(2)}.\n"
            f"Definition p := mul c{n} c2.\n"
            f"Compute p.\n")


def unfolded_abstraction(n: int) -> str:
    # The unifier meets two abstractions of n binders, one behind a definition.
    arrow = " -> ".join(["A"] * (n + 1))
    binders = " ".join(f"(x{i} : A)" for i in range(n))
    return (f"Axiom (A : Type) (P : ({arrow}) -> Type) (p : P (fun {binders} => x0)).\n"
            f"Definition c := fun {binders} => x0.\n"
            f"Definition q : P c := p.\n")


def chain_of_holes(n: int) -> str:
    arrow = " -> ".join(["A"] * (n + 1))
    holes = " -> ".join(["_"] * (n + 1))
    return (f"Axiom (A : Type) (k : ({arrow}) -> A).\n"
            f"Definition d (y : {holes}) := k y.\n")


def let_chain(n: int) -> str:
    # Each unannotated `let` gets a hole for its type, solved against the
    # type of its value.
    lets = "".join(f"let y{i} := g y{i - 1} in " for i in range(1, n))
    return (f"Axiom (A : Type) (g : A -> A) (a : A).\n"
            f"Definition d := let y0 := g a in {lets}y{n - 1}.\n")


def shared_let_chain(n: int) -> str:
    # Each value uses the previous one twice: read back as a tree, the last
    # one has 2^n leaves.
    lets = "".join(f"let y{i} := h y{i - 1} y{i - 1} in " for i in range(1, n))
    return (f"Axiom (A : Type) (h : A -> A -> A) (a : A).\n"
            f"Definition d := let y0 := h a a in {lets}y{n - 1}.\n")


def solved_hole_used_n_times(n: int) -> str:
    # Every use of `y` compares the hole's solution with the domain of `f`.
    arrow = " -> ".join(["A"] * (n + 1))
    uses = " ".join(["(f y)"] * n)
    return (f"Axiom (A : Type) (c : {arrow}) (f : ({arrow}) -> A) (p : {arrow}).\n"
            f"Definition d := (fun (y : _) => p {uses}) c.\n")


def print_arrow_axiom(n: int) -> str:
    arrow = " -> ".join(["A"] * (n + 1))
    return f"Axiom (A : Type) (h : {arrow}).\nPrint h.\n"


def print_nested_fun(n: int) -> str:
    return nested_fun(n) + "Print d.\n"


def print_forall_chain(n: int) -> str:
    binders = " ".join(f"x{i}" for i in range(n))
    return (f"Axiom (A : Type) (P : A -> Type).\n"
            f"Axiom h : forall ({binders} : A), P x0.\nPrint h.\n")


def _in_package(frame) -> bool:
    """True for code of the package, and for code compiled from a string
    (the generated node constructors) that the package called."""
    filename = frame.f_code.co_filename
    if filename == "<string>" and frame.f_back is not None:
        filename = frame.f_back.f_code.co_filename
    return filename.startswith(PACKAGE_DIR)


def count_calls(thunk):
    """The number of calls made inside proofun while `thunk()` runs, and
    its result."""
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and _in_package(frame):
            count += 1

    sys.setprofile(profile)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return count, result


def calls_to_check(script: str) -> int:
    """Calls made inside proofun while checking `script` from scratch."""
    session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    count, ok = count_calls(lambda: run_source(session, script))
    assert ok, session.err.getvalue()
    return count


# (family, size n): the test compares the work at n and at 2n.
FAMILIES = [(nested_fun, 100), (application_spine, 100), (hole_against_arrow, 100),
            (pair_of_projections, 100), (conj_coercion, 5), (church_product, 40),
            (unfolded_abstraction, 100), (print_arrow_axiom, 100), (print_nested_fun, 100),
            (print_forall_chain, 100), (solved_hole_used_n_times, 100)]


@pytest.mark.parametrize("family, size", FAMILIES, ids=[f.__name__ for f, _ in FAMILIES])
def test_work_grows_linearly_with_size(family, size):
    small, large = calls_to_check(family(size)), calls_to_check(family(2 * size))
    assert large / small < MAX_RATIO, (small, large)


def test_chain_of_holes_is_at_most_quadratic():
    # Each hole is a meta whose suspension holds every binder before it, so
    # this family is not linear yet; a cubic path gives a ratio near 8.
    small, large = calls_to_check(chain_of_holes(40)), calls_to_check(chain_of_holes(80))
    assert large / small < 4, (small, large)


@pytest.mark.parametrize("family, size", [(shared_let_chain, 20), (let_chain, 40)],
                         ids=["shared_let_chain", "let_chain"])
def test_let_chains_are_at_most_quadratic(family, size):
    # Each `let` type is a hole whose suspension holds every value before it,
    # so these families are not linear yet; viewing a suspension by reading
    # it back is exponential in the shared chain.
    small, large = calls_to_check(family(size)), calls_to_check(family(2 * size))
    assert large / small < 4, (small, large)


def test_essence_of_an_arrow_axiom_is_entered_a_constant_number_of_times():
    # An arrow of constants is its own essence, so its facts answer at the
    # root: the essence phase does not walk it, however long it is.
    def essence_calls(n):
        calls = 0

        def profile(frame, event, _arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is refine.essence.__code__

        arrow = " -> ".join(["A"] * (n + 1))
        session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
        sys.setprofile(profile)
        try:
            assert run_source(session, f"Axiom (A : Type) (h : {arrow}).\n")
        finally:
            sys.setprofile(None)
        return calls

    assert essence_calls(50) == essence_calls(100) == 2  # the types of `A` and `h`
