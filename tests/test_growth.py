"""Growth of elaboration work with the size of deep terms.

The work is the number of Python function calls (generator resumptions
included) made inside the proofun package while one script is checked.
Unlike a time, that count is deterministic.  Doubling the size of a script
must multiply its count by less than MAX_RATIO: elaboration of these shapes
is linear in their size (a quadratic path gives a ratio near 4).
"""

import io
import os
import sys

import pytest

import proofun
from proofun.repl import Session, run_source

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


def calls_to_check(script: str) -> int:
    """Calls made inside proofun while checking `script` from scratch."""
    session = Session(quiet=True, out=io.StringIO(), err=io.StringIO())
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            count += 1

    sys.setprofile(profile)
    try:
        ok = run_source(session, script)
    finally:
        sys.setprofile(None)
    assert ok, session.err.getvalue()
    return count


@pytest.mark.parametrize("family", [
    nested_fun, application_spine, hole_against_arrow, pair_of_projections,
], ids=lambda f: f.__name__)
def test_work_grows_linearly_with_size(family):
    small, large = calls_to_check(family(100)), calls_to_check(family(200))
    assert large / small < MAX_RATIO, (small, large)
