"""Tests of the benchmark's own generators.

    python3 -m pytest perfbench/test_gen.py

The generators must be deterministic in the seed, and their known answers
must be right: on the smallest sizes, every family's accepted and rejected
script gets exactly the verdict, output and command count the generator
states when checked by proofun.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checkrun  # noqa: E402
import gen  # noqa: E402
from proofun.parser import parse_script  # noqa: E402
from proofun.repl import main as cli  # noqa: E402

CORPUS = ROOT / "tests" / "corpus"


def _texts(plan: gen.Plan) -> list[str]:
    return [plan.setup.text] + [s.text for r in plan.rounds for s in r]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_scripts(workload):
    first = gen.build(workload, 7, 3, CORPUS)
    again = gen.build(workload, 7, 3, CORPUS)
    assert first == again
    other = gen.build(workload, 8, 3, CORPUS)
    assert _texts(first) != _texts(other)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_mix_does_not_depend_on_seed(workload):
    def mix(seed: int) -> list[list[tuple[str, int, bool]]]:
        plan = gen.build(workload, seed, gen.REJECT_EVERY, CORPUS)
        return [sorted((s.family, s.size, s.accept) for s in r) for r in plan.rounds]
    assert mix(1) == mix(2)


def _smallest() -> list[gen.Script]:
    rng = random.Random(0)
    scripts = []
    for family in gen.DEEP_FAMILIES:
        for accept in (True, False):
            for n in (2, 3, 4):
                text, error, commands = gen._DEEP[family](rng, n, accept)
                scripts.append(gen.Script(f"{family}{n}", family, n, text, accept, "",
                                          "" if accept else error, commands))
    for accept in (True, False):
        for widths in ([2], [3], [5], [2, 3], [5, 2, 2]):
            text, error, commands = gen.conj_coe(rng, widths, accept)
            scripts.append(gen.Script(f"conj{widths}", "conj", 0, text, accept,
                                      "", "" if accept else error, commands))
        for n in (1, 2, 3):
            for variant in (0, 1):
                text, error, commands = gen.arrow_coe(rng, n, accept, variant)
                scripts.append(gen.Script(f"arrow{n}", "arrow", n, text, accept, "",
                                          "" if accept else error, commands))
    for product in (1, 2, 4, 6):
        text, stdout, commands, _jk = gen.numerals(rng, product)
        scripts.append(gen.Script(f"mul{product}", "mul", product, text, True,
                                  stdout, "", commands))
    for kind in gen.REJECTION_KINDS:
        text, error, commands = gen.rejection(rng, kind)
        scripts.append(gen.Script(kind, kind, 1, text, False, "", error, commands))
    return scripts


@pytest.mark.parametrize("script", _smallest(), ids=lambda s: f"{s.name}-{s.accept}")
def test_known_answer_holds(script, tmp_path):
    path = tmp_path / "script.bull"
    path.write_text(script.text, encoding="utf-8")
    code, out, err, _elapsed = checkrun.run_cli(cli, str(path))
    assert checkrun.mismatch(script, code, out, err) == ""
    assert script.commands == sum(len(cmds) for cmds in parse_script(script.text))


def test_numeral_text():
    text, stdout, _commands, (j, k) = gen.numerals(random.Random(3), 6)
    assert j * k == 6
    assert stdout.splitlines()[0].endswith("=> " + gen._apply_n("f", 6, "x"))
    assert gen._apply_n("f", 3, "x") == "f (f (f x))"


@pytest.mark.parametrize("stem", gen.CORPUS_FILES)
def test_corpus_command_count(stem):
    text = (CORPUS / f"{stem}.bull").read_text(encoding="utf-8")
    assert gen.count_atomic(text) == sum(len(cmds) for cmds in parse_script(text))
