"""proofun benchmark: time to a verdict for generated `.bull` scripts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; proofun is imported from `src/`.
One client checks scripts one after another (a closed loop, no threads)
through the CLI code path, `proofun --quiet --no-color SCRIPT`, run
in-process with its output captured, and compares every verdict and every
printed text with the known answer built by the generator (gen.py).

`--trace 0` reports the end-to-end metrics; `--trace 1` runs a fixed cycle
of scripts alternately untraced and traced (tracer.py) and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it are the same figures for people.  The exit code is
non-zero when any command got a wrong verdict or output.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checkrun
import gen
import speed
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 20            # distinct rounds generated; the timed loop cycles them
MIN_SCRIPTS = 100      # so that p90 has at least 10 samples beyond it
SETUP_CHILDREN = 5     # setup_s is the median over this many fresh processes
CHILD_TIMEOUT_S = 120
WALL_CAP = 3           # the timed loop stops after this many times --seconds of wall time
GROWTH_WORKLOADS = ("deep_elab", "subtype_wide")   # the ones with a size axis


class Tally:
    """Attempted and failed atomic commands.  A script whose result differs
    from its known answer counts all its commands as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, script: gen.Script, code: int, out: str, err: str) -> None:
        self.attempted += script.commands
        why = checkrun.mismatch(script, code, out, err)
        if why:
            self.failed += script.commands
            print(f"WRONG {script.name}: {why}", file=sys.stderr)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def materialize(plan: gen.Plan, work: Path) -> gen.Plan:
    """Write the generated scripts under `work` and record their paths."""
    work.mkdir(parents=True, exist_ok=True)

    def place(script: gen.Script) -> gen.Script:
        if script.path:
            return script
        path = work / script.name
        path.write_text(script.text, encoding="utf-8")
        return dataclasses.replace(script, path=str(path))

    return dataclasses.replace(plan, setup=place(plan.setup),
                               rounds=[[place(s) for s in r] for r in plan.rounds])


class Timeline:
    """Scripts checked one after another, each timed between two runs of
    the speed probe (speed.py).  A tracer, if given, tags its spans with the
    script's index."""

    def __init__(self, cli, tally: Tally, tracer: Tracer | None = None) -> None:
        self.cli, self.tally, self.tracer = cli, tally, tracer
        self.scripts: list[gen.Script] = []
        self.raw: list[float] = []
        self.probes = [speed.probe()]

    def run(self, scripts: list[gen.Script]) -> Timeline:
        for script in scripts:
            gc.collect()  # untimed: each script starts from a collected heap
            if self.tracer is not None:
                self.tracer.script = len(self.raw)
            code, out, err, elapsed = checkrun.run_cli(self.cli, script.path)
            self.probes.append(speed.probe())
            self.tally.record(script, code, out, err)
            self.scripts.append(script)
            self.raw.append(elapsed)
        return self

    def normalized(self) -> list[float]:
        return [speed.scale(t, self.probes[i], self.probes[i + 1])
                for i, t in enumerate(self.raw)]

    def speed_factor(self) -> float:
        """Normalised over raw time of the whole timeline."""
        return sum(self.normalized()) / sum(self.raw)


def per_family(scripts: list[gen.Script], largest: bool) -> list[gen.Script]:
    """The largest (or smallest) script of each family and verdict."""
    chosen: dict[tuple[str, bool], gen.Script] = {}
    for script in sorted(scripts, key=lambda s: s.size, reverse=not largest):
        chosen[script.family, script.accept] = script
    return list(chosen.values())


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# end-to-end run


def run_children(src: Path, plan: gen.Plan, tally: Tally) -> tuple[float, float]:
    """Median set-up time over fresh processes, and the peak RSS of a fresh
    process that checks the largest script of each family."""
    child = [sys.executable, str(HERE / "child.py"), str(src)]

    def spawn(scripts: list[gen.Script]) -> dict:
        proc = subprocess.run(child + [s.path for s in scripts], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"child process failed:\n{proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        for script, (code, out, err) in zip(scripts, report["results"]):
            tally.record(script, code, out, err)
        return report

    peak_rss_mb = spawn(per_family(plan.rounds[0], largest=True))["peak_rss_mb"]
    setup = []
    for _ in range(SETUP_CHILDREN):
        report = spawn([plan.setup])
        setup.append(speed.scale(report["setup_s"], report["probe_before_s"],
                                 report["probe_after_s"]))
    return statistics.median(setup), peak_rss_mb


def end_to_end(cli, src: Path, plan: gen.Plan, seconds: float,
               tally: Tally) -> dict[str, tuple[float, str]]:
    setup_s, peak_rss_mb = run_children(src, plan, tally)
    Timeline(cli, Tally()).run(per_family(plan.rounds[0], largest=False))  # warm-up
    # Whole rounds until `seconds` of checking at reference speed, so that
    # the mix of scripts does not depend on how fast the machine is today;
    # on a very slow machine the wall-clock cap ends the loop earlier.
    timeline = Timeline(cli, tally)
    rounds = 0
    start = time.perf_counter()
    while len(timeline.raw) < MIN_SCRIPTS or (
            sum(timeline.normalized()) < seconds
            and time.perf_counter() - start < WALL_CAP * seconds):
        timeline.run(plan.rounds[rounds % len(plan.rounds)])
        rounds += 1
    times_ms = [t * 1000 for t in timeline.normalized()]
    raw_ms = [t * 1000 for t in timeline.raw]
    busy_s = sum(times_ms) / 1000
    commands = sum(s.commands for s in timeline.scripts)
    fail_share = tally.failed / tally.attempted
    print(f"workload {plan.workload}: {len(times_ms)} scripts in {rounds} rounds, "
          f"{commands} atomic commands, {busy_s:.2f} s busy, closed loop with 1 client")
    print(f"raw (not normalised) script ms p50 {statistics.median(raw_ms):.2f}, "
          f"p90 {nearest_rank(raw_ms, 0.9):.2f}; probe median "
          f"{statistics.median(timeline.probes) * 1000:.2f} ms "
          f"(reference {speed.REFERENCE_S * 1000:g} ms)")
    if plan.workload in GROWTH_WORKLOADS:
        growth_report(plan.workload, list(zip(timeline.scripts, times_ms)))
    print(f"fail_share {fail_share:.6f} share (of {tally.attempted} attempted commands)")
    return {
        "setup_s": (setup_s, "s"),
        "script_ms_p50": (statistics.median(times_ms), "ms"),
        "script_ms_p90": (nearest_rank(times_ms, 0.9), "ms"),
        "cmds_per_s": (commands / busy_s, "1/s"),
        "pass_share": (1 - fail_share, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def growth_report(workload: str, samples: list[tuple[gen.Script, float]]) -> None:
    """Per-size medians (ms) of accepted scripts and the ratio between sizes
    (time(2n)/time(n) where both exist).  Informational, not gated."""
    by_cell: dict[tuple[str, int], list[float]] = defaultdict(list)
    for script, ms in samples:
        if script.accept:
            by_cell[script.cell].append(ms)
    families = sorted({family for family, _n in by_cell})
    for family in families:
        sizes = sorted(n for f, n in by_cell if f == family)
        med = {n: statistics.median(by_cell[family, n]) for n in sizes}
        parts = [f"n={n} {med[n]:.1f} ms" for n in sizes]
        ratios = [f"t({2 * n})/t({n})={med[2 * n] / med[n]:.2f}"
                  for n in sizes if 2 * n in med]
        print(f"growth {workload}/{family}: " + ", ".join(parts)
              + ("; " + ", ".join(ratios) if ratios else ""))


# ---------------------------------------------------------------------------
# traced run


def traced(cli, plan: gen.Plan, seconds: float, tally: Tally,
           spans_path: Path) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced passes over the first round of scripts
    until `seconds` have passed.  Counts come from the first traced pass
    (they repeat exactly); times are medians over the passes, each scaled to
    the reference speed by its pass's probes."""
    cycle = plan.rounds[0]
    Timeline(cli, Tally()).run(per_family(cycle, largest=False))  # warm-up, untimed
    repl = importlib.import_module("proofun.repl")
    plain_ms, traced_ms, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain_ms.append(sum(Timeline(cli, tally).run(cycle).normalized()) * 1000)
        tracer = Tracer()
        tracer.install()
        try:
            # `repl.main` is read after install, so the CLI entry is wrapped too.
            timeline = Timeline(repl.main, tally, tracer).run(cycle)
        finally:
            tracer.uninstall()
        traced_ms.append(sum(timeline.normalized()) * 1000)
        passes.append((tracer, timeline.speed_factor()))
    n_spans = passes[0][0].write_spans(spans_path)
    metrics = layer_metrics(passes)
    wall_ms = statistics.median(traced_ms)
    metrics["trace.overhead"] = (wall_ms / statistics.median(plain_ms), "ratio")
    metrics["trace.scripts"] = (len(cycle), "count")
    print(f"workload {plan.workload}: traced cycle of {len(cycle)} scripts, "
          f"{len(passes)} traced and untraced passes, traced {wall_ms:.1f} ms, "
          f"untraced {statistics.median(plain_ms):.1f} ms (at reference speed); "
          f"{n_spans} spans written to {spans_path.relative_to(ROOT)}")
    layer_report(plan.workload, passes, wall_ms)
    return metrics


def _median_ms(passes: list[tuple[Tracer, float]], seconds) -> float:
    """Median over the passes of a per-tracer time, in ms at reference speed."""
    return statistics.median(seconds(t) * factor * 1000 for t, factor in passes)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(passes: list[tuple[Tracer, float]]) -> dict[str, tuple[float, str]]:
    c, e = passes[0][0].calls, passes[0][0].events

    def self_ms(layer: str) -> tuple[float, str]:
        return _median_ms(passes, lambda t: t.self_s[layer]), "ms"

    def calls(key: str) -> tuple[float, str]:
        return c[key], "count"

    tokenize_ms = _median_ms(passes, lambda t: t.span_s["parser.tokenize"])
    return {
        "refine.force_type.calls": calls("refine.force_type"),
        "refine.reconstruct.calls": calls("refine.reconstruct"),
        "refine.essence.calls": calls("refine.essence"),
        "refine.elaborate.calls": (c["refine.elaborate"] + c["refine.elaborate_type"], "count"),
        "refine.self_ms": self_ms("refine"),
        "unify.calls": calls("unify.unify"),
        "unify.entries": (e["unify.entries"], "count"),
        "unify.failures": (e["unify.failures"], "count"),
        "unify.fail_share": (_share(e["unify.failures"], e["unify.entries"]), "share"),
        "unify.try_hopu.calls": calls("unify.try_hopu"),
        "unify.hopu_solved_share": (_share(e["unify.hopu_solved"], c["unify.try_hopu"]), "share"),
        "unify.self_ms": self_ms("unify"),
        "normalize.whnf.calls": calls("normalize.whnf"),
        "normalize.normalize_meta.calls": calls("normalize.normalize_meta"),
        "normalize.strongly_normalize.calls": calls("normalize.strongly_normalize"),
        "normalize.zonk.calls": calls("normalize.zonk"),
        "normalize.self_ms": self_ms("normalize"),
        "syntax.beta_redex.calls": calls("syntax.beta_redex"),
        "subtype.calls": calls("subtype.is_subtype"),
        "subtype.true_share": (_share(e["subtype.true"], c["subtype.is_subtype"]), "share"),
        "subtype.nf_nodes": (e["subtype.nf_nodes"], "count"),
        "subtype.self_ms": self_ms("subtype"),
        "pretty.show_term.calls": calls("pretty.show_term"),
        "pretty.render_error.calls": calls("pretty.render_error"),
        "pretty.chars": (e["pretty.chars"], "count"),
        "pretty.self_ms": self_ms("pretty"),
        "parser.fix_id.calls": calls("parser.fix_id"),
        "parser.tokens": (e["parser.tokens"], "count"),
        "parser.tokens_per_s": (_share(e["parser.tokens"], tokenize_ms / 1000), "1/s"),
        "parser.fix_index.calls": calls("parser.fix_index"),
        "parser.self_ms": self_ms("parser"),
        "env.snapshot.calls": calls("GlobalEnv.snapshot"),
        "env.snapshot_ms": (_median_ms(passes, lambda t: t.span_s["GlobalEnv.snapshot"]), "ms"),
        "repl.commands": calls("repl.exec_command"),
        "repl.commands_rejected": (e["repl.commands_rejected"], "count"),
        "repl.self_ms": self_ms("repl"),
        "env.metas_created": calls("MetaEnv.fresh_meta"),
        "env.metas_solved": calls("MetaEnv.instantiate_meta"),
        "env.metas_solved_share": (_share(c["MetaEnv.instantiate_meta"],
                                          c["MetaEnv.fresh_meta"]), "share"),
    }


# What each workload is for, checked against the traced self times.
INTENT = {
    "corpus": ("every layer does a little work",
               lambda s: sum(v > 0 for k, v in s.items() if k != "env") >= 6),
    "deep_elab": ("refine+unify+normalize dominate, subtype ~0",
                  lambda s: s["refine"] + s["unify"] + s["normalize"] > 0.8
                  and s["subtype"] < 0.01),
    "subtype_wide": ("subtype has the largest self time",
                     lambda s: s["subtype"] == max(s.values())),
    "normalize_print": ("normalize+pretty dominate",
                        lambda s: s["normalize"] + s["pretty"] > 0.5),
}


def layer_report(workload: str, passes: list[tuple[Tracer, float]], wall_ms: float) -> None:
    shares = {}
    for layer in LAYERS:
        self_ms = _median_ms(passes, lambda t: t.self_s[layer])
        outer_ms = _median_ms(passes, lambda t: t.outer_s[layer])
        shares[layer] = _share(self_ms, wall_ms)
        print(f"layer {layer:<9} self {self_ms:9.1f} ms ({100 * shares[layer]:5.1f} %)  "
              f"inclusive {outer_ms:9.1f} ms ({100 * _share(outer_ms, wall_ms):5.1f} %)")
    what, holds = INTENT[workload]
    print(f"intent {workload}: {what}: {'confirmed' if holds(shares) else 'NOT confirmed'}")


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "proofun" / "__init__.py").is_file():
        fail(f"no proofun sources under {src}; run from a source checkout")
    corpus_dir = ROOT / "tests" / "corpus"
    if args.workload == "corpus" and not corpus_dir.is_dir():
        fail(f"no corpus scripts under {corpus_dir}")
    sys.path.insert(0, str(src))
    from proofun.repl import main as cli

    out_dir = ROOT / ".perfbench_work"
    work = out_dir / f"{args.workload}-{args.seed}"   # the scripts; removed at the end
    tally = Tally()
    try:
        plan = materialize(gen.build(args.workload, args.seed, ROUNDS, corpus_dir), work)
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz"
            metrics = traced(cli, plan, args.seconds, tally, spans)
        else:
            metrics = end_to_end(cli, src, plan, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    if tally.failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
