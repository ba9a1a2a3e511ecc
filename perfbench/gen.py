"""Seeded generators for the benchmark's `.bull` scripts and their known
answers.

Every script is built together with the answer it must get: the verdict
(accepted, or rejected with a stated error), the exact text printed by its
`Compute`/`Print` commands, and its number of atomic commands.  The answers
follow from how the script was built; nothing here runs the checker.

A workload is a list of rounds.  Each round holds one script from every cell
(family x size) of the workload, in a seeded order, so that any prefix of
the rounds has nearly the same mix of scripts and the timing percentiles do
not depend on where a run stops.  The seed chooses names, permutations,
factorisations and the place of an ill-typed argument; the sizes and which
scripts are rejections are fixed per workload, so every seed gets the same
mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "deep_elab", "subtype_wide", "normalize_print")


def _factor(n: int, p: int) -> int:
    """Exponent of the prime p in n."""
    e = 0
    while n % p == 0:
        n, e = n // p, e + 1
    return e


def _widths(n: int) -> list[int]:
    """Union widths of a conj_coe whose DNF has n disjuncts."""
    return [p for p in (2, 3, 5) for _ in range(_factor(n, p))]


# Sizes stay well below the ~300-deep nesting at which the checker reports
# "the input is nested too deeply to process"; the benchmark does not
# measure that limit.  They are dense (15 * 2**(k/7), rounded, up to 98), so
# that the script times of a round spread evenly and no timing percentile
# sits in a gap between two sizes; some pairs double, for the growth report.
DEEP_SIZES = tuple(round(15 * 2 ** (k / 7)) for k in range(20))
DEEP_FAMILIES = ("nested_fun", "spine", "hole", "pair")
# subtype_wide sizes are the number of disjuncts in the left side's DNF:
# every number from 8 to 256 whose prime factors are 2, 3 and 5, built from
# one union of 2, 3 or 5 atoms per factor (2 to 8 conjuncts).  They are
# dense, so that no timing percentile sits in a gap between two sizes.
CONJ_SIZES = tuple(n for n in range(8, 257)
                   if n == 2 ** _factor(n, 2) * 3 ** _factor(n, 3) * 5 ** _factor(n, 5))
ARROW_SIZES = (6, 12, 24)
# Products j*k of the two Church numerals multiplied in normalize_print.
NUMERAL_PRODUCTS = (16, 18, 20, 22, 24, 26, 28, 30, 33, 36, 39, 42, 45, 49, 52, 56,
                    60, 65, 70, 77, 84, 91, 98, 105, 112, 120, 130, 140, 150, 165,
                    180, 195, 210, 225)
# In deep_elab and subtype_wide, one script in REJECT_EVERY of each cell
# must be rejected.
REJECT_EVERY = 5

TYPE_ERROR = 'has type "{got}" while it is expected to have type "{want}"'


@dataclass(frozen=True)
class Script:
    name: str            # file name, unique within the workload
    family: str
    size: int
    text: str
    accept: bool         # expected verdict of the whole script
    stdout: str          # exact expected standard output (--quiet)
    error: str           # fragment the error message must contain; "" if accepted
    commands: int        # atomic commands in the script
    path: str = ""       # where the script is read from when run

    @property
    def cell(self) -> tuple[str, int]:
        return self.family, self.size


@dataclass(frozen=True)
class Plan:
    workload: str
    setup: Script                 # checked cold by the set-up children
    rounds: list[list[Script]]    # the timed loop cycles through these


# ---------------------------------------------------------------------------
# helpers


def _tag(rng: random.Random) -> str:
    return f"{rng.randrange(100, 1000)}"


def _apply_n(head: str, times: int, arg: str) -> str:
    """Printed form of head (head (... arg)) with `times` applications."""
    text = arg
    for i in range(times):
        text = f"{head} {text}" if i == 0 else f"{head} ({text})"
    return text


def _arrows(types: list[str]) -> str:
    return " -> ".join(types)


# ---------------------------------------------------------------------------
# deep_elab: refine / unify / normalize on one large definition


def nested_fun(rng: random.Random, n: int, accept: bool) -> tuple[str, str, int]:
    """`fun (x1 : A) => ... => fun (xn : A) => g xq`, one binder of type B;
    rejected when g is applied to the B binder."""
    t = _tag(rng)
    a, b, g = f"A{t}", f"B{t}", f"g{t}"
    odd = rng.randrange(n)
    q = odd if not accept else rng.choice([i for i in range(n) if i != odd])
    binders = " => ".join(
        f"fun (x{i} : {b if i == odd else a})" for i in range(n))
    text = (f"Axiom ({a} {b} : Type) ({g} : {a} -> {a}).\n"
            f"Definition d{t} := {binders} => {g} x{q}.\n")
    return text, TYPE_ERROR.format(got=b, want=a), 4


def spine(rng: random.Random, n: int, accept: bool) -> tuple[str, str, int]:
    """`h u ... u` for h of arity n; rejected when one late argument has
    the wrong type."""
    t = _tag(rng)
    a, b, h, u, v = f"A{t}", f"B{t}", f"h{t}", f"u{t}", f"v{t}"
    args = [u] * n
    if not accept:
        args[rng.randrange(3 * n // 4, n)] = v
    text = (f"Axiom ({a} {b} : Type) ({h} : {_arrows([a] * n + [b])}) "
            f"({u} : {a}) ({v} : {b}).\n"
            f"Definition d{t} := {h} {' '.join(args)}.\n")
    return text, TYPE_ERROR.format(got=b, want=a), 6


def hole(rng: random.Random, n: int, accept: bool) -> tuple[str, str, int]:
    """A binder typed `A -> ... -> A -> _` whose hole is solved by unifying
    with the n-ary arrow k expects; rejected when one domain is B."""
    t = _tag(rng)
    a, b, k = f"A{t}", f"B{t}", f"k{t}"
    doms = [a] * n
    if not accept:
        doms[rng.randrange(3 * n // 4, n)] = b
    text = (f"Axiom ({a} {b} : Type) ({k} : ({_arrows([a] * n + [b])}) -> {b}).\n"
            f"Definition d{t} (y : {_arrows(doms + ['_'])}) := {k} y.\n")
    return text, 'the term "y" has type', 4


def pair(rng: random.Random, n: int, accept: bool) -> tuple[str, str, int]:
    """Strong pair of two lambdas whose bodies apply the two projections of
    one n-ary constant, so both components share one essence; rejected when
    one argument of the second component is ill-typed."""
    t = _tag(rng)
    a, b, h, w = f"A{t}", f"B{t}", f"h{t}", f"w{t}"
    right = ["x"] * n
    if not accept:
        right[rng.randrange(3 * n // 4, n)] = w
    text = (f"Axiom ({a} {b} : Type) ({w} : {a}) "
            f"({h} : ({_arrows([a] * (n + 1))}) & ({_arrows([b] * (n + 1))})).\n"
            f"Definition d{t} := <fun (x : {a}) => proj_l {h} {' '.join(['x'] * n)}, "
            f"fun (x : {b}) => proj_r {h} {' '.join(right)}>.\n")
    return text, TYPE_ERROR.format(got=a, want=b), 5


_DEEP = {"nested_fun": nested_fun, "spine": spine, "hole": hole, "pair": pair}


def _deep_script(rng: random.Random, family: str, n: int, accept: bool,
                 name: str) -> Script:
    text, error, commands = _DEEP[family](rng, n, accept)
    return Script(name, family, n, text, accept, "", "" if accept else error,
                  commands)


# ---------------------------------------------------------------------------
# subtype_wide: is_subtype on wide intersections of unions


def conj_coe(rng: random.Random, widths: list[int], accept: bool) -> tuple[str, str, int]:
    """coe from an intersection of unions of atoms, one union of each width,
    (a0|b0)&...&(a(n-1)|b(n-1)|c(n-1)), to a seeded permutation of it with
    each union's atoms reordered; rejected when one conjunct is narrowed to
    a single atom.  The left side's disjunctive normal form has the product
    of the widths as its number of disjuncts."""
    t = _tag(rng)
    widths = widths[:]
    rng.shuffle(widths)
    unions = [[f"{'abcde'[k]}{i}_{t}" for k in range(w)] for i, w in enumerate(widths)]
    left = " & ".join(f"({' | '.join(u)})" for u in unions)
    order = list(range(len(unions)))
    rng.shuffle(order)
    narrow = rng.randrange(len(unions)) if not accept else -1
    parts = []
    for i in order:
        atoms = unions[i][:]
        rng.shuffle(atoms)
        parts.append(atoms[0] if i == narrow else f"({' | '.join(atoms)})")
    names = " ".join(" ".join(u) for u in unions)
    text = (f"Axiom ({names} : Type) (w{t} : {left}).\n"
            f"Definition d{t} := coe ({' & '.join(parts)}) w{t}.\n")
    return text, "which is not a subtype of", sum(widths) + 2


def arrow_coe(rng: random.Random, n: int, accept: bool,
              variant: int) -> tuple[str, str, int]:
    """Arrow distribution: (x0 -> c) & ... to (x_p0 | ...) -> c, or
    (c -> x0) & ... to c -> (x_p0 & ...); rejected when the target has an
    atom the source lacks."""
    t = _tag(rng)
    c, z = f"c{t}", f"z{t}"
    xs = [f"x{i}_{t}" for i in range(n)]
    order = xs[:]
    rng.shuffle(order)
    if not accept:
        order.insert(rng.randrange(n + 1), z)
    if variant % 2 == 0:
        left = " & ".join(f"({x} -> {c})" for x in xs)
        right = f"({' | '.join(order)}) -> {c}"
    else:
        left = " & ".join(f"({c} -> {x})" for x in xs)
        right = f"{c} -> {' & '.join(order)}"
    text = (f"Axiom ({c} {z} {' '.join(xs)} : Type) (w{t} : {left}).\n"
            f"Definition d{t} := coe ({right}) w{t}.\n")
    return text, "which is not a subtype of", n + 4


# ---------------------------------------------------------------------------
# normalize_print: Compute / Print of Church numerals and their products


def numerals(rng: random.Random, product: int) -> tuple[str, str, int, tuple[int, int]]:
    factors = [(j, product // j) for j in range(1, 16)
               if product % j == 0 and product // j <= 15]
    j, k = rng.choice(factors)
    t = _tag(rng)
    o, mul, cj, ck, p = f"o{t}", f"mul{t}", f"c{j}_{t}", f"c{k}_{t}", f"p{t}"
    nat = f"({o} -> {o}) -> {o} -> {o}"

    def church(times: int) -> str:
        return f"fun f : {o} -> {o} => fun x : {o} => {_apply_n('f', times, 'x')}"

    def normal(times: int) -> str:
        """Normal form of the numeral: `fun x => f x` eta-reduces to `f`."""
        return f"fun f : {o} -> {o} => f" if times == 1 else church(times)

    lines = [f"Axiom ({o} : Type).",
             f"Definition {mul} := fun (m n : {nat}) (f : {o} -> {o}) (x : {o}) "
             f"=> m (n f) x."]
    numeral_defs = [(cj, j)] + ([(ck, k)] if ck != cj else [])
    for name, times in numeral_defs:
        lines.append(f"Definition {name} := fun (f : {o} -> {o}) (x : {o}) => "
                     f"{_apply_n('f', times, 'x')}.")
    lines += [f"Definition {p} := {mul} {cj} {ck}.",
              f"Compute {p}.", f"Print {p}.", f"Compute {cj}.", f"Print {ck}."]
    out = [normal(j * k),
           f"{p} : {nat}", f"{p} := {mul} {cj} {ck}",
           normal(j),
           f"{ck} : {nat}", f"{ck} := {church(k)}"]
    commands = 2 + len(numeral_defs) + 1 + 4
    return "\n".join(lines) + "\n", "\n".join(out) + "\n", commands, (j, k)


# ---------------------------------------------------------------------------
# corpus: the example scripts plus one-command rejections


def count_atomic(text: str) -> int:
    """Atomic commands of a script: one per command, except that an
    `Axiom (x y : T) (z : U).` group form counts one per name."""
    text = _strip_comments(text)
    total = 0
    for cmd in text.split(".")[:-1]:
        words = cmd.split()
        if words[:1] == ["Axiom"] and cmd.lstrip()[len("Axiom"):].lstrip().startswith("("):
            total += _axiom_group_names(cmd.lstrip()[len("Axiom"):])
        else:
            total += 1
    return total


def _strip_comments(text: str) -> str:
    out, depth, i = [], 0, 0
    while i < len(text):
        if text.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 2
        else:
            if not depth:
                out.append(text[i])
            i += 1
    return "".join(out)


def _axiom_group_names(groups: str) -> int:
    names, depth, in_names, current = 0, 0, False, ""
    for ch in groups:
        if ch == "(":
            depth += 1
            if depth == 1:
                in_names, current = True, ""
                continue
        elif ch == ")":
            depth -= 1
        if depth == 1 and in_names:
            if ch == ":":
                names += len(current.split())
                in_names = False
            else:
                current += ch
    return names


def rejection(rng: random.Random, kind: str) -> tuple[str, str, int]:
    t = _tag(rng)
    s, u, f, y, g = f"s{t}", f"t{t}", f"f{t}", f"y{t}", f"g{t}"
    prelude = f"Axiom ({s} {u} : Type) ({f} : {s} -> {u}) ({y} : {u}) ({g} : {u} -> {u}).\n"
    body = {
        "wrong_arg": (f"Definition bad{t} := {f} {y}.",
                      f'the term "{y}" has type "{u}" while it is expected to have type "{s}"'),
        "essence_pair": (f"Definition bad{t} : ({s} -> {s}) & ({u} -> {u}) := "
                         f"<fun x : {s} => x, fun x : {u} => {g} x>.",
                         f'the term has essence "{g} x" while it is expected to have essence "x"'),
        "hole": (f"Definition bad{t} := fun (x : _) => x.",
                 "cannot infer a term for the placeholder"),
        "unknown": (f"Definition bad{t} := nope{t}.", f'unknown identifier "nope{t}"'),
    }[kind]
    return prelude + body[0] + "\n", body[1], 6


REJECTION_KINDS = ("wrong_arg", "essence_pair", "hole", "unknown")
CORPUS_FILES = ("basics", "deductions", "harrop", "lf_encoding", "pierce")
# Each corpus file appears this often per round, beside one script of each
# rejection kind, so that p90 falls inside the slowest file's times rather
# than at their edge.
CORPUS_REPEAT = 2


# ---------------------------------------------------------------------------
# plans


def _rng(workload: str, seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed) + parts)))


def _rejects(r: int, cell: int) -> bool:
    """Whether cell number `cell` holds a rejection in round `r`: one round
    in REJECT_EVERY, staggered over the cells and independent of the seed,
    so that every run of the same length has the same mix."""
    return (r + cell) % REJECT_EVERY == REJECT_EVERY - 1


def build(workload: str, seed: int, rounds: int, corpus_dir: Path | None = None) -> Plan:
    """The workload's set-up script and its first `rounds` rounds."""
    if workload == "corpus":
        return _corpus(seed, rounds, corpus_dir)
    if workload == "deep_elab":
        return _deep(seed, rounds)
    if workload == "subtype_wide":
        return _subtype(seed, rounds)
    if workload == "normalize_print":
        return _normalize(seed, rounds)
    raise ValueError(f"unknown workload {workload!r}")


def _shuffled(rng: random.Random, items: list[Script]) -> list[Script]:
    rng.shuffle(items)
    return items


def _deep(seed: int, rounds: int) -> Plan:
    cells = [(f, n) for f in DEEP_FAMILIES for n in DEEP_SIZES]
    out = []
    for r in range(rounds):
        rng = _rng("deep_elab", seed, r)
        row = [_deep_script(rng, f, n, not _rejects(r, c), f"r{r}_{f}_{n}.bull")
               for c, (f, n) in enumerate(cells)]
        out.append(_shuffled(rng, row))
    setup = _deep_script(_rng("deep_elab", seed, "setup"), "nested_fun", 60, True,
                         "setup.bull")
    return Plan("deep_elab", setup, out)


def _subtype(seed: int, rounds: int) -> Plan:
    cells = [("conj", n) for n in CONJ_SIZES] + [("arrow", n) for n in ARROW_SIZES]
    out = []
    for r in range(rounds):
        rng = _rng("subtype_wide", seed, r)
        row = []
        for c, (family, n) in enumerate(cells):
            accept = not _rejects(r, c)
            if family == "conj":
                text, error, commands = conj_coe(rng, _widths(n), accept)
            else:
                text, error, commands = arrow_coe(rng, n, accept, r)
            row.append(Script(f"r{r}_{family}_{n}.bull", family, n, text, accept,
                              "", "" if accept else error, commands))
        out.append(_shuffled(rng, row))
    text, _error, commands = conj_coe(_rng("subtype_wide", seed, "setup"), [2] * 7, True)
    setup = Script("setup.bull", "conj", 2 ** 7, text, True, "", "", commands)
    return Plan("subtype_wide", setup, out)


def _normalize(seed: int, rounds: int) -> Plan:
    out = []
    for r in range(rounds):
        rng = _rng("normalize_print", seed, r)
        row = []
        for product in NUMERAL_PRODUCTS:
            text, stdout, commands, _jk = numerals(rng, product)
            row.append(Script(f"r{r}_mul_{product}.bull", "mul", product, text,
                              True, stdout, "", commands))
        out.append(_shuffled(rng, row))
    text, stdout, commands, _jk = numerals(_rng("normalize_print", seed, "setup"), 100)
    setup = Script("setup.bull", "mul", 100, text, True, stdout, "", commands)
    return Plan("normalize_print", setup, out)


def _corpus(seed: int, rounds: int, corpus_dir: Path | None) -> Plan:
    if corpus_dir is None:
        raise ValueError("the corpus workload needs the corpus directory")
    files = []
    for stem in CORPUS_FILES:
        path = corpus_dir / f"{stem}.bull"
        text = path.read_text(encoding="utf-8")
        files.append(Script(path.name, "corpus", len(text), text, True, "", "",
                            count_atomic(text), str(path)))
    out = []
    for r in range(rounds):
        rng = _rng("corpus", seed, r)
        row = files * CORPUS_REPEAT
        for kind in REJECTION_KINDS:
            text, error, commands = rejection(rng, kind)
            row.append(Script(f"r{r}_{kind}.bull", kind, 1, text, False, "",
                              error, commands))
        out.append(_shuffled(rng, row))
    setup = next(s for s in files if s.name == "lf_encoding.bull")
    return Plan("corpus", setup, out)
