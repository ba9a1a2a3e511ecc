"""Source hygiene of `src/proofun`: no unused import, no module-level
private name or public method that nothing uses, no function that no input
enters, no name the benchmark tracer wraps missing, and no import of the
modules that make start-up slow.  No linter is installed, so these tests
are the guard."""

import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "proofun").glob("*.py"))
SLOW_IMPORTS = {"dataclasses", "inspect"}
SEARCHED = [*SOURCES, *sorted((ROOT / "tests").glob("*.py")),
            *sorted((ROOT / "perfbench").glob("*.py"))]


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: every name not assigned to, and every
    identifier in a string that is not a docstring (an `__all__` entry, a
    string annotation, a name patched by string)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _uses(tree: ast.Module) -> set[str]:
    """The names a module reads, plus the attributes it reads and the names
    it imports from other modules."""
    names = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    # The scan also fails on an import of a slow module: `dataclasses`
    # compiles a function per generated method and pulls in `inspect`.
    tree = _parse(path)
    read = _read_names(tree)
    unused, slow = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
            slow += [a.name for a in node.names if a.name in SLOW_IMPORTS]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names if a.name != "*"]
            slow += [node.module] if node.module in SLOW_IMPORTS else []
        else:
            continue
        unused += [name for name in bound if name not in read]
    assert (unused, slow) == ([], [])


def test_importing_the_cli_loads_no_slow_module():
    probe = ("import sys, proofun.repl; "
             f"print(sorted(m for m in {sorted(SLOW_IMPORTS)} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded.strip() == "[]"


def test_every_private_module_name_is_used():
    used = set().union(*(_uses(_parse(path)) for path in SEARCHED))
    dead = []
    for path in SOURCES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{name}" for name in defined
                     if name.startswith("_") and not name.startswith("__")
                     and name not in used]
    assert dead == []


def test_every_public_method_is_used():
    # A method nothing reads is dead code, whatever its name.
    used = set().union(*(_uses(_parse(path)) for path in SEARCHED))
    dead = []
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                dead += [f"{path.name}:{node.name}.{item.name}" for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not item.name.startswith("_") and item.name not in used]
    assert dead == []


def test_the_refiner_reports_a_failed_unification_in_one_place():
    # One handler turns a failed unification into a located error (the
    # mismatch helper); the only other one is the product rule's search
    # over the allowed sort pairs, where a failure means "try the next".
    catching = []
    for node in _parse(ROOT / "src" / "proofun" / "refine.py").body:
        for inner in ast.walk(node):
            if (isinstance(inner, ast.ExceptHandler) and inner.type is not None
                    and any(isinstance(n, ast.Name) and n.id == "UnificationFailure"
                            for n in ast.walk(inner.type))):
                catching.append(node.name)
    assert sorted(catching) == ["_pts_check", "_unify_or"]


def test_the_meta_store_is_updated_in_place_and_backtracked_in_three_places():
    # The refiner, the unifier and the normaliser solve metas in one mutable
    # store, which carries the signature: no function returns a
    # meta-environment or takes a signature beside one, and only the three
    # searches that can fail half-way take a mark on its trail and undo to it.
    returning, marking, beside = [], [], []
    for name in ("refine.py", "unify.py", "normalize.py"):
        for node in ast.walk(_parse(ROOT / "src" / "proofun" / name)):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.returns is not None and "MetaEnv" in ast.unparse(node.returns):
                returning.append(node.name)
            params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            annotations = {ast.unparse(a.annotation) for a in params if a.annotation}
            if {"MetaEnv", "GlobalEnv"} <= annotations:
                beside.append(node.name)
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                   and call.func.attr in ("mark", "undo") for call in ast.walk(node)):
                marking.append(node.name)
    assert returning == []
    assert beside == []
    assert sorted(marking) == ["_pts_check", "_unify_or", "try_hopu"]


def test_every_name_the_tracer_wraps_exists():
    # The tracer rebinds these names when it is installed; a renamed or
    # deleted one would only show as a crash of a traced benchmark run.
    tables = {}
    for node in _parse(ROOT / "perfbench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED", "SPANNED_METHODS", "COUNTED_METHODS"):
                tables[name] = ast.literal_eval(node.value)
    assert len(tables) == 4
    missing = []
    for module, name, *_layer in tables["SPANNED"] + tables["COUNTED"]:
        if not hasattr(importlib.import_module(module), name):
            missing.append(f"{module}.{name}")
    for module, cls, name, *_layer in tables["SPANNED_METHODS"] + tables["COUNTED_METHODS"]:
        if name not in getattr(importlib.import_module(module), cls).__dict__:
            missing.append(f"{module}.{cls}.{name}")
    assert missing == []


def test_only_the_parser_names_fix_index():
    # The parser resolves names as it builds the tree, so nothing else in
    # the checker converts a named term to de Bruijn indices.
    naming = [path.name for path in SOURCES if path.name != "parser.py"
              and "fix_index" in _uses(_parse(path))]
    assert naming == []


def test_node_kinds_are_told_apart_by_their_exact_type():
    # Node kinds and meta-entry kinds have no subclasses, so `type(t) is K`
    # decides what a class pattern or an `isinstance` call would, at a
    # fraction of their cost.  The parser's `fix_id` and the command loop's
    # `match` are not checked.
    from proofun.env import MetaEntry
    from proofun.syntax import Term
    kinds = {k.__name__ for k in (*Term.__subclasses__(), *MetaEntry.__args__)}
    found = []
    for name in ("syntax.py", "env.py", "normalize.py", "unify.py", "refine.py",
                 "subtype.py", "pretty.py"):
        for node in ast.walk(_parse(ROOT / "src" / "proofun" / name)):
            if isinstance(node, ast.MatchClass):
                named = node.cls
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                named = node.args[1]
            else:
                continue
            if any(getattr(n, "id", getattr(n, "attr", None)) in kinds for n in ast.walk(named)):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_a_resource_limit_has_no_handler_of_its_own():
    # Running out of fuel is a `ProverError` and the nesting limit becomes
    # one, so `run_source` reports either through its `ProverError` path:
    # at the running command, with the command rolled back.  No error class
    # is an `InternalError`, the broken invariant that well-formed input
    # never raises.
    from proofun import errors
    tree = _parse(ROOT / "src" / "proofun" / "repl.py")
    run_source = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "run_source")
    handled = [ast.unparse(node.type) for node in ast.walk(run_source)
               if isinstance(node, ast.ExceptHandler)]
    assert sorted(handled) == ["KeyboardInterrupt", "ProverError", "RecursionError", "_LoadFailed"]
    internal = [name for name, value in vars(errors).items()
                if isinstance(value, type) and issubclass(value, errors.InternalError)
                and value is not errors.InternalError]
    assert internal == []


# --------------------------------------------------------------------------
# Reachability: every function of `src/proofun` is entered by some input.

# The functions the gate's inputs never enter, each with the reason it
# stays.  A function is named by its module and the names it is nested in
# (`parser.fix_index.go`); an entry also covers the code nested in it.
UNREACHED = {
    "parser.fix_index": "no caller in src/; the benchmark tracer wraps it, "
                        "so it goes once the tracer no longer names it",
    "parser.fix_id": "no caller in src/; the benchmark tracer wraps it and it is in "
                     "proofun.__all__, so it goes once the tracer no longer names it",
    "syntax.subterms": "no caller in src/; the benchmark tracer uses it, so it moves "
                       "to the tests once the tracer no longer names it",
    "parser.parse_term": "public entry point with no internal caller",
    "parser.parse_command": "public entry point with no internal caller",
    "parser.parse_script": "public entry point with no internal caller "
                           "(perfbench/test_gen.py uses it)",
    "env.GlobalEnv.__contains__": "public method with no internal caller (`name in genv`)",
    "env.GlobalEnv.names": "public method with no internal caller",
    "syntax._frozen": "guard: only raises AttributeError on an assignment to a field",
    "syntax._repr": "the repr of a node or record: read only by InternalError "
                    "messages and by a person debugging",
}

# Scripts beyond the corpus, the golden inputs and the growth families,
# each reaching code that those do not.
REACH_SCRIPTS = [
    # A projection of an axiom is stuck, and `Compute` reads it back.
    "Axiom (A : Type) (p : A & A). Definition q := proj_l p. Compute q.",
    # Eta-expanded definitions contract, the inner one under a binder.
    "Axiom (A : Type) (g : A -> A -> A) (a : A).\n"
    "Definition e := fun (x : A) => g a x. Definition e2 := fun (y x : A) => g y x.\n"
    "Compute e. Compute e2.",
    # A binder hint equal to a constant in its scope, printed.
    "Axiom (A : Type) (x : A) (g : A -> A -> A).\n"
    "Definition h := g x ((fun (x : A) => x) x). Print h. Printall.",
    # The head view of a partial application substitutes its environment.
    "Axiom (A : Type) (P : (A -> A) -> Type) (a : A) (p : P (fun (y : A) => a)).\n"
    "Definition k := fun (x y : A) => x. Definition q : P (k a) := p.",
    # Rejections: a hole in a strong pair has an essence companion and stays
    # unsolved; an unannotated binder; a term missing.
    "Axiom (s t : Type). Definition h : (s -> s) & (t -> t) := <fun x : s => x, fun x : t => _>.",
    "Axiom (A : Type). Definition d := fun x y : A => x. Definition u := fun x => x.",
    "Definition d := .",
]


def _reached_probe() -> None:
    """Run the gate's inputs under `sys.setprofile`, from the import of the
    package on, and print the name of every code object of `src/proofun`
    that no input entered, as JSON.  Run it in a fresh process: the import
    must happen under the profile."""
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    from proofun.repl import Session, main, run_source  # imports the whole package
    sys.setprofile(None)
    import test_growth  # the test helpers call the checker as they load
    from helpers import CORPUS_FILES, corpus_path

    scripts = [pathlib.Path(corpus_path(name)).read_text(encoding="utf-8")
               for name in CORPUS_FILES]
    scripts.append("Axiom (bool nat : Type) (f : (bool -> nat -> bool) -> bool).\n"
                   "Definition d := f (fun x y => y).\nHelp.\n")  # the golden inputs
    sizes = [*test_growth.FAMILIES, (test_growth.chain_of_holes, 40),
             (test_growth.let_chain, 40), (test_growth.shared_let_chain, 20)]
    scripts += [family(size // 4) for family, size in sizes]
    scripts += [*REACH_SCRIPTS, f'Load "{corpus_path(CORPUS_FILES[0])}".']
    sys.setprofile(profile)
    for text in scripts:
        run_source(Session(out=io.StringIO(), err=io.StringIO()), text)
    # The CLI on a file, and the interactive loop on a command split over lines.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.argv = ["proofun", "--quiet", corpus_path(CORPUS_FILES[0])]
        with contextlib.suppress(SystemExit):
            runpy.run_module("proofun", run_name="__main__")
        sys.stdin = io.StringIO("Axiom (A : Type).\nDefinition d :=\n  A.\nQuit.\n")
        main([])
    sys.setprofile(None)

    missing = []
    for path in SOURCES:
        source = compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
        todo = [(source, path.stem)]
        while todo:
            code, name = todo.pop()
            todo += [(c, f"{name}.{c.co_name}") for c in code.co_consts if isinstance(c, type(code))]
            if code not in entered:  # code objects compare by content
                missing.append(name)
    print(json.dumps(sorted(set(missing))))


def test_every_function_of_the_checker_is_entered():
    # A function that the corpus, the golden inputs, the growth families
    # and a few extra scripts never enter is dead code, unless the allowlist
    # gives a reason to keep it.  An allowlist entry that is entered after
    # all is stale, and fails too.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    probe = "import test_hygiene; test_hygiene._reached_probe()"
    missing = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                        capture_output=True, text=True).stdout)

    def covers(entry, name):
        return name == entry or name.startswith(entry + ".")

    assert [name for name in missing if not any(covers(e, name) for e in UNREACHED)] == []
    stale = [entry for entry in UNREACHED if not any(covers(entry, n) for n in missing)]
    assert stale == []
