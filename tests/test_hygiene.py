"""Source hygiene of `src/proofun`: no unused import, no module-level
private name or public method that nothing uses, no name the benchmark
tracer wraps missing, and no import of the modules that make start-up slow.
No linter is installed, so these tests are the guard."""

import ast
import importlib
import os
import pathlib
import re
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
