"""Per-layer tracing installed from outside the checker.

The tracer replaces the public functions of each proofun module with timing
wrappers at every place they are bound (the defining module and every module
that imported them by name), so calls made through any import site are seen.
`uninstall` puts the original functions back.

A span is recorded when control enters a layer from a different layer; a
call that stays inside the current layer is only counted.  A layer's time
therefore counts only its outermost entry, and its self time is its spans'
duration minus the spans of other layers nested in them.  Spans are kept in
memory (name, start, end, parent, script id) and written out by `write_spans`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

# (module, function, layer).  `fix_id` lives in the parser module but is the
# naming pass of printing (called only from `show_term`), so its time is
# charged to `pretty`; `_parse_chunk` lives in `repl` but runs the parser.
SPANNED = (
    ("proofun.parser", "tokenize", "parser"),
    ("proofun.repl", "_parse_chunk", "parser"),
    ("proofun.parser", "fix_index", "parser"),
    ("proofun.parser", "fix_id", "pretty"),
    ("proofun.refine", "elaborate", "refine"),
    ("proofun.refine", "elaborate_type", "refine"),
    ("proofun.refine", "reconstruct", "refine"),
    ("proofun.refine", "force_type", "refine"),
    ("proofun.refine", "essence", "refine"),
    ("proofun.unify", "unify", "unify"),
    ("proofun.unify", "unify_essence", "unify"),
    ("proofun.unify", "try_hopu", "unify"),
    ("proofun.normalize", "whnf", "normalize"),
    ("proofun.normalize", "normalize_meta", "normalize"),
    ("proofun.normalize", "strongly_normalize", "normalize"),
    ("proofun.normalize", "zonk", "normalize"),
    ("proofun.subtype", "is_subtype", "subtype"),
    ("proofun.subtype", "anf", "subtype"),
    ("proofun.subtype", "canf", "subtype"),
    ("proofun.subtype", "danf", "subtype"),
    ("proofun.pretty", "show_term", "pretty"),
    ("proofun.pretty", "render_error", "pretty"),
    ("proofun.repl", "exec_command", "repl"),
    ("proofun.repl", "main", "repl"),
)
# Spanned methods: (module, class, method, layer).
SPANNED_METHODS = (("proofun.env", "GlobalEnv", "snapshot", "env"),)
# Counted only, never spanned: too small and too frequent to time.
COUNTED = (("proofun.syntax", "beta_redex"),)
COUNTED_METHODS = (("proofun.env", "MetaEnv", "fresh_meta"),
                   ("proofun.env", "MetaEnv", "instantiate_meta"))

LAYERS = ("repl", "parser", "refine", "unify", "normalize", "subtype", "pretty", "env")
_NF = {"anf", "canf", "danf"}
_UNIFY_ENTRY = {"unify", "unify_essence"}


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.events: Counter[str] = Counter()     # outcome counts (failures, tokens, ...)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.outer_s: defaultdict[str, float] = defaultdict(float)   # per layer
        self.span_s: defaultdict[str, float] = defaultdict(float)    # per function, spans only
        self._depth: Counter[str] = Counter()
        self._stack: list[list[Any]] = []         # open spans: [layer, child seconds, span id]
        self._nf_depth = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("l")
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_script = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self.script = -1
        self._patched: list[tuple[object, str, object]] = []
        self._subterms: Callable[[Any], Any] | None = None
        self._prover_error: type[BaseException] = Exception

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self._subterms = importlib.import_module("proofun.syntax").subterms
        self._prover_error = importlib.import_module("proofun.errors").ProverError
        for module, name, layer in SPANNED:
            original = getattr(importlib.import_module(module), name)
            self._rebind(original, self._spanned(_short(module, name), name, layer, original))
        for module, name in COUNTED:
            original = getattr(importlib.import_module(module), name)
            self._rebind(original, self._counted(_short(module, name), original))
        for module, cls_name, name, layer in SPANNED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[name]
            self._patch(cls, name, self._spanned(f"{cls_name}.{name}", name, layer, original))
        for module, cls_name, name in COUNTED_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[name]
            self._patch(cls, name, self._counted(f"{cls_name}.{name}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _rebind(self, original: object, wrapper: object) -> None:
        """Replace `original` wherever a proofun module binds it by name."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "proofun" or mod_name.startswith("proofun.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _counted(self, key: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, key: str, name: str, layer: str, fn: Callable) -> Callable:
        tracer = self
        calls, stack, depth = self.calls, self._stack, self._depth
        observe = self._observer(name)
        is_nf = name in _NF
        is_unify_entry = name in _UNIFY_ENTRY
        rejected = "repl.commands_rejected" if name == "exec_command" else None
        prover_error = self._prover_error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            outer_nf = is_nf and tracer._nf_depth == 0
            if is_nf:
                tracer._nf_depth += 1
            if stack and stack[-1][0] == layer:      # stays in the layer: count only
                try:
                    result = fn(*args, **kwargs)
                except prover_error:
                    if rejected:
                        tracer.events[rejected] += 1
                    raise
                finally:
                    if is_nf:
                        tracer._nf_depth -= 1
                if observe is not None:
                    observe(result, outer_nf)
                return result
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else -1
            depth[layer] += 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            failed = False
            try:
                result = fn(*args, **kwargs)
            except prover_error:
                failed = True
                if rejected:
                    tracer.events[rejected] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
                if is_nf:
                    tracer._nf_depth -= 1
                duration = end - start
                tracer.self_s[layer] += duration - frame[1]
                tracer.span_s[key] += duration
                if depth[layer] == 0:
                    tracer.outer_s[layer] += duration
                if stack:
                    stack[-1][1] += duration
                tracer._record(key, span_id, parent, start, end)
                if is_unify_entry:
                    tracer.events["unify.entries"] += 1
                    tracer.events["unify.failures"] += failed
            if observe is not None:
                observe(result, outer_nf)
            return result
        return wrapper

    def _observer(self, name: str) -> Callable[[Any, bool], None] | None:
        events = self.events
        if name == "tokenize":
            return lambda toks, _o: events.update({"parser.tokens": len(toks) - 1})
        if name == "try_hopu":
            return lambda phi, _o: events.update({"unify.hopu_solved": phi is not None})
        if name == "is_subtype":
            return lambda ok, _o: events.update({"subtype.true": bool(ok)})
        if name in _NF:
            def nf(term: Any, outer: bool) -> None:
                if outer:
                    events["subtype.nf_nodes"] += sum(1 for _ in self._subterms(term))
            return nf
        if name in ("show_term", "render_error"):
            return lambda text, _o: events.update({"pretty.chars": len(text)})
        return None

    def _record(self, key: str, span_id: int, parent: int, start: float, end: float) -> None:
        name_id = self._name_ids.get(key)
        if name_id is None:
            name_id = self._name_ids[key] = len(self._names)
            self._names.append(key)
        self.span_id.append(span_id)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_script.append(self.script)
        self.span_start.append(start)
        self.span_end.append(end)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the spans as gzip-compressed tab-separated lines, ordered by
        start time."""
        order = sorted(range(len(self.span_start)), key=self.span_start.__getitem__)
        origin = self.span_start[order[0]] if order else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\tscript\tname\tstart_us\tend_us\n")
            for i in order:
                out.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.span_script[i]}\t"
                          f"{self._names[self.span_name[i]]}\t"
                          f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                          f"{(self.span_end[i] - origin) * 1e6:.1f}\n")
        return len(order)
