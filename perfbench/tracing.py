"""Spans around the public functions of each boxlab module, from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
module of the source tree that bound it (`from .engine import exact_boxed_max` binds
it in `pseudo` and in `cutnorm`; `box_norm` is bound in five modules), and
`Tracer.remove()` puts the originals back.  No file of the program
changes.  A span records its name, start, end, parent span, the operation
that caused it and the phase ("setup" or a pass number).  Spans stay in
memory until `write_spans` at the end of the run.

Counts come from arguments and results only (array shapes, `combos`,
`patterns_checked`), so they repeat exactly from run to run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

SUITE_ITEMS = (
    "box-oracle", "gcs", "norm-axioms", "bilinear", "cut-norm", "von-neumann",
    "counting", "ell-rules", "certifier-examples", "sum-family-end-to-end",
    "near-majorant-end-to-end", "generators", "determinism",
)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _direct_cells(args, kwargs, result):
    system, e, ell = args[0], args[1], _arg(args, kwargs, 3, "ell")
    cells = 1
    for v in e:
        cells *= system.spaces[v].size ** ell
    return {"boxnorm.direct.cells": cells}


def _box_norm_name(args, kwargs):
    method = _arg(args, kwargs, 4, "method", "recursive")
    return "boxnorm.recursive" if method == "recursive" else "boxnorm.box_norm"


def _sup_fallback(args, kwargs, result):
    asked = _arg(args, kwargs, 1, "mode", "exact")
    return {"pseudo.auto_fallbacks": int(asked == "auto" and result.mode == "heuristic")}


# (module, function, span name or name(args, kwargs), counts(args, kwargs, result))
TRACED = [
    ("boxnorm", "box_power_direct", "boxnorm.direct", _direct_cells),
    ("boxnorm", "gcs_form", "boxnorm.gcs_form", None),
    ("boxnorm", "box_norm", _box_norm_name, None),
    ("boxnorm", "lp_box_norm", "boxnorm.lp_box_norm", None),
    ("engine", "exact_boxed_max", "engine.exact",
     lambda a, k, r: {"engine.exact.combos": r.combos}),
    ("engine", "heuristic_boxed_max", "engine.heuristic",
     lambda a, k, r: {"engine.heuristic.restarts": _arg(a, k, 2, "restarts", 32)}),
    ("engine", "projection_rows", "engine.projection_rows",
     lambda a, k, r: {"engine.projection_rows.bytes": r.nbytes}),
    ("cutnorm", "cut_norm", "cutnorm.cut_norm", None),
    ("counting", "lambda_form", "counting.lambda_form", None),
    ("counting", "product_lp_norm", "counting.product_lp_norm", None),
    ("pseudo", "check_C1", "pseudo.check_C1", None),
    ("pseudo", "check_C2a", "pseudo.check_C2a", None),
    ("pseudo", "check_C2b", "pseudo.check_C2b", None),
    ("pseudo", "check_C3", "pseudo.check_C3", None),
    ("pseudo", "sup_multilinear", "pseudo.sup_multilinear", _sup_fallback),
    ("pseudo", "linear_forms_deviation", "pseudo.linear_forms_deviation",
     lambda a, k, r: {"pseudo.deviation.patterns": r.patterns_checked}),
    ("pseudo", "selector_correlation_sup", "pseudo.selector_correlation_sup", None),
    ("pseudo", "replica_mass_max", "pseudo.replica_mass_max", None),
    ("instances", "load_instance", "instances.load_instance", None),
    ("instances", "emit_json", "instances.emit_json", None),
    ("instances", "save_instance", "instances.save_instance", None),
    ("generators", "generate", "generators.generate", None),
    ("suite", "run_item", lambda a, k: "suite.item." + a[0].get("name", "?"), None),
    ("suite", "run_suite", "suite.run_suite", None),
]

# Per-module metrics: (name, unit, how).  "self" sums self time, "time"
# sums time inside the call, "calls" counts spans, "count" sums a counter.
# Set-up metrics are taken from the traced set-up, the rest per pass.
METRICS = [
    ("boxnorm.direct.self_s", "s", "self", "boxnorm.direct"),
    ("boxnorm.direct.calls", "count", "calls", "boxnorm.direct"),
    ("boxnorm.direct.cells", "count", "count", "boxnorm.direct.cells"),
    ("boxnorm.gcs_form.self_s", "s", "self", "boxnorm.gcs_form"),
    ("boxnorm.recursive.self_s", "s", "self", "boxnorm.recursive"),
    ("boxnorm.recursive.calls", "count", "calls", "boxnorm.recursive"),
    ("boxnorm.lp_box_norm.s", "s", "time", "boxnorm.lp_box_norm"),
    ("spaces.grid.count", "count", "count", "spaces.grid.count"),
    ("spaces.grid.cells", "count", "count", "spaces.grid.cells"),
    ("spaces.grid.max_cells", "count", "max", "spaces.grid.max_cells"),
    ("engine.exact.self_s", "s", "self", "engine.exact"),
    ("engine.exact.calls", "count", "calls", "engine.exact"),
    ("engine.exact.combos", "count", "count", "engine.exact.combos"),
    ("engine.heuristic.self_s", "s", "self", "engine.heuristic"),
    ("engine.heuristic.calls", "count", "calls", "engine.heuristic"),
    ("engine.heuristic.restarts", "count", "count", "engine.heuristic.restarts"),
    ("engine.projection_rows.s", "s", "time", "engine.projection_rows"),
    ("engine.projection_rows.bytes", "B", "count", "engine.projection_rows.bytes"),
    ("cutnorm.cut_norm.s", "s", "time", "cutnorm.cut_norm"),
    ("cutnorm.cut_norm.calls", "count", "calls", "cutnorm.cut_norm"),
    ("counting.lambda_form.s", "s", "time", "counting.lambda_form"),
    ("counting.lambda_form.calls", "count", "calls", "counting.lambda_form"),
    ("counting.product_lp_norm.s", "s", "time", "counting.product_lp_norm"),
    ("pseudo.check_C1.s", "s", "time", "pseudo.check_C1"),
    ("pseudo.check_C2a.s", "s", "time", "pseudo.check_C2a"),
    ("pseudo.check_C2b.s", "s", "time", "pseudo.check_C2b"),
    ("pseudo.check_C3.s", "s", "time", "pseudo.check_C3"),
    ("pseudo.sup_multilinear.calls", "count", "calls", "pseudo.sup_multilinear"),
    ("pseudo.auto_fallbacks", "count", "count", "pseudo.auto_fallbacks"),
    ("pseudo.linear_forms_deviation.s", "s", "time", "pseudo.linear_forms_deviation"),
    ("pseudo.deviation.patterns", "count", "count", "pseudo.deviation.patterns"),
    ("pseudo.selector_correlation_sup.s", "s", "time", "pseudo.selector_correlation_sup"),
    ("pseudo.replica_mass_max.s", "s", "time", "pseudo.replica_mass_max"),
    ("instances.load_instance.s", "s", "time", "instances.load_instance"),
    ("instances.emit_json.s", "s", "time", "instances.emit_json"),
    ("instances.save_instance.s", "s", "setup", "instances.save_instance"),
    ("generators.generate.s", "s", "setup", "generators.generate"),
    *[(f"suite.item.{item}.s", "s", "time", f"suite.item.{item}") for item in SUITE_ITEMS],
    ("suite.busy_s", "s", "busy", "suite.item."),
    ("suite.wait_s", "s", "count", "suite.wait_s"),
]


class Tracer:
    def __init__(self, root: str):
        self.root = root
        self.spans: list[list] = []  # [name, start, end, parent, op, phase]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.maxima: dict = defaultdict(lambda: defaultdict(float))
        self.op = None
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[self.phase][name] += value

    def _wrap(self, fn, name, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = [
                name(args, kwargs) if callable(name) else name,
                0.0, 0.0, stack[-1] if stack else None, tracer.op, tracer.phase,
            ]
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    tracer.count(key, value)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind in every module loaded from the source tree, the benchmark's too."""
        for mod in list(sys.modules.values()):
            path = getattr(mod, "__file__", None) or ""
            if not os.path.abspath(path).startswith(self.root + os.sep):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        import boxlab.suite
        from boxlab.spaces import Grid

        for mod_name, attr, name, counts in TRACED:
            original = getattr(sys.modules[f"boxlab.{mod_name}"], attr)
            self._replace_everywhere(original, self._wrap(original, name, counts))

        tracer = self
        grid_init = Grid.__init__

        def traced_init(grid, *args, **kwargs):
            grid_init(grid, *args, **kwargs)
            with tracer._lock:
                phase = tracer.counts[tracer.phase]
                phase["spaces.grid.count"] += 1
                phase["spaces.grid.cells"] += grid.cells
                top = tracer.maxima[tracer.phase]
                top["spaces.grid.max_cells"] = max(top["spaces.grid.max_cells"], grid.cells)

        Grid.__init__ = traced_init
        self._undo.append((Grid, "__init__", grid_init))

        class TracedPool(ThreadPoolExecutor):
            """Carries the submitting span into the worker and times the wait."""

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                submitted = time.perf_counter()

                def job():
                    tracer.count("suite.wait_s", time.perf_counter() - submitted)
                    worker = tracer._stack()
                    worker.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        worker.pop()

                return super().submit(job)

        self._undo.append((boxlab.suite, "ThreadPoolExecutor", boxlab.suite.ThreadPoolExecutor))
        boxlab.suite.ThreadPoolExecutor = TracedPool

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> dict:
        """Self time of each span: its duration minus the union of its children."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        out = {}
        for span in self.spans:
            covered = 0.0
            end = -float("inf")
            for s, e in sorted(children.get(id(span), ())):
                s = max(s, end)
                if e > s:
                    covered += e - s
                    end = e
            out[id(span)] = (span[2] - span[1]) - covered
        return out

    def phase_metrics(self, phase) -> dict:
        self_t = self.self_times()
        time_in = defaultdict(float)
        self_in = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            if span[5] != phase:
                continue
            time_in[span[0]] += span[2] - span[1]
            self_in[span[0]] += self_t[id(span)]
            calls[span[0]] += 1
        out = {}
        for metric, _unit, how, key in METRICS:
            if how == "self":
                out[metric] = self_in[key]
            elif how in ("time", "setup"):
                out[metric] = time_in[key]
            elif how == "calls":
                out[metric] = calls[key]
            elif how == "count":
                out[metric] = self.counts[phase][key]
            elif how == "max":
                out[metric] = self.maxima[phase][key]
            elif how == "busy":
                out[metric] = sum(v for k, v in time_in.items() if k.startswith(key))
        return out

    def metrics(self, passes) -> dict:
        """Median over passes of each per-pass metric; set-up ones from set-up."""
        per_pass = [self.phase_metrics(p) for p in passes]
        setup = self.phase_metrics("setup")
        out = {}
        for metric, unit, how, _key in METRICS:
            if how == "setup":
                value = setup[metric]
            else:
                value = statistics.median(m[metric] for m in per_pass)
            if unit == "count" or unit == "B":
                value = int(value) if float(value).is_integer() else value
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: str) -> None:
        ids = {id(span): k for k, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, op, phase) in enumerate(self.spans):
                parent_id = ids.get(id(parent)) if parent is not None else None
                fh.write(json.dumps([k, parent_id, name, start, end, op, phase]) + "\n")
