"""In-memory span tracer for the per-layer run.

The tracer wraps scalarweyl's public functions where their callers look them
up: every scalarweyl module attribute that refers to a traced function (its
own module, and every module that imported it by name) is replaced by a
wrapper, so calls made inside the package are seen as well as the
benchmark's own.  ``uninstall`` puts the originals back, so untraced passes
run the untouched program.

A span is ``[name, start, end, parent, pass_id, bytes_in]``; ``parent`` is the
index of the enclosing span.  A span's self time is its duration minus the
durations of its direct children, so the self times of one pass add up to
the duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# module -> public functions whose calls are recorded as spans
TRACED = {
    "grid": ("deriv", "gradient", "flux_laplacian", "integrate"),
    "tensor": (
        "kulkarni_nomizu",
        "pair_lift",
        "pair_contract",
        "trace_13",
        "vv_contract",
        "bianchi_project",
        "riemann_norm",
    ),
    "curvature": (
        "christoffel",
        "riemann",
        "ricci_scalar",
        "weyl",
        "curvature_bundle",
        "hessian",
    ),
    "conformal": ("scalar_weyl", "modified_laplacian_apply", "conformal_metric"),
    "deformation": ("deform", "weyl_error", "deformed_norm", "deformation_energy"),
    "yamabe": ("first_eigenvalue", "solve_constant_F"),
    "construct": ("search_parameters", "radial_fields", "make_bump"),
}

# stages of all workloads; a workload reports 0 for the stages it lacks
STAGES = ("deform", "scalar_weyl", "energy", "oracle", "solve", "construct")

# per-layer counts read off the program's own results: metric -> pass record key
OUTCOME_COUNTS = {
    "yamabe.eig_iters": "eig_iters",
    "yamabe.solve_iters": "solve_iters",
    "construct.cells_evaluated": "cells_evaluated",
    "construct.cells_accepted": "cells_accepted",
}


def _deriv_bytes(chart, arr, axis) -> int:
    # computed, not measured: float64 bytes of the grid-broadcast input
    components = int(np.prod(np.shape(arr)[chart.n:], dtype=np.int64))
    return chart.npoints * components * 8


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stage_peaks: dict[tuple[int, str], float] = {}
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "scalarweyl" or name.startswith("scalarweyl.")
        ]
        for module, names in TRACED.items():
            home = importlib.import_module(f"scalarweyl.{module}")
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        measure = _deriv_bytes if name == "grid.deriv" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nbytes = measure(*args, **kwargs) if measure else 0
            with self.span(name, nbytes):
                return fn(*args, **kwargs)

        return wrapper

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, nbytes: int = 0):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.pass_id, nbytes]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span for a workload stage, with the tracemalloc peak inside it."""
        tracemalloc.reset_peak()
        with self.span(f"stage.{name}"):
            yield
        self.stage_peaks[(self.pass_id, name)] = tracemalloc.get_traced_memory()[1] / 2**20

    @contextlib.contextmanager
    def traced_pass(self, pass_id: int):
        """Root span of one pass, with wrappers installed and tracemalloc on."""
        self.pass_id = pass_id
        self.install()
        tracemalloc.start()
        try:
            with self.span("pass"):
                yield
        finally:
            tracemalloc.stop()
            self.uninstall()
            self.pass_id = None

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def self_sum_error(self) -> float:
        """Largest |sum of a pass's self times - its root duration|, in seconds."""
        selfs = self.self_times()
        sums: dict[int, float] = defaultdict(float)
        roots: dict[int, float] = {}
        for (name, start, end, parent, pid, _), s in zip(self.spans, selfs):
            sums[pid] += s
            if parent is None:
                roots[pid] = end - start
        return max((abs(sums[p] - roots[p]) for p in roots), default=0.0)

    def _ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent is not None:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def metrics(self, passes: int, cells_evaluated: float) -> dict[str, float]:
        """Per-pass averages over ``passes`` traced passes."""
        calls: dict[str, int] = defaultdict(int)
        selfs: dict[str, float] = defaultdict(float)
        search = 0.0
        bench_self = 0.0
        deriv_bytes = 0
        applies_in_solve = 0
        for idx, ((name, start, end, parent, _, nbytes), s) in enumerate(
            zip(self.spans, self.self_times())
        ):
            if name == "pass" or name.startswith("stage."):
                bench_self += s
                continue
            calls[name] += 1
            selfs[name] += s
            deriv_bytes += nbytes
            if name == "construct.search_parameters":
                search += end - start
            if name == "grid.flux_laplacian" and "yamabe.solve_constant_F" in self._ancestors(idx):
                applies_in_solve += 1

        out: dict[str, float] = {}
        for module, names in TRACED.items():
            for fn in names:
                key = f"{module}.{fn}"
                out[f"{key}.calls"] = calls[key] / passes
                out[f"{key}.self_s"] = selfs[key] / passes
        out["grid.deriv.bytes_in"] = deriv_bytes / passes
        solves = calls["yamabe.solve_constant_F"]
        out["yamabe.applies_per_solve"] = applies_in_solve / solves if solves else 0.0
        out["construct.cell_s"] = search / (cells_evaluated * passes) if cells_evaluated else 0.0
        for stage in STAGES:
            peaks = [v for (pid, s), v in self.stage_peaks.items() if s == stage]
            out[f"stage.{stage}.peak_mb"] = max(peaks, default=0.0)
        out["bench.self_s"] = bench_self / passes
        return out

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON, times in seconds from ``origin``."""
        selfs = self.self_times()
        rows = [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "self": s,
                "parent": parent,
                "pass": pid,
                **({"bytes_in": nbytes} if nbytes else {}),
            }
            for (name, start, end, parent, pid, nbytes), s in zip(self.spans, selfs)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
