"""Span tracing of rkheat's public functions, installed from outside the package.

A ``Tracer`` replaces each traced function by a wrapper under every name
where a caller looks it up (``rkheat.cli.assemble``,
``rkheat.collocation.kernel_matrix``, ``rkheat.evaluate`` and so on) and
puts the originals back on ``uninstall``.  Every call becomes a span with a
name, a layer, start and end times and the id of its parent span.  Spans
stay in memory; ``layer_metrics`` turns them into self times and counts and
``dump_spans`` writes them out when the run ends.

A span's self time is its duration minus the part covered by its child
spans.  One caller and no threads means children never overlap, so the
covered part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
import tracemalloc

import numpy as np

LAYERS = ("kernels", "problems", "collocation", "optimality", "fd_reference", "cli")

# (layer, module that defines it, attribute path) of every traced function
TRACED = (
    ("kernels", "rkheat.kernels", "build_kernel"),
    ("kernels", "rkheat.kernels", "kernel_matrix"),
    ("problems", "rkheat.problems", "builtin_example"),
    ("problems", "rkheat.problems", "homogenize"),
    ("problems", "rkheat.problems", "cost_functional"),
    ("collocation", "rkheat.collocation", "standard_kernels"),
    ("collocation", "rkheat.collocation", "generate_nodes"),
    ("collocation", "rkheat.collocation", "assemble"),
    ("collocation", "rkheat.collocation", "solve"),
    ("collocation", "rkheat.collocation", "solve_picard"),
    ("collocation", "rkheat.collocation", "evaluate"),
    ("collocation", "rkheat.collocation", "Solution.evaluate_grid"),
    ("collocation", "rkheat.collocation", "error_norms"),
    ("optimality", "rkheat.optimality", "residual_forward"),
    ("optimality", "rkheat.optimality", "residual_adjoint"),
    ("fd_reference", "rkheat.fd_reference", "solve_coupled_fd"),
    ("fd_reference", "rkheat.fd_reference", "error_vs_exact"),
    ("cli", "rkheat.cli", "main"),
)

# modules whose globals may hold a traced function under its public name
_LOOKUP_MODULES = ("rkheat",) + tuple(dict.fromkeys(module for _, module, _ in TRACED))

# per-layer metrics, name -> unit; every traced run reports all of them
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "kernels.kernel_matrix_s": "s",
    "kernels.kernel_matrix_calls": "count",
    "kernels.kernel_matrix_cols": "count",
    "kernels.build_kernel_s": "s",
    "problems.homogenize_s": "s",
    "problems.cost_functional_s": "s",
    "collocation.assemble_s": "s",
    "collocation.assemble_peak_mb": "MB",
    "collocation.assemble_peak_ratio": "ratio",
    "collocation.unknowns": "count",
    "collocation.solve_s": "s",
    "collocation.cond_post": "ratio",
    "collocation.residual_max": "abs",
    "collocation.solve_picard_s": "s",
    "collocation.picard_sweeps": "count",
    "collocation.evaluate_s": "s",
    "collocation.query_grid_ms": "ms",
    "collocation.query_scattered_ms": "ms",
    "collocation.evaluate_grid_s": "s",
    "collocation.evaluate_grid_calls": "count",
    "collocation.evaluate_grid_points": "count",
    "collocation.error_norms_s": "s",
    "optimality.residual_s": "s",
    "optimality.residual_calls": "count",
    "fd_reference.solve_coupled_fd_s": "s",
    "fd_reference.unknowns": "count",
    "cli.bytes_written": "bytes",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "child_s", "info")

    def __init__(self, id_, name, layer, parent):
        self.id, self.name, self.layer, self.parent = id_, name, layer, parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.info = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.largest_assemble = (0, None, (), {})

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, parent.id if parent else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a root-level span of the benchmark's own."""
        span = self.begin(name, "bench")
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        tracer = self
        short = qualname.rsplit(".", 1)[-1]
        record = _RECORDERS.get(short)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(short, layer)
            try:
                result = fn(*args, **kwargs)
                if record is not None:
                    record(span.info, args, result)
                if short == "assemble" and span.info["unknowns"] > tracer.largest_assemble[0]:
                    tracer.largest_assemble = (span.info["unknowns"], fn, args, kwargs)
                return result
            finally:
                tracer.end(span)

        return wrapper

    def install(self) -> None:
        originals = {}
        for layer, module_name, path in TRACED:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
            fn = getattr(owner, attr)
            wrapper = self._wrap(layer, path, fn)
            if owner is not module:             # a method: bound on its class
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        for module_name in _LOOKUP_MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def assemble_peak(self) -> tuple[int, int]:
        """(tracemalloc peak, A.nbytes) of a repeat of the largest traced assemble.

        Measured after the unit and outside every span: tracemalloc slows
        each Python allocation, which would inflate the self times.
        """
        _, fn, args, kwargs = self.largest_assemble
        if fn is None:
            return 0, 1
        tracemalloc.start()
        try:
            system = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, system.A.nbytes


def _record_kernel_matrix(info, args, result):
    info["cols"] = int(np.shape(result)[1])


def _record_assemble(info, args, result):
    info["unknowns"] = int(result.A.shape[0])


def _record_solve(info, args, result):
    info["cond_post"] = float(result.info["cond"]["post"])
    info["residual_max"] = float(result.info["residual_max"])


def _record_solve_picard(info, args, result):
    info["sweeps"] = int(result[1].iterations)


def _record_evaluate(info, args, result):
    # generate_nodes makes the only tensor grids; any other node set is scattered
    tensor = args[0].node_set.generation.get("kind") == "midpoint_grid"
    info["layout"] = "grid" if tensor else "scattered"


def _record_evaluate_grid(info, args, result):
    info["points"] = int(np.size(result[0]))


def _record_solve_coupled_fd(info, args, result):
    n_levels, n_cols = result.y.values.shape
    # state at levels 1..M and adjoint at 0..M-1, interior columns only
    info["unknowns"] = 2 * (n_levels - 1) * (n_cols - 2)


_RECORDERS = {
    "kernel_matrix": _record_kernel_matrix,
    "assemble": _record_assemble,
    "solve": _record_solve,
    "solve_picard": _record_solve_picard,
    "evaluate": _record_evaluate,
    "evaluate_grid": _record_evaluate_grid,
    "solve_coupled_fd": _record_solve_coupled_fd,
}


def dump_spans(spans: list[Span], path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump([{"id": s.id, "name": s.name, "layer": s.layer, "parent": s.parent,
                    "start": s.start, "end": s.end, **s.info} for s in spans], f)
        f.write("\n")


def layer_metrics(spans: list[Span], bytes_written: int, assemble_peak: tuple[int, int]) -> dict:
    """Per-layer totals over the spans of one traced unit of work."""
    out = {name: 0.0 for name in PER_LAYER}

    def by(name):
        return [s for s in spans if s.name == name]

    def self_sum(*names):
        return sum(s.self_s for n in names for s in by(n))

    for s in spans:
        if s.layer in LAYERS:
            out[f"{s.layer}.self_s"] += s.self_s
    km = by("kernel_matrix")
    out["kernels.kernel_matrix_s"] = self_sum("kernel_matrix")
    out["kernels.kernel_matrix_calls"] = len(km)
    out["kernels.kernel_matrix_cols"] = sum(s.info["cols"] for s in km)
    out["kernels.build_kernel_s"] = self_sum("build_kernel")
    out["problems.homogenize_s"] = self_sum("homogenize")
    out["problems.cost_functional_s"] = self_sum("cost_functional")
    asm = by("assemble")
    out["collocation.assemble_s"] = self_sum("assemble")
    out["collocation.unknowns"] = sum(s.info["unknowns"] for s in asm)
    peak, a_bytes = assemble_peak
    out["collocation.assemble_peak_mb"] = peak / 2 ** 20
    out["collocation.assemble_peak_ratio"] = peak / a_bytes
    solves = by("solve")
    out["collocation.solve_s"] = self_sum("solve")
    out["collocation.cond_post"] = max((s.info["cond_post"] for s in solves), default=0.0)
    out["collocation.residual_max"] = max((s.info["residual_max"] for s in solves), default=0.0)
    out["collocation.solve_picard_s"] = self_sum("solve_picard")
    out["collocation.picard_sweeps"] = sum(s.info["sweeps"] for s in by("solve_picard"))
    out["collocation.evaluate_s"] = self_sum("evaluate")
    for layout in ("grid", "scattered"):
        # whole-call latency of one rk.evaluate, children included
        calls = [s.end - s.start for s in by("evaluate") if s.info["layout"] == layout]
        out[f"collocation.query_{layout}_ms"] = 1e3 * statistics.fmean(calls) if calls else 0.0
    grids = by("evaluate_grid")
    out["collocation.evaluate_grid_s"] = self_sum("evaluate_grid")
    out["collocation.evaluate_grid_calls"] = len(grids)
    out["collocation.evaluate_grid_points"] = sum(s.info["points"] for s in grids)
    out["collocation.error_norms_s"] = self_sum("error_norms")
    out["optimality.residual_s"] = self_sum("residual_forward", "residual_adjoint")
    out["optimality.residual_calls"] = len(by("residual_forward")) + len(by("residual_adjoint"))
    out["fd_reference.solve_coupled_fd_s"] = self_sum("solve_coupled_fd")
    out["fd_reference.unknowns"] = sum(s.info["unknowns"] for s in by("solve_coupled_fd"))
    out["cli.bytes_written"] = bytes_written
    roots = [s for s in spans if s.parent is None]
    out["trace.run_s"] = sum(s.end - s.start for s in roots)
    out["trace.uncovered_s"] = sum(s.self_s for s in roots)
    return out
