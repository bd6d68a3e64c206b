"""Span tracing of the jgreens layers from outside the package.

``Tracer.installed()`` replaces the public functions of each layer at the
module attributes their callers look up (``jgreens.scatter.
corrected_truncation``, ``jgreens.composite.green_submatrix``,
``numpy.linalg.det`` and so on) by wrappers that record one span per
call, and puts every original back on exit, also when the traced code
raises.  A target that no longer exists is listed in ``missing`` and
skipped.

A span is ``[name, start, end, parent, op]``; spans stay in memory and
self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, kind).  One function is wrapped at every
# module that looks it up, under one span name.
TARGETS = (
    ("jgreens.jacobi", "tail_ratio", "jacobi.tail_ratio", "tail"),
    ("jgreens.jacobi", "corrected_truncation",
     "jacobi.corrected_truncation", "span"),
    ("jgreens.scatter", "corrected_truncation",
     "jacobi.corrected_truncation", "span"),
    ("jgreens.models", "corrected_truncation",
     "jacobi.corrected_truncation", "span"),
    ("jgreens.jacobi", "green_submatrix", "jacobi.green_submatrix", "span"),
    ("jgreens.scatter", "green_submatrix", "jacobi.green_submatrix", "span"),
    ("jgreens.composite", "green_submatrix", "jacobi.green_submatrix",
     "span"),
    ("numpy.linalg", "det", "linalg.det", "span"),
    ("numpy.linalg", "slogdet", "linalg.det", "span"),
    ("jgreens.scatter", "det_equation", "scatter.det_equation", "det"),
    ("jgreens.scatter", "find_bound_states", "scatter.find_bound_states",
     "bound_search"),
    ("jgreens.scatter", "find_resonances", "scatter.find_resonances",
     "resonance_search"),
    ("jgreens.scatter", "scatter_solve", "scatter.scatter_solve", "span"),
    ("jgreens.scatter", "free_overlap", "scatter.free_overlap", "span"),
    ("jgreens.scatter", "potential_matrix", "scatter.potential_matrix",
     "span"),
    ("jgreens.scatter", "_cached_potential_matrix",
     "scatter.potential_matrix", "span"),
    ("jgreens.scatter", "coulomb_f", "special.coulomb_f", "span"),
    ("jgreens.scatter", "coulomb_f_complex", "special.coulomb_f_complex",
     "span"),
    ("jgreens.scatter", "coulomb_jacobi", "models.builder", "builder"),
    ("jgreens.models", "coulomb_jacobi", "models.builder", "builder"),
    ("jgreens.models", "oscillator_jacobi", "models.builder", "builder"),
    ("jgreens.models", "det_pole_scan", "models.det_pole_scan",
     "pole_scan"),
    ("jgreens.composite", "convolve_greens", "composite.convolve_greens",
     "convolve"),
)

# lru-cached quadrature rules whose misses are counted
QUADRATURE_RULES = (("jgreens.special", "gauss_laguerre_scaled"),
                    ("jgreens.special", "gauss_legendre"))

# metric -> (unit, better); every name here is printed by a traced run
LAYER_METRICS = {
    "jacobi.tail_ratio.calls": ("count", "lower"),
    "jacobi.tail_ratio.self_s": ("s", "lower"),
    "jacobi.tail_ratio.terms_p50": ("count", "lower"),
    "jacobi.tail_ratio.terms_max": ("count", "lower"),
    "jacobi.corrected_truncation.self_s": ("s", "lower"),
    "jacobi.green_submatrix.self_s": ("s", "lower"),
    "linalg.det.calls": ("count", "lower"),
    "linalg.det.self_s": ("s", "lower"),
    "scatter.det_equation.calls": ("count", "lower"),
    "scatter.det_equation.self_s": ("s", "lower"),
    "scatter.roots.det_calls_per_root": ("count", "lower"),
    "scatter.roots.useful_ratio": ("ratio", "higher"),
    "scatter.scatter_solve.self_s": ("s", "lower"),
    "scatter.free_overlap.calls": ("count", "lower"),
    "scatter.free_overlap.self_s": ("s", "lower"),
    "scatter.potential_matrix.build_s": ("s", "lower"),
    "special.coulomb_f.calls": ("count", "lower"),
    "special.coulomb_f.self_s": ("s", "lower"),
    "special.coulomb_f_complex.calls": ("count", "lower"),
    "special.coulomb_f_complex.self_s": ("s", "lower"),
    "special.quadrature.cache_misses": ("count", "lower"),
    "models.det_pole_scan.self_s": ("s", "lower"),
    "models.det_pole_scan.det_calls_per_root": ("count", "lower"),
    "models.builder.calls": ("count", "lower"),
    "composite.convolve_greens.nodes": ("count", "lower"),
    "composite.convolve_greens.self_s": ("s", "lower"),
    "composite.convolve_greens.node_failures": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.layers_missing": ("count", "lower"),
}


# kinds whose bookkeeping reads arguments by name; the corner ratio,
# called once per tail, reads its index positionally instead
_BINDS_ARGUMENTS = ("bound_search", "resonance_search", "pole_scan",
                    "convolve")


def _binding(fn, hook):
    """hook(arguments by name, defaults applied) as hook(args, kwargs)."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return hook(bound.arguments)

    return bind


class _IndexProbe:
    """Stands in for ``JacobiOperator.diag``; notes the highest index asked
    for while a tail ratio is open.  Accepts scalar or array indices."""

    def __init__(self, fn, frames: list[int]):
        self.fn = fn
        self.frames = frames

    def __call__(self, i):
        if self.frames:
            top = i if isinstance(i, int) else int(np.max(i))
            if top > self.frames[-1]:
                self.frames[-1] = top
        return self.fn(i)


class Tracer:
    """Records spans at the layer boundaries named in ``TARGETS``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.op: str | None = None
        self.missing: list[str] = []
        self.tail_terms: list[int] = []
        self.counts = {"root_det_calls": 0, "roots": 0, "attempts": 0,
                       "scan_det_calls": 0, "scan_roots": 0, "nodes": 0,
                       "node_failures": 0}
        self._stack: list[int] = []
        self._frames: list[int] = []
        self._capture: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self, name: str) -> None:
        """Mark the start of a table row; later spans carry its name."""
        self.op = name

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        wrapped: dict[int, object] = {}
        self.missing = []
        try:
            for module_name, attr, span_name, kind in self.targets:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    owner = None
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                # one wrapper per function, shared by the modules using it
                key = id(original)
                if key not in wrapped:
                    wrapped[key] = self._wrap(original, span_name, kind)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[key])
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str, kind: str):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter
        before = getattr(self, f"_before_{kind}", None)
        after = getattr(self, f"_after_{kind}", None)
        if kind in _BINDS_ARGUMENTS:
            before = _binding(fn, before)

        if after is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                       self.op]
                calls[name] = calls.get(name, 0) + 1
                stack.append(len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            calls[name] = calls.get(name, 0) + 1
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                after(ctx, None, exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            return after(ctx, out, None)

        return wrapper

    # -- per-kind bookkeeping ---------------------------------------------

    def _before_tail(self, args, kwargs):
        self._frames.append(-1)
        return args[1] if len(args) > 1 else kwargs.get("n")

    def _before_bound_search(self, params):
        values: list = []
        self._capture.append(values)
        return (self.calls.get("scatter.det_equation", 0),
                params.get("n_grid"), values)

    def _before_resonance_search(self, params):
        seeds = params.get("seeds") or (0, 0)
        return self.calls.get("scatter.det_equation", 0), seeds[0] * seeds[1]

    def _before_pole_scan(self, params):
        return self.calls.get("linalg.det", 0)

    def _before_convolve(self, params):
        return len(getattr(params.get("contour"), "nodes", ()))

    def _after_tail(self, n, out, exc):
        top = self._frames.pop()
        if exc is None and n is not None and top >= n:
            self.tail_terms.append(top - n)
        return out

    def _after_det(self, ctx, out, exc):
        if exc is None and self._capture:
            self._capture[-1].append(out)
        return out

    def _after_builder(self, ctx, out, exc):
        if exc is not None:
            return out
        return dataclasses.replace(out, diag=_IndexProbe(out.diag,
                                                         self._frames))

    def _after_bound_search(self, ctx, out, exc):
        before, n_grid, values = ctx
        self._capture.pop()
        if exc is not None:
            return out
        self.counts["root_det_calls"] += (
            self.calls.get("scatter.det_equation", 0) - before)
        self.counts["roots"] += len(out)
        grid = [complex(v).real for v in values[:n_grid or 0]]
        self.counts["attempts"] += sum(
            1 for a, b in zip(grid, grid[1:]) if a * b <= 0.0)
        return out

    def _after_resonance_search(self, ctx, out, exc):
        before, seeds = ctx
        if exc is None:
            self.counts["root_det_calls"] += (
                self.calls.get("scatter.det_equation", 0) - before)
            self.counts["roots"] += len(out)
            self.counts["attempts"] += seeds
        return out

    def _after_pole_scan(self, before, out, exc):
        if exc is None:
            self.counts["scan_det_calls"] += (
                self.calls.get("linalg.det", 0) - before)
            self.counts["scan_roots"] += len(out)
        return out

    def _after_convolve(self, nodes, out, exc):
        self.counts["nodes"] += nodes
        if exc is not None:
            self.counts["node_failures"] += len(getattr(exc, "nodes", ()))
        return out

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, tuple[int, float]] = {}
        for rec, inner in zip(self.spans, child):
            calls, total = out.get(rec[0], (0, 0.0))
            out[rec[0]] = (calls + 1, total + (rec[2] - rec[1]) - inner)
        return out

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every ``LAYER_METRICS`` value; a layer not called reads 0."""
        st = self.self_times()

        def calls(name):
            return float(st.get(name, (0, 0.0))[0])

        def self_s(name):
            return st.get(name, (0, 0.0))[1]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        terms = self.tail_terms
        return {
            "jacobi.tail_ratio.calls": calls("jacobi.tail_ratio"),
            "jacobi.tail_ratio.self_s": self_s("jacobi.tail_ratio"),
            "jacobi.tail_ratio.terms_p50":
                float(statistics.median(terms)) if terms else 0.0,
            "jacobi.tail_ratio.terms_max": float(max(terms, default=0)),
            "jacobi.corrected_truncation.self_s":
                self_s("jacobi.corrected_truncation"),
            "jacobi.green_submatrix.self_s": self_s("jacobi.green_submatrix"),
            "linalg.det.calls": calls("linalg.det"),
            "linalg.det.self_s": self_s("linalg.det"),
            "scatter.det_equation.calls": calls("scatter.det_equation"),
            "scatter.det_equation.self_s": self_s("scatter.det_equation"),
            "scatter.roots.det_calls_per_root":
                ratio(c["root_det_calls"], c["roots"]),
            "scatter.roots.useful_ratio": ratio(c["roots"], c["attempts"]),
            "scatter.scatter_solve.self_s": self_s("scatter.scatter_solve"),
            "scatter.free_overlap.calls": calls("scatter.free_overlap"),
            "scatter.free_overlap.self_s": self_s("scatter.free_overlap"),
            "scatter.potential_matrix.build_s":
                self_s("scatter.potential_matrix"),
            "special.coulomb_f.calls": calls("special.coulomb_f"),
            "special.coulomb_f.self_s": self_s("special.coulomb_f"),
            "special.coulomb_f_complex.calls":
                calls("special.coulomb_f_complex"),
            "special.coulomb_f_complex.self_s":
                self_s("special.coulomb_f_complex"),
            "special.quadrature.cache_misses": float(self.quadrature_misses()),
            "models.det_pole_scan.self_s": self_s("models.det_pole_scan"),
            "models.det_pole_scan.det_calls_per_root":
                ratio(c["scan_det_calls"], c["scan_roots"]),
            "models.builder.calls": calls("models.builder"),
            "composite.convolve_greens.nodes": float(c["nodes"]),
            "composite.convolve_greens.self_s":
                self_s("composite.convolve_greens"),
            "composite.convolve_greens.node_failures":
                float(c["node_failures"]),
            "trace.overhead_s": overhead_s,
            "trace.layers_missing": float(len(self.missing)),
        }

    def quadrature_misses(self) -> int:
        """Rule computations so far, from the rules' lru_cache counters."""
        total = 0
        for module_name, attr in QUADRATURE_RULES:
            rule = getattr(importlib.import_module(module_name), attr, None)
            info = getattr(rule, "cache_info", None)
            if info is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            total += info().misses
        return total
