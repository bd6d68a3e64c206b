"""Tests of the benchmark itself: the result gate, the tracer and a smoke
pass of every workload.  Run with the package source on the path:
``PYTHONPATH=src python -m pytest -q perfbench/tests``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, tables as T
from perfbench.tracer import LAYER_METRICS, TARGETS, Tracer
from perfbench.workloads import WORKLOADS, load_program

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def built():
    """Every workload set up once with seed 0."""
    jg = load_program()
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(jg, 0)
        wl.setup()
        out[name] = wl
    return out


def _verifier(wl, row):
    return dict(zip(wl.row_names(), wl.verifiers()))[row]


# ---------------------------------------------------------------------------
# frozen tables and the benchmark description


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == LAYER_METRICS


def test_tail_has_ten_rows_beyond_it_or_is_p90():
    for n, rank in ((20, 10), (40, 30), (99, 89), (100, 90), (149, 135),
                    (447, 403)):
        rows = [float(i) for i in range(n)][::-1]
        value, got = run.tail_latency(rows)
        assert (value, got) == (float(rank - 1), rank), n
        assert sum(r > value for r in rows) >= 10
    assert run.tail_latency([1.0] * 5) == (1.0, 1)
    # the rows the median (mean of ranks 10 and 11) or the tail can be
    assert run.short_rank(20) == 11 and run.short_rank(26) == 16


def test_median_is_the_usual_median_and_times_scale_by_host():
    child = {"row_names": ["a", "b", "c", "d"], "failures": {},
             "row_seconds": [[0.001, 0.002, 0.001], [0.002, 0.001],
                             [0.004, 0.003], [0.010, 0.020]],
             "passes": [0.017, 0.026], "top_ups": 1, "peak_rss_mb": 1.0,
             "setup_s": 3.0, "host_factor": 1.0}
    setups = [{"setup_s": 1.0, "host_factor": 1.0},
              {"setup_s": 4.0, "host_factor": 2.0}]
    metrics, _ = run.end_to_end(setups + [child], child)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(2.0)
    assert metrics["wall_s"]["value"] == pytest.approx(0.015)
    assert metrics["setup_s"]["value"] == 2.0
    # times are divided by the host factor of the process that took them
    child["host_factor"] = 1.25
    metrics, _ = run.end_to_end(setups + [child], child)
    assert metrics["wall_s"]["value"] == pytest.approx(0.012)
    assert metrics["setup_s"]["value"] == 2.0
    assert metrics["peak_rss_mb"]["value"] == 1.0


# ---------------------------------------------------------------------------
# the gate


def _beyond(tol):
    return 1.01 * tol


def _within(tol):
    return 0.99 * tol


def test_gate_resonance_rows(built):
    wl = built["resonance_table"]
    v = _verifier(wl, "l0 N=8")
    want = T.RES_L0[8].real
    assert v([want + _within(T.TOL_RES_L0)], {}) is None
    assert v([want + _beyond(T.TOL_RES_L0)], {})[0] == "wrong"
    assert v([], {})[0] == "missing"
    assert v([want, want + 1e-3], {})[0] == "wrong"
    for table, tol, l in ((T.RES_L0, T.TOL_RES_L0, 0),
                          (T.RES_L2, T.TOL_RES_L2, 2)):
        for N in T.NS:
            if (l, N) == (0, 8):
                continue
            v = _verifier(wl, f"l{l} N={N}")
            want = table[N]
            assert v([want + _within(tol) - 1j * _within(tol)], {}) is None
            assert v([want + _beyond(tol)], {})[0] == "wrong"
            assert v([want - 1j * _beyond(tol)], {})[0] == "wrong"
            assert v([], {})[0] == "missing"


def test_gate_bound_rows(built):
    wl = built["bound_table"]
    for N in T.NS:
        for j in range(3):
            v = _verifier(wl, f"N={N} level {j}")
            want = T.BOUND_TABLE[N][j]
            assert v([want - _within(T.TOL_BOUND)], {}) is None
            assert v([want - _beyond(T.TOL_BOUND)], {})[0] == "wrong"
    models = wl.jg.models
    atom = models.CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    osc = models.OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
    for row, levels in (("coulomb scan size 2", models.exact_levels(atom, 3)),
                        ("coulomb scan size 5", models.exact_levels(atom, 3)),
                        ("oscillator scan size 4",
                         models.exact_levels(osc, 6))):
        v = _verifier(wl, row)
        assert v(levels, {}) is None
        bad = list(levels)
        bad[-1] *= 1.0 + _beyond(T.TOL_POLE_SCAN_REL)
        assert v(bad, {})[0] == "wrong"
        assert v(levels[:-1], {})[0] == "missing"


def test_gate_phase_rows(built):
    wl = built["phase_sweep"]
    for E, want in zip(T.PHASE_ENERGIES, T.PHASE_TABLE_40):
        v = _verifier(wl, f"l0 E={E:.10g}")
        assert v(want + _within(T.TOL_PHASE), {}) is None
        assert v(want + _beyond(T.TOL_PHASE), {})[0] == "wrong"
    for row, want in (("l0 E=0.006", T.LEVINSON_L0),
                      ("l2 E=0.006", T.LEVINSON_L2)):
        v = _verifier(wl, row)
        assert v(want - _within(T.TOL_LEVINSON), {}) is None
        assert v(want - _beyond(T.TOL_LEVINSON), {})[0] == "wrong"
    v = _verifier(wl, "l0 E=1000")
    assert v(_within(T.HIGH_ENERGY_PHASE), {}) is None
    assert v(-_beyond(T.HIGH_ENERGY_PHASE), {})[0] == "wrong"
    lower = f"l0 E={T.E_RES - 10.0 * T.HW:.10g}"
    v = _verifier(wl, f"l0 E={T.E_RES + 10.0 * T.HW:.10g}")
    minimum = T.RISE_FRACTION * math.pi
    assert v(1.0 + minimum * 1.01, {lower: 1.0}) is None
    assert v(1.0 + minimum * 0.99, {lower: 1.0})[0] == "wrong"
    assert v(math.nan, {})[0] == "missing"
    other = [n for n in wl.row_names() if n.startswith("l2 E=3")][0]
    assert _verifier(wl, other)(math.nan, {})[0] == "wrong"


def test_gate_composite_rows(built):
    wl = built["composite"]
    names = wl.row_names()
    osc = names[0]
    v = _verifier(wl, osc)
    v(np.zeros((9, 9), dtype=complex), {})  # computes the reference
    (ref,) = wl._references.values()
    assert v(ref + _within(T.TOL_NODE_DOUBLING), {}) is None
    assert v(ref + _beyond(T.TOL_NODE_DOUBLING), {})[0] == "wrong"

    first, second = [n for n in names if n.startswith("coulomb")][:2]
    block = np.diag([2.0, 3.0, 4.0, 5.0]).astype(complex)
    v = _verifier(wl, second)
    assert v(block + 1j * _within(T.TOL_REAL_COMPOSITE), {first: block}) \
        is None
    assert v(block + 1j * _beyond(T.TOL_REAL_COMPOSITE),
             {first: block})[0] == "wrong"
    flipped = block.copy()
    flipped[0, 0] = -2.0
    assert v(flipped, {first: block})[0] == "wrong"
    assert v(block * math.exp(T.MAX_LOGDET_STEP), {first: block})[0] \
        == "wrong"


# ---------------------------------------------------------------------------
# tracer


def _module_attrs():
    import importlib

    mods = {m for m, _, _, _ in TARGETS}
    return {m: dict(vars(importlib.import_module(m))) for m in mods}


def _short(wl):
    """Cut the workload's table to a few cheap rows."""
    if wl.name == "phase_sweep":
        p, grid, names, verifiers = wl.sweeps[1]
        keep = [i for i, e in enumerate(grid) if 1.5 <= e <= 3.0]
        wl.sweeps = [(p, [grid[i] for i in keep], [names[i] for i in keep],
                      [verifiers[i] for i in keep])]
    else:
        cheap = {"resonance_table": ("l0 N=8", "l2 N=8"),
                 "bound_table": ("N=8 level 0", "N=40 level 2",
                                 "oscillator scan size 4"),
                 "composite": tuple(n for n in wl.row_names()
                                    if n.startswith("coulomb"))[:3]}
        wl.cases = [c for c in wl.cases if c[0] in cheap[wl.name]]
    return wl


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_pass_traced_and_restored(name):
    wl = WORKLOADS[name](load_program(), 3)
    wl.setup()
    _short(wl)
    before = _module_attrs()
    rows = wl.run_pass()
    assert rows and all(r.seconds > 0.0 for r in rows)
    assert wl.check(rows) == [None] * len(rows)
    if wl.rows_run_alone:  # a top-up pass runs a subset, checked by name
        last = wl.row_names()[-1]
        (row,) = wl.run_pass(only={last})
        assert row.name == last and wl.check([row]) == [None]

    tracer = Tracer()
    with tracer.installed():
        assert not tracer.missing
        traced = wl.run_pass(tracer.begin_op)
    assert wl.check(traced) == [None] * len(traced)
    after = _module_attrs()
    for module, attrs in before.items():
        for attr, obj in attrs.items():
            assert after[module][attr] is obj, f"{module}.{attr}"
    metrics = tracer.metrics(0.0)
    assert set(metrics) == set(LAYER_METRICS)
    assert tracer.spans and all(s[4] in wl.row_names() for s in tracer.spans)


def test_tracer_restores_names_when_the_workload_raises():
    jg = load_program()
    before = _module_attrs()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert jg.scatter.det_equation is not before[
                "jgreens.scatter"]["det_equation"]
            raise RuntimeError("workload failed")
    after = _module_attrs()
    for module, attrs in before.items():
        for attr, obj in attrs.items():
            assert after[module][attr] is obj


def test_tracer_reports_missing_layers_without_crashing():
    targets = TARGETS + (
        ("jgreens.jacobi", "_no_such_layer", "jacobi.gone", "span"),
        ("jgreens.no_such_module", "f", "gone.f", "span"))
    wl = WORKLOADS["bound_table"](load_program(), 0)
    wl.setup()
    _short(wl)
    tracer = Tracer(targets)
    with tracer.installed():
        rows = wl.run_pass(tracer.begin_op)
    assert wl.check(rows) == [None] * len(rows)
    assert tracer.missing == ["jgreens.jacobi._no_such_layer",
                              "jgreens.no_such_module.f"]
    metrics = tracer.metrics(0.0)
    assert metrics["trace.layers_missing"] == 2.0
    assert metrics["jacobi.tail_ratio.calls"] > 0
    assert metrics["jacobi.tail_ratio.terms_max"] >= \
        metrics["jacobi.tail_ratio.terms_p50"] > 0


def test_index_probe_accepts_array_indices():
    from perfbench.tracer import _IndexProbe

    frames = [-1]
    probe = _IndexProbe(lambda i: np.asarray(i) * 2.0, frames)
    assert probe(3) == 6.0
    assert frames == [3]
    np.testing.assert_array_equal(probe(np.arange(5, 9)), [10, 12, 14, 16])
    assert frames == [8]


# ---------------------------------------------------------------------------
# the command


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound_table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
