"""Benchmark of the jgreens paper workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/workloads.py`` for why each was chosen):
``resonance_table``, ``phase_sweep``, ``bound_table``, ``composite``.
The seed moves only off-table inputs; every row with a frozen reference
is fixed.  Every row is checked against the Tier-1 tables at Tier-1
tolerances in the same run.

``--trace 0`` prints the end-to-end metrics.  The hosts are shared, and
their speed drifts by a fifth or more over a quarter of an hour, in
spells of seconds to minutes; that drift moves every time the same way.
Each process therefore also times a fixed reference kernel (interpreted
complex arithmetic and small numpy determinants, no jgreens code) in
blocks between its passes, and every time below is divided by that
process's host factor: its fastest kernel run over the kernel's fastest
time on the reference host (``perfbench/worker.py``).  On that host in a
quiet spell the factor is 1.  A change to jgreens does not move the
factor, so it moves the metrics as it moves the measured times, which
the report prints beside each metric and the record keeps.

- ``setup_s``: import, building the problems and models, and filling
  the caches (first potential matrix per problem with its doubled-order
  check, the quadrature rules).  Median over three processes: two that
  only set up and then time the kernel, and the measuring process
  itself.
- ``wall_s``, ``op_p50_ms``, ``op_tail_ms``: from each row's fastest run.
  Other tenants slow a run by up to twice in spells of seconds; the
  fastest of several runs of a row is the least disturbed measurement of
  its cost.  At least two full passes run, and more while the next one
  should end within ``--seconds`` (resonance_table is the exception: one
  pass takes about 17 s, so its two passes outlast the 20 s budget).
  Where the budget cannot give every row ten full passes, eight top-up
  passes over the rows that the median or the tail can fall on (the
  fastest ``short_rank`` rows, tens of ms each) run between the rows of
  the second full pass, evenly spread over it, so that each of those rows
  has ten runs spread over seconds; they add a few seconds beyond the
  budget.  phase_sweep has none, as one call times its whole grid.  A row
  is one root search, one phase energy or one composite matrix.
  ``wall_s`` is one pass with every row at its fastest run, ``op_p50_ms``
  the median of the rows, and ``op_tail_ms`` the highest row with at least
  10 rows beyond it, or the nearest-rank p90 from 100 rows on.  The tail
  is a measured row, not an interpolation, and the report names its rank
  and percentile.  With 20 rows (resonance_table) that rule falls to the
  nearest-rank p50, so there the tail is the lower of the two rows whose
  mean is the median, and the two metrics are not independent evidence.
  Every run of every row is in the record.
- ``fail_ratio``: (failed rows + 1) / (rows + 1).  A row fails when it
  raises, returns no root or a result outside its tolerance, in any
  pass.  The add-one form keeps the ratio above 0, so a later change
  that breaks one more row shows as a relative worsening; the raw counts
  are the ``failed`` and ``attempted`` fields.
- ``peak_rss_mb``: peak resident memory of the measuring process.

``correct`` is false when any row returned a wrong result (outside its
tolerance, or a spurious root); rows that raise or find no root count
in ``failed`` only.

``--trace 1`` runs, in one process, a warm-up pass and then untraced and
traced passes in pairs (at least one pair, more while they fit in
``--seconds``), and prints the per-layer metrics of the first traced
pass from ``perfbench/tracer.py``, which wraps each layer's public
functions at the names its callers look up.  Tracing overhead is the
fastest traced minus the fastest untraced pass time.  What each
layer metric should move, and where:

- ``jacobi.tail_ratio.*``: ``wall_s`` on resonance_table and composite,
  ``op_tail_ms`` on phase_sweep, nothing on bound_table (the control).
- ``jacobi.corrected_truncation``/``green_submatrix``: ``wall_s`` on
  bound_table and composite.
- ``linalg.det.*``: ``wall_s`` on bound_table.
- ``scatter.det_equation``/``roots.*``: ``wall_s`` and ``fail_ratio``
  on resonance_table, ``wall_s`` on bound_table.
- ``scatter.scatter_solve``/``free_overlap``, ``special.coulomb_f``:
  ``wall_s`` and ``op_tail_ms`` on phase_sweep.
- ``scatter.potential_matrix.build_s``: ``setup_s`` on
  resonance_table, phase_sweep and bound_table.
- ``special.coulomb_f_complex``: a small share of ``wall_s`` on
  resonance_table.
- ``special.quadrature.cache_misses``: ``setup_s`` and ``wall_s`` on
  phase_sweep.
- ``models.*``: ``wall_s`` on bound_table.
- ``composite.convolve_greens.*``: ``wall_s`` on composite.

Each run also writes its record (machine, versions, BLAS threads, cache
state, every row's failure) to ``perfbench/out/``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("resonance_table", "phase_sweep", "bound_table", "composite")
SETUP_ONLY_PROCESSES = 2
TIME_LIMIT_S = 175.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
CACHE_STATE = (
    "set-up fills the potential-matrix cache, the Gauss-Laguerre rules "
    "it uses and the order-200 Gauss-Legendre rule; energy-dependent "
    "Gauss-Legendre orders fill during the first timed pass, and the "
    "reported times take each row's fastest run, so they are warm-cache "
    "times; resonance_table has 20 problems (11 in its top-up passes) "
    "against the 8-entry potential-matrix cache, so every pass rebuilds "
    "evicted matrices")
CONTROL = ("no CPU pinning, frequency or cgroup control was used: the "
           "host is shared and the benchmark changes none of its settings")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "fail_ratio": "ratio",
                    "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def tail_rank(n: int) -> int:
    """Rank, from 1 at the fastest, of the tail row among n rows: the
    highest with at least 10 rows beyond it, or the nearest-rank p90 from
    100 rows on."""
    return math.ceil(0.9 * n) if n >= 100 else max(n - 10, 1)


def short_rank(n: int) -> int:
    """Rows, from the fastest, that the median or the tail can fall on."""
    return max(tail_rank(n), n // 2 + 1)


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """(value, rank) of the tail row; the value is the ``100 * rank / n``
    percentile.

    A measured row, not an interpolation: the tables mix rows whose costs
    differ a hundredfold, and an interpolated cut that falls between two
    such groups would swing with the noise of either.
    """
    rank = tail_rank(len(latencies))
    return sorted(latencies)[rank - 1], rank


def run_child(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {mode} process")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process exceeded the time limit") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise ChildFailed(f"{mode} process exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} process printed nothing")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_record(child: dict, args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **child["env"],
        "cache_state": CACHE_STATE, "machine_control": CONTROL,
    }


def end_to_end(setups: list[dict], child: dict) -> tuple[dict, dict]:
    """The metrics of a run process and the set-up processes (the run's
    own set-up among them); times are divided by each process's host
    factor."""
    rows = len(child["row_names"])
    host = child["host_factor"]
    fastest = [min(runs) for runs in child["row_seconds"]]
    tail, rank = tail_latency(fastest)
    failed = len(child["failures"])
    passes = len(child["passes"])
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": sum(fastest),
        "op_p50_ms": 1000.0 * statistics.median(fastest),
        "op_tail_ms": 1000.0 * tail,
    }
    metrics = {
        "setup_s": statistics.median(s["setup_s"] / s["host_factor"]
                                     for s in setups),
        "wall_s": raw["wall_s"] / host,
        "op_p50_ms": raw["op_p50_ms"] / host,
        "op_tail_ms": raw["op_tail_ms"] / host,
        "fail_ratio": (failed + 1) / (rows + 1),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, host factors "
                   + ", ".join(f"{s['host_factor']:.3f}" for s in setups),
        "wall_s": f"rows at their fastest of {passes} passes and "
                  f"{child['top_ups']} top-up passes; passes took "
                  + ", ".join(f"{w:.3f}" for w in child["passes"]) + " s",
        "op_p50_ms": f"median of {rows} rows",
        "op_tail_ms": f"row {rank} of {rows} from the fastest "
                      f"(p{100.0 * rank / rows:.1f}, {rows - rank} beyond)",
        "fail_ratio": f"({failed} + 1) / ({rows} + 1); raw {failed}/{rows}",
        "peak_rss_mb": "measuring process",
    }
    for name, value in raw.items():
        notes[name] += f"; as measured {value:.6g}"
    notes["wall_s"] += f"; host factor {host:.3f}"
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, notes)


def per_layer(child: dict) -> tuple[dict, dict]:
    wall_u, wall_t = child["passes"]
    metrics = child["layers"]
    notes = {name: "layer not called" for name, m in metrics.items()
             if m["value"] == 0 and name != "trace.layers_missing"}
    notes["trace.overhead_s"] = (
        f"fastest traced pass {wall_t:.4f} s - fastest untraced pass "
        f"{wall_u:.4f} s, {child['pairs']} pair(s)")
    if child["missing"]:
        notes["trace.layers_missing"] = ", ".join(child["missing"])
    return metrics, notes


def report(args, metrics: dict, notes: dict, child: dict,
           record: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  trace {args.trace}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} {note}")
    for row, (kind, detail) in child["failures"].items():
        print(f"  FAILED {row}: {kind}: {detail}")
    print("record: " + json.dumps(record))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jgreens" / "__init__.py").is_file():
        print(f"no jgreens source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    # a SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running child before the exit goes on
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            child = run_child("trace", args, deadline)
            metrics, notes = per_layer(child)
        else:
            setups = [run_child("setup", args, deadline)
                      for _ in range(SETUP_ONLY_PROCESSES)]
            child = run_child("run", args, deadline)
            metrics, notes = end_to_end(setups + [child], child)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rows = len(child["row_names"])
    failures = child["failures"]
    record = machine_record(child, args)
    record.update(passes_s=child["passes"], rows=child["row_names"],
                  row_seconds=child.get("row_seconds"), failures=failures,
                  notes=notes)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / name, "w") as f:
        json.dump({"record": record, "metrics": metrics}, f, indent=1)

    report(args, metrics, notes, child, record)
    print(json.dumps({
        "correct": not any(kind == "wrong" for kind, _ in failures.values()),
        "attempted": rows,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
