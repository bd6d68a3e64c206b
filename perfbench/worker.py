"""One benchmark process: set up a workload, run it, check it, report JSON.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker`` from the
checkout root, with the BLAS thread count fixed to 1 in its environment.
Modes:

- ``setup``: import, build and fill the caches; report ``setup_s`` and
  the host factor, from reference-kernel runs after the set-up.
- ``run``: set up, then run full timed passes over the table until
  ``--seconds`` have passed (at least two passes); where that gives a
  row fewer than ``SHORT_RUNS`` runs, top-up passes over the rows the
  median and the tail can fall on run between the rows of the second
  pass, until each has run ``SHORT_RUNS`` times.  Then check every row
  of every pass.
  Reference-kernel blocks before the first pass and after every pass
  give the host factor.
- ``trace``: set up with the tracer installed, run a warm-up pass, then
  untraced/traced pass pairs (at least one, more while they fit in
  ``--seconds``), check the first of each and report the per-layer
  metrics of the first traced pass; the spans (name, start, end, parent
  index, row) go to ``perfbench/out/<workload>-seed<seed>-spans.jsonl``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
# Two full passes even where one outlasts the budget (resonance_table), so
# every row has a best of two against the host's bursts of slowdown.
MIN_PASSES = 2
# Runs of each row that the median or the tail can fall on.  These rows
# are short (tens of ms), so top-up passes over them alone cost a few
# seconds where the full passes give them only two or three runs.
SHORT_RUNS = 10
# Fastest reference_kernel() run on the reference host (2-vCPU Intel Xeon
# guest, Python 3.11, numpy 2.4); see host_factor.
REFERENCE_KERNEL_S = 0.00074
KERNEL_BLOCK = 30
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_record() -> dict:
    """BLAS builds numpy reports and the thread count each loaded
    OpenBLAS library reports for this process."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "env": {k: os.environ.get(k) for k in BLAS_ENV},
            "threads_reported": threads}


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas_record()}


def reference_kernel() -> complex:
    """Fixed work independent of jgreens, in the mix the workloads spend
    their time in: complex arithmetic and a dict in interpreted loops, and
    small numpy determinants."""
    import numpy as np

    a = np.arange(16.0).reshape(4, 4) + np.eye(4)
    seen = {}
    acc = 0j
    for i in range(1, 2000):
        z = complex(i, -0.5 * i)
        seen[i] = z
        acc = z / (acc + 1.0 + 0.1j) if i % 7 else acc + seen[i - 1]
        if i % 50 == 0:
            acc += np.linalg.det(a)
    return acc


def kernel_block() -> float:
    """Fastest of KERNEL_BLOCK reference-kernel runs, in seconds."""
    best = math.inf
    for _ in range(KERNEL_BLOCK):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def host_factor(kernel_s: float) -> float:
    """How much slower than the reference host this process ran.

    The host is shared, and its speed drifts by a fifth or more between
    quarters of an hour, which moves every time the same way.  Times are
    divided by this factor: the fastest reference-kernel run seen over
    the process, over the kernel's fastest time on the reference host.
    """
    return kernel_s / REFERENCE_KERNEL_S


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _merge_failures(workload, passes) -> dict:
    """row name -> first failure seen for it over all passes."""
    failures = {}
    for rows in passes:
        for row, failure in zip(rows, workload.check(rows)):
            if failure is not None and row.name not in failures:
                failures[row.name] = list(failure)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    args = ap.parse_args(argv)
    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from .run import short_rank
    from .tracer import LAYER_METRICS, Tracer
    from .workloads import WORKLOADS, load_program

    workload = WORKLOADS[args.workload](load_program(), args.seed)
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        with tracer.installed():
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        out["host_factor"] = host_factor(min(kernel_block()
                                             for _ in range(8)))

    passes: list = []
    if args.mode == "run":
        runs: dict[str, list[float]] = {n: [] for n in workload.row_names()}
        kernel = [kernel_block()]

        def timed_pass(only=None, begin=lambda name: None) -> float:
            gc.collect()  # every pass starts without the last one's garbage
            t0 = time.perf_counter()
            rows = workload.run_pass(begin, only=only)
            wall = time.perf_counter() - t0
            passes.append(rows)
            for row in rows:
                runs[row.name].append(row.seconds)
            kernel.append(kernel_block())  # the host's speed, between passes
            return wall

        short: set[str] = set()
        due: list[float] = []  # when the pending top-up passes fall due
        top_ups: list[float] = []  # seconds of each top-up pass

        def top_up(name: str = "") -> None:
            # runs between rows: a top-up pass over the short rows, if due
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                t0 = time.perf_counter()
                timed_pass(short)
                top_ups.append(time.perf_counter() - t0)

        # Full passes: at least MIN_PASSES, then another only while it
        # should end within the budget.  Where the budget cannot give
        # every row SHORT_RUNS full passes, SHORT_RUNS - MIN_PASSES top-up
        # passes over the rows the median and the tail can fall on run
        # between the rows of the second full pass, evenly spread over
        # it, as the host's slow spells last seconds.  Top-ups are outside
        # the budget and the pass times.
        walls: list[float] = []
        while True:
            if len(walls) == 1 and workload.rows_run_alone \
                    and walls[0] * SHORT_RUNS > args.seconds:
                short = set(sorted(runs, key=lambda n: runs[n][0])
                            [:short_rank(len(runs))])
                step = walls[0] / (SHORT_RUNS - MIN_PASSES)
                now = time.perf_counter()
                due = [now + (i + 0.5) * step
                       for i in range(SHORT_RUNS - MIN_PASSES)]
            spent = sum(top_ups)
            wall = timed_pass(begin=top_up)
            walls.append(wall - (sum(top_ups) - spent))
            while due:  # the pass ended before its last top-ups fell due
                due[0] = 0.0
                top_up()
            if len(walls) >= MIN_PASSES \
                    and sum(walls) + statistics.median(walls) > args.seconds:
                break
        out.update(passes=walls, top_ups=len(top_ups),
                   row_seconds=[runs[n] for n in workload.row_names()],
                   host_factor=host_factor(min(kernel)))
    elif args.mode == "trace":
        # A warm-up pass first, so that the untraced and traced passes do
        # the same work (energy-dependent quadrature rules filled, the
        # same potential matrices evicted); then untraced/traced pairs
        # while they fit in the budget.  The layer metrics come from the
        # first traced pass; the overhead compares the fastest of each.
        workload.run_pass()
        walls: dict[bool, list[float]] = {False: [], True: []}
        run_start = time.perf_counter()
        while True:
            for traced in (False, True):
                gc.collect()
                if traced:
                    probe = tracer if not walls[True] else Tracer()
                    with probe.installed():
                        t0 = time.perf_counter()
                        rows = workload.run_pass(probe.begin_op)
                        walls[True].append(time.perf_counter() - t0)
                else:
                    t0 = time.perf_counter()
                    rows = workload.run_pass()
                    walls[False].append(time.perf_counter() - t0)
                if len(walls[traced]) == 1:
                    passes.append(rows)
            pair = walls[False][-1] + walls[True][-1]
            if time.perf_counter() - run_start + pair > args.seconds:
                break
        wall_untraced, wall_traced = min(walls[False]), min(walls[True])
        layers = tracer.metrics(wall_traced - wall_untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_file, "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        out.update(passes=[wall_untraced, wall_traced],
                   pairs=len(walls[True]),
                   layers={name: {"value": v, "unit": LAYER_METRICS[name][0]}
                           for name, v in layers.items()},
                   missing=tracer.missing, spans=len(tracer.spans))

    if args.mode != "setup":
        out.update(row_names=workload.row_names(),
                   failures=_merge_failures(workload, passes),
                   peak_rss_mb=_peak_rss_mb(), env=environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
