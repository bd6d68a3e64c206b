"""The four benchmark workloads, built from the paper's tables.

Each workload makes its inputs from the seed, builds its problems in
``setup`` and runs its table rows in ``run_pass``; ``check`` then gates
every row against the frozen Tier-1 values at Tier-1 tolerances.  Rows
that carry a frozen reference never move with the seed.  The seed moves
only off-table points: phase-grid points between table energies,
composite probe energies and bound-scan grid offsets.

Workloads call the program through module attributes (``scatter.
find_resonances``, ``models.oscillator_jacobi``) looked up at call time,
so the traced run sees the calls through its wrappers.

Why each workload (the layer it stresses, and the later change it
should show or stay flat under):

- ``resonance_table``: Newton iterations on the near-threshold
  complex-energy tail ratio (thousands of continued-fraction terms);
  the tail and the root finder dominate.
- ``phase_sweep``: the only real-energy Coulomb-wave path
  (``free_overlap`` calls ``coulomb_f`` per node) and the physical-sheet
  tail at every distance from threshold.
- ``bound_table``: short bound-region tails; root bracketing, assembly,
  determinant and potential-matrix set-up dominate.  The control for a
  tail rewrite.
- ``composite``: thousands of short complex-energy fractions in the
  contour node loop of ``convolve_greens``.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import tables as T

# A failure is (kind, detail).  Kinds: "raised" and "missing" (no result,
# or fewer roots than the table row holds) leave the table incomplete;
# "wrong" is a result outside its Tier-1 tolerance or a spurious root.
Failure = tuple[str, str]
Verify = Callable[[object, dict], Failure | None]


def load_program() -> SimpleNamespace:
    """The jgreens modules the workloads call, imported."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"jgreens.{name}")
        for name in ("scatter", "models", "composite", "special")})


@dataclass
class Row:
    """One timed table row: its name, latency and value or error."""

    name: str
    seconds: float
    value: object = None
    error: str | None = None


def timed(name: str, call: Callable[[], object]) -> Row:
    start = time.perf_counter()
    try:
        value = call()
    except Exception as exc:  # a raising row is a failed row, not a crash
        return Row(name, time.perf_counter() - start,
                   error=f"{type(exc).__name__}: {exc}")
    return Row(name, time.perf_counter() - start, value)


def _no_hook(name: str) -> None:
    pass


# ---------------------------------------------------------------------------
# verifiers


def _real_roots(want: tuple[float, ...], tol: float,
                relative: bool = False) -> Verify:
    """Exactly the listed real roots, each within tol (times |want|)."""

    def verify(value, table):
        roots = list(value)
        if len(roots) < len(want):
            return ("missing", f"{len(roots)} roots, want {len(want)}")
        if len(roots) > len(want):
            return ("wrong", f"{len(roots)} roots, want {len(want)}")
        for got, ref in zip(roots, want):
            bound = tol * abs(ref) if relative else tol
            if not abs(got - ref) <= bound:
                return ("wrong", f"root {got!r} is {abs(got - ref):.3e} "
                                 f"from {ref!r} (tolerance {bound:.1e})")
        return None

    return verify


def _complex_root(want: complex, tol: float) -> Verify:
    """The root nearest want matches it to tol in both parts."""

    def verify(value, table):
        roots = list(value)
        if not roots:
            return ("missing", "no root")
        got = min(roots, key=lambda z: abs(z - want))
        d_re, d_im = abs(got.real - want.real), abs(got.imag - want.imag)
        if not (d_re <= tol and d_im <= tol):
            return ("wrong", f"root {got!r} off by ({d_re:.3e}, {d_im:.3e}),"
                             f" tolerance {tol:.0e}")
        return None

    return verify


def _finite(value, table):
    if not math.isfinite(value):
        return ("wrong", f"non-finite value {value!r}")
    return None


def _near(want: float, tol: float) -> Verify:

    def verify(value, table):
        if not abs(value - want) <= tol:
            return ("wrong", f"{value!r} is {abs(value - want):.3e} from "
                             f"{want!r} (tolerance {tol:.0e})")
        return None

    return verify


def _magnitude_below(limit: float) -> Verify:

    def verify(value, table):
        if not abs(value) < limit:
            return ("wrong", f"|{value!r}| not below {limit}")
        return None

    return verify


def _rise_above(lower_row: str, minimum: float) -> Verify:
    """The phase rises by more than minimum from the named lower row."""

    def verify(value, table):
        if lower_row not in table:
            return ("missing", f"no value at {lower_row}")
        rise = value - table[lower_row]
        if not rise > minimum:
            return ("wrong", f"rise {rise:.6f} not above {minimum:.6f}")
        return None

    return verify


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: ``cases`` holds (row name, call, verifier) in table order."""

    name = ""
    # whether run_pass can run a subset of the rows
    rows_run_alone = True

    def __init__(self, jg, seed: int):
        self.jg = jg
        self.rng = np.random.default_rng(seed)
        self.cases: list[tuple[str, Callable[[], object], Verify]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def row_names(self) -> list[str]:
        return [name for name, _, _ in self.cases]

    def run_pass(self, begin: Callable[[str], None] = _no_hook,
                 only: set[str] | None = None) -> list[Row]:
        """Run every row once, or the rows named in ``only``, in table
        order; ``begin(name)`` marks where each row starts."""
        rows = []
        for name, call, _ in self.cases:
            if only is None or name in only:
                begin(name)
                rows.append(timed(name, call))
        return rows

    def verifiers(self) -> list[Verify]:
        return [verify for _, _, verify in self.cases]

    def check(self, rows: list[Row]) -> list[Failure | None]:
        """Failure of each row, or None where it matches its reference."""
        table = {r.name: r.value for r in rows if r.error is None}
        verifiers = dict(zip(self.row_names(), self.verifiers()))
        out: list[Failure | None] = []
        for row in rows:
            if row.error is not None:
                out.append(("raised", row.error))
            else:
                out.append(verifiers[row.name](row.value, table))
        return out

    def _offset(self, lo: float, hi: float, n: int) -> float:
        """Seeded shift of an n-point scan grid by up to half a step."""
        return float(self.rng.uniform(-0.5, 0.5)) * (hi - lo) / (n - 1)


def _l0_region(want: complex) -> tuple[complex, complex]:
    lo = complex(want.real - 0.004, min(1.6 * want.imag, -4e-6))
    hi = complex(want.real + 0.004, max(0.25 * want.imag, -1e-9))
    return lo, hi


def _l2_region(want: complex) -> tuple[complex, complex]:
    return (complex(want.real - 0.06, want.imag - 0.05),
            complex(want.real + 0.06, want.imag + 0.05))


class ResonanceTable(Workload):
    """alpha-alpha l=0 and l=2 resonances over the ten truncations."""

    name = "resonance_table"

    def setup(self) -> None:
        scatter, models = self.jg.scatter, self.jg.models
        _, short = scatter.alpha_alpha_potential()
        self.cases = []
        for l in (0, 2):
            for N in T.NS:
                model = models.CoulombModel(Z=4, l=l, b=4.0, m=T.MASS,
                                            e2=1.44)
                p = scatter.ScatterProblem(
                    model, short, N,
                    smoothing=scatter.SmoothingScheme(alpha=6.0))
                scatter.potential_matrix(p)
                if l == 0 and N == 8:
                    # N = 8 holds the l = 0 wave as a weakly bound level
                    case = (lambda p=p: scatter.find_bound_states(
                                p, -0.005, -1e-5, n_grid=60),
                            _real_roots((T.RES_L0[8].real,), T.TOL_RES_L0))
                elif l == 0:
                    region = _l0_region(T.RES_L0[N])
                    case = (lambda p=p, r=region: scatter.find_resonances(
                                p, r, seeds=(1, 1)),
                            _complex_root(T.RES_L0[N], T.TOL_RES_L0))
                else:
                    region = _l2_region(T.RES_L2[N])
                    case = (lambda p=p, r=region: scatter.find_resonances(
                                p, r, seeds=(1, 1)),
                            _complex_root(T.RES_L2[N], T.TOL_RES_L2))
                self.cases.append((f"l{l} N={N}",) + case)
        # the default-order overlap rule every low-energy overlap uses
        self.jg.special.gauss_legendre(200)


class PhaseSweep(Workload):
    """Tracked l=0 and l=2 phase shifts at N=40 on the Tier-1 grids.

    One ``phase_shift`` call serves each grid, as a user would make it.
    The latency of one energy is the time between the completions of
    consecutive per-energy solves, stamped at ``scatter.scatter_solve``
    (the sweep runs from the highest energy down).  If the stamps do not
    match the grid one to one, every energy gets the sweep's mean.
    """

    name = "phase_sweep"
    # one phase_shift call times a whole grid, so rows cannot run alone
    rows_run_alone = False
    FIXED_BAND = (0.04, 1.2)  # MeV

    def setup(self) -> None:
        scatter, models = self.jg.scatter, self.jg.models
        _, short = scatter.alpha_alpha_potential()
        self.sweeps = []
        for l in (0, 2):
            model = models.CoulombModel(Z=4, l=l, b=4.0, m=T.MASS, e2=1.44)
            p = scatter.ScatterProblem(
                model, short, 40, smoothing=scatter.SmoothingScheme(alpha=5.2))
            scatter.potential_matrix(p)
            grid = self._grid(l)
            names = [f"l{l} E={e:.10g}" for e in grid]
            verifiers = [self._verifier(l, e) for e in grid]
            self.sweeps.append((p, grid, names, verifiers))
        self.jg.special.gauss_legendre(200)

    def _grid(self, l: int) -> list[float]:
        base = np.geomspace(0.006, 1000.0, 64 if l == 0 else 48)
        # Off-table points move by up to 0.3 of the logarithmic step.  The
        # end points (Levinson anchors) stay, and so do the points in the
        # near-threshold band, where the cost of one energy jumps tenfold
        # between neighbours as the tail falls back to shallower
        # Bauer-Muir depths: moving them would change the work, not only
        # the sample.
        step = math.log(base[1] / base[0])
        moves = (base > 0.006) & (base < 1000.0) \
            & ((base < self.FIXED_BAND[0]) | (base > self.FIXED_BAND[1]))
        base[moves] *= np.exp(self.rng.uniform(-0.3, 0.3, moves.sum()) * step)
        if l == 0:
            ts = (0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0, 20.0, 50.0, 150.0,
                  400.0, 1000.0)
            extra = [T.E_RES + s * t * T.HW for t in ts for s in (1.0, -1.0)]
            extra += list(T.PHASE_ENERGIES)
        else:
            extra = list(np.linspace(1.5, 6.0, 10))
        return [float(e) for e in np.unique(np.concatenate([base, extra]))]

    def _verifier(self, l: int, E: float) -> Verify:
        if l == 0:
            if E in T.PHASE_ENERGIES:
                return _near(T.PHASE_TABLE_40[T.PHASE_ENERGIES.index(E)],
                             T.TOL_PHASE)
            if E == 0.006:
                return _near(T.LEVINSON_L0, T.TOL_LEVINSON)
            if E == 1000.0:
                return _magnitude_below(T.HIGH_ENERGY_PHASE)
            if E == T.E_RES + 10.0 * T.HW:
                return _rise_above(f"l0 E={T.E_RES - 10.0 * T.HW:.10g}",
                                   T.RISE_FRACTION * math.pi)
        elif E == 0.006:
            return _near(T.LEVINSON_L2, T.TOL_LEVINSON)
        return _finite

    def row_names(self) -> list[str]:
        return [n for _, _, names, _ in self.sweeps for n in names]

    def verifiers(self) -> list[Verify]:
        return [v for _, _, _, vs in self.sweeps for v in vs]

    def run_pass(self, begin: Callable[[str], None] = _no_hook,
                 only: set[str] | None = None) -> list[Row]:
        if only is not None:
            raise ValueError("phase_sweep rows cannot run alone")
        rows = []
        for p, grid, names, _ in self.sweeps:
            rows += self._sweep(p, grid, names, begin)
        return rows

    def _sweep(self, p, grid, names, begin) -> list[Row]:
        scatter = self.jg.scatter
        inner = scatter.scatter_solve
        stamps: list[float] = []
        n = len(grid)

        def stamped(*args, **kwargs):
            out = inner(*args, **kwargs)
            stamps.append(time.perf_counter())
            if len(stamps) < n:
                begin(names[n - 1 - len(stamps)])
            return out

        scatter.scatter_solve = stamped
        begin(names[-1])
        start = time.perf_counter()
        try:
            points = scatter.phase_shift(p, grid)
            error = None
        except Exception as exc:  # the whole sweep fails as one
            points, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            scatter.scatter_solve = inner
        end = time.perf_counter()
        if error is None and len(stamps) == n:
            # completion i belongs to grid index n-1-i
            marks = [start] + stamps
            seconds = [marks[i + 1] - marks[i] for i in range(n)][::-1]
            seconds[0] += end - stamps[-1]
        else:
            seconds = [(end - start) / n] * n
        if error is not None:
            return [Row(nm, s, error=error) for nm, s in zip(names, seconds)]
        return [Row(nm, s, pt.delta)
                for nm, s, pt in zip(names, seconds, points)]


class BoundTable(Workload):
    """Gaussian-only alpha-alpha levels and two model-family pole scans."""

    name = "bound_table"

    WINDOWS = ((-85.0, -70.0), (-35.0, -25.0), (-2.6, -0.8))

    def setup(self) -> None:
        scatter, models = self.jg.scatter, self.jg.models
        gauss = scatter.ShortRangePotential(
            lambda r: -122.694 * np.exp(-0.22 * r * r))
        self.cases = []
        for N in T.NS:
            model = models.CoulombModel(Z=0, l=0, b=4.0, m=T.MASS, e2=1.44)
            p = scatter.ScatterProblem(
                model, gauss, N, smoothing=scatter.SmoothingScheme(alpha=6.0))
            scatter.potential_matrix(p)
            for j, (lo, hi) in enumerate(self.WINDOWS):
                d = self._offset(lo, hi, 40)
                self.cases.append((
                    f"N={N} level {j}",
                    lambda p=p, lo=lo + d, hi=hi + d:
                        scatter.find_bound_states(p, lo, hi, n_grid=40),
                    _real_roots((T.BOUND_TABLE[N][j],), T.TOL_BOUND)))

        atom = models.CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
        levels = tuple(models.exact_levels(atom, 3))
        for size in (2, 5):
            d = self._offset(-0.6, -0.04, 400)
            self.cases.append((
                f"coulomb scan size {size}",
                lambda size=size, lo=-0.6 + d, hi=-0.04 + d:
                    models.det_pole_scan(
                        lambda E: models.coulomb_jacobi(atom, E),
                        lo, hi, size=size),
                _real_roots(levels, T.TOL_POLE_SCAN_REL, relative=True)))
        osc = models.OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
        d = self._offset(0.5, 12.0, 400)
        self.cases.append((
            "oscillator scan size 4",
            lambda lo=0.5 + d, hi=12.0 + d: models.det_pole_scan(
                lambda E: models.oscillator_jacobi(osc, E), lo, hi, size=4,
                bm_rounds=0),
            _real_roots(tuple(models.exact_levels(osc, 6)),
                        T.TOL_POLE_SCAN_REL, relative=True)))


class Composite(Workload):
    """Contour convolutions: oscillator (x) oscillator, Coulomb (x) free."""

    name = "composite"

    def setup(self) -> None:
        composite, models = self.jg.composite, self.jg.models
        osc = models.OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
        bound = models.CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
        free = models.CoulombModel(Z=0.0, l=0, D=3, b=1.0)

        def fam_osc(z):
            return models.oscillator_jacobi(osc, z)

        def fam_bound(z):
            return models.coulomb_jacobi(bound, z)

        def fam_free(z):
            return models.coulomb_jacobi(free, z)

        centers = [1.5 + 2.0 * m for m in range(10)]
        rings = composite.encircle_points(centers, 0.1, 80)
        self._coarse = composite.encircle_points(centers, 0.1, 40)
        self._fam_osc = fam_osc
        self._references: dict[complex, np.ndarray] = {}
        ellipse = composite.build_contour(-0.5, 0.0, margin=0.05,
                                          n_points=96, t_max=-0.02)
        self.cases = []
        # E - z' must stay 0.5 clear of the h1 levels 1.5 + 2n for every
        # ring node, so probes sit at 2 + 2j, moved by up to 0.5
        for j in range(10):
            E = complex(2.0 + 2.0 * j + self.rng.uniform(-0.5, 0.5))
            self.cases.append((
                f"osc E={E.real:.6f}",
                lambda E=E: composite.convolve_greens(
                    fam_osc, fam_osc, E, rings, 3, 3),
                self._doubling_check(E)))
        xs = np.linspace(-2.0, -0.65, 16)
        xs += self.rng.uniform(-0.3, 0.3, xs.size) * (xs[1] - xs[0])
        names = [f"coulomb x free E={x:.6f}" for x in xs]
        for i, x in enumerate(xs):
            self.cases.append((
                names[i],
                lambda x=complex(x): composite.convolve_greens(
                    fam_free, fam_bound, x, ellipse, 4, 4),
                self._real_block_check(names[0], names[i - 1] if i else None)))

    def _doubling_check(self, E: complex) -> Verify:

        def verify(value, table):
            if E not in self._references:
                self._references[E] = self.jg.composite.convolve_greens(
                    self._fam_osc, self._fam_osc, E, self._coarse, 3, 3)
            diff = float(np.max(np.abs(value - self._references[E])))
            if not diff <= T.TOL_NODE_DOUBLING:
                return ("wrong", f"80- vs 40-node rings differ by {diff:.3e}")
            return None

        return verify

    @staticmethod
    def _real_block_check(first: str, previous: str | None) -> Verify:

        def verify(value, table):
            imag = float(np.max(np.abs(value.imag)))
            if not imag <= T.TOL_REAL_COMPOSITE:
                return ("wrong", f"|Im G| = {imag:.3e}")
            sign, logdet = np.linalg.slogdet(value.real)
            if not math.isfinite(logdet):
                return ("wrong", "singular block")
            if first in table:
                sign0, _ = np.linalg.slogdet(table[first].real)
                if sign != sign0:
                    return ("wrong", "determinant sign flipped (spurious pole)")
            if previous is not None and previous in table:
                _, prev = np.linalg.slogdet(table[previous].real)
                if not abs(logdet - prev) < T.MAX_LOGDET_STEP:
                    return ("wrong", f"log|det| jumped by "
                                     f"{abs(logdet - prev):.3f}")
            return None

        return verify


WORKLOADS = {w.name: w for w in (ResonanceTable, PhaseSweep, BoundTable,
                                 Composite)}
