"""Short-range scattering on top of the Coulomb Green's matrix.

A short-range potential is expanded on the Laguerre-type basis of the
Coulomb family, truncated at index N and optionally damped by smoothing
factors.  All observables then reduce to finite linear algebra against
the analytically known Coulomb Green's matrix: bound states and
resonances are zeros of a determinant, scattering states solve an
(N+1)-dimensional linear system, and phase shifts follow from the
amplitude.

``erf``, ``erfc`` and ``loggamma`` come from ``scipy.special``, which
loads at the first alpha-alpha potential, Coulomb phase or free-overlap
evaluation, not at import (see :mod:`jgreens.special`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import (GridTooCoarse, JGreensError, QuadratureSuspect,
                     SingularMatrix, _check_count)
from .jacobi import (GreenMatrix, SheetSelector, _checked_inverse,
                     _corrected_blocks, _resolve_sheet, corrected_truncation,
                     dense_truncation)
from .models import (CoulombModel, _real_zeros, _secant, coulomb_jacobi,
                     wavenumber)
from .special import (_laguerre_functions, _on_first_call, coulomb_sigma,
                      gauss_laguerre_scaled)
# Uncalled; kept bound because perfbench/tracer.py wraps them at this module.
from .jacobi import green_submatrix  # noqa: F401
from .special import coulomb_f, coulomb_f_complex  # noqa: F401

__all__ = [
    "ShortRangePotential", "SmoothingScheme", "ScatterProblem",
    "PhaseShiftPoint", "sigma_factor", "potential_matrix",
    "alpha_alpha_potential", "det_equation", "find_bound_states",
    "find_resonances", "scatter_solve", "free_overlap", "phase_shift",
    "total_green",
]

erf = _on_first_call(globals(), "erf")
erfc = _on_first_call(globals(), "erfc")
loggamma = _on_first_call(globals(), "loggamma")

# Radius at which the heuristic decay check samples the potential.
_DECAY_R1 = 100.0
_DECAY_R2 = 200.0
# Unwrapped consecutive phases must differ by less than pi/2; jumps within
# this margin of the half-period are ambiguous between branches.
_PHASE_JUMP_LIMIT = math.pi / 2.0 - 1e-6


# ---------------------------------------------------------------------------
# problem records


@dataclass(frozen=True)
class ShortRangePotential:
    """Radial potential whose tail falls off faster than Coulomb.

    Parameters
    ----------
    v : callable
        r -> V_l(r), the short-range part only; any 1/r tail must be
        carried by `coulomb_tail_Z2e2` instead.
    coulomb_tail_Z2e2 : float
        Strength of the 1/r tail absorbed into the Coulomb Green's
        operator; 0 for a pure short-range potential.

    Notes
    -----
    v(r) r^2 must vanish faster than 1/r at large r.  This is the
    caller's responsibility; a heuristic probe at r = 100 and r = 200
    rejects obviously long-ranged inputs, and values that are not finite
    there.
    """

    v: Callable[[float], float]
    coulomb_tail_Z2e2: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.coulomb_tail_Z2e2):
            raise ValueError("Coulomb tail strength must be finite, got "
                             f"{self.coulomb_tail_Z2e2}")
        w1 = abs(float(self.v(_DECAY_R1))) * _DECAY_R1**3
        w2 = abs(float(self.v(_DECAY_R2))) * _DECAY_R2**3
        if not (math.isfinite(w1) and math.isfinite(w2)):
            raise ValueError(
                "potential is not finite at the decay probe: |v(r)| r^3 = "
                f"{w1:.3e} at r={_DECAY_R1:g}, {w2:.3e} at r={_DECAY_R2:g}")
        if w2 > 1e-12 and w2 >= w1:
            raise ValueError(
                "potential does not look short-ranged: |v(r)| r^3 grew "
                f"from {w1:.3e} at r={_DECAY_R1:g} to {w2:.3e} at "
                f"r={_DECAY_R2:g}")


@dataclass(frozen=True)
class SmoothingScheme:
    """Index-dependent damping of the truncated potential expansion.

    sigma_0 = 1 exactly and the factors decrease monotonically in n, so
    low basis indices are kept while the highest ones are suppressed,
    which removes the oscillatory truncation artifacts of a hard cutoff.
    """

    alpha: float = 5.2
    enabled: bool = True

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"shape parameter must be > 0, got {self.alpha}")

    def factors(self, N: int) -> np.ndarray:
        """Vector (sigma_0, ..., sigma_N), N an integer >= 0."""
        _check_count("truncation index N", N, 0)
        if not self.enabled:
            return np.ones(N + 1)
        return np.array([sigma_factor(n, N, self.alpha)
                         for n in range(N + 1)])


@dataclass(frozen=True)
class ScatterProblem:
    """A short-range potential on the basis of a Coulomb model.

    Parameters
    ----------
    model : CoulombModel
        Supplies the Coulomb Green's matrix and the basis (scale b,
        angular momentum l, dimension D, units).
    potential : ShortRangePotential
    N : int
        Basis truncation, an integer >= 1; matrices are (N+1) x (N+1).
    smoothing : SmoothingScheme
    quad_order : int, optional
        Gauss-Laguerre order for potential matrix elements; defaults to
        max(200, 2N+20) and must be an integer >= 2N+20.
    """

    model: CoulombModel
    potential: ShortRangePotential
    N: int
    smoothing: SmoothingScheme = field(default_factory=SmoothingScheme)
    quad_order: int | None = None

    def __post_init__(self) -> None:
        _check_count("truncation N", self.N, 1)
        if self.quad_order is None:
            object.__setattr__(self, "quad_order", max(200, 2 * self.N + 20))
        _check_count("quad_order", self.quad_order, 2 * self.N + 20)


@dataclass(frozen=True)
class PhaseShiftPoint:
    """Phase shift, Coulomb phase and amplitude at one energy.

    delta is the continuity-tracked phase in radians (not reduced mod
    pi); eta is the Coulomb phase arg Gamma(lam + 1 + i gamma) at
    lam = l + (D-3)/2 and Sommerfeld parameter gamma; amplitude is
    a_l = (1/k) e^{i(2 eta + delta)} sin(delta), so
    |1 + 2ik a_l e^{-2i eta}| = 1 for a real potential.
    """

    E: float
    delta: float
    eta: float
    amplitude: complex


# ---------------------------------------------------------------------------
# smoothing and potential matrix


def sigma_factor(n: int, N: int, alpha: float) -> float:
    """Damping factor (1 - e^{-[alpha(n-N-1)/(N+1)]^2}) / (1 - e^{-alpha^2}).

    Parameters
    ----------
    n : int
        Basis index, an integer, 0 <= n <= N.
    N : int
        Truncation index, an integer >= n.
    alpha : float
        Shape parameter, > 0.

    Returns
    -------
    float
        1 exactly at n = 0, decreasing towards the truncation edge.
    """
    _check_count("basis index n", n, 0)
    _check_count("truncation index N", N, n)
    if not alpha > 0:
        raise ValueError(f"shape parameter must be > 0, got {alpha}")
    if n == 0:
        return 1.0
    t = alpha * (n - N - 1) / (N + 1)
    return -math.expm1(-t * t) / -math.expm1(-alpha * alpha)


def _basis_rows(model: CoulombModel, n_top: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x/(2b)) for n = 0..n_top at strictly positive arguments x."""
    return _laguerre_functions(n_top, 2 * model.l + model.D - 2, x,
                               model.l + (model.D - 1) / 2.0)


def _potential_values(v: Callable[[float], float], r: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(v(r), dtype=float)
        if vals.shape == r.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(v(ri)) for ri in r])


def _raw_potential_matrix(p: ScatterProblem, order: int) -> np.ndarray:
    """<n|V_l|m> for n, m = 0..N by Gauss-Laguerre at the given order."""
    x, W = gauss_laguerre_scaled(order)
    two_b = 2.0 * p.model.b
    phi = _basis_rows(p.model, p.N, x)
    vvals = _potential_values(p.potential.v, x / two_b)
    return (phi * (W * vvals / two_b)[None, :]) @ phi.T


# Room for every problem of the paper's l = 0 and l = 2 tables (10 sizes
# each), which a table pass cycles through; a 41 x 41 matrix is 13 KB.
@lru_cache(maxsize=64)
def _cached_potential_matrix(p: ScatterProblem) -> np.ndarray:
    raw = _raw_potential_matrix(p, p.quad_order)
    check = _raw_potential_matrix(p, 2 * p.quad_order)
    # Relative to the matrix scale: sub-scale entries carry accumulated
    # rounding noise ~1e-12 of the scale even at converged orders.
    scale = float(np.max(np.abs(check)))
    worst = float(np.max(np.abs(check - raw))) / scale if scale else 0.0
    if not worst <= 1e-9:  # a non-finite entry fails too
        raise QuadratureSuspect(
            f"doubling the quadrature order moved an entry by relative "
            f"{worst:.3e} (> 1e-9); raise quad_order")
    s = p.smoothing.factors(p.N)
    out = s[:, None] * raw * s[None, :]
    out.setflags(write=False)
    return out


def potential_matrix(p: ScatterProblem) -> np.ndarray:
    """Smoothed potential matrix sigma_n <n|V_l|m> sigma_m.

    Matrix elements are Gauss-Laguerre integrals with the basis weight
    e^{-2br} absorbed into the rule; a doubled-order evaluation guards
    every entry.

    Parameters
    ----------
    p : ScatterProblem

    Returns
    -------
    ndarray
        Real symmetric (N+1) x (N+1) matrix.

    Raises
    ------
    QuadratureSuspect
        When doubling quad_order changes any entry by more than 1e-9
        relative, or an entry is not finite.
    """
    return _cached_potential_matrix(p).copy()


def alpha_alpha_potential() -> tuple[Callable[[float], float],
                                     ShortRangePotential]:
    """Gaussian-plus-screened-Coulomb potential between two alpha particles.

    V(r) = -A e^{-beta r^2} + Z^2 e^2 erf(gamma r)/r with A = 122.694 MeV,
    beta = 0.22 fm^-2, gamma = 0.75 fm^-1 and Z^2 e^2 = 4 * 1.44 MeV fm.
    The matching kinetic constant is hbar^2/(2m) = 10.375 MeV fm^2.

    Returns
    -------
    (callable, ShortRangePotential)
        The full potential and its short-range part
        -A e^{-beta r^2} - Z^2 e^2 erfc(gamma r)/r, whose 1/r tail
        strength Z^2 e^2 is recorded for the Coulomb Green's operator.
    """
    a_depth = 122.694
    beta = 0.22
    gamma = 0.75
    z2e2 = 4.0 * 1.44

    def full(r):
        x = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(x == 0.0, z2e2 * 2.0 * gamma / math.sqrt(math.pi),
                            z2e2 * erf(gamma * x) / x)
        out = -a_depth * np.exp(-beta * x * x) + tail
        return float(out) if np.isscalar(r) else out

    def short(r):
        x = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            tail = z2e2 * erfc(gamma * x) / x
        out = -a_depth * np.exp(-beta * x * x) - tail
        return float(out) if np.isscalar(r) else out

    return full, ShortRangePotential(v=short, coulomb_tail_Z2e2=z2e2)


# ---------------------------------------------------------------------------
# determinant and pole searches


def _inverse_green_block(p: ScatterProblem, E: complex,
                         sheet: SheetSelector) -> tuple[np.ndarray,
                                                        SheetSelector]:
    """(G^C)^{-1} block on the requested sheet, and the sheet resolved.

    On the physical and zero-tail branches this is the corner-corrected
    truncation T.  The unphysical branch adds the spectral jump G^II =
    G^I - c Phi Phi^T (c = 4im/(hbar^2 k) at the principal k, Phi the free
    overlaps), exact at any depth, where the tail's own continuation holds
    only in a strip below the cut.  T Phi = y e_N, so (G^II)^{-1} = T +
    c (T Phi)(T Phi)^T / (1 - c Phi^T T Phi) is T plus the scalar
    c y^2 / (1 - c y Phi_N) at [N, N].
    """
    energy = complex(E)
    if not cmath.isfinite(energy):
        raise ValueError(f"energy must be finite, got {E}")
    resolved = _resolve_sheet(sheet, energy)
    op = coulomb_jacobi(p.model, energy)
    if resolved is not SheetSelector.UNPHYSICAL:
        return corrected_truncation(op, p.N + 1, resolved), resolved
    block = corrected_truncation(op, p.N + 1, SheetSelector.PHYSICAL)
    phi = _overlaps(p.model, _continuum(energy), block)
    c = 4j * p.model.m / (p.model.hbar**2 * wavenumber(p.model, energy))
    y = block[-1] @ phi
    denom = 1.0 - c * y * phi[-1]
    if abs(denom) < 1e-14:
        raise SingularMatrix(
            f"spectral-jump denominator vanished at E={energy}")
    block[-1, -1] += c * y * y / denom
    return block, resolved


def det_equation(p: ScatterProblem, E: complex,
                 sheet: SheetSelector = SheetSelector.AUTO) -> complex:
    """det[(G^C(E))^{-1} - V] whose zeros are the poles of the full resolvent.

    (G^C)^{-1} is the corner-corrected tridiagonal block itself (plus a
    closed-form scalar in its corner on the unphysical sheet), so no matrix
    is inverted here and the determinant stays finite through the
    Coulomb poles (where it vanishes when V = 0).

    Parameters
    ----------
    p : ScatterProblem
    E : complex
        Energy.
    sheet : SheetSelector
        Branch of the continuation; Unphysical continues below the cut.

    Returns
    -------
    complex
    """
    block, _ = _inverse_green_block(p, E, sheet)
    return complex(np.linalg.det(block - _cached_potential_matrix(p)))


def find_bound_states(p: ScatterProblem, E_min: float, E_max: float,
                      n_grid: int = 400) -> list[float]:
    """Real zeros of the determinant below threshold.

    Scans an n_grid-point energy grid and brackets sign changes of the
    real part of the determinant where its imaginary part is negligible
    (at most 1e-9 of |det|).  The grid is one batch of lanes for the
    corner-ratio kernel.  The zeros come from the real-axis finder
    that :func:`jgreens.models.det_pole_scan` also uses
    (:func:`jgreens.models._real_zeros`): every bracket is polished by
    secant steps inside itself, the brackets in lockstep, each step one
    ``det_equation`` call per live bracket that does not settle on it;
    the energy a polish settles on is never evaluated.  The tail ratio
    has poles between the true levels, and they flip the sign too; their
    polish stops at an iterate above 1e3 times the larger endpoint
    |det|, and a last evaluated |det| (at an iterate within the settle
    bound of the root) above 1e-3 of the smaller bracket endpoint marks
    such a pole and is rejected.  A grid energy where the determinant is
    exactly zero is a root, and roots closer than 1e-9·max(1, |E|) are
    merged into one.  Errors of the determinant propagate: on the grid,
    the first failing energy's; in the polish, once every bracket is
    done, the lowest failing bracket's.

    Parameters
    ----------
    p : ScatterProblem
    E_min, E_max : float
        Search window, finite, E_min < E_max < 0 relative to threshold.
    n_grid : int
        Grid resolution, an integer >= 2.

    Returns
    -------
    list of float
        Sorted energies; empty when the window holds no state.
    """
    if not E_min < E_max < 0.0:
        raise ValueError(f"need E_min < E_max < 0, got [{E_min}, {E_max}]")
    _check_count("grid size n_grid", n_grid, 2)

    def real_parts(grid: list[float]) -> list[float]:
        # det_equation at every grid energy, AUTO being physical there
        blocks, errors = _corrected_blocks(
            lambda e: coulomb_jacobi(p.model, e), grid, p.N + 1)
        for exc in filter(None, errors):
            raise exc
        dets = np.linalg.det(blocks - _cached_potential_matrix(p)).tolist()
        return [d.real if abs(d.imag) <= 1e-9 * abs(d) else math.nan
                for d in dets]

    def polish(energies: list[float]) -> list:
        # one det_equation per lane, its error kept as the lane's value
        out = []
        for e in energies:
            try:
                out.append(det_equation(p, complex(e)).real)
            except Exception as exc:
                out.append(exc)
        return out

    return _real_zeros(real_parts, polish, E_min, E_max, n_grid)


def find_resonances(p: ScatterProblem, region: tuple[complex, complex],
                    seeds: tuple[int, int] = (6, 4)) -> list[complex]:
    """Determinant zeros in a lower-half-plane rectangle.

    The tail ratio is forced onto its unphysical continuation, where
    resonance poles live.  From each point z of a seed grid, a secant
    iteration (:func:`jgreens.models._secant`, scale max(1, |z|)) starts
    at z and z + 1e-7·max(|z|, 1e-3·diam), diam the rectangle diagonal,
    with every step clipped to diam/2.  Each seed costs two
    ``det_equation`` calls for its start points and one per step it
    does not settle on; the root it settles on is never evaluated.  A
    seed is dropped silently when its iteration ends unsettled (equal
    determinant values, or the budget of 200 steps spent) or raises a
    package error inside the determinant.  Roots outside the rectangle
    (1e-12 slack) are dropped, and the rest are deduplicated within
    1e-8.

    Parameters
    ----------
    p : ScatterProblem
    region : (complex, complex)
        Opposite corners of the search rectangle, finite and strictly
        below the real axis.
    seeds : (int, int)
        Seed grid shape (real x imaginary), a pair of integers >= 1.

    Returns
    -------
    list of complex
        Roots inside the rectangle, sorted by real part.
    """
    re_lo, re_hi = sorted((region[0].real, region[1].real))
    im_lo, im_hi = sorted((region[0].imag, region[1].imag))
    if not all(map(cmath.isfinite, region)):
        raise ValueError(f"search rectangle must be finite, got {region}")
    if im_hi >= 0.0:
        raise ValueError("search rectangle must lie below the real axis")
    if len(seeds) != 2:
        raise ValueError(f"seed grid seeds must be a pair, got {seeds!r}")
    for k, count in enumerate(seeds):
        _check_count(f"seed grid seeds[{k}]", count, 1)
    diam = math.hypot(re_hi - re_lo, im_hi - im_lo)

    def f(z: complex) -> complex:
        return det_equation(p, z, SheetSelector.UNPHYSICAL)

    roots: list[complex] = []
    for re in np.linspace(re_lo, re_hi, seeds[0] + 2)[1:-1]:
        for im in np.linspace(im_lo, im_hi, seeds[1] + 2)[1:-1]:
            z = complex(re, im)
            z1 = z + 1e-7 * max(abs(z), 1e-3 * diam)
            try:
                z, _, settled = _secant(f, z, f(z), z1, f(z1),
                                        1.0, cap=0.5 * diam)
            except JGreensError:
                continue
            if not (settled and re_lo - 1e-12 <= z.real <= re_hi + 1e-12
                    and im_lo - 1e-12 <= z.imag <= im_hi + 1e-12
                    and z.imag < 0):
                continue
            if all(abs(z - r) > 1e-8 for r in roots):
                roots.append(z)
    return sorted(roots, key=lambda z: z.real)


# ---------------------------------------------------------------------------
# scattering solution, overlaps and phase shifts


def free_overlap(model: CoulombModel, E: complex, N: int) -> np.ndarray:
    """Overlaps Phi_n of the regular Coulomb wave with the dual basis.

    Phi_n = integral of (phi_n(r)/r) F_lam(eta, kr) dr with Sommerfeld
    parameter eta = Z e2 m / (hbar^2 k) and lam = l + (D-3)/2, the index
    at which the D-dimensional radial problem takes the three-dimensional
    form.  The vector is the solution of the three-term recurrence
    (J Phi)_m = 0, m = 0..N-1, of J = E - H that row 0 picks out
    (J-matrix method: Heller & Yamani, Phys. Rev. A 9 (1974) 1201;
    Yamani & Fishman, J. Math. Phys. 16 (1975) 410).  Its start is the
    Laplace transform of Kummer's M (DLMF §13.10) against the Coulomb
    normalisation C_lam(eta) (DLMF §33.2):

        Phi_0 = sqrt((2lam+1)!) C_lam(eta) sin^{lam+1}(theta) e^{eta theta},

    with theta = 2 atan(k/b), taken in log form with C_lam continued as
    2^lam e^{-pi eta/2} sqrt(Gamma(lam+1+i eta) Gamma(lam+1-i eta))
    / (2lam+1)!.  Off the real axis the regular solution dominates the
    recurrence, and on it both solutions oscillate, so the forward
    recurrence is stable.

    Parameters
    ----------
    model : CoulombModel
        Supplies l, D, the basis scale b and the Coulomb strength.
    E : complex
        Energy; real and > 0, or complex, where the wavenumber and the
        Sommerfeld parameter take the principal branch.
    N : int
        Highest basis index, an integer >= 0.

    Returns
    -------
    ndarray
        (N+1,) vector of overlaps, real for real E.

    Raises
    ------
    ValueError
        For E not finite, or real and <= 0, or N not an integer >= 0,
        before any operator is built.
    """
    _check_count("highest index N", N, 0)
    energy = _continuum(E)
    return _overlaps(model, energy,
                     dense_truncation(coulomb_jacobi(model, energy), N + 1))


def _continuum(E: complex) -> complex:
    """E as a complex continuum energy: finite, and > 0 if real."""
    energy = complex(E)
    if not (cmath.isfinite(energy) and (energy.imag or energy.real > 0.0)):
        raise ValueError(f"energy must be finite and > 0 if real, got {E}")
    return energy


def _overlaps(model: CoulombModel, energy: complex,
              block: np.ndarray) -> np.ndarray:
    """:func:`free_overlap` from the rows of a leading (N+1) x (N+1) block
    of J = E - H; its corner [N, N] is not read."""
    lam = model.l + (model.D - 3) / 2.0
    b = model.b
    k = wavenumber(model, energy)
    eta = model.Z * model.e2 * model.m / (model.hbar**2 * k)
    log_phi0 = (lam * math.log(2.0) - 0.5 * math.pi * eta
                + 0.5 * (loggamma(lam + 1 + 1j * eta)
                         + loggamma(lam + 1 - 1j * eta)
                         - loggamma(2 * lam + 2))
                + (lam + 1) * cmath.log(2.0 * b * k / (b * b + k * k))
                + 2.0 * eta * cmath.atan(k / b))
    diag, off = block.diagonal().tolist(), block.diagonal(1).tolist()
    phi = np.empty(len(diag), dtype=complex)
    phi[0] = cmath.exp(log_phi0)
    now, below = phi[0], 0.0  # numpy scalars, as read back from phi
    for m, (d, o) in enumerate(zip(diag, off)):
        phi[m + 1] = after = -(d * now + below) / o
        now, below = after, o * now
    return phi.real if energy.imag == 0.0 else phi


def _solutions(p: ScatterProblem, energies: list[float]
               ) -> Iterator[tuple[np.ndarray, complex]]:
    """(Psi, A) of :func:`scatter_solve` at each energy, from the last one
    down.

    The corrected blocks J = (G^C)^{-1} at every energy are one batch of
    lanes (:func:`jgreens.jacobi._corrected_blocks`), which they do not
    depend on, so each energy equals its one-energy call bit for bit.
    Then, an energy at a time from the top, raising its error at its
    turn: the overlaps Phi from the rows of its block, and, as J Phi =
    c e_N, Psi from (J - V) Psi = c e_N by one checked inverse.
    """
    energies = [float(e) for e in energies]
    for e in energies:
        _continuum(e)
    blocks, errors = _corrected_blocks(
        lambda e: coulomb_jacobi(p.model, e), energies, p.N + 1)
    v = _cached_potential_matrix(p)
    for k in range(len(energies) - 1, -1, -1):
        if errors[k] is not None:
            raise errors[k]
        block = blocks[k]
        phi = _overlaps(p.model, complex(energies[k]), block)
        psi = (block[-1] @ phi) * _checked_inverse(block - v)[:, -1]
        yield psi, complex(phi @ (v @ psi))


def scatter_solve(p: ScatterProblem, E: float) -> tuple[np.ndarray, complex]:
    """Expansion coefficients of the scattering state and its amplitude.

    Solves (1 - G^C V) Psi = Phi on the physical sheet (E + i0) for the
    dual-basis coefficients Psi of the scattering state, then forms the
    short-range transition amplitude A = Phi^T V Psi.  Phi are the free
    overlaps, normalized so that V = 0 gives Psi = Phi and A = 0.  This
    is the one-energy case of a sweep (:func:`phase_shift`).

    Parameters
    ----------
    p : ScatterProblem
    E : float
        Continuum energy, finite and > 0.

    Returns
    -------
    (ndarray, complex)
        Coefficient vector of length N+1 and the amplitude A.

    Raises
    ------
    SingularMatrix
        When (G^C)^{-1} - V (the Coulomb block itself is not inverted) is
        numerically singular at this energy: exactly singular, not
        finite, or with a condition bound N * kappa_1 = N ||A||_1
        ||A^-1||_1 (which bounds the 2-norm condition number) above 1e14.
    ValueError
        For an energy that is not finite or not > 0.
    """
    [(psi, amp)] = _solutions(p, [E])
    return psi, amp


def phase_shift(p: ScatterProblem,
                energies: list[float]) -> list[PhaseShiftPoint]:
    """Continuity-tracked phase shifts over an ascending energy sweep.

    The energies are one batch of lanes: their corner ratios are summed
    together, and the rest of each amplitude comes an energy at a time,
    from the top (:func:`scatter_solve` at each energy, bit for bit).
    Each energy yields the amplitude a_l and a raw phase arg(S)/2 known
    only modulo pi.  The sweep is resolved from the highest energy
    downward: the top value is anchored in (-pi/2, pi/2] (a short-range
    phase vanishes at high energy) and each lower point takes the branch
    nearest its predecessor, so consecutive tracked phases differ by
    less than pi/2.  The first error in that order is raised: an
    energy's own error, or GridTooCoarse for the interval above it.

    Parameters
    ----------
    p : ScatterProblem
    energies : list of float
        Strictly ascending, all finite and > 0.

    Returns
    -------
    list of PhaseShiftPoint
        In the input (ascending) order.

    Raises
    ------
    GridTooCoarse
        When a nearest-branch jump reaches the half-period ambiguity
        limit; refine the grid near resonances.
    ValueError
        For energies that are not strictly ascending, or one that is not
        finite or not > 0, before any energy is solved.
    """
    if not energies:
        return []
    arr = list(map(float, energies))
    if any(b <= a for a, b in zip(arr, arr[1:])):
        raise ValueError("sweep energies must be strictly ascending")
    m, hbar = p.model.m, p.model.hbar
    lam = p.model.l + (p.model.D - 3) / 2.0
    points: list[PhaseShiftPoint] = []
    prev = None
    for i, (_, amp) in zip(range(len(arr) - 1, -1, -1), _solutions(p, arr)):
        e = arr[i]
        k = wavenumber(p.model, e).real
        eta = coulomb_sigma(lam, p.model.Z * p.model.e2 * m / (hbar**2 * k))
        a_l = -(2.0 * m / (hbar**2 * k * k)) * cmath.exp(2j * eta) * amp
        # the raw phase, arg(S)/2 of the short-range S, in (-pi/2, pi/2]
        raw = cmath.phase(1.0 + 2j * k * a_l * cmath.exp(-2j * eta)) / 2.0
        if prev is None:
            delta = raw
        else:
            delta = raw + math.pi * round((prev - raw) / math.pi)
            if abs(delta - prev) >= _PHASE_JUMP_LIMIT:
                raise GridTooCoarse(interval=(e, arr[i + 1]))
        prev = delta
        points.append(PhaseShiftPoint(E=e, delta=delta, eta=eta,
                                      amplitude=a_l))
    return points[::-1]


def total_green(p: ScatterProblem, E: complex,
                sheet: SheetSelector = SheetSelector.AUTO) -> GreenMatrix:
    """Green's matrix of the full Hamiltonian, [(G^C)^{-1} - V]^{-1}.

    Parameters
    ----------
    p : ScatterProblem
    E : complex
        Energy.
    sheet : SheetSelector
        Tail branch; Unphysical reaches resonance poles below the cut.

    Returns
    -------
    GreenMatrix
        Size N+1; its poles are the zeros of det_equation.

    Raises
    ------
    SingularMatrix
        When E sits numerically on a pole.
    """
    block, resolved = _inverse_green_block(p, E, sheet)
    entries = _checked_inverse(block - _cached_potential_matrix(p))
    return GreenMatrix(entries=entries, energy=complex(E), sheet=resolved,
                       n=p.N + 1)
