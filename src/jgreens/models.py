"""Exactly solvable radial Hamiltonian families on tridiagonal bases.

Each family couples an immutable parameter record to

* a builder returning the symmetric tridiagonal operator whose inverse
  is the Green's matrix in the family's natural basis,
* closed-form bound-level oracles for pole searches,
* basis-function evaluators together with their biorthonormal partners,
* an independent analytic reference for the leading Green's element
  where one exists in closed form.

Builders bake the energy into the operator entries; the returned
operators are consumed by :func:`jgreens.jacobi.green_submatrix` and
:func:`jgreens.jacobi.corrected_truncation`. At a 1-D array of energies
a builder returns one operator with a lane axis (see
:class:`jgreens.jacobi.JacobiOperator`), which the batch paths (contour
node loop, phase sweeps, determinant scans) read in one go.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Generator, Union

import numpy as np

from .errors import (InvalidU, JGreensError, NoConvergence, ZeroOffdiagonal,
                     _check_count)
from .jacobi import (IndexFormula, JacobiOperator, SheetSelector,
                     _corrected_blocks, _over, _times)
# Not called here: det_pole_scan uses _corrected_blocks. The name stays
# bound because perfbench/tracer.py wraps corrected_truncation at this
# module, and the benchmark's tests require every traced name to exist.
from .jacobi import corrected_truncation  # noqa: F401
from .special import _laguerre_functions, hyp2f1

__all__ = [
    "CoulombModel",
    "OscillatorModel",
    "GenCoulombModel",
    "KleinGordon",
    "DiracUpper",
    "DiracLower",
    "RelKind",
    "RelCoulombModel",
    "wavenumber",
    "coulomb_jacobi",
    "oscillator_jacobi",
    "gencoulomb_jacobi",
    "relativistic_jacobi",
    "coulomb_g00_analytic",
    "exact_levels",
    "rel_energy_from_binding",
    "rel_binding_from_energy",
    "gencoulomb_h_of_r",
    "gencoulomb_potential",
    "charge_density",
    "cs_basis_eval",
    "gcs_basis_eval",
    "rel_basis_eval",
    "coulomb_wavefunction",
    "oscillator_wavefunction",
    "det_pole_scan",
]

# Relative threshold below which an energy-dependent off-diagonal factor
# is treated as exactly degenerate.
_DEGENERATE_RTOL = 1e-14


# ---------------------------------------------------------------------------
# model records


def _positive(x) -> bool:
    """0 < x < inf (False for NaN)."""
    return 0 < x < math.inf


def _check_l_dim(l, D) -> None:
    """ValueError unless D >= 2 and l >= 0 (NaN fails both)."""
    if not D >= 2:
        raise ValueError(f"dimension D must be >= 2, got {D}")
    if not l >= 0:
        raise ValueError(f"angular momentum l must be >= 0, got {l}")


@dataclass(frozen=True)
class CoulombModel:
    """Radial Coulomb problem V(r) = Z e2 / r in D dimensions.

    Parameters
    ----------
    Z : float
        Charge number; Z*e2 < 0 binds.
    l : int
        Angular momentum, >= 0.
    D : int
        Spatial dimension, >= 2.
    b : float
        Scale parameter of the Laguerre-type basis, > 0.
    m, hbar, e2 : float
        Mass, action quantum and squared charge; the defaults of 1 give
        atomic units.
    """

    Z: float
    l: int = 0
    D: int = 3
    b: float = 1.0
    m: float = 1.0
    hbar: float = 1.0
    e2: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.Z):
            raise ValueError(f"charge number Z must be finite, got {self.Z}")
        if not _positive(self.b):
            raise ValueError(
                f"basis scale b must be finite and > 0, got {self.b}")
        _check_l_dim(self.l, self.D)
        if not all(map(_positive, (self.m, self.hbar, self.e2))):
            raise ValueError("m, hbar and e2 must all be finite and > 0")


@dataclass(frozen=True)
class OscillatorModel:
    """Radial harmonic oscillator in D dimensions on an oscillator basis.

    Parameters
    ----------
    omega : float
        Frequency of the Hamiltonian, > 0.
    omega_basis : float
        Frequency of the basis oscillator, > 0; equal frequencies make
        the operator diagonal.
    l, D, m, hbar : as in :class:`CoulombModel`.
    """

    omega: float
    omega_basis: float
    l: int = 0
    D: int = 3
    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (_positive(self.omega) and _positive(self.omega_basis)):
            raise ValueError("omega and omega_basis must be finite and > 0")
        _check_l_dim(self.l, self.D)
        if not (_positive(self.m) and _positive(self.hbar)):
            raise ValueError("m and hbar must be finite and > 0")


@dataclass(frozen=True)
class GenCoulombModel:
    """Shape-interpolating potential family in scaled units.

    The potential (see :func:`gencoulomb_potential`) is expressed through
    the coordinate map h(r) and interpolates between a Coulomb well
    (theta -> 0) and a harmonic one (theta -> infinity).  Energies for
    this family are scaled ones, eps = 2 m E / hbar**2.

    Parameters
    ----------
    C : float
        Overall strength scale, > 0.
    theta : float
        Shape parameter, >= 0.
    q : float
        Charge-like strength of the 1/(h+theta) term; q > 0 binds.
    beta : float
        Basis exponent parameter, > 3/2.
    rho_basis : float
        Scale parameter of the basis, > 0.
    l, D : int
        Enter only through the centrifugal compensation term of the
        potential.
    """

    C: float
    theta: float
    q: float
    beta: float
    rho_basis: float
    l: int = 0
    D: int = 3

    def __post_init__(self) -> None:
        if not _positive(self.C):
            raise ValueError(
                f"strength C must be finite and > 0, got {self.C}")
        if not 0 <= self.theta < math.inf:
            raise ValueError(
                f"shape theta must be finite and >= 0, got {self.theta}")
        if not math.isfinite(self.q):
            raise ValueError(f"charge-like q must be finite, got {self.q}")
        if not 1.5 <= self.beta < math.inf:
            raise ValueError(
                f"exponent beta must be finite and >= 3/2, got {self.beta}")
        if not _positive(self.rho_basis):
            raise ValueError("basis scale rho_basis must be finite and > 0, "
                             f"got {self.rho_basis}")
        _check_l_dim(self.l, self.D)


@dataclass(frozen=True)
class KleinGordon:
    """Spin-0 radial equation label; carries the orbital momentum l."""

    l: int

    def u_value(self, zalpha: float) -> float:
        arg = 0.25 + self.l * (self.l + 1) - zalpha * zalpha
        if arg < 0:
            raise InvalidU(
                f"(Z alpha)^2 = {zalpha * zalpha:.6g} exceeds "
                f"1/4 + l(l+1) = {0.25 + self.l * (self.l + 1):.6g}")
        return -0.5 + math.sqrt(arg)


def _dirac_root(j: float, zalpha: float) -> float:
    """sqrt((j+1/2)^2 - (Z alpha)^2), the Dirac angular parameter."""
    arg = (j + 0.5) ** 2 - zalpha * zalpha
    if arg < 0:
        raise InvalidU(
            f"(Z alpha)^2 = {zalpha * zalpha:.6g} exceeds "
            f"(j+1/2)^2 = {(j + 0.5) ** 2:.6g}")
    return math.sqrt(arg)


@dataclass(frozen=True)
class DiracUpper:
    """Upper-component radial Dirac label; carries the total momentum j."""

    j: float

    def u_value(self, zalpha: float) -> float:
        return -1.0 + _dirac_root(self.j, zalpha)


@dataclass(frozen=True)
class DiracLower:
    """Lower-component radial Dirac label; carries the total momentum j."""

    j: float

    def u_value(self, zalpha: float) -> float:
        return _dirac_root(self.j, zalpha)


RelKind = Union[KleinGordon, DiracUpper, DiracLower]


@dataclass(frozen=True)
class RelCoulombModel:
    """Relativistic Coulomb problem (spin-0 or squared-Dirac form).

    The radial operator is quadratic in the total energy; its matrix on
    the Laguerre-type basis is inverted directly (no spectral shift), so
    :func:`relativistic_jacobi` consumes the total energy divided by
    hbar*c, an inverse length like mu and eta_basis.

    Parameters
    ----------
    mu : float
        Reduced Compton wave number m*c/hbar, > 0.
    alpha_fs : float
        Fine-structure constant, > 0.
    Z : float
        Charge number; Z > 0 binds.
    kind : KleinGordon or DiracUpper or DiracLower
        Equation label carrying the angular quantum number.
    eta_basis : float
        Scale parameter of the basis, > 0.
    """

    mu: float
    alpha_fs: float
    Z: float
    kind: RelKind
    eta_basis: float

    def __post_init__(self) -> None:
        if not _positive(self.mu):
            raise ValueError("Compton wave number mu must be finite and > 0, "
                             f"got {self.mu}")
        if not _positive(self.alpha_fs):
            raise ValueError("fine-structure constant must be finite and > 0, "
                             f"got {self.alpha_fs}")
        if not math.isfinite(self.Z):
            raise ValueError(f"charge number Z must be finite, got {self.Z}")
        if not _positive(self.eta_basis):
            raise ValueError("basis scale eta_basis must be finite and > 0, "
                             f"got {self.eta_basis}")
        self.kind.u_value(self.Z * self.alpha_fs)  # fail fast on supercritical Z

    @property
    def u(self) -> float:
        """Effective (generally non-integer) angular parameter."""
        return self.kind.u_value(self.Z * self.alpha_fs)


# ---------------------------------------------------------------------------
# tridiagonal builders


# The families' entries as formulas in the index i (an int or an int64
# index array; see jacobi.IndexFormula), each parameter a builder's scalar
# or those scalars stacked over lanes. Each keeps the operations of the
# entry's scalar expression in their order, with the same operand types,
# so an entry read in an array is the same double as at an int index.


def _coulomb_diag(i, dfac, two_l, ze2):
    return (2 * i + two_l - 1) * dfac - ze2


def _coulomb_offdiag(i, ofac, two_l):
    return -np.sqrt((i + 1) * (i + two_l - 1)) * ofac


def _oscillator_diag(n, energy, dfac, shift):
    return energy - dfac * (2 * n + shift)


def _oscillator_offdiag(n, ofac, shift):
    return ofac * np.sqrt((n + 1) * (n + shift))


def _gencoulomb_diag(n, e_term, beta, rho_theta, qterm, sc4):
    # the eps coefficient is the exact basis overlap (2n+beta+rho*theta)
    return e_term * (2 * n + beta + rho_theta) + qterm - sc4 * (2 * n + beta)


def _gencoulomb_offdiag(n, o_term, beta):
    return -np.sqrt((n + 1) * (n + beta)) * o_term


def _relativistic_diag(n, az2_e, u, x_eta):
    return az2_e + 2.0 * (u + n + 1) * x_eta


def _relativistic_offdiag(n, minus_x, u):
    return minus_x * np.sqrt((n + 1) * (n + 2 * u + 2))


# Each builder computes its energy-dependent params once, for a Python
# complex energy or for an (L,) array of them. The array form rounds as
# the scalar one does, lane by lane: its products and quotients are
# jacobi._times and jacobi._over, its moduli np.hypot (np.abs of a
# complex array may round apart from Python's abs), and where a lane
# would raise or lack limits, the array call raises, so that a caller
# builds the lanes one at a time and meets each lane's own outcome.


def _energies(E) -> complex | np.ndarray:
    """A builder's energy argument: an ndarray of one axis as a complex
    array (the lanes), anything else as a Python complex."""
    if not isinstance(E, np.ndarray) or E.ndim == 0:
        return complex(E)
    if E.ndim != 1:
        raise ValueError(f"energies must be a number or a 1-D array, got "
                         f"shape {E.shape}")
    return E.astype(complex)


def _finite(energy, *factors) -> None:
    """ValueError naming the energy (at an array, its first bad lane's)
    where the energy, or a factor the builder computed from it, is not
    finite or has a modulus that overflows (np.hypot, as Python's abs)."""
    values = (energy, *factors)
    if isinstance(energy, np.ndarray):
        values = np.array(values)
        # parts below 1e308 give moduli below sqrt(2) 1e308: none overflows
        if np.abs(values.view(float)).max(initial=0.0) < 1e308:
            return
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(np.hypot(values.real, values.imag)).all(axis=0)
        if not bad.any():
            return
        energy = complex(energy[bad.argmax()])
    else:
        try:
            if all(math.isfinite(abs(f)) for f in values):
                return
        except OverflowError:  # a modulus past the largest float
            pass
    raise ValueError(f"energy {energy} is not finite"
                     if not cmath.isfinite(energy) else
                     f"energy {energy} overflows an energy-dependent factor "
                     "of the operator")


def _degenerate(term, part, offset: float) -> bool:
    """|term| <= 1e-14 (|part| + offset) at the energy or at any lane:
    every off-diagonal entry vanishes. The moduli are finite
    (:func:`_finite`)."""
    if not isinstance(term, np.ndarray):
        return abs(term) <= _DEGENERATE_RTOL * (abs(part) + offset)
    gap = np.hypot(term.real, term.imag)
    return bool(np.any(gap <= _DEGENERATE_RTOL * (
        np.hypot(part.real, part.imag) + offset)))


def _operator(diag: IndexFormula, offdiag: IndexFormula, energy,
              d_limit) -> JacobiOperator:
    """A builder's operator, with limit coefficients (-1, d_limit), none
    where d_limit is None; at an array of energies, (L, 2) limits, and
    ValueError where the lanes have none."""
    if not isinstance(energy, np.ndarray):
        limits = None if d_limit is None else (-1.0 + 0.0j, d_limit)
    elif d_limit is None:
        raise ValueError("a lane has no limit coefficients; build the "
                         "lanes one at a time")
    else:
        limits = np.empty((energy.size, 2), dtype=complex)
        limits[:, 0], limits[:, 1] = -1.0, d_limit
    return JacobiOperator(diag=diag, offdiag=offdiag, energy=energy,
                          limit_coeffs=limits)


def wavenumber(model: CoulombModel | OscillatorModel, E: complex) -> complex:
    """Wave number k = sqrt(2 m E / hbar^2) on the principal branch.

    The branch cut lies on the negative real energy axis, so Im k > 0
    for E < 0 (decaying bound-state asymptotics) and k > 0 for E > 0
    approached from above.
    """
    return cmath.sqrt(2.0 * model.m * complex(E) / model.hbar**2)


def coulomb_jacobi(model: CoulombModel, E: complex) -> JacobiOperator:
    """Tridiagonal representation of E - H for the Coulomb family.

    Parameters
    ----------
    model : CoulombModel
    E : complex or 1-D array
        Energy in the same units as the model parameters. An array gives
        one operator with a lane axis, lane k bit-equal to the scalar
        call at E[k].

    Returns
    -------
    JacobiOperator
        With limit coefficients (-1, 2(k^2-b^2)/(k^2+b^2)).

    Raises
    ------
    ValueError
        Where E is not finite, or an energy-dependent factor overflows
        (at an array: at any lane).
    ZeroOffdiagonal
        At the degenerate energy E = -hbar^2 b^2 / (2m), where every
        off-diagonal entry vanishes and the representation breaks down
        (at an array: where any lane is degenerate).
    """
    energy = _energies(E)
    k2 = _over(_times(2.0 * model.m, energy), model.hbar**2)
    b2 = model.b * model.b
    pref = model.hbar**2 / (4.0 * model.m * model.b)
    dfac = _times(k2 - b2, pref)
    ofac = _times(k2 + b2, pref)
    twice = _times(2.0, dfac)
    _finite(energy, k2, k2 + b2, twice, ofac)
    if _degenerate(k2 + b2, k2, b2):
        raise ZeroOffdiagonal(
            0, "k^2 + b^2 vanishes at this energy; every off-diagonal "
               "element is zero")
    two_l = 2 * model.l + model.D
    return _operator(
        IndexFormula(_coulomb_diag, (dfac, two_l, model.Z * model.e2)),
        IndexFormula(_coulomb_offdiag, (ofac, two_l)), energy,
        _over(twice, ofac))


def oscillator_jacobi(model: OscillatorModel, E: complex) -> JacobiOperator:
    """Tridiagonal representation of E - H for the oscillator family.

    The basis oscillator frequency may differ from the Hamiltonian one;
    equal frequencies make every off-diagonal entry zero, which is a
    valid diagonal operator (its Green's matrix follows without any tail
    ratio), while any ratio request on it raises ZeroOffdiagonal lazily.

    Parameters
    ----------
    model : OscillatorModel
    E : complex or 1-D array
        Energy in the same units as hbar*omega. An array gives one
        operator with a lane axis, lane k bit-equal to the scalar call at
        E[k]; with equal frequencies (no limits) it raises ValueError.

    Returns
    -------
    JacobiOperator
        With limit coefficients (-1, 2(w^2+w'^2)/(w^2-w'^2)) when the
        frequencies differ, None otherwise.

    Raises
    ------
    ValueError
        Where E is not finite (at an array: at any lane).
    """
    w, wb = model.omega, model.omega_basis
    dfac = model.hbar * (w * w + wb * wb) / (2.0 * wb)
    ofac = model.hbar * (w * w - wb * wb) / (2.0 * wb)
    shift = model.l + model.D / 2.0
    energy = _energies(E)
    _finite(energy)
    return _operator(
        IndexFormula(_oscillator_diag, (energy, dfac, shift)),
        IndexFormula(_oscillator_offdiag, (ofac, shift)), energy,
        None if ofac == 0 else complex(2.0 * dfac / ofac))


def gencoulomb_jacobi(model: GenCoulombModel, eps: complex) -> JacobiOperator:
    """Tridiagonal representation of eps - H for the interpolating family.

    Parameters
    ----------
    model : GenCoulombModel
    eps : complex or 1-D array
        Scaled energy 2 m E / hbar^2. An array gives one operator with a
        lane axis, lane k bit-equal to the scalar call at eps[k].

    Returns
    -------
    JacobiOperator
        With limit coefficients (-1, 2(4 eps - C rho^2)/(4 eps + C rho^2)).

    Raises
    ------
    ValueError
        Where eps is not finite, or an energy-dependent factor overflows
        (at an array: at any lane).
    ZeroOffdiagonal
        At the degenerate scaled energy eps = -C rho^2 / 4 (at an array:
        where any lane is degenerate).
    """
    rho = model.rho_basis
    sc = math.sqrt(model.C) * rho
    energy = _energies(eps)
    e_term = _over(energy, sc)
    o_term = e_term + sc / 4.0
    twice = _times(2.0, e_term - sc / 4.0)
    _finite(energy, e_term, o_term, twice)
    if _degenerate(o_term, e_term, sc / 4.0):
        raise ZeroOffdiagonal(
            0, "eps + C rho^2/4 vanishes at this energy; every "
               "off-diagonal element is zero")
    beta = model.beta
    return _operator(
        IndexFormula(_gencoulomb_diag,
                     (e_term, beta, rho * model.theta,
                      model.q / math.sqrt(model.C), sc / 4.0)),
        IndexFormula(_gencoulomb_offdiag, (o_term, beta)), energy,
        _over(twice, o_term))


def relativistic_jacobi(model: RelCoulombModel, E: complex) -> JacobiOperator:
    """Tridiagonal matrix of the quadratic relativistic radial operator.

    The operator is inverted directly: green_submatrix applied to the
    returned operator yields the relativistic Green's matrix with no
    spectral shift.

    Parameters
    ----------
    model : RelCoulombModel
    E : complex or 1-D array
        Total energy divided by hbar*c (an inverse length; includes the
        rest mass).  See :func:`rel_energy_from_binding` for the
        atomic-units conversion. An array gives one operator with a lane
        axis, lane k bit-equal to the scalar call at E[k]; where a lane
        has no limits it raises ValueError.

    Returns
    -------
    JacobiOperator
        With limit coefficients (-1, 2(kt^2-eta^2)/(kt^2+eta^2)) where
        kt^2 = E^2 - mu^2, when the off-diagonal factor is nonzero.

    Raises
    ------
    ValueError
        Where E is not finite, or an energy-dependent factor overflows
        (at an array: at any lane).
    InvalidU
        Propagated from the model when (Z alpha) is supercritical.
    """
    u = model.u
    eta = model.eta_basis
    et = _energies(E)
    x = _over(_times(et, et) - model.mu**2 + eta * eta, 2.0 * eta)
    az2_e, twice = _times(2.0 * model.alpha_fs * model.Z, et), _times(
        2.0, x - eta)
    _finite(et, x, az2_e, twice)
    return _operator(
        IndexFormula(_relativistic_diag, (az2_e, u, x - eta)),
        IndexFormula(_relativistic_offdiag, (-x, u)), et,
        None if np.any(x == 0) else _over(twice, x))


# ---------------------------------------------------------------------------
# analytic references and level oracles


def coulomb_g00_analytic(model: CoulombModel, E: complex) -> complex:
    """Leading Green's element of the Coulomb family in closed form.

    Independent of the tridiagonal route: a Gauss hypergeometric
    expression evaluated at z = ((b+ik)/(b-ik))^2 with the Sommerfeld
    parameter gamma = Z e2 m / (hbar^2 k).

    Parameters
    ----------
    model : CoulombModel
    E : complex
        Energy away from the bound poles.

    Returns
    -------
    complex

    Raises
    ------
    HypergeometricNoConverge
        When the hypergeometric argument falls in the unreliable region
        near the unit circle around 1.
    """
    k = wavenumber(model, E)
    gam = model.Z * model.e2 * model.m / (model.hbar**2 * k)
    z = ((model.b + 1j * k) / (model.b - 1j * k)) ** 2
    a = -model.l - (model.D - 3) / 2.0 + 1j * gam
    c = model.l + (model.D + 1) / 2.0 + 1j * gam
    pref = -4.0 * model.m * model.b / (model.hbar**2 * (model.b - 1j * k) ** 2)
    return pref / (model.l + (model.D - 1) / 2.0 + 1j * gam) \
        * hyp2f1(a, 1.0, c, z)


def _gc_rho_level(model: GenCoulombModel, n: int) -> float:
    # cancellation-free form of (2/theta)(sqrt((n+beta/2)^2+q theta/C)-(n+beta/2))
    half = n + 0.5 * model.beta
    disc = math.sqrt(half * half + model.q * model.theta / model.C)
    return 2.0 * (model.q / model.C) / (disc + half)


def _sommerfeld_binding(model: RelCoulombModel, n: int) -> float:
    # atomic units: hbar = 1, c = 1/alpha_fs, rest energy mu/alpha_fs
    nu = n + model.u + 1.0
    x = model.Z * model.alpha_fs / nu
    root = math.sqrt(1.0 + x * x)
    return -(model.mu / model.alpha_fs) * x * x / (root * (1.0 + root))


def exact_levels(model, n_max: int) -> list[float]:
    """Closed-form bound levels of a model family, lowest first.

    Parameters
    ----------
    model : CoulombModel, OscillatorModel, GenCoulombModel or RelCoulombModel
    n_max : int
        Number of levels requested, an integer >= 1.

    Returns
    -------
    list of float
        Energies for n = 0 .. n_max-1.  Gen-Coulomb levels are scaled
        energies eps = 2mE/hbar^2; relativistic levels are binding
        energies in atomic units.  Families without bound states
        (repulsive or free) yield an empty list.
    """
    _check_count("n_max", n_max, 1)
    if isinstance(model, CoulombModel):
        ze2 = model.Z * model.e2
        if ze2 >= 0:
            return []
        pref = model.m * ze2 * ze2 / (2.0 * model.hbar**2)
        off = model.l + (model.D - 1) / 2.0
        return [-pref / (n + off) ** 2 for n in range(n_max)]
    if isinstance(model, OscillatorModel):
        shift = model.l + model.D / 2.0
        return [model.hbar * model.omega * (2 * n + shift)
                for n in range(n_max)]
    if isinstance(model, GenCoulombModel):
        if model.q <= 0:
            return []
        return [-0.25 * model.C * _gc_rho_level(model, n) ** 2
                for n in range(n_max)]
    if isinstance(model, RelCoulombModel):
        if model.Z <= 0:
            return []
        return [_sommerfeld_binding(model, n) for n in range(n_max)]
    raise TypeError(f"unsupported model type {type(model).__name__}")


def rel_energy_from_binding(model: RelCoulombModel, binding: float) -> float:
    """Total energy over hbar*c for a binding energy in atomic units."""
    return model.mu + model.alpha_fs * binding


def rel_binding_from_energy(model: RelCoulombModel, energy: float) -> float:
    """Binding energy in atomic units for a total energy over hbar*c."""
    return (energy - model.mu) / model.alpha_fs


# ---------------------------------------------------------------------------
# coordinate map, potential, charge density


def gencoulomb_h_of_r(model: GenCoulombModel, r: float) -> float:
    """Invert the coordinate map r(h) of the interpolating family.

    The map r(h) = C^{-1/2}[theta atanh(sqrt(h/(h+theta))) +
    sqrt(h(h+theta))] is strictly increasing with r(0) = 0, and
    sqrt(C) r(h) lies between max(h, 2 sqrt(h theta)) and
    2 sqrt(h (h+theta)). The inverse is found by Brent's method to 4 eps
    relative on the bracket [hi/8, hi], hi = min(sqrt(C) r,
    C r^2 / (2 theta)), which those bounds place around the root. Where
    hi/8 is below the normal range, h is the leading term C r^2 / (4 theta)
    of the small-h expansion h = C r^2 / (4 theta) (1 - h / (3 theta)).
    theta = 0 collapses to h = sqrt(C) r.

    Parameters
    ----------
    model : GenCoulombModel
    r : float
        Radius, finite and >= 0, with sqrt(C) r finite.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If r is negative or not finite, or sqrt(C) r overflows.
    NoConvergence
        If 200 steps of Brent's method fail to locate h (not expected).
    """
    if not 0 <= r < math.inf:
        raise ValueError(f"radius must be finite and >= 0, got {r}")
    sqc = math.sqrt(model.C)
    target = sqc * float(r)
    if target == math.inf:
        raise ValueError(f"radius {r!r} times sqrt(C) overflows")
    if model.theta == 0 or r == 0:
        return target
    theta = float(model.theta)
    hi = min(target, target * (target / (2.0 * theta)))
    lo = hi / 8.0
    if lo < sys.float_info.min:
        return target * (target / (4.0 * theta))

    def shifted(h: float) -> float:
        # sqrt(C) r(h) - target as (h - target) + theta (atanh(s) +
        # s/(1+s)), s = sqrt(h/(h+theta)): sqrt(h(h+theta)) = h +
        # theta s/(1+s) and atanh(s) = log1p(2s(1+s)(h+theta)/theta)/2. No
        # term cancels as s -> 0, nothing overflows below h ~ 4e307 theta,
        # and s, from two square roots, stays normal where h/(h+theta)
        # would not. Beyond that h the log1p argument is capped: theta
        # atanh(s) is then far below an ulp of h.
        s = math.sqrt(h) / math.sqrt(h + theta)
        x = 2.0 * s * (1.0 + s) * (h + theta) / theta
        return (h - target) + theta * (
            0.5 * math.log1p(min(x, sys.float_info.max)) + s / (1.0 + s))

    from scipy.optimize import brentq  # loaded here: it adds 16 MB of RSS
    eps = np.finfo(float).eps
    try:
        return brentq(shifted, lo, hi, xtol=eps * lo, rtol=4.0 * eps,
                      maxiter=200)
    except RuntimeError as exc:
        raise NoConvergence(
            f"coordinate inversion stalled at r={r!r}") from exc


def gencoulomb_potential(model: GenCoulombModel, r: float) -> float:
    """Interpolating potential in scaled units, v = 2 m V / hbar^2.

    Five terms: a negative centrifugal compensation, a 1/(h(h+theta))
    barrier, the charge-like -q/(h+theta) well and two shape
    corrections; theta tunes the family between a Coulomb well and a
    harmonic one.

    Parameters
    ----------
    model : GenCoulombModel
    r : float
        Radius, finite and > 0.

    Returns
    -------
    float
    """
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {r}")
    h = gencoulomb_h_of_r(model, r)
    ht = h + model.theta
    lam = (model.l + (model.D - 3) / 2.0) * (model.l + (model.D - 1) / 2.0)
    return (-lam / (r * r)
            + model.C * (model.beta - 0.5) * (model.beta - 1.5) / (4.0 * h * ht)
            - model.q / ht
            - 3.0 * model.C / (16.0 * ht * ht)
            + 5.0 * model.C * model.theta / (16.0 * ht ** 3))


def charge_density(model: GenCoulombModel, r: float, *, m: float = 1.0,
                   hbar: float = 1.0, e: float = 1.0) -> float:
    """Charge density that would source the interpolating potential.

    Evaluates -hbar^2/(8 pi m e) times the radial Laplacian of the
    scaled potential, v'' + (D-1)/r v', by five-point central
    differences with step 1e-4*max(1, r) (capped at r/4 so the stencil
    stays inside the domain).

    Parameters
    ----------
    model : GenCoulombModel
    r : float
        Radius, finite and > 0.
    m, hbar, e : float
        Physical constants of the sourced Poisson equation.

    Returns
    -------
    float
    """
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {r}")
    step = min(1e-4 * max(1.0, r), 0.25 * r)
    v = [gencoulomb_potential(model, r + k * step) for k in (-2, -1, 0, 1, 2)]
    d2 = (-v[4] + 16.0 * v[3] - 30.0 * v[2] + 16.0 * v[1] - v[0]) \
        / (12.0 * step * step)
    d1 = (-v[4] + 8.0 * v[3] - 8.0 * v[1] + v[0]) / (12.0 * step)
    lap = d2 + (model.D - 1) / r * d1
    return -hbar * hbar / (8.0 * math.pi * m * e) * lap


# ---------------------------------------------------------------------------
# basis functions and bound-state wave functions


def cs_basis_eval(n: int, l: int, D: int, b: float,
                  r: float) -> tuple[float, float]:
    """Laguerre-type basis function of the Coulomb family and its partner.

    phi_n(r) = sqrt(Gamma(n+1)/Gamma(n+2l+D-1)) e^{-br} (2br)^{l+(D-1)/2}
    L_n^{(2l+D-2)}(2br); the biorthonormal partner is phi/r.  The
    prefactor is assembled in the log domain so large n, b or r cannot
    overflow.

    Parameters
    ----------
    n : int
        Radial index, an integer >= 0.
    l, D, b : basis quantum numbers and scale, as in :class:`CoulombModel`.
    r : float
        Radius, finite and >= 0.

    Returns
    -------
    (float, float)
        (phi, phi/r); the partner is the r -> 0 limit when r = 0 (finite
        for l+(D-1)/2 >= 1, infinite below).
    """
    return _radial_laguerre(n, l + (D - 3) / 2.0, 2 * l + D - 2, b, r)


def gcs_basis_eval(model: GenCoulombModel, n: int,
                   r: float) -> tuple[float, float]:
    """Basis function of the interpolating family and its partner.

    phi_n(r) = sqrt(Gamma(n+1)/Gamma(n+beta)) (rho(h+theta))^{1/4}
    (rho h)^{(2 beta-1)/4} e^{-rho h/2} L_n^{(beta-1)}(rho h) with
    h = h(r); the partner carrying the quadrature weight is
    phi * sqrt(C)/(h+theta).

    Parameters
    ----------
    model : GenCoulombModel
    n : int
        Radial index, an integer >= 0.
    r : float
        Radius, finite and >= 0 (checked by :func:`gencoulomb_h_of_r`).

    Returns
    -------
    (float, float)
        (phi, phi * sqrt(C)/(h+theta)); at h = 0 the partner is its limit
        (0 for theta > 0 or beta > 2, finite at 2, infinite below).
    """
    _check_count("basis index n", n, 0)
    rho, beta, theta = model.rho_basis, model.beta, model.theta
    h = gencoulomb_h_of_r(model, r)
    if h == 0.0:  # theta = 0: h^s, s = beta/2 - 1, 2 scale = rho sqrt(C)
        return (0.0, 0.0) if theta > 0 else _radial_laguerre(
            n, 0.5 * beta - 1.0, beta - 1.0, 0.5 * rho * math.sqrt(model.C),
            0.0)
    lag = _laguerre_functions(n, beta - 1.0, rho * h,
                              0.25 * (2.0 * beta - 1.0))
    phi = (rho * (h + theta)) ** 0.25 * float(lag[n])
    return phi, phi * math.sqrt(model.C) / (h + theta)


def rel_basis_eval(model: RelCoulombModel, n: int,
                   r: float) -> tuple[float, float]:
    """Basis function of the relativistic family and its partner phi/r.

    S_n(r) = sqrt(Gamma(n+1)/Gamma(n+2u+2)) (2 eta r)^{u+1} e^{-eta r}
    L_n^{(2u+1)}(2 eta r) with the model's effective angular parameter u.

    Parameters
    ----------
    model : RelCoulombModel
    n : int
        Radial index, an integer >= 0.
    r : float
        Radius, finite and >= 0.

    Returns
    -------
    (float, float)
        (S, S/r); the partner is the r -> 0 limit when r = 0.
    """
    u = model.u
    return _radial_laguerre(n, u, 2.0 * u + 1.0, model.eta_basis, r)


def _radial_laguerre(n: int, s: float, alpha: float, scale: float,
                     r: float) -> tuple[float, float]:
    """(phi, phi/r) of phi_n(r) = sqrt(Gamma(n+1)/Gamma(n+alpha+1))
    e^{-scale r} (2 scale r)^{s+1} L_n^{(alpha)}(2 scale r), the radial
    basis of the Coulomb and relativistic families; at r = 0 the partner
    is its r -> 0 limit (0 for s > 0, finite for s = 0, infinite below)."""
    _check_count("basis index n", n, 0)
    if not 0 <= r < math.inf:
        raise ValueError(f"radius must be finite and >= 0, got {r}")
    if r == 0.0:
        if s > 0:
            return 0.0, 0.0
        if s == 0:
            lag0 = _laguerre_functions(n, alpha, 0.0, 0.0)[n]
            return 0.0, float(lag0) * 2.0 * scale
        return 0.0, math.inf
    phi = float(_laguerre_functions(n, alpha, 2.0 * scale * r, s + 1.0)[n])
    return phi, phi / r


def coulomb_wavefunction(model: CoulombModel, n: int, r: float) -> float:
    """Normalized bound-state radial wave function of the Coulomb family.

    psi_n(r) = a0 sqrt(r0 Gamma(n+1)/(2 Gamma(n+2l+D-1))) e^{-a0 r/2}
    (a0 r)^{l+(D-1)/2} L_n^{(2l+D-2)}(a0 r), with r0 = hbar^2/(2m|Z|e2)
    and a0 = 1/((n+l+(D-1)/2) r0).  Requires an attractive model
    (Z*e2 < 0).

    Parameters
    ----------
    model : CoulombModel
    n : int
        Radial quantum number, an integer >= 0.
    r : float
        Radius, finite and >= 0.

    Returns
    -------
    float
    """
    _check_count("radial quantum number n", n, 0)  # before a0 (n = -p)
    if model.Z * model.e2 >= 0:
        raise ValueError("bound states require Z*e2 < 0")
    r0 = model.hbar**2 / (2.0 * model.m * abs(model.Z) * model.e2)
    p = model.l + (model.D - 1) / 2.0
    a0 = 1.0 / ((n + p) * r0)
    phi, _ = _radial_laguerre(n, p - 1.0, 2 * model.l + model.D - 2,
                              0.5 * a0, r)
    return a0 * math.sqrt(0.5 * r0) * phi


def oscillator_wavefunction(model: OscillatorModel, n: int, r: float,
                            frequency: float | None = None) -> float:
    """Normalized bound-state radial wave function of the oscillator.

    psi_n(r) = v^{1/4} sqrt(2 Gamma(n+1)/Gamma(n+l+D/2)) e^{-v r^2/2}
    (v r^2)^{l/2+(D-1)/4} L_n^{(l+D/2-1)}(v r^2) with v = m*frequency/hbar.

    Parameters
    ----------
    model : OscillatorModel
    n : int
        Radial quantum number, an integer >= 0.
    r : float
        Radius, finite and >= 0.
    frequency : float, optional
        Oscillator frequency; defaults to the Hamiltonian's.  Pass
        ``model.omega_basis`` to evaluate basis functions.

    Returns
    -------
    float
    """
    _check_count("radial quantum number n", n, 0)
    if not 0 <= r < math.inf:
        raise ValueError(f"radius must be finite and >= 0, got {r}")
    freq = model.omega if frequency is None else frequency
    if freq <= 0:
        raise ValueError(f"frequency must be > 0, got {freq}")
    v = model.m * freq / model.hbar
    x = v * r * r
    if x == 0.0:
        return 0.0
    lag = _laguerre_functions(n, model.l + model.D / 2.0 - 1.0, x,
                              0.5 * model.l + (model.D - 1) / 4.0)
    return v ** 0.25 * math.sqrt(2.0) * float(lag[n])


# ---------------------------------------------------------------------------
# real-axis zeros and pole search


def _secant(f: Callable[[complex], complex], x0: complex, f0: complex,
            x1: complex, f1: complex, scale: float,
            bracket: tuple[float, float, float] | None = None,
            cap: float = math.inf) -> tuple[complex, complex, bool]:
    """(x, f at the last evaluated iterate, settled): the iteration of
    :func:`_secant_steps` driven alone, one ``f`` call per step it does
    not settle on; an x settled on its step is never passed to ``f``.
    An error of ``f`` propagates."""
    (out,) = _lockstep([_secant_steps(x0, f0, x1, f1, scale, bracket, cap)],
                       lambda xs: [f(x) for x in xs])
    return out


def _secant_steps(x0: complex, f0: complex, x1: complex, f1: complex,
                  scale: float,
                  bracket: tuple[float, float, float] | None = None,
                  cap: float = math.inf) -> Generator:
    """Secant iteration for a zero of f from (x0, f0) and (x1, f1), the
    polisher of every determinant root search, as a stepper: a generator
    that yields its next x, is sent f(x), and returns (x, fx, settled),
    fx being f at the last iterate it evaluated.  :func:`_secant` drives
    one alone; :func:`_lockstep` drives many in one batch per step.

    A step |dx| settles when it falls below 1e-12·s, or when it is below
    1e-9·s and no smaller than half the step before, with
    s = max(scale, |x|): the determinant is noisy at that level, so the
    steps stop shrinking once the root is reached to the attainable
    accuracy.  The test reads the iterates alone, so the x a step settles
    on is returned unevaluated, with the value of the iterate before it,
    within the settle bound: a polish costs one f per step it does not
    settle on.  The first step is evaluated before it settles, since its
    predecessor is a start point (a grid endpoint, in a bracket) whose
    value must not stand for the root's.  An exact zero settles too.
    Steps longer than ``cap`` are shortened to it.  With ``bracket`` =
    (lo, hi, f(hi)), a real sign-change bracket, a step outside it or
    equal values bisect instead, and every new value narrows it;
    bisection halves its steps by construction, so only two successive
    secant steps can show the noise floor.  In bracket mode an iterate
    with |f| above 1e3 times the larger of |f0| and |f1| ends the
    iteration unsettled: the sign change is a pole, not a zero, and the
    root finder's 1e-3 acceptance test rejects that value.  Equal values
    without a bracket, or a budget of 200 steps spent, end the iteration
    unsettled.
    """
    lo, hi, fhi = bracket or (None, None, None)
    pole = 1e3 * max(abs(f0), abs(f1)) if bracket else math.inf
    prev = math.inf
    for k in range(200):
        secant = f1 != f0
        if secant:
            dx = f1 * (x1 - x0) / (f1 - f0)
            if abs(dx) > cap:
                dx *= cap / abs(dx)
            x2 = x1 - dx
            secant = bracket is None or lo < x2 < hi
        elif bracket is None:
            return x1, f1, False
        if not secant:
            x2 = 0.5 * (lo + hi)
        step = abs(x2 - x1)
        s = max(scale, abs(x2))
        settled = step <= 1e-12 * s or (
            secant and 0.5 * prev <= step <= 1e-9 * s)
        if settled and k:  # x1 is an iterate of this polish
            return x2, f1, True
        f2 = yield x2
        if abs(f2) > pole:
            return x2, f2, False
        x0, f0, x1, f1 = x1, f1, x2, f2
        if f2 == 0.0 or settled:
            return x2, f2, True
        if bracket is not None:
            lo, hi = (x2, hi) if (f2 > 0) != (fhi > 0) else (lo, x2)
        prev = step if secant else math.inf
    return x1, f1, False


def _lockstep(steppers: list[Generator],
              polish: Callable[[list], list]) -> list:
    """Drive steppers (as :func:`_secant_steps`) side by side: each
    ``polish(xs)`` call evaluates the next x of every live stepper as one
    batch and returns, per lane, the value or that lane's error, which
    ends the lane.  Returns each stepper's result or error, in order."""
    outcomes: list = [None] * len(steppers)
    pending: dict[int, complex] = {}

    def advance(k: int, value) -> None:
        try:
            pending[k] = steppers[k].send(value)
        except StopIteration as done:
            outcomes[k] = done.value

    for k in range(len(steppers)):
        advance(k, None)
    while pending:
        lanes = list(pending)
        for k, value in zip(lanes, polish([pending.pop(k) for k in lanes])):
            if isinstance(value, Exception):
                outcomes[k] = value
            else:
                advance(k, value)
    return outcomes


def _real_zeros(scan: Callable[[list[float]], list[float]],
                polish: Callable[[list[float]], list],
                x_min: float, x_max: float, n_points: int) -> list[float]:
    """Real zeros of a determinant-like f from a grid scan of [x_min, x_max],
    a finite window (checked before ``scan`` is called), with an integer
    n_points >= 2 (checked by the public callers, under their names).

    ``scan`` maps the whole grid to its values (one batch of lanes), NaN
    where f is unusable; only sign changes between two finite neighbours
    are bracketed.  Every bracket is polished inside itself by
    :func:`_secant_steps` (scale |x|), all in lockstep: each
    ``polish(xs)`` call takes the next x of every live bracket and
    returns, per lane, f(x) or the error that lane met.  When every
    bracket is done, the error of the lowest failing bracket is raised,
    the one a bracket-by-bracket loop would meet first.  A polish costs
    one f per step it does not settle on: the iterate it settles on is
    never evaluated.  Poles of a corner term flip the sign too, but leave
    |f| large: the polish stops at an iterate above 1e3 times the larger
    endpoint magnitude, and a bracket whose last evaluated value (at an
    iterate within the settle bound of the root) is above 1e-3 of the
    smaller endpoint magnitude is rejected.  A grid value of exactly zero
    is a root.  Roots within 1e-9·max(1, |x|) of the one below are
    merged.

    Returns
    -------
    list of float
        The zeros, ascending.
    """
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError(f"need a finite window, got [{x_min}, {x_max}]")
    grid = [float(x) for x in np.linspace(x_min, x_max, n_points)]
    values = scan(grid)
    roots = [x for x, v in zip(grid, values) if v == 0.0]
    brackets = [(lo, hi, flo, fhi) for lo, hi, flo, fhi
                in zip(grid, grid[1:], values, values[1:])
                if math.isfinite(flo) and math.isfinite(fhi)
                and flo * fhi < 0.0]
    outcomes = _lockstep([_secant_steps(lo, flo, hi, fhi, 0.0,
                                        (lo, hi, fhi))
                          for lo, hi, flo, fhi in brackets], polish)
    for (_, _, flo, fhi), out in zip(brackets, outcomes):
        if isinstance(out, Exception):
            raise out
        x, fx, _ = out
        if abs(fx) <= 1e-3 * min(abs(flo), abs(fhi)):
            roots.append(x)
    merged: list[float] = []
    for root in sorted(roots):
        if not merged or root - merged[-1] > 1e-9 * max(1.0, abs(root)):
            merged.append(root)
    return merged


def det_pole_scan(family: Callable[[float], JacobiOperator],
                  e_min: float, e_max: float, *, size: int,
                  n_points: int = 400,
                  sheet: SheetSelector = SheetSelector.AUTO,
                  bm_rounds: int | None = None) -> list[float]:
    """Real poles of a family's Green's function inside an interval.

    Scans the determinant of the corner-corrected truncation on an
    n_points grid and brackets its sign changes.  The corrected
    determinant vanishes exactly at the poles, so the located roots do
    not depend on ``size``.  Each determinant comes from its sign and log
    magnitude, divided by one constant e^c for the whole scan (grid and
    polish), so that the entries' scale cannot overflow or underflow it:
    c = 0 while every finite log|det| of the grid lies within ±600, else
    their median; the rest is clamped at e^600.  The grid and every
    polish step are each one batch of lanes: one ``_corrected_blocks``
    call and one stacked ``slogdet``.
    Grid points where the evaluation raises a package error are skipped
    (any other error is raised, the first in grid order, and so is the
    first point's if every point raised), and a
    degenerate-representation energy is nudged by one part in 1e13.
    Intended for bound-region scans where the operator entries are real.

    The zeros come from the real-axis finder that
    :func:`jgreens.scatter.find_bound_states` also uses
    (:func:`_real_zeros`): every bracket is polished by secant steps
    inside itself, all brackets in lockstep, one batch per step that a
    live bracket does not settle on; the energy a polish settles on is
    never evaluated.  An error met while polishing, package error or
    not, is raised once every bracket is done, the lowest failing
    bracket's.  Sign changes caused by poles of the corner term itself,
    where the determinant diverges instead of vanishing, end their
    polish as soon as an iterate exceeds 1e3 times the larger endpoint
    magnitude, and are rejected by comparing the last evaluated value
    against the bracket endpoints.  A grid energy where the determinant
    is exactly zero is a pole, and poles closer than 1e-9·max(1, |E|)
    are merged into one.

    Parameters
    ----------
    family : callable
        Map from energy to the JacobiOperator at that energy. Each batch
        first calls it once with an array of energies, and it must then
        raise or return the stacked operator whose lane k equals its call
        at the k-th energy, as the model builders do; otherwise it is
        called energy by energy (see
        :func:`jgreens.jacobi._corrected_blocks`).
    e_min, e_max : float
        Scan interval, finite, e_min < e_max.
    size : int
        Truncation size of the corrected block, an integer >= 1.
    n_points : int
        Grid resolution, an integer >= 2.
    sheet, bm_rounds
        Tail-evaluation controls passed through to the corner ratio.

    Returns
    -------
    list of float
        Polished pole locations, ascending.
    """
    if not e_min < e_max:
        raise ValueError(f"need e_min < e_max, got {e_min!r} >= {e_max!r}")
    _check_count("block size", size, 1)
    _check_count("grid size n_points", n_points, 2)
    if bm_rounds is not None:
        _check_count("bm_rounds", bm_rounds, 0)

    def operator(energy) -> JacobiOperator:
        try:
            return family(energy)
        except ZeroOffdiagonal:
            if isinstance(energy, np.ndarray):  # each lane is nudged alone
                raise
        try:
            return family(energy + 1e-13 * max(1.0, abs(energy)))
        except ZeroOffdiagonal:
            pass
        raise ZeroOffdiagonal(0, "degenerate energy persists after nudge")

    shift = 0.0  # c, the log of the scan's determinant divisor

    def dets(energies: list[float], grid: bool = False) -> list:
        # one batch of corrected blocks: per lane the determinant or error
        nonlocal shift
        blocks, errors = _corrected_blocks(operator, energies, size, sheet,
                                           bm_rounds)
        signs, logs = np.linalg.slogdet(blocks)  # a failed lane's is -inf
        if grid:
            finite = logs[np.isfinite(logs)]
            if finite.size and np.abs(finite).max() > 600.0:
                shift = float(np.median(finite))
        return [exc or _clamped_det(sign, logabs - shift)
                for exc, sign, logabs in zip(errors, signs, logs)]

    def scanned(grid: list[float]) -> list[float]:
        values = dets(grid, grid=True)
        for v in values:
            if isinstance(v, Exception) and not isinstance(v, JGreensError):
                raise v
        if all(isinstance(v, Exception) for v in values):
            raise values[0]
        return [math.nan if isinstance(v, Exception) else v for v in values]

    return _real_zeros(scanned, dets, e_min, e_max, n_points)


def _clamped_det(sign: complex, logabs: float) -> float:
    """Real determinant from ``slogdet`` (log|det| less the scan's c in
    :func:`det_pole_scan`), its magnitude clamped at e^600."""
    if logabs == -math.inf:
        return 0.0
    return float(sign.real) * math.exp(min(logabs, 600.0))
