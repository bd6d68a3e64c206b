"""Cross-checks for the solvable-family catalog.

Closed-form tridiagonal entries are validated against quadrature
oracles assembled directly from the basis functions and the
differential operators (second derivatives removed by integration by
parts); pole searches are validated against the closed-form level
formulas, and the leading Green's element against its hypergeometric
reference.
"""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.optimize
from scipy.special import roots_genlaguerre

from jgreens import models, scatter
from jgreens.errors import (InvalidU, JGreensError, NoConvergence,
                            NotConverged, NumericBreakdown, ZeroOffdiagonal)
from jgreens.jacobi import (IndexFormula, JacobiOperator, SheetSelector,
                            _corrected_blocks, _read_maps, _stacked_lanes,
                            cf_coefficients,
                            corrected_truncation, dense_truncation,
                            green_submatrix, tail_ratio)
from jgreens.models import (CoulombModel, DiracLower, DiracUpper,
                            GenCoulombModel, KleinGordon, OscillatorModel,
                            RelCoulombModel, charge_density,
                            coulomb_g00_analytic, coulomb_jacobi,
                            coulomb_wavefunction, cs_basis_eval,
                            _real_zeros, _secant, _secant_steps,
                            det_pole_scan,
                            exact_levels, gcs_basis_eval,
                            gencoulomb_h_of_r, gencoulomb_jacobi,
                            gencoulomb_potential, oscillator_jacobi,
                            oscillator_wavefunction, rel_basis_eval,
                            rel_binding_from_energy, rel_energy_from_binding,
                            relativistic_jacobi, wavenumber)
from jgreens.scatter import (ScatterProblem, ShortRangePotential,
                             SmoothingScheme, alpha_alpha_potential,
                             find_bound_states, find_resonances)
from jgreens.special import gauss_laguerre_scaled, gauss_legendre, \
    genlaguerre_table

mpmath.mp.dps = 40


def _norms(n_top, lg_num_shift, lg_den_shift):
    # sqrt(Gamma(n+1+num)/Gamma(n+den)) for n = 0..n_top as a vector
    return np.array([
        math.exp(0.5 * (math.lgamma(n + 1 + lg_num_shift)
                        - math.lgamma(n + lg_den_shift)))
        for n in range(n_top + 1)])


def _shifted_lag(n_top, alpha, x):
    # rows n = 0..n_top of L_{n-1}^{(alpha+1)}(x); row 0 is zero
    table = genlaguerre_table(max(n_top - 1, 0), alpha + 1.0, x)
    out = np.zeros((n_top + 1,) + np.shape(x))
    out[1:] = table[:n_top]
    return out


# ---------------------------------------------------------------------------
# tridiagonality oracles: quadrature of basis functions against the
# differential operator


def coulomb_entries_quadrature(model, E, n_top, order):
    """Matrix <i|E-H|j> for i,j <= n_top by generalized-Laguerre rules."""
    b, l, D = model.b, model.l, model.D
    p = l + (D - 1) / 2.0
    alpha = 2 * l + D - 2
    hh = model.hbar**2 / (2.0 * model.m)
    lam = (l + (D - 3) / 2.0) * (l + (D - 1) / 2.0)
    norm = _norms(n_top, 0.0, 2 * l + D - 1.0)

    # rule A (weight x^alpha): overlap and 1/r terms are polynomial
    xa, wa = roots_genlaguerre(order, alpha)
    la = genlaguerre_table(n_top, float(alpha), xa) * norm[:, None]
    s_mat = (la * xa) @ (wa * la).T / (2.0 * b)
    rinv_mat = la @ (wa * la).T

    # rule B (weight x^(alpha-1)): derivative and 1/r^2 terms
    xb, wb = roots_genlaguerre(order, alpha - 1)
    lb = genlaguerre_table(n_top, float(alpha), xb) * norm[:, None]
    lb1 = _shifted_lag(n_top, float(alpha), xb) * norm[:, None]
    qb = (p - xb / 2.0) * lb - xb * lb1
    r2_mat = 2.0 * b * (lb @ (wb * lb).T)
    k_mat = 2.0 * b * (qb @ (wb * qb).T)

    h_mat = hh * (k_mat + lam * r2_mat) + model.Z * model.e2 * rinv_mat
    return complex(E) * s_mat - h_mat


def oscillator_entries_quadrature(model, E, n_top, order):
    """Matrix <i|E-H|j> on the basis-frequency eigenfunctions."""
    vb = model.m * model.omega_basis / model.hbar
    alpha = model.l + model.D / 2.0 - 1.0
    s_exp = 0.5 * model.l + (model.D - 1) / 4.0
    hh = model.hbar**2 / (2.0 * model.m)
    lam = (model.l + (model.D - 3) / 2.0) * (model.l + (model.D - 1) / 2.0)
    norm = vb**0.25 * math.sqrt(2.0) * _norms(n_top, 0.0, alpha + 1.0)

    xa, wa = roots_genlaguerre(order, alpha)
    la = genlaguerre_table(n_top, alpha, xa) * norm[:, None]
    s_mat = la @ (wa * la).T / (2.0 * math.sqrt(vb))
    r2_mat = (la * xa) @ (wa * la).T / (2.0 * vb**1.5)

    xb, wb = roots_genlaguerre(order, alpha - 1.0)
    lb = genlaguerre_table(n_top, alpha, xb) * norm[:, None]
    lb1 = _shifted_lag(n_top, alpha, xb) * norm[:, None]
    kb = (s_exp - xb / 2.0) * lb - xb * lb1
    p2_mat = 0.5 * math.sqrt(vb) * (lb @ (wb * lb).T)
    k_mat = 2.0 * math.sqrt(vb) * (kb @ (wb * kb).T)

    h_mat = (hh * (k_mat + lam * p2_mat)
             + 0.5 * model.m * model.omega**2 * r2_mat)
    return complex(E) * s_mat - h_mat


def gencoulomb_entries_quadrature(model, eps, n_top, order):
    """Matrix <i|eps-H|j> on the h-coordinate Laguerre basis."""
    rho, beta, theta, c_str = (model.rho_basis, model.beta, model.theta,
                               model.C)
    sqc = math.sqrt(c_str)
    lam = (model.l + (model.D - 3) / 2.0) * (model.l + (model.D - 1) / 2.0)
    norm = _norms(n_top, 0.0, beta)

    x, w = roots_genlaguerre(order, beta - 2.0)
    h = x / rho
    t = h + theta
    s = np.sqrt(h / t)
    r = (0.5 * theta * np.log((1.0 + s) ** 2 * t / theta)
         + np.sqrt(h * t)) / sqc
    pot = lam / r**2 + np.array(
        [gencoulomb_potential(model, ri) for ri in r])

    lag = genlaguerre_table(n_top, beta - 1.0, x) * norm[:, None]
    lag1 = _shifted_lag(n_top, beta - 1.0, x) * norm[:, None]
    g_red = (rho * ((2.0 * beta - 1.0) / (4.0 * x) - 0.5) + 1.0 / (4.0 * t)) \
        * lag - rho * lag1

    ov_mat = (lag * (x * t)) @ (w * lag).T / sqc
    pot_mat = (lag * (x * t * pot)) @ (w * lag).T / sqc
    der_mat = sqc / rho * ((g_red * x) @ (w * x * g_red).T)
    return complex(eps) * ov_mat - (der_mat + pot_mat)


def relativistic_entries_quadrature(model, energy, n_top, order):
    """Matrix of the quadratic radial operator on its Laguerre basis."""
    u = model.u
    eta = model.eta_basis
    et = complex(energy)
    norm = _norms(n_top, 0.0, 2.0 * u + 2.0)

    x, w = roots_genlaguerre(order, 2.0 * u)
    lag = genlaguerre_table(n_top, 2.0 * u + 1.0, x) * norm[:, None]
    lag1 = _shifted_lag(n_top, 2.0 * u + 1.0, x) * norm[:, None]
    p_red = (u + 1.0 - x / 2.0) * lag - x * lag1

    s_mat = (lag * x) @ (w * x * lag).T / (2.0 * eta)
    rinv_mat = (lag * x) @ (w * lag).T
    r2_mat = 2.0 * eta * (lag @ (w * lag).T)
    k_mat = 2.0 * eta * (p_red @ (w * p_red).T)

    return ((et * et - model.mu**2) * s_mat
            + 2.0 * model.alpha_fs * model.Z * et * rinv_mat
            - k_mat - u * (u + 1.0) * r2_mat)


def _check_tridiagonal(op, quad, n_top):
    closed = dense_truncation(op, n_top + 1)
    scale = np.abs(closed).max()
    for i in range(n_top + 1):
        for j in range(n_top + 1):
            if abs(i - j) > 1:
                assert abs(quad[i, j]) <= 1e-8 * scale
            else:
                assert abs(quad[i, j] - closed[i, j]) \
                    <= 1e-9 * max(abs(closed[i, j]), 1e-3 * scale)


@pytest.mark.parametrize("model,E", [
    (CoulombModel(Z=-1.0, l=0, D=3, b=1.0), -0.37),
    (CoulombModel(Z=-1.0, l=1, D=5, b=0.7, m=0.8, e2=1.3), 0.22 + 0.35j),
])
def test_coulomb_tridiagonality_oracle(model, E):
    quad = coulomb_entries_quadrature(model, E, 8, 120)
    _check_tridiagonal(coulomb_jacobi(model, E), quad, 8)


@pytest.mark.parametrize("model,E", [
    (OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3), 2.1),
    (OscillatorModel(omega=0.7, omega_basis=0.4, l=1, D=4, m=1.7), -0.8 + 0.6j),
])
def test_oscillator_tridiagonality_oracle(model, E):
    quad = oscillator_entries_quadrature(model, E, 8, 120)
    _check_tridiagonal(oscillator_jacobi(model, E), quad, 8)


@pytest.mark.parametrize("eps", [-0.31, 0.2 + 0.45j])
@pytest.mark.parametrize("order", [200, 280])
def test_gencoulomb_tridiagonality_oracle(eps, order):
    model = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4, rho_basis=1.3,
                            l=1, D=3)
    quad = gencoulomb_entries_quadrature(model, eps, 8, order)
    _check_tridiagonal(gencoulomb_jacobi(model, eps), quad, 8)


@pytest.mark.parametrize("model,binding", [
    (RelCoulombModel(mu=137.036, alpha_fs=1 / 137.036, Z=1.0,
                     kind=DiracUpper(j=0.5), eta_basis=1.0), -0.4),
    (RelCoulombModel(mu=137.036, alpha_fs=1 / 137.036, Z=20.0,
                     kind=KleinGordon(l=1), eta_basis=12.0), -220.0),
    (RelCoulombModel(mu=137.036, alpha_fs=1 / 137.036, Z=40.0,
                     kind=DiracLower(j=1.5), eta_basis=25.0), -850.0),
])
def test_relativistic_tridiagonality_oracle(model, binding):
    energy = rel_energy_from_binding(model, binding)
    quad = relativistic_entries_quadrature(model, energy, 8, 150)
    _check_tridiagonal(relativistic_jacobi(model, energy), quad, 8)


# ---------------------------------------------------------------------------
# entries as index formulas: every chunk the kernel reads is the scalar
# expression's double, bit for bit


def _scalar_coulomb(model, E):
    k2 = 2.0 * model.m * complex(E) / model.hbar**2
    b2 = model.b * model.b
    pref = model.hbar**2 / (4.0 * model.m * model.b)
    dfac, ofac = (k2 - b2) * pref, (k2 + b2) * pref
    two_l, ze2 = 2 * model.l + model.D, model.Z * model.e2
    return (lambda i: (2 * i + two_l - 1) * dfac - ze2,
            lambda i: -math.sqrt((i + 1) * (i + two_l - 1)) * ofac)


def _scalar_oscillator(model, E):
    w, wb = model.omega, model.omega_basis
    dfac = model.hbar * (w * w + wb * wb) / (2.0 * wb)
    ofac = model.hbar * (w * w - wb * wb) / (2.0 * wb)
    shift, energy = model.l + model.D / 2.0, complex(E)
    return (lambda n: energy - dfac * (2 * n + shift),
            lambda n: ofac * math.sqrt((n + 1) * (n + shift)))


def _scalar_gencoulomb(model, eps):
    rho = model.rho_basis
    sc = math.sqrt(model.C) * rho
    e_term = complex(eps) / sc
    o_term = e_term + sc / 4.0
    beta, qterm = model.beta, model.q / math.sqrt(model.C)
    return (lambda n: (e_term * (2 * n + beta + rho * model.theta)
                       + qterm - sc / 4.0 * (2 * n + beta)),
            lambda n: -math.sqrt((n + 1) * (n + beta)) * o_term)


def _scalar_relativistic(model, E):
    u, eta, et = model.u, model.eta_basis, complex(E)
    x = (et * et - model.mu**2 + eta * eta) / (2.0 * eta)
    az2 = 2.0 * model.alpha_fs * model.Z
    return (lambda n: az2 * et + 2.0 * (u + n + 1) * (x - eta),
            lambda n: -x * math.sqrt((n + 1) * (n + 2 * u + 2)))


_MU = 137.036
# per family: builder, scalar oracle, models, and energies above and below
# the threshold and in both half-planes
_FAMILIES = [
    (coulomb_jacobi, _scalar_coulomb,
     [CoulombModel(Z=4, l=0, b=4.0, m=1863.69, e2=1.44),
      CoulombModel(Z=-1.0, l=2, D=2, b=1.3)],
     [0.9, -0.35, 0.6 + 0.25j, 0.6 - 0.25j, 1000.0]),
    (oscillator_jacobi, _scalar_oscillator,
     [OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3),
      OscillatorModel(omega=0.7, omega_basis=0.4, l=1, D=4, m=1.7)],
     [2.1, -0.8, -0.8 + 0.6j, 1.5 - 0.2j]),
    (gencoulomb_jacobi, _scalar_gencoulomb,
     [GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4, rho_basis=1.3,
                      l=1, D=3)],
     [0.45, -0.31, 0.2 + 0.45j, 0.2 - 0.45j]),
    (relativistic_jacobi, _scalar_relativistic,
     [RelCoulombModel(mu=_MU, alpha_fs=1 / _MU, Z=20.0,
                      kind=KleinGordon(l=1), eta_basis=12.0),
      RelCoulombModel(mu=_MU, alpha_fs=1 / _MU, Z=40.0,
                      kind=DiracLower(j=1.5), eta_basis=25.0)],
     [_MU + 0.7, _MU - 0.4, _MU + 0.5 + 0.3j, _MU + 0.5 - 0.3j]),
]


def _hex(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("build, scalar, models, energies", _FAMILIES,
                         ids=["coulomb", "oscillator", "gencoulomb",
                              "relativistic"])
def test_index_formulas_match_scalar_expressions_bitwise(build, scalar,
                                                         models, energies):
    n = 4096
    for model in models:
        ops = [build(model, E) for E in energies]
        oracles = [scalar(model, E) for E in energies]
        for which in (0, 1):  # diag, offdiag
            maps = [(op.diag, op.offdiag)[which] for op in ops]
            assert all(isinstance(f, IndexFormula) for f in maps)
            chunk, faults = _read_maps(maps)(np.arange(len(ops)), 0, n)
            assert not faults and chunk.shape == (n, len(ops))
            for lane, oracle in enumerate(oracles):
                expected = [_hex(oracle[which](i)) for i in range(n)]
                assert [_hex(v) for v in chunk[:, lane].tolist()] == expected
                # a lane read alone, and the map at an int index
                alone, _ = _read_maps([maps[lane]])([0], 0, n)
                assert [_hex(v) for v in alone[:, 0].tolist()] == expected
                for i in (0, 1, 41, n - 1):
                    value = maps[lane](i)
                    assert type(value) is type(oracle[which](i))
                    assert _hex(value) == expected[i]
    # the array form: one operator with a lane axis whose lane k is the
    # scalar build at E_k, bit for bit, at these energies, one with a
    # negative zero imaginary part and 200 random ones around them
    rng = np.random.default_rng(18)
    real = np.real(energies)
    lanes = np.concatenate((
        np.array(energies, dtype=complex), [complex(real[0], -0.0)],
        real.mean() + (1.0 + np.ptp(real)) * (rng.standard_normal(200)
                                              + 1j * rng.standard_normal(200))))
    rows = 64
    for model in models:
        stacked = build(model, lanes)
        batch = _stacked_lanes(stacked, lanes.size)
        assert batch is not None and stacked.limit_coeffs.shape == (
            lanes.size, 2)
        chunks = [read(np.arange(lanes.size), 0, rows)[0]
                  for read in batch[:2]]
        at_41 = [np.broadcast_to(fn(41), lanes.shape)  # a lane axis or one
                 for fn in (stacked.diag, stacked.offdiag)]  # shared value
        for k, E in enumerate(lanes.tolist()):
            op = build(model, E)
            assert _hex(stacked.energy[k]) == _hex(op.energy)
            assert [_hex(v) for v in stacked.limit_coeffs[k]] \
                == [_hex(v) for v in op.limit_coeffs]
            for which, fn in enumerate((op.diag, op.offdiag)):
                alone = _read_maps([fn])([0], 0, rows)[0][:, 0]
                assert [_hex(v) for v in chunks[which][:, k].tolist()] \
                    == [_hex(v) for v in alone.tolist()]
                assert _hex(at_41[which][k]) == _hex(fn(41))


# ---------------------------------------------------------------------------
# degenerate representation points and model validation


def test_coulomb_degenerate_energy_rejected():
    model = CoulombModel(Z=-1.0)
    with pytest.raises(ZeroOffdiagonal):
        coulomb_jacobi(model, -0.5)


def test_coulomb_leading_diagonal_vanishes_toward_degenerate_point():
    # at E -> -b^2/2 (atomic units, l=0, D=3, Z=-1) diag(0) -> 0
    model = CoulombModel(Z=-1.0)
    op = coulomb_jacobi(model, -0.5 * (1.0 + 1e-9))
    assert abs(op.diag(0)) < 1e-8


def test_gencoulomb_degenerate_energy_rejected():
    model = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4, rho_basis=1.3)
    with pytest.raises(ZeroOffdiagonal):
        gencoulomb_jacobi(model, -0.25 * 0.9 * 1.3**2)


def test_array_builds_raise_where_a_lane_would():
    # so that a batch builds its lanes one at a time, each to its outcome
    coulomb = CoulombModel(Z=-1.0)
    gen = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4, rho_basis=1.3)
    equal = OscillatorModel(omega=1.0, omega_basis=1.0, l=0, D=3)
    # x = (E^2 - mu^2 + eta^2) / (2 eta) vanishes at E = 4: no limits
    rel = RelCoulombModel(mu=5.0, alpha_fs=1 / 137.036, Z=1.0,
                          kind=KleinGordon(l=0), eta_basis=3.0)
    assert relativistic_jacobi(rel, 4.0).limit_coeffs is None
    cases = [(coulomb_jacobi, coulomb, [-0.3, -0.5, 0.2j], ZeroOffdiagonal),
             (gencoulomb_jacobi, gen, [0.3, -0.25 * 0.9 * 1.3**2],
              ZeroOffdiagonal),
             (oscillator_jacobi, equal, [1.0, 2.0 + 0.1j], ValueError),
             (relativistic_jacobi, rel, [3.9, 4.0, 4.1], ValueError)]
    for build, model, energies, error in cases:
        with pytest.raises(error):
            build(model, np.array(energies))
        blocks, errors = _corrected_blocks(lambda E: build(model, E),
                                           energies, 3, SheetSelector.AUTO)
        for E, block, exc in zip(energies, blocks, errors):
            try:
                alone = corrected_truncation(build(model, E), 3)
            except Exception as alone_exc:
                assert type(exc) is type(alone_exc)
                assert str(exc) == str(alone_exc)
                continue
            assert exc is None
            assert [_hex(v) for v in block.ravel().tolist()] \
                == [_hex(v) for v in alone.ravel().tolist()]
    with pytest.raises(ValueError, match="1-D"):
        coulomb_jacobi(coulomb, np.ones((2, 2)))


def test_oscillator_equal_frequencies_is_diagonal_fast_path():
    model = OscillatorModel(omega=1.0, omega_basis=1.0, l=0, D=3)
    op = oscillator_jacobi(model, 2.0)
    assert op.offdiag(0) == 0
    block = green_submatrix(op, 4)
    for i in range(4):
        expected = 1.0 / (2.0 - 1.0 * (2 * i + 1.5))
        assert block.entries[i, i] == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ZeroOffdiagonal):
        cf_coefficients(op)(1)


def test_oscillator_offdiagonal_scales_with_frequency_mismatch():
    base = OscillatorModel(omega=1.0, omega_basis=1.01, l=0, D=3)
    near = OscillatorModel(omega=1.0, omega_basis=1.001, l=0, D=3)
    ratio = oscillator_jacobi(near, 0.0).offdiag(3) \
        / oscillator_jacobi(base, 0.0).offdiag(3)
    expected = (1.0 - 1.001**2) / 1.001 / ((1.0 - 1.01**2) / 1.01)
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_supercritical_charge_raises_invalid_u():
    with pytest.raises(InvalidU):
        RelCoulombModel(mu=137.036, alpha_fs=1 / 137.036, Z=69.0,
                        kind=KleinGordon(l=0), eta_basis=1.0)
    with pytest.raises(InvalidU):
        RelCoulombModel(mu=137.036, alpha_fs=1 / 137.036, Z=138.0,
                        kind=DiracUpper(j=0.5), eta_basis=1.0)


@pytest.mark.parametrize("bad", [
    lambda: CoulombModel(Z=-1.0, b=0.0),
    lambda: CoulombModel(Z=-1.0, D=1),
    lambda: CoulombModel(Z=-1.0, l=-1),
    lambda: OscillatorModel(omega=0.0, omega_basis=1.0),
    lambda: OscillatorModel(omega=1.0, omega_basis=-2.0),
    lambda: GenCoulombModel(C=0.0, theta=1.0, q=1.0, beta=2.0, rho_basis=1.0),
    lambda: GenCoulombModel(C=1.0, theta=-0.1, q=1.0, beta=2.0, rho_basis=1.0),
    lambda: GenCoulombModel(C=1.0, theta=1.0, q=1.0, beta=1.4, rho_basis=1.0),
    lambda: RelCoulombModel(mu=-1.0, alpha_fs=0.007, Z=1.0,
                            kind=KleinGordon(l=0), eta_basis=1.0),
    # NaN passed checks written x <= 0, and inf makes no operator
    lambda: CoulombModel(Z=1.0, b=math.nan),
    lambda: CoulombModel(Z=math.nan),
    lambda: CoulombModel(Z=-1.0, m=math.inf),
    lambda: CoulombModel(Z=-1.0, D=math.nan),
    lambda: OscillatorModel(omega=math.nan, omega_basis=1.0),
    lambda: OscillatorModel(omega=1.0, omega_basis=math.inf),
    lambda: GenCoulombModel(C=math.nan, theta=1.0, q=1.0, beta=2.0,
                            rho_basis=1.0),
    lambda: GenCoulombModel(C=1.0, theta=math.inf, q=1.0, beta=2.0,
                            rho_basis=1.0),
    lambda: GenCoulombModel(C=1.0, theta=1.0, q=math.nan, beta=2.0,
                            rho_basis=1.0),
    lambda: RelCoulombModel(mu=math.nan, alpha_fs=0.007, Z=1.0,
                            kind=KleinGordon(l=0), eta_basis=1.0),
    lambda: RelCoulombModel(mu=1.0, alpha_fs=0.007, Z=math.nan,
                            kind=KleinGordon(l=0), eta_basis=1.0),
    lambda: OscillatorModel(omega=1.0, omega_basis=1.0, m=0.0),
    lambda: OscillatorModel(omega=1.0, omega_basis=1.0, hbar=-1.0),
    lambda: GenCoulombModel(C=1.0, theta=1.0, q=1.0, beta=2.0, rho_basis=0.0),
    lambda: RelCoulombModel(mu=1.0, alpha_fs=0.0, Z=1.0,
                            kind=KleinGordon(l=0), eta_basis=1.0),
    lambda: RelCoulombModel(mu=1.0, alpha_fs=0.007, Z=1.0,
                            kind=KleinGordon(l=0), eta_basis=-1.0),
])
def test_model_validation_rejects(bad):
    with pytest.raises(ValueError):
        bad()


_BUILDERS = [
    (coulomb_jacobi, CoulombModel(Z=-1.0, l=0, D=3, b=1.0)),
    (oscillator_jacobi, OscillatorModel(omega=1.0, omega_basis=1.3)),
    (gencoulomb_jacobi, GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4,
                                        rho_basis=1.3)),
    (relativistic_jacobi, RelCoulombModel(mu=1.0, alpha_fs=0.1, Z=1.0,
                                          kind=KleinGordon(l=0),
                                          eta_basis=1.0)),
]


@pytest.mark.parametrize("build, model", _BUILDERS,
                         ids=["coulomb", "oscillator", "gencoulomb",
                              "relativistic"])
def test_builders_refuse_non_finite_energies(build, model):
    # a NaN energy made a NaN block, and numpy's warnings escaped the
    # fixed points of NaN limits; an imaginary NaN read as Im E < 0
    bad = [complex(math.nan, 0.0), complex(math.inf, 0.0),
           complex(-math.inf, 0.0), math.nan * 1j, complex(0.0, math.inf)]
    # 2E (Coulomb), 2(E/sqrt(C) rho) (interpolating), E^2 (relativistic)
    # overflow here; the oscillator only subtracts from E
    good = -0.3 + 0.2j
    if build is not oscillator_jacobi:
        bad.append(complex(1e308, 1e308))
    else:  # parts past 1e308 whose modulus is finite build
        for E in (complex(1e308, 1e308), np.array([good, 1e308 + 1e308j])):
            assert build(model, E).energy is not None
    for E in bad:
        what = "is not finite" if not cmath.isfinite(E) else "overflows"
        message = f"energy {E} {what}"
        for call in (lambda: build(model, E),
                     lambda: dense_truncation(build(model, E), 2),
                     lambda: tail_ratio(build(model, E), 3),
                     lambda: green_submatrix(build(model, E), 3),
                     lambda: build(model, np.array([good, E]))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).startswith(message)
    # the array call raises, and the batch meets each lane's own error
    energies = [good, *bad, good + 0.1]
    blocks, errors = _corrected_blocks(lambda e: build(model, e), energies,
                                       3)
    for E, block, error in zip(energies, blocks, errors):
        if E in (good, good + 0.1):
            assert error is None
            alone = corrected_truncation(build(model, E), 3,
                                         SheetSelector.PHYSICAL)
            assert np.array_equal(block.view(np.int64), alone.view(np.int64))
        else:
            with pytest.raises(ValueError) as info:
                build(model, E)
            assert isinstance(error, ValueError)
            assert str(error) == str(info.value)
            assert not block.any()


def test_fixed_points_of_nan_are_nan():
    from jgreens.contfrac import _fixed_point_arrays, fixed_points

    for a, b in ((math.nan, 1.0), (1.0, math.nan),
                 (complex(0.0, math.nan), 2.0)):
        assert all(cmath.isnan(t.w) for t in fixed_points(a, b))
    attractive, repulsive = _fixed_point_arrays(
        np.array([math.nan, 2.0, -1.0]),
        np.array([1.0, complex(math.nan, math.nan), 2.5]))
    assert np.isnan(attractive[:2]).all() and np.isnan(repulsive[:2]).all()
    assert (attractive[2], repulsive[2]) == (-0.5, -2.0)


def test_wavenumber_branch():
    model = CoulombModel(Z=-1.0)
    k_bound = wavenumber(model, -2.0)
    assert k_bound.imag > 0 and abs(k_bound - 2j) < 1e-15
    k_free = wavenumber(model, 2.0)
    assert k_free.imag == 0 and k_free.real > 0


# ---------------------------------------------------------------------------
# leading Green's element against the hypergeometric reference


def _g00_cf(model, E, sheet, bm_rounds=None):
    op = coulomb_jacobi(model, E)
    return green_submatrix(op, 1, sheet=sheet, bm_rounds=bm_rounds).entries[0, 0]


def test_g00_bound_region_all_sheets_agree_with_reference():
    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    rng = np.random.default_rng(20260815)
    poles = exact_levels(model, 30)
    count = 0
    while count < 20:
        E = -float(rng.uniform(0.01, 2.5))
        if min(abs(E - p) for p in poles) < 1e-3 or abs(E + 0.72) < 1e-6:
            continue
        ref = coulomb_g00_analytic(model, E)
        for sheet in (SheetSelector.ZERO_TAIL, SheetSelector.PHYSICAL,
                      SheetSelector.UNPHYSICAL):
            got = _g00_cf(model, E, sheet)
            assert abs(got - ref) <= 1e-10 * abs(ref)
        count += 1


def test_g00_scattering_region_needs_modified_tail():
    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
    energies = np.linspace(0.05, 3.0, 10)
    for E in energies:
        ref = coulomb_g00_analytic(model, complex(E))
        got = _g00_cf(model, complex(E), SheetSelector.PHYSICAL, bm_rounds=8)
        assert abs(got - ref) <= 1e-8 * abs(ref)
        assert got.imag < 0
    with pytest.raises(NotConverged):
        _g00_cf(model, complex(energies[0]), SheetSelector.ZERO_TAIL)


def test_g00_blows_up_near_pole():
    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.3)
    assert abs(coulomb_g00_analytic(model, -0.5 + 1e-9)) > 1e8


def test_g00_free_particle_closed_form():
    model = CoulombModel(Z=1e-30, l=0, D=3, b=0.9)
    for E in (-1.7, 0.8):
        k = wavenumber(model, E)
        free = -4.0 * model.m * model.b / (model.hbar**2
                                           * (model.b - 1j * k) ** 2)
        ref = coulomb_g00_analytic(model, E)
        assert abs(ref - free) <= 1e-12 * abs(free)
        sheet = SheetSelector.PHYSICAL
        got = _g00_cf(model, complex(E), sheet,
                      bm_rounds=0 if E < 0 else 8)
        assert abs(got - free) <= 1e-8 * abs(free)


def _oracle_ratios(model, E, ns):
    # G_{0,n}/G_{0,n-1} on the physical sheet (Im k > 0; on the axis E + i0,
    # k > 0) at 60 digits, from the model's float parameters and a real or
    # complex E: g00 in the hypergeometric form of coulomb_g00_analytic,
    # G_{0,1} = (1 - J00 g00)/J01 from row 0 of J G = 1, and the higher
    # G_{0,n} from the rows after it
    with mpmath.workdps(60):
        mpf = mpmath.mpf
        m, hbar, b = mpf(model.m), mpf(model.hbar), mpf(model.b)
        ze2, E = mpf(model.Z) * mpf(model.e2), mpmath.mpmathify(E)
        l, D = model.l, model.D
        k = mpmath.sqrt(2 * m * E) / hbar
        if mpmath.im(k) < 0:  # below the axis: the root with Im k > 0
            k = -k
        gam = ze2 * m / (hbar**2 * k)
        z = ((b + 1j * k) / (b - 1j * k)) ** 2
        a = -l - mpf(D - 3) / 2 + 1j * gam
        c = l + mpf(D + 1) / 2 + 1j * gam
        pref = -4 * m * b / (hbar**2 * (b - 1j * k) ** 2)
        g00 = pref / (l + mpf(D - 1) / 2 + 1j * gam) \
            * mpmath.hyp2f1(a, 1, c, z)
        k2, scale = 2 * m * E / hbar**2, hbar**2 / (4 * m * b)
        dfac, ofac = (k2 - b * b) * scale, (k2 + b * b) * scale
        two_l = 2 * l + D

        def diag(i):
            return (2 * i + two_l - 1) * dfac - ze2

        def off(i):
            return -mpmath.sqrt((i + 1) * (i + two_l - 1)) * ofac

        g = [g00, (1 - diag(0) * g00) / off(0)]
        for j in range(1, max(ns)):
            g.append(-(g[j - 1] * off(j - 1) + g[j] * diag(j)) / off(j))
        return [complex(g[n] / g[n - 1]) for n in ns]


def test_real_axis_tail_ratio_matches_60_digit_oracle():
    # alpha-alpha Coulomb on the cut: near threshold, both sides of the
    # l=0 resonance, and far above it
    mass = 1.0 / (2.0 * 10.375)
    energies = (0.006, 0.05, 0.0919720204, 0.153894, 0.2728230201, 0.4,
                1.0, 30.0)
    for l in (0, 2):
        model = CoulombModel(Z=4, l=l, b=4.0, m=mass, e2=1.44)
        for E in energies:
            op = coulomb_jacobi(model, E)
            for n, want in zip((1, 41), _oracle_ratios(model, E, (1, 41))):
                got = tail_ratio(op, n, SheetSelector.PHYSICAL)
                assert abs(got - want) <= 1e-10 * abs(want), (l, n, E)


def test_near_axis_tail_ratio_matches_60_digit_oracle(monkeypatch):
    # just below the cut on the physical sheet, where the limit is nearly
    # elliptic: each lane meets the oracle as on the axis, in at most 1023
    # terms over all the depths it tries. The last energy is an l=0
    # resonance polish iterate.
    from jgreens import jacobi

    summed = jacobi._sum_fractions
    terms = []

    def counted(*args):
        out = summed(*args)
        terms.append(int(out[1].sum()))
        return out

    monkeypatch.setattr(jacobi, "_sum_fractions", counted)
    mass = 1.0 / (2.0 * 10.375)
    energies = [complex(x, y) for x in (0.0919720204, 0.3)
                for y in (-1e-8, -1e-6, -1e-4)] \
        + [complex(0.091972029, -2.28786e-06)]
    for l in (0, 2):
        model = CoulombModel(Z=4, l=l, b=4.0, m=mass, e2=1.44)
        for E in energies:
            op = coulomb_jacobi(model, E)
            for n, want in zip((1, 41), _oracle_ratios(model, E, (1, 41))):
                terms.clear()
                got = tail_ratio(op, n, SheetSelector.PHYSICAL)
                assert abs(got - want) <= 1e-10 * abs(want), (l, n, E)
                assert sum(terms) <= 1023, (l, n, E, terms)


# ---------------------------------------------------------------------------
# closed-form levels and pole scans


def test_coulomb_levels_values():
    model = CoulombModel(Z=-1.0, l=1, D=3)
    got = exact_levels(model, 3)
    assert got == pytest.approx([-1 / 8, -1 / 18, -1 / 32], rel=1e-15)
    assert exact_levels(CoulombModel(Z=0.0 + 1e-300), 3) == []
    assert exact_levels(CoulombModel(Z=2.0), 3) == []


def test_exact_levels_refuses_other_models():
    with pytest.raises(TypeError, match="unsupported model type str"):
        exact_levels("coulomb", 2)


def test_oscillator_levels_values():
    model = OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
    assert exact_levels(model, 3) == pytest.approx([1.5, 3.5, 5.5], rel=1e-15)


def test_gencoulomb_levels_match_coulomb_at_zero_theta():
    # q/sqrt(C) = 2, beta = 2l+D-1 maps onto the scaled Coulomb spectrum
    coul = CoulombModel(Z=-1.0, l=1, D=3)
    gc = GenCoulombModel(C=1.0, theta=0.0, q=2.0, beta=4.0, rho_basis=1.0,
                         l=1, D=3)
    scaled = [2.0 * e for e in exact_levels(coul, 5)]
    assert exact_levels(gc, 5) == pytest.approx(scaled, rel=1e-14)
    assert exact_levels(
        GenCoulombModel(C=1.0, theta=1.0, q=-2.0, beta=4.0, rho_basis=1.0),
        3) == []


def test_relativistic_levels_against_high_precision_oracle():
    alpha = 1.0 / 137.036
    for kind, z_val, n in [(DiracUpper(j=0.5), 1.0, 0),
                           (DiracUpper(j=1.5), 1.0, 0),
                           (DiracLower(j=0.5), 92.0, 2),
                           (KleinGordon(l=2), 92.0, 1)]:
        model = RelCoulombModel(mu=1.0 / alpha, alpha_fs=alpha, Z=z_val,
                                kind=kind, eta_basis=1.0)
        got = exact_levels(model, n + 1)[n]
        nu = mpmath.mpf(n) + mpmath.mpf(repr(model.u)) + 1
        x = mpmath.mpf(repr(z_val)) * mpmath.mpf(1) / mpmath.mpf("137.036") / nu
        ref = (mpmath.mpf("137.036") ** 2
               * (1 / mpmath.sqrt(1 + x * x) - 1))
        assert abs(got - float(ref)) <= 1e-12 * abs(float(ref))


def test_relativistic_levels_nonrelativistic_limit():
    alpha = 1e-4
    model = RelCoulombModel(mu=1.0 / alpha, alpha_fs=alpha, Z=1.0,
                            kind=KleinGordon(l=1), eta_basis=1.0)
    for n, binding in enumerate(exact_levels(model, 3)):
        nonrel = -0.5 / (n + 2) ** 2
        assert abs(binding - nonrel) <= 3.0 * alpha**2 * abs(nonrel)
    assert exact_levels(
        RelCoulombModel(mu=137.0, alpha_fs=1 / 137.0, Z=-1.0,
                        kind=KleinGordon(l=0), eta_basis=1.0), 2) == []


def test_rel_energy_conversions_roundtrip():
    model = RelCoulombModel(mu=137.036, alpha_fs=1 / 137.036, Z=1.0,
                            kind=DiracUpper(j=0.5), eta_basis=1.0)
    # recovery is limited by eps(mu)/alpha when |alpha B| << mu
    slack = 8e-16 * model.mu / model.alpha_fs
    for binding in (-0.5, -0.002, -4861.0):
        energy = rel_energy_from_binding(model, binding)
        back = rel_binding_from_energy(model, energy)
        assert abs(back - binding) <= slack + 1e-12 * abs(binding)


def test_coulomb_pole_scan_matches_levels():
    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    levels = exact_levels(model, 3)

    def family(E):
        return coulomb_jacobi(model, E)

    for size in (2, 5):
        found = det_pole_scan(family, -0.6, -0.04, size=size)
        assert len(found) == 3
        for got, ref in zip(found, levels):
            assert abs(got - ref) <= 1e-9 * abs(ref)


def test_coulomb_pole_scan_through_degenerate_collision():
    # b = 0.5 places the representation's degenerate energy exactly on
    # the lowest l=1 pole at -1/8; the scan must still find it
    model = CoulombModel(Z=-1.0, l=1, D=3, b=0.5)
    found = det_pole_scan(lambda E: coulomb_jacobi(model, E),
                          -0.14, -0.04, size=3)
    assert len(found) == 2
    assert abs(found[0] + 1 / 8) <= 1e-10
    assert abs(found[1] + 1 / 18) <= 1e-10


def test_pole_scan_grid_error_rules():
    # the grid is one batch of lanes; a package error at a grid energy
    # skips it, a degenerate representation is nudged, any other error is
    # raised, the first in grid order
    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    grid = [float(x) for x in np.linspace(-0.6, -0.04, 400)]
    skipped = {grid[k] for k in (3, 50, 200, 250)}  # away from the levels
    nudged = {grid[k] for k in (7, 120)}

    def family(E):
        if E in skipped:
            raise NumericBreakdown("synthetic")
        if E in nudged:
            raise ZeroOffdiagonal(0, "degenerate at the grid energy only")
        return coulomb_jacobi(model, E)

    clean = det_pole_scan(lambda E: coulomb_jacobi(model, E), -0.6, -0.04,
                          size=3)
    assert len(clean) == 3
    assert det_pole_scan(family, -0.6, -0.04, size=3) == clean

    def failing(E):
        if E == grid[300]:
            raise RuntimeError("later in grid order")
        if E == grid[100]:
            raise KeyError("first in grid order")
        return family(E)

    with pytest.raises(KeyError, match="first in grid order"):
        det_pole_scan(failing, -0.6, -0.04, size=3)

    # a scan that evaluated nothing has no "no poles" to report: where
    # every grid energy raised, here degenerate even after its nudge, the
    # first one's error is raised, not []
    def degenerate(E):
        raise ZeroOffdiagonal(0, f"degenerate at {E!r}")

    with pytest.raises(ZeroOffdiagonal, match="persists after nudge"):
        det_pole_scan(degenerate, -0.6, -0.04, size=3)

    def breaks(E):  # at the array of the whole grid too
        first = np.ndim(E) == 0 and E == grid[0]
        raise NumericBreakdown("first grid energy" if first else "later")

    with pytest.raises(NumericBreakdown, match="first grid energy"):
        det_pole_scan(breaks, -0.6, -0.04, size=3)

    # a package error met while polishing propagates, although the grid
    # still skips the same error at its own energies
    on_grid = set(grid)

    def polish_fails(E):
        if E not in on_grid and abs(E - clean[1]) < 2e-3:
            raise NumericBreakdown("while polishing")
        return family(E)

    with pytest.raises(NumericBreakdown, match="while polishing"):
        det_pole_scan(polish_fails, -0.6, -0.04, size=3)


def test_oscillator_pole_scan_matches_levels():
    model = OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
    levels = exact_levels(model, 6)
    found = det_pole_scan(lambda E: oscillator_jacobi(model, E),
                          0.5, 12.0, size=4, bm_rounds=0)
    assert len(found) == 6
    for got, ref in zip(found, levels):
        assert abs(got - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("scale,size", [(1e-30, 30), (1e-200, 4),
                                        (1e30, 30), (1e20, 40)])
def test_pole_scan_ignores_the_entries_scale(scale, size):
    # scaling every entry leaves the ratios, and so the poles, unchanged;
    # the determinants scale by scale**size, far outside e^+-600 here
    model = OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)

    def scaled(E):
        op = oscillator_jacobi(model, E)
        return JacobiOperator(lambda i: scale * op.diag(i),
                              lambda i: scale * op.offdiag(i), op.energy,
                              op.limit_coeffs)

    want = det_pole_scan(lambda E: oscillator_jacobi(model, E), 0.5, 9.0,
                         size=size, n_points=60)
    assert len(want) == 4
    got = det_pole_scan(scaled, 0.5, 9.0, size=size, n_points=60)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * abs(w)


def test_gencoulomb_pole_scan_matches_levels():
    model = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4, rho_basis=1.3,
                            l=1, D=3)
    levels = exact_levels(model, 4)
    found = det_pole_scan(lambda e: gencoulomb_jacobi(model, e),
                          1.3 * levels[0], 0.2 * levels[3], size=4,
                          bm_rounds=0)
    for ref in levels[:3]:
        assert min(abs(g - ref) for g in found) <= 1e-9 * abs(ref)


def test_relativistic_pole_scan_matches_sommerfeld():
    alpha = 1.0 / 137.036
    model = RelCoulombModel(mu=1.0 / alpha, alpha_fs=alpha, Z=1.0,
                            kind=DiracUpper(j=0.5), eta_basis=1.0)
    levels = exact_levels(model, 2)

    def family(binding):
        return relativistic_jacobi(model, rel_energy_from_binding(model,
                                                                  binding))

    found = det_pole_scan(family, -0.7, -0.06, size=2, bm_rounds=0)
    assert len(found) == 2
    for got, ref in zip(found, levels):
        assert abs(got - ref) <= 1e-8 * abs(ref)


def _scalar_pole_scan(family, e_min, e_max, size, bm_rounds=None,
                      n_points=400):
    """det_pole_scan as a bracket-by-bracket loop: every determinant from
    corrected_truncation and slogdet, one energy at a time, and every
    bracket polished alone by _secant."""
    def det(E):
        for shift in (0.0, 1e-13 * max(1.0, abs(E))):
            try:
                op = family(E + shift)
                break
            except ZeroOffdiagonal:
                continue
        sign, logabs = np.linalg.slogdet(corrected_truncation(
            op, size, SheetSelector.AUTO, bm_rounds))
        if logabs == -math.inf:
            return 0.0
        return float(sign.real) * math.exp(min(logabs, 600.0))

    grid = [float(x) for x in np.linspace(e_min, e_max, n_points)]
    values = []
    for E in grid:
        try:
            values.append(det(E))
        except JGreensError:
            values.append(math.nan)
    roots = [x for x, v in zip(grid, values) if v == 0.0]
    for lo, hi, flo, fhi in zip(grid, grid[1:], values, values[1:]):
        if math.isfinite(flo) and math.isfinite(fhi) and flo * fhi < 0.0:
            x, fx, _ = _secant(det, lo, flo, hi, fhi, 0.0, (lo, hi, fhi))
            if abs(fx) <= 1e-3 * min(abs(flo), abs(fhi)):
                roots.append(x)
    merged = []
    for root in sorted(roots):
        if not merged or root - merged[-1] > 1e-9 * max(1.0, abs(root)):
            merged.append(root)
    return merged


def _scan_cases():
    atom = CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    osc = OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
    collide = CoulombModel(Z=-1.0, l=1, D=3, b=0.5)
    gen = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4, rho_basis=1.3,
                          l=1, D=3)
    gen_levels = exact_levels(gen, 4)
    alpha = 1.0 / 137.036
    rel = RelCoulombModel(mu=1.0 / alpha, alpha_fs=alpha, Z=1.0,
                          kind=DiracUpper(j=0.5), eta_basis=1.0)
    cases = {}
    # the benchmark's three scans, on their base grids and shifted by a
    # part of a grid step as the benchmark's seeds shift them
    for shift in (0.0, 0.37, -0.21):
        d = shift * 0.56 / 399
        for size in (2, 5):
            cases[f"atom size {size} shift {shift}"] = (
                lambda E: coulomb_jacobi(atom, E), -0.6 + d, -0.04 + d,
                size, None)
        d = shift * 11.5 / 399
        cases[f"oscillator size 4 shift {shift}"] = (
            lambda E: oscillator_jacobi(osc, E), 0.5 + d, 12.0 + d, 4, 0)
    cases["degenerate collision"] = (
        lambda E: coulomb_jacobi(collide, E), -0.14, -0.04, 3, None)
    cases["atom size 3"] = (lambda E: coulomb_jacobi(atom, E), -0.6, -0.04,
                            3, None)
    cases["gencoulomb"] = (lambda e: gencoulomb_jacobi(gen, e),
                           1.3 * gen_levels[0], 0.2 * gen_levels[3], 4, 0)
    cases["relativistic"] = (
        lambda b: relativistic_jacobi(rel, rel_energy_from_binding(rel, b)),
        -0.7, -0.06, 2, 0)
    return cases


@pytest.mark.parametrize("name", list(_scan_cases()))
def test_lockstep_pole_scan_matches_bracket_by_bracket(name):
    # the batched grid, the lockstep polish and the pole stop change no
    # root by one bit
    family, e_min, e_max, size, bm_rounds = _scan_cases()[name]
    found = det_pole_scan(family, e_min, e_max, size=size,
                          bm_rounds=bm_rounds)
    reference = _scalar_pole_scan(family, e_min, e_max, size, bm_rounds)
    assert found
    assert [x.hex() for x in found] == [x.hex() for x in reference]


def test_pole_scan_makes_one_batch_per_polish_step(monkeypatch):
    # one _corrected_blocks call for the grid and one per lockstep step;
    # the brackets around poles of the corner ratio stop early
    calls = []

    def counting(family, energies, *args):
        calls.append(len(energies))
        return _corrected_blocks(family, energies, *args)

    monkeypatch.setattr(models, "_corrected_blocks", counting)
    atom = CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    found = det_pole_scan(lambda E: coulomb_jacobi(atom, E), -0.6, -0.04,
                          size=2)
    assert len(found) == 3
    assert calls[0] == 400
    assert 1 < len(calls) <= 1 + 20


def test_real_zeros_stops_at_poles():
    # tan: simple roots at k*pi and poles at (k + 1/2)*pi, one per cell
    x_min, x_max, n = 0.3, 9.0, 25
    grid = np.linspace(x_min, x_max, n)
    evaluations = {}

    def polish(xs):
        for x in xs:
            cell = int(np.searchsorted(grid, x))
            evaluations[cell] = evaluations.get(cell, 0) + 1
        return [math.tan(x) for x in xs]

    roots = _real_zeros(lambda xs: [math.tan(x) for x in xs], polish,
                        x_min, x_max, n)
    assert roots == pytest.approx([math.pi, 2 * math.pi], rel=1e-11)
    pole_cells = [int(np.searchsorted(grid, (k + 0.5) * math.pi))
                  for k in range(3)]
    assert set(evaluations) == set(pole_cells) | {
        int(np.searchsorted(grid, r)) for r in roots}
    for cell in pole_cells:
        assert evaluations[cell] <= 15


def test_real_zeros_raises_lowest_failing_bracket():
    # roots at 1 and 3; the bracket of 3 fails at its first step, the one
    # of 1 at its third: the lockstep raises the lower bracket's error,
    # as a bracket-by-bracket loop would
    class Lower(Exception):
        pass

    class Higher(Exception):
        pass

    def f(x):
        return (x - 1.0) * (x - 3.0)

    seen = {"lower": 0, "higher": 0}
    batches = []

    def polish(xs):
        batches.append(len(xs))
        out = []
        for x in xs:
            side = "lower" if x < 2.0 else "higher"
            seen[side] += 1
            out.append(Lower("third step") if side == "lower"
                       and seen[side] == 3 else Higher("first step")
                       if side == "higher" else f(x))
        return out

    with pytest.raises(Lower, match="third step"):
        _real_zeros(lambda xs: [f(x) for x in xs], polish, 0.25, 4.25, 5)
    assert batches == [2, 1, 1]
    assert seen == {"lower": 3, "higher": 1}


def test_pole_scan_rejects_degenerate_grid():
    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    with pytest.raises(ValueError, match="grid"):
        det_pole_scan(lambda E: coulomb_jacobi(model, E), -0.6, -0.04,
                      size=3, n_points=1)
    for lo, hi in ((-0.04, -0.6), (-0.3, -0.3)):
        with pytest.raises(ValueError, match="e_min < e_max"):
            det_pole_scan(lambda E: coulomb_jacobi(model, E), lo, hi, size=3)


def test_pole_scan_needs_integer_sizes():
    # a bool or a float size is refused by name before the family is
    # called; a float used to fail with a bare TypeError in np.linspace,
    # and size=True scanned 1x1 blocks
    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    energies = []

    def family(E):
        energies.append(E)
        return coulomb_jacobi(model, E)

    for kwargs, name in (({"size": True}, "size"), ({"size": 2.0}, "size"),
                         ({"size": 0}, "size"),
                         ({"size": 3, "n_points": 400.0}, "n_points"),
                         ({"size": 3, "n_points": True}, "n_points")):
        with pytest.raises(ValueError, match=name):
            det_pole_scan(family, -0.6, -0.04, **kwargs)
    assert energies == []
    assert det_pole_scan(family, -0.6, -0.04, size=np.int64(2),
                         n_points=np.int32(400)) == det_pole_scan(
        family, -0.6, -0.04, size=2)


# ---------------------------------------------------------------------------
# the secant root polisher


def test_secant_reaches_complex_root_of_quadratic():
    root, other = 1.5 - 0.5j, -2.0 + 1.0j

    def f(z):
        return (z - root) * (z - other)

    z0 = root + 0.05 + 0.02j
    z1 = z0 + 1e-7
    f0, f1 = f(z0), f(z1)
    seen = []

    def logged(z):
        seen.append(z)
        return f(z)

    z, fz, settled = _secant(logged, z0, f0, z1, f1, 1.0)
    assert settled
    assert abs(z - root) <= 1e-12
    # the settled iterate is never evaluated: fz is f at the last point
    # the polish evaluated
    assert z not in seen
    assert fz == f(seen[-1])


def test_secant_on_constant_function_ends_unsettled():
    calls = []

    def f(z):
        calls.append(z)
        return 2.0

    z, fz, settled = _secant(f, 0.5j, 2.0, 0.5j + 1e-7, 2.0, 1.0)
    assert not settled
    assert (z, fz) == (0.5j + 1e-7, 2.0)
    assert calls == []


def test_secant_ends_unsettled_after_its_step_budget():
    # no real zero: from real starts the iterates wander on the axis, and
    # after 200 steps the last evaluated iterate comes back unsettled
    calls = []

    def f(z):
        calls.append(z)
        return z * z + z + 1.0

    out = _secant(f, 0.3, f(0.3), 0.5, f(0.5), 1.0, cap=1.0)
    assert len(calls) == 2 + 200
    assert out == (calls[-1], f(calls[-1]), False)


def test_secant_clips_steps_to_cap():
    calls = []

    def f(z):
        calls.append(z)
        return z - 100.0

    z, _, settled = _secant(f, 0.0, -100.0, 1e-7, 1e-7 - 100.0, 1.0,
                            cap=1.0)
    assert settled
    assert abs(z - 100.0) <= 1e-12 * 100.0
    assert calls[0] == pytest.approx(1.0 + 1e-7, abs=1e-15)
    steps = np.abs(np.diff([1e-7] + calls))
    assert steps.max() <= 1.0 + 1e-15


def _evaluate_then_settle(x0, f0, x1, f1, scale, bracket=None,
                          cap=math.inf):
    """The secant stepper that evaluates every iterate before its step
    test, the settled one included; it returns (x, f(x), settled).  The
    oracle of the stepper that settles on a step before evaluating
    there."""
    lo, hi, fhi = bracket or (None, None, None)
    pole = 1e3 * max(abs(f0), abs(f1)) if bracket else math.inf
    prev = math.inf
    for _ in range(200):
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
        f2 = yield x2
        if abs(f2) > pole:
            return x2, f2, False
        step = abs(x2 - x1)
        x0, f0, x1, f1 = x1, f1, x2, f2
        s = max(scale, abs(x2))
        if f2 == 0.0 or step <= 1e-12 * s or (
                secant and 0.5 * prev <= step <= 1e-9 * s):
            return x2, f2, True
        if bracket is not None:
            lo, hi = (x2, hi) if (f2 > 0) != (fhi > 0) else (lo, x2)
        prev = step if secant else math.inf
    return x1, f1, False


def _recorded(stepper, runs):
    """``stepper`` that appends to ``runs`` each run's arguments, the
    iterates it yields, the values it is sent and what it returns."""
    def steps(*args):
        run = {"args": args, "xs": [], "fs": []}
        runs.append(run)
        gen, value = stepper(*args), None
        while True:
            try:
                x = gen.send(value)
            except StopIteration as done:
                run["out"] = done.value
                return done.value
            run["xs"].append(x)
            value = yield x
            run["fs"].append(value)
    return steps


def _hexes(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


# alpha-alpha units, as in tests/test_scatter.py
_AA_MASS = 1.0 / (2.0 * 10.375)


def _polish_quadratic(seen, monkeypatch):
    root, other = 1.5 - 0.5j, -2.0 + 1.0j

    def f(z):
        seen.append(z)
        return (z - root) * (z - other)

    z0 = root + 0.05 + 0.02j
    z1 = z0 + 1e-7
    f0, f1 = f(z0), f(z1)
    seen.clear()
    return [_secant(f, z0, f0, z1, f1, 1.0)[0]]


def _polish_cap(seen, monkeypatch):
    def f(z):
        seen.append(z)
        return z - 100.0

    return [_secant(f, 0.0, -100.0, 1e-7, 1e-7 - 100.0, 1.0, cap=1.0)[0]]


def _polish_tan_poles(seen, monkeypatch):
    # the brackets of test_real_zeros_stops_at_poles: two roots, and
    # three around poles that the polish must reject
    def polish(xs):
        seen.extend(xs)
        return [math.tan(x) for x in xs]

    return _real_zeros(lambda xs: [math.tan(x) for x in xs], polish,
                       0.3, 9.0, 25)


def _polish_near_grid_root(seen, monkeypatch):
    # the top grid point lies within 1e-12 of the root 0.7: the first
    # secant step settles at once, and its iterate must be evaluated,
    # since the value that stepper holds belongs to the grid point
    # (7e-15, which the 1e-3 acceptance test would reject)
    def polish(xs):
        seen.extend(xs)
        return [x - 0.7 for x in xs]

    return _real_zeros(lambda xs: [x - 0.7 for x in xs], polish,
                       0.2, 0.7 * (1.0 + 1e-14), 6)


def _polish_pole_scan(seen, monkeypatch):
    def logged(family, energies, *args):
        if len(energies) != 400:  # the grid is not a polish step
            seen.extend(energies)
        return _corrected_blocks(family, energies, *args)

    monkeypatch.setattr(models, "_corrected_blocks", logged)
    atom = CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
    return det_pole_scan(lambda E: coulomb_jacobi(atom, E), -0.6, -0.04,
                         size=2)


def _logged_det_equation(seen, monkeypatch):
    det = scatter.det_equation

    def logged(p, E, *args):
        seen.append(E)
        return det(p, E, *args)

    monkeypatch.setattr(scatter, "det_equation", logged)


def _polish_resonances(seen, monkeypatch):
    # alpha-alpha l=2, N=8: six seeds around the resonance at
    # 2.80721-0.60711j
    _logged_det_equation(seen, monkeypatch)
    _, short = alpha_alpha_potential()
    model = CoulombModel(Z=4, l=2, b=4.0, m=_AA_MASS, e2=1.44)
    p = ScatterProblem(model, short, 8,
                       smoothing=SmoothingScheme(alpha=6.0))
    return find_resonances(p, (complex(2.2, -1.0), complex(3.4, -0.3)),
                           seeds=(3, 2))


def _polish_bound_states(seen, monkeypatch):
    # the Gaussian-only alpha-alpha levels at N=8
    _logged_det_equation(seen, monkeypatch)
    gauss = ShortRangePotential(lambda r: -122.694 * np.exp(-0.22 * r * r))
    model = CoulombModel(Z=0, l=0, b=4.0, m=_AA_MASS, e2=1.44)
    p = ScatterProblem(model, gauss, 8,
                       smoothing=SmoothingScheme(alpha=6.0))
    return find_bound_states(p, -85.0, -1e-3, n_grid=250)


_POLISH_CASES = {
    "quadratic": _polish_quadratic,
    "cap": _polish_cap,
    "tan poles": _polish_tan_poles,
    "near-grid root": _polish_near_grid_root,
    "coulomb pole scan": _polish_pole_scan,
    "alpha-alpha l=2 resonances": _polish_resonances,
    "gaussian bound states": _polish_bound_states,
}


@pytest.mark.parametrize("name", list(_POLISH_CASES))
def test_settling_before_evaluating_saves_one_call_per_step_settle(
        name, monkeypatch):
    def run(stepper):
        runs, seen = [], []
        with monkeypatch.context() as patch:
            patch.setattr(models, "_secant_steps", _recorded(stepper, runs))
            roots = _POLISH_CASES[name](seen, patch)
        return roots, runs, seen

    old_roots, old_runs, old_seen = run(_evaluate_then_settle)
    roots, runs, seen = run(_secant_steps)
    assert roots
    assert _hexes(roots) == _hexes(old_roots)
    assert len(runs) == len(old_runs) > 0
    saved = 0
    for new, old in zip(runs, old_runs):
        assert new["args"] == old["args"]
        (x, fx, settled), (x_old, fx_old, settled_old) = (new["out"],
                                                          old["out"])
        assert _hexes([x]) == _hexes([x_old]) and settled == settled_old
        bracket = new["args"][5] if len(new["args"]) > 5 else None
        if bracket is not None:
            # the 1e-3 acceptance test of _real_zeros
            flo, fhi = abs(new["args"][1]), abs(new["args"][3])
            assert (abs(fx) <= 1e-3 * min(flo, fhi)) == (
                abs(fx_old) <= 1e-3 * min(flo, fhi))
        if x in new["xs"]:
            assert new["xs"] == old["xs"] and fx == fx_old
        else:
            # settled on its step: the oracle's last call is the one saved
            assert settled
            assert new["xs"] == old["xs"][:-1] and old["xs"][-1] == x
            assert fx == new["fs"][-1]
            saved += 1
    assert len(seen) == len(old_seen) - saved
    if name in ("cap", "near-grid root"):
        # a linear f: the secant lands on the root and sees its exact
        # zero, in the near-grid case at the first step, which is
        # evaluated before it settles
        assert saved == 0 and all(new["out"][1] == 0.0 for new in runs)
    else:
        # every other polish that settles does so on its step
        assert saved == sum(new["out"][2] for new in runs) >= 1
    if name == "near-grid root":
        assert roots == [0.7]
    if name in ("alpha-alpha l=2 resonances", "gaussian bound states"):
        # no search passes the root it returns to det_equation
        assert all(complex(r) not in seen for r in roots)
        assert all(complex(r) in old_seen for r in roots)


# ---------------------------------------------------------------------------
# coordinate map, potential and charge density


def _r_of_h(model, h):
    """r(h) of the interpolating family to 40 digits. theta atanh(s) =
    theta log((1+s)^2 (h+theta)/theta)/2 loses about log10(theta/h)/2
    digits as s -> 0, so it runs with log10(theta/h) more; nothing
    overflows."""
    h, theta = mpmath.mpf(h), mpmath.mpf(model.theta)
    with mpmath.workdps(mpmath.mp.dps + max(0, int(mpmath.log10(theta / h)))):
        s = mpmath.sqrt(h / (h + theta))
        r = (theta / 2 * mpmath.log((1 + s) ** 2 * (h + theta) / theta)
             + mpmath.sqrt(h * (h + theta))) / mpmath.sqrt(model.C)
    return +r


def _h_of_r_oracle(model, r, h):
    """The root h of r(h) = r in 40 digits, by Newton's method from h
    (dr/dh = 1/(s sqrt(C)) > 0, and r(h) is concave, so it converges)."""
    h = mpmath.mpf(h)
    for _ in range(60):
        s = mpmath.sqrt(h / (h + model.theta))
        step = (_r_of_h(model, h) - r) * s * mpmath.sqrt(model.C)
        h -= step
    assert abs(step) <= mpmath.mpf(10) ** -30 * h
    return h


def test_h_of_r_round_trip():
    rng = np.random.default_rng(7)
    for theta in (1e-6, 0.3, 7.0, 1e5):
        for c_str in (0.4, 1.0, 2.7):
            model = GenCoulombModel(C=c_str, theta=theta, q=1.0, beta=2.0,
                                    rho_basis=1.0)
            for h_ref in 10.0 ** rng.uniform(-8, 8, size=6):
                got = gencoulomb_h_of_r(model, float(_r_of_h(model, h_ref)))
                assert abs(got - h_ref) <= 1e-12 * h_ref
    # a log of 1 + 2s lost nine digits at r = 1e-8, and h (h + theta)
    # overflowed from h ~ 1.3e154, which capped h near 1.34e154
    for c_str, theta, r in ((1.0, 9.8, 1e-8), (0.9, 0.8, 1e155),
                            (0.9, 0.8, 1e160)):
        model = GenCoulombModel(C=c_str, theta=theta, q=1.0, beta=2.0,
                                rho_basis=1.0)
        got = gencoulomb_h_of_r(model, r)
        want = _h_of_r_oracle(model, r, got)
        assert abs(got - want) <= 1e-12 * want


def test_h_of_r_to_4_eps_at_the_edges():
    # brentq's absolute xtol=1e-300 gave 5e-301 at r = 1e-150 (C = 1.7,
    # theta = 2), and h/(h+theta) went subnormal below h ~ 2e-308 theta
    eps = np.finfo(float).eps
    rng = np.random.default_rng(19)
    cases = [(1.7, 2.0, 1e-150), (0.4, 1e5, 3e-150), (1.0, 1e-3, 1e306)]
    cases += [(c, theta, r) for c, theta, r in zip(
        rng.uniform(0.1, 5.0, 40), 10.0 ** rng.uniform(-6, 6, 40),
        10.0 ** rng.uniform(-160, 300, 40))]
    for c_str, theta, r in cases:
        model = GenCoulombModel(C=c_str, theta=theta, q=1.0, beta=2.0,
                                rho_basis=1.0)
        got = gencoulomb_h_of_r(model, r)
        want = _h_of_r_oracle(model, r, got)
        assert abs(got - want) <= 4 * eps * want, (c_str, theta, r)
    # below the normal range h is C r^2 / (4 theta), rounded
    model = GenCoulombModel(C=1.7, theta=2.0, q=1.0, beta=2.0, rho_basis=1.0)
    got = gencoulomb_h_of_r(model, 1e-155)
    assert 0 < got < sys.float_info.min
    assert abs(got - _h_of_r_oracle(model, 1e-155, got)) <= math.ulp(0.0)


def test_h_of_r_limits():
    model = GenCoulombModel(C=1.7, theta=0.0, q=1.0, beta=2.0, rho_basis=1.0)
    assert gencoulomb_h_of_r(model, 3.2) \
        == pytest.approx(math.sqrt(1.7) * 3.2, rel=1e-15)
    model = GenCoulombModel(C=1.7, theta=2.0, q=1.0, beta=2.0, rho_basis=1.0)
    assert gencoulomb_h_of_r(model, 0.0) == 0.0
    big = gencoulomb_h_of_r(model, 1e8)
    assert abs(big / (math.sqrt(1.7) * 1e8) - 1.0) < 1e-5
    small = gencoulomb_h_of_r(model, 1e-8)
    assert abs(small / (1.7e-16 / (4.0 * 2.0)) - 1.0) < 1e-6


def test_h_of_r_edge_radii(monkeypatch):
    model = GenCoulombModel(C=1.7, theta=2.0, q=1.0, beta=2.0, rho_basis=1.0)
    # h = C r^2 / (4 theta) underflows to 0 (this raised ZeroDivisionError)
    assert gencoulomb_h_of_r(model, 1e-300) == 0.0
    for r in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            gencoulomb_h_of_r(model, r)

    def stalls(*args, **kwargs):
        raise RuntimeError("Failed to converge after 200 iterations")

    monkeypatch.setattr(scipy.optimize, "brentq", stalls)
    # sqrt(C) r overflows: refused before brentq (scipy raised its own
    # "function value at x=inf is NaN")
    wide = GenCoulombModel(C=2.7, theta=2.0, q=1.0, beta=2.0, rho_basis=1.0)
    with pytest.raises(ValueError, match="radius"):
        gencoulomb_h_of_r(wide, 1.7e308)
    with pytest.raises(NoConvergence, match="r=1.0"):
        gencoulomb_h_of_r(model, 1.0)


def test_potential_coulomb_limit():
    # q = 2 sqrt(C) makes the well a unit-charge attractive Coulomb one
    errs = []
    for theta in (1e-6, 1e-8):
        model = GenCoulombModel(C=0.7, theta=theta, q=2.0 * math.sqrt(0.7),
                                beta=4.0, rho_basis=1.0, l=1, D=3)
        errs.append(abs(gencoulomb_potential(model, 1.0) - (-2.0)))
    assert errs[1] < errs[0] and errs[1] < 1e-6


def test_potential_oscillator_limit():
    # C/theta and q/theta^2 fixed with (2m omega/hbar)^2 = C q / theta^3
    theta = 1e6
    model = GenCoulombModel(C=theta, theta=theta, q=4.0 * theta**2,
                            beta=1.5, rho_basis=1.0, l=0, D=3)
    vtilde = gencoulomb_potential(model, 1.0) + model.q / theta
    assert abs(vtilde - 1.0) <= 1e-5


def test_potential_positive_peak_for_small_theta():
    model = GenCoulombModel(C=1.0, theta=0.01, q=0.5, beta=1.5, rho_basis=1.0,
                            l=0, D=3)
    grid = np.linspace(0.005, 3.0, 400)
    values = [gencoulomb_potential(model, r) for r in grid]
    assert max(values) > 0
    assert values[-1] < 0
    with pytest.raises(ValueError):
        gencoulomb_potential(model, 0.0)


def test_charge_density_vanishes_in_coulomb_limit():
    model = GenCoulombModel(C=1.0, theta=1e-6, q=2.0, beta=4.0, rho_basis=1.0,
                            l=1, D=3)
    assert abs(charge_density(model, 1.5)) < 1e-4


def test_charge_density_constant_in_oscillator_limit():
    # moderate theta: larger values push the fixed-step stencil into
    # cancellation against the constant q/theta offset of the well
    theta = 1e4
    model = GenCoulombModel(C=theta, theta=theta, q=4.0 * theta**2,
                            beta=1.5, rho_basis=1.0, l=0, D=3)
    # laplacian of r^2 in three dimensions is 6
    expected = -6.0 / (8.0 * math.pi)
    for r in (0.7, 1.8):
        assert charge_density(model, r) == pytest.approx(expected, rel=2e-3)


# ---------------------------------------------------------------------------
# basis functions, wave functions, completeness


def test_cs_orthonormality_by_quadrature():
    l, D, b = 0, 3, 1.0
    x, w = gauss_laguerre_scaled(200)
    r = x / (2.0 * b)
    table = np.array([[cs_basis_eval(n, l, D, b, ri)[0] for ri in r]
                      for n in range(11)])
    partner = np.array([[cs_basis_eval(n, l, D, b, ri)[1] for ri in r]
                        for n in range(11)])
    gram = (table * w) @ partner.T / (2.0 * b)
    assert np.max(np.abs(gram - np.eye(11))) <= 1e-10


def test_cs_overlap_matrix_tridiagonal():
    l, D, b = 1, 3, 0.8
    x, w = gauss_laguerre_scaled(220)
    r = x / (2.0 * b)
    table = np.array([[cs_basis_eval(n, l, D, b, ri)[0] for ri in r]
                      for n in range(10)])
    gram = (table * w) @ table.T / (2.0 * b)
    for n in range(9):
        for m in range(9):
            if n == m:
                expected = (2 * n + 2 * l + D - 1) / (2.0 * b)
            elif m == n + 1:
                expected = -math.sqrt((n + 1) * (n + 2 * l + D - 1)) / (2.0 * b)
            elif m == n - 1:
                expected = -math.sqrt(n * (n + 2 * l + D - 2)) / (2.0 * b)
            else:
                expected = 0.0
                assert abs(gram[n, m]) <= 1e-10
                continue
            assert abs(gram[n, m] - expected) <= 1e-10 * max(1.0, abs(expected))


def test_cs_basis_small_r_behaviour():
    phi, partner = cs_basis_eval(2, 0, 3, 1.0, 0.0)
    assert phi == 0.0 and np.isfinite(partner) and partner != 0.0
    phi, partner = cs_basis_eval(2, 1, 3, 1.0, 0.0)
    assert phi == 0.0 and partner == 0.0
    # l + (D-1)/2 = 1/2: the partner phi/r diverges as r^(-1/2)
    phi, partner = cs_basis_eval(2, 0, 2, 1.0, 0.0)
    assert phi == 0.0 and partner == math.inf
    assert cs_basis_eval(2, 0, 2, 1.0, 1e-300)[1] > 1e140
    phi0, _ = cs_basis_eval(0, 0, 3, 1.0, 0.5)
    expected = math.exp(0.5 * (0.0 - math.lgamma(2.0))) * math.exp(-0.5) * 1.0
    assert phi0 == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("beta", [1.5, 2.0, 2.25, 2.5, 2.75])
def test_gcs_partner_at_origin_is_its_limit(beta):
    # at theta = 0 the partner goes as h^(beta/2 - 1): r = 0 gives the
    # limit that r = 1e-300 approaches (inf was returned for beta <= 2.5)
    model = GenCoulombModel(C=1.0, theta=0.0, q=1.0, beta=beta,
                            rho_basis=1.0)
    phi, partner = gcs_basis_eval(model, 2, 0.0)
    _, near = gcs_basis_eval(model, 2, 1e-300)
    assert phi == 0.0
    if beta < 2.0:
        assert partner == math.inf and near > 1e70
    elif beta == 2.0:  # sqrt(2!/3!) L_2^(1)(0) = sqrt(3)
        assert partner == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert near == pytest.approx(partner, rel=1e-13)
    else:
        assert partner == near == 0.0
    # theta > 0 keeps a finite weight 1/(h + theta): the partner is 0
    thick = GenCoulombModel(C=1.0, theta=0.5, q=1.0, beta=beta, rho_basis=1.0)
    assert gcs_basis_eval(thick, 2, 0.0) == (0.0, 0.0)


def test_cs_basis_log_domain_stability():
    phi, _ = cs_basis_eval(40, 0, 3, 1.0, 400.0)
    assert np.isfinite(phi) and abs(phi) < 1e-100
    # e^{-800} underflows on its own; the log-domain sum keeps the value
    phi, _ = cs_basis_eval(40, 0, 3, 1.0, 800.0)
    assert np.isfinite(phi) and phi != 0.0


def test_gcs_orthonormality_by_quadrature():
    model = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4, rho_basis=1.3)
    x, w = roots_genlaguerre(140, model.beta - 1.0)
    sqc = math.sqrt(model.C)
    h = x / model.rho_basis
    s = np.sqrt(h / (h + model.theta))
    r = (0.5 * model.theta
         * np.log((1.0 + s) ** 2 * (h + model.theta) / model.theta)
         + np.sqrt(h * (h + model.theta))) / sqc
    norm = _norms(8, 0.0, model.beta)
    lag = genlaguerre_table(8, model.beta - 1.0, x) * norm[:, None]
    gram = lag @ (w * lag).T
    assert np.max(np.abs(gram - np.eye(9))) <= 1e-12
    # the shipped evaluator agrees with the reduced form used above
    for n in (0, 3, 8):
        for idx in (5, 60):
            phi, partner = gcs_basis_eval(model, n, float(r[idx]))
            full = (lag[n, idx]
                    * (model.rho_basis * (h[idx] + model.theta)) ** 0.25
                    * x[idx] ** ((2 * model.beta - 1) / 4.0)
                    * math.exp(-x[idx] / 2.0))
            assert phi == pytest.approx(full, rel=1e-12)
            assert partner == pytest.approx(
                full * sqc / (h[idx] + model.theta), rel=1e-12)


def test_rel_orthonormality_by_quadrature():
    model = RelCoulombModel(mu=137.036, alpha_fs=1 / 137.036, Z=92.0,
                            kind=DiracUpper(j=0.5), eta_basis=40.0)
    u = model.u
    x, w = roots_genlaguerre(120, 2.0 * u + 1.0)
    r = x / (2.0 * model.eta_basis)
    table = np.array([[rel_basis_eval(model, n, ri)[0] for ri in r]
                      for n in range(9)])
    partner = np.array([[rel_basis_eval(model, n, ri)[1] for ri in r]
                        for n in range(9)])
    # remove the weight already contained in the basis functions
    reduced = table / (x ** (u + 1.0) * np.exp(-x / 2.0))
    reduced_p = partner / (x ** u * np.exp(-x / 2.0)) / (2.0 * model.eta_basis)
    gram = reduced @ (w * reduced_p).T
    assert np.max(np.abs(gram - np.eye(9))) <= 1e-10


def test_coulomb_wavefunction_normalized():
    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
    x, w = gauss_laguerre_scaled(300)
    for n in (0, 1, 3):
        a0 = 1.0 / ((n + 1.0) * 0.5)
        r = x / a0
        psi = np.array([coulomb_wavefunction(model, n, ri) for ri in r])
        norm = np.sum(w * psi * psi) / a0
        assert norm == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        coulomb_wavefunction(CoulombModel(Z=1.0), 0, 1.0)


def test_oscillator_wavefunction_normalized_and_orthogonal():
    model = OscillatorModel(omega=1.0, omega_basis=1.3, l=1, D=3)
    x, w = roots_genlaguerre(150, model.l + model.D / 2.0 - 1.0)
    v = model.m * model.omega / model.hbar
    r = np.sqrt(x / v)
    table = np.array([[oscillator_wavefunction(model, n, ri) for ri in r]
                      for n in range(6)])
    alpha = model.l + model.D / 2.0 - 1.0
    reduced = table / (x ** (alpha / 2.0 + 0.25) * np.exp(-x / 2.0))
    gram = reduced @ (w * reduced).T / (2.0 * math.sqrt(v))
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10
    basis_val = oscillator_wavefunction(model, 2, 1.1,
                                        frequency=model.omega_basis)
    assert basis_val != pytest.approx(oscillator_wavefunction(model, 2, 1.1))
    for frequency in (0.0, -1.3):
        with pytest.raises(ValueError, match="frequency"):
            oscillator_wavefunction(model, 2, 1.1, frequency=frequency)


def test_cs_completeness_on_gaussian():
    l, D, b = 0, 3, 1.0
    x, w = gauss_legendre(600)
    r = 10.0 * (x + 1.0)
    wr = 10.0 * w
    table = np.array([[cs_basis_eval(n, l, D, b, ri) for ri in r]
                      for n in range(61)])
    phi = table[:, :, 0]
    partner = table[:, :, 1]

    # resolution of the identity reproduces the plain norm of a Gaussian
    f = np.exp(-((r - 2.0) ** 2))
    f_norm = float(np.sum(wr * f * f))
    bio = np.cumsum((phi @ (wr * f)) * (partner @ (wr * f)))
    assert abs(bio[-1] - f_norm) <= 1e-6 * f_norm

    # expansion-norm partial sums grow monotonically toward the weighted
    # norm; the factor r keeps the function inside the weighted space
    g = r * np.exp(-0.5 * (r - 2.0) ** 2)
    g_norm = float(np.sum(wr * g * g / r))
    par = np.cumsum((partner @ (wr * g)) ** 2)
    assert np.all(np.diff(par) >= 0.0)
    assert abs(par[-1] - g_norm) <= 1e-6 * g_norm


def test_depth_plan_reads_the_limit(monkeypatch):
    from jgreens import jacobi
    from jgreens.jacobi import _bm_depths, _corner_ratios, _op_lanes

    def start(op):
        return int(_bm_depths(op.limit_coeffs)[0][0])

    # the Coulomb-like limits d = 2(X - 1)/(X + 1) have |d| > 2 exactly
    # where Re X < 0: below threshold, as the sign of Re E said before. On
    # the axis Re E = 0, |d| = 2 holds only to rounding: the grid avoids it.
    # On the real axis above threshold u = -1 and d are real with d^2 < 4:
    # the limit is elliptic, and the plan starts at depth 4
    xs = np.concatenate((np.linspace(-3.0, 3.0, 24), [-1e-6, 1e-6]))
    grid = [complex(x, y) for x in xs for y in (-1.5, -0.2, 0.0, 0.3, 2.0)]
    coulomb = CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
    gencoulomb = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4,
                                 rho_basis=1.3, l=1, D=3)
    for build, model in ((coulomb_jacobi, coulomb),
                         (gencoulomb_jacobi, gencoulomb)):
        for E in grid:
            plan = tuple(_bm_depths(build(model, E).limit_coeffs)[0])
            assert plan == ((0, 4, 2, -1) if E.real < 0 else
                            (4, 8, 2, 0) if E.imag == 0 else (8, 4, 2, 0))
    # the oscillator's limit is hyperbolic and does not depend on E
    oscillators = [OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3),
                   OscillatorModel(omega=0.7, omega_basis=0.4, l=1, D=4,
                                   m=1.7)]
    for model in oscillators:
        for E in grid + [1.5, 3.5, 7.9 - 0.1j]:
            assert start(oscillator_jacobi(model, E)) == 0
    # relativistic: depth 0 where Re(E^2 - mu^2) < 0, bound lanes included,
    # and depth 4 at real E above mu
    rel = RelCoulombModel(mu=_MU, alpha_fs=1 / _MU, Z=20.0,
                          kind=KleinGordon(l=1), eta_basis=12.0)
    ops = [relativistic_jacobi(rel, f * _MU) for f in (0.9, 0.99, 1.01, 1.5)]
    assert [start(op) for op in ops] == [0, 0, 4, 4]

    # and the batch starts each lane at that depth
    seen = {}
    real_sum = jacobi._sum_fractions

    def record(read, b0, rounds, *args):
        seen.setdefault(len(seen), (rounds, len(b0)))
        return real_sum(read, b0, rounds, *args)

    monkeypatch.setattr(jacobi, "_sum_fractions", record)
    mixed = ops + [coulomb_jacobi(coulomb, E) for E in (-0.3, 0.4 + 0.1j)] \
        + [oscillator_jacobi(oscillators[0], 2.1)]
    _corner_ratios(_op_lanes(mixed), 3)
    assert seen[0] == (0, 4) and seen[1] == (4, 2) and seen[2] == (8, 1)


_GC = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4, rho_basis=1.3,
                      l=1, D=3)
_RADIAL = {
    "cs_basis_eval": lambda r: cs_basis_eval(2, 1, 3, 0.7, r),
    "rel_basis_eval": lambda r: rel_basis_eval(RelCoulombModel(
        mu=137.036, alpha_fs=1 / 137.036, Z=1.0, kind=DiracUpper(j=0.5),
        eta_basis=1.0), 2, r),
    "coulomb_wavefunction": lambda r: coulomb_wavefunction(
        CoulombModel(Z=-1.0, l=1, b=0.7), 2, r),
    "oscillator_wavefunction": lambda r: oscillator_wavefunction(
        OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3), 2, r),
    "gcs_basis_eval": lambda r: gcs_basis_eval(_GC, 2, r),
    "gencoulomb_potential": lambda r: gencoulomb_potential(_GC, r),
    "charge_density": lambda r: charge_density(_GC, r),
}


@pytest.mark.parametrize("name", sorted(_RADIAL))
def test_non_finite_radii_rejected(name):
    # the Laguerre-basis functions returned NaN here, and charge_density
    # at r = inf reported the NaN of its stencil, not the radius
    call = _RADIAL[name]
    assert np.isfinite(call(1.5)).all()
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"radius .*got {r}$"):
            call(r)
