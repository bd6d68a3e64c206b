"""Cross-checks for the solvable-family catalog.

Closed-form tridiagonal entries are validated against quadrature
oracles assembled directly from the basis functions and the
differential operators (second derivatives removed by integration by
parts); pole searches are validated against the closed-form level
formulas, and the leading Green's element against its hypergeometric
reference.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from jgreens import models
from jgreens.errors import (InvalidU, JGreensError, NotConverged,
                            NumericBreakdown, ZeroOffdiagonal)
from jgreens.jacobi import (IndexFormula, SheetSelector, _corrected_blocks,
                            _read_maps, cf_coefficients,
                            corrected_truncation, dense_truncation,
                            green_submatrix)
from jgreens.models import (CoulombModel, DiracLower, DiracUpper,
                            GenCoulombModel, KleinGordon, OscillatorModel,
                            RelCoulombModel, charge_density,
                            coulomb_g00_analytic, coulomb_jacobi,
                            coulomb_wavefunction, cs_basis_eval,
                            _real_zeros, _secant, det_pole_scan,
                            exact_levels, gcs_basis_eval,
                            gencoulomb_h_of_r, gencoulomb_jacobi,
                            gencoulomb_potential, oscillator_jacobi,
                            oscillator_wavefunction, rel_basis_eval,
                            rel_binding_from_energy, rel_energy_from_binding,
                            relativistic_jacobi, wavenumber)
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
            chunk, stops, errors = _read_maps(maps)(np.arange(len(ops)), 0, n)
            assert not errors and list(stops) == [n] * len(ops)
            for lane, oracle in enumerate(oracles):
                expected = [_hex(oracle[which](i)) for i in range(n)]
                assert [_hex(v) for v in chunk[:, lane].tolist()] == expected
                # a lane read alone, and the map at an int index
                alone, _, _ = _read_maps([maps[lane]])([0], 0, n)
                assert [_hex(v) for v in alone[:, 0].tolist()] == expected
                for i in (0, 1, 41, n - 1):
                    value = maps[lane](i)
                    assert type(value) is type(oracle[which](i))
                    assert _hex(value) == expected[i]


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
])
def test_model_validation_rejects(bad):
    with pytest.raises(ValueError):
        bad()


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


# ---------------------------------------------------------------------------
# closed-form levels and pole scans


def test_coulomb_levels_values():
    model = CoulombModel(Z=-1.0, l=1, D=3)
    got = exact_levels(model, 3)
    assert got == pytest.approx([-1 / 8, -1 / 18, -1 / 32], rel=1e-15)
    assert exact_levels(CoulombModel(Z=0.0 + 1e-300), 3) == []
    assert exact_levels(CoulombModel(Z=2.0), 3) == []


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


# ---------------------------------------------------------------------------
# the secant root polisher


def test_secant_reaches_complex_root_of_quadratic():
    root, other = 1.5 - 0.5j, -2.0 + 1.0j

    def f(z):
        return (z - root) * (z - other)

    z0 = root + 0.05 + 0.02j
    z1 = z0 + 1e-7
    z, fz, settled = _secant(f, z0, f(z0), z1, f(z1), 1.0)
    assert settled
    assert abs(z - root) <= 1e-12
    assert fz == f(z)


def test_secant_on_constant_function_ends_unsettled():
    calls = []

    def f(z):
        calls.append(z)
        return 2.0

    z, fz, settled = _secant(f, 0.5j, 2.0, 0.5j + 1e-7, 2.0, 1.0)
    assert not settled
    assert (z, fz) == (0.5j + 1e-7, 2.0)
    assert calls == []


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


# ---------------------------------------------------------------------------
# coordinate map, potential and charge density


def test_h_of_r_round_trip():
    rng = np.random.default_rng(7)
    for theta in (1e-6, 0.3, 7.0, 1e5):
        for c_str in (0.4, 1.0, 2.7):
            model = GenCoulombModel(C=c_str, theta=theta, q=1.0, beta=2.0,
                                    rho_basis=1.0)
            for h_ref in 10.0 ** rng.uniform(-8, 8, size=6):
                t = h_ref + theta
                s = math.sqrt(h_ref / t)
                r = (0.5 * theta * math.log((1.0 + s) ** 2 * t / theta)
                     + math.sqrt(h_ref * t)) / math.sqrt(c_str)
                got = gencoulomb_h_of_r(model, r)
                assert abs(got - h_ref) <= 1e-12 * h_ref


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
    phi0, _ = cs_basis_eval(0, 0, 3, 1.0, 0.5)
    expected = math.exp(0.5 * (0.0 - math.lgamma(2.0))) * math.exp(-0.5) * 1.0
    assert phi0 == pytest.approx(expected, rel=1e-14)


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
    from jgreens.jacobi import _bm_depths, _corner_ratios

    def start(op):
        return int(_bm_depths(op.limit_coeffs)[0])

    # the Coulomb-like limits d = 2(X - 1)/(X + 1) have |d| > 2 exactly
    # where Re X < 0: below threshold, as the sign of Re E said before. On
    # the axis Re E = 0, |d| = 2 holds only to rounding: the grid avoids it
    xs = np.concatenate((np.linspace(-3.0, 3.0, 24), [-1e-6, 1e-6]))
    grid = [complex(x, y) for x in xs for y in (-1.5, -0.2, 0.0, 0.3, 2.0)]
    coulomb = CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
    gencoulomb = GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4,
                                 rho_basis=1.3, l=1, D=3)
    for build, model in ((coulomb_jacobi, coulomb),
                         (gencoulomb_jacobi, gencoulomb)):
        for E in grid:
            plan = tuple(_bm_depths(build(model, E).limit_coeffs))
            assert plan == ((0, 4, 2, -1) if E.real < 0 else (8, 4, 2, 0))
    # the oscillator's limit is hyperbolic and does not depend on E
    oscillators = [OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3),
                   OscillatorModel(omega=0.7, omega_basis=0.4, l=1, D=4,
                                   m=1.7)]
    for model in oscillators:
        for E in grid + [1.5, 3.5, 7.9 - 0.1j]:
            assert start(oscillator_jacobi(model, E)) == 0
    # relativistic: depth 0 where Re(E^2 - mu^2) < 0, bound lanes included
    rel = RelCoulombModel(mu=_MU, alpha_fs=1 / _MU, Z=20.0,
                          kind=KleinGordon(l=1), eta_basis=12.0)
    ops = [relativistic_jacobi(rel, f * _MU) for f in (0.9, 0.99, 1.01, 1.5)]
    assert [start(op) for op in ops] == [0, 0, 8, 8]

    # and the batch starts each lane at that depth
    seen = {}
    real_sum = jacobi._sum_fractions

    def record(read, b0, rounds, *args):
        seen.setdefault(len(seen), (rounds, len(b0)))
        return real_sum(read, b0, rounds, *args)

    monkeypatch.setattr(jacobi, "_sum_fractions", record)
    mixed = ops + [coulomb_jacobi(coulomb, E) for E in (-0.3, 0.4 + 0.1j)] \
        + [oscillator_jacobi(oscillators[0], 2.1)]
    _corner_ratios(mixed, 3)
    assert seen[0] == (0, 4) and seen[1] == (8, 3)
