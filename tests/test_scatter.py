"""Cross-checks for short-range scattering on the Coulomb Green's matrix.

Determinant zeros are validated against the exact two-body Coulomb
levels (V = 0 with an attractive charge), free overlaps against a
closed elementary form and against an mpmath quadrature of the Coulomb
wave at real and complex energy, the second-sheet Green's element
against a high-precision hypergeometric reference evaluated with
mpmath, and potential matrix elements against adaptive quadrature.  The
alpha-alpha level, resonance and phase-shift values are frozen ten-digit
targets with the convergence pattern over the truncation sequence
asserted alongside.
"""

import cmath
import math
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import scipy.integrate

import jgreens.scatter as scatter_module
from jgreens.errors import (GridTooCoarse, QuadratureSuspect, SingularMatrix,
                            ZeroOffdiagonal)
from jgreens.jacobi import SheetSelector, corrected_truncation, \
    green_submatrix
from jgreens.models import (CoulombModel, coulomb_jacobi, det_pole_scan,
                            wavenumber)
from jgreens.scatter import (ScatterProblem, ShortRangePotential,
                             SmoothingScheme, _amplitude_point, _basis_rows,
                             alpha_alpha_potential, det_equation,
                             find_bound_states, find_resonances,
                             free_overlap, phase_shift, potential_matrix,
                             scatter_solve, sigma_factor, total_green)

mpmath.mp.dps = 30

# alpha-alpha units: hbar^2/(2m) = 10.375 MeV fm^2, Z1 Z2 e^2 = 5.76 MeV fm
HB2_2M = 10.375
MASS = 1.0 / (2.0 * HB2_2M)
FULL_AA, SHORT_AA = alpha_alpha_potential()
# nuclear attraction alone; the level table below belongs to this system
GAUSS_ONLY = ShortRangePotential(lambda r: -122.694 * np.exp(-0.22 * r * r))
ZERO_V = ShortRangePotential(lambda r: 0.0 * r)

NS = (8, 10, 15, 18, 20, 25, 28, 30, 35, 40)

BOUND_TABLE = {
    8: (-76.9035571529, -29.0052349134, -1.7394782626),
    10: (-76.9036099717, -29.0003523141, -1.6372690831),
    15: (-76.9036143090, -29.0004698249, -1.6088246403),
    18: (-76.9036143254, -29.0004702338, -1.6087425166),
    20: (-76.9036143263, -29.0004702566, -1.6087410685),
    25: (-76.9036143265, -29.0004702623, -1.6087408256),
    28: (-76.9036143265, -29.0004702625, -1.6087408216),
    30: (-76.9036143265, -29.0004702625, -1.6087408213),
    35: (-76.9036143265, -29.0004702626, -1.6087408214),
    40: (-76.9036143265, -29.0004702626, -1.6087408214),
}

# N = 8 holds the l = 0 partial wave as a weakly bound real level
RES_L0 = {
    8: -0.0008549596 + 0.0j,
    10: 0.0633642503 - 6.81e-8j,
    15: 0.0917850787 - 2.8092e-6j,
    18: 0.0919630277 - 2.8572e-6j,
    20: 0.0919697296 - 2.8588e-6j,
    25: 0.0919718479 - 2.8592e-6j,
    28: 0.0919719788 - 2.8592e-6j,
    30: 0.0919720064 - 2.8592e-6j,
    35: 0.0919720258 - 2.8592e-6j,
    40: 0.0919720290 - 2.8592e-6j,
}

RES_L2 = {
    8: 2.80721 - 0.60711j,
    10: 2.86630 - 0.62856j,
    15: 2.88968 - 0.62099j,
    18: 2.88934 - 0.62053j,
    20: 2.88924 - 0.62056j,
    25: 2.88923 - 0.62062j,
    28: 2.88925 - 0.62062j,
    30: 2.88925 - 0.62061j,
    35: 2.88924 - 0.62061j,
    40: 2.88925 - 0.62061j,
}

RES_L4_40 = 11.791038 - 1.788957j

PHASE_ENERGIES = (0.1, 1.0, 30.0)
PHASE_TABLE = {
    25: (9.424024, 8.859419, 4.828563),
    28: (9.424024, 8.859414, 4.828555),
    30: (9.424024, 8.859412, 4.828554),
    35: (9.424024, 8.859411, 4.828552),
    40: (9.424024, 8.859411, 4.828552),
}

# narrow l = 0 resonance used to stress the sweep near its half-width
E_RES = 0.0919720204
HW = 2.8592e-6


def charged(l=0, b=4.0):
    return CoulombModel(Z=4, l=l, b=b, m=MASS, e2=1.44)


def neutral(l=0, b=4.0):
    return CoulombModel(Z=0, l=l, b=b, m=MASS, e2=1.44)


@lru_cache(maxsize=None)
def table_problem(N, l=0, b=4.0):
    return ScatterProblem(neutral(l, b), GAUSS_ONLY, N,
                          smoothing=SmoothingScheme(alpha=6.0))


@lru_cache(maxsize=None)
def charged_problem(N, l=0, alpha=6.0):
    return ScatterProblem(charged(l), SHORT_AA, N,
                          smoothing=SmoothingScheme(alpha=alpha))


def _fold(x):
    # nearest mod-pi representative
    return x - math.pi * round(x / math.pi)


def _res_region(want):
    w = max(0.02 * abs(want.real), 0.004)
    h = max(1.5 * abs(want.imag), 2e-6)
    lo = complex(want.real - w, -(h + abs(want.imag)))
    hi = complex(want.real + w, -max(abs(want.imag) - h, 1e-9))
    return lo, hi


@lru_cache(maxsize=None)
def bound_levels(N):
    p = table_problem(N)
    roots = (find_bound_states(p, -85.0, -70.0, n_grid=40)
             + find_bound_states(p, -35.0, -25.0, n_grid=40)
             + find_bound_states(p, -2.6, -0.8, n_grid=40))
    assert len(roots) == 3
    return tuple(roots)


@lru_cache(maxsize=None)
def res_l0(N):
    p = charged_problem(N, 0)
    if N == 8:
        roots = find_bound_states(p, -0.005, -1e-5, n_grid=60)
        assert len(roots) == 1
        return complex(roots[0])
    want = RES_L0[N]
    lo = complex(want.real - 0.004, min(1.6 * want.imag, -4e-6))
    hi = complex(want.real + 0.004, max(0.25 * want.imag, -1e-9))
    found = find_resonances(p, (lo, hi), seeds=(1, 1))
    return min(found, key=lambda z: abs(z - want))


@lru_cache(maxsize=None)
def res_l2(N):
    p = charged_problem(N, 2)
    want = RES_L2[N]
    lo = complex(want.real - 0.06, want.imag - 0.05)
    hi = complex(want.real + 0.06, want.imag + 0.05)
    found = find_resonances(p, (lo, hi), seeds=(1, 1))
    return min(found, key=lambda z: abs(z - want))


@lru_cache(maxsize=None)
def raw_phases(N):
    p = charged_problem(N, 0, alpha=5.2)
    return tuple(_amplitude_point(p, E)[0] for E in PHASE_ENERGIES)


def sweep_grid(l):
    base = np.geomspace(0.006, 1000.0, 64 if l == 0 else 48)
    extra: tuple[float, ...] = ()
    if l == 0:
        ts = (0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0, 20.0, 50.0, 150.0,
              400.0, 1000.0)
        extra = tuple(E_RES + s * t * HW for t in ts for s in (1.0, -1.0))
        extra += PHASE_ENERGIES
    elif l == 2:
        extra = tuple(np.linspace(1.5, 6.0, 10))
    else:
        extra = tuple(np.linspace(6.0, 20.0, 12))
    return [float(E) for E in np.unique(np.concatenate([base, extra]))]


@lru_cache(maxsize=None)
def phase_sweep(l):
    pts = phase_shift(charged_problem(40, l, alpha=5.2), sweep_grid(l))
    return {pt.E: pt.delta for pt in pts}


def _assert_converging(values, slack_scale):
    # |value(N) - value(40)| may wiggle at the rounding floor only
    diffs = [abs(values[N] - values[40]) for N in NS]
    slack = 1e-10 * max(1.0, slack_scale)
    for a, b in zip(diffs, diffs[1:]):
        assert b <= a + slack


@pytest.fixture
def builds(monkeypatch):
    """The energies at which scatter builds a Coulomb operator, in order;
    a call at an array of energies builds each of its lanes."""
    built = []
    build = scatter_module.coulomb_jacobi

    def counting(model, E):
        built.extend(E.tolist() if isinstance(E, np.ndarray) else [E])
        return build(model, E)

    monkeypatch.setattr(scatter_module, "coulomb_jacobi", counting)
    return built


# ---------------------------------------------------------------------------
# smoothing factors


def test_sigma_factor_values_and_monotonicity():
    assert sigma_factor(0, 9, 5.2) == 1.0
    t2 = (5.2 * (9 - 10) / 10.0) ** 2
    want = (1.0 - math.exp(-t2)) / (1.0 - math.exp(-5.2 * 5.2))
    assert sigma_factor(9, 9, 5.2) == pytest.approx(want, abs=1e-15)
    assert abs(want - 0.23694) < 2e-5
    for N, alpha in ((12, 5.2), (40, 6.0)):
        s = [sigma_factor(n, N, alpha) for n in range(N + 1)]
        assert s[0] == 1.0 and s[-1] > 0.0
        assert all(b < a for a, b in zip(s, s[1:]))


def test_sigma_factor_validation():
    with pytest.raises(ValueError):
        sigma_factor(-1, 9, 5.2)
    with pytest.raises(ValueError):
        sigma_factor(10, 9, 5.2)
    with pytest.raises(ValueError):
        sigma_factor(3, 9, 0.0)
    with pytest.raises(ValueError):
        SmoothingScheme(alpha=-1.0)


def test_nan_shape_parameter_and_potential_rejected():
    # NaN passes a check written alpha <= 0, and a NaN matrix passes
    # the doubled-order check written worst > 1e-9
    with pytest.raises(ValueError, match="shape"):
        SmoothingScheme(alpha=math.nan)
    with pytest.raises(ValueError, match="shape"):
        sigma_factor(1, 5, math.nan)
    spiked = ShortRangePotential(
        lambda r: np.where(r < 0.5, np.nan, -np.exp(-r * r)))
    with pytest.raises(QuadratureSuspect):
        potential_matrix(ScatterProblem(neutral(), spiked, 10))


def test_smoothing_scheme_factors():
    s = SmoothingScheme(alpha=5.2)
    np.testing.assert_allclose(
        s.factors(12), [sigma_factor(n, 12, 5.2) for n in range(13)],
        rtol=0.0, atol=0.0)
    off = SmoothingScheme(enabled=False)
    assert np.all(off.factors(12) == 1.0)


# ---------------------------------------------------------------------------
# potentials and problem records


def test_short_range_potential_rejects_slow_tails():
    with pytest.raises(ValueError):
        ShortRangePotential(lambda r: 1.0 / r**2)
    ShortRangePotential(lambda r: 1.0 / r**4)
    ShortRangePotential(lambda r: math.exp(-0.5 * r))
    # NaN passed the probe, which compares |v(r)| r^3
    for v in (lambda r: math.nan, lambda r: math.inf):
        with pytest.raises(ValueError, match="not finite"):
            ShortRangePotential(v)
    with pytest.raises(ValueError, match="finite"):
        ShortRangePotential(lambda r: 0.0, coulomb_tail_Z2e2=math.nan)


def test_alpha_alpha_decomposition():
    # r -> 0 limit of erf(g r)/r is 2 g / sqrt(pi)
    want0 = -122.694 + 5.76 * 2.0 * 0.75 / math.sqrt(math.pi)
    assert FULL_AA(0.0) == pytest.approx(want0, abs=1e-12)
    for r in (0.5, 2.0, 7.0):
        assert FULL_AA(r) - SHORT_AA.v(r) == pytest.approx(5.76 / r,
                                                           abs=1e-12)
    assert SHORT_AA.coulomb_tail_Z2e2 == 5.76
    assert abs(SHORT_AA.v(10.0)) < 1e-6
    r = np.array([0.5, 2.0, 7.0])
    np.testing.assert_allclose(FULL_AA(r), [FULL_AA(x) for x in r],
                               rtol=1e-15)


def test_scatter_problem_validation():
    with pytest.raises(ValueError):
        ScatterProblem(charged(), SHORT_AA, 0)
    with pytest.raises(ValueError):
        ScatterProblem(charged(), SHORT_AA, 40, quad_order=99)
    assert ScatterProblem(charged(), SHORT_AA, 8).quad_order == 200
    # a float N constructed, then failed with TypeError
    with pytest.raises(ValueError, match="integer"):
        ScatterProblem(charged(), SHORT_AA, 2.5)
    with pytest.raises(ValueError, match="integer"):
        ScatterProblem(charged(), SHORT_AA, 8, quad_order=250.0)
    assert ScatterProblem(charged(), SHORT_AA, np.int64(8)).quad_order == 200
    assert ScatterProblem(charged(), SHORT_AA, 120).quad_order == 260


# ---------------------------------------------------------------------------
# potential matrix


def test_potential_matrix_symmetric():
    v = potential_matrix(charged_problem(40, 0))
    scale = np.max(np.abs(v))
    assert np.max(np.abs(v - v.T)) <= 1e-12 * scale


def test_potential_matrix_zero_potential():
    p = ScatterProblem(charged(), ZERO_V, 12)
    assert np.all(potential_matrix(p) == 0.0)


def test_potential_matrix_against_adaptive_quadrature():
    p = ScatterProblem(charged(), SHORT_AA, 8,
                       smoothing=SmoothingScheme(enabled=False))
    got = potential_matrix(p)
    scale = np.max(np.abs(got))
    two_b = 2.0 * p.model.b
    for n, m in ((0, 0), (3, 5), (8, 8)):
        def integrand(r, n=n, m=m):
            rows = _basis_rows(p.model, 8, np.array([two_b * r]))
            return rows[n, 0] * SHORT_AA.v(r) * rows[m, 0]
        want, err = scipy.integrate.quad(integrand, 0.0, 30.0, limit=300)
        assert err < 1e-7
        assert abs(got[n, m] - want) <= 1e-9 * scale


def test_potential_matrix_smoothing_is_rank_one_scaling():
    raw = potential_matrix(ScatterProblem(
        charged(), SHORT_AA, 12, smoothing=SmoothingScheme(enabled=False)))
    smooth = potential_matrix(ScatterProblem(
        charged(), SHORT_AA, 12, smoothing=SmoothingScheme(alpha=5.2)))
    s = SmoothingScheme(alpha=5.2).factors(12)
    np.testing.assert_allclose(smooth, s[:, None] * raw * s[None, :],
                               rtol=1e-13)


def test_potential_matrix_flags_unresolved_spike():
    spike = ShortRangePotential(lambda r: -np.exp(-((r - 3.0) / 0.01) ** 2))
    with pytest.raises(QuadratureSuspect):
        potential_matrix(ScatterProblem(neutral(), spike, 10))


def test_potential_matrix_of_a_scalar_only_potential():
    # math.exp refuses an array, so the values are taken point by point
    scalar = ShortRangePotential(lambda r: -122.694 * math.exp(-0.22 * r * r))
    got = potential_matrix(ScatterProblem(neutral(), scalar, 12))
    want = potential_matrix(ScatterProblem(neutral(), GAUSS_ONLY, 12))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [190, 220, 250, 300])
def test_potential_matrix_past_n_189(N):
    # the doubled order's far nodes (x ~ 3150 at order 800) overflowed the
    # Laguerre table: a RuntimeWarning, then "relative nan" from the
    # doubled-order check, whatever quad_order
    raw = SmoothingScheme(enabled=False)
    big = potential_matrix(ScatterProblem(charged(), SHORT_AA, N,
                                          smoothing=raw))
    assert np.isfinite(big).all()
    small = potential_matrix(ScatterProblem(charged(), SHORT_AA, 40,
                                            smoothing=raw))
    scale = np.max(np.abs(small))
    assert np.max(np.abs(big[:41, :41] - small)) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# free overlaps


def test_free_overlap_matches_elementary_form():
    # for Z = 0, l = 0 the integral of e^{-br} 2b r L_n^(1)(2br) sin(kr)/r
    # collapses to sin(2(n+1) atan(k/b)) / sqrt(n+1) with alternating sign
    model = neutral()
    for E in (0.1, 30.0):
        k = wavenumber(model, E).real
        phi = free_overlap(model, E, 40)
        n = np.arange(41)
        want = (-1.0) ** n * np.sin(2.0 * (n + 1) * math.atan2(k, model.b)) \
            / np.sqrt(n + 1.0)
        assert np.max(np.abs(phi[:6] - want[:6])) <= 1e-10
        assert np.max(np.abs(phi - want)) <= 1e-11


def _mp_overlap(model, E, N, order=400):
    """Phi_n = integral of (phi_n(r)/r) F_lam(eta, kr) dr, n = 0..N, by
    Gauss-Legendre on [0, R] with mpmath's Coulomb wave at lam = l+(D-3)/2."""
    lam = model.l + (model.D - 3) / 2.0
    k = complex(wavenumber(model, complex(E)))
    eta = model.Z * model.e2 * model.m / (model.hbar**2 * k)
    # past the last Laguerre turning point 4(N+1), where the rows decay
    radius = (4.0 * (N + 1) + 4.0 * lam + 4.0
              + 30.0 * (4.0 * (N + 1)) ** (1.0 / 3.0)) / (2.0 * model.b)
    edge = _basis_rows(model, N, np.array([2.0 * model.b * radius]))
    assert np.max(np.abs(edge)) <= 1e-16
    nodes, weights = np.polynomial.legendre.leggauss(order)
    r = 0.5 * radius * (nodes + 1.0)
    dual = _basis_rows(model, N, 2.0 * model.b * r) / r[None, :]
    f = np.array([complex(mpmath.coulombf(lam, eta, k * ri)) for ri in r])
    if complex(E).imag == 0.0:
        f = f.real
    return dual @ (0.5 * radius * weights * f)


def test_free_overlap_matches_mpmath_quadrature():
    model = charged(2)
    phi = free_overlap(model, 30.0, 40)
    assert np.max(np.abs(phi - _mp_overlap(model, 30.0, 40))) <= 1e-9
    # continued below the axis: the l = 0 resonance and a deeper energy
    for E in (complex(E_RES, -HW), 0.5 - 0.01j):
        phi = free_overlap(charged(0), E, 40)
        want = _mp_overlap(charged(0), E, 40)
        assert np.max(np.abs(phi - want)) <= 1e-12 * np.max(np.abs(want))


def test_free_overlap_of_size_zero_is_phi_0():
    # N = 0 reads no rows: the vector is the closed-form start alone
    for E in (30.0, 0.5 - 0.01j):
        first = free_overlap(charged(0), E, 0)
        full = free_overlap(charged(0), E, 40)
        assert first.shape == (1,) and first.dtype == full.dtype
        assert first.tobytes() == full[:1].tobytes()


def test_free_overlap_extreme_sommerfeld_parameter():
    # alpha-alpha l = 0 at E = 0.0015 MeV has eta = 23.1
    model = charged(0)
    k = wavenumber(model, 0.0015).real
    assert model.Z * model.e2 * model.m / (model.hbar**2 * k) > 23.0
    phi = free_overlap(model, 0.0015, 40)
    want = _mp_overlap(model, 0.0015, 40, order=300)
    for n in (0, 20, 40):
        assert abs(phi[n] - want[n]) <= 1e-12 * abs(want[n])


def test_free_overlap_general_dimension():
    # in D dimensions the regular wave is F_lam with lam = l + (D-3)/2
    E, N = 1.0, 20
    for D in (2, 3, 4):
        for l in (0, 1):
            model = CoulombModel(Z=4, l=l, D=D, b=4.0, m=MASS, e2=1.44)
            phi = free_overlap(model, E, N)
            op = coulomb_jacobi(model, complex(E))
            for m in range(N):
                terms = [op.diag(m) * phi[m], op.offdiag(m) * phi[m + 1]]
                if m > 0:
                    terms.append(op.offdiag(m - 1) * phi[m - 1])
                assert abs(sum(terms)) <= 1e-12 * max(map(abs, terms))
            want = _mp_overlap(model, E, N, order=300)
            assert np.max(np.abs(phi - want)) <= 1e-12 * np.max(np.abs(want))


def test_free_overlap_envelope_decays():
    for l in (0, 2):
        model = charged(l)
        for E in (5.0, 30.0):
            phi = np.abs(free_overlap(model, E, 40))
            assert np.max(phi[30:41]) < np.max(phi[20:31])


def test_free_overlap_validation(builds):
    with pytest.raises(ValueError):
        free_overlap(neutral(), 0.0, 10)
    with pytest.raises(ValueError):
        free_overlap(neutral(), -2.0, 10)
    # a non-finite energy is refused before any operator is built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, complex(math.nan, -1.0),
                    complex(1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                free_overlap(charged(0), bad, 10)
    assert builds == []


def test_overlaps_solve_the_leading_rows_of_the_block():
    # J Phi = c e_N (J-matrix identity): the overlaps solve rows 0..N-1
    # of the corrected block, whose last row alone is left over
    N = 30
    for D in (2, 3, 4):
        for l in (0, 2):
            model = CoulombModel(Z=4, l=l, D=D, b=4.0, m=MASS, e2=1.44)
            for E in (0.05, 5.0, 30.0, 0.5 - 0.01j, 3.0 - 0.6j, 2.0 + 0.4j):
                block = corrected_truncation(coulomb_jacobi(model, E), N + 1,
                                             SheetSelector.PHYSICAL)
                rows = np.abs(block @ free_overlap(model, E, N))
                assert np.max(rows[:-1]) <= 1e-13 * np.max(rows)


def test_complex_overlap_continuous_at_axis():
    model = charged(2)
    for E in (3.0, 12.0):
        a = free_overlap(model, E, 40)
        b = free_overlap(model, complex(E, -1e-10), 40)
        assert np.max(np.abs(a - b)) <= 1e-9


# ---------------------------------------------------------------------------
# determinant zeros: bound states


def test_zero_potential_attractive_charge_recovers_coulomb_levels():
    model = CoulombModel(Z=-1, l=0, b=1.0, m=0.5, e2=1.0)
    p = ScatterProblem(model, ZERO_V, 20)
    got = find_bound_states(p, -0.3, -0.006, n_grid=400)
    want = sorted(-0.25 / n**2 for n in range(1, 7))
    assert len(got) == 6
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10
    # the pole scan of the bare Coulomb block finds the same zeros
    scanned = det_pole_scan(lambda E: coulomb_jacobi(model, E), -0.3, -0.006,
                            size=21)
    assert len(scanned) == 6
    assert max(abs(s - g) for s, g in zip(scanned, got)) <= 1e-12


def test_bound_state_grid_raises_first_failure_in_grid_order(monkeypatch):
    # the grid is one batch of lanes; as with one det_equation call per
    # grid energy, the first failing energy in grid order raises its error
    p = table_problem(8)
    grid = [float(x) for x in np.linspace(-35.0, -25.0, 40)]
    build = scatter_module.coulomb_jacobi

    def failing(model, E):
        if E == grid[30]:
            raise QuadratureSuspect("later in grid order")
        if E == grid[10]:
            raise ZeroOffdiagonal(0, "first in grid order")
        return build(model, E)

    monkeypatch.setattr(scatter_module, "coulomb_jacobi", failing)
    with pytest.raises(ZeroOffdiagonal, match="first in grid order"):
        find_bound_states(p, -35.0, -25.0, n_grid=40)
    # an error met while polishing propagates as well
    on_grid = set(grid)

    def polish_fails(model, E):
        if complex(E).real not in on_grid:
            raise QuadratureSuspect("while polishing")
        return build(model, E)

    monkeypatch.setattr(scatter_module, "coulomb_jacobi", polish_fails)
    with pytest.raises(QuadratureSuspect, match="while polishing"):
        find_bound_states(p, -35.0, -25.0, n_grid=40)
    monkeypatch.setattr(scatter_module, "coulomb_jacobi", build)
    assert find_bound_states(p, -35.0, -25.0, n_grid=40) == [
        bound_levels(8)[1]]


def test_find_bound_states_rejects_degenerate_grid():
    with pytest.raises(ValueError, match="grid"):
        find_bound_states(table_problem(8), -35.0, -25.0, n_grid=1)
    # a window that reaches threshold holds no bound state to find
    for lo, hi in ((1.0, 5.0), (-5.0, 0.0), (-5.0, math.nan)):
        with pytest.raises(ValueError, match="< 0"):
            find_bound_states(table_problem(20), lo, hi)


def test_det_equation_sheet_validation():
    p = charged_problem(20, 0)
    with pytest.raises(ValueError):
        det_equation(p, complex(1.0, -0.5))
    val = det_equation(p, complex(5.0))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_non_finite_determinant_energies_rejected(builds):
    p = charged_problem(20, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: det_equation(p, math.nan),
                     lambda: det_equation(p, math.inf),
                     lambda: total_green(p, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                call()
    assert builds == []


def test_non_finite_search_windows_rejected(builds):
    p = charged_problem(20, 2)
    families = []

    def family(E):
        families.append(E)
        return coulomb_jacobi(CoulombModel(Z=-1.0, b=1.2), E)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for corner in (complex(math.nan, -1.0), complex(3.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                find_resonances(p, (corner, complex(3.4, -0.3)),
                                seeds=(1, 1))
        with pytest.raises(ValueError, match="finite"):
            find_bound_states(table_problem(20), -math.inf, -1.0)
        with pytest.raises(ValueError, match="finite"):
            det_pole_scan(family, -math.inf, -0.04, size=3)
    assert builds == [] and families == []


def test_bound_state_table():
    for N in NS:
        for got, want in zip(bound_levels(N), BOUND_TABLE[N]):
            assert abs(got - want) <= 1e-9


def test_bound_state_convergence_monotone():
    for j in range(3):
        _assert_converging({N: bound_levels(N)[j] for N in NS},
                           abs(BOUND_TABLE[40][j]))


def test_bound_state_count_by_channel():
    cases = (
        (charged_problem(40, 0), 2),
        (charged_problem(40, 2), 1),
        (charged_problem(40, 4), 0),
        (table_problem(40, 0), 3),
        (table_problem(40, 2), 1),
    )
    for p, expect in cases:
        assert len(find_bound_states(p, -85.0, -1e-3, n_grid=250)) == expect


def test_bound_states_invariant_under_basis_scale():
    for b in (3.0, 5.0):
        p = table_problem(40, 0, b)
        got = (find_bound_states(p, -85.0, -70.0, n_grid=40)
               + find_bound_states(p, -35.0, -25.0, n_grid=40)
               + find_bound_states(p, -2.6, -0.8, n_grid=40))
        for x, y in zip(got, bound_levels(40)):
            assert abs(x - y) <= 1e-6


# ---------------------------------------------------------------------------
# determinant zeros: resonances


def test_resonance_table_l0():
    for N in NS:
        got, want = res_l0(N), RES_L0[N]
        assert abs(got.real - want.real) <= 1e-8
        assert abs(got.imag - want.imag) <= 1e-8


def test_resonance_table_l2():
    for N in NS:
        got, want = res_l2(N), RES_L2[N]
        assert abs(got.real - want.real) <= 1e-4
        assert abs(got.imag - want.imag) <= 1e-4


def test_resonance_l4():
    p = charged_problem(40, 4)
    found = find_resonances(p, _res_region(RES_L4_40), seeds=(1, 1))
    got = min(found, key=lambda z: abs(z - RES_L4_40))
    assert abs(got.real - RES_L4_40.real) <= 1e-4
    assert abs(got.imag - RES_L4_40.imag) <= 1e-4


def test_resonance_convergence_monotone():
    _assert_converging({N: res_l0(N) for N in NS}, abs(RES_L0[40]))
    _assert_converging({N: res_l2(N) for N in NS}, abs(RES_L2[40]))


def test_find_resonances_validation_and_dedup():
    p = charged_problem(20, 2)
    with pytest.raises(ValueError):
        find_resonances(p, (complex(2.0, -1.0), complex(3.0, 0.5)))
    found = find_resonances(p, (complex(2.4, -1.0), complex(3.4, -0.3)),
                            seeds=(3, 2))
    assert len(found) == 1


def test_find_resonances_drops_roots_outside_rectangle():
    # the seed at 2.9-0.425j converges to the l=2 resonance at
    # 2.8892-0.6206j, below the rectangle's lower side
    p = charged_problem(20, 2)
    assert find_resonances(p, (complex(2.4, -0.55), complex(3.4, -0.3)),
                           seeds=(1, 1)) == []


def test_find_resonances_drops_seeds_whose_determinant_raises(monkeypatch):
    p = charged_problem(20, 2)
    region = (complex(2.4, -1.0), complex(3.4, -0.3))
    (want,) = find_resonances(p, region, seeds=(3, 2))
    det, refused = scatter_module.det_equation, []

    def refuses_left(q, z, sheet):
        # the seeds at Re z = 2.65 fail; those at 2.9 and 3.15 converge
        if z.real < 2.7:
            refused.append(z)
            raise SingularMatrix(f"refused at {z}")
        return det(q, z, sheet)

    monkeypatch.setattr(scatter_module, "det_equation", refuses_left)
    (got,) = find_resonances(p, region, seeds=(3, 2))
    assert len(refused) >= 2 and abs(got - want) <= 1e-8

    def fails(q, z, sheet):
        raise SingularMatrix("refused")

    monkeypatch.setattr(scatter_module, "det_equation", fails)
    assert find_resonances(p, region, seeds=(3, 2)) == []

    def breaks(q, z, sheet):
        raise RuntimeError("not a package error")

    monkeypatch.setattr(scatter_module, "det_equation", breaks)
    with pytest.raises(RuntimeError, match="not a package error"):
        find_resonances(p, region, seeds=(3, 2))


def test_find_resonances_rejects_empty_seed_grid():
    p = charged_problem(20, 2)
    with pytest.raises(ValueError, match="seed"):
        find_resonances(p, (complex(2.4, -1.0), complex(3.4, -0.3)),
                        seeds=(0, 4))


def test_root_searches_need_integer_sizes(builds):
    # a bool or a float grid size is refused by name before any operator
    # is built; a float used to fail with a bare TypeError in np.linspace,
    # and seeds=(True, 1) ran a one-seed search
    p = charged_problem(20, 2)
    region = (complex(2.4, -1.0), complex(3.4, -0.3))
    for seeds in ((1.5, 1), (True, 1), (1, 2.0)):
        with pytest.raises(ValueError, match=r"seeds\[[01]\]"):
            find_resonances(p, region, seeds=seeds)
    for n_grid in (40.0, True):
        with pytest.raises(ValueError, match="n_grid"):
            find_bound_states(table_problem(8), -35.0, -25.0, n_grid=n_grid)
    assert builds == []
    assert find_bound_states(table_problem(8), -35.0, -25.0,
                             n_grid=np.int64(40)) == [bound_levels(8)[1]]


# ---------------------------------------------------------------------------
# Green's matrix of the full Hamiltonian


def _g00_reference(model, E, k):
    # closed hypergeometric form of the leading Coulomb Green's element,
    # evaluated at the requested wavenumber branch with mpmath
    gam = model.Z * model.e2 * model.m / (model.hbar**2 * k)
    z = ((model.b + 1j * k) / (model.b - 1j * k)) ** 2
    a = -model.l - (model.D - 3) / 2.0 + 1j * gam
    c = model.l + (model.D + 1) / 2.0 + 1j * gam
    pref = -4.0 * model.m * model.b \
        / (model.hbar**2 * (model.b - 1j * k) ** 2)
    h = complex(mpmath.hyp2f1(complex(a), 1.0, complex(c), complex(z)))
    return pref / (model.l + (model.D - 1) / 2.0 + 1j * gam) * h


def test_deep_sheet_green_element_matches_reference():
    cases = ((0, 0.09197 - 2.8592e-6j), (2, 2.88925 - 0.62061j),
             (4, 11.791038 - 1.788957j))
    for l, E in cases:
        model = charged(l)
        p = ScatterProblem(model, ZERO_V, 40)
        k = complex(wavenumber(model, E))
        gu = total_green(p, E, SheetSelector.UNPHYSICAL).entries[0, 0]
        wu = _g00_reference(model, E, k)
        assert abs(gu - wu) / abs(wu) <= 1e-10
        gp = total_green(p, E, SheetSelector.PHYSICAL).entries[0, 0]
        wp = _g00_reference(model, E, -k)
        assert abs(gp - wp) / abs(wp) <= 1e-10


def test_sheet_routes_consistent_near_axis():
    # just below the cut the fixed-point tail continuation is still
    # reliable, so it must agree with the rank-one jump construction
    p = charged_problem(40, 2)
    v = potential_matrix(p)
    for E in (3.0 - 1e-7j, 3.0 - 1e-5j):
        op = coulomb_jacobi(p.model, E)
        corner = corrected_truncation(op, p.N + 1, SheetSelector.UNPHYSICAL)
        want = complex(np.linalg.det(corner - v))
        got = det_equation(p, E, SheetSelector.UNPHYSICAL)
        assert abs(got - want) / abs(want) <= 1e-10
        # the jump is a scalar in the corner of the physical block
        jump, _ = scatter_module._inverse_green_block(
            p, E, SheetSelector.UNPHYSICAL)
        physical = corrected_truncation(op, p.N + 1, SheetSelector.PHYSICAL)
        assert jump[-1, -1] != physical[-1, -1]
        jump[-1, -1] = physical[-1, -1]
        assert jump.tobytes() == physical.tobytes()


def test_total_green_zero_potential_is_bare_green():
    model = charged(0)
    p = ScatterProblem(model, ZERO_V, 40)
    g = total_green(p, 5.0)
    assert g.sheet is SheetSelector.PHYSICAL
    assert g.n == 41 and g.energy == 5.0 + 0.0j
    bare = green_submatrix(coulomb_jacobi(model, complex(5.0)), 41,
                           SheetSelector.PHYSICAL).entries
    scale = np.max(np.abs(bare))
    assert np.max(np.abs(g.entries - bare)) <= 1e-9 * scale


def test_total_green_pole_surface_l2():
    p = charged_problem(20, 2)
    res = np.linspace(2.4, 3.4, 11)
    ims = np.linspace(-1.0, -0.3, 8)
    surf = np.array([[abs(det_equation(p, complex(re, im),
                                       SheetSelector.UNPHYSICAL))
                      for im in ims] for re in res])
    i, j = np.unravel_index(np.argmin(surf), surf.shape)
    assert abs(complex(res[i], ims[j]) - RES_L2[20]) <= 0.1
    interior = sum(
        1 for a in range(1, 10) for b in range(1, 7)
        if surf[a, b] < surf[a - 1, b] and surf[a, b] < surf[a + 1, b]
        and surf[a, b] < surf[a, b - 1] and surf[a, b] < surf[a, b + 1])
    assert interior == 1


def test_total_green_grows_at_resonance_pole():
    p = charged_problem(20, 2)
    z = res_l2(20)
    assert abs(det_equation(p, z, SheetSelector.UNPHYSICAL)) \
        <= 1e-6 * abs(det_equation(p, z + 0.05 - 0.05j,
                                   SheetSelector.UNPHYSICAL))
    near = total_green(p, z + 1e-3, SheetSelector.UNPHYSICAL)
    far = total_green(p, z + 0.3, SheetSelector.UNPHYSICAL)
    assert abs(near.entries[0, 0]) > 50.0 * abs(far.entries[0, 0])
    # determinant of the inverse is the reciprocal determinant
    prod = det_equation(p, z + 1e-3, SheetSelector.UNPHYSICAL) \
        * np.linalg.det(near.entries)
    assert abs(prod - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# scattering solution and phase shifts


def test_scatter_solve_zero_potential_identity():
    model = charged(0)
    p = ScatterProblem(model, ZERO_V, 30)
    psi, amp = scatter_solve(p, 5.0)
    phi = free_overlap(model, 5.0, 30)
    assert amp == 0.0
    assert np.max(np.abs(psi - phi)) <= 1e-13


def test_scatter_solve_validation():
    with pytest.raises(ValueError):
        scatter_solve(charged_problem(20, 0), 0.0)
    with pytest.raises(ValueError):
        scatter_solve(charged_problem(20, 0), -3.0)


def test_short_range_s_matrix_unitary():
    cases = [(charged_problem(40, 0, alpha=5.2), E)
             for E in (0.5, 5.0, 25.0)]
    rng = np.random.default_rng(7)
    cases += [(charged_problem(25, 0, alpha=5.2),
               float(0.05 * (200.0 / 0.05) ** u))
              for u in rng.random(3)]
    # in D = 2 and 4 the regular wave and the Coulomb phase take
    # lam = l + (D-3)/2
    cases += [(ScatterProblem(CoulombModel(Z=4, l=0, D=D, b=4.0, m=MASS,
                                           e2=1.44), SHORT_AA, 25,
                              smoothing=SmoothingScheme(alpha=5.2)), E)
              for D in (2, 4) for E in (0.5, 5.0)]
    for p, E in cases:
        # Psi solves (1 - G^C V) Psi = Phi, G^C the inverted Coulomb block
        psi, _ = scatter_solve(p, E)
        phi = free_overlap(p.model, E, p.N)
        g = np.linalg.inv(corrected_truncation(
            coulomb_jacobi(p.model, complex(E)), p.N + 1,
            SheetSelector.PHYSICAL))
        residual = psi - g @ (potential_matrix(p) @ psi) - phi
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(phi))
        raw, eta, a = _amplitude_point(p, E)
        k = wavenumber(p.model, E).real
        s = 1.0 + 2j * k * a * cmath.exp(-2j * eta)
        assert abs(abs(s) - 1.0) <= 1e-8
        gamma = p.model.Z * p.model.e2 * p.model.m / (p.model.hbar**2 * k)
        lam = p.model.l + (p.model.D - 3) / 2.0
        g = complex(mpmath.gamma(lam + 1 + 1j * gamma))
        assert abs(cmath.exp(1j * eta) - g / abs(g)) <= 1e-12


def test_weak_attractive_potential_has_positive_phase():
    weak = ShortRangePotential(lambda r: -0.1 * np.exp(-r * r))
    p = ScatterProblem(neutral(), weak, 20)
    raw, eta, _ = _amplitude_point(p, 5.0)
    assert eta == 0.0
    assert 0.0 < raw < 0.5


def test_amplitude_finite_across_low_energies():
    p = charged_problem(40, 0, alpha=5.2)
    for E in np.linspace(0.05, 1.0, 20):
        _, _, a = _amplitude_point(p, float(E))
        k = wavenumber(p.model, float(E)).real
        assert np.isfinite(a.real) and np.isfinite(a.imag)
        assert abs(a) <= (1.0 + 1e-9) / k


def test_phase_matches_amplitude_at_single_energy():
    p = charged_problem(40, 0, alpha=5.2)
    pt = phase_shift(p, [10.0])[0]
    raw, eta, a = _amplitude_point(p, 10.0)
    assert -math.pi / 2 < pt.delta <= math.pi / 2
    assert abs(pt.delta - raw) <= 1e-9
    assert abs(pt.amplitude - a) <= 1e-12
    assert pt.eta == eta and pt.E == 10.0


def test_phase_shift_validation():
    p = charged_problem(20, 0, alpha=5.2)
    assert phase_shift(p, []) == []
    with pytest.raises(ValueError):
        phase_shift(p, [1.0, -2.0])
    with pytest.raises(ValueError):
        phase_shift(p, [5.0, 5.0])
    pts = phase_shift(p, [5.0, 10.0])
    assert [pt.E for pt in pts] == [5.0, 10.0]
    assert abs(pts[0].delta - pts[1].delta) < math.pi / 2


def test_sweep_points_equal_one_energy_calls():
    # the sweep's energies are one batch of lanes, and each point equals
    # the one-energy path bit for bit; the grid holds the two energies
    # whose depth-8 tails once ran to the term budget
    grid = sweep_grid(0)
    for straggler in (0.12715547, 0.15389395):
        assert min(abs(E - straggler) for E in grid) < 1e-8
    p = charged_problem(40, 0, alpha=5.2)
    for pt in phase_shift(p, grid):
        raw, eta, a = _amplitude_point(p, pt.E)
        assert float(pt.eta).hex() == float(eta).hex()
        assert (pt.amplitude.real.hex(), pt.amplitude.imag.hex()) \
            == (a.real.hex(), a.imag.hex())
        turns = round((pt.delta - raw) / math.pi)
        assert pt.delta.hex() == (raw + math.pi * turns).hex()


@pytest.mark.parametrize("l", [0, 2])
def test_sweep_scans_at_most_twice_the_terms_it_sums(monkeypatch, l):
    # the chunk schedule's waste: (position, lane) cells the kernel scans
    # against the terms its sums use; chunks growing 4n + 3 past 63
    # coefficients scanned 2.54 (l=0) and 2.35 (l=2) times the terms
    from jgreens import contfrac, jacobi

    work = {"cells": 0, "terms": 0}
    chunk, summed = contfrac._fraction_chunk, jacobi._sum_fractions

    def scanned(read, lanes, st, j0, size, *args):
        work["cells"] += size * len(lanes)
        return chunk(read, lanes, st, j0, size, *args)

    def counted(*args):
        out = summed(*args)
        work["terms"] += int(out[1].sum())
        return out

    monkeypatch.setattr(contfrac, "_fraction_chunk", scanned)
    monkeypatch.setattr(jacobi, "_sum_fractions", counted)
    phase_shift(charged_problem(40, l, alpha=5.2), sweep_grid(l))
    assert work["terms"] > 0
    assert work["cells"] <= 2.0 * work["terms"]


def test_sweep_raises_the_highest_failing_energy(monkeypatch):
    # the sweep is tracked from the top, and the first error met on the
    # way down is raised: that of the higher of two failing energies
    p = charged_problem(20, 0, alpha=5.2)
    grid = [1.0, 2.0, 3.0, 4.0, 5.0]
    build = scatter_module.coulomb_jacobi

    def failing(model, E):
        if E == 2.0:
            raise QuadratureSuspect("lower failing energy")
        if E == 4.0:
            raise ZeroOffdiagonal(0, "higher failing energy")
        return build(model, E)

    monkeypatch.setattr(scatter_module, "coulomb_jacobi", failing)
    with pytest.raises(ZeroOffdiagonal, match="higher failing energy"):
        phase_shift(p, grid)
    with pytest.raises(QuadratureSuspect, match="lower failing energy"):
        phase_shift(p, grid[:3])


def test_sweep_builds_each_operator_once(builds):
    # the overlaps come from the rows the sweep's batch already read
    grid = sweep_grid(0)
    phase_shift(charged_problem(20, 0, alpha=5.2), grid)
    assert sorted(E.real for E in builds) == grid


def test_non_finite_energies_rejected_before_any_lane(builds):
    p = charged_problem(20, 0, alpha=5.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                phase_shift(p, [1.0, bad])
            with pytest.raises(ValueError, match="finite"):
                scatter_solve(p, bad)
        with pytest.raises(ValueError, match="finite"):
            phase_shift(p, [math.nan, 1.0])
    assert builds == []


def test_zero_potential_phase_identically_zero():
    p = ScatterProblem(charged(0), ZERO_V, 20)
    for pt in phase_shift(p, [1.0, 5.0, 20.0]):
        assert pt.delta == 0.0


def test_phase_shift_table_row_n40():
    sweep = phase_sweep(0)
    for E, want in zip(PHASE_ENERGIES, PHASE_TABLE[40]):
        assert abs(sweep[E] - want) <= 1e-5


def test_phase_shift_table_converged_rows():
    sweep = phase_sweep(0)
    for N in (25, 28, 30, 35):
        for j, E in enumerate(PHASE_ENERGIES):
            rec = sweep[E] + _fold(raw_phases(N)[j] - raw_phases(40)[j])
            assert abs(rec - PHASE_TABLE[N][j]) <= 1e-5


def test_phase_shift_convergence_monotone():
    for j in range(3):
        vals = {N: _fold(raw_phases(N)[j] - raw_phases(40)[j]) for N in NS}
        _assert_converging(vals, abs(PHASE_TABLE[40][j]))


def test_levinson_limits_and_high_energy_anchor():
    sweep = phase_sweep(0)
    assert abs(sweep[0.006] - 2.0 * math.pi) < 0.05
    assert abs(sweep[1000.0]) < 1.2
    assert abs(phase_sweep(2)[0.006] - math.pi) < 0.05
    assert abs(phase_sweep(4)[0.006]) < 0.05


def test_phase_rises_by_pi_across_narrow_resonance():
    sweep = phase_sweep(0)
    rise = sweep[E_RES + 10.0 * HW] - sweep[E_RES - 10.0 * HW]
    assert rise > 0.9 * math.pi


def test_smoothing_accelerates_phase_convergence():
    # damping the expansion edge removes the truncation oscillation that
    # still distorts the raw N = 16 phase at E = 10 MeV
    raw40 = raw_phases(40)
    p_smooth = ScatterProblem(charged(0), SHORT_AA, 16,
                              smoothing=SmoothingScheme(alpha=5.2))
    p_hard = ScatterProblem(charged(0), SHORT_AA, 16,
                            smoothing=SmoothingScheme(enabled=False))
    anchor = _amplitude_point(charged_problem(40, 0, alpha=5.2), 10.0)[0]
    d_smooth = abs(_fold(_amplitude_point(p_smooth, 10.0)[0] - anchor))
    d_hard = abs(_fold(_amplitude_point(p_hard, 10.0)[0] - anchor))
    assert d_smooth < 1e-3
    assert d_hard > 1e-2
    p20 = charged_problem(20, 0, alpha=5.2)
    assert abs(_fold(_amplitude_point(p20, 10.0)[0] - anchor)) < 1e-4


def test_phase_shift_flags_branch_ambiguity():
    # bisect onto the energy whose tracked gap from E = 5 reaches half a
    # period; there the nearest-branch choice is genuinely ambiguous
    p = charged_problem(25, 0, alpha=5.2)
    base = _amplitude_point(p, 5.0)[0]

    def gap(E2):
        return _fold(_amplitude_point(p, E2)[0] - base)

    lo, hi = 10.0, 30.0
    assert gap(lo) < 0.0 < gap(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(gap(hi)) >= math.pi / 2 - 1e-6
    with pytest.raises(GridTooCoarse) as exc:
        phase_shift(p, [5.0, hi])
    assert exc.value.interval == (5.0, hi)
