"""Tests for the special-function kernels."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.special

from jgreens.errors import CoulombWaveFailure, HypergeometricNoConverge
from jgreens.special import (
    _laguerre_functions,
    coulomb_f,
    coulomb_sigma,
    gauss_laguerre_scaled,
    gauss_legendre,
    genlaguerre_table,
    hyp2f1,
)

mpmath.mp.dps = 30


def mp_hyp2f1(a, b, c, z) -> complex:
    return complex(mpmath.hyp2f1(mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c), mpmath.mpc(z)))


# ---------------------------------------------------------------- hyp2f1


def test_hyp2f1_trivial_values():
    assert hyp2f1(0.7, 1.0, 2.3, 0.0) == 1.0 + 0j
    # 2F1(a, b; b; z) = (1-z)^(-a) holds for the plain series route
    got = hyp2f1(1.7, 2.0, 2.0, 0.35)
    assert got == pytest.approx((1 - 0.35) ** (-1.7), rel=1e-13)


def test_hyp2f1_log_identity():
    # 2F1(1, 1; 2; z) = -log(1-z)/z
    for z in (0.4, -0.7, 0.2 + 0.6j):
        got = hyp2f1(1.0, 1.0, 2.0, z)
        assert got == pytest.approx(-np.log(1 - z) / z, rel=1e-13)


def test_hyp2f1_terminating_polynomial():
    # a = -3 truncates the series after four terms
    a, c, z = -3.0, 1.7 + 0.4j, 0.96
    got = hyp2f1(a, 1.0, c, z)
    total = 1.0 + 0j
    term = 1.0 + 0j
    for n in range(3):
        term *= (a + n) * (1 + n) / ((c + n) * (1 + n)) * z
        total += term
    assert got == pytest.approx(total, rel=1e-14)


def test_hyp2f1_inside_disk_random():
    rng = np.random.default_rng(20260815)
    for _ in range(40):
        a = complex(rng.uniform(-4, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.5, 6), rng.uniform(-3, 3))
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5))
        got = hyp2f1(a, b, c, z)
        assert got == pytest.approx(mp_hyp2f1(a, b, c, z), rel=5e-12)


def test_hyp2f1_unit_circle_transform():
    # scattering-type arguments: |z| = 1 away from 1, reached via z/(z-1)
    rng = np.random.default_rng(42)
    for _ in range(25):
        a = complex(rng.uniform(-3, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(1.0, 5), rng.uniform(-2, 2))
        phi = rng.uniform(1.1, math.pi)
        z = complex(math.cos(phi), math.sin(phi))
        got = hyp2f1(a, 1.0, c, z)
        assert got == pytest.approx(mp_hyp2f1(a, 1.0, c, z), rel=5e-12)


def test_hyp2f1_left_plane_transform():
    rng = np.random.default_rng(99)
    for _ in range(20):
        a = complex(rng.uniform(-3, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(1.0, 5), rng.uniform(-2, 2))
        z = complex(rng.uniform(-8, -1), rng.uniform(-2, 2))
        got = hyp2f1(a, 1.0, c, z)
        assert got == pytest.approx(mp_hyp2f1(a, 1.0, c, z), rel=5e-12)


def test_hyp2f1_real_axis_fallback_above_090():
    # direct route is mandated off, transform argument leaves the disk,
    # fallback to the still-convergent series must kick in
    got = hyp2f1(0.8, 1.0, 2.6, 0.93)
    assert got == pytest.approx(mp_hyp2f1(0.8, 1.0, 2.6, 0.93), rel=1e-11)


def test_hyp2f1_near_one_raises():
    z = complex(math.cos(0.1), math.sin(0.1))
    with pytest.raises(HypergeometricNoConverge):
        hyp2f1(0.3 + 0.2j, 1.0, 2.0, z)


def test_hyp2f1_c_nonpositive_integer_raises():
    with pytest.raises(HypergeometricNoConverge):
        hyp2f1(0.5, 1.0, -2.0, 0.3)


# ---------------------------------------------------------------- coulomb_f


def test_coulomb_wave_against_reference_grid():
    worst = 0.0
    for l in (0, 1, 2, 4):
        for eta in (-1.5, -0.2, 0.0, 0.16, 1.0, 2.83, 4.3):
            for rho in (0.05, 0.5, 1.0, 3.0, 6.0, 9.0, 11.9, 12.5, 14.0, 20.0, 50.0, 120.0):
                got = coulomb_f(l, eta, rho)
                ref = float(mpmath.coulombf(l, eta, rho))
                err = abs(got - ref) / max(abs(ref), 1e-3)
                worst = max(worst, err)
    assert worst < 1e-9


def test_coulomb_wave_dense_oscillatory_sweep():
    # dense rho sweep crosses many nodes; catches any sign-tracking slip
    for eta in (0.0, 0.9, 2.83):
        for rho in np.arange(12.1, 80.0, 1.7):
            got = coulomb_f(0, eta, float(rho))
            ref = float(mpmath.coulombf(0, eta, rho))
            assert got == pytest.approx(ref, abs=1e-10 + 1e-10 * abs(ref))


def test_coulomb_wave_free_limit_is_riccati_bessel():
    for l in (0, 2, 4):
        for rho in (0.3, 7.0, 25.0):
            got = coulomb_f(l, 0.0, rho)
            ref = rho * scipy.special.spherical_jn(l, rho)
            assert got == pytest.approx(ref, abs=1e-12)


def test_coulomb_wave_extreme_eta_raises():
    with pytest.raises(CoulombWaveFailure):
        coulomb_f(0, 15.0, 5.0)


def test_coulomb_wave_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        coulomb_f(0, 1.0, 0.0)


def test_coulomb_sigma_matches_gamma_argument():
    # continuous branch; compare phase factors so 2*pi offsets cancel
    for l in (0, 1, 3):
        for eta in (-2.0, 0.37, 5.0):
            ref = complex(mpmath.exp(1j * mpmath.arg(mpmath.gamma(l + 1 + 1j * eta))))
            got = complex(np.exp(1j * coulomb_sigma(l, eta)))
            assert got == pytest.approx(ref, abs=1e-13)


def test_coulomb_sigma_vanishes_at_zero_eta():
    assert coulomb_sigma(2, 0.0) == 0.0


# ---------------------------------------------------------------- laguerre


def test_genlaguerre_table_against_scipy():
    x = np.linspace(0.01, 60.0, 37)
    tab = genlaguerre_table(25, 3.5, x)
    for k in (0, 1, 2, 7, 18, 25):
        ref = scipy.special.eval_genlaguerre(k, 3.5, x)
        assert np.max(np.abs(tab[k] - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-10


def test_genlaguerre_table_scalar_shape():
    tab = genlaguerre_table(3, 0.0, np.array(2.0))
    assert tab.shape == (4,)
    assert tab[1] == pytest.approx(-1.0)


def _plain_laguerre(n_max, alpha, x):
    # the upward recurrence with no rescaling: the reference values
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    out[1] = 1.0 + alpha - x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_max):
            out[k + 1] = ((2 * k + 1 + alpha - x) * out[k]
                          - (k + alpha) * out[k - 1]) / (k + 1)
    return out


def test_genlaguerre_table_equals_the_plain_recurrence():
    # bit for bit wherever the plain recurrence stays finite, values past
    # the 1e100 rescaling included; finite where only its steps overflowed
    x = np.concatenate([np.linspace(0.0, 60.0, 25),
                        gauss_laguerre_scaled(800)[0]])
    for n_max, alpha in ((1, 0.5), (40, 1.0), (250, 2.0), (400, 1.0)):
        plain = _plain_laguerre(n_max, alpha, x)
        with np.errstate(over="ignore"):
            tab = genlaguerre_table(n_max, alpha, x)
        finite = np.isfinite(plain)
        assert tab[finite].tobytes() == plain[finite].tobytes()
        assert np.isfinite(tab[:, np.isfinite(plain[-1])]).all()
    assert (np.abs(plain[finite]) > 1e100).any()


def test_laguerre_functions_rows_do_not_depend_on_the_top_index():
    # the far nodes of an order-800 rule (x up to about 3150) overflowed
    # the table past row 190 or so; rows are now rescaled per node
    x = gauss_laguerre_scaled(800)[0]
    top = _laguerre_functions(300, 1.0, x, 1.0)
    assert np.isfinite(top).all()
    for n in (0, 1, 40, 189, 190, 250):
        assert _laguerre_functions(n, 1.0, x, 1.0).tobytes() \
            == top[:n + 1].tobytes()
    # against the product form where its factors are normal doubles
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        norms = np.array([math.exp(0.5 * (math.lgamma(n + 1)
                                           - math.lgamma(n + 2)))
                          for n in range(301)])[:, None]
        env = x * np.exp(-0.5 * x)
        direct = norms * _plain_laguerre(300, 1.0, x) * env
    fine = np.isfinite(direct) & (env >= np.finfo(float).tiny) \
        & (np.abs(direct) >= np.finfo(float).tiny)
    assert fine[:, x > 1000].sum() > 10000
    assert np.allclose(top[fine], direct[fine], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------- quadrature


def _run_fresh(code):
    """Run ``code`` in a new interpreter that imports this jgreens; the
    process exits 0 when its checks pass."""
    src = os.path.dirname(os.path.dirname(
        sys.modules["jgreens.special"].__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_quadrature_set_up_leaves_scipy_linalg_unloaded():
    # the rule takes its start nodes from numpy: a potential matrix, which
    # builds two rules, imports no scipy.linalg (about 5 MB of resident
    # memory, and set-up time, in every process that builds one)
    _run_fresh("import sys\n"
               "from jgreens.models import CoulombModel\n"
               "from jgreens.scatter import ScatterProblem, "
               "alpha_alpha_potential, potential_matrix\n"
               "potential_matrix(ScatterProblem(CoulombModel(Z=4, b=4.0), "
               "alpha_alpha_potential()[1], 8))\n"
               "sys.exit('scipy.linalg' in sys.modules)\n")


def test_import_and_scipy_free_paths_load_no_scipy():
    # scipy.special alone adds about 25 MB of resident memory and 0.2 s to
    # a process; a Gaussian-only level search and an oscillator contour
    # convolution use none of scipy, so no scipy module may load for them
    _run_fresh("""
import sys
import numpy as np
import jgreens as jg

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_loaded(), scipy_loaded()
model = jg.CoulombModel(Z=0, l=0, b=4.0, m=1.0, e2=1.44)
gauss = jg.ShortRangePotential(lambda r: -122.694 * np.exp(-0.22 * r * r))
p = jg.ScatterProblem(model, gauss, 8, smoothing=jg.SmoothingScheme(6.0))
assert len(jg.find_bound_states(p, -85.0, -0.5, n_grid=40)) >= 1
osc = jg.OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
family = lambda z: jg.oscillator_jacobi(osc, z)
ring = jg.encircle_points([1.5], 0.1, 40)
assert np.isfinite(jg.convolve_greens(family, family, 2.2, ring, 3, 3)).all()
assert not scipy_loaded(), scipy_loaded()
""")


# Each case runs in a new process that has loaded no scipy: ``code``, the
# first use, sets ``got``; it must load scipy.special and bind ``bound``
# (a name in jgreens.scatter or jgreens.special) to its function there.
# ``want``, evaluated after, must equal ``got`` by float.hex. The radii
# include 0 (the limit of the erf tail) and a far one.
_FIRST_USE = {
    "full": (
        "full, _ = jg.alpha_alpha_potential()\n"
        "x = np.array(R)\n"
        "got = [full(r) for r in R] + list(full(x))",
        "scatter.erf",
        "[float(v) for v in np.where("
        "x == 0.0, 5.76 * 1.5 / math.sqrt(math.pi), 5.76 * sp.erf(0.75 * x)"
        " / x) - 122.694 * np.exp(-0.22 * x * x)] * 2"),
    "short": (
        "short = jg.alpha_alpha_potential()[1].v\n"
        "x = np.array(R[1:])\n"
        "got = [short(r) for r in R[1:]] + list(short(x))",
        "scatter.erfc",
        "[float(v) for v in -122.694 * np.exp(-0.22 * x * x)"
        " - 5.76 * sp.erfc(0.75 * x) / x] * 2"),
    "coulomb_sigma": (
        "cases = [(0, 0.3), (2, 1.7), (5, -40.0), (0, 250.0)]\n"
        "got = [special.coulomb_sigma(l, eta) for l, eta in cases]",
        "special.loggamma",
        "[float(sp.loggamma(complex(l + 1, eta)).imag) for l, eta in cases]"),
    "free_overlap real E": (
        "model = jg.CoulombModel(Z=4, l=2, b=4.0, m=3727.379, e2=1.44)\n"
        "got = list(jg.free_overlap(model, 0.7, 12))",
        "scatter.loggamma",
        "list(jg.free_overlap(model, 0.7, 12))"),
    "free_overlap complex E": (
        "model = jg.CoulombModel(Z=4, l=0, b=4.0, m=3727.379, e2=1.44)\n"
        "got = list(jg.free_overlap(model, 0.09 - 2e-6j, 12))",
        "scatter.loggamma",
        "list(jg.free_overlap(model, 0.09 - 2e-6j, 12))"),
}


@pytest.mark.parametrize("case", sorted(_FIRST_USE))
def test_first_use_loads_scipy_special_and_keeps_values(case):
    # a free overlap's reference is its second call, which finds
    # scipy.special's loggamma bound in jgreens.scatter
    code, bound, want = _FIRST_USE[case]
    module, name = bound.split(".")
    _run_fresh(f"""
import math, sys
import numpy as np
import jgreens as jg
from jgreens import scatter, special
R = [0.0, 0.3, 1.0, 2.5, 7.0, 40.0]
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
{code}
assert "scipy.special" in sys.modules
import scipy.special as sp
assert {module}.{name} is sp.{name}
hexes = lambda vs: [(complex(v).real.hex(), complex(v).imag.hex()) for v in vs]
assert hexes(got) == hexes({want}), (got, {want})
""")


def test_gauss_laguerre_scaled_matches_scipy_low_order():
    x, w = gauss_laguerre_scaled(64)
    xr, wr = scipy.special.roots_laguerre(64)
    assert np.max(np.abs(x - xr) / xr) < 1e-12
    scaled_ref = wr * np.exp(xr)
    assert np.max(np.abs(w - scaled_ref) / scaled_ref) < 1e-10


@pytest.mark.parametrize("order", [200, 400])
def test_gauss_laguerre_scaled_moments_high_order(order):
    x, w = gauss_laguerre_scaled(order)
    assert np.all(np.isfinite(w))
    for k in (0, 1, 5, 12, 25):
        val = float(np.sum(w * x**k * np.exp(-x)))
        assert val == pytest.approx(math.factorial(k), rel=1e-10)


def test_gauss_laguerre_scaled_exponential_integral():
    # integral of exp(-3x) over [0, inf) = 1/3 with the weight absorbed
    x, w = gauss_laguerre_scaled(200)
    val = float(np.sum(w * np.exp(-3.0 * x)))
    assert val == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_gauss_legendre_cached_polynomial_exactness():
    x, w = gauss_legendre(24)
    assert float(np.sum(w * x**8)) == pytest.approx(2.0 / 9.0, rel=1e-13)
    again_x, _ = gauss_legendre(24)
    assert again_x is x
