"""Tests for continued fraction evaluation and transforms."""

import itertools
import math

import numpy as np
import pytest

from jgreens.contfrac import (
    ContinuedFraction,
    Recurrence,
    TailOrigin,
    TailValue,
    ZERO_TAIL,
    _chunks,
    _prefix_products,
    bauer_muir,
    eval_backward,
    eval_forward,
    fixed_points,
    forward_approximants,
    pincherle_ratio,
    repeated_bauer_muir,
)
from jgreens.errors import (
    DegenerateTransform,
    DivisionByZero,
    NoMinimalSolution,
    NotConverged,
    NumericBreakdown,
)
from jgreens.jacobi import SheetSelector, cf_coefficients, tail_ratio
from jgreens.models import (
    CoulombModel,
    OscillatorModel,
    coulomb_jacobi,
    oscillator_jacobi,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def bessel_j_series(nu: int, x: float) -> float:
    # independent power-series oracle: J_nu(x) = sum_m (-1)^m/(m! (m+nu)!) (x/2)^(2m+nu)
    total = 0.0
    for m in range(40):
        term = (-1.0) ** m / (math.factorial(m) * math.factorial(m + nu))
        total += term * (x / 2.0) ** (2 * m + nu)
    return total


def unit_fraction() -> ContinuedFraction:
    return ContinuedFraction.from_function(0.0, lambda i: (1.0, 1.0))


# ---------------------------------------------------------------- backward


def test_backward_bombelli():
    cf = ContinuedFraction.from_lists(3.0, [4.0, 4.0], [6.0, 6.0])
    assert eval_backward(cf, 2, ZERO_TAIL) == pytest.approx(3.6, abs=1e-14)


def test_backward_empty_fraction_returns_leading_term():
    cf = ContinuedFraction.from_lists(5.0, [], [])
    assert eval_backward(cf, 0, ZERO_TAIL) == 5.0
    assert eval_backward(cf, 0, TailValue(0.5)) == 5.5


def test_backward_golden_ratio():
    val = eval_backward(unit_fraction(), 40, ZERO_TAIL)
    assert val == pytest.approx(GOLDEN, abs=1e-9)


def test_backward_division_by_zero_reports_level():
    cf = ContinuedFraction.from_lists(0.0, [1.0, 1.0], [1.0, -1.0])
    # innermost level gives t = -1, so level 1 denominator is 1 + (-1) = 0
    with pytest.raises(DivisionByZero) as exc:
        eval_backward(cf, 2, ZERO_TAIL)
    assert exc.value.level == 1


def test_backward_truncates_at_finite_end():
    cf = ContinuedFraction.from_lists(3.0, [4.0, 4.0], [6.0, 6.0])
    assert eval_backward(cf, 10, ZERO_TAIL) == pytest.approx(3.6, abs=1e-14)


# ----------------------------------------------------------------- forward


def test_forward_bombelli_terminates_exactly():
    cf = ContinuedFraction.from_lists(3.0, [4.0, 4.0], [6.0, 6.0])
    res = eval_forward(cf, 1e-12, 100)
    assert res.value == pytest.approx(3.6, abs=1e-14)
    assert res.converged
    assert res.terms_used == 2
    assert res.last_delta == 0.0


def test_forward_empty_fraction_returns_leading_term():
    cf = ContinuedFraction.from_lists(5.0, [], [])
    for tail, value in ((ZERO_TAIL, 5.0), (TailValue(0.5), 5.5)):
        res = eval_forward(cf, 1e-12, 10, tail)
        assert (res.value, res.terms_used, res.converged,
                res.last_delta) == (value, 0, True, 0.0)
        assert list(forward_approximants(cf, tail)) == [(0, value)]
    # a recurrence whose map ends at N + 1 has the ratio -w
    ended = Recurrence(lambda n: (1.0, 1.0) if n <= 3 else [][0], (1.0, 1.0))
    assert pincherle_ratio(ended, 3) == -fixed_points(1.0, 1.0)[0].w


def test_forward_fibonacci_approximants():
    seen = {}
    for n, s in forward_approximants(unit_fraction()):
        seen[n] = s
        if n == 3:
            break
    assert seen[1] == pytest.approx(1.0)
    assert seen[2] == pytest.approx(0.5)
    assert seen[3] == pytest.approx(2.0 / 3.0)


def test_forward_converges_to_golden_ratio():
    res = eval_forward(unit_fraction(), 1e-12, 1000)
    assert res.converged
    assert res.value == pytest.approx(GOLDEN, abs=1e-11)
    assert res.last_delta <= 1e-12 * max(1.0, abs(res.value))


def test_forward_period_two_oscillation_flagged():
    cf = ContinuedFraction.from_function(0.0, lambda i: (1.0, 0.0))
    res = eval_forward(cf, 1e-12, 100)
    assert not res.converged
    assert math.isfinite(abs(res.value))


def test_forward_pole_approximants_yield_none():
    cf = ContinuedFraction.from_function(0.0, lambda i: (1.0, 0.0))
    vals = dict(s for _, s in zip(range(6), forward_approximants(cf))
                for s in [s])
    # odd approximants are poles, even ones vanish
    assert vals[1] is None
    assert vals[2] == 0.0
    assert vals[3] is None
    assert vals[4] == 0.0


def test_forward_respects_tail_value():
    cf = unit_fraction()
    for n, s in forward_approximants(cf, TailValue(0.25)):
        if n == 5:
            assert s == pytest.approx(eval_backward(cf, 5, TailValue(0.25)),
                                      abs=1e-14)
            break


# ------------------------------------------------------------ fixed points


def test_fixed_points_golden():
    att, rep = fixed_points(1.0, 1.0)
    assert att.w == pytest.approx(GOLDEN, abs=1e-12)
    assert rep.w == pytest.approx(-(math.sqrt(5.0) + 1.0) / 2.0, abs=1e-12)
    assert att.origin is TailOrigin.ATTRACTIVE_FIXED_POINT
    assert rep.origin is TailOrigin.REPULSIVE_FIXED_POINT


def test_fixed_points_degenerate_factorization():
    att, rep = fixed_points(0.0, 2.0)
    assert att.w == 0.0
    assert rep.w == pytest.approx(-2.0, abs=1e-14)


@pytest.mark.parametrize("k", [0.7, 2.0, 1.3 + 0.4j, 0.2 + 1.1j])
def test_fixed_points_match_scattering_closed_form(k):
    b = 1.5
    d = 2.0 * (k * k - b * b) / (k * k + b * b)
    att, rep = fixed_points(-1.0, d)
    w_plus = (b + 1j * k) ** 2 / (b * b + k * k)
    w_minus = (b - 1j * k) ** 2 / (b * b + k * k)
    assert att.w == pytest.approx(w_plus, abs=1e-12)
    assert rep.w == pytest.approx(w_minus, abs=1e-12)


def test_fixed_points_quadratic_residual_and_ordering():
    rng = np.random.default_rng(20260815)
    for _ in range(200):
        a = complex(*rng.uniform(-2.0, 2.0, 2))
        b = complex(*rng.uniform(-2.0, 2.0, 2))
        att, rep = fixed_points(a, b)
        scale = max(1.0, abs(att.w), abs(rep.w))
        assert abs(att.w * (b + att.w) - a) <= 1e-13 * scale * scale
        assert abs(rep.w * (b + rep.w) - a) <= 1e-13 * scale * scale
        assert abs(att.w) <= abs(rep.w) * (1.0 + 1e-13)


def _plain_fixed_points(a, b):
    """The fixed points as _fixed_point_arrays forms them where b^2 stays
    finite: the reference for those lanes."""
    s = np.sqrt(b * b + 4.0 * a)
    s = np.where((np.conj(b) * s).real < 0.0, -s, s)
    big = (b + s) * -0.5
    small = np.divide(-a, big, out=np.zeros_like(big), where=big != 0)
    m_big = np.abs(big)
    tie = m_big - np.abs(small) <= 1e-14 * m_big
    tie &= (big.imag > small.imag) | (
        (big.imag == small.imag) & (big.real >= small.real))
    return np.where(tie, big, small), np.where(tie, small, big)


def test_fixed_points_where_b_squared_overflows():
    from jgreens.contfrac import _fixed_point_arrays

    rng = np.random.default_rng(154)
    a = rng.uniform(-2.0, 2.0, 64) + 1j * rng.uniform(-2.0, 2.0, 64)
    b = (rng.choice([-1.0, 1.0, 1j, -1j, 1 + 1j, 0.6 - 0.8j], 64)
         * 10.0 ** rng.uniform(140.0, 300.0, 64))
    att, rep = _fixed_point_arrays(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        far = ~np.isfinite(b * b + 4.0 * a)
    assert far.sum() > 30 and (~far).sum() > 5
    # w (b + w) = a: the attractive root is a / b to rounding, the
    # repulsive one -b
    assert np.all(np.abs(att * b / a - 1.0) < 1e-15)
    assert np.all(np.abs(rep / b + 1.0) < 1e-15)
    # lanes whose b^2 is finite keep the plain formula's bits
    with np.errstate(over="ignore", invalid="ignore"):
        plain = _plain_fixed_points(a, b)
    for got, want in zip((att, rep), plain):
        assert got[~far].tobytes() == want[~far].tobytes()
    att_1, rep_1 = fixed_points(a[0], b[0])
    assert (att_1.w, rep_1.w) == (att[0], rep[0])


def test_forward_sum_past_the_square_of_b():
    # b_i = 1e200 overflowed the first product of the scan; each step is
    # now scaled by a power of two: K(1/1e200) = 1e-200 to rounding
    res = eval_forward(ContinuedFraction(0.0, lambda i: (1.0, 1e200)),
                       1e-12, 100)
    assert res.converged
    assert res.value == pytest.approx(1e-200, rel=1e-15, abs=0.0)
    # K(a/b) with a = b = 1e200 is the root of w^2 + b w - a = 0 near 1,
    # 1 - 1e-200 + ..., and b^2 overflowed
    res = eval_forward(ContinuedFraction(0.0, lambda i: (1e200, 1e200)),
                       1e-15, 100)
    assert res.converged and res.value == 1.0


# ------------------------------------------------------------- bauer-muir


def test_bauer_muir_zero_sequence_is_identity():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.5, 1.5, 20)
    b = rng.uniform(0.5, 1.5, 20)
    cf = ContinuedFraction.from_lists(2.0, a, b)
    out = bauer_muir(cf, 0.0)
    assert out.b0 == cf.b0
    for i in range(1, 21):
        ca, cb = out.coefficient(i)
        assert ca == pytest.approx(a[i - 1], abs=1e-15)
        assert cb == pytest.approx(b[i - 1], abs=1e-15)


@pytest.mark.parametrize("tail", [GOLDEN, 0.6180339887])
def test_bauer_muir_exact_tail_degenerates_at_first_index(tail):
    # lambda_1 = 1 - w(1 + w) cancels to noise when w is the fixed point
    out = bauer_muir(unit_fraction(), tail)
    with pytest.raises(DegenerateTransform) as exc:
        out.coefficient(1)
    assert exc.value.index == 1


def test_bauer_muir_reproduces_modified_approximants():
    cf = unit_fraction()
    out = bauer_muir(cf, 0.5)
    for n in range(0, 31):
        classical = eval_backward(out, n, ZERO_TAIL)
        modified = eval_backward(cf, n, TailValue(0.5))
        assert abs(classical - modified) <= 1e-13 * max(1.0, abs(modified))


def test_bauer_muir_defining_property_random_fractions():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.uniform(0.5, 1.5, 51) * np.exp(1j * rng.uniform(0, 2 * np.pi, 51))
        b = rng.uniform(0.5, 1.5, 51) * np.exp(1j * rng.uniform(0, 2 * np.pi, 51))
        w = rng.uniform(0.1, 0.5, 53) * np.exp(1j * rng.uniform(0, 2 * np.pi, 53))
        cf = ContinuedFraction.from_lists(complex(rng.normal()), a, b)
        out = bauer_muir(cf, lambda n, w=w: w[n])
        for n in (1, 5, 17, 50):
            try:
                modified = eval_backward(cf, n, TailValue(w[n]))
                classical = eval_backward(out, n, ZERO_TAIL)
            except (DivisionByZero, DegenerateTransform):
                continue
            assert abs(classical - modified) <= 1e-12 * max(1.0, abs(modified))


def test_repeated_bauer_muir_zero_rounds_returns_input():
    cf = unit_fraction()
    assert repeated_bauer_muir(cf, 0.5, 0) is cf


def test_repeated_bauer_muir_matches_manual_composition():
    cf = unit_fraction()
    manual = bauer_muir(bauer_muir(bauer_muir(cf, 0.5), 0.5), 0.5)
    chained = repeated_bauer_muir(cf, 0.5, 3)
    assert chained.b0 == pytest.approx(manual.b0, abs=1e-15)
    for i in range(1, 16):
        ca, cb = chained.coefficient(i)
        ma, mb = manual.coefficient(i)
        assert ca == pytest.approx(ma, abs=1e-14)
        assert cb == pytest.approx(mb, abs=1e-14)
    # a fresh chain asked from the top index down fills the same values
    backwards = repeated_bauer_muir(cf, 0.5, 3)
    for i in range(15, 0, -1):
        ba, bb = backwards.coefficient(i)
        ma, mb = manual.coefficient(i)
        assert ba == pytest.approx(ma, abs=1e-14)
        assert bb == pytest.approx(mb, abs=1e-14)


def test_repeated_bauer_muir_tags_failing_round():
    with pytest.raises(DegenerateTransform) as exc:
        repeated_bauer_muir(unit_fraction(), GOLDEN, 2).coefficient(1)
    assert exc.value.round_index == 1
    assert exc.value.index == 1


def test_repeated_bauer_muir_accelerates_unit_fraction():
    cf = unit_fraction()
    n = 12
    plain = abs(eval_backward(cf, n, ZERO_TAIL) - GOLDEN)
    fast = abs(eval_backward(repeated_bauer_muir(cf, 0.6, 3), n, ZERO_TAIL)
               - GOLDEN)
    assert fast < plain * 1e-2


# -------------------------------------------------------------- pincherle


def test_pincherle_bessel_ratio():
    rec = Recurrence(lambda n: (-1.0, 2.0 * n))
    expected = bessel_j_series(1, 1.0) / bessel_j_series(0, 1.0)
    assert pincherle_ratio(rec, 0, 1e-13, 500) == pytest.approx(
        expected, abs=1e-10)
    assert expected == pytest.approx(0.5750809150043060, abs=1e-9)


def test_pincherle_unrolling_consistency():
    rec = Recurrence(lambda n: (-1.0, 2.0 * n))
    for N in range(4):
        r_n = pincherle_ratio(rec, N, 1e-13, 500)
        r_n1 = pincherle_ratio(rec, N + 1, 1e-13, 500)
        a_n1, b_n1 = rec.coeffs(N + 1)
        # one unrolling of the recurrence: r(N) = -a_{N+1}/(b_{N+1} - r(N+1))
        assert r_n == pytest.approx(-a_n1 / (b_n1 - r_n1), rel=1e-12)


def test_pincherle_fibonacci_minimal_ratio_sign():
    rec = Recurrence(lambda n: (1.0, 1.0), limit_coeffs=(1.0, 1.0))
    ratio = pincherle_ratio(rec, 0, 1e-13, 2000)
    assert ratio == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_pincherle_period_two_has_no_minimal_solution():
    rec = Recurrence(lambda n: (1.0, 0.0))
    with pytest.raises(NoMinimalSolution):
        pincherle_ratio(rec, 0, 1e-12, 200)


# ------------------------------------------------------------- properties


def test_backward_forward_agreement_random_fractions():
    rng = np.random.default_rng(123)
    orders = (1, 2, 7, 33, 60, 200)
    for _ in range(20):
        amps = rng.uniform(0.5, 1.5, (2, 201))
        phases = rng.uniform(0.0, 2.0 * np.pi, (2, 201))
        a = amps[0] * np.exp(1j * phases[0])
        b = amps[1] * np.exp(1j * phases[1])
        w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        cf = ContinuedFraction.from_lists(complex(rng.normal()), a, b)
        forward = {}
        for n, s in forward_approximants(cf, TailValue(w)):
            if n in orders:
                forward[n] = s
            if n >= max(orders):
                break
        for n in orders:
            if forward.get(n) is None:
                continue
            try:
                backward = eval_backward(cf, n, TailValue(w))
            except DivisionByZero:
                continue
            assert abs(forward[n] - backward) <= 1e-12 * max(1.0, abs(backward))


def test_renormalization_does_not_change_approximants():
    # factorial-growth coefficients overflow an unscaled recurrence long
    # before n = 200; the rescaled scan keeps every approximant
    cf = ContinuedFraction.from_function(1.0, lambda i: (float(i), float(i)))
    for n, s in forward_approximants(cf):
        if n > 200:
            break
        backward = eval_backward(cf, n)
        assert abs(s - backward) <= 1e-13 * max(1.0, abs(backward))


def test_coefficient_validation_rejects_zero_numerator():
    cf = ContinuedFraction.from_lists(0.0, [0.0], [1.0])
    with pytest.raises(ValueError):
        cf.coefficient(1)


def test_eval_forward_rejects_bad_arguments():
    cf = unit_fraction()
    with pytest.raises(ValueError):
        eval_forward(cf, 0.0, 10)
    with pytest.raises(ValueError):
        eval_forward(cf, 1e-12, 0)


# ----------------------------------------------------- the chunked kernel


def test_prefix_products_match_sequential_products():
    # entries of 1e40 overflow a 1024-term product unless it is rescaled
    rng = np.random.default_rng(3)
    for size, lanes in ((16, 3), (1024, 2)):
        mats = (rng.standard_normal((2, 2, size, lanes))
                + 1j * rng.standard_normal((2, 2, size, lanes))) * 1e40
        scanned = mats.copy()
        _prefix_products(scanned)
        for k in range(lanes):
            prod = np.eye(2)
            for t in range(size):
                prod = prod @ mats[:, :, t, k]
                prod /= np.max(np.abs(prod))
                got = scanned[:, :, t, k]
                # equal up to a positive scale
                got = got / np.max(np.abs(got))
                assert np.max(np.abs(got - prod)) <= 1e-9


def test_chunks_quadruple_to_63_then_double_to_the_cap():
    def first(size, count, last=math.inf):
        return list(itertools.islice(_chunks(size, last), count))

    assert first(15, 8) == [(1, 15), (16, 63), (79, 127), (206, 255),
                            (461, 511), (972, 1023), (1995, 1023),
                            (3018, 1023)]
    assert first(63, 6) == [(1, 63), (64, 127), (191, 255), (446, 511),
                            (957, 1023), (1980, 1023)]
    # clipped at coefficient last, which ends the schedule
    assert first(63, 9, last=200) == [(1, 63), (64, 127), (191, 10)]
    assert first(15, 9, last=10) == [(1, 10)]
    assert first(63, 9, last=190) == [(1, 63), (64, 127)]


def failing_unit_fraction(at, how, reads):
    """The unit fraction, failing from coefficient ``at`` on in the way
    ``how``; the indices asked for go into ``reads``."""

    def coeffs(i):
        reads.append(i)
        if i >= at:
            if how == "zero numerator":
                return 0.0, 1.0
            if how == "end":
                raise IndexError(i)
            raise RuntimeError(f"coefficient {i}")
        return 1.0, 1.0

    return ContinuedFraction.from_function(0.0, coeffs)


@pytest.mark.parametrize("how, error", [
    ("zero numerator", ValueError), ("end", IndexError),
    ("exception", RuntimeError)])
def test_read_ahead_raises_only_what_is_reached(how, error):
    # the sum stops near coefficient 30; coefficient 40 lies in the chunk
    # it reads next
    at = 40
    clean = eval_forward(unit_fraction(), 1e-12, 1000)
    assert clean.terms_used < at - 1
    reads = []
    assert eval_forward(failing_unit_fraction(at, how, reads), 1e-12,
                        1000) == clean
    assert max(reads) >= at
    rec = Recurrence(failing_unit_fraction(at, how, []).coeffs)
    assert pincherle_ratio(rec, 0, 1e-12, 1000) == pincherle_ratio(
        Recurrence(lambda n: (1.0, 1.0)), 0, 1e-12, 1000)

    # S_{at-1} needs coefficient at: the end yields it and stops, a
    # failure is raised in its place
    approximants = forward_approximants(failing_unit_fraction(at, how, []))
    expected = forward_approximants(unit_fraction())
    for _ in range(at - 1):
        assert next(approximants) == next(expected)
    if error is IndexError:
        assert next(approximants)[0] == at - 1
        assert list(approximants) == []
    else:
        with pytest.raises(error):
            next(approximants)

    transformed = bauer_muir(failing_unit_fraction(at, how, []), 0.5)
    for i in range(1, at):
        transformed.coefficient(i)
    for _ in range(2):
        with pytest.raises(error):
            transformed.coefficient(at)
    assert transformed.coefficient(at - 1) == bauer_muir(
        unit_fraction(), 0.5).coefficient(at - 1)


MASS = 1.0 / (2.0 * 10.375)  # alpha-alpha: hbar^2/(2m) = 10.375 MeV fm^2


@pytest.mark.parametrize("J", [
    coulomb_jacobi(CoulombModel(Z=4, l=0, b=4.0, m=MASS, e2=1.44), E)
    for E in (-5.0, 3.0 + 2.0j, 1.0)] + [
    oscillator_jacobi(OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3),
                      E) for E in (2.1, -0.8 + 0.6j)])
def test_tail_ratio_is_eval_forward_of_cf_coefficients(J):
    # one evaluator: the zero-tail corner ratio is the forward sum of the
    # public fraction, bit for bit, converged or not
    for n in (1, 5, 41):
        coeffs = cf_coefficients(J, n)
        cf = ContinuedFraction(0.0, lambda j: coeffs(n + j - 1))
        res = eval_forward(cf, 1e-12, 500)
        try:
            ratio = tail_ratio(J, n, SheetSelector.ZERO_TAIL, max_terms=500)
        except NotConverged as exc:
            assert not res.converged
            assert (exc.terms_used, exc.last_delta) == (
                res.terms_used, res.last_delta)
        else:
            assert res.converged
            assert ratio == -res.value


def _pole_ending():
    # 1/(1 + -1/1): S_2 has B_2 = 1 - 1 = 0, and the fraction ends there
    return ContinuedFraction(0.0, lambda i: [(1.0, 1.0), (-1.0, 1.0)][i - 1])


def test_forward_finite_fraction_ending_on_a_pole_breaks_down():
    assert list(forward_approximants(_pole_ending())) \
        == [(0, 0j), (1, 1 + 0j), (2, None)]
    with pytest.raises(NumericBreakdown, match="terminates on a pole"):
        eval_forward(_pole_ending(), 1e-12, 100)


@pytest.mark.parametrize("tail", [complex(math.nan, 0.0),
                                  complex(math.inf, 0.0)])
def test_forward_non_finite_approximant_breaks_down(tail):
    golden = ContinuedFraction(0.0, lambda i: (1.0, 1.0))
    with pytest.raises(NumericBreakdown, match="non-finite approximant"):
        next(forward_approximants(golden, tail))


def test_forward_non_finite_recurrence_value_breaks_down():
    # b_2 = inf: B_2 is not finite (1e200 * 1e200 is, as the scan scales)
    huge = ContinuedFraction(
        0.0, lambda i: (1.0, 1e200 if i == 1 else math.inf))
    got = []
    with pytest.raises(NumericBreakdown, match="recurrence value at term 2"):
        for pair in forward_approximants(huge):
            got.append(pair)
    assert got == [(0, 0j), (1, 1e-200 + 0j)]


def _raises_at(i_bad, exc):
    def coeffs(i):
        if i == i_bad:
            raise exc
        return 1.0, 1.0
    return ContinuedFraction(0.0, coeffs)


def test_mixed_outcome_sum_matches_eval_forward_per_lane():
    # one batch of the chunk kernel whose lanes stop at every outcome of
    # its classifier, each lane equal to its own eval_forward
    from jgreens.contfrac import _one_lane_reader, _sum_fractions

    lanes = {
        "agreement": (ContinuedFraction(0.0, lambda i: (1.0, 1.0)), 0.0),
        # S_n = -n/(n+1) converges too slowly for the budget
        "budget": (ContinuedFraction(0.0, lambda i: (-1.0, 2.0)), 0.0),
        # S_n cycles -1, a pole, 0: S_41 is a pole, so S_40 = -1
        "budget at a pole": (
            ContinuedFraction(0.0, lambda i: (-1.0, 1.0)), 0.0),
        "exact end": (ContinuedFraction.from_lists(0.5, [1, 2], [3, 4]),
                      0.0),
        "end on a pole": (_pole_ending(), 0.0),
        "fault": (_raises_at(5, ArithmeticError("map fails at 5")), 0.0),
        "zero numerator": (ContinuedFraction(
            0.0, lambda i: (0.0 if i == 3 else 1.0, 1.0)), 0.0),
        "non-finite approximant": (
            ContinuedFraction(0.0, lambda i: (1.0, 1.0)), math.nan),
        "non-finite recurrence": (ContinuedFraction(
            0.0, lambda i: (1.0, 1e200 if i == 1 else math.inf)), 0.0),
    }
    fractions = [cf for cf, _ in lanes.values()]
    readers = [_one_lane_reader(cf.coefficient) for cf in fractions]

    def read(at, j0, size):
        parts = [readers[k](None, j0, size) for k in at.tolist()]
        return (np.hstack([a for a, _, _ in parts]),
                np.hstack([b for _, b, _ in parts]),
                {p: f[0] for p, (_, _, f) in enumerate(parts) if f})

    tol, budget = 1e-12, 41
    value, terms, converged, delta, stopped = _sum_fractions(
        read, np.array([cf.b0 for cf in fractions]), 0,
        np.array([w for _, w in lanes.values()], dtype=complex),
        TailOrigin.USER_SUPPLIED, tol, budget)
    outcomes = {}
    for k, (name, (cf, w)) in enumerate(lanes.items()):
        try:
            res = eval_forward(cf, tol, budget, w)
        except Exception as exc:
            if stopped[k] is None:  # eval_forward's own error
                assert "terminates on a pole" in str(exc)
            else:
                assert type(stopped[k]) is type(exc)
                assert str(stopped[k]) == str(exc)
            outcomes[name] = str(exc)
            continue
        assert k not in stopped
        got = complex(value[k])
        assert (got.real.hex(), got.imag.hex()) \
            == (res.value.real.hex(), res.value.imag.hex())
        assert (int(terms[k]), bool(converged[k]), float(delta[k]).hex()) \
            == (res.terms_used, res.converged, res.last_delta.hex())
        outcomes[name] = (res.value, res.terms_used, res.converged,
                          res.last_delta)
    assert outcomes["agreement"][2]
    assert outcomes["budget"][1:3] == (41, False)
    assert outcomes["budget at a pole"] == (-1.0, 41, False, 1.0)
    assert outcomes["exact end"][1:] == (2, True, 0.0)
    assert outcomes["exact end"][0] == pytest.approx(11 / 14, rel=1e-15)
    assert outcomes["end on a pole"] \
        == "finite fraction terminates on a pole approximant"
    assert outcomes["fault"] == "map fails at 5"
    assert outcomes["zero numerator"] == "partial numerator a_3 is zero"
    assert outcomes["non-finite approximant"] == "non-finite approximant"
    assert outcomes["non-finite recurrence"] \
        == "non-finite recurrence value at term 2"


def test_pincherle_breakdown_is_no_minimal_solution():
    rec = Recurrence(lambda n: [(1.0, 1.0), (-1.0, 1.0)][n - 1])
    with pytest.raises(NoMinimalSolution, match="broke down") as info:
        pincherle_ratio(rec)
    assert isinstance(info.value.__cause__, NumericBreakdown)
