"""Tests for tridiagonal Green's matrices and tail ratios."""

import math
import re

import numpy as np
import pytest

from jgreens.errors import (
    DegenerateTransform,
    NotConverged,
    SingularMatrix,
    SingularRatio,
    ZeroOffdiagonal,
)
from jgreens.jacobi import (
    GreenMatrix,
    JacobiOperator,
    SheetSelector,
    _checked_inverse,
    cf_coefficients,
    corrected_truncation,
    dense_truncation,
    green_submatrix,
    tail_ratio,
    truncated_inverse,
)


def constant_operator(energy=-1.0):
    # bound-region energy: acceleration defaults to zero rounds, which an
    # exactly periodic fraction needs (its fixed point degenerates the
    # Bauer-Muir transform)
    return JacobiOperator(diag=lambda i: 2.0, offdiag=lambda i: -1.0,
                          energy=energy, limit_coeffs=(-1.0, 2.0))


def perturbed_laplacian(E):
    """E - H with H a decaying perturbation of tridiag(1, 2, 1).

    The continued fraction coefficients tend to u = -1, d = E - 2, so the
    operator is limit 1-periodic and all tail machinery applies. H is
    bounded and self-adjoint with spectrum near [0, 4]. The coupling
    J_{i,i+1} is negative, the convention under which the attractive
    root's nonnegative-imaginary-part tie-break lands on the physical
    branch along the continuum.
    """
    E = complex(E)

    def diag(i):
        return E - (2.0 + 0.5 / (i + 1.0) ** 2)

    def offdiag(i):
        return -(1.0 - 0.3 / (i + 1.0) ** 2)

    return JacobiOperator(diag=diag, offdiag=offdiag, energy=E,
                          limit_coeffs=(-1.0, E - 2.0))


def dense_green_oracle(J, size):
    """Brute-force Green's block from a large plain truncation."""
    return np.linalg.inv(dense_truncation(J, size))


# ---------------------------------------------------------- coefficients


def test_cf_coefficients_constant_matrix():
    gen = cf_coefficients(constant_operator(), 1)
    for i in (1, 2, 17):
        u, d = gen(i)
        assert u == pytest.approx(-1.0)
        assert d == pytest.approx(2.0)


def test_cf_coefficients_zero_offdiagonal_as_divisor_and_numerator():
    J = JacobiOperator(diag=lambda i: 2.0,
                       offdiag=lambda i: 0.0 if i == 3 else -1.0)
    gen = cf_coefficients(J, 1)
    with pytest.raises(ZeroOffdiagonal) as exc:
        gen(3)
    assert exc.value.index == 3
    with pytest.raises(ZeroOffdiagonal) as exc:
        gen(4)
    assert exc.value.index == 3


def test_cf_coefficients_limit_convergence():
    E = -1.0
    gen = cf_coefficients(perturbed_laplacian(E), 1)
    u, d = gen(2000)
    assert u == pytest.approx(-1.0, abs=1e-6)
    assert d == pytest.approx(E - 2.0, abs=1e-6)


# ------------------------------------------------------------ tail ratio


def test_tail_ratio_constant_matrix_double_root():
    ratio = tail_ratio(constant_operator(), 1, SheetSelector.PHYSICAL)
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_tail_ratio_matches_dense_oracle_bound_region():
    J = perturbed_laplacian(-1.0)
    dense = dense_green_oracle(J, 600)
    expected = dense[0, 4] / dense[0, 3]
    for sheet in (SheetSelector.PHYSICAL, SheetSelector.UNPHYSICAL,
                  SheetSelector.ZERO_TAIL):
        ratio = tail_ratio(J, 4, sheet)
        assert ratio == pytest.approx(expected, rel=1e-9), sheet


def test_tail_ratio_matches_dense_oracle_complex_energy():
    J = perturbed_laplacian(2.0 + 1.5j)
    dense = dense_green_oracle(J, 600)
    expected = dense[0, 2] / dense[0, 1]
    ratio = tail_ratio(J, 2, SheetSelector.AUTO)
    assert ratio == pytest.approx(expected, rel=1e-9)


def test_tail_ratio_zero_tail_diverges_in_continuum():
    J = perturbed_laplacian(2.0)
    with pytest.raises(NotConverged) as exc:
        tail_ratio(J, 1, SheetSelector.ZERO_TAIL, max_terms=3000)
    assert exc.value.terms_used == 3000
    assert math.isfinite(exc.value.last_delta)


def test_tail_ratio_unphysical_is_conjugate_on_the_cut():
    J = perturbed_laplacian(2.0)
    for rounds in (None, 0):  # with 0 rounds the tail alone picks the sheet
        up = tail_ratio(J, 1, SheetSelector.PHYSICAL, rounds)
        down = tail_ratio(J, 1, SheetSelector.UNPHYSICAL, rounds)
        assert down == pytest.approx(np.conj(up), rel=1e-9)


def test_tail_ratio_auto_refuses_lower_half_plane():
    J = perturbed_laplacian(2.0 - 0.5j)
    with pytest.raises(ValueError):
        tail_ratio(J, 1, SheetSelector.AUTO)


def test_tail_ratio_requires_limits_for_fixed_point_tails():
    J = JacobiOperator(diag=lambda i: -2.0 - 0.5 / (i + 1.0) ** 2,
                       offdiag=lambda i: 1.0, energy=0.0)
    with pytest.raises(ValueError):
        tail_ratio(J, 1, SheetSelector.PHYSICAL)


def test_tail_ratio_singular_when_leading_element_vanishes():
    # finite operator whose exact G_00 is zero: ratio G_01/G_00 blows up
    def diag(i):
        if i > 2:
            raise IndexError(i)
        return 1.0

    def offdiag(i):
        if i > 2:
            raise IndexError(i)
        return 1.0

    J = JacobiOperator(diag=diag, offdiag=offdiag, energy=0.0)
    with pytest.raises(SingularRatio):
        tail_ratio(J, 1, SheetSelector.ZERO_TAIL)


def _stop_index(J, n, **kwargs):
    """Index m of the approximant at which tail_ratio stops: the smallest
    budget it converges within. The sum reads J up to index n + m."""
    lo, hi = 1, 400
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            tail_ratio(J, n, max_terms=mid, **kwargs)
            hi = mid
        except NotConverged:
            lo = mid + 1
    return lo


def _failing_from(J, at, how, reads):
    """J whose maps fail from index ``at`` on, in the way ``how``; the
    indices asked for go into ``reads``."""
    E = J.energy

    def diag(i):
        reads.append(i)
        if i >= at and how == "exception":
            raise RuntimeError(f"diag {i}")
        if i > at and how == "degenerate lambda":
            return E - 2.0  # with J_{i-1,i} = J_{i,i+1} = -1: the limit
        if i == at and how == "zero numerator":
            return 1e-170  # keeps d_at of order one
        return J.diag(i)

    def offdiag(i):
        reads.append(i)
        if i >= at:
            if how == "exception":
                raise RuntimeError(f"offdiag {i}")
            if how == "zero off-diagonal":
                return 0.0
            if how == "zero numerator" and i <= at + 1:
                # u_{at+1} = -1e-170 / 1e160 underflows to zero
                return 1e-170 if i == at else 1e160
            if how == "degenerate lambda":
                return -1.0
        return J.offdiag(i)

    return JacobiOperator(diag, offdiag, E, J.limit_coeffs)


@pytest.mark.parametrize("how, error, rounds, message", [
    ("zero off-diagonal", ZeroOffdiagonal, 0, ""),  # index checked below
    ("zero numerator", ValueError, 0, "a_{j} is zero"),
    ("degenerate lambda", DegenerateTransform, 1, "index {j}"),
    ("exception", RuntimeError, 0, "offdiag {at}")])
def test_tail_ratio_read_ahead_raises_only_what_the_sum_reaches(
        how, error, rounds, message):
    J, n = perturbed_laplacian(-1.0), 4
    kwargs = {"sheet": SheetSelector.PHYSICAL, "bm_rounds": rounds}
    clean = tail_ratio(J, n, **kwargs)
    m = _stop_index(J, n, **kwargs)
    # failures from index n + m + 1 on lie past the last coefficient the
    # sum needs, but inside the first chunk it reads
    reads = []
    ahead = _failing_from(J, n + m + 1, how, reads)
    assert tail_ratio(ahead, n, **kwargs) == clean
    assert max(reads) >= n + m + 1  # the failing index was read
    # the same failure where the sum reaches it is raised; a zero J_{at,at+1}
    # or a raising map fails at index at, the others at coefficient j
    at = n + m - 2
    match = re.escape(message.format(at=at, j=at + 2 - n)) or None
    with pytest.raises(error, match=match) as exc:
        tail_ratio(_failing_from(J, at, how, []), n, **kwargs)
    if error is ZeroOffdiagonal:
        assert exc.value.index == at


def test_tail_ratio_errors_in_scalar_order():
    J, n = perturbed_laplacian(-1.0), 4
    at = n + 3

    def diag(i):
        if i >= at:
            raise RuntimeError(f"diag {i}")
        return J.diag(i)

    zero_and_raise = JacobiOperator(
        diag, lambda i: 0.0 if i == at else J.offdiag(i), J.energy,
        J.limit_coeffs)
    # J_{at,at+1} = 0 is checked before J_{at,at} is read
    with pytest.raises(ZeroOffdiagonal) as exc:
        tail_ratio(zero_and_raise, n, SheetSelector.PHYSICAL)
    assert exc.value.index == at
    raise_only = JacobiOperator(diag, J.offdiag, J.energy, J.limit_coeffs)
    with pytest.raises(RuntimeError, match=f"diag {at}"):
        tail_ratio(raise_only, n, SheetSelector.PHYSICAL)


# ------------------------------------------------------- green_submatrix


def test_green_submatrix_matches_dense_oracle():
    J = perturbed_laplacian(-1.0)
    dense = dense_green_oracle(J, 600)
    gm = green_submatrix(J, 6)
    assert gm.n == 6
    assert gm.sheet is SheetSelector.PHYSICAL
    np.testing.assert_allclose(gm.entries, dense[:6, :6],
                               rtol=1e-9, atol=1e-12)


def test_green_submatrix_resolvent_identity():
    J = perturbed_laplacian(2.0 + 1.5j)
    N = 8
    gm = green_submatrix(J, N)
    corrected = corrected_truncation(J, N)
    residual = gm.entries @ corrected - np.eye(N)
    assert np.max(np.abs(residual)) < 1e-11


def test_green_submatrix_takes_bm_rounds_before_tol():
    # the positional order of tail_ratio and corrected_truncation
    J, N = perturbed_laplacian(2.0 + 1.5j), 5
    gm = green_submatrix(J, N, SheetSelector.PHYSICAL, 0)
    expected = _checked_inverse(
        corrected_truncation(J, N, SheetSelector.PHYSICAL, 0))
    assert np.array_equal(gm.entries, expected)


@pytest.mark.parametrize("tol", [0.0, -1e-12])
def test_nonpositive_tolerance_is_rejected(tol):
    J = perturbed_laplacian(-1.0)
    with pytest.raises(ValueError, match="tolerance"):
        tail_ratio(J, 1, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        green_submatrix(J, 3, tol=tol)


def test_green_submatrix_symmetry_and_rank_one_triangle():
    J = perturbed_laplacian(2.0 + 1.5j)
    G = green_submatrix(J, 7).entries
    np.testing.assert_allclose(G, G.T, rtol=1e-12, atol=1e-14)
    # G_ij G_kk' = G_ik' G_kj whenever both index pairs straddle the
    # diagonal the same way (p_i q_j structure above the diagonal)
    rng = np.random.default_rng(5)
    for _ in range(40):
        i, k = sorted(rng.integers(0, 7, 2))
        j, kp = sorted(rng.integers(0, 7, 2))
        if not (i <= j and k <= kp and i <= kp and k <= j):
            continue
        lhs = G[i, j] * G[k, kp]
        rhs = G[i, kp] * G[k, j]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_green_submatrix_recurrence_residual_with_reconstructed_column():
    J = perturbed_laplacian(-1.0)
    N = 6
    G = green_submatrix(J, N).entries
    ratio = tail_ratio(J, N)
    for j in range(N):
        for i in range(1, N):
            g_next = G[j, i + 1] if i + 1 < N else G[j, N - 1] * ratio
            lhs = (G[j, i - 1] * J.offdiag(i - 1)
                   + G[j, i] * J.diag(i)
                   + g_next * J.offdiag(i))
            target = 1.0 if i == j else 0.0
            assert abs(lhs - target) <= 1e-10


def test_green_submatrix_reflection_symmetry():
    E = 2.0 + 1.5j
    G_up = green_submatrix(perturbed_laplacian(E), 5).entries
    G_dn = green_submatrix(perturbed_laplacian(np.conj(E)), 5,
                           SheetSelector.PHYSICAL).entries
    np.testing.assert_allclose(G_dn, np.conj(G_up), rtol=1e-11, atol=1e-13)


def test_green_submatrix_physical_sign_on_the_cut():
    # limit from above the continuous spectrum: Im G_ii < 0
    J = perturbed_laplacian(2.0)
    G = green_submatrix(J, 5).entries
    assert np.all(np.imag(np.diag(G)) < 0)


def test_green_submatrix_diagonal_operator_fast_path():
    # zero coupling decouples the block; no tail ratio is evaluated
    J = JacobiOperator(diag=lambda i: 3.0 - 2.0 * i, offdiag=lambda i: 0.0,
                       energy=3.0)
    G = green_submatrix(J, 4).entries
    expected = np.diag([1.0 / (3.0 - 2.0 * i) for i in range(4)])
    np.testing.assert_allclose(G, expected, rtol=1e-13)


# ------------------------------------------------------ truncated_inverse


def test_truncated_inverse_laplacian_against_dense_500():
    size = 500
    diag = np.full(size, 2.0)
    off = np.full(size - 1, -1.0)
    dense = np.linalg.inv(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    ratio = dense[0, 5] / dense[0, 4]
    gm = truncated_inverse(diag[:5], off[:4], ratio, -1.0)
    np.testing.assert_allclose(gm.entries, dense[:5, :5],
                               rtol=1e-10, atol=1e-12)


def test_truncated_inverse_zero_ratio_is_plain_inverse():
    diag = [2.0, 3.0, 4.0]
    off = [-1.0, -0.5]
    gm = truncated_inverse(diag, off, 0.0, -1.0)
    plain = np.linalg.inv(np.diag(diag)
                          + np.diag(off, 1) + np.diag(off, -1))
    np.testing.assert_allclose(gm.entries, plain, rtol=1e-13)


def test_truncated_inverse_scalar_case():
    gm = truncated_inverse([2.0], [], 0.25, -1.0)
    assert gm.entries[0, 0] == pytest.approx(1.0 / (2.0 - 0.25))


def test_truncated_inverse_random_tridiagonals_against_dense():
    rng = np.random.default_rng(99)
    size = 500
    for _ in range(5):
        diag = rng.uniform(2.5, 4.0, size)
        off = rng.uniform(-1.0, -0.3, size - 1)
        dense = np.linalg.inv(np.diag(diag)
                              + np.diag(off, 1) + np.diag(off, -1))
        n = 5
        ratio = dense[0, n] / dense[0, n - 1]
        gm = truncated_inverse(diag[:n], off[:n - 1], ratio, off[n - 1])
        np.testing.assert_allclose(gm.entries, dense[:n, :n],
                                   rtol=1e-10, atol=1e-13)


def test_truncated_inverse_singular_matrix_detected():
    with pytest.raises(SingularMatrix):
        truncated_inverse([1.0, 1.0], [1.0], 0.0, 0.0)
    # a non-finite entry is screened before the condition estimate, whose
    # SVD would otherwise fail with numpy's LinAlgError
    nan_corner = JacobiOperator(
        diag=lambda i: math.nan if i == 0 else 2.5, offdiag=lambda i: -1.0,
        energy=0.5, limit_coeffs=(-1.0, 2.5))
    with pytest.raises(SingularMatrix):
        green_submatrix(nan_corner, 3, SheetSelector.PHYSICAL)


def test_green_matrix_records_context():
    gm = truncated_inverse([2.0], [], 0.0, 0.0)
    assert isinstance(gm, GreenMatrix)
    assert gm.energy is None
    assert gm.sheet is None
    assert gm.n == 1


# ------------------------------------------------- lanes and the screen


class _Counting:
    """A map that counts its reads (not an IndexFormula)."""

    def __init__(self, fn):
        self.fn, self.reads = fn, 0

    def __call__(self, i):
        self.reads += 1
        return self.fn(i)


def _solo(op, n):
    try:
        return tail_ratio(op, n, SheetSelector.PHYSICAL), None
    except Exception as exc:  # the lane's error, compared below
        return None, exc


@pytest.mark.parametrize("n", [1, 41])
def test_mixed_lane_batch_matches_solo_tail_ratios(n):
    from jgreens.jacobi import _CHUNK_LANE, _corner_ratios
    from jgreens.models import CoulombModel, coulomb_jacobi

    model = CoulombModel(Z=4, l=0, b=4.0, m=1863.69, e2=1.44)
    formula = [coulomb_jacobi(model, E)
               for E in (0.3, 0.5 + 0.1j, -0.2, 2.0 - 0.1j)]
    op = formula[0]
    lam = JacobiOperator(lambda i: op.diag(i), lambda i: op.offdiag(i),
                         op.energy, op.limit_coeffs)
    counting = _Counting(formula[1].diag)
    counted = JacobiOperator(counting, formula[1].offdiag, formula[1].energy,
                             formula[1].limit_coeffs)
    zero_at = JacobiOperator(
        op.diag, lambda i: 0.0 if i == n + 2 else op.offdiag(i), op.energy,
        op.limit_coeffs)
    lanes = formula + [lam, counted, zero_at]
    for batch in (formula, lanes):  # read as one formula, and index by index
        # tail_ratio's chunks: then a lane's value does not depend on its batch
        ratios, errors = _corner_ratios(batch, n, SheetSelector.PHYSICAL,
                                        first=_CHUNK_LANE)
        for J, ratio, error in zip(batch, ratios.tolist(), errors):
            value, solo_error = _solo(J, n)
            if solo_error is None:
                assert error is None
                assert (ratio.real.hex(), ratio.imag.hex()) \
                    == (value.real.hex(), value.imag.hex())
            else:
                assert type(error) is type(solo_error)
                assert str(error) == str(solo_error)
                assert getattr(error, "index", None) \
                    == getattr(solo_error, "index", None)
    assert counting.reads > 0
    assert isinstance(errors[-1], ZeroOffdiagonal)
    assert errors[-1].index == n + 2


def _finite_pole_operator():
    """Three rows of ones: K_{i>=1}(u_i/d_i) = -1/(-1 - 1/(-1)) ends on a
    pole approximant. Its limits (-1, 1) put depth 8 first, which ends with
    rounds on and falls back to depth 0."""
    def entry(i):
        if i > 2:
            raise IndexError(i)
        return 1.0

    return JacobiOperator(entry, entry, energy=0.0, limit_coeffs=(-1.0, 1.0))


def test_mixed_outcome_batch_matches_each_lane_alone():
    from jgreens.jacobi import _corner_ratios
    from jgreens.models import CoulombModel, coulomb_jacobi

    model = CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
    bound = coulomb_jacobi(model, -0.3)
    zero_at = JacobiOperator(bound.diag,
                             lambda i: 0.0 if i == 3 else bound.offdiag(i),
                             bound.energy, bound.limit_coeffs)
    lanes = [
        bound,  # converges at depth 0
        coulomb_jacobi(model, 0.5 + 0.1j),  # converges at depth 8
        # 2-periodic with an elliptic period map: no depth converges
        JacobiOperator(lambda i: -1.0 - i % 2, lambda i: 1.0, 0.0,
                       (-1.0, 0.5)),
        zero_at,
        _finite_pole_operator(),
        coulomb_jacobi(model, 0.4 - 0.2j),  # AUTO refuses Im E < 0
        JacobiOperator(bound.diag, bound.offdiag, bound.energy),  # no limits
    ]
    kwargs = {"sheet": SheetSelector.AUTO, "max_terms": 40}
    ratios, errors = _corner_ratios(lanes, 1, **kwargs)
    assert [type(e) for e in errors] == [
        type(None), type(None), NotConverged, ZeroOffdiagonal, SingularRatio,
        ValueError, ValueError]
    for op, ratio, error in zip(lanes, ratios, errors):
        (alone,), (alone_error,) = _corner_ratios([op], 1, **kwargs)
        assert _hexes(ratio) == _hexes(alone)
        assert type(error) is type(alone_error)
        assert str(error) == str(alone_error)
    assert errors[3].index == 3
    assert not ratios[2:].any()
    with pytest.raises(ValueError, match="bm_rounds"):
        tail_ratio(bound, 1, bm_rounds=-1)


def _block(rng, singular_values):
    n = len(singular_values)
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q1 * singular_values) @ q2.conj().T


def test_checked_inverses_flag_only_the_bad_blocks():
    from jgreens.jacobi import _checked_inverses

    rng, N = np.random.default_rng(3), 6
    good = [_block(rng, np.geomspace(1.0, 1e-3, N)),
            _block(rng, np.geomspace(2.0, 2e-9, N)),
            dense_truncation(perturbed_laplacian(0.5 + 0.2j), N)]
    singular = good[0].copy()
    singular[:, 2] = 0.0
    nan = good[1].copy()
    nan[1, 3] = np.nan
    cond15 = _block(rng, np.geomspace(1.0, 1e-15, N))
    cond14 = _block(rng, np.geomspace(1.0, 1 / 1.3e14, N))
    assert 5e14 < np.linalg.cond(cond15) < 5e15
    assert 1e14 < np.linalg.cond(cond14) < 2e14
    stack = np.array([good[0], singular, good[1], nan, cond15, good[2],
                      cond14])
    bad = {1, 3, 4, 6}
    # with the exactly singular block (blocks then invert one by one), and
    # without it (one stacked inversion)
    for keep in (range(len(stack)), [0, 2, 3, 4, 5, 6]):
        keep = list(keep)
        inverses, errors = _checked_inverses(stack[keep])
        for k, inverse, error in zip(keep, inverses, errors):
            if k in bad:
                assert isinstance(error, SingularMatrix)
                assert not inverse.any()
            else:
                assert error is None
                expected = np.linalg.inv(stack[k])
                assert np.array_equal(inverse.view(np.int64),
                                      expected.view(np.int64))


# ----------------------------------------- the row reader and the assembler


def _hexes(a):
    return [(v.real.hex(), v.imag.hex()) for v in np.ravel(a).tolist()]


@pytest.mark.parametrize("N", [1, 2, 7])
def test_tridiagonal_blocks_match_diagonal_sums(N):
    from jgreens.jacobi import _tridiagonal

    rng = np.random.default_rng(N)
    diag = rng.normal(size=(N, 3)) + 1j * rng.normal(size=(N, 3))
    off = rng.normal(size=(N, 3)) + 1j * rng.normal(size=(N, 3))
    blocks = _tridiagonal(diag, off)
    assert blocks.shape == (3, N, N)
    for k in range(3):
        expected = np.diag(diag[:, k]) + np.diag(off[:N - 1, k], 1) \
            + np.diag(off[:N - 1, k], -1)
        assert _hexes(blocks[k]) == _hexes(expected)


@pytest.mark.parametrize("N", [1, 5, 41])
def test_truncated_inverse_equals_green_submatrix_bitwise(N):
    from jgreens.models import CoulombModel, coulomb_jacobi

    model = CoulombModel(Z=4, l=0, b=4.0, m=1863.69, e2=1.44)
    for J in (perturbed_laplacian(0.5 + 0.2j), coulomb_jacobi(model, 0.3),
              coulomb_jacobi(model, -0.2)):
        gm = truncated_inverse([J.diag(i) for i in range(N)],
                               [J.offdiag(i) for i in range(N - 1)],
                               tail_ratio(J, N), J.offdiag(N - 1))
        assert _hexes(gm.entries) == _hexes(green_submatrix(J, N).entries)


def _finite(N):
    """A finite operator with exactly N rows (IndexError past its end)."""
    def diag(i):
        if i >= N:
            raise IndexError(f"row {i} is past the last row {N - 1}")
        return 2.0 + 0.5 * i

    def offdiag(i):
        if i >= N - 1:
            raise IndexError(f"coupling {i} is past the last row {N - 1}")
        return -1.0

    return JacobiOperator(diag, offdiag, energy=-1.0)


@pytest.mark.parametrize("N", [1, 4])
def test_finite_operator_with_exactly_n_rows(N):
    from jgreens.jacobi import _corrected_blocks

    J = _finite(N)
    expected = np.diag([2.0 + 0.5 * i for i in range(N)]).astype(complex)
    expected += np.diag([-1.0] * (N - 1), 1) + np.diag([-1.0] * (N - 1), -1)
    assert np.array_equal(dense_truncation(J, N), expected)
    with pytest.raises(IndexError) as alone:
        corrected_truncation(J, N)
    lanes = [constant_operator(), J]
    blocks, errors = _corrected_blocks(lanes.__getitem__, [0, 1], N)
    assert errors[0] is None and blocks[0].any()
    assert type(errors[1]) is IndexError
    assert str(errors[1]) == str(alone.value)
    assert not blocks[1].any()


def test_diagonal_error_comes_before_the_offdiagonal_error():
    from jgreens.jacobi import _corrected_blocks, _read_rows

    def diag(i):
        if i == 3:
            raise ValueError("diagonal fails at 3")
        return 2.0

    def offdiag(i):
        if i == 1:
            raise ArithmeticError("off-diagonal fails at 1")
        return -1.0

    both = JacobiOperator(diag, offdiag, energy=-1.0, limit_coeffs=(-1.0, 2.0))
    off_only = JacobiOperator(lambda i: 2.0, offdiag, energy=-1.0,
                              limit_coeffs=(-1.0, 2.0))
    for call in (lambda: dense_truncation(both, 5),
                 lambda: corrected_truncation(both, 5)):
        with pytest.raises(ValueError, match="diagonal fails at 3"):
            call()
    with pytest.raises(ArithmeticError, match="off-diagonal fails at 1"):
        dense_truncation(off_only, 5)
    lanes = [constant_operator(), both, off_only, constant_operator()]
    diag_rows, off_rows, errors = _read_rows(lanes, 5, 5)
    assert diag_rows.shape == off_rows.shape == (5, 4)
    assert [type(e) for e in errors] == [type(None), ValueError,
                                         ArithmeticError, type(None)]
    assert np.array_equal(diag_rows[:, 1], [2.0, 2.0, 2.0, 0.0, 0.0])
    blocks, errors = _corrected_blocks(lanes.__getitem__, range(4), 5)
    assert [str(e) if e else None for e in errors] == [
        None, "diagonal fails at 3", "off-diagonal fails at 1", None]
    assert not blocks[1].any() and not blocks[2].any()
    assert _hexes(blocks[0]) == _hexes(blocks[3])


def test_one_by_one_blocks():
    from jgreens.jacobi import _corrected_blocks

    J = perturbed_laplacian(0.5 + 0.2j)
    assert _hexes(dense_truncation(J, 1)) == _hexes(J.diag(0))
    corner = J.diag(0) + J.offdiag(0) * tail_ratio(J, 1)
    assert _hexes(corrected_truncation(J, 1)) == _hexes(corner)
    (block,), (error,) = _corrected_blocks(lambda E: J, [J.energy], 1)
    assert error is None
    assert block[0, 0] == pytest.approx(corner, rel=1e-13)
    assert _hexes(green_submatrix(J, 1).entries) \
        == _hexes(truncated_inverse([J.diag(0)], [], tail_ratio(J, 1),
                                    J.offdiag(0)).entries)
    for call in (lambda: dense_truncation(J, 0),
                 lambda: corrected_truncation(J, 0),
                 lambda: _corrected_blocks(lambda E: J, [J.energy], 0)):
        with pytest.raises(ValueError, match="truncation size must be >= 1"):
            call()
