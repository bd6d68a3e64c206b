"""Tests for tridiagonal Green's matrices and tail ratios."""

import math

import numpy as np
import pytest

from jgreens.errors import (
    NotConverged,
    SingularMatrix,
    SingularRatio,
    ZeroOffdiagonal,
)
from jgreens.jacobi import (
    GreenMatrix,
    JacobiOperator,
    SheetSelector,
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
    up = tail_ratio(J, 1, SheetSelector.PHYSICAL)
    down = tail_ratio(J, 1, SheetSelector.UNPHYSICAL)
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


def test_green_matrix_records_context():
    gm = truncated_inverse([2.0], [], 0.0, 0.0)
    assert isinstance(gm, GreenMatrix)
    assert gm.energy is None
    assert gm.sheet is None
    assert gm.n == 1
