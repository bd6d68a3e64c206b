"""Green's matrices of infinite symmetric tridiagonal operators.

An energy-dependent Jacobi operator J(E) = E - H (or any symmetric
tridiagonal operator) has Green's matrix G = J^{-1}. The leading N x N
block of G equals the inverse of the leading N x N block of J corrected
in its bottom-right entry by

    f_NN = J_{N-1,N} * tail_ratio(J, N),

where tail_ratio is the ratio of consecutive first-row Green's elements,
computable as a continued fraction built from the tridiagonal entries.
Sheet selection (physical or unphysical) enters only through the tail
estimate used when summing that fraction, which is what analytically
continues the Green's matrix across the scattering cut.

Indices are 0-based throughout: diag(i) = J_ii and offdiag(i) = J_{i,i+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .contfrac import (
    ContinuedFraction,
    _fixed_point_pair,
    _sum_forward,
    repeated_bauer_muir,
)
from .errors import (
    DegenerateTransform,
    NotConverged,
    SingularMatrix,
    SingularRatio,
    ZeroOffdiagonal,
)

__all__ = [
    "JacobiOperator",
    "SheetSelector",
    "GreenMatrix",
    "cf_coefficients",
    "tail_ratio",
    "green_submatrix",
    "corrected_truncation",
    "dense_truncation",
    "truncated_inverse",
]

# Condition estimate above which an inversion is reported as singular.
_COND_LIMIT = 1e14
# Ratio magnitude above which the leading Green's element is treated as
# vanished (the p_i q_j factorization presumes it is nonzero).
_RATIO_LIMIT = 1e250

_DEFAULT_TOL = 1e-12
_DEFAULT_MAX_TERMS = 20000


class SheetSelector(Enum):
    """Which branch of the Green's function a tail estimate selects."""

    PHYSICAL = "physical"
    UNPHYSICAL = "unphysical"
    ZERO_TAIL = "zero-tail"
    AUTO = "auto"


@dataclass(frozen=True)
class JacobiOperator:
    """Symmetric tridiagonal operator with energy baked in.

    Parameters
    ----------
    diag : callable
        Map i -> J_ii for i >= 0.
    offdiag : callable
        Map i -> J_{i,i+1} for i >= 0 (symmetric: J_{i+1,i} = J_{i,i+1}).
    energy : complex
        Energy at which the entries were built; used for automatic sheet
        resolution.
    limit_coeffs : tuple of complex, optional
        Limits (u, d) of the derived continued fraction coefficients when
        the fraction is limit 1-periodic; enables fixed-point tails.
    """

    diag: Callable[[int], complex]
    offdiag: Callable[[int], complex]
    energy: complex = 0.0 + 0.0j
    limit_coeffs: tuple[complex, complex] | None = None


@dataclass(frozen=True)
class GreenMatrix:
    """Truncated Green's matrix with its evaluation context.

    Attributes
    ----------
    entries : numpy.ndarray
        Dense N x N complex block G_ij.
    energy : complex or None
        Energy of the underlying operator (None for the generic
        caller-supplied-ratio path).
    sheet : SheetSelector or None
        Sheet the tail estimate selected.
    n : int
        Truncation size N.
    """

    entries: np.ndarray
    energy: complex | None
    sheet: SheetSelector | None
    n: int


def _resolve_sheet(sheet: SheetSelector, energy: complex) -> SheetSelector:
    if sheet is not SheetSelector.AUTO:
        return sheet
    if complex(energy).imag >= 0.0:
        return SheetSelector.PHYSICAL
    raise ValueError(
        "sheet must be chosen explicitly for Im E < 0; automatic "
        "resolution refuses to silently continue onto either sheet")


def cf_coefficients(J: JacobiOperator,
                    start: int = 1) -> Callable[[int], tuple[complex, complex]]:
    """Continued fraction coefficients derived from a Jacobi operator.

    Returns the map i -> (u_i, d_i) for i >= start, where

        u_i = -J_{i,i-1} / J_{i,i+1},   d_i = -J_{i,i} / J_{i,i+1}.

    These are the partial numerators and denominators of the fraction
    whose value (negated) is the ratio of consecutive first-row Green's
    elements.

    Parameters
    ----------
    J : JacobiOperator
        Operator supplying the tridiagonal entries.
    start : int
        Smallest index served, >= 1.

    Returns
    -------
    callable
        Deterministic coefficient map.

    Raises
    ------
    ZeroOffdiagonal
        On access, with the index of the vanishing off-diagonal entry,
        whether it appears as divisor or as numerator.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")

    def gen(i: int) -> tuple[complex, complex]:
        if i < start:
            raise IndexError(f"index {i} below start {start}")
        upper = complex(J.offdiag(i - 1))
        lower = complex(J.offdiag(i))
        if lower == 0:
            raise ZeroOffdiagonal(i)
        if upper == 0:
            raise ZeroOffdiagonal(i - 1)
        return -upper / lower, -complex(J.diag(i)) / lower

    return gen


def tail_ratio(J: JacobiOperator, n: int,
               sheet: SheetSelector = SheetSelector.AUTO,
               bm_rounds: int | None = None,
               tol: float = _DEFAULT_TOL,
               max_terms: int = _DEFAULT_MAX_TERMS) -> complex:
    """Ratio of consecutive first-row Green's elements, G_{0,n}/G_{0,n-1}.

    Evaluates -K_{i>=n}(u_i/d_i) with the coefficients of
    :func:`cf_coefficients`. The discarded tail of the fraction is
    estimated at every truncation index by the fixed point of the local
    coefficient map w -> u_i/(d_i + w), choosing the attractive root on
    the physical sheet and the repulsive root on the unphysical sheet
    (zero for ZeroTail). When ``bm_rounds`` > 0 the fraction is first
    accelerated by that many Bauer-Muir transforms with the constant
    fixed point of ``J.limit_coeffs``.

    Parameters
    ----------
    J : JacobiOperator
        Operator; must carry ``limit_coeffs`` unless sheet is ZeroTail.
    n : int
        Ratio index, >= 1.
    sheet : SheetSelector
        Tail branch; AUTO resolves to PHYSICAL for Im E >= 0 and raises
        otherwise.
    bm_rounds : int, optional
        Bauer-Muir rounds; defaults to 0 for Re E < 0 and 8 otherwise
        (ignored for ZeroTail, whose modification value would be 0).
    tol : float
        Relative convergence tolerance.
    max_terms : int
        Coefficient budget.

    Returns
    -------
    complex
        The ratio.

    Raises
    ------
    NotConverged
        If two successive modified approximants never agree to tol,
        with ``terms_used`` and ``last_delta`` of the last depth tried.
    SingularRatio
        If the ratio magnitude blows up (leading Green's element at or
        near a zero), or a finite fraction ends on a pole approximant.
    ZeroOffdiagonal, DegenerateTransform
        Propagated from coefficient generation and acceleration.
    """
    if n < 1:
        raise ValueError(f"ratio index must be >= 1, got {n}")
    sheet = _resolve_sheet(sheet, J.energy)
    gen = cf_coefficients(J, n)
    cf = ContinuedFraction(0.0 + 0.0j, lambda j: gen(n + j - 1))

    if sheet is SheetSelector.ZERO_TAIL:
        rounds_plan: tuple[int, ...] = (0,)

        def tail_of(pair):
            return 0.0j
    else:
        if J.limit_coeffs is None:
            raise ValueError(
                "operator has no limit coefficients; fixed-point tails "
                "are unavailable (use sheet=ZERO_TAIL)")
        # Physical tracks the attractive branch (ties resolved toward
        # nonnegative imaginary part, the limit from above the cut);
        # unphysical tracks the repulsive branch, which analytically
        # continues the function through the cut.
        branch = 0 if sheet is SheetSelector.PHYSICAL else 1

        def tail_of(pair):
            # the tail discarded after term m starts at coefficient m+1;
            # past the end of a finite fraction it is zero
            return 0.0j if pair is None else _fixed_point_pair(*pair)[branch]

        if bm_rounds is None:
            # isolated energies can stall both the plain fraction and a
            # particular transform depth, so the automatic policy
            # retries at decreasing depth before giving up
            first = 0 if complex(J.energy).real < 0.0 else 8
            rounds_plan = tuple(dict.fromkeys((first, 4, 2, 0)))
        else:
            rounds_plan = (int(bm_rounds),)

    for rounds in rounds_plan:
        cf_try = cf
        if rounds:
            w_lim = _fixed_point_pair(*J.limit_coeffs)[branch]
            cf_try = repeated_bauer_muir(cf, w_lim, rounds)
        try:
            # S_0 is the tail estimate alone, so agreement counts from S_1
            res = _sum_forward(cf_try, tol, max_terms, tail_of, first=1)
        except DegenerateTransform as exc:
            failure: Exception = exc
            continue
        if res is None:
            raise SingularRatio(
                "fraction terminated on a pole approximant; the leading "
                "Green's element vanishes")
        if res.converged:
            break
        failure = NotConverged(
            f"tail ratio fraction did not converge in {max_terms} "
            f"terms (last delta {res.last_delta:.3e})",
            terms_used=res.terms_used, last_delta=res.last_delta)
    else:
        raise failure
    ratio = -res.value
    if not (np.isfinite(ratio.real) and np.isfinite(ratio.imag)) \
            or abs(ratio) > _RATIO_LIMIT:
        raise SingularRatio(
            f"tail ratio magnitude {abs(ratio):.3e} exceeds trust limit; "
            "a leading Green's element is numerically zero")
    return ratio


def dense_truncation(J: JacobiOperator, N: int) -> np.ndarray:
    """Dense N x N tridiagonal block of the operator (no corner term)."""
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    mat = np.zeros((N, N), dtype=complex)
    for i in range(N):
        mat[i, i] = J.diag(i)
    for i in range(N - 1):
        mat[i, i + 1] = mat[i + 1, i] = J.offdiag(i)
    return mat


def corrected_truncation(J: JacobiOperator, N: int,
                         sheet: SheetSelector = SheetSelector.AUTO,
                         bm_rounds: int | None = None,
                         tol: float = _DEFAULT_TOL,
                         max_terms: int = _DEFAULT_MAX_TERMS) -> np.ndarray:
    """N x N tridiagonal block with the tail correction in its corner.

    The inverse of this matrix is the exact leading N x N Green's block;
    its determinant vanishes exactly at the Green's function poles, which
    is what pole searches scan (no inversion, no condition threshold).

    A vanishing J_{N-1,N} decouples the block from the rest of the
    operator, so the corner term is zero without evaluating the ratio.
    """
    mat = dense_truncation(J, N)
    coupling = complex(J.offdiag(N - 1))
    if coupling != 0:
        mat[N - 1, N - 1] += coupling * tail_ratio(
            J, N, sheet, bm_rounds, tol, max_terms)
    return mat


def _checked_inverse(mat: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrix(
            f"condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}; "
            "energy sits numerically on a pole")
    return np.linalg.inv(mat)


def green_submatrix(J: JacobiOperator, N: int,
                    sheet: SheetSelector = SheetSelector.AUTO,
                    tol: float = _DEFAULT_TOL,
                    bm_rounds: int | None = None,
                    max_terms: int = _DEFAULT_MAX_TERMS) -> GreenMatrix:
    """Leading N x N block of the Green's matrix G = J^{-1}.

    Forms the N x N tridiagonal block of J, adds the corner correction
    J_{N-1,N} * tail_ratio(J, N, ...) to the last diagonal entry, and
    returns the dense inverse of the corrected block, which equals the
    leading block of the full inverse exactly.

    Parameters
    ----------
    J : JacobiOperator
        Operator to invert.
    N : int
        Block size, >= 1.
    sheet : SheetSelector
        Tail branch for the corner ratio.
    tol, bm_rounds, max_terms
        Passed through to :func:`tail_ratio`.

    Returns
    -------
    GreenMatrix

    Raises
    ------
    SingularMatrix
        When the corrected block's condition estimate exceeds 1e14
        (energy numerically on a pole); pole searches treat this as
        "found".
    """
    resolved = _resolve_sheet(sheet, J.energy)
    mat = corrected_truncation(J, N, resolved, bm_rounds, tol, max_terms)
    entries = _checked_inverse(mat)
    return GreenMatrix(entries=entries, energy=complex(J.energy),
                       sheet=resolved, n=N)


def truncated_inverse(A_diag, A_offdiag, corner_ratio: complex,
                      a_n_np1: complex) -> GreenMatrix:
    """Inverse of a tridiagonal matrix corrected by a caller-supplied ratio.

    Generic form of :func:`green_submatrix`: builds the symmetric
    tridiagonal matrix from the given diagonals, adds
    a_n_np1 * corner_ratio to the last diagonal entry, and inverts.
    With corner_ratio = 0 this is the plain truncated inverse.

    Parameters
    ----------
    A_diag : sequence of complex, length n
        Main diagonal.
    A_offdiag : sequence of complex, length n-1
        First off-diagonal (symmetric).
    corner_ratio : complex
        Ratio of the two leading Green's elements just outside the block.
    a_n_np1 : complex
        Coupling element between the last included and first excluded
        basis states.

    Returns
    -------
    GreenMatrix
        With energy and sheet unset (None).

    Raises
    ------
    SingularMatrix
        When the condition estimate exceeds 1e14.
    """
    diag = np.asarray(A_diag, dtype=complex)
    off = np.asarray(A_offdiag, dtype=complex)
    n = diag.shape[0]
    if n < 1:
        raise ValueError("need at least a 1x1 matrix")
    if off.shape[0] != n - 1:
        raise ValueError(
            f"off-diagonal length {off.shape[0]} does not match size {n}")
    mat = np.diag(diag)
    if n > 1:
        mat += np.diag(off, 1) + np.diag(off, -1)
    mat[n - 1, n - 1] += complex(a_n_np1) * complex(corner_ratio)
    entries = _checked_inverse(mat)
    return GreenMatrix(entries=entries, energy=None, sheet=None, n=n)
