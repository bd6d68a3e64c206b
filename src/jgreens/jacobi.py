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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .contfrac import (
    _DEGENERATE_REL,
    _POLE_THRESHOLD,
    _ZERO_THRESHOLD,
    _fixed_point_arrays,
)
from .errors import (
    DegenerateTransform,
    NotConverged,
    NumericBreakdown,
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

_NO_LIMITS = ("operator has no limit coefficients; fixed-point tails "
              "are unavailable (use sheet=ZERO_TAIL)")


class SheetSelector(Enum):
    """Which branch of the Green's function a tail estimate selects."""

    PHYSICAL = "physical"
    UNPHYSICAL = "unphysical"
    ZERO_TAIL = "zero-tail"
    AUTO = "auto"


@dataclass(frozen=True)
class JacobiOperator:
    """Symmetric tridiagonal operator with energy baked in.

    The maps must be pure (same value for the same index, no other
    effect): the corner-ratio kernel reads them in chunks, up to a chunk
    past the last index it needs. IndexError ends a finite operator.

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


def _bm_depths(energy: complex) -> tuple[int, ...]:
    """Bauer-Muir depths the automatic policy tries, in order.

    Isolated energies can stall both the plain fraction and a particular
    transform depth, so a depth that raises DegenerateTransform or does
    not converge is followed by the next one before giving up.
    """
    return (0, 4, 2) if complex(energy).real < 0.0 else (8, 4, 2, 0)


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

    This is the one-lane case of :func:`_corner_ratios`, which sums chunks
    of coefficients as array operations and may read past the approximant
    it stops at; only the indices it reaches raise, in the scalar order.
    A finite fraction (maps raising IndexError) is summed exactly.

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
        Bauer-Muir rounds (ignored for ZeroTail, whose modification value
        would be 0). By default the depths of :func:`_bm_depths` are
        tried in turn: 0, 4, 2 for Re E < 0 and 8, 4, 2, 0 otherwise,
        moving to the next after a DegenerateTransform or NotConverged.
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
        with ``terms_used`` (approximants, not indices read) and
        ``last_delta`` of the last depth tried.
    SingularRatio
        If the ratio magnitude blows up (leading Green's element at or
        near a zero), or a finite fraction ends on a pole approximant.
    ZeroOffdiagonal, DegenerateTransform
        Propagated from coefficient generation and acceleration.
    """
    if n < 1:
        raise ValueError(f"ratio index must be >= 1, got {n}")
    (ratio,), (error,) = _corner_ratios([J], n, sheet, bm_rounds, tol,
                                        max_terms, _CHUNK_LANE)
    if error is not None:
        raise error
    return complex(ratio)


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


def _checked_inverses(mats: np.ndarray
                      ) -> tuple[np.ndarray, list[SingularMatrix | None]]:
    """Inverses of a stack of blocks (L, N, N), each screened on its own.

    A block with a non-finite entry, or a condition estimate that is not
    finite or exceeds 1e14, is not inverted: its slot stays zero and its
    error is a SingularMatrix. The screen comes first because a stacked
    ``cond`` fails for the whole stack on one non-finite block, and a
    stacked ``inv`` on one exactly singular block.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    cond = np.full(len(mats), np.inf)
    cond[finite] = np.linalg.cond(mats[finite])
    good = cond <= _COND_LIMIT
    inverses = np.zeros_like(mats)
    inverses[good] = np.linalg.inv(mats[good])
    errors: list[SingularMatrix | None] = [None] * len(mats)
    for k in np.flatnonzero(~good):
        errors[k] = SingularMatrix(
            f"condition estimate {cond[k]:.3e} exceeds {_COND_LIMIT:.0e}; "
            "energy sits numerically on a pole" if finite[k] else
            "block has a non-finite entry; energy sits on a pole or the "
            "operator's entries overflowed")
    return inverses, errors


def _checked_inverse(mat: np.ndarray) -> np.ndarray:
    (inverse,), (error,) = _checked_inverses(mat[None])
    if error is not None:
        raise error
    return inverse


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


def _corrected_blocks(family: Callable, energies: Sequence, N: int,
                      sheet: SheetSelector = SheetSelector.PHYSICAL,
                      bm_rounds: int | None = None, tol: float = _DEFAULT_TOL,
                      max_terms: int = _DEFAULT_MAX_TERMS,
                      errors: list | None = None) -> tuple[np.ndarray, list]:
    """``corrected_truncation(family(E), N, sheet, ...)`` at many energies,
    as one batch of lanes (corner ratios by :func:`_corner_ratios`): the
    (L, N, N) blocks, zero where a lane failed, and ``errors``. Lanes whose
    ``errors`` entry is set are skipped; any other records there the first
    error that ``family(E)`` or ``corrected_truncation`` raises.
    """
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    errors = [None] * len(energies) if errors is None else errors
    ops, lanes = [], []
    for k, E in enumerate(energies):
        try:
            if errors[k] is None:
                ops.append(family(E))
                lanes.append(k)
        except Exception as exc:  # the lane's failure, kept
            errors[k] = exc
    diag, _, failed = _read_lanes([op.diag for op in ops], 0, N)
    read = [p for p in range(len(ops)) if p not in failed]
    off = np.zeros((N, len(ops)), dtype=complex)
    off[:, read], _, more = _read_lanes([ops[p].offdiag for p in read], 0, N)
    failed.update((read[q], exc) for q, exc in more.items())
    coupled = [p for p in read if p not in failed and off[-1, p] != 0]
    ratios, more = _corner_ratios([ops[p] for p in coupled], N, sheet,
                                  bm_rounds, tol, max_terms)
    failed.update((p, exc) for p, exc in zip(coupled, more) if exc)
    idx = np.arange(N)
    sub = np.zeros((len(ops), N, N), dtype=complex)
    sub[:, idx, idx] = diag.T
    sub[:, idx[:-1], idx[1:]] = sub[:, idx[1:], idx[:-1]] = off[:-1].T
    sub[coupled, -1, -1] += off[-1, coupled] * ratios
    sub[list(failed)] = 0.0
    for p, exc in failed.items():
        errors[lanes[p]] = exc
    blocks = np.zeros((len(energies), N, N), dtype=complex)
    blocks[lanes] = sub
    return blocks, errors


def _green_blocks(family: Callable, energies: Sequence, N: int,
                  errors: list | None = None) -> tuple[np.ndarray, list]:
    """``green_submatrix(family(E), N, PHYSICAL)`` at many energies: the
    chunked kernel's many-lane case (:func:`_corrected_blocks`), inverted."""
    blocks, errors = _corrected_blocks(family, energies, N, errors=errors)
    live = [k for k, exc in enumerate(errors) if exc is None]
    out = np.zeros_like(blocks)
    out[live], inverse_errors = _checked_inverses(blocks[live])
    for k, exc in zip(live, inverse_errors):
        errors[k] = exc
    return out, errors


# Tail branch of a lane in the corner-ratio kernel.
_ATTRACTIVE, _REPULSIVE, _ZERO = 0, 1, 2
# Coefficients in a sum's first chunk: _CHUNK_FIRST, or _CHUNK_LANE for
# tail_ratio's one lane with Bauer-Muir rounds on (long near the real axis;
# one lane pays per chunk, not per coefficient); then 4n + 3 up to
# _CHUNK_MAX, so that n + 1 states, a power of two, are scanned. A chunk
# runs its lanes in groups of at most _CHUNK_CELLS // n.
_CHUNK_FIRST, _CHUNK_LANE, _CHUNK_MAX, _CHUNK_CELLS = 15, 63, 1023, 1 << 12
# Outcome of a lane whose fraction ended while Bauer-Muir rounds were on.
_ENDED = object()


def _corner_ratios(ops: Sequence[JacobiOperator], n: int,
                   sheet: SheetSelector = SheetSelector.PHYSICAL,
                   bm_rounds: int | None = None, tol: float = _DEFAULT_TOL,
                   max_terms: int = _DEFAULT_MAX_TERMS,
                   first: int = _CHUNK_FIRST) -> tuple[np.ndarray, list]:
    """``tail_ratio(op, n, sheet, ...)`` of every operator, as lanes: the
    ratios (zero where a lane failed) and per lane, None or the error.
    Lanes at one Bauer-Muir depth of their plans form one batch of
    :func:`_sum_fractions`; a lane moves on through its plan as
    ``tail_ratio`` does, and to depth 0 when its fraction ended. The
    arithmetic is elementwise: a lane's value is the same in any batch
    with the same ``first`` chunk (used at depths above 0).
    """
    values, errors = [0j] * len(ops), [None] * len(ops)
    branch = np.zeros(len(ops), dtype=np.int8)
    limits = np.zeros((2, len(ops)), dtype=complex)
    plans: dict[int, tuple[int, ...]] = {}
    for k, op in enumerate(ops):
        try:
            resolved = _resolve_sheet(sheet, op.energy)
        except ValueError as exc:
            errors[k] = exc
            continue
        if resolved is SheetSelector.ZERO_TAIL:
            branch[k], plans[k] = _ZERO, (0,)
        elif op.limit_coeffs is None:
            errors[k] = ValueError(_NO_LIMITS)
        else:
            # physical: the attractive root (the limit from above the cut);
            # unphysical: the repulsive one, continuing through the cut
            branch[k] = _REPULSIVE if resolved is SheetSelector.UNPHYSICAL \
                else _ATTRACTIVE
            limits[:, k] = op.limit_coeffs
            plans[k] = _bm_depths(op.energy) if bm_rounds is None \
                else (int(bm_rounds),)
    stage = 0
    while plans:
        batches: dict[int, list[int]] = {}
        for k, plan in plans.items():
            batches.setdefault(plan[stage], []).append(k)
        for rounds, lanes in batches.items():
            # the Bauer-Muir modifier: the limits' fixed point on the branch
            w = np.where(branch[lanes] == _REPULSIVE, *_fixed_point_arrays(
                *limits[:, lanes])[::-1]) if rounds else np.zeros(len(lanes))
            outcomes = _sum_fractions([ops[k] for k in lanes], n, rounds, w,
                                      branch[lanes], tol, max_terms,
                                      first if rounds else _CHUNK_FIRST)
            for k, value in zip(lanes, outcomes):
                plan = plans.pop(k)
                if value is _ENDED:
                    plans[k] = plan[:stage + 1] + (0,)
                elif isinstance(value, (DegenerateTransform, NotConverged)) \
                        and stage + 1 < len(plan):
                    plans[k] = plan
                elif isinstance(value, complex):
                    values[k] = -value
                else:  # None: a finite fraction ended on a pole
                    errors[k] = value or SingularRatio(
                        "fraction terminated on a pole approximant; the "
                        "leading Green's element vanishes")
        stage += 1
    ratios = np.array(values, dtype=complex)
    for k in np.flatnonzero(~(np.abs(ratios) <= _RATIO_LIMIT)):
        errors[k] = errors[k] or SingularRatio(
            f"tail ratio magnitude {abs(ratios[k]):.3e} exceeds trust "
            "limit; a leading Green's element is numerically zero")
    return ratios, errors


def _sum_fractions(ops: Sequence[JacobiOperator], n: int, rounds: int,
                   w: np.ndarray, branch: np.ndarray, tol: float,
                   max_terms: int, first: int) -> list:
    """K_{i>=n}(u_i/d_i) of every operator after ``rounds`` Bauer-Muir
    transforms with w[k], with the tails of branch[k], in chunks from a
    ``first`` one on (:func:`_fraction_chunk`). Per lane: the approximant
    that agrees with the one before, None for a finite fraction ending on
    a pole, ``_ENDED`` for one ending with rounds on, or the error.
    """
    L = len(ops)
    outcomes: list = [None] * L
    one, zero = np.ones(L, dtype=complex), np.zeros(L, dtype=complex)
    st = {  # the lane state; x: [[A_m, A_{m-1}], [B_m, B_{m-1}]] so far
        "x": np.array([[rounds * w, one], [one, zero]]),
        # each round's lambda and input numerator at the last index
        "lam": np.ones((rounds, L), dtype=complex),
        "num": np.zeros((rounds, L), dtype=complex),
        "prev": zero.copy(), "has_prev": np.zeros(L, bool), "w": w,
        "branch": branch}
    live, j0, size = np.arange(L), 1, first
    last_step = max(max_terms, 1)  # max_terms 0 stops at S_1, as 1 does
    with np.errstate(all="ignore"):
        while live.size:
            size = min(size, last_step + 2 - j0)
            group = max(1, _CHUNK_CELLS // size)
            keep = np.ones(live.size, dtype=bool)
            for g in range(0, live.size, group):
                view = st if group >= live.size else {
                    key: v[..., g:g + group] for key, v in st.items()}
                stopped = _fraction_chunk(
                    [ops[k] for k in live[g:g + group]], view, n, j0, size,
                    rounds, tol, last_step)
                for p, value in stopped.items():
                    outcomes[live[g + p]] = value
                    keep[g + p] = False
            if not keep.any():
                break
            live = live[keep]
            st = {key: v[..., keep] for key, v in st.items()}
            j0, size = j0 + size, min(4 * size + 3, _CHUNK_MAX)
    return outcomes


def _fraction_chunk(ops: list, st: dict, n: int, j0: int, size: int,
                    rounds: int, tol: float, max_terms: int) -> dict:
    """Sum coefficients j0 .. j0 + size - 1 of the lanes in ``st``.

    Arrays are (position, lane). Position t holds coefficient j = j0 + t
    (operator index i = n + j - 1) and step j - 1: the approximant
    S_{j-1}, with its tail from coefficient j, then the recurrence update
    by coefficient j. A position's events come in the scalar order: the
    reads and checks of coefficient j (J_{i-1,i}, J_{i,i+1}, either one
    zero, J_ii, a zero numerator, each Bauer-Muir round; IndexError ends
    the fraction, S_{j-1} then takes a zero tail); a non-finite S_{j-1},
    agreement, the budget, the end; a non-finite recurrence value. A lane
    stops at its first event, so what it read past that never raises.
    """
    i0 = n + j0 - 1
    # J_{i-1,i} and J_{i,i+1} of position t are off[t] and off[t + 1]
    off, off_stop, off_err = _read_lanes([op.offdiag for op in ops], i0 - 1,
                                         i0 + size)
    dg, dg_stop, dg_err = _read_lanes([op.diag for op in ops], i0, i0 + size)
    a, b = -off[:-1] / off[1:], -dg / off[1:]
    checks = (a == 0)[None]  # a zero a_i, then each Bauer-Muir round's
    if rounds:
        a, b, checks = _bauer_muir_rounds(a, b, st, j0 == 1)
    zero, off_at = off == 0, np.maximum(off_stop - 1, 0)
    bad = zero[1:] | zero[:-1] | checks.any(axis=0)
    if off_err or dg_err:
        bad |= np.arange(size)[:, None] >= np.minimum(off_at, dg_stop)
    attractive, repulsive = _fixed_point_arrays(a, b)
    tail = np.where(st["branch"] == _REPULSIVE, repulsive, attractive)
    tail[:, st["branch"] == _ZERO] = 0.0
    fails, ends = {}, {}
    for p in np.flatnonzero(bad.any(axis=0)).tolist():
        t = int(bad[:, p].argmax())
        if p in off_err and off_at[p] == t:
            cause = off_err[p]
        elif zero[t + 1, p] or zero[t, p]:  # J_{i,i+1} first, then J_{i-1,i}
            cause = ZeroOffdiagonal(i0 + t - int(not zero[t + 1, p]))
        elif p in dg_err and dg_stop[p] == t:
            cause = dg_err[p]
        elif (kind := int(checks[:, t, p].argmax())) % 2:
            cause = DegenerateTransform(j0 + t, round_index=(kind + 1) // 2)
        else:
            cause = ValueError(f"partial numerator a_{j0 + t} is zero")
        if isinstance(cause, IndexError) and not rounds:
            ends[p], tail[t, p] = t, 0.0
        else:  # an end with rounds on is summed again without them
            fails[p] = (t, _ENDED if isinstance(cause, IndexError) else cause)

    x = np.empty((2, 2, size + 1) + a.shape[1:], dtype=complex)
    x[:, :, 0] = st["x"]
    x[0, 0, 1:], x[0, 1, 1:], x[1, 0, 1:], x[1, 1, 1:] = b, 1.0, a, 0.0
    _prefix_products(x)
    st["x"][...] = x[:, :, -1]
    num, den = x[:, 0, :-1] + x[:, 1, :-1] * tail
    s = num / den
    approx = ~(np.abs(den) <= _POLE_THRESHOLD * np.fmax(1.0, np.abs(num)))
    if j0 == 1:
        approx[0] = False  # step 0 forms no approximant
    nonfinite = approx & ~np.isfinite(s)
    compared = approx & np.concatenate((st["has_prev"][None], approx[:-1]))
    delta = np.abs(s - np.concatenate((st["prev"][None], s[:-1])))
    agree = compared & (delta <= tol * np.fmax(1.0, np.abs(s)))
    event = bad | nonfinite | agree
    event |= ~np.isfinite(x[:, :, 1:]).all(axis=(0, 1))
    event[-1] |= j0 + size - 2 >= max_terms
    st["prev"][...], st["has_prev"][...] = s[-1], approx[-1]

    stopped: dict[int, object] = {}
    if not event.any():
        return stopped
    lanes = np.flatnonzero(event.any(axis=0))
    ts = event[:, lanes].argmax(axis=0)
    for p, t, value, agreed, broke, finite in zip(
            lanes.tolist(), ts.tolist(), s[ts, lanes].tolist(),
            agree[ts, lanes].tolist(), nonfinite[ts, lanes].tolist(),
            approx[ts, lanes].tolist()):
        m = j0 + t - 1
        if fails.get(p, (None,))[0] == t:
            stopped[p] = fails[p][1]
        elif broke:
            stopped[p] = NumericBreakdown("non-finite approximant")
        elif agreed:
            stopped[p] = value
        elif m >= max_terms:  # last_delta: the chunk's last comparison
            seen = np.flatnonzero(compared[:t + 1, p])
            last = float(delta[seen[-1], p]) if seen.size else math.inf
            stopped[p] = NotConverged(
                f"tail ratio fraction did not converge in {max_terms} "
                f"terms (last delta {last:.3e})",
                terms_used=m, last_delta=last)
        elif ends.get(p) == t:
            stopped[p] = value if finite else None
        else:
            stopped[p] = NumericBreakdown(
                f"non-finite recurrence value at term {m + 1}")
    return stopped


def _bauer_muir_rounds(a: np.ndarray, b: np.ndarray, st: dict, first: bool
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bauer-Muir rounds as in :func:`jgreens.contfrac.repeated_bauer_muir`,
    one per row of ``st["lam"]``, with the lanes' w; index i - 1 of the
    first position comes from ``st``, which is updated. Returns the last
    (c, d) and the check masks in order: a zero a_i, then per round a
    degenerate lambda_i and a zero c_i."""
    rounds, w = len(st["lam"]), st["w"]
    # row 0 holds index i - 1 of the first position; num[r] is round r's
    # input numerator, num[r + 1] its output. Before the first coefficient
    # lambda = num = 1 and w = 0 give c_1 = lambda_1, d_1 = b_1 + w.
    lam = np.empty((rounds, len(a) + 1) + a.shape[1:], dtype=complex)
    num = np.empty((rounds + 1,) + lam.shape[1:], dtype=complex)
    den = np.empty((rounds + 1,) + a.shape, dtype=complex)
    lam[:, 0], num[:rounds, 0], num[0, 1:], den[0] = st["lam"], st["num"], a, b
    w_before = np.broadcast_to(w, a.shape)
    if first:
        lam[:, 0] = num[:rounds, 0] = 1.0
        w_before = w_before.copy()
        w_before[0] = 0.0
    for r in range(rounds):
        bw = den[r] + w
        np.subtract(num[r, 1:], w * bw, out=lam[r, 1:])
        q = lam[r, 1:] / lam[r, :-1]
        np.multiply(num[r, :-1], q, out=num[r + 1, 1:])
        np.subtract(bw, w_before * q, out=den[r + 1])
    st["lam"][...], st["num"][...] = lam[:, -1], num[:rounds, -1]
    checks = np.empty((2 * rounds + 1,) + a.shape, dtype=bool)
    np.equal(num[:, 1:], 0, out=checks[0::2])
    w_abs = np.abs(w)
    scale = np.maximum(np.abs(num[:rounds, 1:]),
                       w_abs * (np.abs(den[:rounds]) + w_abs))
    np.less_equal(np.abs(lam[:, 1:]), _DEGENERATE_REL * np.maximum(
        scale, _ZERO_THRESHOLD), out=checks[1::2])
    return num[rounds, 1:], den[rounds], checks


def _prefix_products(x: np.ndarray) -> None:
    """x[:, :, t] <- x[:, :, 0] @ ... @ x[:, :, t] for a (2, 2, positions,
    lanes) stack, in place, in log2(positions) rounds (Hillis and Steele,
    CACM 29 (1986)). The first, the last and every other round rescale to
    unit largest entry, so that the rounds between take entries <= 1."""
    step, rescale = 1, True
    while step < x.shape[2]:
        prod = x[:, :1, :-step] * x[None, 0, :, step:]
        prod += x[:, 1:, :-step] * x[None, 1, :, step:]
        if rescale or 2 * step >= x.shape[2]:
            prod *= 1.0 / np.abs(prod).max(axis=(0, 1))
        x[:, :, step:] = prod
        step, rescale = 2 * step, not rescale


def _read_lanes(fns: Sequence[Callable[[int], complex]], lo: int, hi: int
                ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """fn(i) for i in [lo, hi) and every lane's fn: the (hi - lo, lanes)
    values, zero from a lane's first raising index on, that index as an
    offset from lo (hi - lo if none), and the exceptions by lane."""
    span, errors = range(lo, hi), {}
    stops = np.full(len(fns), len(span))
    try:
        values = np.array([fn(i) for i in span for fn in fns], dtype=complex)
        return values.reshape(len(span), len(fns)), stops, errors
    except Exception:  # some lane raised: read lane by lane
        values = np.zeros((len(span), len(fns)), dtype=complex)
    for p, fn in enumerate(fns):
        for t, i in enumerate(span):
            try:
                values[t, p] = fn(i)
            except Exception as exc:  # the lane's failure, kept
                stops[p], errors[p] = t, exc
                break
    return values, stops, errors


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
