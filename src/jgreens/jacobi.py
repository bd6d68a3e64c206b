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
    _RENORM_AT,
    _ZERO_THRESHOLD,
    ContinuedFraction,
    _fixed_point_pair,
    _sum_forward,
    repeated_bauer_muir,
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
    first = 0 if complex(energy).real < 0.0 else 8
    return tuple(dict.fromkeys((first, 4, 2, 0)))


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
            raise ValueError(_NO_LIMITS)
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
            rounds_plan = _bm_depths(J.energy)
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
        failure = _not_converged(max_terms, res.terms_used, res.last_delta)
    else:
        raise failure
    ratio = -res.value
    if not (np.isfinite(ratio.real) and np.isfinite(ratio.imag)) \
            or abs(ratio) > _RATIO_LIMIT:
        raise _singular_ratio(abs(ratio))
    return ratio


def _not_converged(max_terms: int, terms_used: int,
                   last_delta: float) -> NotConverged:
    return NotConverged(
        f"tail ratio fraction did not converge in {max_terms} "
        f"terms (last delta {last_delta:.3e})",
        terms_used=terms_used, last_delta=last_delta)


def _singular_ratio(size: float) -> SingularRatio:
    return SingularRatio(
        f"tail ratio magnitude {size:.3e} exceeds trust limit; "
        "a leading Green's element is numerically zero")


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


def _green_blocks(ops: Sequence[JacobiOperator], N: int,
                  ) -> tuple[np.ndarray, list[Exception | None]]:
    """Physical-sheet Green's blocks of many operators, as a batch of lanes.

    Lane k is ``green_submatrix(ops[k], N, SheetSelector.PHYSICAL)``: the
    same coefficient reads through the scalar ``diag`` and ``offdiag``,
    the same checks in the same order and the same Bauer-Muir depth plan.
    Each step (the dense block, the corner ratio, the condition check and
    the inverse) runs as array operations over the lanes still live. A
    lane whose coupling J_{N-1,N} is zero gets no corner term and reads
    no ratio, so it needs no ``limit_coeffs``.

    Returns
    -------
    blocks : numpy.ndarray
        Complex (L, N, N) stack of Green's blocks, zero where a lane failed.
    errors : list
        Per lane, None or the exception the scalar path raises there, one
        instance per lane.
    """
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    L = len(ops)
    # lane -> its first failure, read in the scalar path's order
    left: dict[int, Exception] = {}
    diags = [op.diag for op in ops]
    offdiags = [op.offdiag for op in ops]
    diag = np.stack([_read(diags, i, left) for i in range(N)], axis=-1)
    off = np.stack([_read(offdiags, i, left) for i in range(N)], axis=-1)
    errors: list[Exception | None] = [left.get(k) for k in range(L)]
    blocks = np.zeros((L, N, N), dtype=complex)
    idx = np.arange(N)
    blocks[:, idx, idx] = diag
    blocks[:, idx[:-1], idx[1:]] = blocks[:, idx[1:], idx[:-1]] = off[:, :-1]

    coupled = [k for k in range(L) if errors[k] is None and off[k, -1] != 0]
    ratios, ratio_errors = _corner_ratios([ops[k] for k in coupled], N,
                                          off[coupled, -1])
    for k, exc in zip(coupled, ratio_errors):
        errors[k] = exc
    fine = [p for p, exc in enumerate(ratio_errors) if exc is None]
    rows = [coupled[p] for p in fine]
    blocks[rows, -1, -1] += off[rows, -1] * ratios[fine]

    live = [k for k in range(L) if errors[k] is None]
    inverses, inverse_errors = _checked_inverses(blocks[live])
    out = np.zeros_like(blocks)
    out[live] = inverses
    for k, exc in zip(live, inverse_errors):
        errors[k] = exc
    return out, errors


def _corner_ratios(ops: Sequence[JacobiOperator], N: int,
                   coupling: np.ndarray,
                   ) -> tuple[np.ndarray, list[Exception | None]]:
    """Physical-sheet ``tail_ratio(op, N)`` of every operator, batched.

    Every lane starts at the first depth of its :func:`_bm_depths` plan;
    lanes at the same depth form one batch of :func:`_sum_lanes`, and a
    lane whose depth raised DegenerateTransform or did not converge moves
    to the next depth of its plan, as in :func:`tail_ratio`.
    """
    ratios = np.zeros(len(ops), dtype=complex)
    errors: list[Exception | None] = [None] * len(ops)
    plans: dict[int, tuple[int, ...]] = {}
    for k, op in enumerate(ops):
        if op.limit_coeffs is None:
            errors[k] = ValueError(_NO_LIMITS)
        else:
            plans[k] = _bm_depths(op.energy)
    stage = 0
    while plans:
        batches: dict[int, list[int]] = {}
        for k, plan in plans.items():
            batches.setdefault(plan[stage], []).append(k)
        for rounds, lanes in batches.items():
            w = np.array([_fixed_point_pair(*ops[k].limit_coeffs)[0]
                          for k in lanes]) if rounds else np.zeros(len(lanes))
            outcomes = _sum_lanes([ops[k] for k in lanes], N,
                                  coupling[lanes], w, rounds)
            for k, value in zip(lanes, outcomes):
                if isinstance(value, (DegenerateTransform, NotConverged)) \
                        and stage + 1 < len(plans[k]):
                    continue
                del plans[k]
                if isinstance(value, Exception):
                    errors[k] = value
                else:
                    ratios[k] = -value
        stage += 1
    size = np.abs(ratios)
    for k in np.flatnonzero(~(size <= _RATIO_LIMIT)):
        if errors[k] is None:
            errors[k] = _singular_ratio(size[k])
    return ratios, errors


def _sum_lanes(ops: Sequence[JacobiOperator], N: int, coupling: np.ndarray,
               w: np.ndarray, rounds: int, tol: float = _DEFAULT_TOL,
               max_terms: int = _DEFAULT_MAX_TERMS) -> list:
    """One depth of :func:`tail_ratio` for many operators at once.

    Lane k sums the fraction -K_{i>=N}(u_i/d_i) of ``ops[k]`` after
    ``rounds`` Bauer-Muir transforms with the constant ``w[k]``, with the
    attractive fixed-point tail, as ``_sum_forward(..., first=1)`` does
    on a ``repeated_bauer_muir`` chain: the same reads, checks,
    renormalisation and agreement test, in the same order. All lanes step
    through coefficient j = n + 1 (operator index N + n) together, and a
    lane leaves when its approximants agree or a check fails.

    Returns, per lane, the converged approximant or the exception.
    """
    outcomes: list = [None] * len(ops)
    lane = np.arange(len(ops))
    offdiags = [op.offdiag for op in ops]
    diags = [op.diag for op in ops]
    b0 = np.zeros(len(ops), dtype=complex)
    for _ in range(rounds):
        b0 = b0 + w
    st = {
        "upper": coupling.astype(complex),  # J_{N+n-1,N+n}
        "w": w,
        "lam": np.zeros((rounds, len(ops)), dtype=complex),
        "num": np.zeros((rounds, len(ops)), dtype=complex),
        "a_prev": np.ones(len(ops), dtype=complex), "a_cur": b0,
        "b_prev": np.zeros(len(ops), dtype=complex),
        "b_cur": np.ones(len(ops), dtype=complex),
        "prev": np.zeros(len(ops), dtype=complex),
        "has_prev": np.zeros(len(ops), dtype=bool),
        "last_delta": np.full(len(ops), math.inf),
    }
    n = 0
    with np.errstate(all="ignore"):
        while lane.size:
            j, i = n + 1, N + n
            # left: lane position -> outcome; the first one recorded wins,
            # so the checks below run in the order the scalar path raises
            left: dict[int, object] = {}
            lower = _read(offdiags, i, left)
            _leave(left, lower == 0, lambda: ZeroOffdiagonal(i))
            _leave(left, st["upper"] == 0, lambda: ZeroOffdiagonal(i - 1))
            a = -st["upper"] / lower
            b = -_read(diags, i, left) / lower
            _leave(left, a == 0,
                   lambda: ValueError(f"partial numerator a_{j} is zero"))
            w = st["w"]
            for r in range(rounds):
                v = a - w * (b + w)
                scale = np.maximum(np.abs(a),
                                   np.abs(w) * (np.abs(b) + np.abs(w)))
                _leave(left, np.abs(v) <= _DEGENERATE_REL
                       * np.maximum(scale, _ZERO_THRESHOLD),
                       lambda: DegenerateTransform(j, round_index=r + 1))
                if j == 1:
                    c, d = v, b + w
                else:
                    q = v / st["lam"][r]
                    c, d = st["num"][r] * q, b + w - w * q
                _leave(left, c == 0,
                       lambda: ValueError(f"partial numerator a_{j} is zero"))
                st["lam"][r], st["num"][r] = v, a
                a, b = c, d
            if n >= 1:
                tail = _attractive_fixed_points(a, b)
                top = st["a_cur"] + st["a_prev"] * tail
                den = st["b_cur"] + st["b_prev"] * tail
                pole = np.abs(den) <= _POLE_THRESHOLD * np.fmax(
                    1.0, np.abs(top))
                s = top / den
                finite = ~pole
                _leave(left, finite & ~np.isfinite(s),
                       lambda: NumericBreakdown("non-finite approximant"))
                compared = finite & st["has_prev"]
                delta = np.abs(s - st["prev"])
                st["last_delta"] = np.where(compared, delta, st["last_delta"])
                agree = compared & (delta <= tol * np.maximum(1.0, np.abs(s)))
                for p in np.flatnonzero(agree):
                    left.setdefault(p, complex(s[p]))
                st["prev"], st["has_prev"] = s, finite
                if n >= max_terms:
                    for p in range(lane.size):
                        left.setdefault(p, _not_converged(
                            max_terms, n, float(st["last_delta"][p])))
            n += 1
            a_cur, b_cur = st["a_cur"], st["b_cur"]
            st["a_cur"], st["a_prev"] = b * a_cur + a * st["a_prev"], a_cur
            st["b_cur"], st["b_prev"] = b * b_cur + a * st["b_prev"], b_cur
            # the *_prev values passed this test a step earlier, so the
            # scale is finite exactly when all four values are
            scale = np.maximum(np.abs(st["a_cur"]), np.abs(st["b_cur"]))
            _leave(left, ~np.isfinite(scale), lambda: NumericBreakdown(
                f"non-finite recurrence value at term {n}"))
            big = scale > _RENORM_AT
            if big.any():
                for key in ("a_cur", "a_prev", "b_cur", "b_prev"):
                    st[key] = np.where(big, st[key] / scale, st[key])
            st["upper"] = lower
            if left:
                for p, value in left.items():
                    outcomes[lane[p]] = value
                keep = np.ones(lane.size, dtype=bool)
                keep[list(left)] = False
                lane = lane[keep]
                st = {key: v[..., keep] for key, v in st.items()}
                offdiags = [f for f, kept in zip(offdiags, keep) if kept]
                diags = [f for f, kept in zip(diags, keep) if kept]
    return outcomes


def _read(fns: list, i: int, left: dict) -> np.ndarray:
    """fn(i) for every lane's fn; a lane whose call raises leaves with it."""
    try:
        return np.array([fn(i) for fn in fns], dtype=complex)
    except Exception:  # some lane raised: read lane by lane below
        pass
    values = np.zeros(len(fns), dtype=complex)
    for p, fn in enumerate(fns):
        if p in left:
            continue
        try:
            values[p] = fn(i)
        except Exception as exc:  # this lane's failure, kept for the caller
            left[p] = exc
    return values


def _leave(left: dict, mask: np.ndarray, error: Callable[[], Exception]
           ) -> None:
    """Record a fresh ``error()`` for each lane in ``mask`` not yet left."""
    if not np.count_nonzero(mask):
        return
    for p in np.flatnonzero(mask):
        if p not in left:
            left[p] = error()


def _attractive_fixed_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_fixed_point_pair(a, b)[0]`` lane by lane, with its tie rule."""
    s = np.sqrt(b * b + 4.0 * a)
    s = np.where((np.conj(b) * s).real < 0.0, -s, s)
    big = -(b + s) / 2.0
    small = np.where(big == 0, 0.0j, -a / big)
    m_big, m_small = np.abs(big), np.abs(small)
    tie = np.abs(m_big - m_small) <= 1e-14 * np.maximum(
        np.maximum(m_big, m_small), _ZERO_THRESHOLD)
    if not tie.any():
        return small
    big_first = (big.imag > small.imag) \
        | ((big.imag == small.imag) & (big.real >= small.real))
    return np.where(tie & big_first, big, small)


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
