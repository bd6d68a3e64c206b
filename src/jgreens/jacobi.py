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

The fraction is summed by the chunked lane kernel of
:mod:`jgreens.contfrac`; this module gives it the Jacobi chunk reader,
the sheets' tails and the Bauer-Muir depth plans.

Indices are 0-based throughout: diag(i) = J_ii and offdiag(i) = J_{i,i+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .contfrac import (
    TailOrigin,
    _fixed_point_arrays,
    _sum_fractions,
)
from .errors import (
    DegenerateTransform,
    NotConverged,
    SingularMatrix,
    SingularRatio,
    ZeroOffdiagonal,
)

__all__ = [
    "IndexFormula",
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

# Bound on N * kappa_1 (>= kappa_2) above which an N x N inversion is
# reported as singular.
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


class IndexFormula:
    """Coefficient map i -> fn(i, *params) whose ``fn`` is a numpy formula.

    ``fn`` must give the same value for an int index as for that index in
    an index array, where it broadcasts, and be defined at every index
    >= 0 (a finite operator, or a map that can raise, stays a plain
    callable): the corner-ratio kernel and the row reads evaluate the
    maps of many lanes that share one ``fn`` as fn(i[:, None], *params
    stacked over the lanes), in a few numpy calls. The model builders of
    :mod:`jgreens.models` return their entries as IndexFormula maps.
    """

    __slots__ = ("fn", "params")

    def __init__(self, fn: Callable, params: Sequence) -> None:
        self.fn, self.params = fn, tuple(params)

    def __call__(self, i):
        value = self.fn(i, *self.params)
        # at an int index, the Python number a scalar map returns
        return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class JacobiOperator:
    """Symmetric tridiagonal operator with energy baked in.

    The maps must be pure (same value for the same index, no other
    effect): the corner-ratio kernel reads them in chunks, up to a chunk
    past the last index it needs. IndexError ends a finite operator.
    Maps that are :class:`IndexFormula` instances of one formula are read
    as arrays, over index chunks and lanes at once; any other callable is
    read index by index, and the first index at which it raises is where
    its lane fails.

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


_AUTO_REFUSES = ("sheet must be chosen explicitly for Im E < 0; automatic "
                 "resolution refuses to silently continue onto either sheet")


def _resolve_sheet(sheet: SheetSelector, energy: complex) -> SheetSelector:
    if sheet is not SheetSelector.AUTO:
        return sheet
    if complex(energy).imag >= 0.0:
        return SheetSelector.PHYSICAL
    raise ValueError(_AUTO_REFUSES)


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
        # the corner-ratio kernel's reader: the coefficients it sums
        with np.errstate(all="ignore"):  # a zero J_{i,i+1} is a fault
            lane = np.zeros(1, dtype=int)
            (a,), (b,), faults = _jacobi_reader(_map_readers([J]), i, lane)(
                lane, 1, 1)
        if faults:
            raise faults[0][1]
        return complex(a[0]), complex(b[0])

    return gen


_PLAIN_FIRST, _DEEP_FIRST = np.array((0, 4, 2, -1)), np.array((8, 4, 2, 0))


def _bm_depths(limits) -> np.ndarray:
    """Bauer-Muir depths the automatic policy tries, in order, for lanes
    whose fraction coefficients have the limits (u, d) in ``limits`` (an
    array (..., 2)): one row of four per lane, -1 past its last depth.

    Where |d| > 2 sqrt(|u|), the two fixed points of the tail map
    w -> u/(d + w) differ in modulus (their product is -u): the limit is
    hyperbolic, and the fraction with its attractive fixed-point tail
    converges geometrically without any transform. At equality (for real
    d, a double fixed point) an exactly periodic fraction is summed at
    once by its tail. There the plan is 0, 4, 2; otherwise (the fixed
    points may share one modulus, as on the continuum, or come close to
    it) it is 8, 4, 2, 0. For the Coulomb-like families
    d = 2(X - 1)/(X + 1) with X = k^2/b^2 (or (E^2 - mu^2)/eta^2), and
    |d| > 2 exactly where Re X < 0; the oscillator's limit does not
    depend on the energy.
    Isolated energies can stall both the plain fraction and a particular
    transform depth, so a depth that raises DegenerateTransform or does
    not converge is followed by the next one before giving up.
    """
    size = np.abs(limits)
    plain_first = size[..., 1] >= 2.0 * np.sqrt(size[..., 0])
    return np.where(plain_first[..., None], _PLAIN_FIRST, _DEEP_FIRST)


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
    of coefficients with the kernel of :mod:`jgreens.contfrac` and may
    read past the approximant it stops at; only the indices it reaches
    raise, in the scalar order. A finite fraction is summed exactly.

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
        tried in turn: 0, 4, 2 where the limits (u, d) of
        ``J.limit_coeffs`` have |d| >= 2 sqrt(|u|) (for the Coulomb
        families, below threshold, Re E < 0; the oscillator at every E),
        and 8, 4, 2, 0 otherwise, moving to the next after a
        DegenerateTransform or NotConverged.
    tol : float
        Relative convergence tolerance, > 0.
    max_terms : int
        Coefficient budget; below 1 it stops at S_1, as 1 does.

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
    ValueError
        For n < 1, bm_rounds < 0, tol <= 0, or a sheet the operator
        cannot serve.
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
    diag, off, (error,) = _read_rows([J], N, N - 1)
    if error is not None:
        raise error
    return _tridiagonal(diag, off)[0]


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
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    diag, off, (error,) = _read_rows([J], N, N)
    if error is not None:
        raise error
    mat = _tridiagonal(diag, off)[0]
    if off[N - 1, 0] != 0:
        mat[N - 1, N - 1] += complex(off[N - 1, 0]) * tail_ratio(
            J, N, sheet, bm_rounds, tol, max_terms)
    return mat


def _map_readers(ops: Sequence[JacobiOperator]) -> tuple[Callable, Callable]:
    """The (diagonal, off-diagonal) readers (:func:`_read_maps`) of a batch
    of operators, whose lanes are the operators' positions in ``ops``."""
    return (_read_maps([op.diag for op in ops]),
            _read_maps([op.offdiag for op in ops]))


def _read_rows(ops: Sequence[JacobiOperator], n_diag: int, n_off: int,
               readers: tuple | None = None
               ) -> tuple[np.ndarray, np.ndarray, list]:
    """J_ii for i < n_diag and J_{i,i+1} for i < n_off of every operator,
    as (index, lane) arrays, zero from a lane's failing read on, and per
    lane None or its first error in the scalar order: the diagonal's,
    then the off-diagonal's. ``readers``: those of :func:`_map_readers`,
    when the caller has them."""
    read_diag, read_off = readers or _map_readers(ops)
    lanes = np.arange(len(ops))
    diag, _, failed = read_diag(lanes, 0, n_diag)
    off, _, more = read_off(lanes, 0, n_off)
    return diag, off, [failed.get(p, more.get(p)) for p in lanes.tolist()]


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The (L, N, N) symmetric tridiagonal blocks whose lane k has main
    diagonal diag[:, k] (diag is (N, L)) and first off-diagonals
    off[:N - 1, k]; written through strided views of the flat blocks."""
    N, L = diag.shape
    blocks = np.zeros((L, N, N), dtype=complex)
    flat = blocks.reshape(L, N * N)
    flat[:, ::N + 1] = diag.T
    flat[:, 1::N + 1] = flat[:, N::N + 1] = off[:N - 1].T
    return blocks


def _checked_inverses(mats: np.ndarray
                      ) -> tuple[np.ndarray, list[SingularMatrix | None]]:
    """Inverses of a stack of blocks (L, N, N), each screened on its own.

    A block with a non-finite entry is not inverted. The others are, as
    one stack, and each is screened by N * kappa_1, with kappa_1 =
    ||A||_1 ||A^-1||_1 read off its inverse: since kappa_2 <= N * kappa_1,
    every block whose 2-norm condition number exceeds 1e14 is caught. A
    block that is not finite, exactly singular (where the stacked ``inv``
    fails, the blocks are inverted one by one), or whose bound is not
    finite or exceeds 1e14 gets a SingularMatrix error and a zero slot.
    """
    L, N = mats.shape[0], mats.shape[-1]
    finite = np.isfinite(mats).all(axis=(1, 2))
    exact = np.zeros(L, dtype=bool)
    inverses = np.zeros_like(mats)
    try:
        inverses[finite] = np.linalg.inv(mats[finite])
    except np.linalg.LinAlgError:  # some block is exactly singular
        for k in np.flatnonzero(finite):
            try:
                inverses[k] = np.linalg.inv(mats[k])
            except np.linalg.LinAlgError:
                exact[k] = True
    with np.errstate(all="ignore"):  # a non-finite bound fails the screen
        bound = N * np.abs(mats).sum(axis=1).max(axis=1) \
            * np.abs(inverses).sum(axis=1).max(axis=1)
    bound[~finite | exact] = np.inf
    good = bound <= _COND_LIMIT
    inverses[~good] = 0.0
    errors: list[SingularMatrix | None] = [None] * L
    for k in np.flatnonzero(~good):
        errors[k] = SingularMatrix(
            "block has a non-finite entry; energy sits on a pole or the "
            "operator's entries overflowed" if not finite[k] else
            "block is exactly singular; energy sits on a pole" if exact[k]
            else f"condition bound N*kappa_1 = {bound[k]:.3e} exceeds "
            f"{_COND_LIMIT:.0e}; energy sits numerically on a pole")
    return inverses, errors


def _checked_inverse(mat: np.ndarray) -> np.ndarray:
    (inverse,), (error,) = _checked_inverses(mat[None])
    if error is not None:
        raise error
    return inverse


def green_submatrix(J: JacobiOperator, N: int,
                    sheet: SheetSelector = SheetSelector.AUTO,
                    bm_rounds: int | None = None,
                    tol: float = _DEFAULT_TOL,
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
    bm_rounds, tol, max_terms
        Passed through to :func:`tail_ratio`.

    Returns
    -------
    GreenMatrix

    Raises
    ------
    SingularMatrix
        When the corrected block is exactly singular, has a non-finite
        entry, or its condition bound N * kappa_1 = N ||A||_1 ||A^-1||_1
        (an upper bound on the 2-norm condition number) exceeds 1e14:
        the energy sits numerically on a pole; pole searches treat this
        as "found".
    """
    resolved = _resolve_sheet(sheet, J.energy)
    mat = corrected_truncation(J, N, resolved, bm_rounds, tol, max_terms)
    entries = _checked_inverse(mat)
    return GreenMatrix(entries=entries, energy=complex(J.energy),
                       sheet=resolved, n=N)


def _corrected_blocks(family: Callable, energies: Sequence, N: int,
                      sheet: SheetSelector = SheetSelector.PHYSICAL,
                      bm_rounds: int | None = None,
                      errors: list | None = None) -> tuple[np.ndarray, list]:
    """``corrected_truncation(family(E), N, sheet, bm_rounds)`` at many
    energies, as one batch of lanes (corner ratios by :func:`_corner_ratios`):
    the (L, N, N) blocks, zero where a lane failed, and ``errors``. Lanes
    whose ``errors`` entry is set are skipped; any other records there the
    first error that ``family(E)`` or ``corrected_truncation`` raises.
    The blocks agree with ``corrected_truncation``'s to rounding: the batch
    sums its corner ratios from a shorter first chunk than ``tail_ratio``.
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
    # the maps' params are stacked once, for the rows and the ratios
    readers = _map_readers(ops)
    diag, off, failed = _read_rows(ops, N, N, readers)
    sub = _tridiagonal(diag, off)
    coupled = np.flatnonzero(
        np.array([exc is None for exc in failed], dtype=bool) & (off[-1] != 0))
    ratios, more = _corner_ratios([ops[p] for p in coupled], N, sheet,
                                  bm_rounds, readers=(*readers, coupled))
    sub[coupled, -1, -1] += off[-1, coupled] * ratios
    for p, exc in zip(coupled, more):
        failed[p] = exc
    for p, exc in enumerate(failed):
        if exc is not None:
            sub[p] = 0.0
            errors[lanes[p]] = exc
    blocks = np.zeros((len(energies), N, N), dtype=complex)
    blocks[lanes] = sub
    return blocks, errors


def _green_blocks(family: Callable, energies: Sequence, N: int,
                  errors: list | None = None) -> tuple[np.ndarray, list]:
    """``green_submatrix(family(E), N, PHYSICAL)`` at many energies, to
    rounding: :func:`_corrected_blocks`, inverted."""
    blocks, errors = _corrected_blocks(family, energies, N, errors=errors)
    live = [k for k, exc in enumerate(errors) if exc is None]
    out = np.zeros_like(blocks)
    out[live], inverse_errors = _checked_inverses(blocks[live])
    for k, exc in zip(live, inverse_errors):
        errors[k] = exc
    return out, errors


# First chunk of tail_ratio's one lane with Bauer-Muir rounds on: those
# fractions are long (near the real axis), and one lane pays per chunk.
# Batches keep the kernel's 15, which suits many short lanes, so a lane
# alone and in a batch agree only to rounding.
_CHUNK_LANE = 63
# Tails: physical (AUTO resolves to it or fails) the attractive root, the
# limit from above the cut; unphysical the repulsive one, through the cut.
_TAILS = {SheetSelector.UNPHYSICAL: TailOrigin.REPULSIVE_FIXED_POINT,
          SheetSelector.ZERO_TAIL: TailOrigin.ZERO}


def _corner_ratios(ops: Sequence[JacobiOperator], n: int,
                   sheet: SheetSelector = SheetSelector.PHYSICAL,
                   bm_rounds: int | None = None, tol: float = _DEFAULT_TOL,
                   max_terms: int = _DEFAULT_MAX_TERMS,
                   first: int | None = None,
                   readers: tuple | None = None) -> tuple[np.ndarray, list]:
    """``tail_ratio(op, n, sheet, ...)`` of every operator, as lanes: the
    ratios (zero where a lane failed) and per lane, None or the error.
    Lanes at one Bauer-Muir depth of their plans form one batch of
    :func:`jgreens.contfrac._sum_fractions`; a lane moves on through its
    plan as ``tail_ratio`` does, and to depth 0 when its fraction ended.
    ``first`` is the first chunk at depths above 0. ``readers`` are the
    map readers of a larger batch (:func:`_map_readers`) with the position
    there of each of ``ops``; by default, those of ``ops``."""
    if bm_rounds is not None and bm_rounds < 0:  # -1 marks no depth
        raise ValueError(f"bm_rounds must be >= 0, got {bm_rounds}")
    L = len(ops)
    errors: list = [None] * L
    ratios = np.zeros(L, dtype=complex)
    tail = _TAILS.get(sheet, TailOrigin.ATTRACTIVE_FIXED_POINT)
    if sheet is SheetSelector.AUTO:
        refused = ~(np.array([op.energy for op in ops], dtype=complex).imag
                    >= 0.0)
        for k in np.flatnonzero(refused).tolist():
            errors[k] = ValueError(_AUTO_REFUSES)
    # each lane's depths in order, -1 past the last; the spare fifth
    # column is the depth after a fourth
    plans = np.full((L, 5), -1)
    if tail is TailOrigin.ZERO:
        plans[:, 0] = 0
    else:
        given = [op.limit_coeffs for op in ops]
        for k in [k for k, lim in enumerate(given) if lim is None]:
            errors[k] = errors[k] or ValueError(_NO_LIMITS)
        limits = np.array([(0.0, 0.0) if lim is None else lim
                           for lim in given], dtype=complex).reshape(L, 2)
        plans[:, :4] = _bm_depths(limits) if bm_rounds is None \
            else (int(bm_rounds), -1, -1, -1)
    failed = [k for k, exc in enumerate(errors) if exc is not None]
    if failed:
        plans[failed] = -1
    pending = L - len(failed)  # lanes with no value or error yet
    read_diag, read_off, at = readers or (*_map_readers(ops), np.arange(L))
    for stage in range(4):
        if not pending:
            break
        depth = plans[:, stage]
        for rounds in sorted(set(depth.tolist()) - {-1}):
            lanes = (depth == rounds).nonzero()[0]
            # the Bauer-Muir modifier: the limits' fixed point on the branch
            w = _fixed_point_arrays(*limits[lanes].T)[
                tail is TailOrigin.REPULSIVE_FIXED_POINT] if rounds \
                else np.zeros(lanes.size, dtype=complex)
            value, terms, converged, delta, stopped = _sum_fractions(
                _jacobi_reader((read_diag, read_off), n, at[lanes]),
                rounds * w if rounds else w, rounds, w, tail, tol, max_terms,
                first if rounds else None)
            if converged.all():  # the usual outcome
                ratios[lanes] = -value
                pending -= lanes.size
                if pending:
                    plans[lanes, stage + 1:] = -1
                continue
            ratios[lanes[converged]] = -value[converged]
            plans[lanes[converged], stage + 1:] = -1
            more = plans[lanes, stage + 1] >= 0
            budget = ~converged
            budget[list(stopped)] = False
            going_on = budget & more
            for p in np.flatnonzero(budget & ~more).tolist():
                errors[lanes[p]] = NotConverged(
                    f"tail ratio fraction did not converge in {terms[p]} "
                    f"terms (last delta {delta[p]:.3e})",
                    terms_used=int(terms[p]), last_delta=float(delta[p]))
            for p, out in stopped.items():
                k = lanes[p]
                if isinstance(out, IndexError):  # ended with rounds on
                    plans[k, stage + 1:] = -1
                    plans[k, stage + 1] = 0
                    going_on[p] = True
                elif isinstance(out, (DegenerateTransform, NotConverged)) \
                        and more[p]:
                    going_on[p] = True
                else:
                    plans[k, stage + 1:] = -1
                    errors[k] = out or SingularRatio(
                        "fraction terminated on a pole approximant; the "
                        "leading Green's element vanishes")
            pending -= lanes.size - int(going_on.sum())
    trusted = np.abs(ratios) <= _RATIO_LIMIT
    for k in [] if trusted.all() else np.flatnonzero(~trusted):
        errors[k] = errors[k] or SingularRatio(
            f"tail ratio magnitude {abs(ratios[k]):.3e} exceeds trust "
            "limit; a leading Green's element is numerically zero")
    return ratios, errors


def _jacobi_reader(readers: tuple[Callable, Callable], n: int,
                   at: np.ndarray) -> Callable:
    """Chunk reader of the fractions K_{i>=n}(u_i/d_i) of the lanes ``at``
    of the (diagonal, off-diagonal) map ``readers``, in which coefficient
    j has index i = n + j - 1. A fault at j comes in the scalar order: the
    reads of J_{i-1,i} and J_{i,i+1}, either one zero (J_{i,i+1} first),
    the read of J_ii."""
    read_diag, read_off = readers

    def read(lanes: np.ndarray, j0: int, size: int):
        i0, lanes = n + j0 - 1, at[lanes]
        # J_{i-1,i} and J_{i,i+1} of position t are off[t] and off[t + 1]
        off, off_stop, off_err = read_off(lanes, i0 - 1, i0 + size)
        dg, dg_stop, dg_err = read_diag(lanes, i0, i0 + size)
        a, b = -off[:-1] / off[1:], -dg / off[1:]
        zero, faults = off == 0, {}  # a failed read leaves zeros too
        if not (dg_err or zero.any()):
            return a, b, faults
        bad = zero[1:] | zero[:-1]
        bad |= np.arange(size)[:, None] >= dg_stop
        for p in np.flatnonzero(bad.any(axis=0)).tolist():
            t = int(bad[:, p].argmax())
            if p in off_err and max(off_stop[p] - 1, 0) == t:
                faults[p] = (t, off_err[p])
            elif zero[t + 1, p] or zero[t, p]:
                faults[p] = (t, ZeroOffdiagonal(
                    i0 + t - int(not zero[t + 1, p])))
            else:
                faults[p] = (t, dg_err[p])
        return a, b, faults

    return read


def _read_maps(fns: Sequence[Callable[[int], complex]]) -> Callable:
    """Reader of the maps ``fns`` of a batch of lanes: read(lanes, lo, hi)
    is :func:`_read_lanes` of the maps at ``lanes`` (indices into
    ``fns``). When every map is an :class:`IndexFormula` of one formula,
    its params are stacked over the batch here, once, and a read is one
    evaluation over (index, lane); otherwise a read goes index by index."""
    fn = getattr(fns[0], "fn", None) if len(fns) else None
    if fn is None or any(type(f) is not IndexFormula or f.fn is not fn
                         for f in fns):
        return lambda lanes, lo, hi: _read_lanes([fns[k] for k in lanes],
                                                 lo, hi)
    params = [np.array(p) for p in zip(*[f.params for f in fns])]

    def read(lanes, lo: int, hi: int):
        values = np.empty((hi - lo, len(lanes)), dtype=complex)
        values[...] = fn(np.arange(lo, hi)[:, None],
                         *(p[lanes] for p in params))
        stops = np.empty(len(lanes), dtype=int)
        stops.fill(hi - lo)  # half the time of np.full at one lane
        return values, stops, {}

    return read


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
        When the matrix is exactly singular, has a non-finite entry, or
        its condition bound n * kappa_1 = n ||A||_1 ||A^-1||_1 (an upper
        bound on the 2-norm condition number) exceeds 1e14.
    """
    diag = np.asarray(A_diag, dtype=complex)
    off = np.asarray(A_offdiag, dtype=complex)
    n = diag.shape[0]
    if n < 1:
        raise ValueError("need at least a 1x1 matrix")
    if off.shape[0] != n - 1:
        raise ValueError(
            f"off-diagonal length {off.shape[0]} does not match size {n}")
    mat = _tridiagonal(diag[:, None], off[:, None])[0]
    mat[n - 1, n - 1] += complex(a_n_np1) * complex(corner_ratio)
    entries = _checked_inverse(mat)
    return GreenMatrix(entries=entries, energy=None, sheet=None, n=n)
