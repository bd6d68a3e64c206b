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
from typing import Callable, NamedTuple, Sequence

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
# vanished (the p_i q_j factorization presumes it is nonzero). The pole
# test of contfrac._approximants (|den| <= 1e-250 max(1, |num|)) already
# keeps a converged sum below about 1e250, so only rounding carries a
# quotient past this limit; such a lane keeps its ratio in _corner_ratios'
# output, with a SingularRatio error, while every other failed lane reads 0.
_RATIO_LIMIT = 1e250

_DEFAULT_TOL = 1e-12
_DEFAULT_MAX_TERMS = 20000

_NO_LIMITS = ("operator has no limit coefficients; fixed-point tails "
              "are unavailable (use sheet=ZERO_TAIL)")
_NONFINITE_LIMITS = ("operator's limit coefficients are not finite; "
                     "fixed-point tails are unavailable")


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

    In the lane-axis form (the map of an operator built at an array of L
    energies, see :class:`JacobiOperator`) each param is a number shared
    by every lane or an (L,) array, one value per lane; the map then gives
    an (L,) array at an int index and (len(i), L) at an index column, or
    the shared values where no param has a lane axis.
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

    An operator may also stack L lanes, as the model builders return it
    at an array of energies: ``energy`` is the (L,) array, both maps are
    IndexFormula maps in their lane-axis form, and ``limit_coeffs`` is an
    (L, 2) array, row k the limits of lane k. Lane k equals the operator
    built at the k-th energy alone, bit for bit. Only the batch paths of
    this package (:func:`_corrected_blocks` and the contour node loop)
    read such an operator; the functions that take one operator take one
    lane.

    Parameters
    ----------
    diag : callable
        Map i -> J_ii for i >= 0.
    offdiag : callable
        Map i -> J_{i,i+1} for i >= 0 (symmetric: J_{i+1,i} = J_{i,i+1}).
    energy : complex or numpy.ndarray
        Energy at which the entries were built; used for automatic sheet
        resolution. An (L,) array for a stacked operator.
    limit_coeffs : tuple of complex or numpy.ndarray, optional
        Limits (u, d) of the derived continued fraction coefficients when
        the fraction is limit 1-periodic; enables fixed-point tails. An
        (L, 2) array for a stacked operator.
    """

    diag: Callable[[int], complex]
    offdiag: Callable[[int], complex]
    energy: complex | np.ndarray = 0.0 + 0.0j
    limit_coeffs: tuple[complex, complex] | np.ndarray | None = None


class _Lanes(NamedTuple):
    """A batch of operators as arrays, whichever front end of
    :func:`_corrected_blocks` made it: the (diagonal, off-diagonal)
    readers (:func:`_read_maps`) whose lanes are the batch positions, the
    energies (L,), the limit coefficients (L, 2), zero where a lane has
    none, and the mask (L,) of the lanes that have none."""

    read_diag: Callable
    read_off: Callable
    energy: np.ndarray
    limits: np.ndarray
    no_limits: np.ndarray


def _map_readers(ops: Sequence[JacobiOperator]) -> tuple[Callable, Callable]:
    """The (diagonal, off-diagonal) readers (:func:`_read_maps`) of a batch
    of one-lane operators, whose lanes are the operators' positions."""
    return (_read_maps([op.diag for op in ops]),
            _read_maps([op.offdiag for op in ops]))


def _op_lanes(ops: Sequence[JacobiOperator]) -> _Lanes:
    """The batch of one-lane operators, lane k ``ops[k]``."""
    given = [op.limit_coeffs for op in ops]
    return _Lanes(
        *_map_readers(ops),
        np.array([op.energy for op in ops], dtype=complex),
        np.array([(0.0, 0.0) if lim is None else lim for lim in given],
                 dtype=complex).reshape(len(ops), 2),
        np.array([lim is None for lim in given], dtype=bool))


def _stacked_lanes(op, L: int) -> _Lanes | None:
    """The batch of a stacked operator of L lanes (see
    :class:`JacobiOperator`), or None where ``op`` is not one."""
    if not isinstance(op, JacobiOperator):
        return None
    maps = (op.diag, op.offdiag)
    if not (all(type(f) is IndexFormula and all(
                not isinstance(p, np.ndarray) or p.shape == (L,)
                for p in f.params) for f in maps)
            and np.shape(op.energy) == (L,)
            and np.shape(op.limit_coeffs) == (L, 2)):
        return None
    return _Lanes(*(_formula_reader(f.fn, f.params) for f in maps),
                  np.asarray(op.energy, dtype=complex),
                  np.asarray(op.limit_coeffs, dtype=complex),
                  np.zeros(L, dtype=bool))


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


# Depth plans by key: 1 for plain first, plus 2 for u and d real with
# u <= 0; key 2 (on that axis, not plain first) is the elliptic plan.
_PLANS = np.array(((8, 4, 2, 0), (0, 4, 2, -1), (4, 8, 2, 0), (0, 4, 2, -1)))


def _bm_depths(limits) -> np.ndarray:
    """Bauer-Muir depths the automatic policy tries, in order, for lanes
    whose fraction coefficients have the limits (u, d) in ``limits`` (an
    array (..., 2)): one row of four per lane, -1 past its last depth.

    Where |d| > 2 sqrt(|u|), the two fixed points of the tail map
    w -> u/(d + w) differ in modulus (their product is -u): the limit is
    hyperbolic, and the fraction with its attractive fixed-point tail
    converges geometrically without any transform. At equality (for real
    d, a double fixed point) an exactly periodic fraction is summed at
    once by its tail. There the plan is 0, 4, 2.

    Where u and d are real and d^2 < -4u, the fixed points are a complex
    conjugate pair of one modulus: the limit is elliptic (Lorentzen &
    Waadeland, *Continued Fractions* Vol. 1, ch. 5), and the fraction
    converges only algebraically. There each Bauer-Muir round differences
    nearly equal coefficients, and depth 8 loses digits past about 1000
    terms, so the plan is 4, 8, 2, 0. Against a 60-digit oracle (alpha-alpha
    Coulomb, l = 0 and 2, indices 1 and 41, 0.006 to 30 MeV) depth 4 first
    is off by at most 4.8e-11 relative, depth 8 first by up to 1.6e-10, and
    the largest lane of the l = 0 phase grid sums 722 terms, not 20,684.

    Otherwise (the fixed points come close to one modulus, as next to the
    continuum) the plan is 8, 4, 2, 0. For the Coulomb-like families
    d = 2(X - 1)/(X + 1) with X = k^2/b^2 (or (E^2 - mu^2)/eta^2) and u =
    -1: |d| > 2 exactly where Re X < 0, and the limit is elliptic exactly
    for real X > 0, a real energy above threshold; the oscillator's limit
    does not depend on the energy.
    Isolated energies can stall both the plain fraction and a particular
    transform depth, so a depth that raises DegenerateTransform or does
    not converge is followed by the next one before giving up.
    """
    limits = np.asarray(limits)
    size = np.abs(limits)
    plain_first = size[..., 1] >= 2.0 * np.sqrt(size[..., 0])
    # zero exactly where u and d are real and u <= 0: such a lane that is
    # not plain first has d^2 < 4|u| = -4u (u = 0 is plain first)
    imag = limits.imag
    off_axis = np.maximum(np.hypot(imag[..., 0], imag[..., 1]),
                          limits.real[..., 0])
    return _PLANS.take(plain_first + 2 * (off_axis == 0.0), axis=0)


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

    This is the one-lane case of :func:`_corner_ratios`, equal to J's lane
    in any batch bit for bit; its kernel may read chunks of coefficients
    past the approximant it stops at, but only the indices it reaches
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
        families, below threshold, Re E < 0; the oscillator at every E);
        4, 8, 2, 0 where u and d are real with d^2 < -4u, an elliptic
        limit (the Coulomb families at real E above threshold, where
        depth 4 first meets a 60-digit oracle within 4.8e-11, and depth 8
        first within only 1.6e-10); and 8, 4, 2, 0 otherwise, moving to
        the next after a DegenerateTransform or NotConverged.
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
        cannot serve (no limit coefficients, or limits not finite).
    """
    if n < 1:
        raise ValueError(f"ratio index must be >= 1, got {n}")
    (ratio,), (error,) = _corner_ratios(_op_lanes([J]), n, sheet, bm_rounds,
                                        tol, max_terms)
    if error is not None:
        raise error
    return complex(ratio)


def dense_truncation(J: JacobiOperator, N: int) -> np.ndarray:
    """Dense N x N tridiagonal block of the operator (no corner term)."""
    diag, off, (error,) = _read_rows(_map_readers([J]), 1, N, N - 1)
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
    diag, off, (error,) = _read_rows(_map_readers([J]), 1, N, N)
    if error is not None:
        raise error
    ratio = tail_ratio(J, N, sheet, bm_rounds, tol, max_terms) \
        if off[N - 1, 0] != 0 else 0j
    return _corner_block(diag[:, 0], off[:, 0], ratio)


def _corner_block(diag: np.ndarray, off: np.ndarray, ratio) -> np.ndarray:
    """The N x N block of one lane's rows, diag[i] = J_ii and off[i] =
    J_{i,i+1} for i < N, with J_{N-1,N} * ratio added in its corner where
    J_{N-1,N} != 0: what :func:`corrected_truncation` returns."""
    mat = _tridiagonal(diag[:, None], off[:, None])[0]
    if off[-1] != 0:
        mat[-1, -1] += complex(off[-1]) * complex(ratio)
    return mat


# Python rounds a complex product and quotient its own way (numpy's may
# fuse a product and a sum, or divide otherwise, and round apart: on
# random operands 30% of products and half the quotients differ). These
# two give Python's bits at arrays too, so that a lane of a batch equals
# its one-lane computation.


def _times(a, b):
    """a * b: of Python numbers the product itself; where either is an
    array, from the parts, each product and sum rounding on its own, as
    Python forms it (a real operand has imaginary part 0)."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(all="ignore"):  # inf and nan as Python makes them
        out = (a.real * b.real - a.imag * b.imag).astype(complex)
        out.imag = a.real * b.imag + a.imag * b.real
    return out


def _over(a, b):
    """a / b: of Python numbers the quotient itself; where either is an
    array, Python's quotient lane by lane (ZeroDivisionError where a
    lane's b is zero)."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a / b
    a, b = np.broadcast_arrays(a, b)
    return np.array([x / y for x, y in zip(a.tolist(), b.tolist())],
                    dtype=complex).reshape(a.shape)


def _read_rows(readers: Sequence[Callable], L: int, n_diag: int, n_off: int
               ) -> tuple[np.ndarray, np.ndarray, list]:
    """J_ii for i < n_diag and J_{i,i+1} for i < n_off of the L lanes of
    the (diagonal, off-diagonal) map readers, as (index, lane) arrays,
    zero from a lane's failing read on, and per lane None or its first
    error in the scalar order: the diagonal's, then the off-diagonal's."""
    if n_diag < 1:
        raise ValueError(f"truncation size must be >= 1, got {n_diag}")
    read_diag, read_off = readers
    lanes = np.arange(L)
    diag, failed = read_diag(lanes, 0, n_diag)
    off, more = read_off(lanes, 0, n_off)
    errors: list = [None] * lanes.size
    for p, (_, exc) in {**more, **failed}.items():
        errors[p] = exc
    return diag, off, errors


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
    energies, as one batch of lanes (the corner ratios by
    :func:`_corner_ratios`): the (L, N, N) blocks, zero where a lane
    failed, and ``errors``. Lanes whose ``errors`` entry is set are
    skipped; any other records there the first error that ``family(E)``
    or ``corrected_truncation`` raises. A lane's block equals
    ``corrected_truncation``'s bit for bit.

    Where two or more lanes are left, the family is first called once,
    at the array of their energies. Its contract: called with an energy
    array, it raises or returns the stacked operator whose lane k equals
    ``family(E_k)`` (as the model builders do). Where it raises or
    returns anything but a stacked operator of those lanes
    (:class:`JacobiOperator`), and for a single lane (an array of one
    would save nothing, and numpy converts it to a number with a
    deprecation warning), it is called lane by lane, at each energy as
    given (a Python number where ``energies`` is an array).
    """
    given = energies.tolist() if isinstance(energies, np.ndarray) \
        else list(energies)
    errors = [None] * len(given) if errors is None else errors
    lanes = [k for k, exc in enumerate(errors) if exc is None]
    batch = None
    if len(lanes) > 1:
        try:
            batch = _stacked_lanes(family(np.asarray(energies)[lanes]),
                                   len(lanes))
        except Exception:  # the family builds its lanes one at a time
            pass
    if batch is None:
        ops, built = [], []
        for k in lanes:
            try:
                ops.append(family(given[k]))
                built.append(k)
            except Exception as exc:  # the lane's failure, kept
                errors[k] = exc
        lanes, batch = built, _op_lanes(ops)
    diag, off, failed = _read_rows(batch[:2], len(lanes), N, N)
    coupled = np.flatnonzero(
        np.array([exc is None for exc in failed], dtype=bool) & (off[-1] != 0))
    ratios, more = _corner_ratios(batch, N, sheet, bm_rounds, at=coupled)
    diag[-1, coupled] += _times(off[-1, coupled], ratios)  # the corner
    for p, exc in zip(coupled, more):
        failed[p] = exc
    for p, exc in enumerate(failed):
        if exc is not None:
            errors[lanes[p]] = exc
            diag[:, p] = off[:, p] = 0.0
    if len(lanes) < len(given):  # zero rows where family(E) raised
        rows = np.zeros((2 * N, len(given)), dtype=complex)
        rows[:, lanes] = np.vstack((diag, off))
        diag, off = rows[:N], rows[N:]
    return _tridiagonal(diag, off), errors


def _green_blocks(family: Callable, energies: Sequence, N: int,
                  errors: list | None = None) -> tuple[np.ndarray, list]:
    """``green_submatrix(family(E), N, PHYSICAL)`` at many energies, bit
    for bit: :func:`_corrected_blocks`, inverted."""
    blocks, errors = _corrected_blocks(family, energies, N, errors=errors)
    live = [k for k, exc in enumerate(errors) if exc is None]
    out = np.zeros_like(blocks)
    out[live], inverse_errors = _checked_inverses(blocks[live])
    for k, exc in zip(live, inverse_errors):
        errors[k] = exc
    return out, errors


# Tails: physical (AUTO resolves to it or fails) the attractive root, the
# limit from above the cut; unphysical the repulsive one, through the cut.
_TAILS = {SheetSelector.UNPHYSICAL: TailOrigin.REPULSIVE_FIXED_POINT,
          SheetSelector.ZERO_TAIL: TailOrigin.ZERO}


def _corner_ratios(batch: _Lanes, n: int,
                   sheet: SheetSelector = SheetSelector.PHYSICAL,
                   bm_rounds: int | None = None, tol: float = _DEFAULT_TOL,
                   max_terms: int = _DEFAULT_MAX_TERMS,
                   at: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """``tail_ratio(op, n, sheet, ...)`` of the batch's lanes at positions
    ``at`` (by default, every lane), in that order: the ratios (zero where
    a lane's sum failed) and per lane, None or the error. The depth walk:
    each lane keeps its place in its plan (:func:`_bm_depths`, or
    ``bm_rounds``; 0 for the zero tail), and each round sums the live
    lanes at one depth, whatever their places, as one batch of
    :func:`jgreens.contfrac._sum_fractions` (a lane's sum does not depend
    on its batch). Each lane that did not converge is then decided as
    ``tail_ratio`` decides: an end with rounds on (IndexError) goes to
    depth 0, its last; a DegenerateTransform or NotConverged to the next
    depth of the plan, if any; anything else is the lane's error. A ratio
    past ``_RATIO_LIMIT``, which only rounding past the pole test of the
    sum can give, is a SingularRatio but keeps its value in the output;
    every other failed lane's ratio is zero."""
    if bm_rounds is not None and bm_rounds < 0:
        raise ValueError(f"bm_rounds must be >= 0, got {bm_rounds}")
    at = np.arange(batch.energy.size) if at is None else np.asarray(at)
    L = at.size
    errors: list = [None] * L
    ratios = np.zeros(L, dtype=complex)
    tail = _TAILS.get(sheet, TailOrigin.ATTRACTIVE_FIXED_POINT)
    limits = batch.limits[at]
    refused = ~(batch.energy[at].imag >= 0.0) if sheet is SheetSelector.AUTO \
        else np.zeros(L, dtype=bool)
    if tail is TailOrigin.ZERO:
        plans, unusable = np.zeros((L, 1), dtype=int), np.zeros(L, bool)
    else:
        plans = _bm_depths(limits) if bm_rounds is None \
            else np.full((L, 1), int(bm_rounds))
        unusable = batch.no_limits[at] | ~np.isfinite(limits).all(axis=1)
    place = np.zeros(L, dtype=int)  # past the plan after an end
    depth = plans[:, 0].copy()  # -1: the lane has its value or error
    for k in np.flatnonzero(refused | unusable).tolist():
        depth[k], errors[k] = -1, ValueError(
            _AUTO_REFUSES if refused[k] else
            _NO_LIMITS if batch.no_limits[at[k]] else _NONFINITE_LIMITS)
    todo = set(depth.tolist()) - {-1}  # the depths of the next round
    while todo:
        groups = [(r, (depth == r).nonzero()[0]) for r in sorted(todo)]
        depth.fill(-1)  # a lane is done unless it goes on below
        todo = set()
        for rounds, lanes in groups:
            # the Bauer-Muir modifier: the limits' fixed point on the branch
            w = _fixed_point_arrays(*limits[lanes].T)[
                tail is TailOrigin.REPULSIVE_FIXED_POINT] if rounds \
                else np.zeros(lanes.size, dtype=complex)
            value, terms, converged, delta, stopped = _sum_fractions(
                _jacobi_reader((batch.read_diag, batch.read_off), n,
                               at[lanes]),
                rounds * w if rounds else w, rounds, w, tail, tol, max_terms)
            if converged.all():  # the usual outcome
                ratios[lanes] = -value
                continue
            ratios[lanes[converged]] = -value[converged]
            for p in np.flatnonzero(~converged).tolist():
                k = int(lanes[p])
                out = stopped[p] if p in stopped else NotConverged(
                    f"tail ratio fraction did not converge in {terms[p]} "
                    f"terms (last delta {delta[p]:.3e})",
                    terms_used=int(terms[p]), last_delta=float(delta[p]))
                nxt = place[k] + 1
                if isinstance(out, IndexError):  # ended with rounds on
                    depth[k], place[k] = 0, plans.shape[1]
                elif isinstance(out, (DegenerateTransform, NotConverged)) \
                        and nxt < plans.shape[1] and plans[k, nxt] >= 0:
                    depth[k], place[k] = plans[k, nxt], nxt
                else:
                    errors[k] = out or SingularRatio(
                        "fraction terminated on a pole approximant; the "
                        "leading Green's element vanishes")
                    continue
                todo.add(int(depth[k]))
    trusted = np.abs(ratios) <= _RATIO_LIMIT
    for k in [] if trusted.all() else np.flatnonzero(~trusted).tolist():
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
        off, off_faults = read_off(lanes, i0 - 1, i0 + size)
        dg, dg_faults = read_diag(lanes, i0, i0 + size)
        a, b = -off[:-1] / off[1:], -dg / off[1:]
        zero, faults = off == 0, {}  # a failed read leaves zeros too
        if not (dg_faults or zero.any()):
            return a, b, faults
        bad = zero[1:] | zero[:-1]
        for p, (t, _) in dg_faults.items():
            bad[t, p] = True
        for p in np.flatnonzero(bad.any(axis=0)).tolist():
            t = int(bad[:, p].argmax())
            if p in off_faults and max(off_faults[p][0] - 1, 0) == t:
                faults[p] = (t, off_faults[p][1])
            elif zero[t + 1, p] or zero[t, p]:
                faults[p] = (t, ZeroOffdiagonal(
                    i0 + t - int(not zero[t + 1, p])))
            else:
                faults[p] = (t, dg_faults[p][1])
        return a, b, faults

    return read


def _read_maps(fns: Sequence[Callable[[int], complex]]) -> Callable:
    """Reader of the maps ``fns`` of a batch of lanes: read(lanes, lo, hi)
    gives fn(i) for i in [lo, hi) of the maps at ``lanes`` (indices into
    ``fns``) as (index, lane) values, zero from a lane's first raising
    index on, and the fault record {p: (offset from lo, error)} of the
    lanes p (places in ``lanes``) that raised. Maps that are all
    :class:`IndexFormula` of one formula are read in one evaluation over
    (index, lane) (:func:`_formula_reader`, params stacked here, once);
    others index by index (:func:`_read_lanes`)."""
    fn = getattr(fns[0], "fn", None) if len(fns) else None
    if fn is None or any(type(f) is not IndexFormula or f.fn is not fn
                         for f in fns):
        return lambda lanes, lo, hi: _read_lanes([fns[k] for k in lanes],
                                                 lo, hi)
    return _formula_reader(fn, [np.array(p)
                                for p in zip(*[f.params for f in fns])])


def _formula_reader(fn: Callable, params: Sequence) -> Callable:
    """Reader (:func:`_read_maps`) of the lanes of fn(i, *params), each
    param an (L,) array or a number shared by every lane (which rounds as
    the lanes' copies would), in one evaluation over (index, lane). A
    formula is defined at every index, so its fault record is empty."""

    def read(lanes, lo: int, hi: int):
        values = np.empty((hi - lo, len(lanes)), dtype=complex)
        values[...] = fn(np.arange(lo, hi)[:, None], *(
            p[lanes] if isinstance(p, np.ndarray) else p for p in params))
        return values, {}

    return read


def _read_lanes(fns: Sequence[Callable[[int], complex]], lo: int, hi: int
                ) -> tuple[np.ndarray, dict[int, tuple[int, Exception]]]:
    """fn(i) for i in [lo, hi) and every lane's fn, as :func:`_read_maps`
    gives them: the values, zero from a lane's first raising index on,
    and the fault record {lane: (offset of that index, its error)}."""
    span, faults = range(lo, hi), {}
    try:
        values = np.array([fn(i) for i in span for fn in fns], dtype=complex)
        return values.reshape(len(span), len(fns)), faults
    except Exception:  # some lane raised: read lane by lane
        values = np.zeros((len(span), len(fns)), dtype=complex)
    for p, fn in enumerate(fns):
        for t, i in enumerate(span):
            try:
                values[t, p] = fn(i)
            except Exception as exc:  # the lane's failure, kept
                faults[p] = (t, exc)
                break
    return values, faults


def truncated_inverse(A_diag, A_offdiag, corner_ratio: complex,
                      a_n_np1: complex) -> GreenMatrix:
    """Inverse of a tridiagonal matrix corrected by a caller-supplied ratio.

    Generic form of :func:`green_submatrix`: builds the symmetric
    tridiagonal matrix from the given diagonals, adds
    a_n_np1 * corner_ratio to the last diagonal entry, and inverts.
    With corner_ratio = 0 this is the plain truncated inverse, and with
    a_n_np1 = 0 too: the ratio is then not read (:func:`_corner_block`).

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
    entries = _checked_inverse(
        _corner_block(diag, np.append(off, a_n_np1), corner_ratio))
    return GreenMatrix(entries=entries, energy=None, sheet=None, n=n)
