"""Continued fraction evaluation and convergence acceleration.

Evaluates continued fractions

    b0 + K_{i>=1}(a_i / b_i) = b0 + a1/(b1 + a2/(b2 + ...))

through backward and forward recurrences, supports modified approximants
S_n(w) in which the discarded tail is replaced by an estimate w, computes
fixed points of the tail map w -> a/(b + w), applies the Bauer-Muir
transform (singly and repeatedly) to accelerate convergence, and extracts
minimal-solution ratios of three-term recurrences via Pincherle's theorem.

Every forward sum runs on the chunked lane kernel owned here
(:func:`_sum_fractions`); :mod:`jgreens.jacobi` gives it a chunk reader.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateTransform,
    DivisionByZero,
    NoMinimalSolution,
    NumericBreakdown,
)

__all__ = [
    "TailOrigin",
    "TailValue",
    "ZERO_TAIL",
    "CfResult",
    "ContinuedFraction",
    "Recurrence",
    "eval_backward",
    "eval_forward",
    "forward_approximants",
    "fixed_points",
    "bauer_muir",
    "repeated_bauer_muir",
    "pincherle_ratio",
]

# Magnitudes below this count as an exact zero denominator.
_ZERO_THRESHOLD = 1e-300
# A lambda coefficient this small relative to the terms that formed it
# has lost essentially all significant digits to cancellation.
_DEGENERATE_REL = 1e-9
# Forward approximant is treated as a pole when the denominator is this
# small relative to the numerator.
_POLE_THRESHOLD = 1e-250
# Coefficients in a sum's first chunk (unless the caller asks for more);
# then 4n + 3 up to _CHUNK_MAX, so that n + 1 states, a power of two, are
# scanned. A chunk runs its lanes in groups of at most _CHUNK_CELLS // n.
_CHUNK_FIRST, _CHUNK_MAX, _CHUNK_CELLS = 15, 1023, 1 << 12

Coeffs = Callable[[int], tuple[complex, complex]]


class TailOrigin(Enum):
    """How a tail estimate was obtained."""

    ZERO = "zero"
    ATTRACTIVE_FIXED_POINT = "attractive-fixed-point"
    REPULSIVE_FIXED_POINT = "repulsive-fixed-point"
    USER_SUPPLIED = "user-supplied"


@dataclass(frozen=True)
class TailValue:
    """Tail estimate w used in modified approximants S_n(w).

    Parameters
    ----------
    w : complex
        Value substituted for the discarded tail of the fraction.
    origin : TailOrigin
        Provenance of the estimate. When the origin is a fixed point,
        w satisfies w*(b + w) = a for the limit coefficients (a, b).
    """

    w: complex
    origin: TailOrigin = TailOrigin.USER_SUPPLIED


ZERO_TAIL = TailValue(0.0 + 0.0j, TailOrigin.ZERO)


def _tail_w(tail: TailValue | complex) -> complex:
    return complex(tail.w if isinstance(tail, TailValue) else tail)


@dataclass(frozen=True)
class CfResult:
    """Outcome of a forward continued fraction evaluation.

    Attributes
    ----------
    value : complex
        Best approximant found.
    terms_used : int
        Number of coefficient pairs consumed.
    converged : bool
        True when two successive approximants agreed to the requested
        tolerance, or when the fraction terminated exactly.
    last_delta : float
        Magnitude of the final approximant change (0.0 for an exactly
        terminating fraction).
    """

    value: complex
    terms_used: int
    converged: bool
    last_delta: float


@dataclass(frozen=True)
class ContinuedFraction:
    """A continued fraction b0 + K(a_i / b_i).

    Parameters
    ----------
    b0 : complex
        Leading term.
    coeffs : callable
        Map i -> (a_i, b_i) for i >= 1; IndexError marks the end of a
        finite fraction. Must be pure: the forward sums and Bauer-Muir
        transforms read it a chunk ahead, and raise only what they reach.
    """

    b0: complex
    coeffs: Coeffs

    def coefficient(self, i: int) -> tuple[complex, complex]:
        """Return validated (a_i, b_i); IndexError past a finite end."""
        if i < 1:
            raise IndexError(f"coefficient index must be >= 1, got {i}")
        a, b = self.coeffs(i)
        a, b = complex(a), complex(b)
        if a == 0:
            raise ValueError(f"partial numerator a_{i} is zero")
        return a, b

    @staticmethod
    def from_lists(b0: complex,
                   a: Sequence[complex],
                   b: Sequence[complex]) -> "ContinuedFraction":
        """Build a finite fraction from explicit coefficient lists."""
        if len(a) != len(b):
            raise ValueError("coefficient lists must have equal length")
        a = tuple(complex(x) for x in a)
        b = tuple(complex(x) for x in b)

        def coeffs(i: int) -> tuple[complex, complex]:
            if i > len(a):
                raise IndexError(i)
            return a[i - 1], b[i - 1]

        return ContinuedFraction(complex(b0), coeffs)

    @staticmethod
    def from_function(b0: complex, coeffs: Coeffs) -> "ContinuedFraction":
        """Build an infinite fraction from a coefficient map."""
        return ContinuedFraction(complex(b0), coeffs)


@dataclass(frozen=True)
class Recurrence:
    """Three-term recurrence x_{n+1} = b_n x_n + a_n x_{n-1}.

    Parameters
    ----------
    coeffs : callable
        Map n -> (a_n, b_n) for n >= 1, with a_n != 0.
    limit_coeffs : tuple of complex, optional
        Limits (a, b) of the coefficients when they exist; enables the
        attractive fixed-point tail in :func:`pincherle_ratio`.
    """

    coeffs: Coeffs
    limit_coeffs: tuple[complex, complex] | None = None


def eval_backward(cf: ContinuedFraction, n: int,
                  tail: TailValue | complex = ZERO_TAIL) -> complex:
    """Evaluate the modified approximant S_n(w) by backward recurrence.

    Starts from t = w at level n and folds t <- a_i / (b_i + t) down to
    level 1, returning b0 + t. If the fraction terminates before level n,
    all available levels are used.

    Parameters
    ----------
    cf : ContinuedFraction
        Fraction to evaluate.
    n : int
        Approximant order, n >= 0.
    tail : TailValue or complex
        Tail estimate w (default zero).

    Returns
    -------
    complex
        S_n(w) = b0 + a1/(b1 + a2/(... + a_n/(b_n + w))).

    Raises
    ------
    DivisionByZero
        If an intermediate denominator magnitude falls below 1e-300,
        which signals a pole of the approximant.
    """
    if n < 0:
        raise ValueError(f"approximant order must be >= 0, got {n}")
    w = _tail_w(tail)
    pairs: list[tuple[complex, complex]] = []
    for i in range(1, n + 1):
        try:
            pairs.append(cf.coefficient(i))
        except IndexError:
            break
    t = w
    for i in range(len(pairs), 0, -1):
        a, b = pairs[i - 1]
        den = b + t
        if abs(den) < _ZERO_THRESHOLD:
            raise DivisionByZero(i)
        t = a / den
    return complex(cf.b0) + t


def forward_approximants(cf: ContinuedFraction,
                         tail: TailValue | complex = ZERO_TAIL,
                         ) -> Iterator[tuple[int, complex | None]]:
    """Yield (n, S_n(w)) from the forward recurrence, n = 0, 1, 2, ...

    Numerators and denominators follow A_n = b_n A_{n-1} + a_n A_{n-2}
    and the same recursion for B_n, seeded with A_{-1} = 1, A_0 = b0,
    B_{-1} = 0, B_0 = 1, so that S_n(w) = (A_n + A_{n-1} w)/(B_n + B_{n-1} w).
    It runs as a rescaled prefix scan over chunks of coefficients, read
    a chunk ahead; approximants are invariant under that scaling. Yields
    None in place of S_n when it has a pole at w, and raises in its place
    what the map raises for index n + 1. Terminates when the coefficient
    stream ends (finite fraction).

    Raises
    ------
    NumericBreakdown
        If a non-finite value contaminates the recurrence.
    """
    read, w = _one_lane_reader(cf.coefficient), _tail_w(tail)
    x = np.array([[[cf.b0], [1.0]], [[1.0], [0.0]]], dtype=complex)
    for j0, size in _chunks(_CHUNK_FIRST):
        a, b, faults = read(None, j0, size)
        stop, cause = faults.get(0, (size, None))
        with np.errstate(all="ignore"):
            scanned, s, approx = _approximants(x, a, b, w)
            finite = np.isfinite(scanned[:, :, 1:]).all(axis=(0, 1))
        s, approx, finite = (s[:, 0].tolist(), approx[:, 0].tolist(),
                             finite[:, 0].tolist())
        # _fraction_chunk's event order without agreement and the budget;
        # a change to one is a change to the other
        for t in range(min(stop + 1, size)):
            if t == stop and not isinstance(cause, IndexError):
                raise cause
            if approx[t] and not cmath.isfinite(s[t]):
                raise NumericBreakdown("non-finite approximant")
            yield j0 + t - 1, s[t] if approx[t] else None
            if t == stop:
                return
            if not finite[t]:
                raise NumericBreakdown(
                    f"non-finite recurrence value at term {j0 + t}")


def eval_forward(cf: ContinuedFraction, tol: float, max_terms: int,
                 tail: TailValue | complex = ZERO_TAIL) -> CfResult:
    """Evaluate a continued fraction by the forward recurrence.

    Iterates modified approximants S_n(w), n >= 1, and stops when two
    successive well-defined approximants agree,
    |S_n - S_{n-1}| <= tol * max(1, |S_n|). An approximant pole resets
    the comparison so convergence always requires two consecutive finite
    values. A finite fraction terminates exactly and reports convergence
    with last_delta = 0. This is the one-lane case of :func:`_sum_fractions`,
    which reads up to a chunk ahead; only what it reaches raises.

    Parameters
    ----------
    cf : ContinuedFraction
        Fraction to evaluate.
    tol : float
        Relative agreement threshold, > 0.
    max_terms : int
        Coefficient budget, >= 1.
    tail : TailValue or complex
        Tail estimate w (default zero).

    Returns
    -------
    CfResult
        Converged is False (no exception) when the budget is exhausted,
        with S_max_terms, or S_{max_terms-1} at its pole (else None), and
        the last comparison of the final chunk (inf if it holds none).

    Raises
    ------
    NumericBreakdown
        If NaN or infinity contaminates the recurrence, or a finite
        fraction terminates on a pole approximant.
    """
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    w = _tail_w(tail)
    value, terms, converged, delta, stopped = _sum_fractions(
        _one_lane_reader(cf.coefficient), np.array([cf.b0], dtype=complex), 0,
        np.array([w]), TailOrigin.USER_SUPPLIED, tol, max_terms)
    if 0 in stopped and stopped[0] is None:
        try:
            cf.coefficient(1)
        except IndexError:  # no coefficients: S_0, which the sum never forms
            return CfResult(complex(cf.b0) + w, 0, True, 0.0)
        raise NumericBreakdown(
            "finite fraction terminates on a pole approximant")
    if stopped:
        raise stopped[0]
    v = complex(value[0])
    return CfResult(None if cmath.isnan(v) else v, int(terms[0]),
                    bool(converged[0]), float(delta[0]))


def fixed_points(a: complex, b: complex) -> tuple[TailValue, TailValue]:
    """Return both fixed points of the tail map w -> a/(b + w).

    The fixed points are the roots of w^2 + b w - a = 0. The larger root
    is computed with a sign-matched square root and the smaller from the
    product of roots, which avoids cancellation.

    Parameters
    ----------
    a, b : complex
        Limit coefficients of the fraction.

    Returns
    -------
    (attractive, repulsive) : tuple of TailValue
        Attractive means smaller modulus; a modulus tie is broken toward
        the root with nonnegative imaginary part, then nonnegative real
        part.
    """
    (attractive,), (repulsive,) = _fixed_point_arrays(
        np.array([a], dtype=complex), np.array([b], dtype=complex))
    return (TailValue(complex(attractive), TailOrigin.ATTRACTIVE_FIXED_POINT),
            TailValue(complex(repulsive), TailOrigin.REPULSIVE_FIXED_POINT))


def _fixed_point_arrays(a: np.ndarray, b: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(attractive, repulsive) fixed points of w -> a/(b + w), elementwise;
    see :func:`fixed_points`."""
    s = np.sqrt(b * b + 4.0 * a)
    s = np.where((np.conj(b) * s).real < 0.0, -s, s)
    big = (b + s) * -0.5  # the larger root, or a tie
    # product of roots is -a
    small = np.divide(-a, big, out=np.zeros_like(big), where=big != 0)
    m_big = np.abs(big)
    tie = m_big - np.abs(small) <= 1e-14 * m_big
    if tie.any():
        # a modulus tie takes the root with the larger (imag, real) first
        tie &= (big.imag > small.imag) | (
            (big.imag == small.imag) & (big.real >= small.real))
    return np.where(tie, big, small), np.where(tie, small, big)


def bauer_muir(cf: ContinuedFraction, w_seq) -> ContinuedFraction:
    """Apply the Bauer-Muir transform with modifying sequence w_n.

    The returned fraction's classical approximants equal the modified
    approximants S_n(w_n) of the input. Writing
    lambda_i = a_i - w_{i-1} (b_i + w_i) and q_i = lambda_{i+1}/lambda_i,
    the new coefficients are

        d_0 = b_0 + w_0,  c_1 = lambda_1,  d_1 = b_1 + w_1,
        c_i = a_{i-1} q_{i-1},  d_i = b_i + w_i - w_{i-2} q_{i-1}  (i >= 2).

    Coefficients are filled on request a chunk at a time, reading the
    input and w_seq (both pure) up to a chunk ahead; a failure at index k
    (a vanishing lambda_k, or what they raise) is raised for every k' >= k.

    Parameters
    ----------
    cf : ContinuedFraction
        Fraction to transform.
    w_seq : callable or complex
        Map n -> w_n for n >= 0, or a constant.

    Returns
    -------
    ContinuedFraction
        Transformed fraction with the same value.

    Raises
    ------
    DegenerateTransform
        When lambda_k at a filled index is zero, or so small relative to
        the terms that formed it that it carries no significant digits
        (the transform exists iff every lambda_i is nonzero, and a fully
        cancelled lambda_i is numerically indistinguishable from zero);
        its ``round_index`` is 1.
    """
    return repeated_bauer_muir(cf, w_seq, 1)


def repeated_bauer_muir(cf: ContinuedFraction, w: complex,
                        rounds: int) -> ContinuedFraction:
    """Apply the Bauer-Muir transform with constant w_n = w, `rounds` times.

    Parameters
    ----------
    cf : ContinuedFraction
        Fraction to transform.
    w : complex
        Constant modifying value (or a map n -> w_n, as in bauer_muir).
    rounds : int
        Number of chained transforms, >= 0; rounds=0 returns the input.

    Returns
    -------
    ContinuedFraction
        The chained transform, filled as :func:`bauer_muir` fills.

    Raises
    ------
    DegenerateTransform
        From the failing round with ``round_index`` attached (rounds are
        numbered from 1).
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if rounds == 0:
        return cf
    w_of = w if callable(w) else lambda n, w=complex(w): w

    def row(j: int) -> tuple:  # a_j, b_j, w_j, w_{j-1}, w_{j-2}; w_{-1} = 0
        return (*cf.coefficient(j), w_of(j), w_of(j - 1),
                w_of(j - 2) if j > 1 else 0.0)

    read = _one_lane_reader(row, 5)
    st = {key: np.ones((rounds, 1), dtype=complex) for key in ("lam", "num")}
    pairs: list = [None]
    failure: list[Exception] = []
    chunks = _chunks(_CHUNK_FIRST)

    def coeffs(i: int) -> tuple[complex, complex]:
        while len(pairs) <= i and not failure:
            j0, size = next(chunks)
            a, b, *ws, faults = read(None, j0, size)
            with np.errstate(all="ignore"):
                c, d, checks = _bauer_muir_rounds(a, b, ws, st)
                stop, cause = _first_faults(faults, checks, j0)[0].get(
                    0, (size, None))
            pairs.extend(zip(c[:stop, 0].tolist(), d[:stop, 0].tolist()))
            if cause is not None:
                failure.append(cause)
        if i < len(pairs):
            return pairs[i]
        raise failure[0]

    return ContinuedFraction(complex(cf.b0 + rounds * w_of(0)), coeffs)


def pincherle_ratio(rec: Recurrence, N: int = 0, tol: float = 1e-12,
                    max_terms: int = 20000) -> complex:
    """Ratio m_{N+1}/m_N of the minimal solution of a recurrence.

    By Pincherle's theorem the minimal solution of
    x_{n+1} = b_n x_n + a_n x_{n-1} satisfies

        m_{N+1}/m_N = -K_{n>=1}(a_{n+N} / b_{n+N}),

    and the continued fraction converges iff a minimal solution exists.
    The fraction is evaluated forward with the attractive fixed-point
    tail when the recurrence supplies limit coefficients, otherwise with
    the zero tail.

    Parameters
    ----------
    rec : Recurrence
        Recurrence with coefficient map n -> (a_n, b_n); must be pure,
        as it is read a chunk ahead.
    N : int
        Ratio offset, >= 0.
    tol : float
        Relative convergence tolerance.
    max_terms : int
        Coefficient budget.

    Returns
    -------
    complex
        m_{N+1}/m_N, sign included.

    Raises
    ------
    NoMinimalSolution
        If the continued fraction fails to converge within the budget
        (divergence means no minimal solution exists).
    """
    cf = ContinuedFraction(0.0 + 0.0j, lambda j: rec.coeffs(N + j))
    if rec.limit_coeffs is not None:
        tail = fixed_points(*rec.limit_coeffs)[0]
    else:
        tail = ZERO_TAIL
    try:
        res = eval_forward(cf, tol, max_terms, tail)
    except NumericBreakdown as exc:
        raise NoMinimalSolution(
            f"recurrence ratio evaluation broke down: {exc}") from exc
    if not res.converged:
        raise NoMinimalSolution(
            f"continued fraction did not converge in {max_terms} terms "
            f"(last delta {res.last_delta:.3e})")
    return -res.value


# ------------------------------------------------------ the chunked kernel


def _one_lane_reader(row: Callable, width: int = 2) -> Callable:
    """Chunk reader (:func:`_sum_fractions`) of one lane whose rows row(j)
    hold ``width`` values, (a_j, b_j) and any more, read out as arrays."""

    def read(lanes, j0: int, size: int):
        rows, faults = [], {}
        for j in range(j0, j0 + size):
            try:
                rows.append(row(j))
            except Exception as exc:  # raised where the sum reaches it
                faults[0] = (j - j0, exc)
                break
        rows += [(0.0,) * width] * (size - len(rows))  # zeros from a fault
        return (*np.array(rows, dtype=complex).T[..., None], faults)

    return read


def _sum_fractions(read: Callable, b0: np.ndarray, rounds: int,
                   w: np.ndarray, tail: TailOrigin, tol: float,
                   max_terms: int, first: int | None = None) -> tuple:
    """Sum the lanes' fractions after ``rounds`` Bauer-Muir transforms with
    w[k] (``b0``: the transformed leading terms), in chunks from 15 or
    ``first`` coefficients on (:func:`_fraction_chunk`). The tails are
    each coefficient's attractive or repulsive fixed point, or the constant
    w[k] (ZERO, USER_SUPPLIED; no rounds). A lane's value does not depend
    on its batch; ``max_terms`` < 1 acts as 1. ``read(lanes, j0, size)``
    gives coefficients j0 .. j0 + size - 1 as (a, b) arrays (size, lanes)
    and {p: (position, error)} of each lane's first fault in them
    (IndexError ends a fraction).

    Returns the CfResult fields as per-lane arrays (value, terms used,
    converged, last delta) and {lane: outcome} of the lanes that stopped
    on an error (IndexError: an end with rounds on) or, as None, at an end
    on a pole approximant; their array entries mean nothing. Every other
    lane stopped at agreement or an exact end (converged), or at the
    budget (not converged; its value NaN where a CfResult's is None)."""
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    L = len(w)
    out = (np.zeros(L, dtype=complex), np.zeros(L, dtype=int),
           np.zeros(L, dtype=bool), np.zeros(L), {})
    x = np.zeros((2, 2, L), dtype=complex)
    x[0, 0], x[0, 1], x[1, 0] = b0, 1.0, 1.0
    st = {  # x: [[A_m, A_{m-1}], [B_m, B_{m-1}]]; lam, num: each round's
        # lambda and input numerator at the last index (1 before the first)
        "x": x, "lam": np.ones((rounds, L), dtype=complex),
        "num": np.ones((rounds, L), dtype=complex),
        "prev": np.zeros(L, dtype=complex), "has_prev": np.zeros(L, bool),
        "w": w}
    live, last_step = np.arange(L), max(max_terms, 1)
    with np.errstate(all="ignore"):
        for j0, size in _chunks(first or _CHUNK_FIRST, last_step + 1):
            group = max(1, _CHUNK_CELLS // size)
            stop = np.concatenate([_fraction_chunk(
                read, live[g:g + group], st if group >= live.size else {
                    key: v[..., g:g + group] for key, v in st.items()},
                j0, size, rounds, tail, tol, last_step, out)
                for g in range(0, live.size, group)])
            if stop.all():
                break
            if stop.any():
                keep = ~stop
                live = live[keep]
                st = {key: v[..., keep] for key, v in st.items()}
    return out


def _chunks(size: int, last: float = math.inf) -> Iterator[tuple[int, int]]:
    """(first coefficient, size) of each chunk up to coefficient last."""
    j0 = 1
    while j0 <= last:
        size = min(size, last + 1 - j0)
        yield j0, size
        j0, size = j0 + size, min(4 * size + 3, _CHUNK_MAX)


def _fraction_chunk(read: Callable, lanes: np.ndarray, st: dict, j0: int,
                    size: int, rounds: int, tail: TailOrigin, tol: float,
                    max_terms: int, out: tuple) -> np.ndarray:
    """Sum coefficients j0 .. j0 + size - 1 of the lanes in ``st``, write
    the outcomes of those that stop to ``out`` (:func:`_sum_fractions`) at
    ``lanes``, and return where they stop. Arrays are (position, lane);
    position t holds coefficient j = j0 + t and step j - 1: S_{j-1} with
    its tail from coefficient j, then the update by coefficient j. Its
    events come in the scalar order: the reader's fault, a zero a_j, each
    Bauer-Muir round (at an end a fixed-point tail is zero); a non-finite
    S_{j-1}, agreement, the budget, the end; a non-finite recurrence
    value. A lane stops at its first event: what it read past that never
    raises."""
    a, b, faults = read(lanes, j0, size)
    w = st["w"]
    if rounds:
        # w_{i-2}: w_{-1} = 0 makes d_1 = b_1 + w_1
        before = np.broadcast_to(w, a.shape)
        if j0 == 1:
            before = before.copy()
            before[0] = 0.0
        a, b, checks = _bauer_muir_rounds(a, b, (w, w, before), st)
    else:
        checks = (a == 0)[None]
    faults, bad = _first_faults(faults, checks, j0)
    fixed = tail in (TailOrigin.ATTRACTIVE_FIXED_POINT,
                     TailOrigin.REPULSIVE_FIXED_POINT)
    tails = _fixed_point_arrays(a, b)[
        tail is TailOrigin.REPULSIVE_FIXED_POINT] if fixed else w
    # an end with rounds on is no exact sum: it stops the lane as an error
    ends = {p for p, (_, cause) in faults.items()
            if isinstance(cause, IndexError) and not rounds}
    for p in ends if fixed else ():
        tails[faults[p][0], p] = 0.0

    x, s, approx = _approximants(st["x"], a, b, tails)
    if j0 == 1:
        approx[0] = False  # step 0 forms no approximant
    nonfinite = approx & ~np.isfinite(s)
    prev = np.concatenate((st["prev"][None], s[:-1]))
    formed = np.concatenate((st["has_prev"][None], approx[:-1]))
    compared = approx & formed
    delta = np.abs(s - prev)
    agree = compared & ~nonfinite & (delta <= tol * np.fmax(1.0, np.abs(s)))
    event = bad | nonfinite | agree
    event |= ~np.isfinite(x[:, :, 1:]).all(axis=(0, 1))
    if j0 + size - 2 >= max_terms:
        event[-1] = True
    st["prev"][...], st["has_prev"][...] = s[-1], approx[-1]

    stop = event.any(axis=0)
    if not stop.any():
        return stop
    hit = np.flatnonzero(stop)
    ts = event[:, hit].argmax(axis=0)
    m = ts + (j0 - 1)
    value, terms, converged, last_delta, stopped = out
    k = lanes[hit]
    value[k], terms[k], last_delta[k] = s[ts, hit], m, delta[ts, hit]
    agreed = agree[ts, hit]
    if not faults and agreed.all():  # the usual stop
        converged[k] = True
        return stop
    # the first event of each stopping lane, in the order above
    fault = np.zeros(hit.size, dtype=bool)
    end = np.zeros(hit.size, dtype=bool)
    if faults:
        at = np.full(len(stop), -1)
        at[list(faults)] = [t for t, _ in faults.values()]
        fault = at[hit] == ts
        end = fault & np.isin(hit, list(ends))
        fault &= ~end
    broke = nonfinite[ts, hit] & ~fault
    agreed &= ~fault
    rest = ~(fault | broke | agreed)
    budget = rest & (m >= max_terms)  # S_m, or at its pole S_{m-1}
    end &= rest & ~budget
    finite = approx[ts, hit]
    value[k] = np.where(finite, value[k], np.where(
        formed[ts, hit], prev[ts, hit], np.nan))
    converged[k] = agreed | (end & finite)
    last = np.where(agreed, last_delta[k], 0.0)
    if budget.any():  # the last comparison in this chunk
        seen = compared[:, hit] & (np.arange(size)[:, None] <= ts)
        t_seen = size - 1 - seen[::-1].argmax(axis=0)
        last[budget] = np.where(seen.any(axis=0), delta[t_seen, hit],
                                math.inf)[budget]
    last_delta[k] = last
    for q in np.flatnonzero(~(agreed | budget | (end & finite))).tolist():
        stopped[int(k[q])] = (
            faults[int(hit[q])][1] if fault[q] else
            NumericBreakdown("non-finite approximant") if broke[q] else
            None if end[q] else NumericBreakdown(
                f"non-finite recurrence value at term {m[q] + 1}"))
    return stop


def _first_faults(faults: dict, checks: np.ndarray, j0: int
                  ) -> tuple[dict, np.ndarray]:
    """Each lane's first fault {p: (t, error)}: the reader's, or an earlier
    check (masks (check, position, lane): a zero a_j, then per Bauer-Muir
    round a degenerate lambda_j and a zero c_j); and where any fault is."""
    bad = checks.any(axis=0)
    if not (faults or bad.any()):
        return faults, bad
    for p, (t, _) in faults.items():
        bad[t, p] = True
    for p in np.flatnonzero(bad.any(axis=0)).tolist():
        t = int(bad[:, p].argmax())
        if faults.get(p, (None,))[0] == t:
            continue
        kind = int(checks[:, t, p].argmax())
        faults[p] = (t, DegenerateTransform(j0 + t, (kind + 1) // 2)
                     if kind % 2 else
                     ValueError(f"partial numerator a_{j0 + t} is zero"))
    return faults, bad


def _bauer_muir_rounds(a: np.ndarray, b: np.ndarray, w: tuple, st: dict
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one Bauer-Muir implementation, behind the sums and
    :func:`repeated_bauer_muir`: a transform per row of ``st["lam"]`` of
    (a, b) at (position, lane), with ``w`` = (w_i, w_{i-1}, w_{i-2})
    broadcastable to a.shape and ``st`` each round's lambda and input
    numerator at the index before (updated). Returns the last (c, d) and
    the checks of :func:`_first_faults`."""
    w_i, w_im1, w_im2 = w
    rounds = len(st["lam"])
    # row 0 holds index i - 1 of the first position; num[r] is round r's
    # input numerator, num[r + 1] its output
    lam = np.empty((rounds, len(a) + 1) + a.shape[1:], dtype=complex)
    num = np.empty((rounds + 1,) + lam.shape[1:], dtype=complex)
    den = np.empty((rounds + 1,) + a.shape, dtype=complex)
    lam[:, 0], num[:rounds, 0], num[0, 1:], den[0] = st["lam"], st["num"], a, b
    for r in range(rounds):
        bw = den[r] + w_i
        np.subtract(num[r, 1:], w_im1 * bw, out=lam[r, 1:])
        q = lam[r, 1:] / lam[r, :-1]
        np.multiply(num[r, :-1], q, out=num[r + 1, 1:])
        np.subtract(bw, w_im2 * q, out=den[r + 1])
    st["lam"][...], st["num"][...] = lam[:, -1], num[:rounds, -1]
    checks = np.empty((2 * rounds + 1,) + a.shape, dtype=bool)
    np.equal(num[:, 1:], 0, out=checks[0::2])
    w_abs = np.abs(w_im1)
    scale = np.maximum(np.abs(num[:rounds, 1:]), w_abs * (
        np.abs(den[:rounds]) + (w_abs if w_i is w_im1 else np.abs(w_i))))
    np.less_equal(np.abs(lam[:, 1:]), _DEGENERATE_REL * np.maximum(
        scale, _ZERO_THRESHOLD), out=checks[1::2])
    return num[rounds, 1:], den[rounds], checks


def _approximants(state: np.ndarray, a: np.ndarray, b: np.ndarray, tails
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward recurrence over a chunk from ``state`` (updated): the scanned
    stack, S_{j-1} of each position with its tail, and where it is no pole."""
    x = np.empty((2, 2, len(a) + 1) + a.shape[1:], dtype=complex)
    x[:, :, 0] = state
    x[0, 0, 1:], x[0, 1, 1:], x[1, 0, 1:], x[1, 1, 1:] = b, 1.0, a, 0.0
    _prefix_products(x)
    state[...] = x[:, :, -1]
    num, den = x[:, 0, :-1] + x[:, 1, :-1] * tails
    s = num / den
    return x, s, ~(np.abs(den) <= _POLE_THRESHOLD * np.fmax(1.0, np.abs(num)))


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
