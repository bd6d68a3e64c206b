"""Continued fraction evaluation and convergence acceleration.

Evaluates continued fractions

    b0 + K_{i>=1}(a_i / b_i) = b0 + a1/(b1 + a2/(b2 + ...))

through backward and forward recurrences, supports modified approximants
S_n(w) in which the discarded tail is replaced by an estimate w, computes
fixed points of the tail map w -> a/(b + w), applies the Bauer-Muir
transform (singly and repeatedly) to accelerate convergence, and extracts
minimal-solution ratios of three-term recurrences via Pincherle's theorem.
"""

from __future__ import annotations

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
# Default renormalization trigger for the forward recurrence.
_RENORM_AT = 1e150

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


def _tail_w(tail: TailValue | complex | None) -> complex:
    if tail is None:
        return 0.0 + 0.0j
    if isinstance(tail, TailValue):
        return complex(tail.w)
    return complex(tail)


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
        Map i -> (a_i, b_i) for i >= 1. Raising IndexError marks the end
        of a finite fraction. Must be deterministic: requesting the same
        index twice yields identical values.
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


def _nonfinite(z: complex) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


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
                         *,
                         renorm_at: float = _RENORM_AT,
                         ) -> Iterator[tuple[int, complex | None]]:
    """Yield (n, S_n(w)) from the forward recurrence, n = 0, 1, 2, ...

    Numerators and denominators follow A_n = b_n A_{n-1} + a_n A_{n-2}
    and the same recursion for B_n, seeded with A_{-1} = 1, A_0 = b0,
    B_{-1} = 0, B_0 = 1, so that S_n(w) = (A_n + A_{n-1} w)/(B_n + B_{n-1} w).
    The quadruple is renormalized whenever its magnitude exceeds
    ``renorm_at``; approximants are invariant under that scaling. Yields
    None in place of S_n when the approximant has a pole at w.
    Coefficient n+1 is read before S_n is yielded. Terminates when the
    coefficient stream ends (finite fraction).

    Raises
    ------
    NumericBreakdown
        If a non-finite value contaminates the recurrence.
    """
    w = _tail_w(tail)
    a_prev, a_cur = 1.0 + 0.0j, complex(cf.b0)
    b_prev, b_cur = 0.0 + 0.0j, 1.0 + 0.0j
    n = 0
    while True:
        try:
            pair: tuple[complex, complex] | None = cf.coefficient(n + 1)
        except IndexError:
            pair = None
        num = a_cur + a_prev * w
        den = b_cur + b_prev * w
        if abs(den) <= _POLE_THRESHOLD * max(1.0, abs(num)):
            yield n, None
        else:
            s = num / den
            if _nonfinite(s):
                raise NumericBreakdown("non-finite approximant")
            yield n, s
        if pair is None:
            return
        n += 1
        a, b = pair
        a_cur, a_prev = b * a_cur + a * a_prev, a_cur
        b_cur, b_prev = b * b_cur + a * b_prev, b_cur
        if any(map(_nonfinite, (a_cur, a_prev, b_cur, b_prev))):
            raise NumericBreakdown(
                f"non-finite recurrence value at term {n}")
        scale = max(abs(a_cur), abs(b_cur))
        if scale > renorm_at:
            a_cur /= scale
            a_prev /= scale
            b_cur /= scale
            b_prev /= scale


def eval_forward(cf: ContinuedFraction, tol: float, max_terms: int,
                 tail: TailValue | complex = ZERO_TAIL,
                 *, renorm_at: float = _RENORM_AT) -> CfResult:
    """Evaluate a continued fraction by the forward recurrence.

    Iterates modified approximants S_n(w) and stops when two successive
    well-defined approximants agree, |S_n - S_{n-1}| <= tol * max(1, |S_n|).
    An approximant pole resets the comparison so convergence always
    requires two consecutive finite values. A finite fraction terminates
    exactly and reports convergence with last_delta = 0.

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
    renorm_at : float
        Renormalization trigger for the rolling recurrence values.

    Returns
    -------
    CfResult
        Converged flag is False (with the best value seen) when the
        budget is exhausted; no exception is raised for that case.

    Raises
    ------
    NumericBreakdown
        If NaN or infinity contaminates the recurrence, or a finite
        fraction terminates on a pole approximant.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    prev = best = None
    last_delta = math.inf
    for terms, s in forward_approximants(cf, tail, renorm_at=renorm_at):
        if s is None:
            # approximant pole: require two fresh finite values afterwards
            prev = None
        else:
            if prev is not None:
                last_delta = abs(s - prev)
                if last_delta <= tol * max(1.0, abs(s)):
                    return CfResult(s, terms, True, last_delta)
            best = prev = s
        if terms >= max_terms:
            return CfResult(best, terms, False, last_delta)
    # Coefficient stream ended: a finite fraction evaluates exactly.
    if s is None or best is None:
        raise NumericBreakdown(
            "finite fraction terminates on a pole approximant")
    return CfResult(best, terms, True, 0.0)


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


def _as_w_seq(w_seq) -> Callable[[int], complex]:
    if callable(w_seq):
        return lambda n: complex(w_seq(n))
    w = complex(w_seq)
    return lambda n: w


def bauer_muir(cf: ContinuedFraction, w_seq) -> ContinuedFraction:
    """Apply the Bauer-Muir transform with modifying sequence w_n.

    The returned fraction's classical approximants equal the modified
    approximants S_n(w_n) of the input. Writing
    lambda_i = a_i - w_{i-1} (b_i + w_i) and q_i = lambda_{i+1}/lambda_i,
    the new coefficients are

        d_0 = b_0 + w_0,  c_1 = lambda_1,  d_1 = b_1 + w_1,
        c_i = a_{i-1} q_{i-1},  d_i = b_i + w_i - w_{i-2} q_{i-1}  (i >= 2).

    Coefficients are produced on request and kept, filled in index
    order, so a vanishing lambda_k is detected at the first request of
    any index >= k.

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
        cancelled lambda_i is numerically indistinguishable from zero).
    """
    return _BauerMuirChain(cf, _as_w_seq(w_seq), 1, tag_rounds=False).fraction


def repeated_bauer_muir(cf: ContinuedFraction, w: complex,
                        rounds: int) -> ContinuedFraction:
    """Apply the Bauer-Muir transform with constant w_n = w, `rounds` times.

    Parameters
    ----------
    cf : ContinuedFraction
        Fraction to transform.
    w : complex
        Constant modifying value.
    rounds : int
        Number of chained transforms, >= 0; rounds=0 returns the input.

    Returns
    -------
    ContinuedFraction
        The chained transform.

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
    return _BauerMuirChain(cf, _as_w_seq(w), rounds,
                           tag_rounds=True).fraction


class _BauerMuirChain:
    """``rounds`` chained Bauer-Muir transforms of ``cf`` with one
    modifying sequence, filled index by index.

    ``pairs[i]`` is the last round's (c_i, d_i) and ``w[n]`` is w_n.
    ``lam[r]`` and ``num[r]`` are round r's lambda_i and input numerator
    a_i at the last filled index i: all that index i+1 needs of it.
    """

    def __init__(self, cf: ContinuedFraction, w_of: Callable[[int], complex],
                 rounds: int, *, tag_rounds: bool):
        self.cf = cf
        self.w_of = w_of
        self.rounds = rounds
        self.tag_rounds = tag_rounds
        self.w = [w_of(0)]
        self.lam = [0.0j] * rounds
        self.num = [0.0j] * rounds
        self.pairs: list[tuple[complex, complex]] = [(0.0j, 0.0j)]
        b0 = complex(cf.b0)
        for _ in range(rounds):
            b0 = b0 + self.w[0]
        self.fraction = ContinuedFraction(b0, self.coeffs)

    def coeffs(self, i: int) -> tuple[complex, complex]:
        pairs = self.pairs
        while len(pairs) <= i:
            self._fill(len(pairs))
        return pairs[i]

    def _fill(self, i: int) -> None:
        a, b = self.cf.coefficient(i)
        ws = self.w
        if len(ws) == i:
            ws.append(self.w_of(i))
        w_i, w_im1 = ws[i], ws[i - 1]
        w_im2 = ws[i - 2] if i >= 2 else 0.0j
        # round state is committed only once every round has passed, so
        # a failed index raises again when it is requested again
        lam, num = list(self.lam), list(self.num)
        for r in range(self.rounds):
            v = a - w_im1 * (b + w_i)
            scale = max(abs(a), abs(w_im1) * (abs(b) + abs(w_i)))
            if abs(v) <= _DEGENERATE_REL * max(scale, _ZERO_THRESHOLD):
                raise DegenerateTransform(
                    i, round_index=r + 1 if self.tag_rounds else None)
            if i == 1:
                c, d = v, b + w_i
            else:
                q = v / lam[r]
                c, d = num[r] * q, b + w_i - w_im2 * q
            if c == 0:
                raise ValueError(f"partial numerator a_{i} is zero")
            lam[r], num[r] = v, a
            a, b = c, d
        self.lam, self.num = lam, num
        self.pairs.append((a, b))


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
        Recurrence with coefficient map n -> (a_n, b_n).
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
