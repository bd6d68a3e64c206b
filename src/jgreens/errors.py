"""Exception types shared across the package.

Every failure mode that callers are expected to catch is a subclass of
:class:`JGreensError`, so library users can guard whole computations with a
single ``except`` clause while still being able to discriminate causes.
"""

from __future__ import annotations

import numbers


class JGreensError(Exception):
    """Base class for all errors raised by this package."""


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value, minimum: int) -> None:
    """The check of every size, index, order and budget argument: unless
    ``value`` is an integer (:func:`_is_integer`) >= minimum, ValueError
    ``<name> must be an integer >= <minimum>, got <value>``."""
    if not (_is_integer(value) and value >= minimum):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_tol(tol) -> None:
    """The check of every relative tolerance of a continued-fraction sum:
    unless 0 < tol < 1, ValueError ``tolerance tol must be in (0, 1), got
    <tol>``. From tol = 1 on, the agreement test max(1, |S_n|) tol passes
    nearly every pair of approximants, and inf or NaN is no tolerance."""
    if not 0 < tol < 1:
        raise ValueError(f"tolerance tol must be in (0, 1), got {tol!r}")


class DivisionByZero(JGreensError):
    """Backward recurrence ended on a pole approximant.

    Parameters
    ----------
    level : int
        Recurrence level whose value is a pole: 1, the approximant's.
    """

    def __init__(self, level: int, message: str | None = None):
        self.level = level
        super().__init__(message or f"denominator vanished at level {level}")


class NumericBreakdown(JGreensError):
    """A non-finite value (NaN) appeared during evaluation."""


class NotConverged(JGreensError):
    """Iteration budget exhausted before reaching the requested tolerance.

    Parameters
    ----------
    terms_used : int, optional
        Number of terms consumed before giving up.
    last_delta : float, optional
        Magnitude of the last approximant change observed.
    """

    def __init__(self, message: str = "did not converge",
                 terms_used: int | None = None,
                 last_delta: float | None = None):
        self.terms_used = terms_used
        self.last_delta = last_delta
        super().__init__(message)


class DegenerateTransform(JGreensError):
    """An equivalence transform produced a vanishing lambda coefficient.

    Parameters
    ----------
    index : int
        Coefficient index i at which ``lambda_i`` vanished.
    round_index : int, optional
        Which transform round failed, when transforms are chained.
    """

    def __init__(self, index: int, round_index: int | None = None):
        self.index = index
        self.round_index = round_index
        where = f"index {index}"
        if round_index is not None:
            where += f" in round {round_index}"
        super().__init__(f"transform degenerates: lambda vanished at {where}")


class NoMinimalSolution(JGreensError):
    """Minimal-solution ratio could not be extracted from the recurrence."""


class ZeroOffdiagonal(JGreensError):
    """A vanishing off-diagonal element makes the requested ratio undefined.

    Parameters
    ----------
    index : int
        Index of the vanishing off-diagonal element.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"off-diagonal element {index} vanishes")


class SingularRatio(JGreensError):
    """A finite tail ratio fraction ended on a pole approximant."""


class SingularMatrix(JGreensError):
    """Matrix inversion rejected: condition estimate beyond trust threshold."""


class InvalidU(JGreensError):
    """Effective angular parameter is complex for the given charge/coupling."""


class NoConvergence(JGreensError):
    """Scalar root solve (coordinate inversion or pole polish) failed."""


class HypergeometricNoConverge(JGreensError):
    """Gauss hypergeometric series failed in every usable region."""


class CoulombWaveFailure(JGreensError):
    """Neither the series nor the asymptotic regime is reliable here."""


class QuadratureSuspect(JGreensError):
    """Doubled-order quadrature self-check disagrees beyond tolerance."""


class GridTooCoarse(JGreensError):
    """Phase continuity cannot be established across an energy interval.

    Parameters
    ----------
    interval : tuple of float, optional
        Offending energy interval (low, high).
    """

    def __init__(self, message: str = "energy grid too coarse",
                 interval: tuple[float, float] | None = None):
        self.interval = interval
        if interval is not None:
            message += f" between E={interval[0]!r} and E={interval[1]!r}"
        super().__init__(message)


class GeometryError(JGreensError):
    """Contour geometry violates an analyticity constraint."""


class NodeFailure(JGreensError):
    """Green's matrix evaluation failed at one or more quadrature nodes.

    Parameters
    ----------
    nodes : list of complex, optional
        Contour nodes at which an evaluation failed.
    """

    def __init__(self, message: str = "evaluation failed at contour node",
                 nodes: list[complex] | None = None):
        self.nodes = list(nodes) if nodes else []
        if self.nodes:
            shown = ", ".join(repr(z) for z in self.nodes[:4])
            if len(self.nodes) > 4:
                shown += ", ..."
            message += f" ({len(self.nodes)} nodes: {shown})"
        super().__init__(message)
