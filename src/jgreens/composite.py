"""Contour machinery for composite two-operator Hamiltonians.

A Hamiltonian H = h1 + h2 built from two commuting parts has the resolvent

    G(E) = (1/2pi i) oint_C dz' g1(E - z') g2(z'),

where the closed contour C encircles the spectrum of h2 counterclockwise
while g1(E - z') stays analytic inside.  This module provides the contour
type and its quadrature construction, the convolution of two truncated
Green's matrices over such a contour, plain contour integrals of a single
Green's matrix family (spectral projections and identity checks), and the
coordinate-space potential splitting used to confine a long-range tail to
a two-body asymptotic region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GeometryError, NodeFailure, _check_count
from .jacobi import JacobiOperator, _green_blocks
# Not called here: the node loop uses _green_blocks. The name stays bound
# because perfbench/tracer.py wraps green_submatrix at this module, and
# the benchmark's tests require every traced name to exist.
from .jacobi import green_submatrix  # noqa: F401

__all__ = [
    "Contour",
    "MerkurievSplit",
    "build_contour",
    "encircle_points",
    "contour_projection",
    "contour_matrix",
    "convolve_greens",
    "merkuriev_zeta",
    "split_potential",
]

_CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class Contour:
    """Closed quadrature contour in the complex plane.

    Parameters
    ----------
    nodes : list of (complex, complex)
        Quadrature nodes (z, weight) of a counterclockwise closed curve;
        a contour integral of f is evaluated as sum of weight*f(z).
    encircles : tuple of float
        Real extent (min, max) of the enclosed spectral set.

    Raises
    ------
    GeometryError
        If the node set is empty, a node or weight is not finite, or the
        weights fail the closed-curve exactness check
        ``|sum w| <= 1e-12 * sum |w|`` (the integrand 1 must integrate to
        zero around a closed curve).
    """

    nodes: tuple[tuple[complex, complex], ...]
    encircles: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        nodes = tuple((complex(z), complex(w)) for z, w in self.nodes)
        if len(nodes) == 0:
            raise GeometryError("contour has no quadrature nodes")
        if not np.isfinite(nodes).all():
            raise GeometryError("contour has a non-finite node or weight")
        total = sum(w for _, w in nodes)
        scale = sum(abs(w) for _, w in nodes)
        if abs(total) > _CLOSURE_TOL * max(scale, 1.0):
            raise GeometryError(
                f"contour weights do not close: |sum w| = {abs(total):.3e}")
        object.__setattr__(self, "nodes", nodes)

    def integrate(self, f: Callable[[complex], complex]) -> complex:
        """Evaluate (1/2pi i) * oint f(z) dz with the node rule."""
        acc = 0.0 + 0.0j
        for z, w in self.nodes:
            acc += w * f(z)
        return acc / (2.0j * math.pi)


@dataclass(frozen=True)
class MerkurievSplit:
    """Parameters of the coordinate-space cut-off function zeta(x, y).

    Parameters
    ----------
    x0, y0 : float
        Positive scale parameters of the pair and spectator coordinate.
    nu : float
        Sharpness exponent of the cut-off, must exceed 2 so the envelope
        x < x0*(1 + y/y0)**(1/nu) grows slower than y.
    """

    x0: float
    y0: float
    nu: float

    def __post_init__(self) -> None:
        if not (0 < self.x0 < math.inf and 0 < self.y0 < math.inf):
            raise ValueError("x0 and y0 must be finite and > 0")
        if not 2 < self.nu < math.inf:
            raise ValueError(f"nu must be finite and > 2, got {self.nu}")


def _ellipse_nodes(center: float, a: float, b: float, n_points: int
                   ) -> list[tuple[complex, complex]]:
    """Midpoint-offset trapezoid nodes of an axis-aligned ellipse with
    real semi-axis a and imaginary semi-axis b (a circle when a = b).

    The offset keeps every node strictly off the real axis for even and
    odd n alike, so spectra on the axis are never sampled directly.
    """
    step = 2.0 * math.pi / n_points
    nodes = []
    for k in range(n_points):
        th = step * (k + 0.5)
        z = complex(center + a * math.cos(th), b * math.sin(th))
        w = complex(-a * math.sin(th), b * math.cos(th)) * step
        nodes.append((z, w))
    return nodes


def build_contour(spec_min: float, E: complex, margin: float = 0.5,
                  n_points: int = 64, t_max: float | None = None,
                  aspect: float = 0.35) -> Contour:
    """Ellipse contour around the real interval [spec_min - margin, t_max].

    The curve is an axis-aligned ellipse discretized with the trapezoidal
    rule (spectrally accurate for periodic integrands), oriented
    counterclockwise, with nodes offset off the real axis.

    Parameters
    ----------
    spec_min : float
        Lower edge of the spectral set to enclose.
    E : complex
        Composite probe energy; with the default ``t_max`` the right edge
        is placed at Re E - spec_min - margin, which is only meaningful
        when the probed energy sits far enough right of the enclosed set.
    margin : float
        Clearance between the enclosed spectral edge and the curve, > 0.
    n_points : int
        Number of quadrature nodes, an integer >= 8.
    t_max : float, optional
        Right end of the enclosed interval.  Pass explicitly whenever the
        default derivation from E collapses the interval.
    aspect : float
        Ratio of imaginary to real semi-axis, in (0, 1].

    Raises
    ------
    GeometryError
        If margin <= 0, n_points < 8, aspect invalid, or the resulting
        interval is empty (analyticity constraint unsatisfiable) or has
        a non-finite end.
    ValueError
        For n_points not an integer >= 0.
    """
    if margin <= 0:
        raise GeometryError(f"margin must be > 0, got {margin}")
    _check_count("node count n_points", n_points, 0)
    if n_points < 8:
        raise GeometryError(f"need at least 8 nodes, got {n_points}")
    if not 0.0 < aspect <= 1.0:
        raise GeometryError(f"aspect must be in (0, 1], got {aspect}")
    left = spec_min - margin
    if t_max is None:
        t_max = complex(E).real - spec_min - margin
    if t_max <= left:
        raise GeometryError(
            f"empty contour interval [{left}, {t_max}]: analyticity "
            "constraint unsatisfiable for this E and margin")
    right = float(t_max)
    half = 0.5 * (right - left)
    nodes = _ellipse_nodes(0.5 * (left + right), half, aspect * half,
                           n_points)
    return Contour(nodes=tuple(nodes), encircles=(left, right))


def encircle_points(centers: Sequence[float], radius: float,
                    n_per: int = 32) -> Contour:
    """Union of counterclockwise circles around isolated real points.

    Useful when probe energies sit between spectral points and a single
    ellipse could not separate the enclosed set from the poles of the
    translated factor; each circle is discretized with the midpoint
    trapezoid rule.

    Parameters
    ----------
    centers : sequence of float
        Circle centers (isolated spectral points to enclose).
    radius : float
        Common circle radius, > 0; circles must not touch.
    n_per : int
        Nodes per circle, an integer >= 8 (GeometryError below 8).
    """
    if radius <= 0:
        raise GeometryError(f"radius must be > 0, got {radius}")
    _check_count("node count n_per", n_per, 0)
    if n_per < 8:
        raise GeometryError(f"need at least 8 nodes per circle, got {n_per}")
    ordered = sorted(float(c) for c in centers)
    if not ordered:
        raise GeometryError("no circle centers given")
    for lo, hi in zip(ordered, ordered[1:]):
        if hi - lo <= 2.0 * radius:
            raise GeometryError(
                f"circles around {lo} and {hi} overlap at radius {radius}")
    nodes = [node for c in ordered
             for node in _ellipse_nodes(c, radius, radius, n_per)]
    return Contour(nodes=tuple(nodes),
                   encircles=(ordered[0] - radius, ordered[-1] + radius))


def _node_sum(contour: Contour,
              factors: Sequence[tuple[Callable[[complex], JacobiOperator],
                                      int, Callable[[np.ndarray],
                                                    np.ndarray]]],
              ) -> np.ndarray:
    """(1/2pi i) sum_nodes w * (G_1 kron G_2 kron ...) over the contour.

    Each factor is (family, N, energies_at): its block at node z is the
    physical-sheet Green's block of ``family(E)``, truncated to N x N,
    where E is z's entry of ``energies_at(zs)`` (zs the (nodes,) array).
    Each factor is evaluated once per contour, as one batch of lanes over
    the nodes (``jacobi._green_blocks``); every lane gives the errors of
    ``green_submatrix`` at its node, and its values bit for bit.

    The family contract: the family is called once, with the array of
    the node energies (those of the nodes where no earlier factor
    failed), and either raises or returns the stacked operator whose lane
    k equals ``family(E_k)`` (:class:`jgreens.jacobi.JacobiOperator`; the
    model builders do this). On anything else it is called node by node,
    with Python complex energies, and the blocks are the same.

    A node whose factor fails skips the later factors, as a per-node loop
    would. The terms w * (G_1 kron G_2 ...) are then added one by one in
    node order, the order of a per-node loop, so the sum is reproducible.

    Raises
    ------
    NodeFailure
        Listing every node where a family or a block raised, in node
        order, chained from the first such error (an earlier factor's
        error before a later one's at the same node).
    """
    zs = np.array([z for z, _ in contour.nodes])
    errors: list[Exception | None] = [None] * len(zs)
    product = np.ones((len(zs), 1, 1), dtype=complex)
    for family, n, energies_at in factors:
        blocks, _ = _green_blocks(family, energies_at(zs), n, errors)
        size = product.shape[1] * n
        product = (product[:, :, None, :, None]
                   * blocks[:, None, :, None, :]).reshape(len(zs), size, size)
    failed = [k for k, exc in enumerate(errors) if exc is not None]
    if failed:
        raise NodeFailure("Green's matrix evaluation failed",
                          nodes=zs[failed].tolist()) from errors[failed[0]]
    product *= np.array([w for _, w in contour.nodes])[:, None, None]
    # along the outer axis numpy adds term by term, not pairwise
    return np.add.reduce(product, axis=0) / (2.0j * math.pi)


def contour_matrix(family: Callable[[complex], JacobiOperator],
                   contour: Contour, N: int) -> np.ndarray:
    """Leading N x N block of (1/2pi i) oint G(z) dz for one family.

    The Green's blocks at all nodes are evaluated as one batch (see
    :func:`_node_sum`), each equal to ``green_submatrix(family(z), N,
    PHYSICAL)`` bit for bit, and summed in node order.

    Parameters
    ----------
    family : callable
        Maps a complex energy to the JacobiOperator at that energy. It is
        first called once with the array of node energies, and must then
        raise or return the stacked operator whose lane k equals
        ``family(z_k)``, as the model builders do (:func:`_node_sum`);
        otherwise it is called node by node.
    contour : Contour
        Closed contour avoiding all poles of the Green's matrix.
    N : int
        Block size, an integer >= 1.

    Returns
    -------
    numpy.ndarray
        Complex (N, N) matrix; encloses a sum of residue projectors when
        poles are inside, the zero matrix when none are.

    Raises
    ------
    NodeFailure
        Listing every node where the family or its block raised, in node
        order, chained from the first such error.
    """
    _check_count("block size N", N, 1)
    return _node_sum(contour, [(family, N, lambda zs: zs)])


def contour_projection(family: Callable[[complex], JacobiOperator],
                       contour: Contour, i: int, j: int) -> complex:
    """Single entry (1/2pi i) oint G_ij(z) dz of the contour integral.

    Parameters
    ----------
    family : callable
        Maps a complex energy to the JacobiOperator at that energy.
    contour : Contour
        Closed contour avoiding all poles of the Green's matrix.
    i, j : int
        Row and column of the requested entry, integers >= 0.

    Returns
    -------
    complex
        Sum over enclosed eigenvalues of <i~|psi><psi|j~>; zero when the
        contour encloses no spectrum.
    """
    _check_count("row index i", i, 0)
    _check_count("column index j", j, 0)
    block = contour_matrix(family, contour, max(i, j) + 1)
    return complex(block[i, j])


def convolve_greens(J1: Callable[[complex], JacobiOperator],
                    J2: Callable[[complex], JacobiOperator],
                    E: complex, contour: Contour,
                    N1: int, N2: int) -> np.ndarray:
    """Green's matrix of h1 + h2 by contour convolution.

    Evaluates (1/2pi i) sum_nodes w * (G1(E - z') kron G2(z')) with both
    truncated Green's matrices on the physical sheet; the contour must
    encircle the relevant spectrum of h2 while E - z' stays away from the
    spectrum of h1 for every enclosed z'. Each family is evaluated once
    per contour, as one batch over the nodes (see :func:`_node_sum`),
    and every node's block equals ``green_submatrix``'s there bit for
    bit. The terms w * (G1 kron G2) are summed one by one in node order.

    Parameters
    ----------
    J1, J2 : callable
        Energy -> JacobiOperator families of the two commuting parts.
        Each is first called once with the array of its node energies,
        and must then raise or return the stacked operator whose lane k
        equals its call at the k-th energy, as the model builders do
        (:func:`_node_sum`); otherwise it is called node by node.
    E : complex
        Composite energy at which the resolvent is assembled.
    contour : Contour
        Quadrature contour, e.g. from :func:`build_contour` or
        :func:`encircle_points`.
    N1, N2 : int
        Truncation sizes of the two factors, integers >= 1.

    Returns
    -------
    numpy.ndarray
        Complex (N1*N2, N1*N2) matrix in the tensor-product index
        ordering (i1*N2 + i2, j1*N2 + j2).

    Raises
    ------
    NodeFailure
        Listing every node where either factor failed, in node order,
        chained from the first failure; at one node a failure of the
        first factor counts, and J2 is then not evaluated there.
    """
    _check_count("block size N1", N1, 1)
    _check_count("block size N2", N2, 1)
    E = complex(E)
    return _node_sum(contour, [(J1, N1, lambda zs: E - zs),
                               (J2, N2, lambda zs: zs)])


def merkuriev_zeta(split: MerkurievSplit, x, y):
    """Cut-off function confining a potential to the two-body sector.

    zeta(x, y) = 2 / (1 + exp[(x/x0)^nu / (1 + y/y0)]); equals 1 on the
    x = 0 axis, tends to 1 inside the asymptotic region
    x < x0*(1 + y/y0)**(1/nu) and to 0 outside it.

    Parameters
    ----------
    split : MerkurievSplit
        Scale and sharpness parameters.
    x, y : float or array_like
        Pair and spectator coordinates, finite and >= 0.

    Returns
    -------
    float or numpy.ndarray
        Values in (0, 1].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not all(np.all((v >= 0) & (v < np.inf)) for v in (x, y)):
        raise ValueError(
            f"coordinates must be finite and >= 0, got x={x}, y={y}")
    # cap the exponent: exp(700) already maps to zeta = 0 at double precision
    expo = np.minimum((x / split.x0) ** split.nu / (1.0 + y / split.y0), 700.0)
    out = 2.0 / (1.0 + np.exp(expo))
    return float(out) if out.ndim == 0 else out


def split_potential(vC: Callable, split: MerkurievSplit
                    ) -> tuple[Callable, Callable]:
    """Short- and long-range evaluators v*zeta and v*(1 - zeta).

    Parameters
    ----------
    vC : callable
        Potential of the pair coordinate, vC(x).
    split : MerkurievSplit
        Cut-off parameters.

    Returns
    -------
    (callable, callable)
        Evaluators v_s(x, y) and v_l(x, y) whose sum reproduces vC(x)
        exactly at every point.
    """

    def v_short(x, y):
        return vC(x) * merkuriev_zeta(split, x, y)

    def v_long(x, y):
        return vC(x) * (1.0 - merkuriev_zeta(split, x, y))

    return v_short, v_long
