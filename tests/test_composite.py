"""Contour construction, spectral projections, convolution, splitting.

Oracles: Cauchy's integral formula on rational integrands; bound-state
wave-function overlaps by adaptive quadrature of closed-form hydrogenic
and Laguerre-basis functions; oscillator level sums 2(n1+n2)+3 for the
composite spectrum; direct arithmetic for the cut-off function.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as _gamma, genlaguerre, roots_laguerre

from jgreens.composite import (
    Contour,
    MerkurievSplit,
    build_contour,
    contour_matrix,
    contour_projection,
    convolve_greens,
    encircle_points,
    merkuriev_zeta,
    split_potential,
)
from jgreens.errors import GeometryError, NodeFailure, ZeroOffdiagonal
from jgreens.jacobi import (
    JacobiOperator,
    SheetSelector,
    _bm_depths,
    _corner_ratios,
    _green_blocks,
    dense_truncation,
    green_submatrix,
    tail_ratio,
)
from jgreens.models import (
    CoulombModel,
    OscillatorModel,
    coulomb_jacobi,
    oscillator_jacobi,
)

# attractive Coulomb in atomic units; l=1 levels are -1/(2 (nr+2)^2)
ATOM = CoulombModel(Z=-1.0, l=1, D=3, b=0.5, m=1.0, hbar=1.0, e2=1.0)
R0 = 0.5  # hbar^2 / (2 m |Z| e2)


def _hex(a):
    """float.hex of every real and imaginary part of an array."""
    return [(v.real.hex(), v.imag.hex()) for v in np.ravel(a).tolist()]


def coulomb_family(z):
    return coulomb_jacobi(ATOM, z)


def oscillator_family(omega_basis):
    model = OscillatorModel(omega=1.0, omega_basis=omega_basis, l=0, D=3)

    def family(z):
        return oscillator_jacobi(model, z)

    return family


def dual_basis(n, r, model=ATOM):
    """<r|n~> = phi_n(r)/r of the Laguerre-type basis."""
    l, D, b = model.l, model.D, model.b
    x = 2.0 * b * r
    norm = math.sqrt(_gamma(n + 1) / _gamma(n + 2 * l + D - 1))
    return norm * np.exp(-b * r) * x ** (l + (D - 1) / 2.0) \
        * genlaguerre(n, 2 * l + D - 2)(x) / r


def direct_basis(n, r, model=ATOM):
    """<r|n> = phi_n(r) of the Laguerre-type basis."""
    return dual_basis(n, r, model) * r


def bound_state(nr, r, model=ATOM):
    """Closed-form bound radial function, unnormalized."""
    l, D = model.l, model.D
    a0 = 1.0 / ((nr + l + (D - 1) / 2.0) * R0)
    x = a0 * r
    return np.exp(-x / 2.0) * x ** (l + (D - 1) / 2.0) \
        * genlaguerre(nr, 2 * l + D - 2)(x)


def dual_overlap(i, nr):
    """<i~|psi_nr> with psi normalized, by adaptive quadrature."""
    num = quad(lambda r: dual_basis(i, r) * bound_state(nr, r),
               0.0, 150.0, limit=300)[0]
    den = quad(lambda r: bound_state(nr, r) ** 2, 0.0, 150.0, limit=300)[0]
    return num / math.sqrt(den)


def test_contour_weights_close_and_orientation():
    c = build_contour(0.0, 0.0, margin=0.5, n_points=96, t_max=2.0)
    total = sum(w for _, w in c.nodes)
    scale = sum(abs(w) for _, w in c.nodes)
    assert abs(total) <= 1e-12 * scale
    # winding number +1 around an interior point: counterclockwise
    center = 0.75 + 0.0j
    winding = c.integrate(lambda z: 1.0 / (z - center))
    assert abs(winding - 1.0) < 1e-10
    assert c.direction == "counterclockwise"
    assert c.encircles == (-0.5, 2.0)


def test_contour_validation():
    with pytest.raises(GeometryError):
        build_contour(0.0, 0.0, margin=0.0, t_max=1.0)
    with pytest.raises(GeometryError):
        build_contour(0.0, 0.0, margin=0.5, n_points=4, t_max=1.0)
    with pytest.raises(GeometryError):
        build_contour(0.0, 0.0, margin=0.5, t_max=-0.5)
    with pytest.raises(GeometryError):
        build_contour(0.0, 0.0, margin=0.5, t_max=1.0, aspect=0.0)
    # default t_max = Re E - spec_min - margin collapses the interval here
    with pytest.raises(GeometryError):
        build_contour(1.5, 2.0 + 0.0j, margin=0.5)
    with pytest.raises(GeometryError):
        encircle_points([1.5, 3.5], radius=1.5)
    with pytest.raises(GeometryError):
        encircle_points([], radius=0.1)
    with pytest.raises(GeometryError):
        Contour(nodes=())
    with pytest.raises(GeometryError):
        Contour(nodes=((1.0 + 0j, 1.0 + 0j), (2.0 + 0j, 1.0 + 0j)))


def test_cauchy_formula_inside_and_outside():
    c = build_contour(-1.0, 0.0, margin=0.5, n_points=64, t_max=1.5,
                      aspect=1.0)
    inside = 0.3 + 0.1j
    outside = 2.4 - 0.3j
    assert abs(c.integrate(lambda z: 1.0 / (z - inside)) - 1.0) <= 1e-10
    assert abs(c.integrate(lambda z: 1.0 / (z - outside))) <= 1e-10
    # entire integrands vanish identically
    assert abs(c.integrate(lambda z: 1.0)) <= 1e-12
    assert abs(c.integrate(lambda z: z * z)) <= 1e-12
    rings = encircle_points([0.0, 4.0], radius=0.5, n_per=32)
    assert abs(rings.integrate(lambda z: 1.0 / (z - 4.01)) - 1.0) <= 1e-10
    assert abs(rings.integrate(lambda z: 1.0 / (z - 2.0))) <= 1e-10


def test_projection_no_pole_is_zero():
    # gap between the l=1 levels -1/8 and -1/18
    c = build_contour(-0.11 + 0.5, 0.0, margin=0.5, n_points=64, t_max=-0.065)
    val = contour_projection(coulomb_family, c, 0, 0)
    assert abs(val) <= 1e-10


def test_projection_single_pole_matches_wave_function():
    c = build_contour(-0.125, 0.0, margin=0.075, n_points=64, t_max=-0.08)
    got = contour_projection(coulomb_family, c, 0, 0)
    c0 = dual_overlap(0, 0)
    oracle = c0 * c0
    # this geometry collapses to the closed form 1/4
    assert abs(oracle - 0.25) < 1e-12
    assert got.real > 0.0
    assert abs(got.imag) <= 1e-12
    assert abs(got - oracle) <= 1e-10


def test_projection_single_pole_idempotent():
    # second level only: the ellipse spans [-0.08, -0.04], which holds
    # -1/18 and keeps -1/8 and -1/32 outside; its coefficients spread
    # over many basis indices
    c = build_contour(-1.0 / 18.0, 0.0, margin=0.08 - 1.0 / 18.0,
                      n_points=128, t_max=-0.04)
    p = contour_matrix(coulomb_family, c, 8)
    assert abs(p[1, 0]) > 1e-3
    # rank-one contour block: P @ P = trace(P) * P
    resid = p @ p - np.trace(p) * p
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(p)))
    got = contour_projection(coulomb_family, c, 1, 0)
    assert abs(got - p[1, 0]) <= 1e-12 * max(1.0, abs(p[1, 0]))


def test_projection_rank3_block():
    size = 22
    c = build_contour(-0.125, 0.0, margin=0.025, n_points=160, t_max=-0.025)
    block = contour_matrix(coulomb_family, c, size)
    assert np.max(np.abs(block.imag)) <= 1e-10

    # additivity: equals the sum of the three single-pole projections
    singles = np.zeros((size, size), dtype=complex)
    for lo, hi in ((-0.15, -0.08), (-0.08, -0.04), (-0.04, -0.025)):
        ring = build_contour(lo + 0.01, 0.0, margin=0.01, n_points=96,
                             t_max=hi)
        singles += contour_matrix(coulomb_family, ring, size)
    assert np.max(np.abs(block - singles)) <= 1e-10

    # entries against the closed-form wave-function quadrature oracle
    coeff = np.array([[dual_overlap(i, nr) for nr in range(3)]
                      for i in range(size)])
    oracle = coeff @ coeff.T
    assert np.max(np.abs(block.real - oracle)) <= 1e-8

    # idempotence in the basis metric: P Gram P = P up to truncation,
    # with Gram_ij = integral of phi_i phi_j dr (r = x / 2b, so
    # dr = dx / 2b and the rule's weight e^{-x} is folded back in)
    nodes, weights = roots_laguerre(160)
    r = nodes / (2.0 * ATOM.b)
    wexp = weights * np.exp(nodes) / (2.0 * ATOM.b)
    rows = np.array([direct_basis(i, r) for i in range(size)])
    gram = np.einsum("ik,jk,k->ij", rows, rows, wexp)
    p = block.real
    assert np.max(np.abs(p @ gram @ p - p)) <= 1e-8


def test_identity_full_spectrum_oscillator():
    fam = oscillator_family(1.3)
    c = build_contour(1.5, 0.0, margin=0.5, n_points=160, t_max=16.0)
    got = contour_projection(fam, c, 0, 0)
    # orthonormal basis: the enclosed-spectrum identity equals <0|0>
    v = 1.3
    phi0 = lambda r: v ** 0.25 * math.sqrt(2.0 / _gamma(1.5)) \
        * np.exp(-v * r * r / 2.0) * np.sqrt(v) * r
    oracle = quad(lambda r: phi0(r) ** 2, 0.0, 30.0, limit=200)[0]
    assert abs(oracle - 1.0) < 1e-12
    assert abs(got - oracle) <= 1e-10


def test_convolution_two_oscillator_poles():
    fam = oscillator_family(1.3)
    centers = [1.5 + 2.0 * m for m in range(4)]
    ring_radius = 0.1
    rings = encircle_points(centers, radius=ring_radius, n_per=32)
    # composite levels e1 + c the rings reach: at E within a ring radius
    # of one, E - z' meets the h1 spectrum inside that ring
    reachable = [1.5 + 2.0 * n + c for n in range(6) for c in centers]

    # det scan of the 1x1 composite block along the real axis
    grid = np.arange(2.5, 7.75, 0.4)
    dets = np.array([abs(convolve_greens(fam, fam, complex(x), rings,
                                         1, 1)[0, 0]) for x in grid])
    guesses = [grid[k] for k in range(1, len(grid) - 1)
               if dets[k] > dets[k - 1] and dets[k] > dets[k + 1]]
    merged: list[float] = []
    for g in guesses:
        if not merged or g - merged[-1] > 1.0:
            merged.append(float(g))
    assert len(merged) == 3

    # refine each pole by contour moments of g00 in the energy plane;
    # the circle must keep every node two ring radii off the reachable
    # levels, and its node count grows with its radius
    targets = (3.0, 5.0, 7.0)
    for guess, want in zip(merged, targets):
        n_e, radius = 24, 0.5
        theta = 2.0 * np.pi * (np.arange(n_e) + 0.5) / n_e
        e_nodes = guess + radius * np.exp(1j * theta)
        e_weights = 1j * radius * np.exp(1j * theta) * (2.0 * np.pi / n_e)
        clearance = min(abs(e - lvl) for e in e_nodes for lvl in reachable)
        assert clearance >= 2.0 * ring_radius
        m0 = 0.0j
        m1 = 0.0j
        for e, w in zip(e_nodes, e_weights):
            g00 = convolve_greens(fam, fam, e, rings, 1, 1)[0, 0]
            m0 += w * g00
            m1 += w * e * g00
        assert abs(m0) > 1e-6
        pole = m1 / m0
        assert abs(pole - want) <= 1e-7


def test_convolution_node_doubling_and_shape_invariance():
    fam = oscillator_family(1.3)
    e0 = 2.0 + 0.0j
    centers = [1.5 + 2.0 * m for m in range(10)]
    ga = convolve_greens(fam, fam, e0,
                         encircle_points(centers, 0.1, 40), 3, 3)
    gb = convolve_greens(fam, fam, e0,
                         encircle_points(centers, 0.1, 80), 3, 3)
    assert np.max(np.abs(ga - gb)) <= 1e-10

    ell1 = build_contour(1.5, e0, margin=0.5, n_points=256, t_max=20.4,
                         aspect=0.35)
    ell2 = build_contour(1.5, e0, margin=0.5, n_points=256, t_max=20.4,
                         aspect=0.2)
    ge1 = convolve_greens(fam, fam, e0, ell1, 3, 3)
    ge2 = convolve_greens(fam, fam, e0, ell2, 3, 3)
    assert np.max(np.abs(ge1 - ge2)) <= 1e-9
    assert np.max(np.abs(ge1 - ga)) <= 1e-9


def test_convolution_swap_symmetry():
    fam_a = oscillator_family(1.3)
    fam_b = oscillator_family(1.1)
    e0 = 2.0 + 0.0j
    rings = encircle_points([1.5 + 2.0 * m for m in range(10)], 0.1, 40)
    n1, n2 = 3, 3
    g_ab = convolve_greens(fam_a, fam_b, e0, rings, n1, n2)
    g_ba = convolve_greens(fam_b, fam_a, e0, rings, n2, n1)
    perm = np.arange(n1 * n2).reshape(n1, n2).T.reshape(-1)
    assert np.max(np.abs(g_ab - g_ba[np.ix_(perm, perm)])) <= 1e-10


def test_convolution_coulomb_plus_free_no_spurious_poles():
    bound = CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
    free = CoulombModel(Z=0.0, l=0, D=3, b=1.0)
    fam_c = lambda z: coulomb_jacobi(bound, z)
    fam_f = lambda z: coulomb_jacobi(free, z)
    c = build_contour(-0.5, 0.0, margin=0.05, n_points=96, t_max=-0.02)
    signs = []
    logs = []
    for x in np.linspace(-2.0, -0.65, 16):
        g = convolve_greens(fam_f, fam_c, complex(x), c, 4, 4)
        assert np.max(np.abs(g.imag)) <= 1e-12
        sign, logdet = np.linalg.slogdet(g.real)
        assert np.isfinite(logdet)
        signs.append(sign)
        logs.append(logdet)
    assert len(set(signs)) == 1
    steps = np.abs(np.diff(logs))
    assert np.max(steps) < 3.0


def test_convolve_greens_node_failure():
    fam = oscillator_family(1.3)
    boom = ValueError("synthetic failure")

    def flaky(z):
        if z.imag > 0:
            raise boom
        return oscillator_jacobi(OscillatorModel(1.0, 1.3, l=0, D=3), z)

    rings = encircle_points([1.5], radius=0.1, n_per=16)
    with pytest.raises(NodeFailure) as info:
        convolve_greens(flaky, fam, 0.5 + 0.0j, rings, 2, 2)
    upper = [z for z, _ in rings.nodes if (0.5 - z).imag > 0]
    assert sorted(info.value.nodes, key=lambda z: z.real) == \
        sorted([0.5 - z for z, _ in rings.nodes if (0.5 - z).imag > 0],
               key=lambda z: z.real) or len(info.value.nodes) == len(upper)
    assert info.value.__cause__ is boom
    with pytest.raises(ValueError):
        convolve_greens(fam, fam, 0.5, rings, 0, 2)

    # a zero off-diagonal inside the tail at the nodes with Im z > 0: the
    # first of them in node order breaks at J_{2,3}, the others at J_{3,4}
    upper = [z for z, _ in rings.nodes if z.imag > 0]

    def cut(z):
        op = fam(z)
        if z.imag <= 0:
            return op
        at = 2 if z == upper[0] else 3
        return JacobiOperator(
            op.diag, lambda i: 0.0 if i == at else op.offdiag(i),
            op.energy, op.limit_coeffs)

    for run in (lambda: convolve_greens(fam, cut, 0.5, rings, 2, 2),
                lambda: contour_matrix(cut, rings, 2)):
        with pytest.raises(NodeFailure) as info:
            run()
        assert info.value.nodes == upper
        assert isinstance(info.value.__cause__, ZeroOffdiagonal)
        assert info.value.__cause__.index == 2


def _finite_operator(E):
    """Seven rows of a perturbed Laplacian at E; the maps raise IndexError
    past index 6, so the corner-ratio fraction is finite."""
    def diag(i):
        if i > 6:
            raise IndexError(i)
        return E - (2.0 + 0.5 / (i + 1.0) ** 2)

    def offdiag(i):
        if i > 6:
            raise IndexError(i)
        return -(1.0 - 0.3 / (i + 1.0) ** 2)

    return JacobiOperator(diag, offdiag, E, (-1.0, E - 2.0))


def _same(op):
    return op


def _green_block_lanes(case):
    """(operators, N) of one contour node batch; see the parity test."""
    osc = OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
    bound = CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
    free = CoulombModel(Z=0.0, l=0, D=3, b=1.0)
    ellipse = build_contour(-0.5, 0.0, margin=0.05, n_points=96, t_max=-0.02)
    rings = encircle_points([1.5, 3.5, 5.5], 0.1, 40)
    if case == "oscillator rings":
        return [oscillator_jacobi(osc, 7.9 - z) for z, _ in rings.nodes], 3
    if case == "coulomb bound ellipse":
        return [coulomb_jacobi(bound, z) for z, _ in ellipse.nodes], 4
    if case == "coulomb free ellipse":
        return [coulomb_jacobi(free, -1.3 - z) for z, _ in ellipse.nodes], 4
    if case == "coulomb crossing Re z = 0":
        crossing = build_contour(-0.6, 0.0, margin=0.05, n_points=64,
                                 t_max=0.6)
        return [coulomb_jacobi(bound, z) for z, _ in crossing.nodes], 4
    if case == "finite operator":
        return [_finite_operator(E) for E in (1.0 + 0.5j, 2.0 + 0.3j)], 3
    equal = OscillatorModel(omega=1.0, omega_basis=1.0, l=0, D=3)
    return [oscillator_jacobi(equal, z) for z, _ in rings.nodes], 3


@pytest.mark.parametrize("case", [
    "oscillator rings", "coulomb bound ellipse", "coulomb free ellipse",
    "coulomb crossing Re z = 0", "finite operator", "equal frequencies"])
def test_green_blocks_match_green_submatrix(case):
    ops, N = _green_block_lanes(case)
    expected_depths = {"oscillator rings": {0},
                       "coulomb bound ellipse": {0},
                       "coulomb free ellipse": {0},
                       "coulomb crossing Re z = 0": {0, 8},
                       "finite operator": {8}}
    if case == "equal frequencies":
        assert all(op.limit_coeffs is None for op in ops)
        starts = [None] * len(ops)
    else:
        starts = [_bm_depths(op.limit_coeffs)[0] for op in ops]
        assert set(starts) == expected_depths[case]
    blocks, errors = _green_blocks(_same, ops, N)
    assert blocks.shape == (len(ops), N, N)
    for op, block, error, start in zip(ops, blocks, errors, starts):
        # a lane's values do not depend on the batch it runs in
        (alone,), (alone_error,) = _green_blocks(_same, [op], N)
        assert type(alone_error) is type(error)
        assert str(alone_error) == str(error)
        assert np.array_equal(alone, block)
        try:
            scalar = green_submatrix(op, N, SheetSelector.PHYSICAL).entries
        except Exception as exc:
            assert type(error) is type(exc) and str(error) == str(exc)
            continue
        assert error is None
        if start == 0:
            # tail_ratio's longer first chunk applies only above depth 0,
            # so there the batch's corner ratio is tail_ratio's, bit for bit
            (ratio,), _ = _corner_ratios([op], N)
            assert _hex(ratio) == _hex(tail_ratio(op, N,
                                                  SheetSelector.PHYSICAL))
            # numpy's array product and Python's complex product round a
            # complex J_{N-1,N} * ratio differently; a real one alike
            if complex(op.offdiag(N - 1)).imag == 0:
                assert _hex(block) == _hex(scalar)
        scale = np.max(np.abs(scalar))
        assert np.max(np.abs(block - scalar)) <= 1e-13 * scale

    # independent oracle: the inverse of the finite matrix, or of a large
    # plain truncation at the nodes farthest from the real axis
    if case == "finite operator":
        picked, size = range(len(ops)), 7
    else:
        picked = sorted(range(len(ops)),
                        key=lambda k: -abs(complex(ops[k].energy).imag))[:4]
        size = 600
    for k in picked:
        dense = np.linalg.inv(dense_truncation(ops[k], size))[:N, :N]
        assert errors[k] is None
        assert np.max(np.abs(blocks[k] - dense)) <= 1e-9 * np.max(
            np.abs(dense))


@pytest.mark.parametrize("geometry", ["oscillator rings", "coulomb ellipse"])
def test_node_sum_adds_in_node_order(geometry):
    # the per-node loop the reduction replaced, on the two geometries of
    # the composite benchmark: 800 ring nodes at 3 x 3, 96 ellipse nodes
    # at 4 x 4
    if geometry == "oscillator rings":
        osc = OscillatorModel(omega=1.0, omega_basis=1.3, l=0, D=3)
        J1 = J2 = lambda z: oscillator_jacobi(osc, z)
        E, N1, N2 = 4.3, 3, 3
        contour = encircle_points([1.5 + 2.0 * m for m in range(10)], 0.1, 80)
    else:
        bound = CoulombModel(Z=-1.0, l=0, D=3, b=1.0)
        free = CoulombModel(Z=0.0, l=0, D=3, b=1.0)
        J1, J2 = (lambda z: coulomb_jacobi(free, z),
                  lambda z: coulomb_jacobi(bound, z))
        E, N1, N2 = -1.1, 4, 4
        contour = build_contour(-0.5, 0.0, margin=0.05, n_points=96,
                                t_max=-0.02)
    zs = [z for z, _ in contour.nodes]
    g1, _ = _green_blocks(J1, [E - z for z in zs], N1)
    g2, _ = _green_blocks(J2, zs, N2)
    acc = np.zeros((N1 * N2, N1 * N2), dtype=complex)
    for (_, w), a, b in zip(contour.nodes, g1, g2):
        acc += np.kron(a, b) * w
    got = convolve_greens(J1, J2, E, contour, N1, N2)
    assert _hex(got) == _hex(acc / (2.0j * math.pi))


def test_merkuriev_zeta_values_and_limits():
    split = MerkurievSplit(x0=3.0, y0=10.0, nu=2.5)
    for y in (0.0, 1.0, 57.0):
        assert merkuriev_zeta(split, 0.0, y) == 1.0
    for nu in (2.01, 2.5, 4.0, 11.0):
        s = MerkurievSplit(x0=3.0, y0=10.0, nu=nu)
        got = merkuriev_zeta(s, 3.0, 0.0)
        assert abs(got - 2.0 / (1.0 + math.e)) <= 1e-10
        assert abs(got - 0.5378828427) <= 1e-9
    assert merkuriev_zeta(split, 600.0, 5.0) <= 1e-12
    # inside the asymptotic envelope x < x0 (1 + y/y0)^(1/nu): zeta -> 1
    assert merkuriev_zeta(split, 15.0, 1e7 * split.y0) > 0.9999
    xs = np.linspace(0.0, 30.0, 40)
    vals = merkuriev_zeta(split, xs, 2.0)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all((vals > 0.0) & (vals <= 1.0))


def test_merkuriev_validation():
    for bad in ({"x0": 0.0, "y0": 1.0, "nu": 3.0},
                {"x0": 1.0, "y0": -2.0, "nu": 3.0},
                {"x0": 1.0, "y0": 1.0, "nu": 2.0},
                {"x0": 1.0, "y0": 1.0, "nu": 1.5}):
        with pytest.raises(ValueError):
            MerkurievSplit(**bad)
    split = MerkurievSplit(x0=1.0, y0=1.0, nu=2.5)
    with pytest.raises(ValueError):
        merkuriev_zeta(split, -0.1, 0.0)


def test_split_potential_sums_exactly():
    split = MerkurievSplit(x0=4.0, y0=8.0, nu=2.2)
    v = lambda x: -1.44 / x
    v_short, v_long = split_potential(v, split)
    for x in (0.3, 1.0, 4.0, 9.5, 40.0):
        for y in (0.0, 2.0, 77.0):
            total = v_short(x, y) + v_long(x, y)
            assert abs(total - v(x)) <= 1e-15 * abs(v(x))
