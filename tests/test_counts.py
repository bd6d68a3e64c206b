"""Every size, index, order and budget argument is a count.

One table holds every such argument of the public API with its minimum;
:func:`jgreens.errors._check_count` is the one check behind all of them.
A float (integral or not), a bool (Python's or numpy's) and an integer
below the minimum are refused with a ValueError naming the argument,
before any operator is built, any term summed or any basis value formed;
a numpy integer computes exactly what the equal int computes. A
coefficient map's index differs in one point: an integer below its first
index raises IndexError, which ends a fraction. A last test fails when a
parameter named like a count, of a public function or class or of a
public method of one, is missing from the tables.
"""

import dataclasses
import enum
import inspect
import numbers
import re
from types import SimpleNamespace

import numpy as np
import pytest

from jgreens import composite, contfrac, jacobi, models, scatter, special
from jgreens.errors import GeometryError

COULOMB = models.CoulombModel(Z=-1.0, l=0, D=3, b=1.2)
OP = models.coulomb_jacobi(COULOMB, -0.3)
CONTOUR = composite.encircle_points([-0.5], 0.2, n_per=8)
GENCOULOMB = models.GenCoulombModel(C=0.9, theta=0.8, q=1.7, beta=2.4,
                                    rho_basis=1.3)
REL = models.RelCoulombModel(mu=137.036, alpha_fs=1 / 137.036, Z=1.0,
                             kind=models.DiracUpper(j=0.5), eta_basis=1.0)
OSCILLATOR = models.OscillatorModel(omega=1.0, omega_basis=1.3)
# alpha-alpha units: hbar^2/(2m) = 10.375 MeV fm^2, Z1 Z2 e^2 = 5.76 MeV fm
_MASS = 1.0 / (2.0 * 10.375)
BOUND = scatter.ScatterProblem(
    models.CoulombModel(Z=0, l=0, b=4.0, m=_MASS, e2=1.44),
    scatter.ShortRangePotential(lambda r: -122.694 * np.exp(-0.22 * r * r)),
    8, smoothing=scatter.SmoothingScheme(alpha=6.0))
RESONANT = scatter.ScatterProblem(
    models.CoulombModel(Z=4, l=2, b=4.0, m=_MASS, e2=1.44),
    scatter.alpha_alpha_potential()[1], 8)


# what the calls below evaluate
LIVE = SimpleNamespace(
    family=lambda E: models.coulomb_jacobi(COULOMB, E),
    cf=contfrac.ContinuedFraction(0.0, lambda i: (1.0, 2.0)),
    rec=contfrac.Recurrence(lambda n: (-1.0, 2.5), limit_coeffs=(-1.0, 2.5)))


@pytest.fixture
def tripwires(monkeypatch):
    """Inputs whose family, fraction and recurrence are tripwires, and
    every builder, sum and basis evaluator the table reaches one too: a
    tripwire records its call in ``touched`` and raises (the batch paths
    keep a family's error per lane and go on)."""
    touched = []

    def touch(*args, **kwargs):
        touched.append(args)
        raise RuntimeError("tripwire")

    for module, name in ((contfrac, "_sum_fractions"),
                         (jacobi, "_sum_fractions"),
                         (scatter, "coulomb_jacobi"),
                         (models, "_laguerre_functions"),
                         (special, "_gauss_series"),
                         (special, "_laguerre_table"),
                         (special, "_run_laguerre"),
                         (composite, "_ellipse_nodes")):
        monkeypatch.setattr(module, name, touch)
    return SimpleNamespace(family=touch, touched=touched,
                           cf=contfrac.ContinuedFraction(0.0, touch),
                           rec=contfrac.Recurrence(touch))


# (function, parameter, minimum, a valid value, call(value, inputs)); the
# message names the parameter, and seeds by its entry seeds[0]
COUNTS = [
    ("jacobi.cf_coefficients", "start", 1, 2,
     lambda v, x: jacobi.cf_coefficients(OP, v)(3)),
    ("jacobi.tail_ratio", "n", 1, 2,
     lambda v, x: jacobi.tail_ratio(OP, v)),
    ("jacobi.tail_ratio", "bm_rounds", 0, 2,
     lambda v, x: jacobi.tail_ratio(OP, 2, bm_rounds=v)),
    ("jacobi.green_submatrix", "N", 1, 2,
     lambda v, x: jacobi.green_submatrix(OP, v)),
    ("jacobi.green_submatrix", "bm_rounds", 0, 2,
     lambda v, x: jacobi.green_submatrix(OP, 3, bm_rounds=v)),
    ("jacobi.corrected_truncation", "N", 1, 2,
     lambda v, x: jacobi.corrected_truncation(OP, v)),
    ("jacobi.corrected_truncation", "bm_rounds", 0, 2,
     lambda v, x: jacobi.corrected_truncation(OP, 3, bm_rounds=v)),
    ("jacobi.dense_truncation", "N", 1, 2,
     lambda v, x: jacobi.dense_truncation(OP, v)),
    ("contfrac.eval_backward", "n", 0, 2,
     lambda v, x: contfrac.eval_backward(x.cf, v)),
    ("contfrac.eval_forward", "max_terms", 1, 2,
     lambda v, x: contfrac.eval_forward(x.cf, 1e-12, v)),
    ("contfrac.repeated_bauer_muir", "rounds", 0, 2,
     lambda v, x: contfrac.eval_backward(
         contfrac.repeated_bauer_muir(x.cf, 0.4, v), 10)),
    ("contfrac.pincherle_ratio", "N", 0, 2,
     lambda v, x: contfrac.pincherle_ratio(x.rec, N=v)),
    ("contfrac.pincherle_ratio", "max_terms", 1, 2,
     lambda v, x: contfrac.pincherle_ratio(x.rec, max_terms=v)),
    ("composite.build_contour", "n_points", 0, 8,
     lambda v, x: composite.build_contour(-1.0, 5.0, n_points=v)),
    ("composite.encircle_points", "n_per", 0, 8,
     lambda v, x: composite.encircle_points([0.0], 0.5, n_per=v)),
    ("composite.contour_matrix", "N", 1, 2,
     lambda v, x: composite.contour_matrix(x.family, CONTOUR, v)),
    ("composite.contour_projection", "i", 0, 2,
     lambda v, x: composite.contour_projection(x.family, CONTOUR, v, 0)),
    ("composite.contour_projection", "j", 0, 2,
     lambda v, x: composite.contour_projection(x.family, CONTOUR, 0, v)),
    ("composite.convolve_greens", "N1", 1, 2,
     lambda v, x: composite.convolve_greens(x.family, x.family, 1j,
                                            CONTOUR, v, 1)),
    ("composite.convolve_greens", "N2", 1, 2,
     lambda v, x: composite.convolve_greens(x.family, x.family, 1j,
                                            CONTOUR, 1, v)),
    ("models.exact_levels", "n_max", 1, 2,
     lambda v, x: models.exact_levels(COULOMB, v)),
    ("models.cs_basis_eval", "n", 0, 2,
     lambda v, x: models.cs_basis_eval(v, 0, 3, 1.2, 0.7)),
    ("models.gcs_basis_eval", "n", 0, 2,
     lambda v, x: models.gcs_basis_eval(GENCOULOMB, v, 0.7)),
    ("models.rel_basis_eval", "n", 0, 2,
     lambda v, x: models.rel_basis_eval(REL, v, 0.7)),
    ("models.coulomb_wavefunction", "n", 0, 2,
     lambda v, x: models.coulomb_wavefunction(COULOMB, v, 0.7)),
    ("models.oscillator_wavefunction", "n", 0, 2,
     lambda v, x: models.oscillator_wavefunction(OSCILLATOR, v, 0.7)),
    ("models.det_pole_scan", "size", 1, 2,
     lambda v, x: models.det_pole_scan(x.family, -0.6, -0.04, size=v)),
    ("models.det_pole_scan", "n_points", 2, 40,
     lambda v, x: models.det_pole_scan(x.family, -0.6, -0.04, size=2,
                                       n_points=v)),
    ("models.det_pole_scan", "bm_rounds", 0, 2,
     lambda v, x: models.det_pole_scan(x.family, -0.6, -0.04, size=2,
                                       n_points=40, bm_rounds=v)),
    ("scatter.SmoothingScheme.factors", "N", 0, 2,
     lambda v, x: scatter.SmoothingScheme().factors(v)),
    ("scatter.ScatterProblem", "N", 1, 2,
     lambda v, x: scatter.potential_matrix(scatter.ScatterProblem(
         BOUND.model, BOUND.potential, v))),
    ("scatter.ScatterProblem", "quad_order", 36, 40,
     lambda v, x: scatter.potential_matrix(scatter.ScatterProblem(
         BOUND.model, BOUND.potential, 8, quad_order=v))),
    ("scatter.sigma_factor", "n", 0, 2,
     lambda v, x: scatter.sigma_factor(v, 8, 5.2)),
    ("scatter.sigma_factor", "N", 0, 2,
     lambda v, x: scatter.sigma_factor(0, v, 5.2)),
    ("scatter.find_bound_states", "n_grid", 2, 40,
     lambda v, x: scatter.find_bound_states(BOUND, -35.0, -25.0,
                                            n_grid=v)),
    ("scatter.find_resonances", "seeds", 1, 1,
     lambda v, x: scatter.find_resonances(
         RESONANT, (complex(2.4, -1.0), complex(3.4, -0.3)), seeds=(v, 1))),
    ("scatter.free_overlap", "N", 0, 2,
     lambda v, x: scatter.free_overlap(BOUND.model, 1.5, v)),
    ("special.hyp2f1", "max_terms", 1, 200,
     lambda v, x: special.hyp2f1(0.5, 1.0, 1.5, 0.3, max_terms=v)),
    ("special.genlaguerre_table", "n_max", 0, 2,
     lambda v, x: special.genlaguerre_table(v, 0.5, [0.3, 1.0])),
    ("special.gauss_laguerre_scaled", "order", 1, 4,
     lambda v, x: special.gauss_laguerre_scaled(v)),
    ("special.gauss_legendre", "order", 1, 4,
     lambda v, x: special.gauss_legendre(v)),
]
_IDS = [f"{target}:{param}" for target, param, *_ in COUNTS]

# Parameters named like counts that are not counts, and why.
NOT_COUNTS = {
    # a budget below 1 stops at S_1, as 1 does (documented)
    ("jacobi.tail_ratio", "max_terms"),
    ("jacobi.corrected_truncation", "max_terms"),
    ("jacobi.green_submatrix", "max_terms"),
    # a result record: n is the size of the block it holds
    ("jacobi.GreenMatrix", "n"),
    # a half-integer total angular momentum
    ("models.DiracUpper", "j"),
    ("models.DiracLower", "j"),
}
# The index of a coefficient map, a count with its own rule: a bool or a
# float is refused as every count is, but an integer below the first index
# raises IndexError, which ends a fraction. The map jacobi.cf_coefficients
# returns has the same rule (its index is no parameter the scan sees).
INDICES = {("contfrac.ContinuedFraction.coefficient", "i")}
_COUNT_NAMES = {"n", "N", "N1", "N2", "i", "j", "size", "n_points", "n_per",
                "n_grid", "n_max", "order", "rounds", "bm_rounds", "start",
                "max_terms", "quad_order", "seeds"}


@pytest.mark.parametrize("target,param,minimum,good,call", COUNTS, ids=_IDS)
def test_count_arguments_refuse_non_counts(tripwires, target, param, minimum,
                                           good, call):
    name = "seeds[0]" if param == "seeds" else param
    for bad in (float(good), True, np.bool_(True), minimum - 1):
        message = (rf"(^|\s){re.escape(name)} must be an integer >= "
                   rf"{minimum}, got {re.escape(repr(bad))}$")
        with pytest.raises(ValueError, match=message):
            call(bad, tripwires)
        assert tripwires.touched == []


@pytest.mark.parametrize("call,bad", [
    (lambda v: composite.build_contour(-1.0, 5.0, n_points=v), 0),
    (lambda v: composite.build_contour(-1.0, 5.0, n_points=v), 7),
    (lambda v: composite.encircle_points([0.0], 0.5, n_per=v), 0),
    (lambda v: composite.encircle_points([0.0], 0.5, n_per=v), 7),
])
def test_node_counts_below_eight_are_geometry_errors(call, bad):
    with pytest.raises(GeometryError, match="at least 8 nodes"):
        call(bad)


@pytest.mark.parametrize("first,call", [
    (1, lambda v, x: x.cf.coefficient(v)),
    (3, lambda v, x: jacobi.cf_coefficients(
        jacobi.JacobiOperator(x.family, x.family), 3)(v)),
], ids=["contfrac.ContinuedFraction.coefficient", "jacobi.cf_coefficients"])
def test_coefficient_indices_refuse_non_integers(tripwires, first, call):
    for bad in (float(first), first + 0.5, True, np.bool_(True), False):
        message = (rf"(^|\s)i must be an integer >= {first}, "
                   rf"got {re.escape(repr(bad))}$")
        with pytest.raises(ValueError, match=message):
            call(bad, tripwires)
    for below in (first - 1, np.int64(first - 1)):
        with pytest.raises(IndexError):
            call(below, tripwires)
    assert tripwires.touched == []


def _bits(value):
    """value with every float as its hex and every array as its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, numbers.Complex):
        return complex(value).real.hex(), complex(value).imag.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name))
                for f in dataclasses.fields(value)]
    return value


@pytest.mark.parametrize("target,param,minimum,good,call", COUNTS, ids=_IDS)
def test_numpy_integer_counts_match_ints(target, param, minimum, good, call):
    want = _bits(call(good, LIVE))
    for kind in (np.int64, np.int32):
        assert _bits(call(kind(good), LIVE)) == want


def _count_parameters():
    """(target, parameter) of every public function, class and public
    method of a public class whose parameter is named like a count."""
    modules = (jacobi, contfrac, composite, models, scatter, special)
    found = set()
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr in module.__all__:
            obj = getattr(module, attr)
            # an enum's call looks a member up; it takes no count
            if isinstance(obj, enum.EnumMeta) or not callable(obj):
                continue
            targets = [(attr, obj)]
            if inspect.isclass(obj):  # the methods the class defines
                targets += [(f"{attr}.{name}", getattr(obj, name))
                            for name in vars(obj) if not name.startswith("_")
                            and inspect.isroutine(getattr(obj, name))]
            for target, fn in targets:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                found |= {(f"{short}.{target}", p) for p in params
                          if p in _COUNT_NAMES}
    return found


def test_every_count_parameter_is_in_the_table():
    found = _count_parameters()
    assert len(found) > 40  # the scan finds the parameters at all
    tabled = {(target, param) for target, param, *_ in COUNTS}
    assert found - tabled - NOT_COUNTS - INDICES == set()
    assert (tabled | NOT_COUNTS | INDICES) - found == set()  # nothing stale
