"""Green's matrices of Jacobi Hamiltonians by continued fractions.

``import jgreens`` loads numpy and the standard library only.
``scipy.special`` loads at the first alpha-alpha potential, Coulomb
phase or free-overlap evaluation, and ``scipy.optimize`` at the first
:func:`jgreens.models.gencoulomb_h_of_r`.
"""

from .errors import (
    JGreensError,
    DivisionByZero,
    NumericBreakdown,
    NotConverged,
    DegenerateTransform,
    NoMinimalSolution,
    ZeroOffdiagonal,
    SingularRatio,
    SingularMatrix,
    InvalidU,
    NoConvergence,
    HypergeometricNoConverge,
    CoulombWaveFailure,
    QuadratureSuspect,
    GridTooCoarse,
    GeometryError,
    NodeFailure,
)
from .contfrac import (
    TailOrigin,
    TailValue,
    ZERO_TAIL,
    CfResult,
    ContinuedFraction,
    Recurrence,
    eval_backward,
    eval_forward,
    forward_approximants,
    fixed_points,
    bauer_muir,
    repeated_bauer_muir,
    pincherle_ratio,
)
from .jacobi import (
    SheetSelector,
    JacobiOperator,
    GreenMatrix,
    cf_coefficients,
    tail_ratio,
    corrected_truncation,
    dense_truncation,
    green_submatrix,
    truncated_inverse,
)
from .models import (
    CoulombModel,
    OscillatorModel,
    GenCoulombModel,
    KleinGordon,
    DiracUpper,
    DiracLower,
    RelCoulombModel,
    wavenumber,
    coulomb_jacobi,
    oscillator_jacobi,
    gencoulomb_jacobi,
    relativistic_jacobi,
    coulomb_g00_analytic,
    exact_levels,
    rel_energy_from_binding,
    rel_binding_from_energy,
    gencoulomb_h_of_r,
    gencoulomb_potential,
    charge_density,
    det_pole_scan,
)
from .scatter import (
    ShortRangePotential,
    SmoothingScheme,
    ScatterProblem,
    PhaseShiftPoint,
    sigma_factor,
    potential_matrix,
    alpha_alpha_potential,
    det_equation,
    find_bound_states,
    find_resonances,
    free_overlap,
    scatter_solve,
    phase_shift,
    total_green,
)
from .composite import (
    Contour,
    MerkurievSplit,
    build_contour,
    encircle_points,
    contour_projection,
    contour_matrix,
    convolve_greens,
    merkuriev_zeta,
    split_potential,
)

__version__ = "0.1.0"
