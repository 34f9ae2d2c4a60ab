"""Fractional Hamiltonian systems with a degenerate potential well.

Spectral whole-line fractional operators on truncated periodic grids, the
weighted energy functional of the sub-quadratic problem, a monotone-descent
minimizer for its nontrivial negative-energy critical points, and a
weight-sweep harness exhibiting the concentration of minimizers onto the
interval where the potential matrix vanishes.
"""

__version__ = "0.1.0"

from .energy import (
    Problem,
    WitnessError,
    default_problem,
    directional_derivative,
    evaluate_energy,
    gradient,
    lower_bound,
    lower_bound_minimum,
    negative_energy_witness,
    smooth_bump,
)
from .fracops import (
    grunwald_weights,
    left_derivative,
    left_integral,
    quadrature_left_derivative,
    right_derivative,
    riesz_composition,
    seminorm_alpha,
)
from .grid import (
    FracOrder,
    SampledSignal,
    l2_norm,
    midpoint_grid,
    pointwise_dot,
    random_band_limited,
    reflect,
    signal_from_function,
)
from .nonlinearity import (
    Nonlinearity,
    power_nonlinearity,
    verify_growth,
    zero_nonlinearity,
)
from .solver import (
    DivergenceError,
    SolveResult,
    SolverConfig,
    SweepReport,
    SweepRow,
    concentration_sweep,
    minimize,
    solve_bvp,
    uniform_bound_constant,
)
from .spaces import (
    AdmissibilityError,
    CheckReport,
    EmbeddingConstants,
    PotentialMatrix,
    ResolutionError,
    compute_embedding_constants,
    continuum_sobolev_constant,
    embedding_bounds,
    grid_sobolev_constant,
    h_alpha_norm,
    lambda_norm,
    measure_sublevel,
    rotated_well_potential,
    sobolev_constant,
    vanishing_well_potential,
    verify_potential,
)

__all__ = [name for name in dir() if not name.startswith("_")]
