"""Quadratically regularized optimal transport on finite discrete marginals.

Computes the optimal coupling density and dual potentials by semismooth
Newton steps on the dual, with exact cyclic coordinate sweeps as fallback,
cross-checks them against an independent projection solver, decomposes the
optimal support into components, describes the full polytope of potential
shifts, and runs vanishing-regularization sparsity experiments.
"""

from .model import (
    Instance,
    Potentials,
    SolveReport,
    ValidationError,
    density_from_potentials,
    dual_objective,
    duality_gap,
    marginal_residuals,
    max_residual,
    primal_objective,
    shift_potentials,
    validate_instance,
    with_epsilon,
)
from .polytope import (
    PolytopeDescription,
    PotentialConsistencyError,
    apply_shifts,
    compute_polytope,
    mirror_pairing,
    sample_shifts,
    symmetric_shift_interval,
    verify_potentials,
)
from .projection import DykstraState, ProjectionError, project, project_point
from .solver import SolverConfig, solve, solve_symmetric, sweep
from .sparsity import (
    ContinuousSpec,
    Grid1D,
    SweepResult,
    block_cost_spec,
    epsilon_sweep,
    monotone_coupling_1d,
    northwest_corner,
    refinement_study,
    sweep_to_csv,
    zero_cost_closed_form,
)
from .support import (
    ComponentDecomposition,
    SupportSet,
    components,
    partition_check,
    support_set,
)

__version__ = "0.1.0"
