"""Beta-weighted two-step Newton iteration and experiment harness.

The update rule inserts a weighted second correction into each Newton step,
reusing the derivative from the step's starting point.  A weight of zero
recovers the classical method; a weight of one gives cubic local convergence;
an adaptive schedule picks the weight from the derivative drift each step.
The package adds complex-plane basin sweeps with entropy measurement,
empirical convergence-order estimation, a contraction analysis for the
cube-root singularity, and a dense multivariate variant applied to
Kuramoto-style phase locking.
"""

from .core import (
    ANNEALING,
    FIXED,
    BetaSchedule,
    IterationConfig,
    IterationOutcome,
    ScalarProblem,
    Status,
    UnknownProblem,
    get_problem,
    iterate,
    list_problems,
)
from .convergence import (
    CubeRootWindow,
    OrderEstimate,
    cube_root_problem,
    cube_root_window,
    estimate_order,
    order_probe,
)
from .basin import (
    BasinMap,
    GridSpec,
    IncompatibleCovering,
    RootCatalog,
    basin_entropy,
    basin_map_to_json,
    default_palette,
    entropy_beta_sweep,
    render_ppm,
    sweep,
)
from .report import (
    TableRow,
    build_table1,
    build_table2,
    relative_times,
    to_csv,
    to_json,
    to_markdown,
)
from .multivariate import (
    KuramotoSystem,
    MalformedSystem,
    SyncSolution,
    VectorProblem,
    build_kuramoto_problem,
    kuramoto_from_json,
    kuramoto_to_json,
    omega_from_phases,
    random_kuramoto,
    rotor_velocities,
    solve_sync,
    sync_solution_to_json,
    vector_extended_step,
)

__version__ = "0.1.0"

__all__ = [
    "ANNEALING",
    "FIXED",
    "BasinMap",
    "BetaSchedule",
    "CubeRootWindow",
    "GridSpec",
    "IncompatibleCovering",
    "IterationConfig",
    "IterationOutcome",
    "KuramotoSystem",
    "MalformedSystem",
    "OrderEstimate",
    "RootCatalog",
    "ScalarProblem",
    "Status",
    "SyncSolution",
    "TableRow",
    "UnknownProblem",
    "VectorProblem",
    "basin_entropy",
    "basin_map_to_json",
    "build_kuramoto_problem",
    "build_table1",
    "build_table2",
    "cube_root_problem",
    "cube_root_window",
    "default_palette",
    "entropy_beta_sweep",
    "estimate_order",
    "get_problem",
    "iterate",
    "kuramoto_from_json",
    "kuramoto_to_json",
    "list_problems",
    "omega_from_phases",
    "order_probe",
    "random_kuramoto",
    "relative_times",
    "render_ppm",
    "rotor_velocities",
    "solve_sync",
    "sweep",
    "sync_solution_to_json",
    "to_csv",
    "to_json",
    "to_markdown",
    "vector_extended_step",
]
