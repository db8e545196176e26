"""P1 finite elements for box-constrained control of the Poisson equation
with pointwise state tracking.

The package solves: minimize over controls q with lower <= q <= upper

    (1/2) sum_i (u(x_i) - target_i)^2 + (alpha/2) ||q||_L2^2

subject to -Laplace(u) = f + q with zero Dirichlet boundary values, on a
polygonal approximation of a disc (or the unit square for FE utilities).
Three control discretizations are provided: implicit (the control lives
only through the projection formula applied to the discrete adjoint),
cellwise constant, and the post-processed improvement of the cellwise
solution.  A closed-form benchmark built from the disc Green's function
drives convergence studies; `ptcontrol.cli` runs them from config files.
"""

from .control import (
    CELLWISE,
    VARIATIONAL,
    ControlProblem,
    DiscreteSolution,
    DivergenceError,
    ReducedSystem,
    VariationalControl,
    benchmark_problem,
    post_process,
    solve_discrete,
)
from .error import (
    AT_BOUND,
    CUT,
    FREE,
    ConvergenceRecord,
    classify_cells,
    cut_area_ratio,
    eoc_least_squares,
    estimate_eoc,
    l1_error_fe,
    l2_error_control,
)
from .fem import (
    CellwiseFunction,
    Factorization,
    FactorizationError,
    FeFunction,
    StiffnessMatrix,
    assemble_stiffness,
    centroid_project,
    evaluate,
    factorize,
    l2_norm,
    l2_project_cells,
    load_cellwise,
    load_clipped_linear,
    load_point,
    load_smooth,
)
from .greens import ExactSolution
from .mesh import (
    CapacityError,
    DiscDomain,
    Mesh,
    MeshError,
    PointNotFoundError,
    audit_mesh,
    build_disc_mesh,
    build_square_mesh,
    format_mesh,
    locate_point,
    refine_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "AT_BOUND",
    "CELLWISE",
    "CUT",
    "CapacityError",
    "CellwiseFunction",
    "ControlProblem",
    "ConvergenceRecord",
    "DiscDomain",
    "DiscreteSolution",
    "DivergenceError",
    "ExactSolution",
    "FREE",
    "Factorization",
    "FactorizationError",
    "FeFunction",
    "Mesh",
    "MeshError",
    "PointNotFoundError",
    "ReducedSystem",
    "StiffnessMatrix",
    "VARIATIONAL",
    "VariationalControl",
    "assemble_stiffness",
    "audit_mesh",
    "benchmark_problem",
    "build_disc_mesh",
    "build_square_mesh",
    "centroid_project",
    "classify_cells",
    "cut_area_ratio",
    "eoc_least_squares",
    "estimate_eoc",
    "evaluate",
    "factorize",
    "format_mesh",
    "l1_error_fe",
    "l2_error_control",
    "l2_norm",
    "l2_project_cells",
    "load_cellwise",
    "load_clipped_linear",
    "load_point",
    "load_smooth",
    "locate_point",
    "post_process",
    "refine_uniform",
    "solve_discrete",
    "__version__",
]
