"""
Dense cross-checks
==================

On coarse meshes the cellwise problem is small enough to re-solve by
brute force: treat every cell value as an unknown, build the dense
response matrix of the state operator, and run a projected gradient
method to machine stationarity.  Agreement with the reduced Newton
iteration certifies the whole pipeline (loads, factorization, adjoint
combination, projection) in one comparison.  Without bounds the problem
is linear, so one dense saddle-point solve gives a second, sharper check.
"""

import numpy as np

from ptcontrol import (
    CELLWISE,
    ExactSolution,
    benchmark_problem,
    build_disc_mesh,
    factorize,
    load_cellwise,
    load_smooth,
    solve_discrete,
)
from ptcontrol.oracle import cellwise_qp_oracle, unconstrained_kkt

problem = benchmark_problem(ExactSolution(lower=-0.2, upper=0.2))
for level in (0, 1, 2):
    mesh = build_disc_mesh(level=level)
    solution = solve_discrete(problem, mesh, CELLWISE)
    reference = cellwise_qp_oracle(problem, mesh)
    diff = np.max(np.abs(solution.control.values - reference))
    print(f"level {level} ({mesh.n_cells:>3} cells): "
          f"max difference vs dense QP {diff:.3e}")

# The unconstrained comparison solves the full first-order system as one
# dense linear solve: no projection, no iteration, no reduced trick.
free = benchmark_problem(
    ExactSolution(lower=-np.inf, upper=np.inf)
)
mesh = build_disc_mesh(level=2)
solution = solve_discrete(free, mesh, CELLWISE)
q_ref, u_ref, _ = unconstrained_kkt(free, mesh)
# the solution holds no state field; one stiffness solve of the source and
# control loads gives it
state = factorize(mesh).solve(
    load_smooth(mesh, free.source) + load_cellwise(mesh, solution.control)
)
print(f"\nunconstrained, level 2: "
      f"control gap {np.max(np.abs(solution.control.values - q_ref)):.3e}, "
      f"state gap {np.max(np.abs(state - u_ref)):.3e}")
