"""
Solving the discrete control problem
====================================

The discrete optimality system collapses to one equation per tracking
point: the adjoint is a combination of precomputed point-load solutions,
which also give the state at the tracking points as dot products with the
load, so a residual evaluation needs no sparse solve.  This script solves
the benchmark on a moderate mesh with both control discretizations,
inspects the iteration, and shows what post-processing buys.
"""

import numpy as np

from ptcontrol import (
    CELLWISE,
    VARIATIONAL,
    ExactSolution,
    benchmark_problem,
    build_disc_mesh,
    l2_error_control,
    post_process,
    solve_discrete,
)

exact = ExactSolution(lower=-0.2, upper=0.2)
problem = benchmark_problem(exact)
mesh = build_disc_mesh(level=4)
print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_cells} cells")

# Cellwise constant control: the classic first-order discretization.
cellwise = solve_discrete(problem, mesh, CELLWISE)
print(f"\ncellwise: {cellwise.iterations} iterations, "
      f"residual {cellwise.residual:.2e}")
print(f"coefficient: {cellwise.coefficients[0]:.8f} (exact limit 1)")
print("objective along accepted steps:",
      ", ".join(f"{j:.10f}" for j in cellwise.objective_history))

# The returned control satisfies the projection formula cellwise: each
# value is the clamped negative cell mean of the adjoint over alpha.
values = cellwise.control.values
means = cellwise.adjoint.values[mesh.cells].mean(axis=1)
gap = np.max(np.abs(values - np.clip(-means / problem.alpha, -0.2, 0.2)))
print(f"projection-formula gap: {gap:.2e}")
saturated = np.mean(values <= -0.2 + 1e-12)
print(f"fraction of cells at the lower bound: {saturated:.3f}")

# Variational control: never stored on a grid, sampled through the
# projection formula, second-order accurate.
variational = solve_discrete(problem, mesh, VARIATIONAL)
print(f"\nvariational: {variational.iterations} iterations, "
      f"residual {variational.residual:.2e}")

# Errors against the closed form, and the post-processing payoff: the
# clamped, scaled adjoint of the cellwise solution is nearly as good as
# the variational control at the price of one cellwise solve.
processed = post_process(cellwise, problem.alpha, -0.2, 0.2)
for name, field in (("cellwise", cellwise.control),
                    ("post-processed", processed),
                    ("variational", variational.control)):
    err = l2_error_control(mesh, exact.control, field)
    print(f"L2 control error, {name:>14}: {err:.6e}")
