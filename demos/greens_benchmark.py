"""
Closed-form benchmark
=====================

The convergence studies need a problem whose exact optimal control is
known.  On the disc, the adjoint of a single-point tracking problem is a
multiple of the Green's function ln(R/r)/(2 pi), so choosing the state
cos(k r) with k = pi/(2R), zero on the rim, and target 0 makes everything
explicit (on the default disc, R = 1/2 and k = pi): the optimal control is
the clamped, scaled Green's function, its active set is the disc where
the adjoint exceeds -lower * alpha, and the matching source term follows
from the Laplacian.  This script evaluates the formulas and then verifies
them against a finite element solve.
"""

import numpy as np

from ptcontrol import (
    ExactSolution,
    FeFunction,
    build_disc_mesh,
    centroid_project,
    evaluate,
    factorize,
    load_cellwise,
    load_smooth,
)

exact = ExactSolution(lower=-0.2, upper=0.2)
print(exact)

# The adjoint is radial.  At r = R/2 it equals ln(2)/(2 pi); at the
# boundary it vanishes.
for r in (0.25, 0.4, 0.5):
    print(f"adjoint at r={r}: {exact.greens_radial(r):.10f}")

# The control saturates at the lower bound inside the active radius and
# relaxes smoothly to zero at the rim.
r_star = exact.active_radius()
print(f"\nactive radius: {r_star:.10f}")
for r in (0.05, r_star, 0.3, 0.5):
    print(f"control at r={r:.4f}: {exact.control_radial(r):+.10f}")

# Self-check: solve the state equation with the exact control inserted on
# a fine mesh; the discrete state must reproduce the exact state value 1
# at the tracking point up to discretization error.
mesh = build_disc_mesh(level=5)
rhs = load_smooth(mesh, exact.source) + load_cellwise(
    mesh, centroid_project(mesh, exact.control).values
)
state = FeFunction.from_dofs(mesh, factorize(mesh).solve(rhs))
value = evaluate(state, (0.5, 0.5))
print(f"\nstate at the tracking point, level 5: {value:.6f} (exact 1)")
print(f"defect {abs(value - 1.0):.2e}")
