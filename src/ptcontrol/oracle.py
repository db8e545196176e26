"""Dense cross-check solvers for small meshes.

Independent of the reduced coefficient iteration and of the multigrid
solve: the cellwise control problem is re-solved as a dense box-constrained
quadratic program over all cell values (projected gradient), and the
unconstrained problem as one dense saddle-point system; both solve with the
dense stiffness matrix.  Everything here is O(dense) and meant for coarse
levels only.
"""

import numpy as np

from . import fem
from .mesh import locate_point

__all__ = [
    "OracleError",
    "projected_gradient_qp",
    "cellwise_qp_oracle",
    "unconstrained_kkt",
]

STATIONARITY_TOL = 1e-12
MAX_PG_ITERATIONS = 200_000


class OracleError(Exception):
    """Raised when a cross-check solver fails to reach stationarity."""


def _evaluation_matrix(mesh, points):
    """Dense (N, n_interior) matrix evaluating interior dof vectors."""
    dof = mesh.dof_map()
    out = np.zeros((len(points), len(mesh.interior_vertices())))
    for row, x in enumerate(points):
        k, lam = locate_point(mesh, x)
        for vertex, weight in zip(mesh.cells[k], lam):
            if dof[vertex] >= 0:
                out[row, dof[vertex]] = weight
    return out


def _cell_load_matrix(mesh):
    """Dense (n_interior, n_cells) matrix of unit-cell-indicator loads."""
    dof = mesh.dof_map()
    areas = mesh.cell_areas()
    out = np.zeros((len(mesh.interior_vertices()), mesh.n_cells))
    for k in range(mesh.n_cells):
        for vertex in mesh.cells[k]:
            if dof[vertex] >= 0:
                out[dof[vertex], k] += areas[k] / 3.0
    return out


def projected_gradient_qp(footprint, offsets, areas, alpha, lower, upper,
                          tol=STATIONARITY_TOL, max_iter=MAX_PG_ITERATIONS):
    """Solve the dense cellwise quadratic program by projected gradient.

    Minimizes (1/2)||G q + offsets||^2 + (alpha/2) sum_K q_K^2 |K| over the
    box [lower, upper]^{n_cells}, with fixed step 1/L for the gradient
    Lipschitz bound L = ||G||_2^2 + alpha max|K|, starting from q = 0.
    Stationarity is measured by the unit-step projection residual
    max|q - clamp(q - grad)|.

    Returns
    -------
    (n_cells,) array

    Raises
    ------
    OracleError
        If the residual is still above tol after max_iter iterations.
    """
    G = np.asarray(footprint, dtype=float)
    d = np.asarray(offsets, dtype=float)
    areas = np.asarray(areas, dtype=float)
    lip = np.linalg.norm(G, 2) ** 2 + alpha * areas.max()
    q = np.zeros(G.shape[1])
    for _ in range(max_iter):
        grad = G.T @ (G @ q + d) + alpha * areas * q
        if np.max(np.abs(q - np.clip(q - grad, lower, upper))) <= tol:
            return q
        q = np.clip(q - grad / lip, lower, upper)
    raise OracleError(
        f"projected gradient not stationary to {tol:g} "
        f"after {max_iter} iterations"
    )


def cellwise_qp_oracle(problem, mesh, tol=STATIONARITY_TOL):
    """Dense re-solve of the cellwise control problem on a coarse mesh.

    The states of the source load and of every unit-cell-indicator load
    come from one dense solve with the stiffness matrix; evaluated at the
    tracking points, they give the offsets and the footprint (entry (i, k)
    the state of cell k's load at points[i]) of the quadratic program.

    Returns the optimal cell values, for comparison with the cellwise
    values produced by the reduced iteration.
    """
    stiffness = fem.assemble_stiffness(mesh).toarray()
    loads = np.column_stack(
        [fem.load_smooth(mesh, problem.source), _cell_load_matrix(mesh)]
    )
    response = _evaluation_matrix(mesh, problem.points) @ np.linalg.solve(
        stiffness, loads
    )
    return projected_gradient_qp(
        response[:, 1:],
        response[:, 0] - problem.targets,
        mesh.cell_areas(),
        problem.alpha,
        problem.lower,
        problem.upper,
        tol=tol,
    )


def unconstrained_kkt(problem, mesh):
    """Dense saddle-point solve of the bound-free cellwise problem.

    Assembles the full first-order system over (state dofs, cell values,
    multiplier dofs) and solves it in one dense linear solve; no
    projection, no iteration.

    Returns
    -------
    q : (n_cells,) array
    u : (n_interior,) array
    z : (n_interior,) array
        Multiplier; equals minus the adjoint state of the reduced
        formulation.
    """
    stiffness = fem.assemble_stiffness(mesh).toarray()
    B = _cell_load_matrix(mesh)
    E = _evaluation_matrix(mesh, problem.points)
    areas = mesh.cell_areas()
    b_source = fem.load_smooth(mesh, problem.source)

    n_u = stiffness.shape[0]
    n_q = mesh.n_cells
    n = 2 * n_u + n_q
    system = np.zeros((n, n))
    rhs = np.zeros(n)
    sl_u = slice(0, n_u)
    sl_q = slice(n_u, n_u + n_q)
    sl_z = slice(n_u + n_q, n)
    system[sl_u, sl_u] = E.T @ E
    system[sl_u, sl_z] = stiffness.T
    system[sl_q, sl_q] = np.diag(problem.alpha * areas)
    system[sl_q, sl_z] = -B.T
    system[sl_z, sl_u] = stiffness
    system[sl_z, sl_q] = -B
    rhs[sl_u] = E.T @ problem.targets
    rhs[sl_z] = b_source
    solution = np.linalg.solve(system, rhs)
    return solution[sl_q], solution[sl_u], solution[sl_z]
