"""Reduced solver for the discrete tracking control problem.

The problem: minimize over controls q with a <= q <= b

    (1/2) sum_i (u(x_i) - target_i)^2 + (alpha/2) ||q||_L2^2

subject to the state equation -Laplace(u) = f + q with zero boundary
values.  The discrete adjoint is a linear combination of the point-load
solutions g_i (one per tracking point) with coefficients
c_i = u_h(x_i) - target_i, so the whole optimality system collapses to N
equations in c: F(c) = c - (u_h(c)(x_i) - target_i) = 0, where the control
induced by c is the clamped, scaled adjoint (variational discretization) or
its clamped cell-mean (cellwise constant discretization).  The stiffness
matrix K is symmetric and the point load of x_i is the evaluation
functional at x_i, so u_h(x_i) = g_i . b for the state load b (Green's
representation): a residual evaluation assembles the control load and
takes N dot products, with no sparse solve.  ``ReducedSystem.evaluate`` is
the one place F is computed.

F is the gradient of the convex dual function

    psi(c) = (1/2)|c|^2 - c . (u_f(x) - target) + alpha int H(-z_c / alpha),

with u_f the state of the source alone, z_c = sum_i c_i g_i and
H' = clamp(., a, b).  Its generalized Hessian
J = I + (1/alpha) G M_F G^T, with M_F the mass form on the free part of
the control, is symmetric and J >= I.  The fixed point is solved by the
semismooth Newton iteration of the primal-dual active-set method
(Hintermueller, Ito and Kunisch, SIAM J. Optim. 13, 2002) on that exact
Jacobian, ``ReducedSystem.jacobian``, with a line search on the slope
d . F(c + t d) of psi along the step.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import fem
from .fem import CellwiseFunction, FeFunction

__all__ = [
    "VARIATIONAL",
    "CELLWISE",
    "ControlProblem",
    "VariationalControl",
    "DiscreteSolution",
    "DivergenceError",
    "ReducedSystem",
    "solve_discrete",
    "post_process",
    "benchmark_problem",
]

VARIATIONAL = "variational"
CELLWISE = "cellwise"

# a step t is accepted once the slope of psi along it has fallen to this
# fraction of its size at t = 0
SLOPE_REDUCTION = 0.5


class DivergenceError(Exception):
    """Raised when the coefficient iteration fails to converge.

    Attributes
    ----------
    residual_history : list of float
        Sup-norm residuals of all accepted iterates.
    """

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Tracking points, targets, bounds, regularization, and source term.

    Attributes
    ----------
    points : (N, 2) array
        Mutually distinct, strictly interior tracking points.
    targets : (N,) array
        Finite target values.
    alpha : float
        Positive, finite regularization weight.
    lower, upper : float
        Control bounds, lower < upper; either may be infinite.
    source : callable
        Vectorized source field: (m, 2) points -> (m,) values.
    """

    points: np.ndarray
    targets: np.ndarray
    alpha: float
    lower: float
    upper: float
    source: Callable = field(compare=False)

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        targets = np.atleast_1d(np.asarray(self.targets, dtype=float))
        if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
            raise ValueError("points must have shape (N, 2) with N >= 1")
        if targets.shape != (len(points),):
            raise ValueError("targets must have one value per tracking point")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(targets))):
            raise ValueError("points and targets must be finite")
        # + 0.0 turns -0.0 into 0.0, so the two are one point however the
        # rows are compared
        if len(np.unique(points + 0.0, axis=0)) < len(points):
            raise ValueError("tracking points must be mutually distinct")
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not self.lower < self.upper:
            raise ValueError("bounds must satisfy lower < upper")
        points.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "targets", targets)

    @property
    def n_points(self):
        return len(self.points)


def benchmark_problem(exact):
    """Tracking problem of the disc benchmark, bound to an ExactSolution."""
    return ControlProblem(
        points=np.array([exact.center]),
        targets=np.array([exact.target()]),
        alpha=exact.alpha,
        lower=exact.lower,
        upper=exact.upper,
        source=exact.source,
    )


class VariationalControl:
    """Implicit control field clamp(-z/alpha, lower, upper) of an adjoint z.

    The control is never stored on a grid; sampling clips the interpolated
    adjoint, so sampled values lie in [lower, upper] exactly.
    """

    def __init__(self, adjoint, alpha, lower, upper):
        if not isinstance(adjoint, FeFunction):
            raise TypeError("adjoint must be an FeFunction")
        self.adjoint = adjoint
        self.alpha = float(alpha)
        self.lower = float(lower)
        self.upper = float(upper)

    def sample_cells(self, bary, cells=None):
        # -z / alpha, clamped, in place on the fresh sample; z / (-alpha)
        # rounds to the same bits as (-z) / alpha
        values = self.adjoint.sample_cells(bary, cells)
        np.divide(values, -self.alpha, out=values)
        return np.clip(values, self.lower, self.upper, out=values)

    def __call__(self, x):
        return float(
            np.clip(-fem.evaluate(self.adjoint, x) / self.alpha, self.lower, self.upper)
        )


@dataclass
class DiscreteSolution:
    """Converged discrete solution of the reduced fixed point.

    ``control`` is a CellwiseFunction of clamped cell values (cellwise
    variant) or a VariationalControl (variational variant).  ``adjoint``
    equals the coefficient combination of the point-load solutions by
    construction; ``objective_history`` records the discrete objective at
    every accepted iterate (diagnostic).
    """

    control: object
    state: FeFunction
    adjoint: FeFunction
    coefficients: np.ndarray
    iterations: int
    residual: float
    objective_history: list


class ReducedSystem:
    """Precomputed machinery shared by all residual evaluations on one mesh.

    Bundles the problem, the mesh, the stiffness factorization, the source
    load b_f, and the point-load solutions g_i.  With G stacking the
    interior dofs of the g_i, the residual is
    F(c) = c - (G (b_f + b(c)) - target) for the control load b(c), so one
    residual evaluation costs a load assembly and no sparse solve.
    """

    def __init__(self, problem, mesh, variant):
        if variant not in (VARIATIONAL, CELLWISE):
            raise ValueError(f"unknown variant {variant!r}")
        self.problem = problem
        self.mesh = mesh
        self.variant = variant
        self.matrix = fem.assemble_stiffness(mesh)
        self.factorization = fem.factorize(self.matrix)
        self.load_source = fem.load_smooth(mesh, problem.source)

        point_loads = []
        for x in problem.points:
            try:
                point_loads.append(fem.load_point(mesh, x))
            except Exception as exc:
                raise ValueError(f"tracking point {tuple(x)} is not usable: {exc}")
        # discrete point-source solutions, one per tracking point
        self._green = np.stack([self.factorization.solve(b) for b in point_loads])
        self.point_fields = [self.matrix.field(g) for g in self._green]
        self._source_misfit = self._green @ self.load_source - problem.targets
        self._adjoint_nodal = np.stack([g.values for g in self.point_fields])
        if variant == CELLWISE:
            self._adjoint_cell_means = self._adjoint_nodal[:, mesh.cells].mean(axis=2)

    def initial_guess(self):
        """Coefficients of the q = 0 state: u_f(x_i) - target_i."""
        return self._source_misfit.copy()

    def adjoint_of(self, c):
        """Adjoint nodal field sum_i c_i g_i."""
        return FeFunction(self.mesh, np.asarray(c, dtype=float) @ self._adjoint_nodal)

    def _cell_values(self, c):
        """Clamped cell means of the scaled adjoint (cellwise variant)."""
        p = self.problem
        means = np.asarray(c, dtype=float) @ self._adjoint_cell_means
        return np.clip(-means / p.alpha, p.lower, p.upper)

    def control_of(self, c):
        """Control representation induced by coefficients c."""
        p = self.problem
        if self.variant == CELLWISE:
            return CellwiseFunction(self.mesh, self._cell_values(c))
        return VariationalControl(self.adjoint_of(c), p.alpha, p.lower, p.upper)

    def _control_load(self, c):
        """Control load at c and the squared L2 norm of the control on each cell."""
        p = self.problem
        if self.variant == CELLWISE:
            values = self._cell_values(c)
            squares = values**2 * self.mesh.cell_areas()
            return fem.load_cellwise(self.mesh, values), squares
        z = c @ self._adjoint_nodal
        return fem._clipped_load_and_squares(self.mesh, z, p.lower, p.upper, p.alpha)

    def evaluate(self, c):
        """Residual F(c), the control's per-cell squared L2 norms and its load.

        The squares come from the same pass as the load; ``objective`` sums
        them.
        """
        c = np.asarray(c, dtype=float)
        load, squares = self._control_load(c)
        F = c - (self._source_misfit + self._green @ load)
        return F, squares, load

    def jacobian(self, c):
        """Generalized Jacobian of F at c, J = I + (1/alpha) G M_F G^T.

        M_F is the mass form on the free part of the control, where it lies
        strictly within the bounds: the free cells of the cellwise variant,
        J_ij = delta_ij + (1/alpha) sum_K |K| mean_K g_i mean_K g_j, or the
        free set of the variational control, cut from each crossed cell
        exactly (``fem._free_mass_gram``).  J is symmetric and J >= I.
        """
        p = self.problem
        c = np.asarray(c, dtype=float)
        if self.variant == CELLWISE:
            means = self._adjoint_cell_means
            values = -(c @ means) / p.alpha
            free = (values > p.lower) & (values < p.upper)
            weighted = means[:, free] * self.mesh.cell_areas()[free]
            gram = weighted @ means[:, free].T
        else:
            fields = self._adjoint_nodal
            gram = fem._free_mass_gram(
                self.mesh, c @ fields, p.lower, p.upper, p.alpha, fields
            )
        return np.eye(len(c)) + gram / p.alpha

    def state_of_load(self, load):
        """State field for a control load from ``evaluate`` (one sparse solve)."""
        return self.matrix.field(self.factorization.solve(self.load_source + load))

    def objective(self, c, F, squares):
        """Discrete objective at c from the residual evaluation at c.

        The misfit values are u(x_i) - target_i = c_i - F_i; the control
        norm sums the per-cell squares that ``evaluate`` returns, which are
        exact in both variants (cell values times areas, or exact
        clipped-field integration).
        """
        misfit = c - F
        reg = float(np.sum(squares))
        return 0.5 * float(misfit @ misfit) + 0.5 * self.problem.alpha * reg


def solve_discrete(problem, mesh, variant=CELLWISE, tol=1e-12, max_iter=200):
    """Solve the discrete control problem by the reduced coefficient iteration.

    Semismooth Newton on F(c) = 0 from the q = 0 coefficients.  Each step d
    solves J d = -F with the exact generalized Jacobian of
    ``ReducedSystem.jacobian``.  Along it the dual function
    phi(t) = psi(c + t d) is convex, with slope phi'(t) = d . F(c + t d)
    and phi'(0) = -F . J^-1 F < 0.  The step length t starts at 1 and then
    bisects the bracket that the sign of phi' keeps; the first t with
    |phi'(t)| <= SLOPE_REDUCTION |phi'(0)| is taken, and so is t = 1 when
    phi'(1) < 0.

    Parameters
    ----------
    problem : ControlProblem
    mesh : Mesh
    variant : str
        "variational" or "cellwise".
    tol : float
        Convergence threshold on max|F(c)|; at least 1e-13.
    max_iter : int
        Iteration cap.

    Returns
    -------
    DiscreteSolution

    Raises
    ------
    DivergenceError
        If the residual has not reached tol after ``max_iter`` iterations,
        if a residual is not finite, or if the line search can no longer
        move the iterate; carries the residual history.
    """
    if not tol >= 1e-13:
        raise ValueError("tol must be at least 1e-13")
    system = ReducedSystem(problem, mesh, variant)
    c = system.initial_guess()
    F, squares, load = system.evaluate(c)
    res = float(np.max(np.abs(F)))
    residual_history = [res]
    objective_history = [system.objective(c, F, squares)]
    iterations = 0
    while not res <= tol:
        if not np.isfinite(res):
            raise DivergenceError(f"non-finite residual {res}", residual_history)
        if iterations >= max_iter:
            raise DivergenceError(
                f"no convergence after {max_iter} iterations "
                f"(residual {res:.3e})",
                residual_history,
            )
        iterations += 1
        direction = np.linalg.solve(system.jacobian(c), -F)
        target = SLOPE_REDUCTION * abs(direction @ F)
        t, low, high = 1.0, 0.0, 1.0
        previous = c
        while True:
            trial = c + t * direction
            # a step, or a bracket, below the rounding of c moves nothing
            if np.array_equal(trial, previous):
                raise DivergenceError(
                    f"line search stalled at step length {t:.3e} "
                    f"(residual {res:.3e})",
                    residual_history,
                )
            F_t, squares_t, load_t = system.evaluate(trial)
            slope = direction @ F_t
            if abs(slope) <= target or (t == 1.0 and slope < 0.0):
                break
            if not np.isfinite(slope):
                raise DivergenceError(
                    f"non-finite residual at step length {t:.3e}", residual_history
                )
            # the minimum of phi lies below t where the slope is positive
            if slope > 0.0:
                high = t
            else:
                low = t
            previous = trial
            t = 0.5 * (low + high)
        c, F, squares, load = trial, F_t, squares_t, load_t
        res = float(np.max(np.abs(F)))
        residual_history.append(res)
        objective_history.append(system.objective(c, F, squares))
    return DiscreteSolution(
        control=system.control_of(c),
        state=system.state_of_load(load),
        adjoint=system.adjoint_of(c),
        coefficients=c,
        iterations=iterations,
        residual=res,
        objective_history=objective_history,
    )


def post_process(solution, alpha, lower, upper):
    """Clamped, scaled adjoint of a cellwise solution, as an implicit field.

    Structurally a variational control, but built from the cellwise-optimal
    adjoint; recovers second-order accuracy from the first-order cellwise
    control.

    Raises
    ------
    ValueError
        If the solution does not come from the cellwise variant.
    """
    if not isinstance(solution.control, CellwiseFunction):
        raise ValueError("post-processing requires a cellwise solution")
    return VariationalControl(solution.adjoint, alpha, lower, upper)
