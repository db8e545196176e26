import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ptcontrol import control, fem, oracle
from ptcontrol.control import (
    CELLWISE,
    VARIATIONAL,
    ControlProblem,
    DivergenceError,
    ReducedSystem,
    benchmark_problem,
    post_process,
    solve_discrete,
)
from ptcontrol.greens import ExactSolution
from ptcontrol.mesh import PointNotFoundError, build_disc_mesh, build_square_mesh, locate_point

from oracles import (
    assemble_mass,
    bisect_root,
    discrete_state,
    interior_load,
    polygon_clipped_integrals,
    recut_integrals_and_gram,
    table_cellwise_jacobian,
)


@pytest.fixture(scope="module")
def wide_problem():
    return benchmark_problem(ExactSolution(lower=-1.0, upper=1.0))


@pytest.fixture(scope="module")
def narrow_problem():
    return benchmark_problem(ExactSolution(lower=-0.2, upper=0.2))


@pytest.fixture(scope="module")
def narrow_exact():
    return ExactSolution(lower=-0.2, upper=0.2)


@pytest.fixture
def evaluations(monkeypatch):
    """The arguments of every residual evaluation, in order."""
    log = []
    evaluate = ReducedSystem.evaluate

    def logged(system, c):
        log.append(c)
        return evaluate(system, c)

    monkeypatch.setattr(ReducedSystem, "evaluate", logged)
    return log


def fresh_residual(c, problem, mesh, variant):
    """F(c) = c - (u_h(c)(x_i) - target_i), rebuilt without ReducedSystem.

    Fresh stiffness and factorization, point-load solutions, the induced
    control load (cell-mean projection then clamp, or the clipped implicit
    field), one state solve, and point evaluation by barycentric lookup.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    matrix = fem.assemble_stiffness(mesh)
    fact = fem.factorize(matrix)
    fields = [
        matrix.field(fact.solve(fem.load_point(mesh, x))) for x in problem.points
    ]
    z = c @ np.stack([g.values for g in fields])
    if variant == CELLWISE:
        means = fem.l2_project_cells(mesh, fem.FeFunction(mesh, z)).values
        load = fem.load_cellwise(
            mesh, np.clip(-means / problem.alpha, problem.lower, problem.upper)
        )
    else:
        load = fem.load_clipped_linear(
            mesh, z, problem.lower, problem.upper, problem.alpha
        )
    u = matrix.field(fact.solve(fem.load_smooth(mesh, problem.source) + load))
    at_points = np.array([fem.evaluate(u, x) for x in problem.points])
    return c - (at_points - problem.targets)


def test_problem_validation():
    source = lambda p: np.zeros(len(p))
    with pytest.raises(ValueError):
        ControlProblem(np.array([[0.5, 0.5], [0.5, 0.5]]), np.zeros(2), 1.0,
                       -1.0, 1.0, source)
    with pytest.raises(ValueError):
        ControlProblem(np.array([[0.5, 0.5]]), np.zeros(2), 1.0, -1.0, 1.0,
                       source)
    with pytest.raises(ValueError):
        ControlProblem(np.array([[0.5, 0.5]]), np.zeros(1), 0.0, -1.0, 1.0,
                       source)
    with pytest.raises(ValueError):
        ControlProblem(np.array([[0.5, 0.5]]), np.zeros(1), 1.0, 1.0, -1.0,
                       source)


@pytest.mark.parametrize("point, target, alpha", [
    ([np.nan, 0.5], 0.0, 1.0),
    ([0.5, np.inf], 0.0, 1.0),
    ([0.5, 0.5], np.nan, 1.0),
    ([0.5, 0.5], np.inf, 1.0),
    ([0.5, 0.5], -np.inf, 1.0),
    ([0.5, 0.5], 0.0, np.inf),
    ([0.5, 0.5], 0.0, np.nan),
])
def test_non_finite_problem_data_rejected(point, target, alpha):
    source = lambda p: np.zeros(len(p))
    with pytest.raises(ValueError, match="finite|alpha"):
        ControlProblem(np.array([point]), np.array([target]), alpha, -1.0, 1.0, source)


def test_non_finite_residual_raises_divergence(monkeypatch):
    # a nan residual is not "not above tol": the solve stops at once with
    # its history instead of reading it as converged
    mesh = build_disc_mesh(level=1)
    problem = benchmark_problem(ExactSolution())
    evaluate = ReducedSystem.evaluate

    def poisoned(system, c):
        F, squares, free = evaluate(system, c)
        return np.full_like(F, np.nan), squares, free

    monkeypatch.setattr(ReducedSystem, "evaluate", poisoned)
    with pytest.raises(DivergenceError, match="non-finite") as info:
        solve_discrete(problem, mesh, CELLWISE)
    assert len(info.value.residual_history) == 1
    assert np.isnan(info.value.residual_history[0])


def test_overflowing_control_raises_divergence():
    # alpha = 1e-320: -z/alpha overflows, which is a divergence of the
    # iteration, not a failure of the state solve, and raises no
    # floating-point warning on the way.  At alpha = 1e-300, -z/alpha stays
    # below 6e299 and the problem is solved (test_tiny_alpha_benchmark...)
    exact = ExactSolution(lower=-0.2, upper=0.2)
    problem = ControlProblem(np.array([exact.center]), np.array([exact.target()]),
                             1e-320, -0.2, 0.2, exact.source)
    with pytest.raises(DivergenceError, match="non-finite"):
        solve_discrete(problem, build_disc_mesh(level=2), VARIATIONAL)


@pytest.mark.parametrize("alpha", [1e-12, 1e-30, 1e-300])
def test_tiny_alpha_benchmark_converges(alpha):
    # crossed cells are integrated on fans whose values stay within the
    # bounds, so the load keeps its accuracy however small alpha is: the
    # level-2 benchmark converges to the fixed point of the polygon-clip
    # loads, where the ramp identity's loads were off by 3e-8 (1e-12) and
    # 2e10 (1e-30) and stalled the line search
    exact = ExactSolution(lower=-0.2, upper=0.2)
    problem = ControlProblem(np.array([exact.center]), np.array([exact.target()]),
                             alpha, -0.2, 0.2, exact.source)
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(problem, mesh, VARIATIONAL)
    assert solution.residual <= 1e-12
    system = ReducedSystem(problem, mesh, VARIATIONAL)
    cell_loads, _ = polygon_clipped_integrals(mesh, solution.adjoint, -0.2, 0.2, alpha)
    load = interior_load(mesh, cell_loads)
    residual = solution.coefficients - (system.initial_guess() + system._green @ load)
    assert np.max(np.abs(residual)) <= 1e-12


@pytest.mark.parametrize("points", [
    [[0.5, 0.5], [0.3, 0.4], [0.5, 0.5]],
    [[0.3, 0.4], [0.0, 0.5], [0.6, 0.5], [-0.0, 0.5]],
    [[0.5, -0.0], [0.5, 0.0]],
])
def test_duplicate_tracking_points_rejected(points):
    # -0.0 and 0.0 are one coordinate
    source = lambda p: np.zeros(len(p))
    with pytest.raises(ValueError, match="mutually distinct"):
        ControlProblem(np.array(points), np.zeros(len(points)), 1.0, -1.0, 1.0, source)


def test_boundary_tracking_point_rejected():
    mesh = build_disc_mesh(level=1)
    problem = ControlProblem(
        np.array([[1.0, 0.5]]), np.zeros(1), 1.0, -1.0, 1.0,
        lambda p: np.zeros(len(p)),
    )
    with pytest.raises(ValueError):
        ReducedSystem(problem, mesh, CELLWISE)


def test_infinite_tolerance_is_rejected(narrow_problem):
    # the solver sets its own threshold: an infinite tol, which would accept
    # the initial guess, is no argument, and neither is any other
    with pytest.raises(TypeError, match="tol"):
        solve_discrete(narrow_problem, build_disc_mesh(level=1), VARIATIONAL,
                       tol=float("inf"))


def test_converged_residual_is_fixed_point(wide_problem):
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(wide_problem, mesh, CELLWISE)
    assert solution.residual <= 1e-12
    residual = fresh_residual(solution.coefficients, wide_problem, mesh, CELLWISE)
    assert np.max(np.abs(residual)) <= 1e-12


LEVEL1_MESH = build_disc_mesh(level=1)
TRACKING_SETS = (
    (np.array([[0.5, 0.5]]), np.array([0.0])),
    (np.array([[0.42, 0.5], [0.6, 0.57]]), np.array([0.3, -0.1])),
)
BOUNDS = st.tuples(
    st.one_of(st.just(-np.inf), st.floats(-1.5, 0.5)),
    st.one_of(st.just(np.inf), st.floats(-0.5, 1.5)),
).filter(lambda b: b[0] < b[1])


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from([CELLWISE, VARIATIONAL]),
    tracking=st.sampled_from(range(len(TRACKING_SETS))),
    bounds=BOUNDS,
    c=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
)
def test_standalone_residual_matches_cached_path(variant, tracking, bounds, c):
    # the cached ReducedSystem path against a from-scratch recomputation,
    # over random coefficients and bounds (infinite ones included)
    points, targets = TRACKING_SETS[tracking]
    exact = ExactSolution()
    problem = ControlProblem(points, targets, 1.0, bounds[0], bounds[1],
                             exact.source)
    c = np.array(c[: len(points)])
    system = ReducedSystem(problem, LEVEL1_MESH, variant)
    fresh = fresh_residual(c, problem, LEVEL1_MESH, variant)
    assert np.max(np.abs(fresh - system.evaluate(c)[0])) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from([CELLWISE, VARIATIONAL]),
    tracking=st.sampled_from(range(len(TRACKING_SETS))),
    bounds=BOUNDS,
)
def test_objective_history_matches_fresh_control_norm(variant, tracking, bounds):
    # the objective sums the squares of the residual evaluation; it must
    # equal, bit for bit, a second exact integration of the control at every
    # accepted iterate (clipped_field_l2_sq, or the cell sum)
    points, targets = TRACKING_SETS[tracking]
    problem = ControlProblem(points, targets, 1.0, bounds[0], bounds[1],
                             ExactSolution().source)
    areas = LEVEL1_MESH.cell_areas()
    fresh = []

    def recording_objective(system, c, F, squares):
        if variant == CELLWISE:
            reg = float(np.sum(system.control_of(c).values ** 2 * areas))
        else:
            reg = fem.clipped_field_l2_sq(LEVEL1_MESH, system.adjoint_of(c),
                                          problem.lower, problem.upper, problem.alpha)
        misfit = c - F
        fresh.append(0.5 * float(misfit @ misfit) + 0.5 * problem.alpha * reg)
        return objective(system, c, F, squares)

    objective = ReducedSystem.objective
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReducedSystem, "objective", recording_objective)
        solution = solve_discrete(problem, LEVEL1_MESH, variant)
    assert len(fresh) == solution.iterations + 1
    assert solution.objective_history == fresh


def test_large_alpha_limit_matches_source_state():
    exact = ExactSolution(alpha=1.0)
    problem = ControlProblem(
        points=np.array([exact.center]),
        targets=np.array([exact.target()]),
        alpha=1e8,
        lower=-np.inf,
        upper=np.inf,
        source=exact.source,
    )
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(problem, mesh, VARIATIONAL)
    system = ReducedSystem(problem, mesh, VARIATIONAL)
    # huge regularization kills the control, so the solution coefficient
    # is the q = 0 value
    assert solution.coefficients == pytest.approx(system.initial_guess(),
                                                  abs=1e-6)
    assert np.all(np.isfinite(solution.objective_history))


@pytest.mark.parametrize("variant", [CELLWISE, VARIATIONAL])
def test_state_at_points_matches_coefficients(variant, narrow_problem):
    # the state comes from its own solve; at the tracking points it must
    # reproduce c_i = u_h(x_i) - target_i of the Green's residual
    mesh = build_disc_mesh(level=3)
    solution = solve_discrete(narrow_problem, mesh, variant)
    state = discrete_state(narrow_problem, mesh, solution, variant)
    at_points = np.array([fem.evaluate(state, x) for x in narrow_problem.points])
    misfit = at_points - narrow_problem.targets
    assert np.max(np.abs(misfit - solution.coefficients)) <= 1e-11


@pytest.mark.parametrize("variant", [CELLWISE, VARIATIONAL])
@pytest.mark.parametrize("n_points", [1, 2])
def test_solve_makes_one_stiffness_solve_per_point(variant, n_points, monkeypatch):
    # the residual reads the point-load solutions and needs no solve, and
    # the solution holds no state field: the N solves that build G are all
    exact = ExactSolution(lower=-0.2, upper=0.2)
    points = np.array([exact.center, [0.6, 0.57]])[:n_points]
    problem = ControlProblem(points, np.array([exact.target(), -0.1])[:n_points],
                             1e-2, -0.2, 0.2, exact.source)
    calls = []
    solve = fem.Factorization.solve

    def counted(self, b):
        calls.append(b)
        return solve(self, b)

    monkeypatch.setattr(fem.Factorization, "solve", counted)
    solution = solve_discrete(problem, build_disc_mesh(level=3), variant)
    assert solution.iterations >= 1
    assert len(calls) == problem.n_points


def test_residual_finite_difference_slope(wide_problem):
    mesh = build_disc_mesh(level=2)
    system = ReducedSystem(wide_problem, mesh, CELLWISE)
    solution = solve_discrete(wide_problem, mesh, CELLWISE)
    c = solution.coefficients
    base = system.evaluate(c)[0]
    slopes = []
    for delta in (1e-4, 5e-5):
        slopes.append((system.evaluate(c + delta)[0] - base) / delta)
    assert np.max(np.abs(slopes[0] - slopes[1])) <= 1e-4


@pytest.mark.parametrize("level", [1, 2, 3])
def test_cellwise_matches_dense_qp_oracle(level, wide_problem):
    mesh = build_disc_mesh(level=level)
    solution = solve_discrete(wide_problem, mesh, CELLWISE)
    reference = oracle.cellwise_qp_oracle(wide_problem, mesh)
    values = solution.control.values
    assert np.max(np.abs(values - reference)) <= 1e-8


def test_pinned_control_by_extreme_targets():
    # a hugely negative target forces a positive coefficient, hence an
    # adjoint pushing the control to its lower bound everywhere
    zero = lambda p: np.zeros(len(p))
    mesh = build_disc_mesh(level=1)
    for target, bound in ((-1e6, -1.0), (1e6, 1.0)):
        problem = ControlProblem(
            np.array([[0.5, 0.5]]), np.array([target]), 1.0, -1.0, 1.0, zero
        )
        solution = solve_discrete(problem, mesh, CELLWISE)
        assert np.max(np.abs(solution.control.values - bound)) == 0.0


@pytest.mark.parametrize("n_points", [1, 2])
def test_unconstrained_matches_dense_kkt(n_points):
    exact = ExactSolution()
    if n_points == 1:
        points = np.array([exact.center])
        targets = np.array([exact.target()])
    else:
        points = np.array([[0.42, 0.5], [0.6, 0.57]])
        targets = np.array([0.3, -0.1])
    problem = ControlProblem(points, targets, 1.0, -np.inf, np.inf,
                             exact.source)
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(problem, mesh, CELLWISE)
    q_ref, u_ref, _ = oracle.unconstrained_kkt(problem, mesh)
    assert np.max(np.abs(solution.control.values - q_ref)) <= 1e-10
    state = discrete_state(problem, mesh, solution, CELLWISE)
    assert np.max(np.abs(state.interior() - u_ref)) <= 1e-10


def test_cellwise_control_eight_fold_symmetric(narrow_problem):
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(narrow_problem, mesh, CELLWISE)
    values = solution.control.values
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    angle = np.pi / 4
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    rotated = (centroids - [0.5, 0.5]) @ rot.T + [0.5, 0.5]
    index = {tuple(np.round(c, 10)): k for k, c in enumerate(centroids)}
    for k, c in enumerate(rotated):
        partner = index[tuple(np.round(c, 10))]
        assert values[k] == pytest.approx(values[partner], abs=1e-9)


@pytest.mark.parametrize("variant", [CELLWISE, VARIATIONAL])
def test_objective_history_non_increasing(narrow_problem, variant):
    for level in (2, 4):
        solution = solve_discrete(
            narrow_problem, build_disc_mesh(level=level), variant
        )
        history = solution.objective_history
        assert all(b <= a + 1e-14 for a, b in zip(history, history[1:]))


def test_fixed_point_projection_consistency(narrow_problem):
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(narrow_problem, mesh, CELLWISE)
    z_means = solution.adjoint.values[mesh.cells].mean(axis=1)
    recomputed = np.clip(-z_means / narrow_problem.alpha, -0.2, 0.2)
    assert np.max(np.abs(solution.control.values - recomputed)) <= 1e-12


def test_adjoint_is_point_field_combination(narrow_problem):
    mesh = build_disc_mesh(level=2)
    system = ReducedSystem(narrow_problem, mesh, CELLWISE)
    solution = solve_discrete(narrow_problem, mesh, CELLWISE)
    combo = sum(
        c * system.matrix.field(g).values
        for c, g in zip(solution.coefficients, system._green)
    )
    assert np.max(np.abs(solution.adjoint.values - combo)) <= 1e-12


def test_variational_solution_builds_its_adjoint_once(narrow_problem):
    # the control holds the adjoint that the solution hands out, not a
    # second N x n_dofs product of the same coefficients
    solution = solve_discrete(narrow_problem, build_disc_mesh(level=2), VARIATIONAL)
    assert solution.control.adjoint is solution.adjoint


def test_divergence_error_carries_history(wide_problem, monkeypatch):
    monkeypatch.setattr(control, "MAX_NEWTON_ITERATIONS", 0)
    mesh = build_disc_mesh(level=1)
    with pytest.raises(DivergenceError, match="no convergence after 0 iterations") as info:
        solve_discrete(wide_problem, mesh, CELLWISE)
    assert len(info.value.residual_history) == 1
    assert info.value.residual_history[0] > 0


# small alpha and far-off targets: full Newton steps overshoot the minimum
# of psi along the step, so the line search bisects (for alpha from 2.6e-6
# to 2.9e-6 alike)
BISECTING_PROBLEM = ControlProblem(
    np.array([[0.63, 0.58], [0.53, 0.63], [0.34, 0.22], [0.44, 0.47]]),
    np.array([-25.4, 27.8, -23.2, 2.2]),
    2.8e-6,
    -2.7,
    1.1,
    ExactSolution().source,
)


def test_newton_fallbacks_reach_the_fixed_point(evaluations):
    # the line search bisects to a t < 1 at least once (an evaluation
    # beyond the one trial of each step) before the iteration converges
    mesh = build_disc_mesh(level=2)
    problem = BISECTING_PROBLEM
    solution = solve_discrete(problem, mesh, VARIATIONAL)
    assert len(evaluations) > solution.iterations + 1
    assert solution.residual <= 1e-12
    residual = fresh_residual(solution.coefficients, problem, mesh, VARIATIONAL)
    assert np.max(np.abs(residual)) <= 1e-12


@pytest.mark.parametrize("variant, points, targets, alpha, bounds", [
    (CELLWISE, [[0.795, 0.413], [0.203, 0.712]], [-1.217, 0.69], 1e-5,
     (-np.inf, 1.04)),
    (VARIATIONAL, [[0.467, 0.136], [0.571, 0.222], [0.758, 0.793]],
     [0.848, 5.919, 3.5], 4e-6, (-0.44, np.inf)),
])
def test_undershooting_full_steps_are_taken(variant, points, targets, alpha, bounds):
    # small alpha and one infinite bound: some full steps stop short of the
    # minimum along them (phi'(1) < 0, yet not half of phi'(0)); they are
    # taken, where a bracket of [0, 1] would have nothing to bisect
    problem = ControlProblem(np.array(points), np.array(targets), alpha, *bounds,
                             ExactSolution().source)
    mesh = build_disc_mesh(level=3)
    solution = solve_discrete(problem, mesh, variant)
    assert solution.residual <= 1e-12
    residual = fresh_residual(solution.coefficients, problem, mesh, variant)
    assert np.max(np.abs(residual)) <= 1e-12


def test_line_search_stall_raises_divergence(narrow_problem, monkeypatch):
    # with -J, an ordinary Jacobian negated, the step climbs psi: the slope
    # is positive at every t, the bisection shrinks the step below the
    # rounding of the iterate, and the Newton step, far above working
    # precision, is named with its bound in the error
    jacobian = ReducedSystem.jacobian
    monkeypatch.setattr(ReducedSystem, "jacobian",
                        lambda system, free: -jacobian(system, free))
    with pytest.raises(DivergenceError, match=r"stalled .* Newton step \S+ above") as info:
        solve_discrete(narrow_problem, build_disc_mesh(level=1), VARIATIONAL)
    assert len(info.value.residual_history) == 1
    assert info.value.residual_history[0] > control.RESIDUAL_TOL


def test_line_search_stall_below_rounding_is_accepted(narrow_problem, monkeypatch):
    # the rule trusts J: with J = 1e30 I the first Newton step is far below
    # the rounding of c, so the line search cannot move c and the solve
    # ends there, converged to working precision by that step
    monkeypatch.setattr(ReducedSystem, "jacobian",
                        lambda system, free: 1e30 * np.eye(system.problem.n_points))
    mesh = build_disc_mesh(level=1)
    solution = solve_discrete(narrow_problem, mesh, VARIATIONAL)
    assert solution.iterations == 1
    assert solution.residual > control.RESIDUAL_TOL
    assert np.array_equal(solution.coefficients,
                          ReducedSystem(narrow_problem, mesh, VARIATIONAL).initial_guess())


@pytest.mark.parametrize("multiple, accepted", [(2.0, True), (8.0, False)])
def test_iteration_cap_accepts_only_a_last_step_at_working_precision(
        narrow_problem, monkeypatch, multiple, accepted):
    # J = s I, with s such that every Newton step is about `multiple` eps
    # max|c|: each step moves c by a few ulps, and the residual never falls
    # to RESIDUAL_TOL, so the cap ends the solve.  A last step within
    # STEP_EPS eps max|c| is accepted there, and one above it raises
    mesh = build_disc_mesh(level=1)
    system = ReducedSystem(narrow_problem, mesh, VARIATIONAL)
    c = system.initial_guess()
    scale = np.max(np.abs(system.evaluate(c)[0])) / (
        multiple * np.finfo(float).eps * np.max(np.abs(c)))
    monkeypatch.setattr(control, "MAX_NEWTON_ITERATIONS", 3)
    monkeypatch.setattr(ReducedSystem, "jacobian",
                        lambda system, free: scale * np.eye(system.problem.n_points))
    if accepted:
        solution = solve_discrete(narrow_problem, mesh, VARIATIONAL)
        assert solution.iterations == 3
        assert solution.residual > control.RESIDUAL_TOL
        assert not np.array_equal(solution.coefficients, c)
    else:
        with pytest.raises(DivergenceError, match=r"no convergence after 3 iterations "
                           r"\(residual \S+, Newton step \S+ above \S+\)") as info:
            solve_discrete(narrow_problem, mesh, VARIATIONAL)
        assert len(info.value.residual_history) == 4


@pytest.mark.parametrize("variant", [CELLWISE, VARIATIONAL])
@pytest.mark.parametrize("alpha", [1e-8, 1e-10, 1e-12])
def test_one_point_solve_sits_at_the_sign_change_of_F(variant, alpha):
    # one infinite bound and a small alpha: the level-2 benchmark stalls at
    # its rounding floor with max|F| far above RESIDUAL_TOL (all six did on
    # a 2-core Xeon).  With one point F is increasing, as J >= 1, so a
    # bisection on the sign of the float64 F finds its root: an accepted
    # stall lies within a few ulps of it, a solve that met RESIDUAL_TOL
    # within its residual
    problem = benchmark_problem(ExactSolution(alpha=alpha, lower=-np.inf, upper=0.2))
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(problem, mesh, variant)
    system = ReducedSystem(problem, mesh, variant)

    def F(x):
        return system.evaluate(np.array([x]))[0][0]

    c = solution.coefficients[0]
    ulp = np.spacing(abs(c))
    width = 2.0 * solution.residual + 64 * ulp
    assert F(c - width) < 0.0 < F(c + width)
    root = bisect_root(F, c - width, c + width)
    slack = 8 * ulp if solution.residual > control.RESIDUAL_TOL else solution.residual + 8 * ulp
    assert abs(root - c) <= slack


STOP_RULE_MESHES = {level: build_disc_mesh(level=level) for level in (2, 3)}


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from([CELLWISE, VARIATIONAL]),
    level=st.sampled_from([2, 3]),
    points=st.lists(st.tuples(st.floats(0.35, 0.65), st.floats(0.35, 0.65)),
                    min_size=1, max_size=4, unique=True),
    targets=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    log_alpha=st.floats(-12.0, -1.0),
    lower=st.one_of(st.just(-np.inf), st.floats(-1.0, 0.0)),
    upper=st.one_of(st.just(np.inf), st.floats(0.0, 1.0)),
)
# stalls of the cellwise variant at the rounding floor on a 2-core Xeon: at
# the iteration cap, in the line search, and one whose last step, 5.3 eps
# max|c|, is above the bound; then a variational stall
@example(variant=CELLWISE, level=2, points=[(0.49, 0.45), (0.64, 0.37), (0.64, 0.61)],
         targets=[0.6, -0.7, 0.3, 0.0], log_alpha=-12.0, lower=-np.inf, upper=0.2)
@example(variant=CELLWISE, level=2, points=[(0.45, 0.37), (0.5, 0.65)],
         targets=[0.6, 1.0, 0.0, 0.0], log_alpha=-12.0, lower=-0.5, upper=0.2)
@example(variant=CELLWISE, level=2,
         points=[(0.6, 0.39), (0.56, 0.41), (0.56, 0.51), (0.39, 0.48)],
         targets=[0.3, 0.4, 0.6, 0.4], log_alpha=-12.0, lower=-np.inf, upper=0.4)
@example(variant=VARIATIONAL, level=2, points=[(0.51, 0.54), (0.47, 0.61), (0.46, 0.46)],
         targets=[0.6, 0.6, 0.9, 0.0], log_alpha=-12.0, lower=-np.inf, upper=0.5)
def test_every_solve_converges_by_a_rule_or_raises_above_the_step_bound(
        variant, level, points, targets, log_alpha, lower, upper):
    # the distribution of stalled solves: 1-4 points within 0.15 of the
    # disc centre, targets in [-1, 1], alpha from 1e-12 to 0.1, either bound
    # infinite or not.  Every solve meets RESIDUAL_TOL, or ends with a last
    # Newton step of at most STEP_EPS eps max|c|, or raises naming a larger
    # one; the steps are read from the solves of J d = -F
    assume(lower < upper)
    problem = ControlProblem(np.array(points), np.array(targets[:len(points)]),
                             10.0**log_alpha, lower, upper, ExactSolution().source)
    steps = []
    solve = np.linalg.solve

    def logged(matrix, rhs):
        step = solve(matrix, rhs)
        steps.append(float(np.max(np.abs(step))))
        return step

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", logged)
        try:
            solution = solve_discrete(problem, STOP_RULE_MESHES[level], variant)
        except DivergenceError as exc:
            step, bound = re.search(r"Newton step (\S+) above (\S+)\)$", str(exc)).groups()
            assert step == f"{steps[-1]:.3e}" and float(step) > float(bound)
            return
    if solution.residual > control.RESIDUAL_TOL:
        c = solution.coefficients
        assert steps[-1] <= control.STEP_EPS * np.finfo(float).eps * np.max(np.abs(c))


def test_full_steps_are_taken_on_the_benchmark(narrow_problem, evaluations):
    # near a solution the Newton step is nearly exact: every step is t = 1,
    # one evaluation per iteration besides the initial guess
    for variant in (CELLWISE, VARIATIONAL):
        evaluations.clear()
        solution = solve_discrete(narrow_problem, build_disc_mesh(level=4), variant)
        assert len(evaluations) == solution.iterations + 1


JACOBIAN_MESH = build_disc_mesh(level=2)
JACOBIAN_POINTS = np.array([[0.42, 0.5], [0.6, 0.57], [0.5, 0.33], [0.31, 0.64]])


def kink_pattern(system, c):
    """Where the control meets its bounds: fixed between two kinks of F."""
    p = system.problem
    if system.variant == CELLWISE:
        values = -fem.l2_project_cells(system.mesh, system.adjoint_of(c)).values / p.alpha
        return np.stack([values > p.lower, values < p.upper])
    _, v = fem._classify_cells(system.mesh, system.adjoint_of(c), p.lower, p.upper, p.alpha)
    return np.concatenate([v < p.lower, v > p.upper])


@settings(max_examples=100, deadline=None)
@given(
    variant=st.sampled_from([CELLWISE, VARIATIONAL]),
    n_points=st.integers(1, 4),
    bounds=st.tuples(
        st.one_of(st.just(-np.inf), st.floats(-0.5, 0.1)),
        st.one_of(st.just(np.inf), st.floats(-0.1, 0.5)),
    ).filter(lambda b: b[0] < b[1]),
    c=st.lists(st.floats(-0.05, 0.05), min_size=4, max_size=4),
)
def test_jacobian_matches_central_differences(variant, n_points, bounds, c):
    # away from kinks F is smooth, and central differences of evaluate
    # reach the analytic J to O(h^2); a crossed cell taken whole or left
    # out is off by 1e-3 and more
    problem = ControlProblem(JACOBIAN_POINTS[:n_points], np.zeros(n_points), 1e-2,
                             bounds[0], bounds[1], ExactSolution().source)
    system = ReducedSystem(problem, JACOBIAN_MESH, variant)
    c = np.array(c[:n_points])
    jacobian = system.jacobian(system.evaluate(c)[2])
    pattern = kink_pattern(system, c)
    h = 1e-7
    for j, step in enumerate(h * np.eye(n_points)):
        assume(np.array_equal(kink_pattern(system, c + step), pattern))
        assume(np.array_equal(kink_pattern(system, c - step), pattern))
        column = (system.evaluate(c + step)[0] - system.evaluate(c - step)[0]) / (2 * h)
        assert np.max(np.abs(column - jacobian[:, j])) <= 1e-6 * np.max(np.abs(jacobian))


TABLE_MESHES = [build(level=level) for build in (build_disc_mesh, build_square_mesh)
                for level in range(5)]


@settings(max_examples=100, deadline=None)
@given(
    mesh_index=st.integers(0, len(TABLE_MESHES) - 1),
    polar=st.lists(st.tuples(st.floats(0.0, 0.4), st.floats(0.0, 2 * np.pi)),
                   min_size=1, max_size=4),
    log_alpha=st.floats(-6.0, 0.0),
    bounds=st.tuples(
        st.one_of(st.just(-np.inf), st.floats(-0.5, 0.1)),
        st.one_of(st.just(np.inf), st.floats(-0.1, 0.5)),
    ).filter(lambda b: b[0] < b[1]),
    c=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
)
def test_cellwise_jacobian_matches_the_table_gram(mesh_index, polar, log_alpha, bounds, c):
    # the cellwise Jacobian by the shared Gram routine against a table of
    # every point field's cell means, on disc and square meshes from one
    # cell per dof to thousands; points within 0.4 of the centre lie
    # inside either domain at every level, and c scales with alpha so
    # that the control meets its bounds on some cells and not on others
    mesh = TABLE_MESHES[mesh_index]
    points = 0.5 + np.array([[r * np.cos(t), r * np.sin(t)] for r, t in polar])
    assume(len(np.unique(points, axis=0)) == len(points))
    n, alpha = len(points), 10.0**log_alpha
    problem = ControlProblem(points, np.zeros(n), alpha, *bounds, ExactSolution().source)
    system = ReducedSystem(problem, mesh, CELLWISE)
    c = 10.0 * alpha * np.array(c[:n])
    values, want = table_cellwise_jacobian(mesh, system._green, c, alpha, *bounds)
    # a value within rounding of a bound may fall on either side of it
    for bound in filter(np.isfinite, bounds):
        assume(np.all(np.abs(values - bound) > 1e-12 * max(1.0, np.max(np.abs(values)))))
    free = system.evaluate(c)[2]
    assert np.array_equal(free[1], np.flatnonzero((values > bounds[0]) & (values < bounds[1])))
    jacobian = system.jacobian(free)
    assert np.max(np.abs(jacobian - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=100, deadline=None)
@given(
    mesh_index=st.integers(0, len(TABLE_MESHES) - 1),
    seed=st.integers(0, 2**32 - 1),
    bounds=st.tuples(
        st.one_of(st.just(-np.inf), st.floats(-0.5, 0.1)),
        st.one_of(st.just(np.inf), st.floats(-0.1, 0.5)),
    ).filter(lambda b: b[0] < b[1]),
    n_fields=st.integers(1, 4),
)
def test_cellwise_free_set_labels_each_cell_by_its_value(mesh_index, seed, bounds, n_fields):
    # clamped cell values, many of them on a finite bound, and infinite
    # ones (an overflowing quotient) on an infinite bound: each cell is
    # free strictly inside the bounds and at a bound on or past it.  The
    # listed rank-one elements overwrite the free cells' P1 loads, so the
    # Gram keeps the bits it had with every cell labelled crossed
    mesh = TABLE_MESHES[mesh_index]
    lower, upper = bounds
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, mesh.n_cells)
    values[rng.random(mesh.n_cells) < 0.1] = -np.inf
    values[rng.random(mesh.n_cells) < 0.1] = np.inf
    values = np.clip(values, lower, upper)
    labels, listed, mass = fem._cellwise_free_set(mesh, values, lower, upper)
    expected = [fem._AT_LOWER if v <= lower else fem._AT_UPPER if v >= upper else fem._FREE
                for v in values.tolist()]
    assert labels.tolist() == expected
    assert np.array_equal(listed, np.flatnonzero(labels == fem._FREE))
    fields = rng.standard_normal((n_fields, len(mesh.interior_vertices())))
    crossed = np.full(mesh.n_cells, fem._CROSSED, np.int8)
    gram = fem._free_mass_gram(mesh, (labels, listed, mass), fields)
    assert np.array_equal(gram.view(np.int64),
                          fem._free_mass_gram(mesh, (crossed, listed, mass), fields).view(np.int64))


@pytest.mark.parametrize("bounds", [(-np.inf, np.inf), (-1e3, 1e3)])
def test_jacobian_with_every_cell_free_is_the_mass_gram(bounds):
    # no cell meets a bound: J = I + G M G^T / alpha with M the assembled
    # P1 mass matrix and G the nodal point fields
    exact = ExactSolution()
    problem = ControlProblem(JACOBIAN_POINTS[:3], np.array([0.3, -0.1, 0.2]), 1e-2,
                             bounds[0], bounds[1], exact.source)
    system = ReducedSystem(problem, JACOBIAN_MESH, VARIATIONAL)
    c = np.array([0.02, -0.01, 0.03])
    fields = np.stack([system.matrix.field(g).values for g in system._green])
    expected = np.eye(3) + fields @ (assemble_mass(JACOBIAN_MESH) @ fields.T) / 1e-2
    jacobian = system.jacobian(system.evaluate(c)[2])
    assert np.max(np.abs(jacobian - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.max(np.abs(jacobian - jacobian.T)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("problem, level", [
    (benchmark_problem(ExactSolution(lower=-0.2, upper=0.2)), 4),
    (BISECTING_PROBLEM, 2),
], ids=["benchmark", "bisecting"])
def test_variational_solve_classifies_once_per_evaluation(
        problem, level, evaluations, monkeypatch):
    # the Jacobian reads the classes of the accepted evaluation: one
    # classification per residual, through full steps and bisections alike
    calls = []
    classify = fem._classify_cells

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(fem, "_classify_cells", counted)
    solution = solve_discrete(problem, build_disc_mesh(level=level), VARIATIONAL)
    assert solution.iterations >= 1
    assert len(calls) == len(evaluations)


@pytest.mark.parametrize("problem, level", [
    (benchmark_problem(ExactSolution(lower=-0.2, upper=0.2)), 4),
    (BISECTING_PROBLEM, 2),
], ids=["benchmark", "bisecting"])
def test_variational_solve_cuts_once_per_evaluation_and_never_for_the_jacobian(
        problem, level, monkeypatch):
    # the cut that integrates the load also gives the free-fan masses that
    # the Jacobian reads: one cut per residual, also of no crossed cell,
    # and none in a Jacobian
    cuts, log = [], []
    cut = fem._cut_cells

    def counted(*args):
        cuts.append(len(args[0]))
        return cut(*args)

    def logged(name):
        method = getattr(ReducedSystem, name)

        def run(system, arg):
            before = len(cuts)
            result = method(system, arg)
            log.append((name, len(cuts) - before))
            return result

        monkeypatch.setattr(ReducedSystem, name, run)

    monkeypatch.setattr(fem, "_cut_cells", counted)
    logged("evaluate")
    logged("jacobian")
    solution = solve_discrete(problem, build_disc_mesh(level=level), VARIATIONAL)
    assert solution.iterations >= 1 and max(cuts) > 0
    assert log.count(("jacobian", 0)) == solution.iterations
    assert set(log) == {("evaluate", 1), ("jacobian", 0)}


RECUT_MESH = build_disc_mesh(level=3)
RECUT_POINTS = np.array([[0.42, 0.5], [0.6, 0.57], [0.5, 0.33], [0.31, 0.64],
                         [0.7, 0.38], [0.55, 0.75], [0.27, 0.42], [0.5, 0.5]])


@settings(max_examples=40, deadline=None)
@given(
    n_points=st.integers(1, 8),
    bounds=st.sampled_from([(-0.1, 0.2), (-np.inf, 0.2), (-0.1, np.inf),
                            (-np.inf, np.inf), (0.05, 0.3)]),
    alpha=st.sampled_from([1e-3, 1e-2, 0.1]),
    c=st.lists(st.floats(-0.05, 0.05), min_size=8, max_size=8),
)
def test_residual_and_jacobian_keep_the_bits_of_the_recut_path(n_points, bounds, alpha, c):
    # F, the squares and J from the evaluation's one cut against the path
    # that cut every crossed cell again for the Jacobian, bit for bit
    problem = ControlProblem(RECUT_POINTS[:n_points], np.zeros(n_points), alpha,
                             *bounds, ExactSolution().source)
    system = ReducedSystem(problem, RECUT_MESH, VARIATIONAL)
    c = np.array(c[:n_points])
    F, squares, free = system.evaluate(c)
    loads, want_squares, gram = recut_integrals_and_gram(
        RECUT_MESH, system.adjoint_of(c), *bounds, alpha, system._green)
    want_F = c - (system._source_misfit + np.einsum(
        "ij,j->i", system._green, fem._scatter_cell_loads(RECUT_MESH, loads)))
    want_J = np.eye(n_points) + gram / alpha
    for got, want in ((F, want_F), (squares, want_squares),
                      (system.jacobian(free), want_J)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from([CELLWISE, VARIATIONAL]),
    n_points=st.integers(1, 4),
    c=st.lists(st.floats(-0.05, 0.05), min_size=4, max_size=4),
)
def test_jacobian_of_the_evaluated_free_set_is_the_fresh_one(variant, n_points, c):
    # the free set that evaluate returns is the one a fresh classification
    # of the same adjoint finds, so J is the same to the bit
    problem = ControlProblem(JACOBIAN_POINTS[:n_points], np.zeros(n_points), 1e-2,
                             -0.1, 0.2, ExactSolution().source)
    system = ReducedSystem(problem, JACOBIAN_MESH, variant)
    c = np.array(c[:n_points])
    if variant == CELLWISE:
        values = np.clip(-fem.l2_project_cells(JACOBIAN_MESH, system.adjoint_of(c)).values
                         / problem.alpha, problem.lower, problem.upper)
        fresh = fem._cellwise_free_set(JACOBIAN_MESH, values, problem.lower, problem.upper)
    else:
        fresh = fem._clipped_integrals(JACOBIAN_MESH, system.adjoint_of(c),
                                       problem.lower, problem.upper, problem.alpha)[2]
    jacobian = system.jacobian(system.evaluate(c)[2])
    assert np.array_equal(jacobian, system.jacobian(fresh))


def test_reduced_system_setup_peak_memory():
    # the stiffness CSR is built without COO triplets, and the source load
    # runs before the multigrid hierarchy exists.  On a fresh level-6 disc
    # mesh the variational setup peaked at 295 bytes per cell on one CPU
    # and up to 341 when drain's helper samples a load slice beside the
    # caller (433 and up to 515 with the triplets and the load after the
    # hierarchy); the bound leaves 17 % over the highest
    problem = benchmark_problem(ExactSolution(lower=-0.2, upper=0.2))
    mesh = build_disc_mesh(level=6)
    tracemalloc.start()
    try:
        ReducedSystem(problem, mesh, VARIATIONAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * mesh.n_cells


def test_cellwise_setup_holds_no_cell_table():
    # the cellwise setup keeps no (N, n_c) table of the point fields' cell
    # means: an evaluation projects the one adjoint, and the Jacobian reads
    # the point fields themselves.  On a fresh level-5 disc mesh with
    # N = 16 the cellwise setup peaked at 354.5 bytes per cell, on one CPU
    # and on two (424.5 with the table); the bound leaves 8 % over it
    ring = np.pi / 8 * np.arange(16)
    points = 0.5 + 0.3 * np.stack([np.cos(ring), np.sin(ring)], axis=1)
    problem = ControlProblem(points, np.full(16, 0.1), 1e-3, -0.2, 0.2,
                             ExactSolution().source)
    mesh = build_disc_mesh(level=5)
    tracemalloc.start()
    try:
        ReducedSystem(problem, mesh, CELLWISE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 385 * mesh.n_cells


@pytest.mark.parametrize("variant", [VARIATIONAL, CELLWISE])
def test_reduced_system_stores_the_point_fields_once(variant):
    # either system keeps G, the interior dofs of the point fields, as its
    # one point-sized array; the nodal fields are built on demand
    problem = ControlProblem(JACOBIAN_POINTS, np.zeros(4), 1e-2, -0.1, 0.2,
                             ExactSolution().source)
    system = ReducedSystem(problem, JACOBIAN_MESH, variant)
    arrays = {name for name, value in vars(system).items()
              if isinstance(value, np.ndarray) and value.ndim == 2}
    assert arrays == {"_green"}
    assert system._green.shape == (4, len(JACOBIAN_MESH.interior_vertices()))
    for e, g in zip(np.eye(4), system._green):
        assert np.array_equal(system.adjoint_of(e).values, system.matrix.field(g).values)


@pytest.mark.parametrize("level", [1, 2])
def test_multipoint_cellwise_matches_dense_qp_oracle(level):
    # three points with targets of both signs: cells at either bound and
    # free cells on both levels.  The oracle's value error is about its
    # stationarity tolerance over alpha |K|, so it runs to 1e-14
    problem = ControlProblem(JACOBIAN_POINTS[:3], np.array([0.05, -0.05, 0.03]),
                             1e-2, -0.2, 0.25, lambda p: np.zeros(len(p)))
    mesh = build_disc_mesh(level=level)
    solution = solve_discrete(problem, mesh, CELLWISE)
    values = solution.control.values
    assert np.any(values == -0.2) and np.any(values == 0.25)
    assert np.any((values > -0.2) & (values < 0.25))
    reference = oracle.cellwise_qp_oracle(problem, mesh, tol=1e-14)
    assert np.max(np.abs(values - reference)) <= 1e-8


def test_variational_gradient_vanishes_where_free(narrow_exact, narrow_problem):
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(narrow_problem, mesh, VARIATIONAL)
    rng = np.random.default_rng(14)
    t = 2 * np.pi * rng.random(50)
    r = 0.48 * np.sqrt(rng.random(50))
    points = np.column_stack([0.5 + r * np.cos(t), 0.5 + r * np.sin(t)])
    q = np.array([solution.control(x) for x in points])
    free = (q > -0.2 + 1e-6) & (q < 0.2 - 1e-6)
    assert free.any()
    # reduced gradient alpha * q + z at the free points
    z = np.array([fem.evaluate(solution.adjoint, x) for x in points[free]])
    gradient = narrow_problem.alpha * q[free] + z
    assert np.max(np.abs(gradient)) <= 1e-10


def test_cellwise_gradient_sign_conditions(narrow_problem):
    mesh = build_disc_mesh(level=3)
    solution = solve_discrete(narrow_problem, mesh, CELLWISE)
    values = solution.control.values
    z_means = solution.adjoint.values[mesh.cells].mean(axis=1)
    cell_gradient = narrow_problem.alpha * values + z_means
    at_lower = values <= -0.2 + 1e-13
    at_upper = values >= 0.2 - 1e-13
    free = ~(at_lower | at_upper)
    assert at_lower.any() and free.any()
    assert np.all(cell_gradient[at_lower] >= -1e-10)
    assert np.all(cell_gradient[at_upper] <= 1e-10)
    assert np.max(np.abs(cell_gradient[free])) <= 1e-10


def test_post_process_basics(narrow_problem):
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(narrow_problem, mesh, CELLWISE)
    assert isinstance(solution.control, fem.CellwiseFunction)
    processed = post_process(solution, 1.0, -0.2, 0.2)
    bary = np.array([[1 / 3, 1 / 3, 1 / 3], [0.6, 0.3, 0.1]])
    samples = processed.sample_cells(bary)
    assert samples.min() >= -0.2
    assert samples.max() <= 0.2
    with pytest.raises(ValueError):
        post_process(
            solve_discrete(narrow_problem, mesh, VARIATIONAL), 1.0, -0.2, 0.2
        )


@pytest.mark.parametrize("alpha, lower, upper, message", [
    (1.0, 0.2, -0.2, "lower < upper"),
    (1.0, 0.2, 0.2, "lower < upper"),
    (1.0, np.nan, 0.2, "lower < upper"),
    (-1.0, -0.2, 0.2, "alpha must be positive"),
    (0.0, -0.2, 0.2, "alpha must be positive"),
    (np.nan, -0.2, 0.2, "alpha must be positive"),
], ids=["reversed", "equal", "nan-bound", "negative-alpha", "zero-alpha", "nan-alpha"])
def test_post_process_rejects_bad_alpha_and_bounds(narrow_problem, alpha, lower, upper,
                                                   message):
    # each once gave a control without a word: reversed bounds or a
    # negative alpha a wrong one, a nan alpha nan errors, a zero alpha a
    # divide-by-zero warning
    mesh = build_disc_mesh(level=3)
    solution = solve_discrete(narrow_problem, mesh, CELLWISE)
    with pytest.raises(ValueError, match=message):
        post_process(solution, alpha, lower, upper)
    with pytest.raises(ValueError, match=message):
        control.VariationalControl(solution.adjoint, alpha, lower, upper)


def test_post_process_zero_adjoint():
    # no tracking error means no adjoint, so the processed control is the
    # projection of zero
    mesh = build_disc_mesh(level=1)
    zero = lambda p: np.zeros(len(p))
    problem = ControlProblem(
        np.array([[0.5, 0.5]]), np.zeros(1), 1.0, -1.0, 1.0, zero
    )
    solution = solve_discrete(problem, mesh, CELLWISE)
    assert np.max(np.abs(solution.coefficients)) <= 1e-12
    processed = post_process(solution, 1.0, -1.0, 1.0)
    bary = np.array([[1 / 3, 1 / 3, 1 / 3]])
    assert np.max(np.abs(processed.sample_cells(bary))) <= 1e-12


def test_post_process_improves_cellwise_error(narrow_exact, narrow_problem):
    from ptcontrol.error import l2_error_control

    mesh = build_disc_mesh(level=3)
    solution = solve_discrete(narrow_problem, mesh, CELLWISE)
    raw = l2_error_control(mesh, narrow_exact.control, solution.control)
    processed = post_process(solution, 1.0, -0.2, 0.2)
    improved = l2_error_control(mesh, narrow_exact.control, processed)
    assert improved < raw


def test_control_representations_stay_in_bounds(narrow_problem):
    mesh = build_disc_mesh(level=2)
    for variant in (CELLWISE, VARIATIONAL):
        solution = solve_discrete(narrow_problem, mesh, variant)
        bary = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]])
        samples = solution.control.sample_cells(bary)
        assert samples.min() >= -0.2
        assert samples.max() <= 0.2
    cells = solve_discrete(narrow_problem, mesh, CELLWISE).control.values
    assert cells.min() >= -0.2 - 1e-14
    assert cells.max() <= 0.2 + 1e-14


def test_solution_metadata(wide_problem):
    mesh = build_disc_mesh(level=2)
    solution = solve_discrete(wide_problem, mesh, CELLWISE)
    assert 1 <= solution.iterations <= 200
    state = discrete_state(wide_problem, mesh, solution, CELLWISE)
    assert state.values.shape == (mesh.n_vertices,)
    assert np.all(state.values[mesh.boundary] == 0.0)
    assert np.all(solution.adjoint.values[mesh.boundary] == 0.0)


def test_point_messages_print_plain_floats():
    # the points print as (2.0, 2.0), not as numpy scalars
    mesh = build_square_mesh(level=2)
    problem = ControlProblem([(2.0, 2.0)], [0.0], 1.0, -1.0, 1.0,
                             lambda p: np.zeros(len(p)))
    cases = [
        (lambda: locate_point(mesh, (2.0, 2.0)), "point (2.0, 2.0) is outside the mesh"),
        (lambda: fem.load_point(mesh, (1.0, 0.0)), "point (1.0, 0.0) is a boundary vertex"),
        (lambda: fem.load_point(mesh, (0.125, 0.0)),
         "point (0.125, 0.0) lies on a boundary edge"),
        (lambda: ReducedSystem(problem, mesh, VARIATIONAL),
         "tracking point (2.0, 2.0) is not usable: point (2.0, 2.0) is outside the mesh"),
    ]
    for call, message in cases:
        with pytest.raises((ValueError, PointNotFoundError)) as info:
            call()
        assert str(info.value) == message
