import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ptcontrol import fem, oracle
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
from ptcontrol.mesh import build_disc_mesh

from oracles import assemble_mass


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
        F, squares, load = evaluate(system, c)
        return np.full_like(F, np.nan), squares, load

    monkeypatch.setattr(ReducedSystem, "evaluate", poisoned)
    with pytest.raises(DivergenceError, match="non-finite") as info:
        solve_discrete(problem, mesh, CELLWISE)
    assert len(info.value.residual_history) == 1
    assert np.isnan(info.value.residual_history[0])


def test_overflowing_control_raises_divergence():
    # alpha = 1e-300: -z/alpha overflows, which is a divergence of the
    # iteration, not a failure of the state solve
    exact = ExactSolution(lower=-0.2, upper=0.2)
    problem = ControlProblem(np.array([exact.center]), np.array([exact.target()]),
                             1e-300, -0.2, 0.2, exact.source)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="non-finite"):
        solve_discrete(problem, build_disc_mesh(level=2), VARIATIONAL)


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


def test_tolerance_floor(wide_problem):
    with pytest.raises(ValueError):
        solve_discrete(wide_problem, build_disc_mesh(level=1), CELLWISE,
                       tol=1e-14)


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
    # the returned state comes from its own solve; at the tracking points
    # it must reproduce c_i = u_h(x_i) - target_i of the Green's residual
    solution = solve_discrete(narrow_problem, build_disc_mesh(level=3), variant)
    at_points = np.array(
        [fem.evaluate(solution.state, x) for x in narrow_problem.points]
    )
    misfit = at_points - narrow_problem.targets
    assert np.max(np.abs(misfit - solution.coefficients)) <= 1e-11


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
    assert np.max(np.abs(solution.state.interior() - u_ref)) <= 1e-10


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
        c * g.values for c, g in zip(solution.coefficients, system.point_fields)
    )
    assert np.max(np.abs(solution.adjoint.values - combo)) <= 1e-12


def test_divergence_error_carries_history(wide_problem):
    mesh = build_disc_mesh(level=1)
    with pytest.raises(DivergenceError) as info:
        solve_discrete(wide_problem, mesh, CELLWISE, max_iter=0)
    assert len(info.value.residual_history) == 1
    assert info.value.residual_history[0] > 0


def test_newton_fallbacks_reach_the_fixed_point(evaluations):
    # tiny alpha and far-off targets: full Newton steps overshoot the
    # minimum of psi along the step, so the line search bisects to a t < 1
    # at least once (an evaluation beyond the one trial of each step)
    # before the iteration converges
    mesh = build_disc_mesh(level=2)
    problem = ControlProblem(
        np.array([[0.43, 0.69], [0.68, 0.19], [0.37, 0.38], [0.62, 0.78]]),
        np.array([7.7, 3.8, -26.1, 2.5]),
        4e-8,
        -3.0,
        3.5,
        ExactSolution().source,
    )
    tol = 1e-12
    solution = solve_discrete(problem, mesh, VARIATIONAL, tol=tol)
    assert len(evaluations) > solution.iterations + 1
    assert solution.residual <= tol
    residual = fresh_residual(solution.coefficients, problem, mesh, VARIATIONAL)
    assert np.max(np.abs(residual)) <= tol


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
    # a step below the rounding of the iterate cannot lower the residual;
    # the solve stops with its history instead of repeating it
    monkeypatch.setattr(ReducedSystem, "jacobian",
                        lambda system, c: 1e30 * np.eye(len(c)))
    with pytest.raises(DivergenceError, match="stalled") as info:
        solve_discrete(narrow_problem, build_disc_mesh(level=1), VARIATIONAL)
    assert len(info.value.residual_history) == 1


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
        values = -(c @ system._adjoint_cell_means) / p.alpha
        return np.stack([values > p.lower, values < p.upper])
    _, v, _, lo, hi = fem._classify_cells(
        system.mesh, system.adjoint_of(c), p.lower, p.upper, p.alpha
    )
    return np.concatenate([lo > v, v > hi])


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
    jacobian = system.jacobian(c)
    pattern = kink_pattern(system, c)
    h = 1e-7
    for j, step in enumerate(h * np.eye(n_points)):
        assume(np.array_equal(kink_pattern(system, c + step), pattern))
        assume(np.array_equal(kink_pattern(system, c - step), pattern))
        column = (system.evaluate(c + step)[0] - system.evaluate(c - step)[0]) / (2 * h)
        assert np.max(np.abs(column - jacobian[:, j])) <= 1e-6 * np.max(np.abs(jacobian))


@pytest.mark.parametrize("bounds", [(-np.inf, np.inf), (-1e3, 1e3)])
def test_jacobian_with_every_cell_free_is_the_mass_gram(bounds):
    # no cell meets a bound: J = I + G M G^T / alpha with M the assembled
    # P1 mass matrix and G the nodal point fields
    exact = ExactSolution()
    problem = ControlProblem(JACOBIAN_POINTS[:3], np.array([0.3, -0.1, 0.2]), 1e-2,
                             bounds[0], bounds[1], exact.source)
    system = ReducedSystem(problem, JACOBIAN_MESH, VARIATIONAL)
    c = np.array([0.02, -0.01, 0.03])
    fields = system._adjoint_nodal
    expected = np.eye(3) + fields @ (assemble_mass(JACOBIAN_MESH) @ fields.T) / 1e-2
    jacobian = system.jacobian(c)
    assert np.max(np.abs(jacobian - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.max(np.abs(jacobian - jacobian.T)) <= 1e-13 * np.max(np.abs(expected))


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
    assert solution.state.values.shape == (mesh.n_vertices,)
    assert np.all(solution.state.values[mesh.boundary] == 0.0)
    assert np.all(solution.adjoint.values[mesh.boundary] == 0.0)
