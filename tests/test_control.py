import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.fixture(scope="module")
def wide_problem():
    return benchmark_problem(ExactSolution(lower=-1.0, upper=1.0))


@pytest.fixture(scope="module")
def narrow_problem():
    return benchmark_problem(ExactSolution(lower=-0.2, upper=0.2))


@pytest.fixture(scope="module")
def narrow_exact():
    return ExactSolution(lower=-0.2, upper=0.2)


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


def test_newton_fallbacks_reach_the_fixed_point():
    # tiny alpha and far-off targets: full Newton steps overshoot, so the
    # step is halved five times and the iteration falls back to a Picard
    # step before it converges
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
    assert solution.residual <= tol
    residual = fresh_residual(solution.coefficients, problem, mesh, VARIATIONAL)
    assert np.max(np.abs(residual)) <= tol


def test_singular_jacobian_falls_back_to_picard(narrow_problem, monkeypatch):
    # with every Newton direction refused, the damped Picard iteration
    # alone must still reach the Newton fixed point
    mesh = build_disc_mesh(level=1)
    newton = solve_discrete(narrow_problem, mesh, VARIATIONAL)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", singular)
        picard = solve_discrete(narrow_problem, mesh, VARIATIONAL)
    assert picard.iterations > newton.iterations
    assert picard.residual <= 1e-12
    gap = np.max(np.abs(picard.coefficients - newton.coefficients))
    assert gap <= 1e-11
    residual = fresh_residual(picard.coefficients, narrow_problem, mesh, VARIATIONAL)
    assert np.max(np.abs(residual)) <= 1e-12


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
