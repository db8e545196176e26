from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ptcontrol import _parallel, fem
from ptcontrol.control import (
    CELLWISE,
    VARIATIONAL,
    VariationalControl,
    benchmark_problem,
    solve_discrete,
)
from ptcontrol.error import (
    AT_BOUND,
    CUT,
    FREE,
    classify_cells,
    cut_area_ratio,
    eoc_least_squares,
    estimate_eoc,
    l1_error_fe,
    l2_error_control,
)
from ptcontrol.greens import ExactSolution
from ptcontrol.mesh import _physical_points, build_disc_mesh
from ptcontrol.quadrature import rule_degree4, subdivided_rule

from oracles import exact_cell_tags


@pytest.fixture(scope="module")
def narrow_exact():
    return ExactSolution(lower=-0.2, upper=0.2)


def constant_field(value):
    return lambda p: np.full(len(p), value)


def test_l2_identical_fields_give_zero():
    mesh = build_disc_mesh(level=2)
    assert l2_error_control(mesh, constant_field(0.7), constant_field(0.7)) \
        <= 1e-14
    values = np.linspace(-1, 1, mesh.n_vertices)
    fe = fem.FeFunction(mesh, values)
    assert l2_error_control(mesh, fe, fe) == 0.0


def test_l2_constant_difference_is_polygon_area():
    mesh = build_disc_mesh(level=3)
    value = l2_error_control(mesh, constant_field(1.0), constant_field(0.0))
    assert value == pytest.approx(np.sqrt(mesh.cell_areas().sum()), rel=1e-12)
    assert value == pytest.approx(np.sqrt(np.pi * 0.25), abs=4e-3)


def test_l2_halved_depth_stable(narrow_exact):
    mesh = build_disc_mesh(level=4)
    problem = benchmark_problem(narrow_exact)
    solution = solve_discrete(problem, mesh, VARIATIONAL)
    fine = l2_error_control(mesh, narrow_exact.control, solution.control, depth=2)
    coarse = l2_error_control(mesh, narrow_exact.control, solution.control,
                              depth=1)
    assert abs(fine - coarse) / fine < 1e-3


def test_l2_is_a_metric_on_sampled_fields():
    mesh = build_disc_mesh(level=1)
    rng = np.random.default_rng(17)
    fields = [
        fem.FeFunction(mesh, rng.standard_normal(mesh.n_vertices))
        for _ in range(3)
    ]
    a, b, c = fields
    assert l2_error_control(mesh, a, b) == l2_error_control(mesh, b, a)
    assert l2_error_control(mesh, a, c) <= (
        l2_error_control(mesh, a, b) + l2_error_control(mesh, b, c) + 1e-12
    )
    shifted = fem.FeFunction(mesh, a.values + 1e-3)
    assert l2_error_control(mesh, a, shifted) > 0


@lru_cache(maxsize=None)
def disc_mesh(level):
    return build_disc_mesh(level=level)


def quadratic(c):
    """The polynomial c0 + c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2."""
    return lambda p: (c[0] + c[1] * p[:, 0] + c[2] * p[:, 1] + c[3] * p[:, 0] ** 2
                      + c[4] * p[:, 0] * p[:, 1] + c[5] * p[:, 1] ** 2)


def degree4_cell_sum(mesh, integrand):
    """Sum over cells of |K| times the 6-point degree-4 rule, cell by cell.

    ``integrand(points, bary, ids)`` gets the rule's physical points in one
    cell, shape (6, 2), their barycentric coordinates and the cell's vertex
    indices.
    """
    bary, weights = rule_degree4()
    total = 0.0
    for ids in mesh.cells:
        p0, p1, p2 = mesh.vertices[ids]
        area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0]))
        points = np.array([l0 * p0 + l1 * p1 + l2 * p2 for l0, l1, l2 in bary])
        total += area * float(np.dot(weights, integrand(points, bary, ids)))
    return total


coefficients = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)


@settings(max_examples=40, deadline=None)
@given(level=st.integers(0, 2), ca=coefficients, cb=coefficients)
def test_l2_matches_degree4_cell_sum(level, ca, cb):
    # (a - b)^2 has degree 4, so the 6-point rule integrates it exactly
    assume(max(abs(x - y) for x, y in zip(ca, cb)) > 1e-3)
    mesh = disc_mesh(level)
    a, b = quadratic(ca), quadratic(cb)
    want = degree4_cell_sum(mesh, lambda p, bary, ids: (a(p) - b(p)) ** 2)
    assert l2_error_control(mesh, a, b) ** 2 == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(level=st.integers(0, 2), c=coefficients,
       nodal=st.lists(st.floats(-1.0, 1.0), min_size=81, max_size=81))
def test_l1_singular_matches_degree4_cell_sum(level, c, nodal):
    # exact - fe >= 1 on the unit square, so |exact - fe| is a quadratic and
    # the 6-point rule integrates it exactly; the cells at the center take
    # the extra-depth branch
    mesh = disc_mesh(level)
    values = np.array(nodal[: mesh.n_vertices])
    shift = 2.0 + sum(abs(x) for x in c)
    exact = lambda p: quadratic(c)(p) + shift
    want = degree4_cell_sum(mesh, lambda p, bary, ids: exact(p) - bary @ values[ids])
    got = l1_error_fe(mesh, exact, fem.FeFunction(mesh, values),
                      singular_point=mesh.domain.center)
    assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(level=st.integers(0, 3), c=coefficients, seed=st.integers(0, 2**32 - 1),
       cells_per_chunk=st.integers(1, 24).map(lambda k: 2 * k + 1))
def test_errors_do_not_depend_on_the_chunking(level, c, seed, cells_per_chunk):
    # one cell per chunk, an odd chunk that does not divide the cell counts
    # (multiples of 8), and all cells in one chunk; the singular cells take
    # the depth-6 rule
    mesh = disc_mesh(level)
    fe = fem.FeFunction(mesh, np.random.default_rng(seed).uniform(-1, 1, mesh.n_vertices))
    exact = quadratic(c)
    center = mesh.domain.center
    values = []
    for budget in (1, cells_per_chunk * 192, mesh.n_cells * len(subdivided_rule(6)[1])):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_parallel, "CHUNK_POINTS", budget)
            values.append((l2_error_control(mesh, exact, fe),
                           l1_error_fe(mesh, exact, fe, singular_point=center)))
    for l2, l1 in values[:2]:
        assert l2 == pytest.approx(values[-1][0], rel=1e-13)
        assert l1 == pytest.approx(values[-1][1], rel=1e-13)


@pytest.mark.parametrize("depth", [0, 2, 6])
def test_node_planes_match_matmul_layout(depth):
    # the x and y planes, handed over as an (m, 2) transpose with
    # contiguous columns, hold the nodes of matmul(bary, corners)
    mesh = disc_mesh(3)
    bary, _ = subdivided_rule(depth)
    cells = np.arange(1, mesh.n_cells, 37)
    points = _physical_points(mesh, bary, cells)
    want = np.matmul(bary, mesh.vertices[mesh.cells[cells]]).reshape(-1, 2)
    assert points.shape == want.shape
    assert points[:, 0].flags.c_contiguous and points[:, 1].flags.c_contiguous
    np.testing.assert_array_max_ulp(points, want, maxulp=1)


def test_l1_affine_interpolant_is_exact():
    mesh = build_disc_mesh(level=2)
    fe = fem.FeFunction(mesh, 0.3 * mesh.vertices[:, 0] - mesh.vertices[:, 1])
    exact = lambda p: 0.3 * p[:, 0] - p[:, 1]
    assert l1_error_fe(mesh, exact, fe) <= 1e-12


def test_l1_singular_refinement_stable(narrow_exact):
    mesh = build_disc_mesh(level=3)
    matrix = fem.assemble_stiffness(mesh)
    g = matrix.field(
        fem.factorize(matrix).solve(fem.load_point(mesh, (0.5, 0.5)))
    )
    base = l1_error_fe(mesh, narrow_exact.greens, g, singular_point=(0.5, 0.5))
    finer = l1_error_fe(mesh, narrow_exact.greens, g, singular_point=(0.5, 0.5),
                        extra_depth=5)
    assert abs(base - finer) / finer < 5e-3


def test_l1_requires_vertex_singularity():
    mesh = build_disc_mesh(level=1)
    fe = fem.FeFunction(mesh, np.zeros(mesh.n_vertices))
    with pytest.raises(ValueError):
        l1_error_fe(mesh, constant_field(0.0), fe, singular_point=(0.51, 0.5))


@pytest.mark.parametrize("depth", [-1, -3, 1.5])
def test_quadrature_depth_must_be_a_nonnegative_integer(depth):
    # a negative depth was once taken as depth 0, and a fractional one
    # failed inside the subdivision loop
    with pytest.raises(ValueError, match="nonnegative integer"):
        subdivided_rule(depth)
    mesh = build_disc_mesh(level=1)
    fe = fem.FeFunction(mesh, np.zeros(mesh.n_vertices))
    with pytest.raises(ValueError, match="nonnegative integer"):
        l2_error_control(mesh, constant_field(0.0), fe, depth=depth)
    with pytest.raises(ValueError, match="nonnegative integer"):
        l1_error_fe(mesh, constant_field(0.0), fe, depth=depth)
    # the singular cells' depth is checked too, on its own
    with pytest.raises(ValueError, match="nonnegative integer"):
        l1_error_fe(mesh, constant_field(0.0), fe, singular_point=(0.5, 0.5), depth=0,
                    extra_depth=depth)


def test_classify_constant_control_all_at_bound():
    mesh = build_disc_mesh(level=2)
    tags = classify_cells(mesh, constant_field(-0.2), -0.2, 0.2)
    assert np.all(tags == AT_BOUND)
    tags = classify_cells(mesh, constant_field(0.0), -0.2, 0.2)
    assert np.all(tags == FREE)


def test_classify_benchmark_structure(narrow_exact):
    mesh = build_disc_mesh(level=3)
    tags = classify_cells(mesh, narrow_exact.control, -0.2, 0.2)
    assert set(np.unique(tags)) <= {AT_BOUND, FREE, CUT}
    # cells around the tracking point sit inside the active disc
    touching_center = np.any(mesh.cells == 0, axis=1)
    assert np.all(tags[touching_center] == AT_BOUND)
    # cells beyond the active radius with margin are strictly free
    radii = np.linalg.norm(
        mesh.vertices[mesh.cells] - [0.5, 0.5], axis=2
    ).min(axis=1)
    far = radii > 2.0 * narrow_exact.active_radius()
    assert np.all(tags[far] == FREE)
    assert np.any(tags == CUT)


def test_classification_stable_under_refinement(narrow_exact):
    coarse = build_disc_mesh(level=2)
    fine = build_disc_mesh(level=3)
    coarse_tags = classify_cells(coarse, narrow_exact.control, -0.2, 0.2)
    fine_tags = classify_cells(fine, narrow_exact.control, -0.2, 0.2)
    # children of cell k occupy rows 4k..4k+3; a saturated parent never
    # produces a strictly-free child
    for k in np.flatnonzero(coarse_tags == AT_BOUND):
        assert FREE not in fine_tags[4 * k : 4 * k + 4]


TAG_MESHES = {level: build_disc_mesh(level=level) for level in range(4)}
INF = float("inf")


def near(bound):
    """The bound and its two neighbouring doubles, when it is finite."""
    if not np.isfinite(bound):
        return []
    return [bound, np.nextafter(bound, -INF), np.nextafter(bound, INF)]


@settings(max_examples=200, deadline=None)
@given(level=st.integers(0, 3),
       kind=st.sampled_from(["fe", "cellwise", "variational"]),
       lower=st.sampled_from([-INF, -1.0, -0.2, 0.0, 0.3]),
       upper=st.sampled_from([INF, 1.0, 0.2, 0.3, 0.5]),
       alpha=st.sampled_from([1.0, 0.25, 8.0]),
       on_bound=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_classification_matches_exact_extremes(level, kind, lower, upper, alpha,
                                               on_bound, seed):
    # values on a bound and one ulp either side of it, mixed with values
    # inside and outside the bounds, for every discrete control type
    assume(lower < upper)
    mesh = TAG_MESHES[level]
    rng = np.random.default_rng(seed)
    count = mesh.n_cells if kind == "cellwise" else mesh.n_vertices
    values = rng.uniform(-1.5, 1.5, count)
    special = near(lower) + near(upper)
    if special:
        pick = rng.random(count) < on_bound
        values[pick] = rng.choice(special, pick.sum())
    if kind == "fe":
        field = fem.FeFunction(mesh, values)
    elif kind == "cellwise":
        field = fem.CellwiseFunction(mesh, values)
    else:
        # alpha is a power of two, so -z / alpha gives the values back exactly
        field = VariationalControl(fem.FeFunction(mesh, -values * alpha), alpha,
                                   lower, upper)
    tags = classify_cells(mesh, field, lower, upper)
    assert np.array_equal(tags, exact_cell_tags(mesh, field, lower, upper))


@pytest.mark.parametrize("bounds", [(-0.2, 0.2), (-1.0, 1.0), (-0.5, -0.1)])
def test_closed_form_tags_match_the_radial_extremes(bounds):
    # the closed-form control is monotone in the distance to the center;
    # its vertex values give the tags of its exact range on every cell
    exact = ExactSolution(lower=bounds[0], upper=bounds[1])
    for level in range(2, 8):
        mesh = build_disc_mesh(level=level)
        tags = classify_cells(mesh, exact.control, *bounds)
        assert np.array_equal(tags, exact_cell_tags(mesh, exact, *bounds))
        assert np.any(tags == CUT)


@pytest.mark.parametrize("kind", ["fe", "cellwise"])
def test_values_just_inside_the_bounds_are_free(kind):
    # no tolerance: a value 1e-12 inside a bound is strictly between them
    mesh = TAG_MESHES[2]
    count = mesh.n_cells if kind == "cellwise" else mesh.n_vertices
    make = fem.CellwiseFunction if kind == "cellwise" else fem.FeFunction
    for value in (-0.2 + 1e-12, 0.2 - 1e-12):
        tags = classify_cells(mesh, make(mesh, np.full(count, value)), -0.2, 0.2)
        assert np.all(tags == FREE)


def test_cut_area_ratio_values(narrow_exact):
    mesh = build_disc_mesh(level=2)
    all_bound = np.full(mesh.n_cells, AT_BOUND)
    assert cut_area_ratio(all_bound, mesh) == 0.0
    single = np.full(mesh.n_cells, FREE)
    single[5] = CUT
    assert cut_area_ratio(single, mesh) == pytest.approx(
        mesh.cell_areas()[5] / mesh.h, rel=1e-14
    )


def test_cut_area_ratio_tracks_active_circle(narrow_exact):
    perimeter = 2 * np.pi * narrow_exact.active_radius()
    ratios = []
    for level in range(2, 6):
        mesh = build_disc_mesh(level=level)
        tags = classify_cells(mesh, narrow_exact.control, -0.2, 0.2)
        ratios.append(cut_area_ratio(tags, mesh))
    for ratio in ratios:
        assert perimeter / 2 <= ratio <= perimeter * 2
    assert max(ratios) / min(ratios) <= 2.0


def test_estimate_eoc_basic():
    assert estimate_eoc([(0.2, 0.1), (0.1, 0.05)]) == pytest.approx([1.0])
    assert estimate_eoc([(0.2, 0.1), (0.1, 0.025)]) == pytest.approx([2.0])
    assert estimate_eoc([(0.2, 0.3), (0.1, 0.3)]) == pytest.approx([0.0])


def test_estimate_eoc_edge_cases():
    orders = estimate_eoc([(0.2, 0.1), (0.1, 0.0), (0.05, 0.01)])
    assert np.isnan(orders[0]) and np.isnan(orders[1])
    with pytest.raises(ValueError):
        estimate_eoc([(0.2, 0.1)])
    with pytest.raises(ValueError):
        estimate_eoc([(0.1, 0.1), (0.2, 0.05)])


def test_eoc_least_squares_recovers_power_law():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    records = list(zip(h, 3.0 * h**1.5))
    assert eoc_least_squares(records) == pytest.approx(1.5, abs=1e-12)
    assert eoc_least_squares(records, window=4) == pytest.approx(1.5, abs=1e-12)
    assert np.isnan(eoc_least_squares([(0.2, 0.1), (0.1, 0.0), (0.05, 0.1)]))


@pytest.mark.parametrize("window", [0, -1, -2, 1, 2.0, 3.5, "3", None])
def test_eoc_least_squares_rejects_a_window_below_two(window):
    # window 0 once kept every record, and a negative one the last few
    h = np.array([0.4, 0.2, 0.1, 0.05])
    records = list(zip(h, [1.0, 0.2, 0.02, 0.002]))
    with pytest.raises(ValueError, match="window"):
        eoc_least_squares(records, window=window)
    assert eoc_least_squares(records, window=np.int64(2)) == eoc_least_squares(
        records, window=2)


def test_l2_handles_cellwise_and_implicit_fields(narrow_exact):
    mesh = build_disc_mesh(level=2)
    problem = benchmark_problem(narrow_exact)
    solution = solve_discrete(problem, mesh, CELLWISE)
    value = l2_error_control(mesh, narrow_exact.control, solution.control)
    assert 0 < value < 0.1
    variational = solve_discrete(problem, mesh, VARIATIONAL)
    finer = l2_error_control(mesh, narrow_exact.control, variational.control)
    assert 0 < finer < value


FIELD_MESHES = {level: build_disc_mesh(level=level) for level in (3, 4)}


def field_of_kind(kind, mesh):
    """A sampled field on ``mesh``: P1, cellwise or an implicit control."""
    nodal = fem.FeFunction(mesh, np.sin(mesh.vertices[:, 0]))
    if kind == "fe":
        return nodal
    if kind == "cellwise":
        return fem.l2_project_cells(mesh, nodal)
    return VariationalControl(nodal, 1e-2, -0.2, 0.2)


ERROR_CALLS = {
    "l2_error_control": lambda mesh, field: l2_error_control(mesh, constant_field(0.1), field),
    "l1_error_fe": lambda mesh, field: l1_error_fe(mesh, constant_field(0.1), field),
    "classify_cells": lambda mesh, field: classify_cells(mesh, field, -0.2, 0.2),
}


@pytest.mark.parametrize("levels", [(3, 4), (4, 3)], ids=["finer-field", "coarser-field"])
@pytest.mark.parametrize("kind", ["fe", "cellwise", "variational"])
@pytest.mark.parametrize("name", list(ERROR_CALLS))
def test_a_field_on_another_mesh_is_rejected(name, kind, levels):
    # cells are read in the mesh's numbering: a finer field would be read
    # on the wrong cells with no error, a coarser one past its last cell
    mesh, other = (FIELD_MESHES[level] for level in levels)
    with pytest.raises(ValueError, match="another mesh"):
        ERROR_CALLS[name](mesh, field_of_kind(kind, other))
    ERROR_CALLS[name](mesh, field_of_kind(kind, mesh))
