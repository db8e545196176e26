import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ptcontrol import fem
from ptcontrol.control import VARIATIONAL, benchmark_problem, solve_discrete
from ptcontrol.fem import (
    CellwiseFunction,
    FactorizationError,
    FeFunction,
    StiffnessMatrix,
    assemble_stiffness,
    centroid_project,
    clipped_field_l2_sq,
    evaluate,
    factorize,
    l2_norm,
    l2_project_cells,
    load_cellwise,
    load_clipped_linear,
    load_point,
    load_smooth,
)
from ptcontrol.greens import ExactSolution
from ptcontrol.quadrature import rule_degree4
from ptcontrol.mesh import (
    Mesh,
    PointNotFoundError,
    build_disc_mesh,
    build_square_mesh,
    refine_uniform,
)

from oracles import (
    assemble_mass,
    clipped_polygon_mass,
    clipped_loads_on_mesh,
    clipped_square_on_mesh,
    gaussian_elimination,
    reference_clipped_integrals,
    reference_ramp_counts,
    reference_stiffness_csr,
    triangle_quadrature_integral,
)


def split_unit_triangle_mesh():
    # unit triangle split into three cells at one interior vertex
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.3]])
    cells = np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]])
    boundary = np.array([True, True, True, False])
    return Mesh(vertices, cells, boundary)


def test_element_stiffness_unit_triangle():
    # the only dof is the interior vertex; each cell adds |e|^2 / (4 |K|)
    # with e its boundary edge (squared lengths 1, 2, 1; areas 0.15, 0.25, 0.1)
    matrix = assemble_stiffness(split_unit_triangle_mesh())
    expected = 1.0 / 0.6 + 2.0 / 1.0 + 1.0 / 0.4
    assert matrix.mat.shape == (1, 1)
    assert matrix.mat[0, 0] == pytest.approx(expected, rel=1e-14)


def test_stiffness_interior_rows_sum_to_zero():
    # constants lie in the kernel of the full operator, so the row of a dof
    # that couples to no boundary vertex still sums to zero after the
    # boundary columns are eliminated
    mesh = build_disc_mesh(level=2)
    matrix = assemble_stiffness(mesh).mat
    a, b = mesh.edges()[0].T
    touches_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    touches_boundary[a[mesh.boundary[b]]] = True
    touches_boundary[b[mesh.boundary[a]]] = True
    inner = ~touches_boundary[mesh.interior_vertices()]
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    assert inner.any() and not inner.all()
    assert np.max(np.abs(row_sums[inner])) <= 1e-13
    assert (matrix != matrix.T).nnz == 0


def test_square_mesh_five_point_stencil():
    # right-triangle P1 Laplacian reduces to the classic 5-point stencil
    mesh = build_square_mesh(level=2)
    matrix = assemble_stiffness(mesh)
    dense = matrix.mat.toarray()
    dof = mesh.dof_map()
    center = dof[np.where(np.all(mesh.vertices == [0.5, 0.5], axis=1))[0][0]]
    row = dense[center]
    assert row[center] == pytest.approx(4.0, abs=1e-14)
    off = np.sort(row[np.arange(len(row)) != center])
    assert np.allclose(off[:4], -1.0, atol=1e-14)
    assert np.allclose(off[4:], 0.0, atol=1e-14)


def test_stiffness_positive_definite():
    for mesh in (build_disc_mesh(level=1), build_square_mesh(level=2)):
        dense = assemble_stiffness(mesh).mat.toarray()
        assert np.linalg.eigvalsh(dense).min() > 0


def test_factorize_matches_elimination_oracle():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((5, 5))
    spd = base.T @ base + 5 * np.eye(5)
    b = rng.standard_normal(5)
    x = factorize(sp.csr_matrix(spd)).solve(b)
    assert np.max(np.abs(x - gaussian_elimination(spd, b))) <= 1e-12


def test_factorize_identity_and_zero_rhs():
    eye = sp.identity(7, format="csr")
    fact = factorize(eye)
    b = np.arange(7.0)
    assert np.array_equal(fact.solve(b), b)
    assert np.array_equal(fact.solve(np.zeros(7)), np.zeros(7))


def test_factorize_rejects_indefinite():
    indefinite = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(FactorizationError):
        factorize(indefinite)
    asymmetric = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(FactorizationError):
        factorize(asymmetric)


@pytest.mark.parametrize("entries", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 1.0], [1.0, 1.0]],
], ids=["nan", "inf", "singular"])
def test_factorize_failures_are_typed(entries):
    with pytest.raises(FactorizationError):
        factorize(sp.csr_matrix(np.array(entries)))


@settings(max_examples=40, deadline=None)
@given(ratio=st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 4.0)))
def test_factorize_detects_indefinite_shift(ratio):
    # K - sigma I is SPD exactly when sigma < lambda_min(K); the sign test
    # on the pivots is an inertia test only under symmetric permutations
    stiffness = assemble_stiffness(build_disc_mesh(level=3))
    matrix = stiffness.mat
    lambda_min = np.linalg.eigvalsh(matrix.toarray())[0]
    shifted = (matrix - ratio * lambda_min * sp.identity(matrix.shape[0])).tocsr()
    if ratio > 1.0:
        with pytest.raises(FactorizationError):
            factorize(shifted)
        # multigrid skips the pivot-sign test only for assemble_stiffness
        # output; the shift wrapped by hand still goes through the LU
        with pytest.raises(FactorizationError):
            factorize(StiffnessMatrix(shifted, stiffness.mesh, stiffness.interior))
    else:
        lu = factorize(shifted)._lu
        assert np.array_equal(lu.perm_r, lu.perm_c)


def test_solve_residual_contract():
    mesh = build_disc_mesh(level=4)
    matrix = assemble_stiffness(mesh)
    fact = factorize(matrix)
    rng = np.random.default_rng(0)
    for _ in range(3):
        b = rng.standard_normal(matrix.n)
        x = fact.solve(b)
        residual = np.max(np.abs(matrix.mat @ x - b))
        assert residual <= fact.RESIDUAL_CONTRACT * np.max(np.abs(b))


def test_direct_matches_dense_solve():
    # level 2 takes the LU alone, level 3 one V-cycle level above it
    for level in (2, 3):
        mesh = build_disc_mesh(level=level)
        matrix = assemble_stiffness(mesh)
        fact = factorize(matrix)
        assert len(fact._levels) == level - fem.COARSE_LEVEL
        for b in (load_smooth(mesh, lambda p: np.ones(len(p))), load_point(mesh, (0.3, 0.6))):
            dense_x = np.linalg.solve(matrix.mat.toarray(), b)
            x = fact.solve(b)
            assert np.max(np.abs(x - dense_x)) <= 1e-12 * np.max(np.abs(dense_x))


MULTIGRID_MESHES = {
    (build, level): build(level=level)
    for build in (build_disc_mesh, build_square_mesh)
    for level in (3, 4, 5)
}
MULTIGRID_SYSTEMS = {}


def multigrid_system(key):
    """Assembled matrix with its multigrid and its LU-only handle, cached."""
    if key not in MULTIGRID_SYSTEMS:
        matrix = assemble_stiffness(MULTIGRID_MESHES[key])
        MULTIGRID_SYSTEMS[key] = matrix, factorize(matrix), factorize(matrix.mat)
    return MULTIGRID_SYSTEMS[key]


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(list(MULTIGRID_MESHES)),
    kind=st.sampled_from(["random", "point", "vertex", "midpoint"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_multigrid_matches_coarse_lu_property(key, kind, seed):
    matrix, multigrid, direct = multigrid_system(key)
    mesh = matrix.mesh
    assert multigrid._levels and not direct._levels
    rng = np.random.default_rng(seed)
    interior = mesh.vertices[mesh.interior_vertices()]
    if kind == "random":
        b = rng.standard_normal(matrix.n)
    else:
        # a random point of a random cell, an interior vertex, or the
        # midpoint of a cell edge that is not a boundary edge
        cell = mesh.cells[rng.integers(mesh.n_cells)]
        corners = mesh.vertices[cell]
        edge = 0.5 * (corners[0] + corners[1])
        point = {
            "point": rng.dirichlet(np.ones(3)) @ corners,
            "vertex": interior[rng.integers(len(interior))],
            "midpoint": corners.mean(axis=0) if mesh.boundary[cell[:2]].all() else edge,
        }[kind]
        b = load_point(mesh, point)
    x = multigrid.solve(b)
    reference = direct.solve(b)
    assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))
    residual = np.max(np.abs(matrix.mat @ x - b))
    assert residual <= multigrid.RESIDUAL_CONTRACT * np.max(np.abs(b))
    # the stop rule, not only the contract: a normwise backward error near
    # machine precision
    assert residual <= 1e-14 * np.max(abs(matrix.mat) @ np.abs(x) + np.abs(b))


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_prolongation_interpolates_coarse_fields(build, level):
    # coarse field: affine at interior vertices, zero on the boundary.  At a
    # fine vertex that is a parent vertex, or the midpoint of an edge with
    # two interior ends, P reproduces the affine function in closed form; at
    # the midpoint of an edge with a boundary end, half the interior value
    coarse = build(level=level)
    fine = refine_uniform(coarse)
    affine = lambda p: 0.3 - 1.7 * p[..., 0] + 2.9 * p[..., 1]
    coarse_values = affine(coarse.vertices) * ~coarse.boundary
    prolonged = fem._prolongation(fine, coarse) @ coarse_values[coarse.interior_vertices()]
    n_c = coarse.n_vertices
    edges = fine._edges
    expected = np.concatenate([
        coarse_values,
        np.where(
            coarse.boundary[edges].any(axis=1),
            0.5 * coarse_values[edges].sum(axis=1),
            affine(fine.vertices[n_c:]),
        ),
    ])
    assert np.allclose(prolonged, expected[fine.interior_vertices()], rtol=0, atol=1e-14)
    # independent check: barycentric interpolation of the coarse P1 field
    coarse_field = FeFunction(coarse, coarse_values)
    at_vertices = [evaluate(coarse_field, x) for x in fine.vertices[fine.interior_vertices()]]
    assert np.allclose(prolonged, at_vertices, rtol=0, atol=1e-14)


def test_multigrid_iterates_to_the_contract(monkeypatch):
    # on fine meshes the load shrinks like h^2, so the contract can be the
    # tighter stop rule; with the backward-error rule made void the solve
    # must still iterate until the contract holds
    monkeypatch.setattr(fem.Factorization, "BACKWARD_ERROR", 1.0)
    mesh = build_disc_mesh(level=4)
    matrix = assemble_stiffness(mesh)
    fact = factorize(matrix)
    b = load_smooth(mesh, lambda p: np.ones(len(p)))
    x = fact.solve(b)
    assert fact.iterations[-1] > 1
    assert np.max(np.abs(matrix.mat @ x - b)) <= fact.RESIDUAL_CONTRACT * np.max(np.abs(b))


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_multigrid_iterations_do_not_grow_with_level(build):
    rng = np.random.default_rng(5)
    for level in range(3, 8):
        mesh = build(level=level)
        matrix = assemble_stiffness(mesh)
        fact = factorize(matrix)
        assert len(fact._levels) == level - fem.COARSE_LEVEL
        fact.solve(rng.standard_normal(matrix.n))
        fact.solve(load_point(mesh, (0.5 + 1e-3, 0.5 - 2e-3)))
        assert len(fact.iterations) == 2
        assert max(fact.iterations) <= 15, (level, fact.iterations)


def test_coarse_and_plain_matrices_use_the_lu_alone():
    for matrix in (
        assemble_stiffness(build_disc_mesh(level=2)),
        assemble_stiffness(build_disc_mesh(level=3)).mat,
    ):
        fact = factorize(matrix)
        assert fact._levels == []
        fact.solve(np.ones(fact.mat.shape[0]))
        assert fact.iterations == [1]


def test_load_smooth_constant_gives_star_areas():
    mesh = build_disc_mesh(level=1)
    load = load_smooth(mesh, lambda p: np.ones(len(p)))
    areas = mesh.cell_areas()
    dof = mesh.dof_map()
    expected = np.zeros(matrix_size := len(mesh.interior_vertices()))
    for k, cell in enumerate(mesh.cells):
        for v in cell:
            if dof[v] >= 0:
                expected[dof[v]] += areas[k] / 3.0
    assert load.shape == (matrix_size,)
    assert np.max(np.abs(load - expected)) <= 1e-15


def test_load_smooth_exact_for_affine():
    mesh = build_square_mesh(level=2)
    mass = assemble_mass(mesh)
    nodal = 0.75 * mesh.vertices[:, 0] - 0.2 * mesh.vertices[:, 1] + 0.4
    exact = np.asarray(mass @ nodal).ravel()[mesh.dof_map() >= 0]
    load = load_smooth(mesh, lambda p: 0.75 * p[:, 0] - 0.2 * p[:, 1] + 0.4)
    assert np.max(np.abs(load - exact)) <= 1e-15


def test_load_cellwise_matches_quadrature_oracle():
    # centroid-rule subdivision is exact for constant * affine integrands
    mesh = build_disc_mesh(level=1)
    rng = np.random.default_rng(5)
    q = rng.standard_normal(mesh.n_cells)
    load = load_cellwise(mesh, q)
    dof = mesh.dof_map()
    expected = np.zeros(len(mesh.interior_vertices()))
    basis = [
        lambda lam: lam[0],
        lambda lam: lam[1],
        lambda lam: lam[2],
    ]
    for k, cell in enumerate(mesh.cells):
        corners = mesh.vertices[cell]
        span = np.column_stack([corners, np.ones(3)])
        for local, v in enumerate(cell):
            if dof[v] < 0:
                continue
            def hat(x, y, local=local, span=span):
                lam = np.linalg.solve(span.T, np.array([x, y, 1.0]))
                return lam[local]
            expected[dof[v]] += q[k] * triangle_quadrature_integral(corners, hat, n=4)
    assert np.max(np.abs(load - expected)) <= 1e-14


def test_load_cellwise_single_indicator():
    mesh = build_disc_mesh(level=1)
    q = np.zeros(mesh.n_cells)
    q[3] = 1.0
    load = load_cellwise(mesh, q)
    dof = mesh.dof_map()
    expected = np.zeros(len(mesh.interior_vertices()))
    for v in mesh.cells[3]:
        if dof[v] >= 0:
            expected[dof[v]] += mesh.cell_areas()[3] / 3.0
    assert np.max(np.abs(load - expected)) == 0.0


def test_load_point_is_basis_evaluation():
    mesh = build_disc_mesh(level=2)
    rng = np.random.default_rng(2)
    # partition of unity: the loads at any strictly interior point with
    # interior support sum to one
    hits = 0
    while hits < 10:
        r, t = 0.35 * np.sqrt(rng.random()), 2 * np.pi * rng.random()
        x = (0.5 + r * np.cos(t), 0.5 + r * np.sin(t))
        load = load_point(mesh, x)
        assert load.min() >= -1e-14
        assert np.sum(load) == pytest.approx(1.0, abs=1e-12)
        hits += 1
    center_load = load_point(mesh, (0.5, 0.5))
    dof = mesh.dof_map()
    assert center_load[dof[0]] == 1.0
    assert np.sum(center_load != 0.0) == 1


def test_load_point_boundary_rejection():
    mesh = build_disc_mesh(level=1)
    with pytest.raises(ValueError):
        load_point(mesh, (1.0, 0.5))
    # midpoint of a boundary edge
    boundary = np.where(mesh.boundary)[0]
    edges, counts = mesh.edges()
    edge = edges[counts == 1][0]
    mid = mesh.vertices[edge].mean(axis=0)
    with pytest.raises(ValueError):
        load_point(mesh, mid)
    with pytest.raises(PointNotFoundError):
        load_point(mesh, (2.0, 2.0))


def test_evaluate_affine_and_vertices():
    mesh = build_disc_mesh(level=2)
    nodal = 1.5 * mesh.vertices[:, 0] - 0.3 * mesh.vertices[:, 1] + 0.1
    u = FeFunction(mesh, nodal)
    rng = np.random.default_rng(9)
    for _ in range(12):
        r, t = 0.49 * np.sqrt(rng.random()), 2 * np.pi * rng.random()
        x = (0.5 + r * np.cos(t), 0.5 + r * np.sin(t))
        try:
            value = evaluate(u, x)
        except PointNotFoundError:
            continue
        assert value == pytest.approx(1.5 * x[0] - 0.3 * x[1] + 0.1, abs=1e-13)
    for v in range(0, mesh.n_vertices, 17):
        assert evaluate(u, mesh.vertices[v]) == pytest.approx(nodal[v], abs=1e-13)


def test_fe_function_sampling():
    mesh = build_disc_mesh(level=1)
    rng = np.random.default_rng(4)
    u = FeFunction(mesh, rng.standard_normal(mesh.n_vertices))
    corners = np.eye(3)
    sampled = u.sample_cells(corners)
    assert sampled.shape == (mesh.n_cells, 3)
    assert np.array_equal(sampled, u.values[mesh.cells])
    some = np.array([5, 0, 2])
    assert np.array_equal(u.sample_cells(corners, some), u.values[mesh.cells[some]])


@pytest.mark.parametrize("kind", [FeFunction, CellwiseFunction])
def test_functions_leave_the_callers_array_writable(kind):
    mesh = build_disc_mesh(level=0)
    n = mesh.n_vertices if kind is FeFunction else mesh.n_cells
    values = np.zeros(n)
    u = kind(mesh, values)
    values[0] = 1.0  # the caller's array stays writable
    assert u.values[0] == 0.0  # and the stored values do not follow it
    assert not u.values.flags.writeable
    with pytest.raises(ValueError):
        u.values[0] = 1.0
    frozen = np.zeros(n)
    frozen.setflags(write=False)
    assert kind(mesh, frozen).values is frozen  # read-only input: no copy


@settings(max_examples=30, deadline=None)
@given(level=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       n_nodes=st.integers(1, 40), subset=st.booleans())
def test_fe_sampling_matches_einsum_form(level, seed, n_nodes, subset):
    # the matmul of nodal values with bary transposed against the
    # barycentric combination written as an einsum
    mesh = build_disc_mesh(level=level)
    rng = np.random.default_rng(seed)
    u = FeFunction(mesh, rng.standard_normal(mesh.n_vertices))
    bary = rng.random((n_nodes, 3))
    bary /= bary.sum(axis=1, keepdims=True)
    cells = rng.permutation(mesh.n_cells)[: mesh.n_cells // 2 + 1] if subset else None
    nodal = u.values[mesh.cells if cells is None else mesh.cells[cells]]
    want = np.einsum("qi,ni->nq", bary, nodal)
    scale = np.abs(nodal) @ bary.T
    got = u.sample_cells(bary, cells)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_stiffness_cached_per_mesh_and_read_only():
    # the assembly count down a study chain is in test_cli
    mesh = build_disc_mesh(level=3)
    first, second = assemble_stiffness(mesh), assemble_stiffness(mesh)
    assert second.mat is first.mat
    fresh = fem._stiffness_csr(mesh)
    assert (fresh != first.mat).nnz == 0
    for array in (first.mat.data, first.mat.indices, first.mat.indptr):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        first.mat.data[0] = 1.0
    with pytest.raises(ValueError):
        first.mat[0, 0] = 1.0
    with pytest.raises(ValueError):
        first.mat *= 2.0
    assert (first.mat != fresh).nnz == 0


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_stiffness_matches_einsum_reference_bitwise(build):
    # the plane-wise element matrices feed the COO assembly the same bits
    mesh = build(level=0)
    for level in range(8):
        if level:
            mesh = refine_uniform(mesh)
        ours, reference = fem._stiffness_csr(mesh), reference_stiffness_csr(mesh)
        assert np.array_equal(ours.data.view(np.int64), reference.data.view(np.int64))
        for name in ("indices", "indptr"):
            got, want = getattr(ours, name), getattr(reference, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_stiffness_zero_entries_match_einsum_reference():
    # axis-parallel edges at a right angle: their plane dot product is
    # -0.0 + -0.0, where einsum sums from +0.0; no vertex is eliminated
    mesh = Mesh([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], [[0, 1, 2]],
                np.zeros(3, dtype=bool))
    ours, reference = fem._stiffness_csr(mesh), reference_stiffness_csr(mesh)
    assert np.any((reference.data == 0.0) & ~np.signbit(reference.data))
    assert np.array_equal(ours.data.view(np.int64), reference.data.view(np.int64))


@pytest.mark.parametrize("order", ["C", "F"])
def test_scatter_adds_in_the_order_of_add_at(order):
    mesh = build_disc_mesh(level=3)
    rng = np.random.default_rng(5)
    # magnitudes far apart, so any other order of addition changes bits
    contrib = rng.standard_normal((mesh.n_cells, 3)) * 10.0 ** rng.integers(
        -8, 9, (mesh.n_cells, 3))
    cell_dofs = mesh.dof_map()[mesh.cells]
    keep = cell_dofs >= 0
    want = np.zeros(len(mesh.interior_vertices()))
    np.add.at(want, cell_dofs[keep], contrib[keep])
    got = fem._scatter_cell_loads(mesh, np.asarray(contrib, order=order))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_mass_matrix_rows_and_total():
    mesh = build_disc_mesh(level=2)
    mass = assemble_mass(mesh)
    assert (mass != mass.T).nnz == 0
    row_sums = np.asarray(mass.sum(axis=1)).ravel()
    areas = mesh.cell_areas()
    star = np.zeros(mesh.n_vertices)
    for k, cell in enumerate(mesh.cells):
        star[cell] += areas[k] / 3.0
    assert np.max(np.abs(row_sums - star)) <= 1e-15
    assert mass.sum() == pytest.approx(areas.sum(), rel=1e-14)


def test_l2_norm_exact_values():
    square = build_square_mesh(level=3)
    one = FeFunction(square, np.ones(square.n_vertices))
    assert l2_norm(one) == pytest.approx(1.0, rel=1e-14)
    linear = FeFunction(square, square.vertices[:, 0])
    assert l2_norm(linear) == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-14)


def test_projection_operators():
    mesh = build_disc_mesh(level=1)
    affine = FeFunction(mesh, 2.0 * mesh.vertices[:, 0] + mesh.vertices[:, 1])
    cellwise = l2_project_cells(mesh, affine)
    assert isinstance(cellwise, CellwiseFunction)
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    assert np.allclose(cellwise.values, 2.0 * centroids[:, 0] + centroids[:, 1],
                       rtol=1e-14)
    with pytest.raises(TypeError):
        l2_project_cells(mesh, np.ones(mesh.n_vertices))
    sampled = centroid_project(mesh, lambda p: p[:, 0] - p[:, 1])
    assert np.allclose(sampled.values, centroids[:, 0] - centroids[:, 1],
                       rtol=1e-14)


def test_clipped_load_trivial_cases():
    mesh = build_disc_mesh(level=1)
    zeros = np.zeros(mesh.n_vertices)
    assert np.max(np.abs(load_clipped_linear(mesh, zeros, -1.0, 1.0, 1.0))) == 0.0
    # everything clips to the upper bound
    big = np.full(mesh.n_vertices, -50.0)
    upper_load = load_clipped_linear(mesh, big, -1.0, 1.0, 1.0)
    assert np.max(np.abs(upper_load - load_cellwise(mesh, np.ones(mesh.n_cells)))) \
        <= 1e-15
    # infinite bounds reduce to a mass-matrix product
    rng = np.random.default_rng(21)
    w = rng.standard_normal(mesh.n_vertices)
    unclipped = load_clipped_linear(mesh, w, -np.inf, np.inf, 2.0)
    mass = assemble_mass(mesh)
    exact = np.asarray(mass @ (-w / 2.0)).ravel()[mesh.dof_map() >= 0]
    assert np.max(np.abs(unclipped - exact)) <= 1e-14


def test_clipped_load_validation():
    mesh = build_disc_mesh(level=0)
    w = np.zeros(mesh.n_vertices)
    with pytest.raises(ValueError):
        load_clipped_linear(mesh, w, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        load_clipped_linear(mesh, w, -1.0, 1.0, 0.0)


@pytest.mark.parametrize("case", [
    "one_crossing", "two_crossings", "all_below", "all_above",
    "vertex_on_level", "tilted",
])
def test_clipped_load_against_scanline_oracle(case):
    mesh = build_disc_mesh(level=1)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    alpha, lower, upper = 1.0, -0.3, 0.4
    if case == "one_crossing":
        w = -(x - 0.2)          # crosses -alpha*upper inside the disc
    elif case == "two_crossings":
        w = 1.6 * (x - 0.5)     # hits both levels across the disc
    elif case == "all_below":
        w = np.full(mesh.n_vertices, 2.0)
    elif case == "all_above":
        w = np.full(mesh.n_vertices, -2.0)
    elif case == "vertex_on_level":
        w = -(x - 0.5)
        w[0] = -alpha * upper   # put the center vertex exactly on the level
    else:
        w = 1.3 * (x - 0.4) - 0.9 * (y - 0.6)
    ours = load_clipped_linear(mesh, w, lower, upper, alpha)
    reference = clipped_loads_on_mesh(mesh, w, lower, upper, alpha)
    assert np.max(np.abs(ours - reference)) <= 1e-12


def test_clipped_load_random_fields_match_oracle():
    mesh = build_disc_mesh(level=2)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        w = 0.4 * rng.standard_normal(mesh.n_vertices)
        lower, upper = sorted(rng.uniform(-0.5, 0.5, 2))
        upper = max(upper, lower + 0.05)
        alpha = rng.uniform(0.5, 2.0)
        ours = load_clipped_linear(mesh, w, lower, upper, alpha)
        reference = clipped_loads_on_mesh(mesh, w, lower, upper, alpha)
        worst = max(worst, float(np.max(np.abs(ours - reference))))
    assert worst <= 1e-12


LEVEL1_MESH = build_disc_mesh(level=1)


def _on_level(level, alpha):
    """A nodal w with -w/alpha == level exactly, if one lies next to -alpha*level."""
    w = -alpha * level
    for candidate in (w, np.nextafter(w, np.inf), np.nextafter(w, -np.inf)):
        if -candidate / alpha == level:
            return candidate
    return w


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.1, 10.0),
    bounds=st.tuples(
        st.one_of(st.just(-np.inf), st.floats(-1.5, 0.5)),
        st.one_of(st.just(np.inf), st.floats(-0.5, 1.5)),
    ).filter(lambda b: b[0] < b[1]),
    snapped=st.floats(0.0, 0.6),
)
def test_clipped_integrals_match_scanline_property(seed, alpha, bounds, snapped):
    # random affine-per-cell fields, some vertex values exactly on a level
    lower, upper = bounds
    mesh = LEVEL1_MESH
    rng = np.random.default_rng(seed)
    w = alpha * rng.uniform(-2.0, 2.0, mesh.n_vertices)
    levels = [b for b in bounds if np.isfinite(b)]
    if levels:
        for i in np.flatnonzero(rng.random(mesh.n_vertices) < snapped):
            w[i] = _on_level(levels[rng.integers(len(levels))], alpha)
    # no nan/inf path: invalid, divide and overflow raise; gradual underflow
    # (subnormal bounds, corner areas t_k t_l |K| below 1e-308) is benign
    with np.errstate(all="raise", under="ignore"):
        loads = load_clipped_linear(mesh, w, lower, upper, alpha)
        square = clipped_field_l2_sq(mesh, w, lower, upper, alpha)
    reference = clipped_loads_on_mesh(mesh, w, lower, upper, alpha)
    assert np.max(np.abs(loads - reference)) <= 1e-12
    assert square == pytest.approx(
        clipped_square_on_mesh(mesh, w, lower, upper, alpha), abs=1e-12
    )


def test_clipped_square_matches_oracle():
    mesh = build_disc_mesh(level=2)
    rng = np.random.default_rng(13)
    for _ in range(3):
        w = 0.5 * rng.standard_normal(mesh.n_vertices)
        ours = clipped_field_l2_sq(mesh, w, -0.2, 0.2, 1.0)
        reference = clipped_square_on_mesh(mesh, w, -0.2, 0.2, 1.0)
        assert ours == pytest.approx(reference, abs=1e-12)


BOUND_PAIRS = st.tuples(
    st.one_of(st.just(-np.inf), st.floats(-1.5, 0.5)),
    st.one_of(st.just(np.inf), st.floats(-0.5, 1.5)),
).filter(lambda b: b[0] < b[1])


@settings(max_examples=200, deadline=None)
@given(
    corners=st.lists(st.floats(-0.2, 0.2), min_size=6, max_size=6),
    scale=st.floats(1e-3, 1.0),
    values=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    bounds=BOUND_PAIRS,
    on_bound=st.lists(st.sampled_from([None, 0, 1]), min_size=3, max_size=3),
)
def test_free_mass_matches_clipped_polygon(corners, scale, values, bounds, on_bound):
    # the free-part mass of one cell, exact from its corner triangles,
    # against a clipped polygon integrated by a fan of degree-4 rules;
    # some vertex values lie exactly on a bound
    vertices = scale * (np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
                        + np.reshape(corners, (3, 2)))
    e1, e2 = vertices[1] - vertices[0], vertices[2] - vertices[0]
    area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    values = np.array(values)
    for j, which in enumerate(on_bound):
        if which is not None and np.isfinite(bounds[which]):
            values[j] = bounds[which]
    lower, upper = bounds
    with np.errstate(all="raise", under="ignore"):
        mass = fem._free_mass(values[None], np.array([[lower]]), np.array([[upper]]),
                              np.array([area]))[0]
    reference = clipped_polygon_mass(vertices, values, lower, upper, rule_degree4())
    assert np.max(np.abs(mass - reference)) <= 1e-14 * area


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.1, 10.0),
    bounds=BOUND_PAIRS,
    snapped=st.floats(0.0, 0.6),
)
def test_free_mass_gram_matches_clipped_polygon_on_a_mesh(seed, alpha, bounds, snapped):
    # the Jacobian kernel over a mesh: every cell classified, free-part
    # masses applied to three fields, boundary values included
    lower, upper = bounds
    mesh = LEVEL1_MESH
    rng = np.random.default_rng(seed)
    w = alpha * rng.uniform(-2.0, 2.0, mesh.n_vertices)
    levels = [b for b in bounds if np.isfinite(b)]
    if levels:
        for i in np.flatnonzero(rng.random(mesh.n_vertices) < snapped):
            w[i] = _on_level(levels[rng.integers(len(levels))], alpha)
    fields = rng.standard_normal((3, mesh.n_vertices))
    with np.errstate(all="raise", under="ignore"):
        gram = fem._free_mass_gram(mesh, w, lower, upper, alpha, fields)
    reference = np.zeros((3, 3))
    for cell in mesh.cells:
        mass = clipped_polygon_mass(mesh.vertices[cell], -w[cell] / alpha, lower, upper,
                                    rule_degree4())
        reference += fields[:, cell] @ mass @ fields[:, cell].T
    assert np.max(np.abs(gram - reference)) <= 1e-14 * max(1.0, np.max(np.abs(reference)))


def _einsum_sums_outer_products_first():
    """Whether einsum("ni,ni->n") adds (p0 + p2) + p1, as the plane kernel does."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 3)) * 10.0 ** rng.integers(-8, 9, (256, 3))
    b = rng.standard_normal((256, 3))
    p = a * b
    return np.array_equal(np.einsum("ni,ni->n", a, b), p[:, 0] + p[:, 2] + p[:, 1])


EINSUM_OUTER_FIRST = _einsum_sums_outer_products_first()
COARSE_MESHES = (build_disc_mesh(level=0), LEVEL1_MESH, build_square_mesh(level=1))


def _steps_from(level, ulps):
    """The float ``ulps`` steps above (below, if negative) ``level``."""
    for _ in range(abs(ulps)):
        level = np.nextafter(level, np.copysign(np.inf, ulps))
    return level


def _expected_labels(mesh, w, lower, upper, alpha):
    below, above = reference_ramp_counts(mesh, w, lower, upper, alpha)
    labels = np.full(mesh.n_cells, fem._CROSSED)
    labels[(below == 0) & (above == 0)] = fem._FREE
    labels[below == 3] = fem._AT_LOWER
    labels[above == 3] = fem._AT_UPPER
    return labels


@settings(max_examples=150, deadline=None)
@given(
    mesh_index=st.integers(0, len(COARSE_MESHES) - 1),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.one_of(st.just(1.0), st.floats(1e-3, 10.0)),
    bounds=st.tuples(
        st.one_of(st.just(-np.inf), st.floats(-1.5, 0.5)),
        st.one_of(st.just(np.inf), st.floats(-0.5, 1.5)),
    ).filter(lambda b: b[0] < b[1]),
    kind=st.sampled_from(["nodal", "affine", "free", "lower", "upper", "zero"]),
    snapped=st.floats(0.0, 0.8),
)
def test_plane_kernel_matches_row_reference(mesh_index, seed, alpha, bounds, kind,
                                            snapped):
    # the per-cell loads and squares of the classified plane kernel against
    # the row-wise ramp identity on every cell, and its classes against the
    # ramp counts of the rows
    lower, upper = bounds
    mesh = COARSE_MESHES[mesh_index]
    rng = np.random.default_rng(seed)
    x, y = mesh.vertices.T
    low = lower if np.isfinite(lower) else -2.0
    high = upper if np.isfinite(upper) else 2.0
    if kind == "nodal":
        v = rng.uniform(-2.0, 2.0, mesh.n_vertices)
    elif kind == "affine":
        v = rng.uniform(-1.0, 1.0) + rng.uniform(-4.0, 4.0, 2) @ np.array([x, y])
    elif kind == "free":
        v = low + (high - low) * rng.uniform(0.05, 0.95, mesh.n_vertices)
    elif kind == "lower":
        v = low - rng.uniform(0.01, 2.0, mesh.n_vertices)
    elif kind == "upper":
        v = high + rng.uniform(0.01, 2.0, mesh.n_vertices)
    else:
        v = np.zeros(mesh.n_vertices)
    w = -alpha * v
    if kind == "zero":
        w = np.where(rng.random(mesh.n_vertices) < 0.5, 0.0, -0.0)
    levels = [b for b in bounds if np.isfinite(b)]
    if kind in ("nodal", "affine") and levels:
        # vertex values on a bound and one ulp to either side of it
        for i in np.flatnonzero(rng.random(mesh.n_vertices) < snapped):
            level = levels[rng.integers(len(levels))]
            w[i] = _on_level(_steps_from(level, int(rng.integers(-1, 2))), alpha)
    with np.errstate(all="raise", under="ignore"):
        loads, squares = fem._clipped_integrals(mesh, w, lower, upper, alpha)
    want_loads, want_squares = reference_clipped_integrals(mesh, w, lower, upper, alpha)
    assert np.array_equal(loads, want_loads)
    if EINSUM_OUTER_FIRST:
        assert np.array_equal(squares.view(np.int64), want_squares.view(np.int64))
    else:
        # another order of summation: 4 eps sum_j |v'_j L_j| per cell
        rows = -np.asarray(w)[mesh.cells] / alpha
        rows = rows - np.clip(rows.mean(axis=1), lower, upper)[:, None]
        mass = mesh.cell_areas()[:, None] / 12.0 * (rows + rows.sum(axis=1, keepdims=True))
        bound = 4.0 * np.finfo(float).eps * np.sum(np.abs(rows * mass), axis=1)
        assert np.all(np.abs(squares - want_squares) <= bound)
    labels = fem._classify_cells(mesh, w, lower, upper, alpha)[0]
    assert np.array_equal(labels, _expected_labels(mesh, w, lower, upper, alpha))
    if kind == "free" or (kind == "zero" and lower < 0.0 < upper):
        assert np.all(labels == fem._FREE)
    if kind == "lower" and np.isfinite(lower):
        assert np.all(labels == fem._AT_LOWER)
    if kind == "upper" and np.isfinite(upper):
        assert np.all(labels == fem._AT_UPPER)


def test_plane_kernel_matches_row_reference_on_the_converged_adjoint():
    # the level-4 adjoint of the solve-l7 problem, as solved and scaled
    exact = ExactSolution(lower=-0.2, upper=0.2)
    problem = benchmark_problem(exact)
    mesh = build_disc_mesh(level=4)
    z = solve_discrete(problem, mesh, variant=VARIATIONAL).adjoint.values
    for scale in (1.0, 3.0, 0.5):
        args = (mesh, scale * z, problem.lower, problem.upper, problem.alpha)
        loads, squares = fem._clipped_integrals(*args)
        want_loads, want_squares = reference_clipped_integrals(*args)
        assert np.array_equal(loads, want_loads)
        if EINSUM_OUTER_FIRST:
            assert np.array_equal(squares.view(np.int64), want_squares.view(np.int64))
        assert np.count_nonzero(fem._classify_cells(*args)[0] == fem._CROSSED) > 0


def test_galerkin_residual_benchmark_state():
    exact = ExactSolution()
    mesh = build_disc_mesh(level=3)
    matrix = assemble_stiffness(mesh)
    fact = factorize(matrix)
    b = load_smooth(mesh, exact.source) + load_cellwise(
        mesh, centroid_project(mesh, exact.control).values
    )
    u = fact.solve(b)
    assert np.max(np.abs(matrix.mat @ u - b)) <= 1e-9


def test_discrete_maximum_principle():
    mesh = build_disc_mesh(level=2)
    matrix = assemble_stiffness(mesh)
    u = factorize(matrix).solve(load_smooth(mesh, lambda p: np.ones(len(p))))
    assert u.min() >= -1e-10


def test_greens_field_positive_and_growing():
    # the discrete point-source solution is positive and grows toward the
    # source like the continuous one
    mesh = build_disc_mesh(level=4)
    matrix = assemble_stiffness(mesh)
    g = matrix.field(factorize(matrix).solve(load_point(mesh, (0.5, 0.5))))
    interior = g.values[~mesh.boundary]
    assert interior.min() > 0
    assert evaluate(g, (0.5, 0.5)) > evaluate(g, (0.52, 0.5)) > evaluate(
        g, (0.6, 0.5)
    ) > evaluate(g, (0.7, 0.5))
    norm = l2_norm(g)
    assert 0.05 < norm < 0.2
