import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from ptcontrol import _parallel, fem
from ptcontrol.control import VARIATIONAL, ReducedSystem, benchmark_problem, solve_discrete
from ptcontrol.fem import (
    CellwiseFunction,
    FactorizationError,
    FeFunction,
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
    coo_stiffness,
    gaussian_elimination,
    polygon_clipped_integrals,
    reference_clipped_integrals,
    reference_ramp_counts,
    reference_stiffness_csr,
    row_wise_element_stiffness,
    sparse_lu,
    triangle_quadrature_integral,
    whole_gather_cell_values,
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
    assert matrix.shape == (1, 1)
    assert matrix[0, 0] == pytest.approx(expected, rel=1e-14)


def test_stiffness_interior_rows_sum_to_zero():
    # constants lie in the kernel of the full operator, so the row of a dof
    # that couples to no boundary vertex still sums to zero after the
    # boundary columns are eliminated
    mesh = build_disc_mesh(level=2)
    matrix = assemble_stiffness(mesh)
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
    dense = assemble_stiffness(mesh).toarray()
    dof = mesh.dof_map()
    center = dof[np.where(np.all(mesh.vertices == [0.5, 0.5], axis=1))[0][0]]
    row = dense[center]
    assert row[center] == pytest.approx(4.0, abs=1e-14)
    off = np.sort(row[np.arange(len(row)) != center])
    assert np.allclose(off[:4], -1.0, atol=1e-14)
    assert np.allclose(off[4:], 0.0, atol=1e-14)


def test_stiffness_positive_definite():
    for mesh in (build_disc_mesh(level=1), build_square_mesh(level=2)):
        dense = assemble_stiffness(mesh).toarray()
        assert np.linalg.eigvalsh(dense).min() > 0


def _moved_mesh(build, level, seed):
    """A hand-built copy of ``build(level)``, interior vertices moved by up to 0.3 h.

    It keeps the level of the mesh it copies, but has no parent.
    """
    base = build(level=level)
    rng = np.random.default_rng(seed)
    vertices = base.vertices.copy()
    inner = ~base.boundary
    angle = rng.uniform(0.0, 2.0 * np.pi, inner.sum())
    radius = rng.uniform(0.0, 0.3 * base.h, inner.sum())
    vertices[inner] += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return Mesh(vertices, base.cells, base.boundary, level=level)


@settings(max_examples=40, deadline=None)
@given(
    build=st.sampled_from([build_disc_mesh, build_square_mesh]),
    level=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    refined=st.booleans(),
)
def test_factorize_matches_elimination_oracle(build, level, seed, refined):
    # the assembled stiffness of a moved mesh, solved densely alone or, on
    # its refinement past level 2, by multigrid down to the moved mesh
    mesh = _moved_mesh(build, level, seed)
    assume(np.all(mesh.cell_areas() > 0.0))
    if refined:
        mesh = refine_uniform(mesh)
    assume(len(mesh.interior_vertices()) <= fem.DENSE_LIMIT)
    matrix = assemble_stiffness(mesh)
    b = np.random.default_rng(seed).standard_normal(matrix.shape[0])
    x = factorize(mesh).solve(b)
    want = gaussian_elimination(matrix.toarray(), b)
    assert x.shape == want.shape
    assert np.all(np.abs(x - want) <= 1e-12 * np.max(np.abs(want), initial=0.0))


def test_factorize_identity_and_zero_rhs():
    # a zero right-hand side returns zeros, with no iteration, on every path
    for level in (1, 3):
        mesh = build_disc_mesh(level=level)
        fact = factorize(mesh)
        zero = np.zeros(len(mesh.interior_vertices()))
        assert np.array_equal(fact.solve(zero), zero)
        assert fact.iterations == [0]


def test_factorize_rejects_indefinite(monkeypatch):
    # the two checks that stay: a bottom without a Cholesky factor, and a
    # CG curvature p.Ap <= 0, here of a handle whose matrix was negated
    # after setup
    mesh = build_disc_mesh(level=3)
    fact = factorize(mesh)
    fact.mat = -fact.mat
    with pytest.raises(FactorizationError, match="not positive definite"):
        fact.solve(load_point(mesh, (0.3, 0.6)))

    def no_factor(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    with pytest.raises(FactorizationError, match="not positive definite"):
        factorize(mesh)


@pytest.mark.parametrize("entries", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 1.0], [1.0, 1.0]],
], ids=["nan", "inf", "singular"])
def test_factorize_failures_are_typed(entries):
    # a matrix is not a mesh: a TypeError, before any of its entries is read
    with pytest.raises(TypeError, match="takes a Mesh"):
        factorize(sp.csr_matrix(np.array(entries)))


def test_solve_residual_contract():
    mesh = build_disc_mesh(level=4)
    matrix = assemble_stiffness(mesh)
    fact = factorize(mesh)
    rng = np.random.default_rng(0)
    for _ in range(3):
        b = rng.standard_normal(matrix.shape[0])
        x = fact.solve(b)
        residual = np.max(np.abs(matrix @ x - b))
        assert residual <= fact.RESIDUAL_CONTRACT * np.max(np.abs(b))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("level", [2, 4])
def test_solve_rejects_non_finite_rhs(level, bad):
    # a caller's error, told apart from a matrix outside the SPD contract
    # before any iteration, and without a floating-point warning
    mesh = build_disc_mesh(level=level)
    fact = factorize(mesh)
    b = load_point(mesh, (0.3, 0.6))
    b[np.argmax(b)] = bad
    with np.errstate(all="raise"), pytest.raises(ValueError, match="non-finite"):
        fact.solve(b)
    assert fact.iterations == []


def test_direct_matches_dense_solve():
    # level 2 takes the dense solve alone, level 3 one V-cycle level above it
    for level in (2, 3):
        mesh = build_disc_mesh(level=level)
        fact = factorize(mesh)
        assert len(fact._levels) == level - fem.COARSE_LEVEL
        for b in (load_smooth(mesh, lambda p: np.ones(len(p))), load_point(mesh, (0.3, 0.6))):
            dense_x = np.linalg.solve(assemble_stiffness(mesh).toarray(), b)
            x = fact.solve(b)
            assert np.max(np.abs(x - dense_x)) <= 1e-12 * np.max(np.abs(dense_x))


MULTIGRID_MESHES = {
    (build, level): build(level=level)
    for build in (build_disc_mesh, build_square_mesh)
    for level in (3, 4, 5)
}
MULTIGRID_SYSTEMS = {}


def multigrid_system(key):
    """Assembled matrix with its multigrid handle and its sparse LU, cached."""
    if key not in MULTIGRID_SYSTEMS:
        mesh = MULTIGRID_MESHES[key]
        matrix = assemble_stiffness(mesh)
        MULTIGRID_SYSTEMS[key] = matrix, factorize(mesh), sparse_lu(matrix)
    return MULTIGRID_SYSTEMS[key]


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(list(MULTIGRID_MESHES)),
    kind=st.sampled_from(["random", "point", "vertex", "midpoint"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_multigrid_matches_coarse_lu_property(key, kind, seed):
    matrix, multigrid, direct = multigrid_system(key)
    mesh = MULTIGRID_MESHES[key]
    assert multigrid._levels
    rng = np.random.default_rng(seed)
    interior = mesh.vertices[mesh.interior_vertices()]
    if kind == "random":
        b = rng.standard_normal(matrix.shape[0])
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
    residual = np.max(np.abs(matrix @ x - b))
    assert residual <= multigrid.RESIDUAL_CONTRACT * np.max(np.abs(b))
    # the stop rule, not only the contract: a normwise backward error near
    # machine precision
    assert residual <= 1e-14 * np.max(abs(matrix) @ np.abs(x) + np.abs(b))


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
    fact = factorize(mesh)
    b = load_smooth(mesh, lambda p: np.ones(len(p)))
    x = fact.solve(b)
    assert fact.iterations[-1] > 1
    assert np.max(np.abs(assemble_stiffness(mesh) @ x - b)) <= fact.RESIDUAL_CONTRACT * np.max(np.abs(b))


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_multigrid_iterations_do_not_grow_with_level(build):
    rng = np.random.default_rng(5)
    for level in range(3, 8):
        mesh = build(level=level)
        fact = factorize(mesh)
        assert len(fact._levels) == level - fem.COARSE_LEVEL
        fact.solve(rng.standard_normal(fact.mat.shape[0]))
        fact.solve(load_point(mesh, (0.5 + 1e-3, 0.5 - 2e-3)))
        assert len(fact.iterations) == 2
        assert max(fact.iterations) <= 15, (level, fact.iterations)


def test_coarse_and_plain_matrices_use_the_dense_solve_alone():
    # a mesh on or below level 2 is its own bottom, solved by one product
    # with the inverse of its Cholesky factor
    for build, level in ((build_disc_mesh, 0), (build_disc_mesh, 2), (build_square_mesh, 1),
                         (build_square_mesh, 2)):
        fact = factorize(build(level=level))
        assert fact._levels == []
        fact.solve(np.ones(fact.mat.shape[0]))
        assert fact.iterations == [1]


def _traced_peak_of_refusal(call, error, match):
    """The traced peak of ``call()``, which must raise ``error`` matching ``match``."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_limit_raises_before_any_dense_array():
    level4 = build_disc_mesh(level=4)
    root = Mesh(level4.vertices, level4.cells, level4.boundary, level=4)
    assert len(root.interior_vertices()) > fem.DENSE_LIMIT
    peak = _traced_peak_of_refusal(lambda: factorize(root), FactorizationError, "DENSE_LIMIT")
    # the dense array would take 8 n^2 bytes; not one of its rows is formed,
    # and the refusal comes before the stiffness is assembled
    assert peak < 8 * (fem.DENSE_LIMIT + 1)


def test_hierarchy_on_a_large_hand_built_root_raises():
    # the parentless root of the chain is the bottom, past the dense limit
    level4 = build_disc_mesh(level=4)
    root = Mesh(level4.vertices, level4.cells, level4.boundary, level=4)
    assert len(root.interior_vertices()) > fem.DENSE_LIMIT
    with pytest.raises(FactorizationError, match="DENSE_LIMIT"):
        factorize(refine_uniform(root))
    # the same mesh built by refinement has a bottom at COARSE_LEVEL
    assert len(factorize(level4)._levels) == 4 - fem.COARSE_LEVEL


def test_factorize_makes_only_the_level_2_bottom_dense(monkeypatch):
    # the hierarchy of a mesh's refinement chain makes only its level-2
    # bottom (49 dofs on the disc, 9 on the square) dense and factors it,
    # once per call
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: factored.append(a.shape) or cholesky(a))
    for build, bottom in ((build_disc_mesh, 49), (build_square_mesh, 9)):
        factored.clear()
        for level in range(3, 8):
            assert len(factorize(build(level=level))._levels) == level - fem.COARSE_LEVEL
        assert factored == [(bottom, bottom)] * 5


@pytest.mark.parametrize("kind", ["assembled", "scipy", "none"])
def test_factorize_refuses_other_matrices_before_any_dense_array(kind):
    # the CSR that assemble_stiffness returns, a scipy matrix or None is
    # not a mesh: refused by type before any array of a matrix's size is
    # formed, not even one row of a dense one
    mesh = build_disc_mesh(level=4)
    own = assemble_stiffness(mesh)
    matrix = {"assembled": own, "scipy": sp.csr_matrix(own.toarray()), "none": None}[kind]
    peak = _traced_peak_of_refusal(lambda: factorize(matrix), TypeError, "takes a Mesh")
    assert peak < 8 * own.shape[0]


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


def test_load_smooth_peak_memory_on_one_cpu(monkeypatch):
    # each chunk contracts its values into the cell loads, so no array of
    # every node's value is formed.  On a level-7 disc mesh, its areas and
    # bins cached, the load peaked at 65 bytes a cell on one CPU (89 with
    # that array); the bound leaves 15 % over it
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 1)
    mesh = build_disc_mesh(level=7)
    source = ExactSolution().source
    load_smooth(mesh, source)
    tracemalloc.start()
    try:
        load_smooth(mesh, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 75 * mesh.n_cells


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


def test_evaluate_and_l2_norm_take_only_fe_functions():
    # both once read a cellwise field's cell values at vertex indices
    mesh = build_disc_mesh(level=2)
    q = CellwiseFunction(mesh, np.arange(float(mesh.n_cells)))
    assert q((0.3, 0.5)) == 50.0
    with pytest.raises(TypeError, match="FeFunction"):
        evaluate(q, (0.3, 0.5))
    with pytest.raises(TypeError, match="FeFunction"):
        l2_norm(q)


@settings(max_examples=150, deadline=None)
@given(
    build=st.sampled_from([build_disc_mesh, build_square_mesh]),
    level=st.integers(0, 3),
    edge=st.integers(0, 2**32 - 1),
    chord=st.booleans(),
    t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-9, 1.0 - 1e-9)),
)
def test_load_point_on_edges_and_vertices(build, level, edge, chord, t):
    # a point x = (1 - t) p + t q of an edge (p, q) has the load
    # (1 - t) e_p + t e_q on the dofs: the zero vector on a chord, an
    # interior edge between two boundary vertices, and a ValueError exactly
    # on a boundary edge or a boundary vertex.  Chords are few, so half the
    # draws take one
    mesh = build(level=level)
    edges, counts = mesh.edges()
    if chord:
        picked = np.flatnonzero((counts == 2) & mesh.boundary[edges].all(axis=1))
        assume(len(picked))
        edge = picked[edge % len(picked)]
    else:
        edge %= len(edges)
    p, q = edges[edge]
    x = (1.0 - t) * mesh.vertices[p] + t * mesh.vertices[q]
    at_vertex = {0.0: p, 1.0: q}.get(t)
    on_boundary = mesh.boundary[at_vertex] if at_vertex is not None else counts[edge] == 1
    if on_boundary:
        with pytest.raises(ValueError, match="boundary"):
            load_point(mesh, x)
        return
    dof = mesh.dof_map()
    expected = np.zeros(len(mesh.interior_vertices()))
    for vertex, weight in ((p, 1.0 - t), (q, t)):
        if dof[vertex] >= 0:
            expected[dof[vertex]] += weight
    load = load_point(mesh, x)
    assert np.max(np.abs(load - expected), initial=0.0) <= 1e-12


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


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_from_dofs_puts_the_dofs_on_the_interior_and_zeros_on_the_boundary(build):
    mesh = build(level=3)
    interior = mesh.interior_vertices()
    dofs = np.random.default_rng(3).standard_normal(len(interior))
    field = FeFunction.from_dofs(mesh, dofs)
    assert field.mesh is mesh
    assert np.array_equal(field.values[interior].view(np.int64), dofs.view(np.int64))
    assert np.array_equal(field.values[mesh.boundary].view(np.int64),
                          np.zeros(mesh.boundary.sum(), dtype=np.int64))
    assert np.array_equal(field.interior(), dofs)
    assert not field.values.flags.writeable
    with pytest.raises(ValueError):
        field.values[interior[0]] = 1.0
    dofs[0] = 7.0
    assert field.values[interior[0]] != 7.0
    # a scalar or a vector of another length is not broadcast
    for bad in (1.0, dofs[:-1], np.append(dofs, 0.0), np.zeros(mesh.n_vertices)):
        with pytest.raises(ValueError, match="dof value count"):
            FeFunction.from_dofs(mesh, bad)


def test_stiffness_cached_per_mesh_and_read_only():
    # the assembly count down a study chain is in test_cli
    mesh = build_disc_mesh(level=3)
    first, second = assemble_stiffness(mesh), assemble_stiffness(mesh)
    assert second is first
    fresh = fem._stiffness_csr(mesh)
    assert (fresh != first).nnz == 0
    for array in (first.data, first.indices, first.indptr):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        first.data[0] = 1.0
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    with pytest.raises(ValueError):
        first *= 2.0
    assert (first != fresh).nnz == 0


TIMEOUT_S = 30.0


def counted_assembly(monkeypatch, before=lambda mesh: None):
    """Patch ``_stiffness_csr`` to record each mesh and call ``before(mesh)`` ahead of it."""
    calls = []
    assemble = fem._stiffness_csr

    def counted(mesh):
        calls.append(mesh)
        before(mesh)
        return assemble(mesh)

    monkeypatch.setattr(fem, "_stiffness_csr", counted)
    return calls


def test_concurrent_assembly_of_one_mesh_runs_once(monkeypatch):
    # two threads past a barrier ask for one fresh mesh's stiffness; the
    # assembly is slowed, so a second one would start if the cache let it
    mesh = build_disc_mesh(level=4)
    calls = counted_assembly(monkeypatch, lambda m: time.sleep(0.05))
    meet = threading.Barrier(2, timeout=TIMEOUT_S)

    def assemble(_):
        meet.wait()
        return assemble_stiffness(mesh)

    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(assemble, range(2), timeout=TIMEOUT_S)
    assert calls == [mesh]
    assert second is first
    for array in (first.data, first.indices, first.indptr):
        assert not array.flags.writeable


def test_assemblies_of_two_meshes_do_not_wait_for_each_other(monkeypatch):
    # each assembly waits until the other has started: under one lock for
    # every mesh, the barrier would break
    meshes = build_disc_mesh(level=2), build_disc_mesh(level=3)
    meet = threading.Barrier(2, timeout=TIMEOUT_S)
    calls = counted_assembly(monkeypatch, lambda m: meet.wait())
    with ThreadPoolExecutor(max_workers=2) as pool:
        matrices = list(pool.map(assemble_stiffness, meshes, timeout=TIMEOUT_S))
    assert sorted(m.level for m in calls) == [2, 3]
    assert all(matrix is mesh._stiffness for matrix, mesh in zip(matrices, meshes))


def test_many_threads_assemble_each_mesh_once(monkeypatch):
    # more threads than cores, switching every microsecond, each asking for
    # every stiffness of a fresh chain in its own order: one assembly per
    # mesh, and one shared matrix
    meshes = [build_disc_mesh(level=0)]
    for _ in range(3):
        meshes.append(refine_uniform(meshes[-1]))
    calls = counted_assembly(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            runs = list(pool.map(
                lambda seed: [(m, assemble_stiffness(m)) for m in
                              np.random.default_rng(seed).permutation(meshes)],
                range(6), timeout=TIMEOUT_S))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(m.level for m in calls) == [0, 1, 2, 3]
    shared = {id(mesh): mat for mesh, mat in runs[0]}
    for run in runs:
        for mesh, mat in run:
            assert mat is shared[id(mesh)]


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_stiffness_matches_einsum_reference_bitwise(build):
    # the rows go to sum_duplicates in the order coo_matrix(...).tocsr()
    # leaves them, so every byte of the three arrays is a COO assembly's
    mesh = build(level=0)
    for level in range(8):
        if level:
            mesh = refine_uniform(mesh)
        ours, reference = fem._stiffness_csr(mesh), reference_stiffness_csr(mesh)
        assert np.array_equal(ours.data.view(np.int64), reference.data.view(np.int64))
        for name in ("indices", "indptr"):
            got, want = getattr(ours, name), getattr(reference, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_stiffness_assembly_peak_memory():
    # the CSR arrays with duplicates are built in place of COO triplets,
    # and the columns are taken after the element matrices are freed.  On
    # a fresh level-6 disc mesh, whose cached areas and scatter bins the
    # call builds, the peak measured 243 bytes per cell (322 with the COO
    # triplets alive through the conversion); the bound leaves 15 %
    mesh = build_disc_mesh(level=6)
    tracemalloc.start()
    try:
        fem._stiffness_csr(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 280 * mesh.n_cells


def _split_triangle_mesh(vertex, cells):
    """The unit triangle split into three cells at ``vertex``, an interior dof."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], vertex])
    return Mesh(vertices, cells, np.array([True, True, True, False]))


@pytest.mark.parametrize("vertex, cells", [
    ((0.5, 0.0), [[0, 1, 3], [1, 2, 3], [2, 0, 3]]),
    ((0.2, 0.3), [[0, 1, 3], [1, 2, 3], [0, 2, 3]]),
], ids=["zero-area", "clockwise"])
def test_assembly_rejects_a_cell_without_positive_area(vertex, cells):
    # the assembly is where the stiffness's SPD guarantee is checked; a
    # failed check caches no matrix
    mesh = _split_triangle_mesh(vertex, cells)
    with pytest.raises(fem.AssemblyError, match="nonpositive area"):
        assemble_stiffness(mesh)
    assert mesh._stiffness is None


def test_assembly_rejects_a_non_finite_entry():
    # a sliver of positive area 5e-321 whose entries overflow
    mesh = _split_triangle_mesh((0.5, 1e-320), [[0, 1, 3], [1, 2, 3], [2, 0, 3]])
    assert np.all(mesh.cell_areas() > 0.0)
    with np.errstate(over="ignore"), pytest.raises(fem.AssemblyError, match="non-finite"):
        assemble_stiffness(mesh)


@settings(max_examples=60, deadline=None)
@given(
    build=st.sampled_from([build_disc_mesh, build_square_mesh]),
    level=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    refined=st.booleans(),
)
def test_assembled_stiffness_is_exactly_symmetric_finite_and_positive_on_the_diagonal(
    build, level, seed, refined
):
    # what factorize trusts the mesh's own stiffness for, checked to the
    # bit on hand-built meshes whose interior vertices moved by up to
    # 0.3 h, and on their refinements
    mesh = _moved_mesh(build, level, seed)
    assume(np.all(mesh.cell_areas() > 0.0))
    if refined:
        mesh = refine_uniform(mesh)
    matrix = assemble_stiffness(mesh)
    assert (matrix != matrix.T).nnz == 0
    assert np.all(np.isfinite(matrix.data))
    assert np.all(matrix.diagonal() > 0.0)


def _shuffled(mesh, order, turns):
    """``mesh`` with its cell rows in ``order``, each turned ``turns`` slots."""
    cells = mesh.cells[order]
    rows = np.arange(len(cells))[:, None]
    cells = cells[rows, (np.arange(3) + np.asarray(turns)[:, None]) % 3]
    return Mesh(mesh.vertices, cells, mesh.boundary)


SHUFFLED_BASES = (build_disc_mesh(level=2), build_square_mesh(level=2),
                  split_unit_triangle_mesh(),
                  Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                       np.ones(3, dtype=bool)))


@settings(max_examples=60, deadline=None)
@given(base=st.integers(0, len(SHUFFLED_BASES) - 1), seed=st.integers(0, 2**32 - 1))
def test_stiffness_matches_coo_assembly_on_shuffled_cells(base, seed):
    # cell rows in any order, vertices turned cyclically (the orientation
    # kept): each dof's incidences still go by cell number, as in a COO
    # conversion, whatever the slots; the last base has no dof at all
    mesh = SHUFFLED_BASES[base]
    rng = np.random.default_rng(seed)
    shuffled = _shuffled(mesh, rng.permutation(mesh.n_cells),
                         rng.integers(0, 3, mesh.n_cells))
    ours = fem._stiffness_csr(shuffled)
    reference = coo_stiffness(shuffled, row_wise_element_stiffness(shuffled))
    for name in ("data", "indices", "indptr"):
        got, want = getattr(ours, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_planar_element_matrices_match_the_row_wise_formula(build):
    # plane (i, j) of the (3, 3, n) element matrices is entry (i, j) of
    # the row-wise (n, 3, 3) ones, bit for bit
    mesh = build(level=0)
    for level in range(6):
        if level:
            mesh = refine_uniform(mesh)
        planes = fem._element_stiffness(mesh, mesh.cell_areas())
        assert planes.shape == (3, 3, mesh.n_cells)
        want = row_wise_element_stiffness(mesh)
        assert np.array_equal(planes.transpose(2, 0, 1).view(np.int64), want.view(np.int64))


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


def test_scatter_bins_are_built_once_per_mesh():
    mesh = build_disc_mesh(level=2)
    bins = mesh._scatter_bins()
    assert bins is mesh._scatter_bins() and not bins.flags.writeable
    n = len(mesh.interior_vertices())
    dof = mesh.dof_map()[mesh.cells]
    assert np.array_equal(bins, np.where(dof >= 0, dof, n))


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


@settings(max_examples=60, deadline=None)
@given(
    build=st.sampled_from([build_disc_mesh, build_square_mesh]),
    level=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
)
def test_cell_means_keep_the_bits_of_the_whole_gather(build, level, seed, zeros):
    # the projection sums the three vertex planes; the whole (n_c, 3)
    # gather and its row means give the same bits, also on zeros of
    # either sign
    mesh = build(level=level)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(mesh.n_vertices)
    zero = rng.random(mesh.n_vertices) < zeros
    values[zero] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zero)))
    means = l2_project_cells(mesh, FeFunction(mesh, values)).values
    want = values[mesh.cells].mean(axis=1)
    assert np.array_equal(means.view(np.int64), want.view(np.int64))


def test_l2_project_cells_rejects_a_field_of_another_mesh():
    # the level-1 disc's cells index vertices that the level-2 disc has
    # too, so a field on the finer mesh gave 32 means with no error
    coarse, fine = build_disc_mesh(level=1), build_disc_mesh(level=2)
    with pytest.raises(ValueError, match="another mesh"):
        l2_project_cells(coarse, FeFunction(fine, np.arange(fine.n_vertices, dtype=float)))


def test_load_cellwise_rejects_a_field_of_another_mesh():
    # a field on a disc of the same cell count elsewhere gave a load with
    # no error; the mesh's own field and plain cell values still load
    mesh, moved = build_disc_mesh(level=2), build_disc_mesh(center=(3.0, 1.0), level=2)
    with pytest.raises(ValueError, match="another mesh"):
        load_cellwise(mesh, CellwiseFunction(moved, np.ones(moved.n_cells)))
    own = load_cellwise(mesh, CellwiseFunction(mesh, np.ones(mesh.n_cells)))
    assert np.array_equal(own, load_cellwise(mesh, np.ones(mesh.n_cells)))


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
    # the free-part mass of one crossed cell, the only cells whose mass the
    # Jacobian kernel cuts, exact from the fan of its free part, against a
    # clipped polygon integrated by a fan of degree-4 rules; some vertex
    # values lie exactly on a bound.  The cell is a mesh of its own, all
    # three vertices dofs, so the Gram matrix of the unit fields is its mass
    vertices = scale * (np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
                        + np.reshape(corners, (3, 2)))
    e1, e2 = vertices[1] - vertices[0], vertices[2] - vertices[0]
    area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    values = np.array(values)
    for j, which in enumerate(on_bound):
        if which is not None and np.isfinite(bounds[which]):
            values[j] = bounds[which]
    lower, upper = bounds
    cell = Mesh(vertices, np.array([[0, 1, 2]]), np.zeros(3, dtype=bool))
    with np.errstate(all="raise", under="ignore"):
        free = fem._clipped_integrals(cell, -values, lower, upper, 1.0)[2]
        assume(free[0][0] == fem._CROSSED)
        mass = fem._free_mass_gram(cell, free, np.eye(3))
    reference = clipped_polygon_mass(vertices, values, lower, upper, rule_degree4())
    assert np.max(np.abs(mass - reference)) <= 1e-14 * area


CLASSIFY_MESHES = [build_disc_mesh(level=0)]
for _ in range(3):
    CLASSIFY_MESHES.append(refine_uniform(CLASSIFY_MESHES[-1]))


@settings(max_examples=100, deadline=None)
@given(
    level=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(1e-300, 1e300),
    bounds=BOUND_PAIRS,
    wrapped=st.booleans(),
    blowup=st.sampled_from([None, np.inf, -np.inf, np.nan, 1e308]),
)
def test_classify_cells_keeps_the_bits_of_the_whole_gather(level, seed, alpha, bounds,
                                                          wrapped, blowup):
    # the values gathered a row at a time against the one-line gather of
    # the cells' (3, n_c) copy, bit for bit; a non-finite or overflowing
    # -w/alpha takes the all-nan branch in both
    mesh = CLASSIFY_MESHES[level]
    rng = np.random.default_rng(seed)
    w = rng.uniform(-2.0, 2.0, mesh.n_vertices) * rng.choice([1e-300, 1.0, 1e300])
    if blowup is not None:
        w[rng.integers(mesh.n_vertices)] = blowup
    lower, upper = bounds
    with np.errstate(all="ignore"):
        got = fem._classify_cells(mesh, FeFunction(mesh, w) if wrapped else w,
                                  lower, upper, alpha)
        want = whole_gather_cell_values(mesh, w, alpha)
    assert got[1].shape == want.shape
    assert np.array_equal(got[1].view(np.int64), want.view(np.int64))


def test_classify_cells_gathers_without_a_copy_of_the_cells():
    # on a level-6 disc mesh the row gather's peak measured 1.00 MiB: the
    # 0.75 MiB of planes and one 0.25 MiB column of indices, the bound with
    # 1 % more.  The one-line gather peaked at 1.50 MiB, a (3, n_c) copy of
    # the cells beside the planes.  The call's peak, 1.06 MiB, is set by
    # the planes, the labels and two masks; shifted by their clamped cell
    # means, with the shift and the shifted bounds, it was 1.81 MiB
    mesh = build_disc_mesh(level=6)
    w = np.random.default_rng(0).uniform(-1.0, 1.0, mesh.n_vertices)
    planes = 3 * mesh.n_cells * 8
    tracemalloc.start()
    try:
        values = mesh._vertex_planes(w)
        peak = tracemalloc.get_traced_memory()[1]
        del values
        tracemalloc.reset_peak()
        fem._classify_cells(mesh, w, -0.2, 0.2, 0.7)
        classify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - planes <= 1.01 * mesh.n_cells * 8
    assert classify_peak <= 1.05 * 1.06 * 2**20


def test_clipped_integrals_peak_memory():
    # the field integrated as it is, with no whole-mesh shift, shifted
    # bounds or shift terms.  On a level-7 disc mesh, its areas cached,
    # with -w the disc's Green's function capped at 1 (alpha 1, bounds
    # +-0.2, so that cells are free, crossed and at a bound), the call
    # peaked at 67 bytes a cell (105 with the shift); the bound leaves 12 %
    # over it
    mesh = build_disc_mesh(level=7)
    w = -np.minimum(ExactSolution().greens(mesh.vertices), 1.0)
    fem._clipped_integrals(mesh, w, -0.2, 0.2, 1.0)
    tracemalloc.start()
    try:
        fem._clipped_integrals(mesh, w, -0.2, 0.2, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 75 * mesh.n_cells


def test_evaluate_peak_memory():
    # the mass loads are written into the planes of a cell-major array, so
    # the scatter ravels the loads with no copy.  On a level-7 disc mesh,
    # at the benchmark problem with alpha 1 and bounds +-0.2 and c = 1,
    # after a first call has cached the areas and the scatter bins, the
    # residual evaluation peaked at 70 bytes a cell (85 with the 24-byte
    # copy of the loads); the bound leaves 7 % over it
    mesh = build_disc_mesh(level=7)
    problem = benchmark_problem(ExactSolution(alpha=1.0, lower=-0.2, upper=0.2))
    system = ReducedSystem(problem, mesh, VARIATIONAL)
    system.evaluate(np.ones(1))
    tracemalloc.start()
    try:
        system.evaluate(np.ones(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 75 * mesh.n_cells


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.1, 10.0),
    bounds=BOUND_PAIRS,
    snapped=st.floats(0.0, 0.6),
)
def test_free_mass_gram_matches_clipped_polygon_on_a_mesh(seed, alpha, bounds, snapped):
    # the Jacobian kernel over a mesh: every cell classified, free-part
    # masses applied to three dof fields, zero on the boundary
    lower, upper = bounds
    mesh = LEVEL1_MESH
    rng = np.random.default_rng(seed)
    w = alpha * rng.uniform(-2.0, 2.0, mesh.n_vertices)
    levels = [b for b in bounds if np.isfinite(b)]
    if levels:
        for i in np.flatnonzero(rng.random(mesh.n_vertices) < snapped):
            w[i] = _on_level(levels[rng.integers(len(levels))], alpha)
    interior = mesh.interior_vertices()
    fields = rng.standard_normal((3, len(interior)))
    with np.errstate(all="raise", under="ignore"):
        free = fem._clipped_integrals(mesh, w, lower, upper, alpha)[2]
        gram = fem._free_mass_gram(mesh, free, fields)
    nodal = np.zeros((3, mesh.n_vertices))
    nodal[:, interior] = fields
    reference = np.zeros((3, 3))
    for cell in mesh.cells:
        mass = clipped_polygon_mass(mesh.vertices[cell], -w[cell] / alpha, lower, upper,
                                    rule_degree4())
        reference += nodal[:, cell] @ mass @ nodal[:, cell].T
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


# a crossed cell's loads and squares may differ from the polygon clip's by
# this many eps times the cell's value scale and area (squares: scale^2),
# and by as many steps of the subnormal spacing, where those underflow
CROSSED_EPS = 8


def _assert_near_polygon(mesh, w, lower, upper, alpha, loads, squares, cells):
    """Loads and squares of ``cells`` against ``polygon_clipped_integrals``.

    The value scale of a cell is the largest magnitude of its finite bounds
    and its clamped vertex values: the cut geometry integrates values
    within the bounds only, so its error does not grow as alpha shrinks.
    """
    want_loads, want_squares = polygon_clipped_integrals(mesh, w, lower, upper, alpha)
    scale = np.max(np.abs(np.clip(-np.asarray(w)[mesh.cells] / alpha, lower, upper)), axis=1)
    for bound in (lower, upper):
        if np.isfinite(bound):
            scale = np.maximum(scale, abs(bound))
    tol = CROSSED_EPS * np.finfo(float).eps * scale * mesh.cell_areas()
    floor = CROSSED_EPS * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(loads - want_loads)[cells] <= tol[cells, None] + floor)
    assert np.all(np.abs(squares - want_squares)[cells] <= (tol * scale)[cells] + floor)


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
    # the row-wise ramp identity on free cells and cells at a bound, bit
    # for bit, and on crossed cells the cut geometry against the polygon
    # clip; the classes against the ramp counts of the rows
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
        loads, squares, _ = fem._clipped_integrals(mesh, w, lower, upper, alpha)
    want_loads, want_squares = reference_clipped_integrals(mesh, w, lower, upper, alpha)
    labels = fem._classify_cells(mesh, w, lower, upper, alpha)[0]
    plane = labels != fem._CROSSED
    assert np.array_equal(loads[plane], want_loads[plane])
    if EINSUM_OUTER_FIRST:
        assert np.array_equal(squares[plane].view(np.int64),
                              want_squares[plane].view(np.int64))
    else:
        # another order of summation: 4 eps sum_j |v_j L_j| per cell
        rows = -np.asarray(w)[mesh.cells] / alpha
        mass = mesh.cell_areas()[:, None] / 12.0 * (rows + rows.sum(axis=1, keepdims=True))
        bound = 4.0 * np.finfo(float).eps * np.sum(np.abs(rows * mass), axis=1)
        assert np.all(np.abs(squares - want_squares)[plane] <= bound[plane])
    _assert_near_polygon(mesh, w, lower, upper, alpha, loads, squares, ~plane)
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
        loads, squares, _ = fem._clipped_integrals(*args)
        want_loads, want_squares = reference_clipped_integrals(*args)
        crossed = fem._classify_cells(*args)[0] == fem._CROSSED
        assert np.array_equal(loads[~crossed], want_loads[~crossed])
        if EINSUM_OUTER_FIRST:
            assert np.array_equal(squares[~crossed].view(np.int64),
                                  want_squares[~crossed].view(np.int64))
        assert np.count_nonzero(crossed) > 0
        _assert_near_polygon(*args, loads, squares, crossed)


@settings(max_examples=100, deadline=None)
@given(
    mesh_index=st.integers(0, len(COARSE_MESHES) - 1),
    seed=st.integers(0, 2**32 - 1),
    log_alpha=st.floats(-30.0, 0.0),
    bounds=BOUND_PAIRS,
    snapped=st.floats(0.0, 0.8),
)
def test_clipped_integrals_match_polygon_for_any_alpha(mesh_index, seed, log_alpha,
                                                       bounds, snapped):
    # every cell against the polygon clip for alpha log-uniform in
    # [1e-30, 1], where -w/alpha spans up to 4e30 on a cell; some vertex
    # values on a bound and one ulp to either side of it.  The scanline
    # oracle merges breakpoints closer than 1e-14, so it is no reference
    # here
    alpha = 10.0**log_alpha
    lower, upper = bounds
    mesh = COARSE_MESHES[mesh_index]
    rng = np.random.default_rng(seed)
    w = rng.uniform(-2.0, 2.0, mesh.n_vertices)
    levels = [b for b in bounds if np.isfinite(b)]
    if levels:
        for i in np.flatnonzero(rng.random(mesh.n_vertices) < snapped):
            level = levels[rng.integers(len(levels))]
            w[i] = _on_level(_steps_from(level, int(rng.integers(-1, 2))), alpha)
    with np.errstate(all="raise", under="ignore"):
        loads, squares, _ = fem._clipped_integrals(mesh, w, lower, upper, alpha)
    _assert_near_polygon(mesh, w, lower, upper, alpha, loads, squares,
                         np.ones(mesh.n_cells, dtype=bool))


@pytest.mark.parametrize("bad, alpha", [(np.inf, 1.0), (-np.inf, 1.0), (np.nan, 1.0),
                                        (1.0, 1e-320)])
def test_non_finite_field_gives_nan_integrals(bad, alpha):
    # an infinite, nan or overflowing -w/alpha is found where v is formed:
    # every load and square is nan, with no floating-point warning, never
    # the finite loads of clamped infinite values
    w = np.full(LEVEL1_MESH.n_vertices, 0.1)
    w[LEVEL1_MESH.interior_vertices()[0]] = bad
    with np.errstate(all="raise"):
        loads, squares, _ = fem._clipped_integrals(LEVEL1_MESH, w, -0.2, 0.2, alpha)
    assert np.all(np.isnan(loads)) and np.all(np.isnan(squares))


def test_galerkin_residual_benchmark_state():
    exact = ExactSolution()
    mesh = build_disc_mesh(level=3)
    fact = factorize(mesh)
    b = load_smooth(mesh, exact.source) + load_cellwise(
        mesh, centroid_project(mesh, exact.control).values
    )
    u = fact.solve(b)
    assert np.max(np.abs(assemble_stiffness(mesh) @ u - b)) <= 1e-9


def test_discrete_maximum_principle():
    mesh = build_disc_mesh(level=2)
    u = factorize(mesh).solve(load_smooth(mesh, lambda p: np.ones(len(p))))
    assert u.min() >= -1e-10


def test_greens_field_positive_and_growing():
    # the discrete point-source solution is positive and grows toward the
    # source like the continuous one
    mesh = build_disc_mesh(level=4)
    g = FeFunction.from_dofs(mesh, factorize(mesh).solve(load_point(mesh, (0.5, 0.5))))
    interior = g.values[~mesh.boundary]
    assert interior.min() > 0
    assert evaluate(g, (0.5, 0.5)) > evaluate(g, (0.52, 0.5)) > evaluate(
        g, (0.6, 0.5)
    ) > evaluate(g, (0.7, 0.5))
    norm = l2_norm(g)
    assert 0.05 < norm < 0.2
