import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptcontrol.mesh import (
    _ancestors,
    _physical_points,
    CapacityError,
    Mesh,
    MeshError,
    PointNotFoundError,
    QUASI_UNIFORMITY_CONSTANT,
    audit_mesh,
    build_disc_mesh,
    build_square_mesh,
    cell_centroids,
    format_mesh,
    locate_point,
    refine_uniform,
)
from ptcontrol.quadrature import rule_degree4, subdivided_rule

from oracles import (
    locate_point_scan,
    reference_cell_areas,
    reference_cell_centroids,
    reference_edges,
    reference_h,
    reference_refine,
)


def test_disc_level0_counts():
    mesh = build_disc_mesh(level=0)
    assert mesh.n_vertices == 9
    assert mesh.n_cells == 8
    # fan around the center vertex
    assert np.allclose(mesh.vertices[0], [0.5, 0.5])


def test_disc_level1_counts_via_edge_walk():
    # each refinement adds one vertex per unique edge and splits cells 4-way
    coarse = build_disc_mesh(level=0)
    edges, counts = coarse.edges()
    assert len(edges) == 16
    assert set(counts.tolist()) <= {1, 2}
    fine = build_disc_mesh(level=1)
    assert fine.n_vertices == coarse.n_vertices + len(edges)
    assert fine.n_cells == 4 * coarse.n_cells
    assert fine.n_vertices == 25
    assert fine.n_cells == 32


@pytest.mark.parametrize("level,n_vertices,n_cells", [
    (2, 81, 128),
    (3, 289, 512),
    (4, 1089, 2048),
])
def test_disc_counts(level, n_vertices, n_cells):
    mesh = build_disc_mesh(level=level)
    assert mesh.n_vertices == n_vertices
    assert mesh.n_cells == n_cells


def test_euler_formula_disk_topology():
    for level in range(4):
        mesh = build_disc_mesh(level=level)
        edges, _ = mesh.edges()
        assert mesh.n_vertices - len(edges) + mesh.n_cells == 1


def test_h_ratio_per_refinement_step():
    h = [build_disc_mesh(level=lv).h for lv in range(5)]
    ratios = [h[i + 1] / h[i] for i in range(4)]
    # the first step stretches one outer edge (the boundary midpoint gets
    # pushed out to the circle), so its ratio sits above the halving band;
    # the value is frozen here and all later steps halve cleanly
    assert ratios[0] == pytest.approx(0.5710699, abs=1e-6)
    for ratio in ratios[1:]:
        assert 0.45 <= ratio <= 0.55


def test_audit_passes_all_levels():
    for level in range(6):
        audit_mesh(build_disc_mesh(level=level))
    for level in range(5):
        audit_mesh(build_square_mesh(level=level))


def test_quasi_uniformity_constant():
    for level in range(7):
        mesh = build_disc_mesh(level=level)
        assert mesh.cell_areas().min() >= QUASI_UNIFORMITY_CONSTANT * mesh.h**2


def test_disc_areas_increase_to_disc_area():
    totals = [build_disc_mesh(level=lv).cell_areas().sum() for lv in range(6)]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert totals[-1] == pytest.approx(np.pi * 0.25, abs=1e-4)
    assert totals[-1] < np.pi * 0.25


def test_boundary_vertices_on_circle():
    mesh = build_disc_mesh(level=3)
    on_boundary = mesh.boundary
    radii = np.linalg.norm(mesh.vertices[on_boundary] - [0.5, 0.5], axis=1)
    assert np.max(np.abs(radii - 0.5)) <= 1e-12
    # interior vertices stay strictly inside
    inner = np.linalg.norm(mesh.vertices[~on_boundary] - [0.5, 0.5], axis=1)
    assert inner.max() < 0.5


def test_refinement_keeps_parent_vertices():
    for build in (build_disc_mesh, build_square_mesh):
        coarse = build(level=2)
        fine = refine_uniform(coarse)
        assert np.array_equal(fine.vertices[: coarse.n_vertices], coarse.vertices)


def test_ancestors_follow_the_refinement_chain():
    mesh = build_disc_mesh(level=4)
    chain = _ancestors(mesh, 1)
    assert chain[0] is mesh
    assert [m.level for m in chain] == [4, 3, 2, 1]
    for fine, coarse in zip(chain, chain[1:]):
        assert np.array_equal(fine.vertices[: coarse.n_vertices], coarse.vertices)
        assert fine.n_cells == 4 * coarse.n_cells
    # the chain ends at a mesh that refine_uniform did not make
    assert [m.level for m in _ancestors(mesh, 0)] == [4, 3, 2, 1, 0]
    base = Mesh(mesh.vertices, mesh.cells, mesh.boundary, level=4)
    assert _ancestors(base, 2) == [base]


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_edge_numbering_matches_row_wise_unique(build):
    # levels 0-6: Mesh.edges() and every refinement step against the
    # row-wise np.unique numbering, to the last bit
    mesh = build(level=0)
    for level in range(7):
        edges, _, counts = reference_edges(mesh.cells)
        got_edges, got_counts = mesh.edges()
        assert _bitwise_equal(got_edges, edges)
        assert _bitwise_equal(got_counts, counts)
        if level == 6:
            break
        fine = refine_uniform(mesh)
        vertices, cells, boundary, edges = reference_refine(mesh)
        assert _bitwise_equal(fine.vertices, vertices)
        assert _bitwise_equal(fine.cells, cells)
        assert _bitwise_equal(fine.boundary, boundary)
        assert _bitwise_equal(fine._edges, edges)
        mesh = fine


def test_square_refinement_moves_nothing():
    mesh = build_square_mesh(level=0)
    refined = refine_uniform(mesh)
    # every fine vertex is an old vertex or an exact edge midpoint
    old = {tuple(v) for v in mesh.vertices}
    edges, _ = mesh.edges()
    old |= {tuple(0.5 * (mesh.vertices[i] + mesh.vertices[j])) for i, j in edges}
    assert {tuple(v) for v in refined.vertices} == old


def test_children_block_layout():
    coarse = build_disc_mesh(level=1)
    fine = refine_uniform(coarse)
    areas = fine.cell_areas()
    coarse_areas = coarse.cell_areas()
    for k in range(coarse.n_cells):
        children = areas[4 * k : 4 * k + 4]
        if not coarse.boundary[coarse.cells[k]].any():
            # interior cells split into four equal copies, no snapping
            assert np.sum(children) == pytest.approx(coarse_areas[k], rel=1e-14)
            assert np.allclose(children, coarse_areas[k] / 4, rtol=1e-12)


def test_eight_fold_symmetry_of_vertex_set():
    mesh = build_disc_mesh(level=2)
    angle = np.pi / 4
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rotated = (mesh.vertices - [0.5, 0.5]) @ rot.T + [0.5, 0.5]
    original = {tuple(np.round(v, 12)) for v in mesh.vertices}
    assert {tuple(np.round(v, 12)) for v in rotated} == original


def test_locate_point_centroids():
    mesh = build_disc_mesh(level=2)
    rng = np.random.default_rng(3)
    centroids = cell_centroids(mesh)
    for k in rng.integers(0, mesh.n_cells, 20):
        x = centroids[k]
        found, lam = locate_point(mesh, x)
        assert found == k
        assert lam == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)


def test_locate_point_tie_breaks_to_lowest_cell():
    mesh = build_disc_mesh(level=0)
    k, lam = locate_point(mesh, (0.5, 0.5))
    assert k == 0
    assert lam == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)


def test_locate_point_outside_raises():
    mesh = build_disc_mesh(level=1)
    with pytest.raises(PointNotFoundError):
        locate_point(mesh, (1.5, 1.5))
    # inside the circle but outside the polygon hull (chord bulge)
    angle = np.pi / 16
    bulge = (0.5 + 0.497 * np.cos(angle), 0.5 + 0.497 * np.sin(angle))
    with pytest.raises(PointNotFoundError):
        locate_point(mesh, bulge)


def free_standing(mesh, scale, shift):
    """The mesh's cells on scaled and shifted vertices, without a domain."""
    return Mesh(mesh.vertices * scale + shift, mesh.cells, mesh.boundary)


# disc and square meshes of levels 0-5, and free-standing copies far from
# unit size and from the origin, where the box margin scales with them
LOCATE_MESHES = {
    **{("disc", level): build_disc_mesh(level=level) for level in range(6)},
    **{("square", level): build_square_mesh(level=level) for level in range(6)},
    **{(f"disc*{scale:g}+{shift:g}", 3): free_standing(build_disc_mesh(level=3), scale, shift)
       for scale, shift in ((1e-6, 0.0), (1e3, 0.0), (1.0, 1e4), (1e-3, -750.0))},
    **{(f"square*{scale:g}+{shift:g}", 3): free_standing(build_square_mesh(level=3), scale, shift)
       for scale, shift in ((1e5, 3e6), (2.0**-20, 0.5))},
}
LOCATE_KINDS = ["vertex", "midpoint", "near_edge", "sliver", "inside", "box"]


def assert_located_like_the_scan(mesh, x):
    expected = locate_point_scan(mesh, x)
    if expected is None:
        with pytest.raises(PointNotFoundError):
            locate_point(mesh, x)
        return
    k, lam = locate_point(mesh, x)
    assert k == expected[0]
    assert lam.dtype == expected[1].dtype and lam.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("key", [k for k in LOCATE_MESHES if k[1] <= 3], ids=str)
def test_locate_point_matches_scan_on_vertices_and_midpoints(key):
    # every vertex and every interior and boundary edge midpoint: the
    # points that several cells hold, where the lowest index must win
    mesh = LOCATE_MESHES[key]
    edges, _ = mesh.edges()
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    for x in np.vstack([mesh.vertices, midpoints]):
        assert_located_like_the_scan(mesh, x)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(LOCATE_MESHES, key=str)),
       kind=st.sampled_from(LOCATE_KINDS),
       index=st.integers(0, 2**31),
       t=st.floats(0.0, 1.0),
       u=st.floats(-1.0, 1.0),
       weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_locate_point_matches_scan(key, kind, index, t, u, weights):
    # vertices, edge midpoints, points within 1e-13 (relative to the mesh
    # size) of an edge, the slivers between a boundary chord and the
    # circle that refinement snaps to, points inside a cell and points
    # anywhere in and around the mesh's box
    mesh = LOCATE_MESHES[key]
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    size = float(np.max(hi - lo))
    corners = mesh.vertices[mesh.cells[index % mesh.n_cells]]
    a, b = corners[index % 3], corners[(index + 1) % 3]
    if kind == "sliver":
        edges, counts = mesh.edges()
        a, b = mesh.vertices[edges[counts == 1][index % np.count_nonzero(counts == 1)]]
    normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
    if kind == "vertex":
        x = mesh.vertices[index % mesh.n_vertices]
    elif kind == "midpoint":
        x = 0.5 * (a + b)
    elif kind == "near_edge":
        x = a + t * (b - a) + u * 1e-13 * size * normal
    elif kind == "sliver":
        # up to 0.04 of the mesh's width: a little past the sagitta of a
        # level-0 disc chord, 0.076 of the radius, on either side
        x = a + t * (b - a) + u * 0.04 * size * normal
    elif kind == "inside":
        w = np.asarray(weights) + 1e-3
        x = (w / w.sum()) @ corners
    else:
        x = lo - 0.2 * (hi - lo) + np.array([t, 0.5 * (u + 1.0)]) * 1.4 * (hi - lo)
    assert_located_like_the_scan(mesh, x)


def test_cell_centroid_is_vertex_mean():
    # the two coarse square cells (0,0)-(1,0)-(1,1) and (0,0)-(1,1)-(0,1)
    centroids = cell_centroids(build_square_mesh(level=0))
    assert np.allclose(centroids, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)
    # area-weighted cell centroids average to the centroid of the square
    mesh = build_square_mesh(level=3)
    areas = mesh.cell_areas()
    mean = areas @ cell_centroids(mesh) / areas.sum()
    assert np.allclose(mean, [0.5, 0.5], atol=1e-15)


def test_cell_areas_cached_read_only():
    mesh = build_disc_mesh(level=3)
    areas = mesh.cell_areas()
    assert mesh.cell_areas() is areas
    assert not areas.flags.writeable
    with pytest.raises(ValueError):
        areas[0] = 1.0
    # the shoelace formula, cell by cell
    x = mesh.vertices[mesh.cells, 0]
    y = mesh.vertices[mesh.cells, 1]
    shoelace = 0.5 * (x[:, 0] * (y[:, 1] - y[:, 2]) + x[:, 1] * (y[:, 2] - y[:, 0])
                      + x[:, 2] * (y[:, 0] - y[:, 1]))
    assert np.allclose(areas, shoelace, rtol=1e-13, atol=0.0)


def test_vertex_planes_gather_by_rows():
    mesh = build_disc_mesh(level=3)
    values = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    for v in (values, np.arange(mesh.n_vertices)):
        planes = mesh._vertex_planes(v)
        assert planes.dtype == v.dtype and planes.flags.c_contiguous
        assert np.array_equal(planes, v[mesh.cells.T])
    for bad in (values[:-1], np.append(values, 0.0), values[:, None]):
        with pytest.raises(ValueError):
            mesh._vertex_planes(bad)


def test_coordinate_planes_peak_memory():
    # on a level-6 disc mesh the two planes take 1.5 MiB; the peak measured
    # 1.88 MiB with one 0.25 MiB column of cell indices and one 0.13 MiB
    # column of coordinates beside them, the bound with 1 % more.  A gather
    # through a (3, n_c) copy of the cells peaked at 2.25 MiB
    mesh = build_disc_mesh(level=6)
    tracemalloc.start()
    try:
        mesh._planes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * 8 * (2 * 3 * mesh.n_cells + mesh.n_cells + mesh.n_vertices)


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_geometry_matches_row_wise_formulas(build):
    # h, the areas and the centroids from coordinate planes keep the bits of
    # the (n_c, 3, 2) formulas, on levels 0-6 and on a copy whose zero
    # coordinates are -0.0
    for level in range(7):
        mesh = build(level=level)
        for m in (mesh, Mesh(-mesh.vertices, mesh.cells, mesh.boundary)):
            assert np.float64(m.h).tobytes() == np.float64(reference_h(m)).tobytes()
            assert _bitwise_equal(m.cell_areas(), reference_cell_areas(m))
            assert _bitwise_equal(cell_centroids(m), reference_cell_centroids(m))


def test_h_is_computed_on_first_read():
    mesh = build_disc_mesh(level=4)
    # neither the build nor a refinement step reads h
    assert [m._h for m in _ancestors(mesh, 0)] == [None] * 5
    h = mesh.h
    assert mesh._h == h == reference_h(mesh)
    assert mesh._parent._h is None
    with pytest.raises(AttributeError):
        mesh.h = 1.0


@pytest.mark.parametrize("cells", [
    [[0, 1, -1]],
    [[0, 1, 3]],
    np.empty((0, 3), dtype=np.int64),
], ids=["negative", "past-the-end", "empty"])
def test_mesh_rejects_bad_cell_arrays(cells):
    # a negative index must not wrap to the last vertex
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        Mesh(vertices, cells, np.ones(3, dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_vertices(bad):
    # the unit square split at its centre into four cells, the centre not
    # finite: its cell areas would be nan or infinite, after a warning
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [bad, bad]])
    cells = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match="finite"):
            Mesh(vertices, cells, np.arange(5) < 4)


def test_dump_round_trip():
    # the dump is deterministic and holds the mesh to the last bit: reading
    # its numbers back gives the vertex, flag and cell arrays exactly
    mesh = build_disc_mesh(level=2)
    text = format_mesh(mesh)
    assert text.encode() == format_mesh(build_disc_mesh(level=2)).encode()
    lines = text.split("\n")
    assert lines[0] == f"{mesh.n_vertices} {mesh.n_cells}" == "81 128"
    assert lines[-1] == ""
    rows = [line.split() for line in lines[1:-1]]
    assert len(rows) == mesh.n_vertices + mesh.n_cells
    vertex_rows = np.array(rows[: mesh.n_vertices], dtype=float)
    assert np.array_equal(vertex_rows[:, :2], mesh.vertices)
    assert np.array_equal(vertex_rows[:, 2] == 1.0, mesh.boundary)
    cell_rows = np.array(rows[mesh.n_vertices :], dtype=np.int64)
    assert np.array_equal(cell_rows, mesh.cells)


@pytest.mark.parametrize("build", [build_disc_mesh, build_square_mesh])
def test_dump_matches_per_row_format(build):
    mesh = build(level=5)
    lines = [f"{mesh.n_vertices} {mesh.n_cells}"]
    for (x, y), flag in zip(mesh.vertices, mesh.boundary):
        lines.append(f"{x:.17g} {y:.17g} {int(flag)}")
    for i, j, k in mesh.cells:
        lines.append(f"{i} {j} {k}")
    assert format_mesh(mesh).encode() == ("\n".join(lines) + "\n").encode()


def test_capacity_limit():
    with pytest.raises(CapacityError):
        build_disc_mesh(level=11)
    with pytest.raises(CapacityError):
        build_square_mesh(level=11)
    for build in (build_disc_mesh, build_square_mesh):
        with pytest.raises(ValueError):
            build(level=-1)


@pytest.mark.parametrize("disc", [
    {"radius": np.nan},
    {"radius": np.inf},
    {"center": (np.nan, 0.5)},
])
def test_non_finite_disc_rejected(disc):
    with pytest.raises(ValueError):
        build_disc_mesh(level=1, **disc)


def test_interior_and_dof_map_agree():
    mesh = build_disc_mesh(level=2)
    interior = mesh.interior_vertices()
    dof = mesh.dof_map()
    assert np.array_equal(np.where(dof >= 0)[0], interior)
    assert np.array_equal(dof[interior], np.arange(len(interior)))
    assert np.all(dof[mesh.boundary] == -1)


def test_degenerate_cell_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cells = np.array([[0, 1, 2]])
    flags = np.array([True, True, True])
    with pytest.raises(MeshError):
        audit_mesh(Mesh(vertices, cells, flags))


NODE_MAP_MESHES = {(build, level): build(level=level)
                   for build in (build_disc_mesh, build_square_mesh) for level in range(6)}


@settings(max_examples=60, deadline=None)
@given(build=st.sampled_from([build_disc_mesh, build_square_mesh]),
       level=st.integers(0, 5), rule=st.sampled_from(["degree-4", "depth-2"]),
       data=st.data())
def test_node_map_is_the_matmul_of_the_corners_to_the_bit(build, level, rule, data):
    # the node map that the error quadrature and the smooth load share
    # gives the points of matmul(bary, corners), bit for bit, in
    # contiguous coordinate columns, for index arrays and slices alike
    mesh = NODE_MAP_MESHES[build, level]
    bary = rule_degree4()[0] if rule == "degree-4" else subdivided_rule(2)[0]
    start = data.draw(st.integers(0, mesh.n_cells - 1))
    stop = data.draw(st.integers(start + 1, mesh.n_cells))
    chosen = data.draw(st.lists(st.integers(0, mesh.n_cells - 1), min_size=1,
                                max_size=min(mesh.n_cells, 64), unique=True))
    for cells in (np.array(sorted(chosen)), np.array(chosen), slice(start, stop)):
        want = np.matmul(bary, mesh.vertices[mesh.cells[cells]]).reshape(-1, 2)
        got = _physical_points(mesh, bary, cells)
        assert got[:, 0].flags.c_contiguous and got[:, 1].flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
