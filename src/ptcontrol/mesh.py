"""Conforming triangulations of a disc and of the unit square, with uniform refinement.

The disc family starts from a fan of eight congruent triangles spanned by a
regular inscribed octagon and the disc center.  Uniform refinement splits
every triangle into four children through the edge midpoints and projects
midpoints of boundary edges radially back onto the circle, so the boundary
polygon at level k is a regular 8*2^k-gon, the center stays a mesh vertex at
every level, and the family is quasi-uniform.  The unit square starts from
two triangles and refines without any vertex movement.

Meshes are immutable after construction.  Vertices are stored as an (n_v, 2)
float array, cells as an (n_c, 3) int array of vertex indices in
counterclockwise order, and boundary vertices as a boolean mask.
"""

import threading

import numpy as np

from ._text import text_rows

__all__ = [
    "Mesh",
    "DiscDomain",
    "MeshError",
    "CapacityError",
    "PointNotFoundError",
    "build_disc_mesh",
    "build_square_mesh",
    "refine_uniform",
    "locate_point",
    "cell_centroids",
    "audit_mesh",
    "format_mesh",
]

# The one level guard, for the library and the CLI alike.  A study over
# levels 2..10 of any of the four variants peaks at about 3.0 GB RSS and
# takes 28-44 s on a 2-core Xeon with one BLAS thread; memory grows about
# fourfold per level, so level 11 would not fit a host of 8 GB.
MAX_LEVEL = 10

# Fixed lower bound on min_cell_area / h^2 for the meshes built here.  The
# disc family's measured constant decreases from 0.354 (level 0) towards
# ~0.219; the square family's is larger.
QUASI_UNIFORMITY_CONSTANT = 0.18


class MeshError(Exception):
    """Raised when a mesh violates its structural invariants."""


class CapacityError(MeshError):
    """Raised when a requested refinement level exceeds the memory guard."""


class PointNotFoundError(MeshError):
    """Raised when a query point lies outside every cell of the mesh."""


class DiscDomain:
    """Disc domain descriptor: center point and radius.

    The curved boundary is approximated by the inscribed polygon of the
    current mesh; refinement snaps new boundary vertices back onto the
    circle.
    """

    def __init__(self, center, radius):
        if not (np.isfinite(radius) and radius > 0):
            raise ValueError("radius must be positive and finite")
        self.center = np.asarray(center, dtype=float).reshape(2)
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")
        self.center.setflags(write=False)
        self.radius = float(radius)

    def snap_to_boundary(self, points):
        """Project points radially from the center onto the circle."""
        d = points - self.center
        r = np.hypot(d[:, 0], d[:, 1])
        return self.center + self.radius * d / r[:, None]

    def __repr__(self):
        return f"DiscDomain(center={tuple(self.center)}, radius={self.radius})"


class Mesh:
    """Conforming triangulation with flat index arrays.

    Parameters
    ----------
    vertices : array_like of shape (n_v, 2)
        Vertex coordinates.
    cells : array_like of shape (n_c, 3)
        Vertex index triples, counterclockwise.
    boundary : array_like of shape (n_v,), bool
        Mask of vertices on the domain boundary.
    domain : DiscDomain or None
        Disc whose circle new boundary vertices snap onto; None when the
        boundary is exactly polygonal (the unit square, free-standing
        meshes), so refinement moves no vertex.
    level : int
        Number of uniform refinements applied to the coarse mesh.

    Raises
    ------
    MeshError
        If an array has the wrong shape, a vertex coordinate is not
        finite, the cell array is empty, or a cell names a vertex index
        outside 0 .. n_v - 1.
    """

    def __init__(self, vertices, cells, boundary, domain=None, level=0):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.boundary = np.ascontiguousarray(boundary, dtype=bool)
        self.domain = domain
        self.level = int(level)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must have shape (n_v, 2)")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise MeshError("cells must have shape (n_c, 3)")
        if self.boundary.shape != (len(self.vertices),):
            raise MeshError("boundary mask length must equal vertex count")
        if len(self.cells) == 0:
            raise MeshError("a mesh needs at least one cell")
        # a negative index would wrap to the last vertices without a word
        if self.cells.min() < 0 or self.cells.max() >= len(self.vertices):
            raise MeshError("cell vertex index outside 0 .. n_vertices - 1")
        for a in (self.vertices, self.cells, self.boundary):
            a.setflags(write=False)
        self._h = None
        self._interior = None
        self._dof = None
        self._bins = None
        self._areas = None
        # the stiffness CSR, assembled once under its lock by
        # fem.assemble_stiffness
        self._stiffness = None
        self._stiffness_lock = threading.Lock()
        # set by refine_uniform: the coarser mesh and its unique edges,
        # whose midpoints are vertices parent.n_vertices onward
        self._parent = None
        self._edges = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def h(self):
        """Maximal cell diameter = maximum over cells of the longest edge.

        Computed on first read and cached; a solve does not read it.
        """
        if self._h is None:
            x, y = self._planes()
            ex, ey = np.roll(x, -1, axis=0) - x, np.roll(y, -1, axis=0) - y
            # sqrt is monotone, so the root of the largest square is the
            # largest root, to the bit
            self._h = float(np.sqrt((ex * ex + ey * ey).max()))
        return self._h

    def _planes(self):
        """The x and y coordinate planes: (3, n_c) arrays, row j the j-th vertex of every cell."""
        return tuple(self._vertex_planes(coordinate) for coordinate in self.vertices.T)

    def _vertex_planes(self, values):
        """``values[cells.T]`` for one value per vertex, as a new (3, n_c) array.

        Gathered a row at a time, with no (3, n_c) copy of the cell indices.
        """
        if values.shape != (self.n_vertices,):
            raise ValueError("value count must equal the vertex count")
        planes = np.empty((3, self.n_cells), dtype=values.dtype)
        for j in range(3):
            # every index is in range (checked on construction), so "clip"
            # clips none; unlike the default mode it needs no buffer
            np.take(values, self.cells[:, j], out=planes[j], mode="clip")
        return planes

    def cell_areas(self):
        """Cached signed areas of all cells; positive for counterclockwise cells.

        The array is read-only and computed once per mesh.
        """
        if self._areas is None:
            x, y = self._planes()
            # an overflowing area is inf or nan, which the assembly rejects
            with np.errstate(over="ignore", invalid="ignore"):
                areas = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
            areas.setflags(write=False)
            self._areas = areas
        return self._areas

    def edges(self):
        """Unique edges and their cell multiplicity.

        Returns
        -------
        edges : (n_e, 2) int array
            Sorted vertex pairs.
        cell_count : (n_e,) int array
            Number of cells sharing each edge (1 = boundary, 2 = interior).
        """
        uniq, _, counts = _unique_edges(self.cells, self.n_vertices)
        return uniq, counts

    def interior_vertices(self):
        """Indices of interior vertices, in mesh order (the dof order)."""
        if self._interior is None:
            self._interior = np.flatnonzero(~self.boundary)
            self._interior.setflags(write=False)
        return self._interior

    def dof_map(self):
        """Per-vertex dof index (position among interior vertices), -1 on the boundary."""
        if self._dof is None:
            dof = np.full(self.n_vertices, -1, dtype=np.int64)
            interior = self.interior_vertices()
            dof[interior] = np.arange(len(interior))
            dof.setflags(write=False)
            self._dof = dof
        return self._dof

    def _scatter_bins(self):
        """Cached (n_c, 3) dof of each cell vertex, the dof count on the boundary.

        The bins of a load scatter by ``np.bincount``, in which the boundary
        vertices share the one bin past the last dof.  The array is
        read-only and computed once per mesh.
        """
        if self._bins is None:
            dof = self.dof_map()
            bins = np.where(dof >= 0, dof, len(self.interior_vertices()))[self.cells]
            bins.setflags(write=False)
            self._bins = bins
        return self._bins

    def __repr__(self):
        dom = "polygonal" if self.domain is None else "disc"
        return (
            f"Mesh({dom}, level={self.level}, n_vertices={self.n_vertices}, "
            f"n_cells={self.n_cells}, h={self.h:.6g})"
        )


# Octagon directions built from exact +-sqrt(2)/2 patterns so the coarse fan
# is symmetric under the 8-fold rotation group to the last float digit.
_S = np.sqrt(2.0) / 2.0
_OCTAGON = np.array(
    [
        (1.0, 0.0),
        (_S, _S),
        (0.0, 1.0),
        (-_S, _S),
        (-1.0, 0.0),
        (-_S, -_S),
        (0.0, -1.0),
        (_S, -_S),
    ]
)


def build_disc_mesh(center=(0.5, 0.5), radius=0.5, level=0):
    """Build the disc mesh at a given refinement level.

    The level-0 mesh is a fan of 8 congruent triangles on the regular
    inscribed octagon plus the center vertex (vertex 0), so the center is a
    mesh vertex at every level.

    Parameters
    ----------
    center : pair of floats
    radius : float
    level : int
        Number of uniform refinements; guarded by ``MAX_LEVEL``.

    Returns
    -------
    Mesh

    Raises
    ------
    CapacityError
        If ``level`` exceeds the memory guard.
    ValueError
        If ``level`` is negative, or the center or the radius is not finite.
    """
    domain = DiscDomain(center, radius)
    # an overflowing vertex is inf, which Mesh rejects
    with np.errstate(over="ignore"):
        vertices = np.vstack([domain.center, domain.center + radius * _OCTAGON])
    cells = np.array([[0, 1 + k, 1 + (k + 1) % 8] for k in range(8)], dtype=np.int64)
    boundary = np.ones(9, dtype=bool)
    boundary[0] = False
    return _refined(Mesh(vertices, cells, boundary, domain), level)


def build_square_mesh(level=0):
    """Build the unit-square mesh at a given refinement level (2 coarse cells)."""
    vertices = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    cells = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    boundary = np.ones(4, dtype=bool)
    return _refined(Mesh(vertices, cells, boundary), level)


def _refined(coarse, level):
    """Refine a level-0 mesh ``level`` times, after guarding the level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > MAX_LEVEL:
        raise CapacityError(f"level {level} exceeds the guard MAX_LEVEL={MAX_LEVEL}")
    mesh = coarse
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def _unique_edges(cells, n_v):
    """Unique edges of a triangulation, as ``np.unique`` of the sorted pairs.

    The cell edges (01, 12, 20), all cells' first edges first, become
    pairs lo < hi; each pair is deduplicated as the scalar key
    lo * n_v + hi, whose order is the lexicographic order of the pairs, so
    one 1-D ``np.unique`` replaces a row-wise one.

    Returns
    -------
    edges : (n_e, 2) int array
        Sorted vertex pairs in lexicographic order.
    inverse : (3 * n_c,) int array
        Edge index of each cell edge, in the order above.
    counts : (n_e,) int array
        Number of cells sharing each edge.
    """
    first = np.concatenate([cells[:, 0], cells[:, 1], cells[:, 2]])
    second = np.concatenate([cells[:, 1], cells[:, 2], cells[:, 0]])
    key = np.minimum(first, second) * n_v + np.maximum(first, second)
    keys, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    return np.column_stack(np.divmod(keys, n_v)), inverse, counts


def refine_uniform(mesh):
    """Split every cell into 4 children through the edge midpoints.

    Midpoints of boundary edges are projected radially onto the circle of
    a disc domain; without a domain (the square, free-standing meshes)
    they stay where they are.  Children of cell k occupy rows 4k..4k+3 of the
    refined cell array: the three corner children in vertex order, then the
    central child.

    The refined mesh keeps the coarse mesh and its unique-edge array:
    vertex ``mesh.n_vertices + e`` is the midpoint of edge ``e``.  That
    chain is the hierarchy of the multigrid solver in ``fem``.

    Returns
    -------
    Mesh
        Refined mesh with level incremented.
    """
    if mesh.level + 1 > MAX_LEVEL:
        raise CapacityError(f"refinement past level {MAX_LEVEL} exceeds the guard")
    n_v = mesh.n_vertices
    cells = mesh.cells
    uniq, inverse, counts = _unique_edges(cells, n_v)
    on_boundary = counts == 1
    # an overflow, or a midpoint snapped from the center (0 / 0), Mesh rejects
    with np.errstate(over="ignore", invalid="ignore"):
        midpoints = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
        if mesh.domain is not None and on_boundary.any():
            midpoints[on_boundary] = mesh.domain.snap_to_boundary(midpoints[on_boundary])
    vertices = np.vstack([mesh.vertices, midpoints])
    boundary = np.concatenate([mesh.boundary, on_boundary])
    # midpoint index per cell edge: (01, 12, 20)
    mid = inverse.reshape(3, -1).T + n_v
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    m01, m12, m20 = mid[:, 0], mid[:, 1], mid[:, 2]
    children = np.empty((4 * len(cells), 3), dtype=np.int64)
    children[0::4] = np.column_stack([a, m01, m20])
    children[1::4] = np.column_stack([m01, b, m12])
    children[2::4] = np.column_stack([m20, m12, c])
    children[3::4] = np.column_stack([m01, m12, m20])
    fine = Mesh(vertices, children, boundary, mesh.domain, level=mesh.level + 1)
    uniq.setflags(write=False)
    fine._parent = mesh
    fine._edges = uniq
    return fine


def _ancestors(mesh, level):
    """``mesh`` and its refinement-chain ancestors down to ``level``, finest first.

    The chain ends early at a mesh that ``refine_uniform`` did not make.
    """
    chain = [mesh]
    while chain[-1].level > level and chain[-1]._parent is not None:
        chain.append(chain[-1]._parent)
    return chain


BARYCENTRIC_TOL = 1e-12


def locate_point(mesh, x):
    """Find the cell containing a point.

    Parameters
    ----------
    mesh : Mesh
    x : pair of floats

    Returns
    -------
    cell : int
        Index of the containing cell; if the point lies on a shared edge or
        vertex, the lowest containing cell index (deterministic tie-break).
    bary : (3,) float array
        Barycentric coordinates of x in that cell; each within
        [-1e-12, 1+1e-12] and summing to 1.

    Raises
    ------
    PointNotFoundError
        If x lies outside every cell.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    candidates = _box_candidates(mesh, x)
    p = mesh.vertices[mesh.cells[candidates]]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1]
    inv[:, 0, 1] = -J[:, 0, 1]
    inv[:, 1, 0] = -J[:, 1, 0]
    inv[:, 1, 1] = J[:, 0, 0]
    inv /= det[:, None, None]
    st = np.einsum("nij,nj->ni", inv, x - p[:, 0])
    lam = np.column_stack([1.0 - st[:, 0] - st[:, 1], st])
    hits = np.flatnonzero(np.all(lam >= -BARYCENTRIC_TOL, axis=1))
    if len(hits) == 0:
        raise PointNotFoundError(f"point {tuple(x.tolist())} is outside the mesh")
    k = int(hits[0])
    return int(candidates[k]), lam[k]


# Margin of the bounding-box test in ``locate_point``, relative to s + 1,
# s the largest |vertex coordinate|.  Say the barycentric test accepts x
# in a cell K: its computed barycentrics are >= -BARYCENTRIC_TOL.  To first
# order they differ from the exact ones by at most e = 5 eps k^2 + 12 eps k
# + eps, k = diam(K)^2 / |K|: x - v0 and v_j - v0 are rounded once each,
# and the cancellation in the determinant costs 2 eps k relative.  So the
# exact barycentrics are >= -(BARYCENTRIC_TOL + e), at most two of them
# are negative, and along each axis x lies within 2 (BARYCENTRIC_TOL + e) w
# of K's box, w <= 2 s the box's width along that axis.
# The margin exceeds that, with room for the rounding of x +- margin,
# while BARYCENTRIC_TOL + e <= 2.5e-10, that is for k up to about 450.
# The meshes built here have k <= 1 / QUASI_UNIFORMITY_CONSTANT < 6.
_BOX_MARGIN = 1e-9


def _box_candidates(mesh, x):
    """Ascending indices of the cells whose bounding box, widened by the margin, holds x.

    Each vertex gets a four-bit outcode, one bit for each side of the
    widened window around x that it lies beyond; a cell's box misses the
    window exactly when its three outcodes share a bit.
    """
    margin = _BOX_MARGIN * (float(np.abs(mesh.vertices).max()) + 1.0)
    code = np.zeros(mesh.n_vertices, dtype=np.uint8)
    for bit, (coordinate, value) in enumerate(zip(mesh.vertices.T, x)):
        code |= (coordinate < value - margin).view(np.uint8) << 2 * bit
        code |= (coordinate > value + margin).view(np.uint8) << 2 * bit + 1
    corners = code[mesh.cells]
    return np.flatnonzero((corners[:, 0] & corners[:, 1] & corners[:, 2]) == 0)


def _physical_points(mesh, bary, cells):
    """Physical points of barycentric nodes ``bary`` in each of ``cells``.

    ``cells`` is an index array or a slice.  Returns a (n * len(bary), 2)
    array, node-major within each cell, whose two columns are contiguous:
    the transposed x and y planes, from one matmul of the (2 n, 3) corner
    coordinates, so that even one cell (a one-row product, which numpy
    would round apart) gives the bits of ``np.matmul(bary, corners)``.
    """
    corners = mesh.vertices.T[:, mesh.cells[cells]].reshape(-1, 3)
    return np.matmul(corners, bary.T).reshape(2, -1).T


def cell_centroids(mesh):
    """Centroids of all cells, shape (n_c, 2)."""
    x, y = mesh._planes()
    return np.column_stack([(x[0] + x[1] + x[2]) / 3.0, (y[0] + y[1] + y[2]) / 3.0])


def audit_mesh(mesh):
    """Check all structural mesh invariants; raise MeshError on violation.

    Checks: positive signed cell areas (consistent orientation), conformity
    (interior edges shared by exactly 2 cells, boundary edges by 1, and
    endpoints of boundary edges flagged), boundary vertices on the circle
    within 1e-12 for disc domains, h equal to the longest cell edge, and
    quasi-uniformity min_area >= QUASI_UNIFORMITY_CONSTANT * h^2.
    """
    areas = mesh.cell_areas()
    if not np.all(areas > 0):
        raise MeshError("cell with nonpositive signed area")
    uniq, counts = mesh.edges()
    if not np.all((counts == 1) | (counts == 2)):
        raise MeshError("edge shared by more than 2 cells")
    boundary_edges = uniq[counts == 1]
    if not np.all(mesh.boundary[boundary_edges]):
        raise MeshError("boundary edge with an unflagged endpoint")
    flagged = np.flatnonzero(mesh.boundary)
    on_edges = np.unique(boundary_edges)
    if not np.array_equal(flagged, on_edges):
        raise MeshError("boundary flags do not match boundary edges")
    if isinstance(mesh.domain, DiscDomain):
        r = np.linalg.norm(mesh.vertices[flagged] - mesh.domain.center, axis=1)
        if np.max(np.abs(r - mesh.domain.radius)) > 1e-12:
            raise MeshError("boundary vertex off the circle by more than 1e-12")
    p = mesh.vertices[mesh.cells]
    hmax = np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2).max()
    if mesh.h != hmax:
        raise MeshError("stored h does not equal the maximal edge length")
    if areas.min() < QUASI_UNIFORMITY_CONSTANT * mesh.h**2:
        raise MeshError("quasi-uniformity violated")
    return mesh


def format_mesh(mesh):
    """Serialize a mesh to the text dump format.

    Line 1 is "nv nc"; then nv lines "x y flag" (flag 1 on the boundary)
    and nc lines "i j k".  Coordinates print as ``format(x, ".17g")``.
    """
    return b"".join(_mesh_text(mesh)).decode("ascii")


def _mesh_text(mesh):
    """The bytes of ``format_mesh`` as chunks, yielded as ``text_rows`` formats them."""
    yield f"{mesh.n_vertices} {mesh.n_cells}\n".encode()
    yield from text_rows(*mesh.vertices.T, mesh.boundary)
    yield from text_rows(*mesh.cells.T)

