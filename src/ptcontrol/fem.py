"""P1 finite-element machinery on triangle meshes.

Stiffness assembly on interior degrees of freedom (Dirichlet rows and
columns eliminated, not penalized), reusable solve handles, load vectors
for smooth sources, piecewise-constant sources, point (Dirac) sources, and
clipped-linear sources, point evaluation, and the two cell projections
(cell mean and centroid sampling).

Degrees of freedom are the interior vertices in mesh order; load vectors
and solution vectors are aligned with that ordering.  The clipped-linear
load integrates clamp(-w/alpha, a, b) times each hat function exactly, in
closed form: by the P1 mass form on cells within the bounds or past one,
and on the cells that a level line crosses by fans of triangles of the
parts below, between and above the bounds (the clipped-loads section),
whose values stay within the bounds however small alpha is.  No quadrature
error pollutes second-order convergence of the variational control.

Stiffness solves run conjugate gradients preconditioned by one symmetric
V-cycle over the mesh's uniform-refinement chain: damped Jacobi smoothing
(weight 0.8, two sweeps before and two after the coarse correction),
restriction by the transpose of the midpoint interpolation, the stiffness
matrix of each parent mesh as coarse operator and, on level 2, the inverse
of a dense Cholesky factor.  A coarse or free-standing mesh, without such
a chain, gets that dense solve alone, up to ``DENSE_LIMIT`` dofs.
Iteration stops at a normwise backward error near machine precision, once
the residual contract holds; see ``factorize``, which takes only the
stiffness that ``assemble_stiffness`` returns.
"""

import numpy as np
import scipy.sparse as sparse

from ._parallel import _over_chunks
from .mesh import (MeshError, PointNotFoundError, _ancestors, _physical_points,
                   cell_centroids, locate_point)
from .quadrature import rule_degree4

__all__ = [
    "AssemblyError",
    "FactorizationError",
    "FeFunction",
    "CellwiseFunction",
    "StiffnessMatrix",
    "Factorization",
    "assemble_stiffness",
    "factorize",
    "load_smooth",
    "load_cellwise",
    "load_clipped_linear",
    "load_point",
    "evaluate",
    "l2_project_cells",
    "centroid_project",
    "l2_norm",
    "clipped_field_l2_sq",
]


class AssemblyError(MeshError):
    """Raised when assembly meets a degenerate (nonpositive-area) cell."""


class FactorizationError(Exception):
    """Raised when a matrix fails the SPD contract or a solve cannot reach it."""


def _read_only(values):
    """``values`` as a read-only contiguous float array.

    A writable array of the caller's is copied rather than frozen, so the
    caller can still write to it and the stored values do not change.
    """
    array = np.ascontiguousarray(values, dtype=float)
    if array.flags.writeable and np.may_share_memory(array, values):
        array = array.copy()
    array.setflags(write=False)
    return array


class FeFunction:
    """Continuous piecewise-linear field given by one value per vertex.

    Fields representing members of the homogeneous Dirichlet space carry
    exact zeros at boundary vertices; interpolants of general functions may
    not.
    """

    def __init__(self, mesh, values):
        values = _read_only(values)
        if values.shape != (mesh.n_vertices,):
            raise ValueError("nodal value count must equal the vertex count")
        self.mesh = mesh
        self.values = values

    def interior(self):
        """Restriction to the interior dofs, in dof order."""
        return self.values[self.mesh.interior_vertices()]

    def sample_cells(self, bary, cells=None):
        """Values at barycentric points bary (q, 3) of each cell; shape (n, q).

        The value at a node is the barycentric combination of the cell's
        three nodal values, all nodes of all cells in one matmul of the
        (n, 3) nodal values with bary transposed; ``cells`` selects the
        cells (all by default).  A node at a vertex, a unit row of bary,
        returns that vertex's value exactly.
        """
        nodal = self.values[self.mesh.cells if cells is None else self.mesh.cells[cells]]
        return nodal @ bary.T

    def __call__(self, x):
        return evaluate(self, x)


class CellwiseFunction:
    """Piecewise-constant field given by one value per cell."""

    def __init__(self, mesh, values):
        values = _read_only(values)
        if values.shape != (mesh.n_cells,):
            raise ValueError("cell value count must equal the cell count")
        self.mesh = mesh
        self.values = values

    def sample_cells(self, bary, cells=None):
        vals = self.values if cells is None else self.values[cells]
        return np.broadcast_to(vals[:, None], (len(vals), len(bary)))

    def __call__(self, x):
        k, _ = locate_point(self.mesh, x)
        return self.values[k]


class StiffnessMatrix:
    """CSR stiffness operator with its dof bookkeeping.

    Attributes
    ----------
    mat : scipy.sparse.csr_matrix
        The assembled matrix, symmetric positive definite.
    mesh : Mesh
    interior : int array
        Vertex index of each dof (mesh order), the mesh's interior vertices.
    """

    def __init__(self, mat, mesh):
        self.mat = mat
        self.mesh = mesh

    @property
    def interior(self):
        return self.mesh.interior_vertices()

    @property
    def n(self):
        return self.mat.shape[0]

    def field(self, dof_values):
        """Wrap a dof vector as an FeFunction (zeros at eliminated vertices)."""
        values = np.zeros(self.mesh.n_vertices)
        values[self.interior] = dof_values
        return FeFunction(self.mesh, values)


def assemble_stiffness(mesh):
    """Assemble the P1 stiffness matrix integral of grad(phi_i).grad(phi_j).

    Boundary rows and columns are eliminated, so the result is symmetric
    positive definite on the interior vertices by construction once every
    cell area is positive and every entry finite, both checked here.

    The element matrix is K_ij = (e_i . e_j) / (4 |K|) with e_i the edge
    opposite vertex i, which is the exact integral of the constant P1
    gradients.

    The CSR matrix is assembled once per mesh, also when several threads
    ask for it at once, and kept on the mesh for every later call, the
    multigrid hierarchies of finer meshes included; its arrays are
    read-only.  Each mesh has its own lock, so threads that assemble
    different meshes do not wait for each other.

    Raises
    ------
    AssemblyError
        If some cell's signed area is not positive, or an entry not finite.
    """
    with mesh._stiffness_lock:
        if mesh._stiffness is None:
            mesh._stiffness = _stiffness_csr(mesh)
    return StiffnessMatrix(mesh._stiffness, mesh)


def _stiffness_csr(mesh):
    """The read-only stiffness CSR of ``assemble_stiffness``, assembled anew.

    The element entries go straight into CSR arrays with duplicates, in the
    order in which a COO conversion leaves them: every (cell, slot)
    incidence of a dof contributes its element row's entries in the cell's
    dof columns, in slot order, and the incidences go by dof, then by cell.
    ``sum_duplicates`` and ``sort_indices`` then see the rows that
    ``coo_matrix(...).tocsr()`` would give them and sum each in the same
    order, bit for bit, with no COO triplets alive beside the CSR arrays.
    On a conforming mesh an entry off the diagonal sums the element entries
    of the one or two cells that share its edge, equal in either order, so
    the matrix is exactly symmetric.
    """
    areas = mesh.cell_areas()
    # not all positive, rather than any nonpositive, so that nan raises too
    if not np.all(areas > 0.0):
        raise AssemblyError("degenerate or inverted cell (nonpositive area)")
    n = len(mesh.interior_vertices())
    bins = mesh._scatter_bins().astype(np.int32)
    # entry (c, bin of slot i) of the cell-by-bin incidence matrix is the
    # incidence 3 c + i; the CSC form lists each bin's incidences by cell,
    # a stable counting sort, and the boundary bin n comes last
    by_bin = sparse.csr_matrix(
        (np.arange(bins.size), bins.reshape(-1), np.arange(0, bins.size + 1, 3)),
        shape=(len(bins), n + 1)).tocsc()
    interior = by_bin.indptr[n]
    incidences, cells = by_bin.data[:interior], by_bin.indices[:interior]
    keep = np.take(bins, cells, axis=0) < n
    # an incidence has an entry for each dof of its cell, and the row of
    # dof d ends with the entries of its last incidence
    runs = np.cumsum(keep[:, 0] + keep[:, 1].astype(np.int64) + keep[:, 2])
    indptr = np.concatenate([[0], runs])[by_bin.indptr[: n + 1]].astype(np.int32)
    del by_bin, runs
    # element row i of cell c is row 3 c + i of the cell-major matrices
    planes = _element_stiffness(mesh, areas)
    element_rows = np.ascontiguousarray(planes.transpose(2, 0, 1)).reshape(-1, 3)
    del planes
    entries = np.take(element_rows, incidences, axis=0)
    del element_rows, incidences
    data = entries[keep]
    del entries
    # the columns last, taken again, so that they are not held beside the
    # element matrices
    indices = np.take(bins, cells, axis=0)[keep]
    del cells, keep
    mat = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    mat.sum_duplicates()
    mat.sort_indices()
    if not np.all(np.isfinite(mat.data)):
        raise AssemblyError("stiffness matrix has a non-finite entry")
    for array in (mat.data, mat.indices, mat.indptr):
        array.setflags(write=False)
    return mat


def _element_stiffness(mesh, areas):
    """The element matrices (e_i . e_j) / (4 |K|) as (3, 3, n_cells) planes.

    Plane (i, j) holds entry (i, j) of every cell's matrix, computed
    contiguously from the x and y coordinate planes, arrays whose row j
    holds the j-th vertex of every cell.
    """
    x, y = mesh._planes()
    # e_i = edge opposite vertex i
    ex = (x[2] - x[1], x[0] - x[2], x[1] - x[0])
    ey = (y[2] - y[1], y[0] - y[2], y[1] - y[0])
    del x, y
    scale = 4.0 * areas
    k_elem = np.empty((3, 3, mesh.n_cells))
    term = np.empty(mesh.n_cells)
    # an overflowing entry is inf or nan, which the assembly rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(3):
            for j in range(i, 3):
                plane = np.multiply(ex[i], ex[j], out=k_elem[i, j])
                plane += np.multiply(ey[i], ey[j], out=term)
                if i != j:
                    # + 0.0 turns a -0.0 dot product into +0.0, as a sum
                    # from zero does; a sum of squares is never -0.0
                    plane += 0.0
                plane /= scale
                k_elem[j, i] = plane
    return k_elem


# Level of the bottom of every multigrid hierarchy, solved densely.
COARSE_LEVEL = 2

# Most dofs of a bottom operator, factored as a dense array.  At 512 dofs
# the Cholesky factor and its inverse take 28 ms and four 2 MiB arrays
# (2-core Xeon, one BLAS thread), below the 0.04 s of the level-7 hierarchy
# setup; at 961 dofs (disc level 4), 0.14 s and 28 MiB.  Hierarchy bottoms
# have 49 dofs (disc) or 9 (square).
DENSE_LIMIT = 512


class Factorization:
    """Reusable solve handle for the stiffness of a mesh.

    Conjugate gradients preconditioned by one symmetric V-cycle (Hackbusch,
    *Multi-Grid Methods and Applications*, 1985; Bramble, Pasciak and Xu,
    Math. Comp. 55, 1990) over the refinement chain of the matrix's mesh,
    down to ``COARSE_LEVEL``.  Coarse operators are the stiffness matrices
    of the parent meshes and residuals are restricted by the transposed
    midpoint interpolation.  On each level but the bottom the V-cycle
    smooths with damped Jacobi, weight ``SMOOTHING_WEIGHT``,
    ``SMOOTHING_SWEEPS`` sweeps from zero before the coarse correction and
    as many after it, so the cycle is symmetric.  The bottom operator is
    solved by one product with its inverse, formed once from its dense
    Cholesky factor.  A mesh without a chain is its own bottom level, and
    the V-cycle is then the direct solve.  A bottom operator of more than
    ``DENSE_LIMIT`` (512) dofs raises before any dense array is formed.

    A solve starts from the preconditioned right-hand side and iterates
    until the normwise backward error reaches machine precision,
    max|b - Ax| <= ``BACKWARD_ERROR`` max(|A||x| + |b|), and the residual
    contract max|b - Ax| <= 1e-10 max|b| holds, for at most
    ``MAX_ITERATIONS`` preconditioner applications, whose count is appended
    to ``iterations``.  The result must then meet the contract.  On fine
    meshes the load b shrinks like h^2 while |A||x| does not, so there the
    contract is the tighter rule.
    """

    RESIDUAL_CONTRACT = 1e-10
    BACKWARD_ERROR = 10.0 * np.finfo(float).eps
    MAX_ITERATIONS = 40
    SMOOTHING_WEIGHT = 0.8
    SMOOTHING_SWEEPS = 2

    def __init__(self, matrix):
        # SPD by construction, as the assembly checks; no other matrix
        if not (isinstance(matrix, StiffnessMatrix) and matrix.mat is matrix.mesh._stiffness):
            raise TypeError("factorize takes the stiffness that assemble_stiffness returns")
        chain = _ancestors(matrix.mesh, COARSE_LEVEL)
        bottom = len(chain[-1].interior_vertices())
        if bottom > DENSE_LIMIT:
            raise FactorizationError(f"bottom of {bottom} dofs exceeds DENSE_LIMIT")
        operators = [assemble_stiffness(mesh).mat for mesh in chain]
        self.mat = operators[0]
        self.iterations = []
        self._levels = [
            (a, self.SMOOTHING_WEIGHT / a.diagonal(), p, p.T.tocsr())
            for a, p in zip(operators, map(_prolongation, chain, chain[1:]))
        ]
        self._abs = abs(self.mat)
        try:
            factor = np.linalg.cholesky(operators[-1].toarray())
        except np.linalg.LinAlgError as exc:
            raise FactorizationError("matrix is not positive definite") from exc
        inverse_factor = np.linalg.inv(factor)
        self._bottom_inverse = inverse_factor.T @ inverse_factor

    def _precondition(self, r):
        """One V-cycle applied to r, from a zero initial guess."""
        stack = []
        for a, weight, _, restrict in self._levels:
            x = weight * r
            for _ in range(self.SMOOTHING_SWEEPS - 1):
                x += weight * (r - a @ x)
            stack.append((x, r))
            r = restrict @ (r - a @ x)
        x = self._bottom_inverse @ r
        for (a, weight, prolong, _), (smoothed, r) in zip(
            reversed(self._levels), reversed(stack)
        ):
            x = smoothed + prolong @ x
            for _ in range(self.SMOOTHING_SWEEPS):
                x += weight * (r - a @ x)
        return x

    def _converged(self, b, x, residual):
        """Both stop rules: the backward error and the residual contract."""
        worst = np.max(np.abs(residual))
        return worst <= self.RESIDUAL_CONTRACT * np.max(np.abs(b)) and (
            worst <= self.BACKWARD_ERROR * np.max(self._abs @ np.abs(x) + np.abs(b))
        )

    def solve(self, b):
        """Solve A x = b to the residual contract.

        Raises
        ------
        ValueError
            If b has a non-finite entry.
        FactorizationError
            If CG meets a nonpositive curvature or cannot reach the contract
            (signals a matrix outside the SPD precondition).
        """
        b = np.asarray(b, dtype=float)
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side has a non-finite entry")
        scale = np.max(np.abs(b)) if b.size else 0.0
        if scale == 0.0:
            self.iterations.append(0)
            return np.zeros_like(b)
        x = self._precondition(b)
        # CG runs on the recursively updated residual, which keeps falling
        # where the computed b - Ax has reached its rounding floor, so x
        # settles instead of drifting; the stop rules read b - Ax
        residual = recursive = b - self.mat @ x
        # zero direction and infinite rz_old: the first direction is z
        direction, rz_old = np.zeros_like(b), np.inf
        count = 1
        while count < self.MAX_ITERATIONS and not self._converged(b, x, residual):
            z = self._precondition(recursive)
            # the dot products by einsum, which never calls BLAS: OpenBLAS
            # splits a long dot product across its threads, and the split
            # moves the last bits with the thread count
            rz = np.einsum("i,i->", recursive, z)
            direction = z + (rz / rz_old) * direction
            rz_old = rz
            a_direction = self.mat @ direction
            curvature = np.einsum("i,i->", direction, a_direction)
            if not curvature > 0.0:
                raise FactorizationError("matrix is not positive definite")
            step = rz / curvature
            x = x + step * direction
            recursive = recursive - step * a_direction
            residual = b - self.mat @ x
            count += 1
        self.iterations.append(count)
        worst = np.max(np.abs(residual))
        if worst <= self.RESIDUAL_CONTRACT * scale:
            return x
        raise FactorizationError(f"solve residual {worst:.2e} exceeds the contract")


def _prolongation(fine, coarse):
    """Interpolation from the dofs of ``coarse``, the parent, to those of ``fine``.

    A parent vertex keeps its value and an edge midpoint takes the mean of
    the edge's two endpoints; eliminated boundary dofs carry zero and are
    dropped.  Disc snapping moves only boundary midpoints, which are never
    dofs, so the parent's P1 fields are interpolated exactly.
    """
    fine_dof, coarse_dof = fine.dof_map(), coarse.dof_map()
    n_c = coarse.n_vertices
    rows = np.concatenate([fine_dof[:n_c], np.repeat(fine_dof[n_c:], 2)])
    cols = np.concatenate([coarse_dof, coarse_dof[fine._edges].ravel()])
    vals = np.concatenate([np.ones(n_c), np.full(2 * len(fine._edges), 0.5)])
    keep = (rows >= 0) & (cols >= 0)
    shape = (len(fine.interior_vertices()), len(coarse.interior_vertices()))
    return sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)


def factorize(matrix):
    """Set up the solve handle of the stiffness that ``assemble_stiffness`` returns.

    Multigrid CG with a dense Cholesky solve on level 2, or that dense
    solve alone on a mesh without a chain to level 2 (see
    ``Factorization``).

    Returns
    -------
    Factorization

    Raises
    ------
    TypeError
        If ``matrix`` is any other matrix: a scipy matrix, or a
        ``StiffnessMatrix`` around a CSR that is not its mesh's own.
    FactorizationError
        If the bottom operator has more than ``DENSE_LIMIT`` dofs or no
        Cholesky factor; a solve raises it too, on a CG curvature
        p.Ap <= 0 or a missed residual contract.
    """
    return Factorization(matrix)


def _scatter_cell_loads(mesh, contrib):
    """Sum per-cell vertex contributions (n_c, 3) into the interior dof vector.

    ``np.bincount`` adds the weights in input order, cell by cell, as
    ``np.add.at`` would; boundary vertices go to one extra bin, dropped.
    """
    n = len(mesh.interior_vertices())
    return np.bincount(mesh._scatter_bins().ravel(), weights=np.ravel(contrib),
                       minlength=n + 1)[:n]


def load_smooth(mesh, f):
    """Load vector (f, phi_i) by the 6-point degree-4 rule per cell.

    Parameters
    ----------
    mesh : Mesh
    f : callable
        Vectorized scalar field: maps an (m, 2) array of points to (m,)
        values.  Must be bounded at the quadrature points (all of which lie
        strictly inside cells).  It is called on the points of the chunks
        of ``_parallel._over_chunks``, the error quadrature's loop.  Each
        chunk contracts its values with the weights, the rule's barycentric
        rows and the cell areas into its own rows of the (n_cells, 3) cell
        loads, so no array of every node's value is formed.
    """
    bary, weights = rule_degree4()
    areas = mesh.cell_areas()
    contrib = np.empty((mesh.n_cells, 3))

    def contract(part):
        points = _physical_points(mesh, bary, part)
        fvals = np.multiply(np.reshape(f(points), (-1, len(weights))), weights)
        np.matmul(fvals, bary, out=contrib[part])
        contrib[part] *= areas[part, None]

    _over_chunks(mesh.n_cells, len(weights), contract)
    return _scatter_cell_loads(mesh, contrib)


def load_cellwise(mesh, q):
    """Load vector (q, phi_i) for piecewise-constant q; exact: q_K |K| / 3 per vertex."""
    if isinstance(q, CellwiseFunction) and q.mesh is not mesh:
        raise ValueError("the field lives on another mesh")
    values = q.values if isinstance(q, CellwiseFunction) else np.asarray(q, dtype=float)
    if values.shape != (mesh.n_cells,):
        raise ValueError("cell value count must equal the cell count")
    contrib = np.repeat((values * mesh.cell_areas() / 3.0)[:, None], 3, axis=1)
    return _scatter_cell_loads(mesh, contrib)


def load_point(mesh, x0):
    """Load vector for a Dirac source at x0: entries phi_i(x0).

    The entries are the barycentric coordinates of x0 in its containing
    cell, scattered to that cell's interior vertices.

    Raises
    ------
    PointNotFoundError
        If x0 lies outside the mesh.
    ValueError
        If x0 lies on the domain boundary (a boundary vertex or a boundary
        edge): the precondition requires a strictly interior point.
    """
    k, lam = locate_point(mesh, x0)
    verts = mesh.cells[k]
    support = verts[lam > 1e-12]
    if np.all(mesh.boundary[support]):
        # On a boundary vertex, or on an edge between two boundary vertices
        # that is itself a boundary edge, the point lies on the boundary.  A
        # point supported by three boundary vertices (or an interior edge
        # between boundary vertices) is strictly interior; the functional is
        # then zero on the Dirichlet space and the zero vector is returned.
        if len(support) == 1:
            raise ValueError(
                f"point {tuple(np.asarray(x0, float).tolist())} is a boundary vertex"
            )
        if len(support) == 2:
            edges, counts = mesh.edges()
            key = np.sort(support)
            row = np.flatnonzero((edges[:, 0] == key[0]) & (edges[:, 1] == key[1]))
            if len(row) and counts[row[0]] == 1:
                raise ValueError(
                    f"point {tuple(np.asarray(x0, float).tolist())} lies on a boundary edge"
                )
    dof = mesh.dof_map()
    out = np.zeros(len(mesh.interior_vertices()))
    for i in range(3):
        d = dof[verts[i]]
        if d >= 0:
            out[d] += lam[i]
    return out


def evaluate(u, x):
    """Point value of an FeFunction by barycentric interpolation."""
    if not isinstance(u, FeFunction):
        raise TypeError("evaluate expects an FeFunction")
    k, lam = locate_point(u.mesh, x)
    return float(u.values[u.mesh.cells[k]] @ lam)


def l2_project_cells(mesh, v):
    """Cell-mean projection onto piecewise constants.

    Exact for P1 input: the mean over a cell of a linear function is the
    average of its three vertex values.
    """
    if not isinstance(v, FeFunction):
        raise TypeError("l2_project_cells expects an FeFunction")
    if v.mesh is not mesh:
        raise ValueError("the field lives on another mesh")
    # summed from +0.0 as .mean(axis=1) sums a row, so three -0.0 give +0.0
    planes = mesh._vertex_planes(v.values)
    return CellwiseFunction(mesh, (0.0 + planes[0] + planes[1] + planes[2]) / 3.0)


def centroid_project(mesh, w):
    """Sample a scalar field at all cell centroids (vectorized callable)."""
    values = np.asarray(w(cell_centroids(mesh)), dtype=float).reshape(mesh.n_cells)
    return CellwiseFunction(mesh, values)


def l2_norm(u):
    """Exact L2 norm of an FeFunction via the per-cell P1 mass matrix."""
    if not isinstance(u, FeFunction):
        raise TypeError("l2_norm expects an FeFunction")
    v = u.values[u.mesh.cells]
    squares = (v**2).sum(axis=1)
    cross = v[:, 0] * v[:, 1] + v[:, 1] * v[:, 2] + v[:, 2] * v[:, 0]
    return float(np.sqrt(np.sum(u.mesh.cell_areas() / 6.0 * (squares + cross))))


# ---------------------------------------------------------------------------
# Clipped-linear loads.
#
# The field is g = clamp(v, a, b) with v = -w/alpha affine on each cell and
# a < b.  Each cell is classed by its three vertex values against the
# bounds (``_classify_cells``): on a free cell no value lies past a bound
# and g = v, integrated by the P1 mass form; on a cell at a bound all three
# lie past it and g is that bound.  These kernels work on three contiguous
# vertex planes, one array per vertex slot.
#
# Only a crossed cell, which a level line cuts, takes its cut geometry
# (``_cut_cells``).  With its values sorted, u0 <= u1 <= u2 at the vertices
# P0, P1, P2, the line of a level c meets the long edge P0 P2 at X(c) and
# the path P0 P1 P2 at Y(c).  The lines of a and b cut the cell into three
# convex parts:
#
#     below a    P0, B, Y(a), X(a)                   g = a
#     free       X(a), Y(a), M, Y(b), X(b)           g = v
#     above b    X(b), Y(b), A, P2                   g = b
#
# B is P1 when u1 < a and Y(a) otherwise, A is P1 when u1 > b and Y(b)
# otherwise, and M is P1 when a <= u1 <= b, else Y(a) or Y(b).  With a and
# b clamped to [u0, u2] on each cell, a part that its level line misses
# collapses onto repeated corners, and an infinite bound leaves its part
# empty.  On each triangle of a part's fan, g is affine with values in
# [a, b] at its corners, so P1 integrals are exact on it and no term grows
# with the range of v, which grows like 1/alpha.
#
# The load's derivative in w is minus 1/alpha times the P1 mass form on the
# free part of each cell, where a <= v <= b: the whole of a free cell,
# nothing of a cell at a bound, and the free fan of a crossed cell.  The
# cut that integrates the load also gives that fan's mass, so each crossed
# cell is cut once per evaluation: ``_clipped_integrals`` returns the fan
# masses in its free set, and ``_free_mass_gram`` reads them.

_FREE, _AT_LOWER, _AT_UPPER, _CROSSED = range(4)


def _mass_loads(u, areas):
    """Per-cell integrals of an affine u times each hat, u (3, n) vertex planes."""
    # the vertex sum added left to right, as u.sum(axis=0) does, at half
    # its cost, into the planes of an (n, 3) array that scatters as it is
    loads = np.add(u, u[0] + u[1] + u[2], out=np.empty((u.shape[1], 3)).T)
    loads *= areas / 12.0
    return loads


# The nine corners of the cut geometry, P0, B, Y(a), X(a), M, Y(b), X(b), A
# and P2, and the seven fan triangles of the three parts, two below a, three
# free and two above b, each as three corner indices.
_FANS = np.array([[0, 1, 2], [0, 2, 3], [3, 2, 4], [3, 4, 5], [3, 5, 6],
                  [6, 5, 7], [6, 7, 8]])
_FREE_FAN = slice(2, 5)


def _cut_cells(rows, lower, upper):
    """The fans of the parts of crossed cells below lower, free and above upper.

    ``rows`` (n, 3) holds the vertex values v of each cell, and lower and
    upper are the bounds.  Returns ``(corners, values, areas, slots)`` for
    the seven fan triangles of each cell (``_FANS``): ``corners`` (n, 7, 3,
    3), the barycentric coordinates of each triangle's corners with respect
    to P0, P1 and P2; ``values`` (n, 7, 3), the clamped field at them;
    ``areas`` (n, 7), each triangle's area over the cell's; and ``slots``
    (n, 3, 3), whose row j is the unit vector of the vertex slot that holds
    Pj, so that ``x @ slots`` takes a row x of per-vertex quantities from
    P0, P1, P2 to the cell's own slots, exactly.

    Each corner is a point of the path P0 P1 P2 at the fractions (t01, t12)
    of its two edges, barycentric (1 - t01, t01 - t12, t12); a point of the
    long edge at fraction t is the path point (t, t).  A level line meets
    the edge from value a to value b at (c - a) / (b - a), or at 0 or 1
    where it misses.  On an edge of one value that the level equals, the
    fraction is 0 for the first point of the path at or above the lower
    bound, and 1 for the last point at or below the upper one.  The map
    (t01, t12) -> (lambda_1, lambda_2) has determinant 1, so the fractions
    give the areas directly.
    """
    order = np.argsort(rows, axis=1)
    u0, u1, u2 = np.take_along_axis(rows, order, axis=1).T
    lo = np.clip(lower, u0, u2)
    hi = np.clip(upper, u0, u2)
    mid = np.clip(u1, lo, hi)
    # f01, f12, f02 of lo and f12 of mid, then l01, l12, l02 of hi and l01
    # of mid: first points read 0 on a tie, last points 1
    c = np.stack([lo, lo, lo, mid, hi, hi, hi, mid])
    a = np.stack([u0, u1, u0, u1, u0, u1, u0, u0])
    b = np.stack([u1, u2, u2, u2, u1, u2, u2, u1])
    t = np.concatenate([c[:4] > a[:4], c[4:] >= b[4:]]).astype(float)
    np.divide(c - a, b - a, out=t, where=(a < c) & (c < b))
    zero, one = np.zeros_like(lo), np.ones_like(lo)
    f01, f12, f02, f12m, l01, l12, l02, l01m = t
    t01 = np.stack([zero, f01, f01, f02, l01m, l01, l02, one, one], axis=1)[:, _FANS]
    t12 = np.stack([zero, zero, f12, f02, f12m, l12, l02, l12, one], axis=1)[:, _FANS]
    d01 = t01[..., 1:] - t01[..., :1]
    d12 = t12[..., 1:] - t12[..., :1]
    areas = d01[..., 0] * d12[..., 1] - d12[..., 0] * d01[..., 1]
    corners = np.stack([1.0 - t01, t01 - t12, t12], axis=3)
    values = np.stack([lo, lo, lo, lo, mid, hi, hi, hi, hi], axis=1)[:, _FANS]
    return corners, values, areas, np.eye(3)[order]


def _classify_cells(mesh, w, lower, upper, alpha):
    """Exact class of every cell for g = clamp(-w/alpha, lower, upper).

    Returns ``(labels, v)``.  ``v`` holds v = -w/alpha as three planes, a
    (3, n_cells) array whose row j is the value at the j-th vertex of every
    cell.  ``labels`` is ``_FREE`` where no vertex value lies past a bound
    (v < lower or v > upper), ``_AT_LOWER`` or ``_AT_UPPER`` where all
    three lie past one, and ``_CROSSED`` otherwise.  No value lies past an
    infinite bound.  If some -w/alpha is not finite, every value of v is
    nan and every cell free.
    """
    nodal = w.values if isinstance(w, FeFunction) else np.asarray(w, dtype=float)
    # |w| / alpha rounds up with |w|, so its largest value is finite
    # exactly when every -w/alpha is
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.max(np.abs(nodal)) / alpha)
    if finite:
        v = mesh._vertex_planes(nodal)
        np.negative(v, out=v)
        v /= alpha
    else:
        # an overflowing or non-finite field: every value nan, so the
        # integrals are nan without a warning on the way
        v = np.full((3, mesh.n_cells), np.nan)
    below = v < lower
    above = v > upper
    labels = np.full(mesh.n_cells, _CROSSED, dtype=np.int8)
    labels[~(below.any(axis=0) | above.any(axis=0))] = _FREE
    labels[below.all(axis=0)] = _AT_LOWER
    labels[above.all(axis=0)] = _AT_UPPER
    return labels, v


def _clipped_integrals(mesh, w, lower, upper, alpha):
    """Per-cell exact integrals of g = clamp(-w/alpha, lower, upper).

    Returns the loads (n_cells, 3), int g * lambda_j, the squares
    (n_cells,), int g^2, and the free set ``(labels, crossed, mass)`` of
    ``_free_mass_gram``: the ``_classify_cells`` labels of all cells, the
    indices of the crossed cells and the (crossed, 3, 3) P1 mass of the
    free fan of each, in the cell's vertex slots.  A free set held through
    a line search costs one byte a cell and 72 a crossed cell.
    """
    if not lower < upper:
        raise ValueError("bounds must satisfy lower < upper")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    labels, v = _classify_cells(mesh, w, lower, upper, alpha)
    areas = mesh.cell_areas()
    # the mass loads of v and int v^2, the integrals of a free cell; the
    # products are summed in the order of einsum("ni,ni->n").  In-place
    # steps keep the operands of every rounding as they are.  The values
    # of the other cells, which may overflow here, are replaced below.
    with np.errstate(over="ignore", invalid="ignore"):
        loads = _mass_loads(v, areas)
        square = v[0] * loads[0] + v[2] * loads[2]
        square += v[1] * loads[1]
    # on a cell at a bound, g is that bound: int g lambda_j = g |K| / 3 and
    # int g^2 = g (g |K|)
    for label, bound in ((_AT_LOWER, lower), (_AT_UPPER, upper)):
        at = np.flatnonzero(labels == label)
        weight = bound * areas[at]
        loads[:, at] = weight / 3.0
        square[at] = bound * weight
    crossed = np.flatnonzero(labels == _CROSSED)
    # on a fan triangle T with corner values g_p of g,
    # int g lambda_j = sum_p w_p lambda_j(p) and
    # int g^2 = sum_p w_p g_p with w_p = |T| / 12 (g_p + sum_q g_q)
    corners, values, fractions, slots = _cut_cells(v[:, crossed].T, lower, upper)
    scale = fractions * (areas[crossed, None] / 12.0)
    weights = values + values.sum(axis=2, keepdims=True)
    weights *= scale[..., None]
    weights = weights.reshape(len(crossed), 1, _FANS.size)
    row_loads = weights @ corners.reshape(len(crossed), _FANS.size, 3) @ slots
    loads[:, crossed] = row_loads[:, 0].T
    square[crossed] = (weights @ values.reshape(len(crossed), _FANS.size, 1))[:, 0, 0]
    # |T| / 12 (L^T L + s^T s) on a free triangle T, L the barycentric rows
    # of its corners and s their sum: the four rows of each of the three
    # triangles stacked
    free = corners[:, _FREE_FAN]
    rows = np.concatenate([free, free.sum(axis=2, keepdims=True)], axis=2)
    rows = rows.reshape(len(crossed), 12, 3) @ slots
    rows_scale = np.repeat(scale[:, _FREE_FAN], 4, axis=1)
    mass = np.swapaxes(rows * rows_scale[..., None], 1, 2) @ rows
    return loads.T, square, (labels, crossed, mass)


def load_clipped_linear(mesh, w, lower, upper, alpha):
    """Load vector (clamp(-w/alpha, lower, upper), phi_i), integrated exactly.

    Every cell is integrated in closed form (see the clipped-loads section
    above): a cell on which -w/alpha stays within the bounds, or lies past
    one bound at all three vertices, by the P1 mass form, and only a cell
    that a level line crosses by the fans of its cut geometry.  Bounds may
    be infinite.

    Parameters
    ----------
    mesh : Mesh
    w : FeFunction or (n_v,) array
    lower, upper : float
        Clamp bounds, lower < upper; either may be infinite.
    alpha : float
        Positive scaling of the argument -w/alpha.
    """
    loads, _, _ = _clipped_integrals(mesh, w, lower, upper, alpha)
    return _scatter_cell_loads(mesh, loads)


def _cellwise_free_set(mesh, values, lower, upper):
    """Free set of clamped cell values, in the form ``_free_mass_gram`` reads.

    Each cell is labelled by its value: ``_FREE`` strictly within the
    bounds, ``_AT_LOWER`` at or below ``lower``, ``_AT_UPPER`` at or above
    ``upper`` (a nan value stays ``_CROSSED``).  Every free cell is listed
    with the rank-one mass |K|/9 11^T of its mean, which overwrites the P1
    form of its label in ``_free_mass_gram``.
    """
    labels = np.full(mesh.n_cells, _CROSSED, np.int8)
    labels[values <= lower] = _AT_LOWER
    labels[values >= upper] = _AT_UPPER
    cells = np.flatnonzero((values > lower) & (values < upper))
    labels[cells] = _FREE
    mass = np.broadcast_to((mesh.cell_areas()[cells] / 9.0)[:, None, None], (len(cells), 3, 3))
    return labels, cells, mass


def _free_mass_gram(mesh, free_set, fields):
    """Gram matrix int_free f_i f_j of dof fields (rows of ``fields``).

    ``free_set`` is ``(labels, listed, mass)``: the cells labelled
    ``_FREE`` take the P1 mass form, cell ``listed[k]`` the (3, 3) element
    ``mass[k]`` in its vertex slots, and every other cell nothing: what
    ``_clipped_integrals`` or ``_cellwise_free_set`` returns.  The
    fields are interior dof vectors, zero on the boundary.  One column at
    a time, so no (fields, vertices) array is formed, and every long sum
    by einsum, which never calls BLAS.
    """
    labels, listed, mass = free_set
    free_areas = np.where(labels == _FREE, mesh.cell_areas(), 0.0)
    listed_cells = np.take(mesh.cells, listed, axis=0)
    interior = mesh.interior_vertices()
    values = np.zeros(mesh.n_vertices)
    gram = np.empty((len(fields), len(fields)))
    for j, field in enumerate(fields):
        values[interior] = field
        loads = _mass_loads(mesh._vertex_planes(values), free_areas)
        loads[:, listed] = np.einsum("nab,nb->na", mass, values[listed_cells]).T
        # by einsum, with no BLAS thread split (see Factorization.solve)
        gram[:, j] = np.einsum("ij,j->i", fields, _scatter_cell_loads(mesh, loads.T))
    return gram


def clipped_field_l2_sq(mesh, w, lower, upper, alpha):
    """Exact squared L2 norm of clamp(-w/alpha, lower, upper) over the mesh."""
    _, square, _ = _clipped_integrals(mesh, w, lower, upper, alpha)
    return float(np.sum(square))
