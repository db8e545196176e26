"""P1 finite-element machinery on triangle meshes.

Stiffness assembly on interior degrees of freedom (Dirichlet rows and
columns eliminated, not penalized), reusable solve handles, load vectors
for smooth sources, piecewise-constant sources, point (Dirac) sources, and
clipped-linear sources, point evaluation, and the two cell projections
(cell mean and centroid sampling).

Degrees of freedom are the interior vertices in mesh order; load vectors
and solution vectors are aligned with that ordering.  The clipped-linear
load integrates clamp(-w/alpha, a, b) times each hat function exactly, in
closed form by the ramp identity of the clipped-loads section, whose ramp
formulas run on the cells that a level line crosses only; no quadrature
error pollutes second-order convergence of the variational control.

Stiffness solves run conjugate gradients preconditioned by one symmetric
V-cycle over the mesh's uniform-refinement chain: damped Jacobi smoothing
(weight 0.8, two sweeps before and two after the coarse correction),
restriction by the transpose of the midpoint interpolation, the stiffness
matrix of each parent mesh as coarse operator and a sparse LU on level 2.
A matrix without such a chain (a coarse or free-standing mesh, a hand-built
or plain scipy matrix) gets that LU alone.  Iteration stops at a normwise
backward error near machine precision, once the residual contract holds;
see ``Factorization``.
"""

import weakref

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from .mesh import PointNotFoundError, _ancestors, locate_point, cell_centroids
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


class AssemblyError(Exception):
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
        Vertex index of each dof (mesh order).
    """

    def __init__(self, mat, mesh, interior):
        self.mat = mat
        self.mesh = mesh
        self.interior = interior
        # set by assemble_stiffness, whose matrices are SPD by construction
        self._assembled = False

    @property
    def n(self):
        return self.mat.shape[0]

    def field(self, dof_values):
        """Wrap a dof vector as an FeFunction (zeros at eliminated vertices)."""
        values = np.zeros(self.mesh.n_vertices)
        values[self.interior] = dof_values
        return FeFunction(self.mesh, values)


# read-only stiffness CSR of each mesh; a weak key, so an entry lives as
# long as its mesh, whose arrays are read-only too.  Threads that assemble
# the same mesh at once store equal matrices.
_STIFFNESS = weakref.WeakKeyDictionary()


def assemble_stiffness(mesh):
    """Assemble the P1 stiffness matrix integral of grad(phi_i).grad(phi_j).

    Boundary rows and columns are eliminated, so the result is symmetric
    positive definite on the interior vertices.

    The element matrix is K_ij = (e_i . e_j) / (4 |K|) with e_i the edge
    opposite vertex i, which is the exact integral of the constant P1
    gradients.

    The CSR matrix is assembled once per mesh and shared by every later
    call, the multigrid hierarchies of finer meshes included; its arrays
    are read-only.

    Raises
    ------
    AssemblyError
        If some cell has nonpositive signed area.
    """
    mat = _STIFFNESS.get(mesh)
    if mat is None:
        mat = _STIFFNESS[mesh] = _stiffness_csr(mesh)
    matrix = StiffnessMatrix(mat, mesh, mesh.interior_vertices())
    matrix._assembled = True
    return matrix


def _stiffness_csr(mesh):
    """The read-only stiffness CSR of ``assemble_stiffness``, assembled anew."""
    areas = mesh.cell_areas()
    if np.any(areas <= 0.0):
        raise AssemblyError("degenerate or inverted cell (nonpositive area)")
    k_elem = _element_stiffness(mesh, areas)
    dof = mesh.dof_map()
    interior = mesh.interior_vertices()
    cell_dofs = dof[mesh.cells]
    rows = np.repeat(cell_dofs, 3, axis=1).reshape(-1)
    cols = np.tile(cell_dofs, (1, 3)).reshape(-1)
    vals = k_elem.reshape(-1)
    keep = (rows >= 0) & (cols >= 0)
    n = len(interior)
    mat = sparse.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    for array in (mat.data, mat.indices, mat.indptr):
        array.setflags(write=False)
    return mat


def _element_stiffness(mesh, areas):
    """The (n_cells, 3, 3) element matrices (e_i . e_j) / (4 |K|).

    The edges come from x and y coordinate planes, arrays whose row j holds
    the j-th vertex of every cell; they are freed on return, before the
    sparse assembly.
    """
    cells = np.ascontiguousarray(mesh.cells.T)
    x, y = (coordinate[cells] for coordinate in mesh.vertices.T)
    # e_i = edge opposite vertex i
    ex = (x[2] - x[1], x[0] - x[2], x[1] - x[0])
    ey = (y[2] - y[1], y[0] - y[2], y[1] - y[0])
    scale = 4.0 * areas
    k_elem = np.empty((mesh.n_cells, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            # + 0.0 turns a -0.0 dot product into +0.0, as a sum from zero does
            dot = ex[i] * ex[j] + ey[i] * ey[j] + 0.0
            k_elem[:, i, j] = k_elem[:, j, i] = dot / scale
    return k_elem


# Level of the bottom of every multigrid hierarchy, solved by the sparse LU.
COARSE_LEVEL = 2


class Factorization:
    """Reusable solve handle for an SPD system.

    Conjugate gradients preconditioned by one symmetric V-cycle (Hackbusch,
    *Multi-Grid Methods and Applications*, 1985; Bramble, Pasciak and Xu,
    Math. Comp. 55, 1990) over the refinement chain of the matrix's mesh,
    down to ``COARSE_LEVEL``.  Coarse operators are the stiffness matrices
    of the parent meshes and residuals are restricted by the transposed
    midpoint interpolation.  On each level but the bottom the V-cycle
    smooths with damped Jacobi, weight ``SMOOTHING_WEIGHT``,
    ``SMOOTHING_SWEEPS`` sweeps from zero before the coarse correction and
    as many after it, so the cycle is symmetric.  The bottom operator is
    solved by a sparse LU.  A matrix without a chain is its own bottom
    level, and the V-cycle is then the direct solve.

    The LU is in symmetric mode: the diagonal is always taken as pivot, so
    no row pivoting departs from the fill-reducing column ordering and the
    factorization coincides with a Cholesky-type one for SPD input.
    Symmetric diagonal pivoting makes the signs of ``U.diagonal()`` the
    inertia of the matrix, so a nonpositive pivot proves indefiniteness.
    The ordering is COLAMD (column approximate minimum degree; Davis,
    Gilbert, Larimore and Ng, ACM TOMS 30(3), 2004).

    A solve starts from the preconditioned right-hand side and iterates
    until the normwise backward error reaches machine precision,
    max|b - Ax| <= ``BACKWARD_ERROR`` max(|A||x| + |b|), and the residual
    contract max|b - Ax| <= 1e-10 max|b| holds, for at most
    ``MAX_ITERATIONS`` preconditioner applications, whose count is appended
    to ``iterations``.  The result must then meet the contract.  On fine
    meshes the load b shrinks like h^2 while |A||x| does not, so there the
    contract is the tighter rule.

    SPD scope: the pivot-sign test covers the bottom operator only.  A
    hierarchy is built only for a ``StiffnessMatrix`` returned by
    ``assemble_stiffness`` on a refined mesh, which is SPD by construction:
    a sum of positive-area Gram element matrices with the Dirichlet rows
    eliminated.  A hand-built ``StiffnessMatrix`` and any scipy matrix are
    their own bottom level and keep the inertia test.  A CG curvature
    p.Ap <= 0 raises as well.
    """

    RESIDUAL_CONTRACT = 1e-10
    BACKWARD_ERROR = 10.0 * np.finfo(float).eps
    MAX_ITERATIONS = 40
    SMOOTHING_WEIGHT = 0.8
    SMOOTHING_SWEEPS = 2

    def __init__(self, matrix):
        if isinstance(matrix, StiffnessMatrix):
            mat, coarse = matrix.mat, _coarse_levels(matrix)
        else:
            mat, coarse = matrix.tocsr(), []
        self.mat = mat
        self.iterations = []
        if not np.all(np.isfinite(mat.data)):
            raise FactorizationError("matrix has a non-finite entry")
        asym = _relative_asymmetry(mat)
        if asym > 1e-12:
            raise FactorizationError(
                f"matrix is not symmetric (relative asymmetry {asym:.2e})"
            )
        if np.any(mat.diagonal() <= 0.0):
            raise FactorizationError("matrix has a nonpositive diagonal entry")
        operators = [mat] + [a for a, _ in coarse]
        self._levels = [
            (a, self.SMOOTHING_WEIGHT / a.diagonal(), p, p.T.tocsr())
            for a, (_, p) in zip(operators, coarse)
        ]
        self._abs = abs(mat)
        try:
            self._lu = sparse_linalg.splu(
                operators[-1].tocsc(),
                permc_spec="COLAMD",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            # SuperLU reports an exactly singular matrix this way
            raise FactorizationError(f"factorization failed: {exc}") from exc
        if np.any(self._lu.U.diagonal() <= 0.0):
            raise FactorizationError("matrix is not positive definite")

    def _precondition(self, r):
        """One V-cycle applied to r, from a zero initial guess."""
        stack = []
        for a, weight, _, restrict in self._levels:
            x = weight * r
            for _ in range(self.SMOOTHING_SWEEPS - 1):
                x += weight * (r - a @ x)
            stack.append((x, r))
            r = restrict @ (r - a @ x)
        x = self._lu.solve(r)
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
        FactorizationError
            If CG meets a nonpositive curvature or cannot reach the contract
            (signals a matrix outside the SPD precondition).
        """
        b = np.asarray(b, dtype=float)
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
            rz = recursive @ z
            direction = z + (rz / rz_old) * direction
            rz_old = rz
            a_direction = self.mat @ direction
            curvature = direction @ a_direction
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


def _relative_asymmetry(mat):
    diff = (mat - mat.T).tocoo()
    if diff.nnz == 0:
        return 0.0
    scale = np.max(np.abs(mat.data)) if mat.nnz else 1.0
    return float(np.max(np.abs(diff.data)) / scale)


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


def _coarse_levels(matrix):
    """(stiffness, prolongation) pairs down the mesh's refinement chain.

    Only a matrix from ``assemble_stiffness`` gets any: it is SPD by
    construction, so no inertia test is skipped.  The chain stops at
    ``COARSE_LEVEL`` or at a mesh without a parent.
    """
    if not matrix._assembled:
        return []
    chain = _ancestors(matrix.mesh, COARSE_LEVEL)
    return [
        (assemble_stiffness(coarse).mat, _prolongation(fine, coarse))
        for fine, coarse in zip(chain, chain[1:])
    ]


def factorize(matrix):
    """Set up the solve handle of an SPD matrix (StiffnessMatrix or scipy sparse).

    A ``StiffnessMatrix`` from ``assemble_stiffness`` on a mesh refined past
    level 2 gets multigrid-preconditioned CG with the LU on level 2; every
    other matrix gets the LU alone, with its inertia test.

    Returns
    -------
    Factorization

    Raises
    ------
    FactorizationError
        If the matrix is not symmetric positive definite.
    """
    return Factorization(matrix)


def _scatter_cell_loads(mesh, contrib):
    """Sum per-cell vertex contributions (n_c, 3) into the interior dof vector.

    ``np.bincount`` adds the weights in input order, cell by cell, as
    ``np.add.at`` would; boundary vertices go to one extra bin, dropped.
    """
    n = len(mesh.interior_vertices())
    dof = mesh.dof_map()
    bins = np.where(dof >= 0, dof, n)[mesh.cells]
    return np.bincount(bins.ravel(), weights=np.ravel(contrib), minlength=n + 1)[:n]


def load_smooth(mesh, f):
    """Load vector (f, phi_i) by the 6-point degree-4 rule per cell.

    Parameters
    ----------
    mesh : Mesh
    f : callable
        Vectorized scalar field: maps an (m, 2) array of points to (m,)
        values.  Must be bounded at the quadrature points (all of which lie
        strictly inside cells).
    """
    bary, weights = rule_degree4()
    points = np.matmul(bary, mesh.vertices[mesh.cells])
    fvals = np.asarray(
        f(points.reshape(-1, 2)), dtype=float
    ).reshape(mesh.n_cells, len(weights))
    contrib = ((fvals * weights) @ bary) * mesh.cell_areas()[:, None]
    return _scatter_cell_loads(mesh, contrib)


def load_cellwise(mesh, q):
    """Load vector (q, phi_i) for piecewise-constant q; exact: q_K |K| / 3 per vertex."""
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
                f"point {tuple(np.asarray(x0, float))} is a boundary vertex"
            )
        if len(support) == 2:
            edges, counts = mesh.edges()
            key = np.sort(support)
            row = np.flatnonzero((edges[:, 0] == key[0]) & (edges[:, 1] == key[1]))
            if len(row) and counts[row[0]] == 1:
                raise ValueError(
                    f"point {tuple(np.asarray(x0, float))} lies on a boundary edge"
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
    k, lam = locate_point(u.mesh, x)
    return float(u.values[u.mesh.cells[k]] @ lam)


def l2_project_cells(mesh, v):
    """Cell-mean projection onto piecewise constants.

    Exact for P1 input: the mean over a cell of a linear function is the
    average of its three vertex values.
    """
    if not isinstance(v, FeFunction):
        raise TypeError("l2_project_cells expects an FeFunction")
    return CellwiseFunction(mesh, v.values[mesh.cells].mean(axis=1))


def centroid_project(mesh, w):
    """Sample a scalar field at all cell centroids (vectorized callable)."""
    values = np.asarray(w(cell_centroids(mesh)), dtype=float).reshape(mesh.n_cells)
    return CellwiseFunction(mesh, values)


def l2_norm(u):
    """Exact L2 norm of an FeFunction via the per-cell P1 mass matrix."""
    v = u.values[u.mesh.cells]
    squares = (v**2).sum(axis=1)
    cross = v[:, 0] * v[:, 1] + v[:, 1] * v[:, 2] + v[:, 2] * v[:, 0]
    return float(np.sqrt(np.sum(u.mesh.cell_areas() / 6.0 * (squares + cross))))


# ---------------------------------------------------------------------------
# Clipped-linear loads.
#
# The field is g = clamp(v, a, b) with v = -w/alpha affine on each cell and
# a < b.  With the ramp r(x) = max(x, 0),
#
#     g   = v + r(a - v) - r(v - b),
#     g^2 = v^2 + (a + v) r(a - v) - (b + v) r(v - b),
#
# the second because r(a - v) is nonzero only where it equals a - v, and
# likewise r(v - b).  As v = sum_j v_j lambda_j, every integral is a sum of
# P1 mass-matrix integrals of v and of ramp loads R_j(u) = int r(u) lambda_j,
# e.g. int (a + v) r(a - v) = sum_j (a + v_j) R_j(a - v).  A ramp positive
# at exactly one vertex i lives on the corner triangle of area
# S = t_k t_l |K|, t_k = u_i / (u_i - u_k), cut off by the zero line of u;
# there it is affine with vertex values (u_i, 0, 0), so
# R_i = S u_i (4 - t_k - t_l) / 12 and R_k = S u_i t_k / 12.  A ramp
# positive at two vertices is r(u) = u + r(-u), at three r(u) = u.  An
# infinite bound contributes no term.
#
# Every cell is integrated shifted by a cell constant s, the clamped mean of
# its vertex values: clamp(v, a, b) = s + clamp(v', a - s, b - s) with
# v' = v - s.  The ramps of the shifted values, r(a - s - v') and
# r(v' - b + s), class each cell exactly (``_classify_cells``): on a free
# cell neither is positive at a vertex and g - s = v'; on a cell at a bound
# one is positive at all three, so all three vertex values lie past the
# bound, their computed mean does too, s is the bound and g - s = 0; only a
# crossed cell, cut by a level line, needs the ramp formulas.  The kernels
# work on three contiguous vertex planes, one array per vertex slot.
#
# The load's derivative in w is minus 1/alpha times the P1 mass form on the
# free part of each cell, where a <= v <= b: the whole of a free cell,
# nothing of a cell at a bound, and on a crossed cell the cell less the
# parts past each bound.  The part {u > 0} of a ramp positive at one vertex
# is its corner triangle, on which the cell's hats are affine, so its mass
# is exact; at two vertices it is the cell less the corner of -u.

_FREE, _AT_LOWER, _AT_UPPER, _CROSSED = range(4)


def _mass_loads(u, areas):
    """Per-cell integrals of an affine u times each hat, u (n, 3) vertex values."""
    # the vertex sum added left to right, as u.sum(axis=1) does, at half
    # its cost
    return areas[:, None] / 12.0 * (u + (u[:, 0] + u[:, 1] + u[:, 2])[:, None])


def _corners(u):
    """Corner triangles cut off by the zero line of affine u (n, 3) per cell.

    Returns ``(positive, cells, ci, i, k, l, tk, tl)``: ``positive`` counts
    the vertices where u > 0 on every cell, and the rest describes the
    corner of each cell positive at one or two vertices, listed in
    ``cells``.  There the corner is {u > 0}, or {-u > 0} on a two-vertex
    cell, whose complement is {u > 0} up to the zero line; it lies at
    vertex i, where c = u or -u takes its maximum ci >= 0, and meets the
    edges to k and l at the fractions tk = ci / (ci - c_k) and
    tl = ci / (ci - c_l), so its area is tk tl |K|.  Either ci > 0 and the
    other two values of c are at most 0, or they are negative, so
    ci - c_k > 0: a zero maximum gives tk = tl = 0, never 0/0.
    """
    positive = np.count_nonzero(u > 0.0, axis=1)
    cells = np.flatnonzero((positive == 1) | (positive == 2))
    c = np.where((positive[cells] == 2)[:, None], -u[cells], u[cells])
    n = np.arange(len(cells))
    i = np.argmax(c, axis=1)
    k, l = (i + 1) % 3, (i + 2) % 3
    ci = c[n, i]
    tk = ci / (ci - c[n, k])
    tl = ci / (ci - c[n, l])
    return positive, cells, ci, i, k, l, tk, tl


def _ramp_loads(u, areas):
    """Per-cell integrals of max(u, 0) times each hat, u (n, 3) vertex values."""
    positive, cells, ci, i, k, l, tk, tl = _corners(u)
    loads = np.zeros_like(u)
    affine = positive >= 2
    loads[affine] = _mass_loads(u[affine], areas[affine])
    # on two-vertex cells r(u) = u + r(-u), the ramp of -u on its corner
    scale = tk * tl * areas[cells] * ci / 12.0
    loads[cells, i] += scale * (4.0 - tk - tl)
    loads[cells, k] += scale * tk
    loads[cells, l] += scale * tl
    return loads


# 12 / |K| times the P1 element mass matrix, the same on every cell
_MASS_PATTERN = np.ones((3, 3)) + np.eye(3)


def _cell_mass(areas):
    """P1 element mass matrices int lambda_a lambda_b, shape (n, 3, 3)."""
    return areas[:, None, None] / 12.0 * _MASS_PATTERN


def _ramp_mass(u, areas):
    """Per-cell integrals of lambda_a lambda_b over {u > 0}, shape (n, 3, 3).

    On a corner triangle at vertex i the cell's hats are affine with
    values e_i, (1 - tk) e_i + tk e_k and (1 - tl) e_i + tl e_l at its
    vertices, the rows of Lambda, so the integrals are Lambda^T M_T Lambda
    for the corner's own P1 mass matrix M_T.  A two-vertex cell takes the
    cell minus the corner of -u, a three-vertex cell the whole cell.
    """
    positive, cells, _, i, k, l, tk, tl = _corners(u)
    mass = np.where((positive >= 2)[:, None, None], _cell_mass(areas), 0.0)
    n = np.arange(len(cells))
    lam = np.zeros((len(cells), 3, 3))
    lam[n, :, i] = 1.0
    lam[n, 1, i] -= tk
    lam[n, 1, k] = tk
    lam[n, 2, i] -= tl
    lam[n, 2, l] = tl
    corner = np.einsum("npa,pq,nqb->nab", lam, _MASS_PATTERN, lam)
    corner *= (tk * tl * areas[cells] / 12.0)[:, None, None]
    mass[cells] += np.where((positive[cells] == 2)[:, None, None], -corner, corner)
    return mass


def _classify_cells(mesh, w, lower, upper, alpha):
    """Exact class of every cell for g = clamp(-w/alpha, lower, upper).

    Returns ``(labels, v, shift, lo, hi)``.  ``v`` holds the shifted values
    v' = v - s as three planes, a (3, n_cells) array whose row j is the
    value at the j-th vertex of every cell; s is the clamped vertex mean of
    v on each cell, lo = lower - s and hi = upper - s.  ``labels`` is
    ``_FREE`` where neither ramp r(lo - v') nor r(v' - hi) is positive at a
    vertex, ``_AT_LOWER`` or ``_AT_UPPER`` where one is positive at all
    three, and ``_CROSSED`` otherwise.  These are the values whose positive
    entries ``_ramp_loads`` counts (lo > v' is the sign of lo - v'); the raw
    v against a bound can disagree within an ulp of it.  An infinite bound
    is positive nowhere.
    """
    nodal = w.values if isinstance(w, FeFunction) else np.asarray(w, dtype=float)
    v = -nodal[np.ascontiguousarray(mesh.cells.T)] / alpha
    shift = np.clip((v[0] + v[1] + v[2]) / 3.0, lower, upper)
    v -= shift
    lo, hi = lower - shift, upper - shift
    below = lo > v
    above = v > hi
    labels = np.full(len(shift), _CROSSED, dtype=np.int8)
    labels[~(below.any(axis=0) | above.any(axis=0))] = _FREE
    labels[below.all(axis=0)] = _AT_LOWER
    labels[above.all(axis=0)] = _AT_UPPER
    return labels, v, shift, lo, hi


def _clipped_integrals(mesh, w, lower, upper, alpha):
    """Per-cell exact integrals of g = clamp(-w/alpha, lower, upper).

    Returns the loads (n_cells, 3), int g * lambda_j, and the squares
    (n_cells,), int g^2.
    """
    if not lower < upper:
        raise ValueError("bounds must satisfy lower < upper")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    labels, v, shift, lo, hi = _classify_cells(mesh, w, lower, upper, alpha)
    areas = mesh.cell_areas()
    # the mass loads of v' and int v'^2, the integrals of a free cell; the
    # products are summed in the order of einsum("ni,ni->n").  In-place
    # steps keep the operands of every rounding as they are.
    loads = v + (v[0] + v[1] + v[2])
    loads *= areas / 12.0
    square = v[0] * loads[0] + v[2] * loads[2]
    square += v[1] * loads[1]
    # on a cell at a bound, s is that bound, so the ramp is -v' or v' and
    # the shifted integrals cancel to zero
    bound = (labels == _AT_LOWER) | (labels == _AT_UPPER)
    np.copyto(loads, 0.0, where=bound)
    np.copyto(square, 0.0, where=bound)
    crossed = np.flatnonzero(labels == _CROSSED)
    if crossed.size:
        # (n, 3) rows in C order: einsum's order of summation follows the
        # layout of its operands
        rows = np.ascontiguousarray(v[:, crossed].T)
        row_loads = loads[:, crossed].T
        row_square = square[crossed]
        row_areas = areas[crossed]
        if np.isfinite(lower):
            lo_c = lo[crossed, None]
            ramp = _ramp_loads(lo_c - rows, row_areas)
            row_loads += ramp
            row_square += np.einsum("ni,ni->n", lo_c + rows, ramp)
        if np.isfinite(upper):
            hi_c = hi[crossed, None]
            ramp = _ramp_loads(rows - hi_c, row_areas)
            row_loads -= ramp
            row_square -= np.einsum("ni,ni->n", hi_c + rows, ramp)
        loads[:, crossed] = row_loads.T
        square[crossed] = row_square
    # the shift terms: square += s (2 sum_j L_j + s |K|), L_j += s |K| / 3
    weight = shift * areas
    term = loads[0] + loads[1] + loads[2]
    term *= 2.0
    term += weight
    term *= shift
    square += term
    weight /= 3.0
    loads += weight
    return loads.T, square


def load_clipped_linear(mesh, w, lower, upper, alpha):
    """Load vector (clamp(-w/alpha, lower, upper), phi_i), integrated exactly.

    Every cell is integrated in closed form from the ramp identity above: a
    cell on which -w/alpha stays within the bounds, or lies past one bound
    at all three vertices, by the P1 mass form, and only a cell that a
    level line crosses by the ramp formulas.  Bounds may be infinite.

    Parameters
    ----------
    mesh : Mesh
    w : FeFunction or (n_v,) array
    lower, upper : float
        Clamp bounds, lower < upper; either may be infinite.
    alpha : float
        Positive scaling of the argument -w/alpha.
    """
    return _clipped_load_and_squares(mesh, w, lower, upper, alpha)[0]


def _clipped_load_and_squares(mesh, w, lower, upper, alpha):
    """Load vector of ``load_clipped_linear`` and the per-cell squares, one pass.

    ``float(np.sum(squares))`` is ``clipped_field_l2_sq`` bit for bit.
    """
    loads, squares = _clipped_integrals(mesh, w, lower, upper, alpha)
    return _scatter_cell_loads(mesh, loads), squares


def _free_mass(u, lo, hi, areas):
    """Per-cell integrals of lambda_a lambda_b over {lo <= u <= hi}, (n, 3, 3).

    u (n, 3) holds affine vertex values: the cell less its parts past each
    bound, where the ramps lo - u and u - hi are positive.  An infinite
    bound is positive nowhere, so its part is empty.
    """
    mass = _cell_mass(areas)
    mass -= _ramp_mass(lo - u, areas)
    mass -= _ramp_mass(u - hi, areas)
    return mass


def _free_mass_gram(mesh, w, lower, upper, alpha, fields):
    """Gram matrix int_free f_i f_j of nodal fields (rows of ``fields``).

    The free set is where lower <= -w/alpha <= upper.  For fields that
    vanish on the boundary, with w = sum_j c_j f_j, column j is minus alpha
    times the derivative in c_j of the ``load_clipped_linear`` load tested
    with each f_i.  Cells are classed by ``_classify_cells``: a free cell
    takes the P1 mass form, a cell at a bound nothing, and a crossed cell
    the mass of its free part (``_free_mass``).  One column at a time, so
    no (fields, vertices) array is formed.
    """
    labels, v, _, lo, hi = _classify_cells(mesh, w, lower, upper, alpha)
    areas = mesh.cell_areas()
    free_areas = np.where(labels == _FREE, areas, 0.0)
    crossed = np.flatnonzero(labels == _CROSSED)
    rows = np.ascontiguousarray(v[:, crossed].T)
    mass = _free_mass(rows, lo[crossed, None], hi[crossed, None], areas[crossed])
    vertices = mesh.cells.ravel()
    gram = np.empty((len(fields), len(fields)))
    for j, field in enumerate(fields):
        nodal = field[mesh.cells]
        loads = _mass_loads(nodal, free_areas)
        loads[crossed] = np.einsum("nab,nb->na", mass, nodal[crossed])
        gram[:, j] = fields @ np.bincount(vertices, weights=loads.ravel(),
                                          minlength=mesh.n_vertices)
    return gram


def clipped_field_l2_sq(mesh, w, lower, upper, alpha):
    """Exact squared L2 norm of clamp(-w/alpha, lower, upper) over the mesh."""
    _, square = _clipped_integrals(mesh, w, lower, upper, alpha)
    return float(np.sum(square))
