"""Independent recomputation paths used as test oracles.

Nothing here imports solver machinery from the package, apart from
``discrete_state``, which replays the documented public recipe for the
state field that ``solve_discrete`` does not return (``exact_cell_tags``
imports the field types only to tell them apart); the point is to
certify package results against structurally different algorithms: exact
scanline slicing for clipped integrals where alpha is moderate,
Sutherland-Hodgman polygon clipping in physical coordinates for clipped
loads, squares and free-set mass matrices at any alpha, dense textbook
elimination and a sparse LU for linear solves, bisection for benchmark
radii, row-wise ``np.unique`` for edge numbering, a barycentric scan
of every cell for point location and each cell's exact extremes (nodal
data, or the distance range of a radial field) for the active-set cell
tags.  The row-wise ramp
identity, the einsum stiffness element matrices and the COO stiffness
assembly are earlier forms of the package's kernels, kept as bit-for-bit
references for their rewrites: the ramp identity on free cells and cells
at a bound, where its terms stay small.  So are the row-wise (n_c, 3, 2)
formulas for the mesh width, the cell areas and the centroids, and the
cell values gathered through a whole copy of the cell array.
Two earlier forms of the solve path's passes are kept the same way, and
call the package's kernels that other oracles certify: the clipped
integrals with a Jacobian Gram matrix that cuts every crossed cell again
(``recut_integrals_and_gram``), and the smooth load that samples every
node into one array before it contracts them (``sliced_load_smooth``).
The cellwise Jacobian's earlier form, a table of every point field's cell
means and a matrix product of its free columns, is the reference for the
one Gram routine that both control variants now share
(``table_cellwise_jacobian``).  The subdivided quadrature rule's earlier
form, a loop over the children of every step, is the reference for its
array form (``looped_subdivided_rule``).  The dense cellwise oracle's
earlier form, one multigrid solve per cell load, is the reference for its
one dense stiffness solve (``pcg_cellwise_qp_oracle``).
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

GAUSS2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
EDGES = ((0, 1), (1, 2), (2, 0))


def _merge_close(values, tol):
    out = [values[0]]
    for v in values[1:]:
        if v - out[-1] > tol:
            out.append(v)
    return out


def scanline_clipped_integrals(vertices, w_values, lower, upper, alpha):
    """Exact integrals of the clamped field clip(-w/alpha) over a triangle.

    Returns (loads, square): loads[i] = integral of q * hat_i over the
    triangle (hat_i the linear function that is 1 at vertex i) and
    square = integral of q^2, where q = clip(-w/alpha, lower, upper) and w
    is the linear interpolant of w_values.

    Method: slice the triangle by horizontal lines through all structure
    (vertices, points where w crosses the clamp levels on the edges,
    horizontal level lines of w).  Inside one slice every integrand is
    piecewise quadratic along each horizontal segment with x-breakpoints
    affine in y, so per-segment Simpson in x composed with two-point Gauss
    in y is exact up to rounding.
    """
    vertices = np.asarray(vertices, dtype=float)
    w_values = np.asarray(w_values, dtype=float)
    basis = np.column_stack([vertices, np.ones(3)])
    gx, gy, _ = np.linalg.solve(basis, w_values)
    hat_planes = np.linalg.solve(basis, np.eye(3))

    def w_at(x, y):
        lam = np.linalg.solve(basis.T, np.array([x, y, 1.0]))
        return float(lam @ w_values)

    def q_at(x, y):
        return min(upper, max(lower, -w_at(x, y) / alpha))

    levels = [lv for lv in (-alpha * upper, -alpha * lower) if np.isfinite(lv)]
    scale = max(1.0, np.abs(w_values).max())
    grad_tol = 1e-14 * max(scale, abs(gy))

    ys = sorted(vertices[:, 1])
    breaks = set(ys)
    for lv in levels:
        for j, k in EDGES:
            wj, wk = w_values[j] - lv, w_values[k] - lv
            if wj * wk < 0:
                t = wj / (wj - wk)
                breaks.add(vertices[j, 1] + t * (vertices[k, 1] - vertices[j, 1]))
        if abs(gx) <= grad_tol and abs(gy) > grad_tol:
            y_level = vertices[0, 1] + (lv - w_values[0]) / gy
            if ys[0] < y_level < ys[-1]:
                breaks.add(y_level)
    breaks = _merge_close(sorted(breaks), 1e-14 * max(1.0, ys[-1] - ys[0]))

    loads = np.zeros(3)
    square = 0.0
    for y1, y2 in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (y2 - y1)
        for node in GAUSS2:
            y = 0.5 * (y1 + y2) + half * node
            xs = []
            for j, k in EDGES:
                yj, yk = vertices[j, 1], vertices[k, 1]
                if (yj - y) * (yk - y) < 0:
                    t = (y - yj) / (yk - yj)
                    xs.append(vertices[j, 0] + t * (vertices[k, 0] - vertices[j, 0]))
            if len(xs) != 2:
                continue
            xl, xr = sorted(xs)
            cuts = [xl, xr]
            if abs(gx) > grad_tol:
                for lv in levels:
                    xc = (lv - w_at(0.0, y)) / gx
                    if xl < xc < xr:
                        cuts.append(xc)
            cuts.sort()
            for p, r in zip(cuts[:-1], cuts[1:]):
                m = 0.5 * (p + r)
                simpson = (r - p) / 6.0
                qs = [q_at(p, y), q_at(m, y), q_at(r, y)]
                for i in range(3):
                    a, b, c = hat_planes[:, i]
                    hats = [a * x + b * y + c for x in (p, m, r)]
                    loads[i] += half * simpson * (
                        qs[0] * hats[0] + 4 * qs[1] * hats[1] + qs[2] * hats[2]
                    )
                square += half * simpson * (
                    qs[0] ** 2 + 4 * qs[1] ** 2 + qs[2] ** 2
                )
    return loads, square


def clipped_loads_on_mesh(mesh, w, lower, upper, alpha):
    """Assemble the clamped-field load vector by the scanline oracle."""
    values = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
    out = np.zeros(mesh.n_vertices)
    for cell in mesh.cells:
        loads, _ = scanline_clipped_integrals(
            mesh.vertices[cell], values[cell], lower, upper, alpha
        )
        out[cell] += loads
    dof = mesh.dof_map()
    return out[dof >= 0]


def clipped_square_on_mesh(mesh, w, lower, upper, alpha):
    """Integral of clip(-w/alpha)^2 over the mesh by the scanline oracle."""
    values = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
    total = 0.0
    for cell in mesh.cells:
        _, square = scanline_clipped_integrals(
            mesh.vertices[cell], values[cell], lower, upper, alpha
        )
        total += square
    return total


# degree-2 exact rule: the three edge midpoints, weight 1/3 each
EDGE_MIDPOINT_RULE = (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
                      np.full(3, 1.0 / 3.0))


def _clip(polygon, level, sign, strict=False):
    """Sutherland-Hodgman clip of a polygon to its part where sign (u - level) >= 0.

    ``polygon`` lists (point, value) corners, u interpolated linearly along
    the edges; a crossing point lies on the level line, so it takes the
    value ``level`` exactly.  ``strict`` keeps sign (u - level) > 0 only,
    so a polygon on the level line is left out.
    """
    kept = []
    for (p, u), (q, w) in zip(polygon, polygon[1:] + polygon[:1]):
        mp, mq = sign * (u - level), sign * (w - level)
        inside_p, inside_q = (mp > 0.0, mq > 0.0) if strict else (mp >= 0.0, mq >= 0.0)
        if inside_p:
            kept.append((p, u))
        if inside_p != inside_q:
            t = mp / (mp - mq)
            kept.append((p + t * (q - p), level))
    return kept


def _fan_integrals(polygon, basis, rule):
    """Integrals over a polygon of g lambda_a (3,), g^2 and lambda_a lambda_b (3, 3).

    The polygon is cut into the fan of triangles from its first corner; g
    is affine on each with the corners' values, lambda_a are the
    barycentric coordinates of the cell whose ``basis`` is [x, y, 1], and
    each piece is integrated by ``rule`` = (barycentric nodes, weights
    summing to 1), which must be exact for degree 2.
    """
    loads, square, mass = np.zeros(3), 0.0, np.zeros((3, 3))
    bary, weights = rule
    for j in range(1, len(polygon) - 1):
        piece = np.array([polygon[0][0], polygon[j][0], polygon[j + 1][0]])
        g = bary @ np.array([polygon[0][1], polygon[j][1], polygon[j + 1][1]])
        e1, e2 = piece[1] - piece[0], piece[2] - piece[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        nodes = np.column_stack([bary @ piece, np.ones(len(bary))])
        lam = np.linalg.solve(basis.T, nodes.T).T
        loads += area * (weights * g) @ lam
        square += area * weights @ g**2
        mass += area * (lam.T * weights) @ lam
    return loads, square, mass


def _triangle(vertices, values):
    """Basis and (point, value) corners of a triangle moved to its first vertex.

    The integrals do not depend on the translation, and barycentric
    coordinates solved from small coordinates lose less to rounding.
    """
    vertices = np.asarray(vertices, dtype=float)
    vertices = vertices - vertices[0]
    basis = np.column_stack([vertices, np.ones(3)])
    return basis, [(vertices[j], float(values[j])) for j in range(3)]


def _free_polygon(polygon, lower, upper):
    """The part of a polygon where lower <= u <= upper, finite bounds only."""
    if np.isfinite(lower):
        polygon = _clip(polygon, lower, 1.0)
    if np.isfinite(upper):
        polygon = _clip(polygon, upper, -1.0)
    return polygon


def clipped_polygon_mass(vertices, values, lower, upper, rule):
    """Integrals of lambda_a lambda_b over {lower <= u <= upper} in a triangle.

    u is the linear interpolant of ``values`` and lambda_a the triangle's
    barycentric coordinates; returns the (3, 3) matrix.  The triangle is
    clipped by each finite bound's half-plane (Sutherland-Hodgman, crossing
    points interpolated along the edges), the polygon left is cut into a
    fan of triangles from its first corner, and each piece is integrated by
    ``rule`` = (barycentric nodes, weights summing to 1), which must be
    exact for the degree-2 products of the hats.
    """
    basis, polygon = _triangle(vertices, values)
    return _fan_integrals(_free_polygon(polygon, lower, upper), basis, rule)[2]


def clipped_polygon_integrals(vertices, values, lower, upper):
    """Integrals of q lambda_a (3,) and of q^2 over a triangle, q = clamp(u, lower, upper).

    u is the linear interpolant of ``values``.  The triangle is clipped into
    its part where u lies within the bounds, on which q = u, and its parts
    strictly past each finite bound, on which q is that bound, each by
    Sutherland-Hodgman in physical coordinates; crossing points carry the
    bound exactly, so every value integrated lies within the bounds.  Each
    part's fan is integrated by the edge-midpoint rule.
    """
    basis, polygon = _triangle(vertices, values)
    parts = [_free_polygon(polygon, lower, upper)]
    for bound, sign in ((lower, -1.0), (upper, 1.0)):
        if np.isfinite(bound):
            parts.append([(p, bound) for p, _ in _clip(polygon, bound, sign, True)])
    loads, square = np.zeros(3), 0.0
    for part in parts:
        part_loads, part_square, _ = _fan_integrals(part, basis, EDGE_MIDPOINT_RULE)
        loads += part_loads
        square += part_square
    return loads, square


def polygon_clipped_integrals(mesh, w, lower, upper, alpha):
    """Per-cell (loads (n, 3), squares (n,)) of clamp(-w/alpha, lower, upper).

    ``clipped_polygon_integrals`` on every cell; unlike the scanline
    oracle, no tolerance merges close breakpoints, so it holds for any
    alpha.
    """
    values = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
    loads = np.zeros((mesh.n_cells, 3))
    squares = np.zeros(mesh.n_cells)
    for k, cell in enumerate(mesh.cells):
        loads[k], squares[k] = clipped_polygon_integrals(
            mesh.vertices[cell], -values[cell] / alpha, lower, upper
        )
    return loads, squares


def interior_load(mesh, cell_loads):
    """Sum per-cell vertex loads (n, 3) into the interior vertices, in mesh order."""
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.cells, cell_loads)
    return out[~mesh.boundary]


def _reference_mass_loads(u, areas):
    return areas[:, None] / 12.0 * (u + u.sum(axis=1, keepdims=True))


def _reference_ramp_loads(u, areas):
    positive = np.count_nonzero(u > 0.0, axis=1)
    loads = np.zeros_like(u)
    affine = positive >= 2
    loads[affine] = _reference_mass_loads(u[affine], areas[affine])
    cells = np.flatnonzero((positive == 1) | (positive == 2))
    c = np.where((positive[cells] == 2)[:, None], -u[cells], u[cells])
    n = np.arange(len(cells))
    i = np.argmax(c, axis=1)
    k, l = (i + 1) % 3, (i + 2) % 3
    ci = c[n, i]
    tk = ci / (ci - c[n, k])
    tl = ci / (ci - c[n, l])
    scale = tk * tl * areas[cells] * ci / 12.0
    loads[cells, i] += scale * (4.0 - tk - tl)
    loads[cells, k] += scale * tk
    loads[cells, l] += scale * tl
    return loads


def reference_clipped_integrals(mesh, w, lower, upper, alpha):
    """Per-cell (loads (n, 3), squares (n,)) of clamp(-w/alpha, lower, upper).

    On (n, 3) rows of vertex values of v = -w/alpha: the P1 mass form of v
    on free cells, where no value lies past a bound, and elsewhere the ramp
    identity, every cell shifted by its clamped vertex mean: with
    r(x) = max(x, 0), g = v + r(a - v) - r(v - b) and g^2 = v^2
    + (a + v) r(a - v) - (b + v) r(v - b), and a ramp positive at one
    vertex lives on the corner triangle that the zero line cuts off.  On
    free cells and cells at a bound it is the package's plane kernel, bit
    for bit; on crossed cells its subtractions lose about eps |v| |K|,
    which grows like 1/alpha, so there it is no reference.
    """
    nodal = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
    raw = -nodal[mesh.cells] / alpha
    areas = mesh.cell_areas()
    shift = np.clip(raw.mean(axis=1), lower, upper)[:, None]
    v, lo, hi = raw - shift, lower - shift, upper - shift
    loads = _reference_mass_loads(v, areas)
    square = np.einsum("ni,ni->n", v, loads)
    if np.isfinite(lower):
        ramp = _reference_ramp_loads(lo - v, areas)
        loads += ramp
        square += np.einsum("ni,ni->n", lo + v, ramp)
    if np.isfinite(upper):
        ramp = _reference_ramp_loads(v - hi, areas)
        loads -= ramp
        square -= np.einsum("ni,ni->n", hi + v, ramp)
    square += shift[:, 0] * (2.0 * loads.sum(axis=1) + shift[:, 0] * areas)
    loads += shift * areas[:, None] / 3.0
    free = ~np.any((raw < lower) | (raw > upper), axis=1)
    loads[free] = _reference_mass_loads(raw[free], areas[free])
    square[free] = np.einsum("ni,ni->n", raw[free], loads[free])
    return loads, square


def reference_ramp_counts(mesh, w, lower, upper, alpha):
    """Vertices per cell where the lower and the upper ramp are positive.

    The counts are those of the row-wise kernel: the positive entries of
    a - v and v - b, with v = -w/alpha at the cell's vertices.
    """
    nodal = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
    v = -nodal[mesh.cells] / alpha
    return (
        np.count_nonzero(lower - v > 0.0, axis=1),
        np.count_nonzero(v - upper > 0.0, axis=1),
    )


def whole_gather_cell_values(mesh, w, alpha):
    """The values v of the cell classes, the cells gathered at once.

    The vertex values of every cell as (3, n_c) planes from the one-line
    gather through a (3, n_c) copy of the cell array: v = -w/alpha at the
    cell vertices.  Every value is nan if some -w/alpha is not finite.
    """
    nodal = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.max(np.abs(nodal)) / alpha)
    if finite:
        v = -nodal[np.ascontiguousarray(mesh.cells.T)] / alpha
    else:
        v = np.full((3, mesh.n_cells), np.nan)
    return v


def recut_integrals_and_gram(mesh, w, lower, upper, alpha, fields):
    """Per-cell loads (n, 3) and squares of clamp(-w/alpha, lower, upper), and
    the Gram matrix int_free f_i f_j of the dof fields, rows of ``fields``.

    The integrals of the cells' classes (``fem._classify_cells``): the
    plane kernel on free cells, the bound's integrals past a bound and the
    fans of ``fem._cut_cells`` on crossed cells, only where some cell is
    crossed.  The Gram matrix cuts the crossed cells again and builds each
    fan's mass there, then applies the (n, 3) row form of the mass loads
    one field at a time.
    """
    from ptcontrol import fem

    labels, v = fem._classify_cells(mesh, w, lower, upper, alpha)
    areas = mesh.cell_areas()
    with np.errstate(over="ignore", invalid="ignore"):
        loads = v + (v[0] + v[1] + v[2])
        loads *= areas / 12.0
        square = v[0] * loads[0] + v[2] * loads[2]
        square += v[1] * loads[1]
    for label, bound in ((fem._AT_LOWER, lower), (fem._AT_UPPER, upper)):
        at = labels == label
        loads[:, at] = bound * areas[at] / 3.0
        square[at] = bound * (bound * areas[at])
    crossed = np.flatnonzero(labels == fem._CROSSED)
    cut = v[:, crossed].T, lower, upper
    n, fans = len(crossed), fem._FANS.size
    if crossed.size:
        corners, values, fractions, slots = fem._cut_cells(*cut)
        weights = values + values.sum(axis=2, keepdims=True)
        weights *= (fractions * (areas[crossed, None] / 12.0))[..., None]
        weights = weights.reshape(n, 1, fans)
        loads[:, crossed] = (weights @ corners.reshape(n, fans, 3) @ slots)[:, 0].T
        square[crossed] = (weights @ values.reshape(n, fans, 1))[:, 0, 0]
    # the Gram matrix, from a second cut
    free_areas = np.where(labels == fem._FREE, areas, 0.0)
    corners, _, fractions, slots = fem._cut_cells(*cut)
    free = corners[:, fem._FREE_FAN]
    rows = np.concatenate([free, free.sum(axis=2, keepdims=True)], axis=2)
    rows = rows.reshape(n, 12, 3) @ slots
    scale = np.repeat(fractions[:, fem._FREE_FAN] * (areas[crossed, None] / 12.0), 4, axis=1)
    mass = np.swapaxes(rows * scale[..., None], 1, 2) @ rows
    values = np.zeros(mesh.n_vertices)
    gram = np.empty((len(fields), len(fields)))
    for j, field in enumerate(fields):
        values[mesh.interior_vertices()] = field
        nodal = values[mesh.cells]
        cell_loads = free_areas[:, None] / 12.0 * (
            nodal + (nodal[:, 0] + nodal[:, 1] + nodal[:, 2])[:, None])
        cell_loads[crossed] = np.einsum("nab,nb->na", mass, nodal[crossed])
        gram[:, j] = np.einsum("ij,j->i", fields, fem._scatter_cell_loads(mesh, cell_loads))
    return loads.T, square, gram


def table_cellwise_jacobian(mesh, fields, c, alpha, lower, upper):
    """The values -mean/alpha of a cellwise control and its Jacobian, by a table.

    ``fields`` holds the interior dofs of the point fields g_i as rows.
    The (N, n_c) table of their cell means, one projection each through a
    whole gather of the cells, gives the unclamped values
    -(c @ means)/alpha, and the free cells, where they lie strictly within
    the bounds, give J = I + (1/alpha) sum_K |K| mean_K g_i mean_K g_j as
    the product of the table's free columns.
    """
    nodal = np.zeros((len(fields), mesh.n_vertices))
    nodal[:, mesh.interior_vertices()] = fields
    means = nodal[:, mesh.cells].mean(axis=2)
    values = -(c @ means) / alpha
    free = (values > lower) & (values < upper)
    gram = (means[:, free] * mesh.cell_areas()[free]) @ means[:, free].T
    return values, np.eye(len(fields)) + gram / alpha


def sliced_load_smooth(mesh, f):
    """Load vector (f, phi_i) by the 6-point degree-4 rule, from one values array.

    The field is sampled on slices of ``_parallel.CHUNK_POINTS // 6`` cells into
    one array of every node's value, which is then weighted, contracted
    with the rule's barycentric rows and scaled by the cell areas as a
    whole, before ``fem._scatter_cell_loads`` sums the cell loads.
    """
    from ptcontrol import _parallel, fem
    from ptcontrol.quadrature import rule_degree4

    bary, weights = rule_degree4()
    q = len(weights)
    step = max(1, _parallel.CHUNK_POINTS // q)
    fvals = np.empty(mesh.n_cells * q)
    for start in range(0, mesh.n_cells, step):
        points = np.matmul(bary, mesh.vertices[mesh.cells[start : start + step]])
        fvals[q * start : q * (start + step)] = f(points.reshape(-1, 2))
    fvals = fvals.reshape(mesh.n_cells, q)
    fvals *= weights
    contrib = fvals @ bary
    contrib *= mesh.cell_areas()[:, None]
    return fem._scatter_cell_loads(mesh, contrib)


def reference_stiffness_csr(mesh):
    """Stiffness CSR on the interior vertices from einsum element matrices.

    K_ij = (e_i . e_j) / (4 |K|) with e_i the edge opposite vertex i, summed
    into the interior dofs (vertex order) by ``coo_stiffness``.
    """
    areas = mesh.cell_areas()
    p = mesh.vertices[mesh.cells]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    return coo_stiffness(mesh, np.einsum("nid,njd->nij", e, e) / (4.0 * areas)[:, None, None])


def row_wise_element_stiffness(mesh):
    """The (n_cells, 3, 3) element matrices (e_i . e_j) / (4 |K|), row by row.

    The edges come from the coordinate planes, and each entry is stored
    into the (n_cells, 3, 3) array column by column.
    """
    areas = mesh.cell_areas()
    x, y = mesh._planes()
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


def coo_stiffness(mesh, k_elem):
    """The element matrices ``k_elem`` (n_cells, 3, 3) summed by COO assembly.

    The triplets (dof of slot i, dof of slot j, entry (i, j)) of every
    cell, cell by cell, with the boundary rows and columns dropped, are
    converted by ``coo_matrix(...).tocsr()``, which sums the duplicates.
    """
    interior = np.flatnonzero(~mesh.boundary)
    dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    dof[interior] = np.arange(len(interior))
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
    return mat


def assemble_mass(mesh):
    """P1 mass matrix over all vertices (no elimination), by COO assembly.

    Exact per-cell integration: M_K = |K|/12 * [[2,1,1],[1,2,1],[1,1,2]].
    """
    areas = mesh.cell_areas()
    m_elem = areas[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    cells = mesh.cells
    rows = np.repeat(cells, 3, axis=1).reshape(-1)
    cols = np.tile(cells, (1, 3)).reshape(-1)
    n = mesh.n_vertices
    mat = sparse.coo_matrix((m_elem.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def reference_edges(cells):
    """Unique edges by the row-wise ``np.unique(raw, axis=0)``.

    ``raw`` stacks the cell edges (01, 12, 20), all cells' first edges
    first, each sorted to (lo, hi).  Returns (edges, inverse, counts).
    """
    raw = np.sort(
        np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]]), axis=1
    )
    edges, inverse, counts = np.unique(
        raw, axis=0, return_inverse=True, return_counts=True
    )
    return edges, inverse.ravel(), counts


def reference_refine(mesh):
    """Uniform red refinement numbered by ``reference_edges``.

    Returns the refined (vertices, cells, boundary) and the edge array:
    vertex n_v + e is the midpoint of edge e, boundary midpoints of a disc
    domain are pushed radially onto its circle, and the children of cell
    k are rows 4k..4k+3 (three corner children in vertex order, then the
    middle one).
    """
    n_v = len(mesh.vertices)
    edges, inverse, counts = reference_edges(mesh.cells)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    on_boundary = counts == 1
    if mesh.domain is not None:
        d = midpoints[on_boundary] - mesh.domain.center
        r = np.hypot(d[:, 0], d[:, 1])
        midpoints[on_boundary] = mesh.domain.center + mesh.domain.radius * d / r[:, None]
    mid = inverse.reshape(3, -1).T + n_v
    children = []
    for (a, b, c), (m01, m12, m20) in zip(mesh.cells.tolist(), mid.tolist()):
        children += [[a, m01, m20], [m01, b, m12], [m20, m12, c], [m01, m12, m20]]
    return (
        np.vstack([mesh.vertices, midpoints]),
        np.array(children, dtype=np.int64),
        np.concatenate([mesh.boundary, on_boundary]),
        edges,
    )


def reference_h(mesh):
    """Longest cell edge by the row-wise (n_c, 3, 2) gather and ``np.linalg.norm``."""
    edges = mesh.vertices[mesh.cells]
    return float(np.linalg.norm(np.roll(edges, -1, axis=1) - edges, axis=2).max())


def reference_cell_areas(mesh):
    """Signed cell areas from the row-wise (n_c, 3, 2) gather."""
    p = mesh.vertices[mesh.cells]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def reference_cell_centroids(mesh):
    """Cell centroids as the mean of the row-wise (n_c, 3, 2) gather."""
    return mesh.vertices[mesh.cells].mean(axis=1)


def locate_point_scan(mesh, x, tol=1e-12):
    """Point location by the barycentric test on every cell of the mesh.

    Every cell's inverse affine map sends x to (s, t) and the barycentrics
    (1 - s - t, s, t); the lowest-index cell whose barycentrics are all
    >= -tol holds x.  Returns (cell, barycentrics), or None when no cell
    passes.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    p = mesh.vertices[mesh.cells]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1]
    inv[:, 0, 1] = -J[:, 0, 1]
    inv[:, 1, 0] = -J[:, 1, 0]
    inv[:, 1, 1] = J[:, 0, 0]
    inv /= det[:, None, None]
    st = np.einsum("nij,nj->ni", inv, x - np.ascontiguousarray(p[:, 0]))
    lam = np.column_stack([1.0 - st[:, 0] - st[:, 1], st])
    hits = np.flatnonzero(np.all(lam >= -tol, axis=1))
    if len(hits) == 0:
        return None
    k = int(hits[0])
    return k, lam[k]


def _distance_range(mesh, center):
    """Least and greatest distance from ``center`` to each closed cell.

    The greatest is at a vertex.  The least is 0 for a cell that holds the
    center, else at the nearest point of the nearest edge.  A distance
    taken at a vertex is sqrt(dx*dx + dy*dy), the bits that a radial field
    evaluated at that vertex sees.
    """
    p = mesh.vertices[mesh.cells] - np.asarray(center, dtype=float)

    def radius(q):
        return np.sqrt(q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1])

    nearest, crosses = [], []
    for i, j in EDGES:
        a, b = p[:, i], p[:, j]
        d = b - a
        # a + t d is the edge point nearest the center, the origin here
        t = np.clip(-(a * d).sum(axis=1) / (d * d).sum(axis=1), 0.0, 1.0)[:, None]
        q = np.where(t <= 0.0, a, np.where(t >= 1.0, b, a + t * d))
        nearest.append(radius(q))
        crosses.append(np.sign(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))
    crosses = np.array(crosses)
    holds = np.all(crosses > 0, axis=0) | np.all(crosses < 0, axis=0)
    least = np.where(holds, 0.0, np.min(nearest, axis=0))
    return least, radius(p).max(axis=1)


def exact_cell_tags(mesh, field, lower, upper):
    """The tags of ``error.classify_cells``, from each cell's exact extremes.

    AT_BOUND where the largest value on the closed cell is at or below
    ``lower`` or the smallest at or above ``upper``, FREE where both lie
    strictly between the bounds, CUT otherwise.  The extremes are read
    from the field's data, not sampled:

    - ``FeFunction``: the smallest and largest nodal value of the cell;
    - ``CellwiseFunction``: the cell value;
    - ``VariationalControl``: the clamp of -z/alpha at the adjoint's
      extreme nodal values, as the clamp is monotone;
    - ``ExactSolution`` (its control): the control is nondecreasing in the
      distance to the center, so its extremes are its values at the ends
      of the cell's distance range.
    """
    from ptcontrol.control import VariationalControl
    from ptcontrol.error import AT_BOUND, CUT, FREE
    from ptcontrol.fem import CellwiseFunction, FeFunction
    from ptcontrol.greens import ExactSolution

    if isinstance(field, ExactSolution):
        least, greatest = _distance_range(mesh, field.center)
        smallest = field.control_radial(least)
        largest = field.control_radial(greatest)
    elif isinstance(field, CellwiseFunction):
        smallest = largest = field.values
    elif isinstance(field, VariationalControl):
        nodal = field.adjoint.values[mesh.cells]
        with np.errstate(over="ignore"):
            smallest = np.clip(nodal.max(axis=1) / -field.alpha, field.lower, field.upper)
            largest = np.clip(nodal.min(axis=1) / -field.alpha, field.lower, field.upper)
    elif isinstance(field, FeFunction):
        nodal = field.values[mesh.cells]
        smallest, largest = nodal.min(axis=1), nodal.max(axis=1)
    else:
        raise TypeError(f"no exact extremes for {type(field).__name__}")
    tags = np.full(mesh.n_cells, CUT, dtype=int)
    tags[(lower < smallest) & (largest < upper)] = FREE
    tags[(largest <= lower) | (smallest >= upper)] = AT_BOUND
    return tags


def discrete_state(problem, mesh, solution, variant):
    """State field of a discrete solution, by one explicit stiffness solve.

    The state solves K u = b_f + b(q) for the source load b_f and the load
    of the solution's control q: its cell values (cellwise) or the clamped,
    scaled adjoint integrated exactly (variational), as ``DiscreteSolution``
    documents.  Public calls only, and not ``solve_discrete``, so a check of
    the state does not read what it checks.
    """
    from ptcontrol import CELLWISE, fem

    if variant == CELLWISE:
        load = fem.load_cellwise(mesh, solution.control)
    else:
        load = fem.load_clipped_linear(
            mesh, solution.adjoint, problem.lower, problem.upper, problem.alpha
        )
    source = fem.load_smooth(mesh, problem.source)
    return fem.FeFunction.from_dofs(mesh, fem.factorize(mesh).solve(source + load))


def pcg_cellwise_qp_oracle(problem, mesh, tol):
    """``oracle.cellwise_qp_oracle`` with its states from ``fem.factorize``.

    The source state and the footprint of every unit cell indicator come
    from one preconditioned CG solve each, as the package's oracle did
    before it solved the dense stiffness once for all its loads.
    """
    from ptcontrol import fem, oracle

    factorization = fem.factorize(mesh)
    evaluate = oracle._evaluation_matrix(mesh, problem.points)
    loads = oracle._cell_load_matrix(mesh)
    u_source = factorization.solve(fem.load_smooth(mesh, problem.source))
    footprint = np.empty((len(problem.points), mesh.n_cells))
    for k in range(mesh.n_cells):
        footprint[:, k] = evaluate @ factorization.solve(loads[:, k])
    return oracle.projected_gradient_qp(
        footprint, evaluate @ u_source - problem.targets, mesh.cell_areas(),
        problem.alpha, problem.lower, problem.upper, tol=tol,
    )


def gaussian_elimination(matrix, rhs):
    """Dense linear solve by row-pivoted elimination, plain loops."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = len(b)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            if factor != 0.0:
                a[row, col:] -= factor * a[col, col:]
                b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def sparse_lu(matrix):
    """SuperLU factors of a sparse SPD matrix; ``.solve(b)`` solves.

    COLAMD column ordering (Davis, Gilbert, Larimore and Ng, ACM TOMS 30(3),
    2004) in symmetric mode, the diagonal always the pivot: the direct solve
    the package used at the bottom of its multigrid hierarchies, kept as a
    reference for matrices past the package's dense limit.
    """
    return sparse_linalg.splu(
        sparse.csc_matrix(matrix),
        permc_spec="COLAMD",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def bisect_root(func, lo, hi, iterations=200):
    """Plain bisection; func must change sign on [lo, hi]."""
    flo = func(lo)
    if flo == 0.0:
        return lo
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if fmid == 0.0:
            return mid
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def looped_subdivided_rule(bary, weights, depth):
    """The rule (bary, weights) composed over 4^depth children, one child at a time.

    Each step splits every triangle of the last into its three corner
    children and its middle one, in that order, and the rule is mapped onto
    each child by its own matrix product.
    """
    corners = [np.eye(3)]
    for _ in range(depth):
        refined = []
        for T in corners:
            v0, v1, v2 = T
            m01, m12, m20 = (v0 + v1) / 2, (v1 + v2) / 2, (v2 + v0) / 2
            refined += [
                np.array([v0, m01, m20]),
                np.array([m01, v1, m12]),
                np.array([m20, m12, v2]),
                np.array([m01, m12, m20]),
            ]
        corners = refined
    pts = np.vstack([bary @ T for T in corners])
    return pts, np.tile(weights / len(corners), len(corners))


def triangle_quadrature_integral(vertices, func, n=120):
    """Integral of func over a triangle by dense midpoint subdivision.

    Splits the triangle into n^2 similar subtriangles and applies the
    centroid rule on each; second-order accurate, used where 1e-6 level
    agreement suffices or the integrand is smooth.
    """
    vertices = np.asarray(vertices, dtype=float)
    total = 0.0
    e1 = vertices[1] - vertices[0]
    e2 = vertices[2] - vertices[0]
    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
    sub_area = area / n**2
    for i in range(n):
        for j in range(n - i):
            # upright subtriangle centroid in barycentric steps
            l0 = (i + 1.0 / 3.0) / n
            l1 = (j + 1.0 / 3.0) / n
            point = (
                vertices[0]
                + l0 * (vertices[1] - vertices[0])
                + l1 * (vertices[2] - vertices[0])
            )
            total += func(point[0], point[1])
            if i + j < n - 1:
                l0 = (i + 2.0 / 3.0) / n
                l1 = (j + 2.0 / 3.0) / n
                point = (
                    vertices[0]
                    + l0 * (vertices[1] - vertices[0])
                    + l1 * (vertices[2] - vertices[0])
                )
                total += func(point[0], point[1])
    return total * sub_area
