"""Independent recomputation paths used as test oracles.

Nothing here imports solver machinery from the package; the point is to
certify package results against structurally different algorithms (exact
scanline slicing for clipped integrals, dense textbook elimination for
linear solves, bisection for benchmark radii, row-wise ``np.unique`` for
edge numbering, polygon clipping for free-set mass matrices).  The row-wise clipped kernel and the einsum stiffness
element matrices are earlier forms of the package's kernels, kept as
bit-for-bit references for their plane-wise rewrites.
"""

import numpy as np
import scipy.sparse as sparse

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
    vertices = np.asarray(vertices, dtype=float)
    basis = np.column_stack([vertices, np.ones(3)])
    polygon = [(vertices[j], float(values[j])) for j in range(3)]
    margins = []
    if np.isfinite(lower):
        margins.append(lambda x: x - lower)
    if np.isfinite(upper):
        margins.append(lambda x: upper - x)
    for margin in margins:
        kept = []
        for (p, u), (q, w) in zip(polygon, polygon[1:] + polygon[:1]):
            mp, mq = margin(u), margin(w)
            if mp >= 0.0:
                kept.append((p, u))
            if (mp >= 0.0) != (mq >= 0.0):
                t = mp / (mp - mq)
                kept.append((p + t * (q - p), u + t * (w - u)))
        polygon = kept
    mass = np.zeros((3, 3))
    bary, weights = rule
    for j in range(1, len(polygon) - 1):
        piece = np.array([polygon[0][0], polygon[j][0], polygon[j + 1][0]])
        e1, e2 = piece[1] - piece[0], piece[2] - piece[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        nodes = np.column_stack([bary @ piece, np.ones(len(bary))])
        lam = np.linalg.solve(basis.T, nodes.T).T
        mass += area * (lam.T * weights) @ lam
    return mass


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

    The ramp identity evaluated on (n, 3) rows of vertex values over every
    cell, free and at-bound cells included; see the clipped-loads section
    of ``ptcontrol.fem``.
    """
    nodal = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
    v = -nodal[mesh.cells] / alpha
    areas = mesh.cell_areas()
    shift = np.clip(v.mean(axis=1), lower, upper)[:, None]
    v, lo, hi = v - shift, lower - shift, upper - shift
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
    return loads, square


def reference_ramp_counts(mesh, w, lower, upper, alpha):
    """Vertices per cell where the lower and the upper ramp are positive.

    The counts are those of the row-wise kernel: the positive entries of
    lo - v' and v' - hi, with the field shifted by its clamped cell mean.
    """
    nodal = w.values if hasattr(w, "values") else np.asarray(w, dtype=float)
    v = -nodal[mesh.cells] / alpha
    shift = np.clip(v.mean(axis=1), lower, upper)[:, None]
    v, lo, hi = v - shift, lower - shift, upper - shift
    return (
        np.count_nonzero(lo - v > 0.0, axis=1),
        np.count_nonzero(v - hi > 0.0, axis=1),
    )


def reference_stiffness_csr(mesh):
    """Stiffness CSR on the interior vertices from einsum element matrices.

    K_ij = (e_i . e_j) / (4 |K|) with e_i the edge opposite vertex i, summed
    into the interior dofs (vertex order) by COO assembly.
    """
    areas = mesh.cell_areas()
    p = mesh.vertices[mesh.cells]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    k_elem = np.einsum("nid,njd->nij", e, e) / (4.0 * areas)[:, None, None]
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
