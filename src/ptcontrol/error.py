"""Error norms, active-set cell classification, and convergence orders.

Error integrals use a fixed degree-6 rule on a uniform subdivision of every
cell, fine enough to resolve the kinks of clamped fields and the curved
active-set boundary below discretization error while staying deterministic
(no adaptivity, so repeated runs are bit-identical).

The rule is evaluated over chunks of ``CHUNK_CELLS`` cells.  Each chunk maps
the rule's barycentric nodes to physical points with one matmul, samples both
fields there, and reduces the squared (L2) or absolute (L1) differences with
one matmul against the weights.  The cell areas are taken once per call from
the mesh's cached array.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import subdivided_rule

__all__ = [
    "AT_BOUND",
    "FREE",
    "CUT",
    "ConvergenceRecord",
    "l2_error_control",
    "l1_error_fe",
    "classify_cells",
    "cut_area_ratio",
    "estimate_eoc",
    "eoc_least_squares",
]

AT_BOUND = 0
FREE = 1
CUT = 2

DEFAULT_DEPTH = 2
SINGULAR_EXTRA_DEPTH = 4
CLASSIFY_RTOL = 1e-10
CHUNK_CELLS = 16384

_CLASSIFY_BARY = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]
)


@dataclass
class ConvergenceRecord:
    """One study level: mesh data, error value, and the order vs previous."""

    level: int
    h: float
    n_vertices: int
    n_cells: int
    error: float
    eoc: Optional[float] = None


def _physical_points(mesh, bary, cells):
    """Physical points of barycentric nodes ``bary`` in each of ``cells``.

    Returns a (len(cells), len(bary), 2) array.
    """
    return np.matmul(bary, mesh.vertices[mesh.cells[cells]])


def _sample(field, bary, cells, physical):
    """Sample a field on quadrature nodes of the given cells.

    Fields with a ``sample_cells`` method are evaluated in barycentric
    coordinates (exact for interpolants); anything else must be callable
    on (m, 2) point arrays.
    """
    if hasattr(field, "sample_cells"):
        return field.sample_cells(bary, cells)
    m = len(bary)
    values = np.asarray(field(physical.reshape(-1, 2)), dtype=float)
    return values.reshape(len(cells), m)


def _accumulate(mesh, first, second, bary, weights, cells, areas, squared):
    """Sum over ``cells`` of the rule applied to |first - second|^(2 or 1)."""
    physical = _physical_points(mesh, bary, cells)
    diff = _sample(first, bary, cells, physical) - _sample(second, bary, cells, physical)
    cellwise = (diff * diff) @ weights if squared else np.abs(diff) @ weights
    return float(cellwise @ areas[cells])


def l2_error_control(mesh, exact, discrete, depth=DEFAULT_DEPTH):
    """L2 distance between two control fields over the meshed domain.

    Parameters
    ----------
    mesh : Mesh
    exact, discrete : callable or sampled field
        Either vectorized callables on (m, 2) arrays or objects with a
        ``sample_cells`` method (FE functions, cellwise fields, implicit
        clamped controls).
    depth : int
        Uniform subdivision depth per cell; depth 2 integrates with 192
        points per cell.

    Returns
    -------
    float
    """
    bary, weights = subdivided_rule(depth)
    areas = mesh.cell_areas()
    total = 0.0
    for start in range(0, mesh.n_cells, CHUNK_CELLS):
        cells = np.arange(start, min(start + CHUNK_CELLS, mesh.n_cells))
        total += _accumulate(mesh, exact, discrete, bary, weights, cells, areas, True)
    return float(np.sqrt(total))


def l1_error_fe(mesh, exact, fe, singular_point=None, depth=DEFAULT_DEPTH,
                extra_depth=SINGULAR_EXTRA_DEPTH):
    """L1 distance between a reference field and an FE function.

    Cells incident to ``singular_point`` (a mesh vertex) are integrated
    with ``extra_depth`` additional subdivision levels; the quadrature
    nodes are strictly interior, so an integrable singularity at the
    vertex is never evaluated.
    """
    bary, weights = subdivided_rule(depth)
    singular_cells = np.zeros(mesh.n_cells, dtype=bool)
    if singular_point is not None:
        at = np.where(np.all(mesh.vertices == np.asarray(singular_point), axis=1))[0]
        if len(at) == 0:
            raise ValueError("singular point must be a mesh vertex")
        singular_cells = np.any(mesh.cells == at[0], axis=1)
    areas = mesh.cell_areas()
    total = 0.0
    regular = np.where(~singular_cells)[0]
    for start in range(0, len(regular), CHUNK_CELLS):
        cells = regular[start : start + CHUNK_CELLS]
        total += _accumulate(mesh, exact, fe, bary, weights, cells, areas, False)
    if singular_cells.any():
        fine_bary, fine_weights = subdivided_rule(depth + extra_depth)
        cells = np.where(singular_cells)[0]
        total += _accumulate(mesh, exact, fe, fine_bary, fine_weights, cells, areas,
                             False)
    return total


def classify_cells(mesh, control, lower, upper, rtol=CLASSIFY_RTOL):
    """Tag each cell by where the control sits relative to its bounds.

    Samples the field at the three vertices, the centroid, and the three
    edge midpoints of every cell.  All samples within tolerance of one
    bound gives AT_BOUND; all samples farther than the tolerance from both
    bounds gives FREE; everything else is CUT (the conservative catch-all
    holding the active-set boundary).  The tolerance is ``rtol * (upper -
    lower)``, or just ``rtol`` if the bounds are not finite.

    Returns
    -------
    (n_cells,) int array with values AT_BOUND, FREE, CUT.
    """
    span = upper - lower
    tol = rtol * span if np.isfinite(span) else rtol
    cells = np.arange(mesh.n_cells)
    physical = _physical_points(mesh, _CLASSIFY_BARY, cells)
    values = _sample(control, _CLASSIFY_BARY, cells, physical)
    at_lower = np.all(np.abs(values - lower) <= tol, axis=1)
    at_upper = np.all(np.abs(values - upper) <= tol, axis=1)
    inside = np.all((values > lower + tol) & (values < upper - tol), axis=1)
    tags = np.full(mesh.n_cells, CUT, dtype=int)
    tags[inside] = FREE
    tags[at_lower | at_upper] = AT_BOUND
    return tags


def cut_area_ratio(tags, mesh):
    """Total area of CUT cells divided by the mesh size h.

    For an active set bounded by a smooth curve this stays O(1) across
    levels (roughly the curve length), which is what the convergence
    theory for the post-processed control needs.
    """
    return float(np.sum(mesh.cell_areas()[np.asarray(tags) == CUT]) / mesh.h)


def estimate_eoc(records):
    """Pairwise observed convergence orders from (h, error) records.

    order_k = log(e_{k-1}/e_k) / log(h_{k-1}/h_k) for k = 1..len-1; a
    non-positive error yields nan in the affected slots.

    Raises
    ------
    ValueError
        Fewer than two records, or h not strictly decreasing.
    """
    h = np.array([float(r[0]) for r in records])
    e = np.array([float(r[1]) for r in records])
    if len(h) < 2:
        raise ValueError("need at least two records")
    if not np.all(np.diff(h) < 0):
        raise ValueError("h must be strictly decreasing")
    orders = []
    for k in range(1, len(h)):
        if e[k - 1] <= 0 or e[k] <= 0:
            orders.append(float("nan"))
        else:
            orders.append(float(np.log(e[k - 1] / e[k]) / np.log(h[k - 1] / h[k])))
    return orders


def eoc_least_squares(records, window=3):
    """Least-squares slope of log(error) vs log(h) over the last records."""
    h = np.array([float(r[0]) for r in records])[-window:]
    e = np.array([float(r[1]) for r in records])[-window:]
    if len(h) < 2:
        raise ValueError("need at least two records in the window")
    if np.any(e <= 0):
        return float("nan")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])
