"""Error norms, active-set cell classification, and convergence orders.

Error integrals use a fixed degree-6 rule on a uniform subdivision of every
cell, fine enough to resolve the kinks of clamped fields and the curved
active-set boundary below discretization error while staying deterministic
(no adaptivity, so repeated runs are bit-identical).

The rule runs on the chunk loop of ``_parallel`` (``_over_chunks``), which
also serves ``fem.load_smooth``; its chunk size, threads and determinism
are set out there.  Each chunk maps the rule's barycentric nodes to
physical points with the mesh's node map, so a field reads contiguous
coordinate columns.  It samples both fields there and reduces the squared
(L2) or absolute (L1) differences with one matmul against the weights,
giving one value per cell; one ``np.einsum`` sums them with the areas.  The
threads never move the chunk boundaries, but ``CHUNK_POINTS`` is part of the
numbers: BLAS rounds a row of that gemv by the row's place in its chunk.
"""

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._parallel import _over_chunks
from .mesh import _physical_points
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


@dataclass
class ConvergenceRecord:
    """One study level: mesh data, error value, and the order vs previous."""

    level: int
    h: float
    n_vertices: int
    n_cells: int
    error: float
    eoc: Optional[float] = None


def _on_mesh(mesh, *fields):
    """Raise ValueError unless every sampled field lives on ``mesh``.

    Cells are indexed in ``mesh``'s numbering, which another mesh's field
    reads as its own cells, or past its end.
    """
    for field in fields:
        if hasattr(field, "sample_cells") and field.mesh is not mesh:
            raise ValueError("the field lives on another mesh")


def _sample(field, bary, cells, physical):
    """Sample a field on quadrature nodes of the given cells, shape (n, q).

    Fields with a ``sample_cells`` method are evaluated in barycentric
    coordinates (exact for interpolants); anything else must be callable
    on (m, 2) point arrays.
    """
    if hasattr(field, "sample_cells"):
        return field.sample_cells(bary, cells)
    values = np.asarray(field(physical), dtype=float)
    return values.reshape(len(cells), len(bary))


def _cell_errors(mesh, first, second, bary, weights, cells, squared, out):
    """Rule applied to |first - second|^2 (``squared``) or |first - second|.

    Writes the weighted sum over each of ``cells`` to ``out``; times the
    cell's area it is the integral over the cell.
    """

    def chunk_errors(part):
        chunk = cells[part]
        physical = _physical_points(mesh, bary, chunk)
        diff = np.subtract(_sample(first, bary, chunk, physical),
                           _sample(second, bary, chunk, physical))
        if squared:
            np.multiply(diff, diff, out=diff)
        else:
            np.abs(diff, out=diff)
        out[chunk] = diff @ weights

    _over_chunks(len(cells), len(bary), chunk_errors)


def l2_error_control(mesh, exact, discrete, depth=DEFAULT_DEPTH):
    """L2 distance between two control fields over the meshed domain.

    Parameters
    ----------
    mesh : Mesh
    exact, discrete : callable or sampled field
        Either vectorized callables on (m, 2) arrays or objects with a
        ``sample_cells`` method (FE functions, cellwise fields, implicit
        clamped controls) on ``mesh``; a field on another mesh raises
        ``ValueError``.
    depth : int
        Uniform subdivision depth per cell; depth 2 integrates with 192
        points per cell.

    Returns
    -------
    float
    """
    _on_mesh(mesh, exact, discrete)
    bary, weights = subdivided_rule(depth)
    cellwise = np.empty(mesh.n_cells)
    _cell_errors(mesh, exact, discrete, bary, weights, np.arange(mesh.n_cells), True,
                 cellwise)
    return float(np.sqrt(np.einsum("i,i->", cellwise, mesh.cell_areas())))


def l1_error_fe(mesh, exact, fe, singular_point=None, depth=DEFAULT_DEPTH,
                extra_depth=SINGULAR_EXTRA_DEPTH):
    """L1 distance between a reference field and an FE function.

    Cells incident to ``singular_point`` (a mesh vertex) are integrated
    with ``extra_depth`` additional subdivision levels; the quadrature
    nodes are strictly interior, so an integrable singularity at the
    vertex is never evaluated.  A sampled field on another mesh than
    ``mesh`` raises ``ValueError``.
    """
    _on_mesh(mesh, exact, fe)
    bary, weights = subdivided_rule(depth)
    singular_cells = np.zeros(mesh.n_cells, dtype=bool)
    if singular_point is not None:
        at = np.where(np.all(mesh.vertices == np.asarray(singular_point), axis=1))[0]
        if len(at) == 0:
            raise ValueError("singular point must be a mesh vertex")
        singular_cells = np.any(mesh.cells == at[0], axis=1)
    cellwise = np.empty(mesh.n_cells)
    _cell_errors(mesh, exact, fe, bary, weights, np.flatnonzero(~singular_cells), False,
                 cellwise)
    if singular_cells.any():
        fine_bary, fine_weights = subdivided_rule(depth + extra_depth)
        _cell_errors(mesh, exact, fe, fine_bary, fine_weights,
                     np.flatnonzero(singular_cells), False, cellwise)
    return float(np.einsum("i,i->", cellwise, mesh.cell_areas()))


def classify_cells(mesh, control, lower, upper):
    """Tag each cell by where the control sits relative to its bounds.

    Reads the control at the three vertices of every cell.  The largest
    value at or below ``lower``, or the smallest at or above ``upper``,
    gives AT_BOUND; every value strictly between the bounds gives FREE;
    everything else is CUT (the cells holding the active-set boundary).
    On a cell where the field is constant or a clamped affine function,
    as every discrete control is, the vertex values are its extremes, so
    the tags are exact.  A sampled control on another mesh than ``mesh``
    raises ``ValueError``, and so do bounds that fail lower < upper.

    Returns
    -------
    (n_cells,) int array with values AT_BOUND, FREE, CUT.
    """
    _on_mesh(mesh, control)
    if not lower < upper:
        raise ValueError("bounds must satisfy lower < upper")
    vertices = np.eye(3)
    cells = np.arange(mesh.n_cells)
    values = _sample(control, vertices, cells, _physical_points(mesh, vertices, cells))
    smallest, largest = values.min(axis=1), values.max(axis=1)
    tags = np.full(mesh.n_cells, CUT, dtype=int)
    tags[(lower < smallest) & (largest < upper)] = FREE
    tags[(largest <= lower) | (smallest >= upper)] = AT_BOUND
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
        Fewer than two records, or h not finite, positive and strictly
        decreasing.
    """
    h = _mesh_sizes(records)
    e = np.array([float(r[1]) for r in records])
    if len(h) < 2:
        raise ValueError("need at least two records")
    orders = []
    for k in range(1, len(h)):
        if e[k - 1] <= 0 or e[k] <= 0:
            orders.append(float("nan"))
        else:
            orders.append(float(np.log(e[k - 1] / e[k]) / np.log(h[k - 1] / h[k])))
    return orders


def _mesh_sizes(records):
    """The h of each (h, error) record, checked finite, positive and strictly decreasing."""
    h = np.array([float(r[0]) for r in records])
    if not (np.all(np.isfinite(h)) and np.all(h > 0) and np.all(np.diff(h) < 0)):
        raise ValueError("h must be finite, positive and strictly decreasing")
    return h


def eoc_least_squares(records, window=3):
    """Least-squares slope of log(error) vs log(h) over the last ``window`` records.

    Raises ``ValueError`` for a window below two, fewer than two records,
    or h not finite, positive and strictly decreasing, as ``estimate_eoc``.
    """
    if not (isinstance(window, numbers.Integral) and window >= 2):
        raise ValueError("window must be an integer of at least 2")
    h = _mesh_sizes(records)[-window:]
    e = np.array([float(r[1]) for r in records])[-window:]
    if len(h) < 2:
        raise ValueError("need at least two records in the window")
    if np.any(e <= 0):
        return float("nan")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])
