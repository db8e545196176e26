"""Symmetric triangle quadrature rules in barycentric coordinates.

Both rules use interior points only, so no quadrature node ever coincides
with a mesh vertex (important when integrands are singular at a vertex).
"""

import numbers
from functools import lru_cache

import numpy as np

__all__ = ["rule_degree4", "rule_degree6", "subdivided_rule"]


def _symmetric_orbit3(a, b, w):
    return [(a, b, b, w), (b, a, b, w), (b, b, a, w)]


def _symmetric_orbit6(a, b, c, w):
    pts = [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    return [(x, y, z, w) for (x, y, z) in pts]


@lru_cache(maxsize=None)
def rule_degree4():
    """6-point degree-4 rule; weights sum to 1 (reference measure normalized).

    Returns
    -------
    bary : (6, 3) array
    weights : (6,) array
    """
    rows = _symmetric_orbit3(
        0.816847572980459, 0.091576213509771, 0.109951743655322
    ) + _symmetric_orbit3(0.108103018168070, 0.445948490915965, 0.223381589678011)
    table = np.array(rows)
    bary, weights = table[:, :3], table[:, 3]
    bary.setflags(write=False)
    weights.setflags(write=False)
    return bary, weights


@lru_cache(maxsize=None)
def rule_degree6():
    """12-point degree-6 rule; weights sum to 1."""
    rows = (
        _symmetric_orbit3(0.873821971016996, 0.063089014491502, 0.050844906370207)
        + _symmetric_orbit3(0.501426509658179, 0.249286745170910, 0.116786275726379)
        + _symmetric_orbit6(
            0.636502499121399, 0.310352451033785, 0.053145049844816, 0.082851075618374
        )
    )
    table = np.array(rows)
    bary, weights = table[:, :3], table[:, 3]
    bary.setflags(write=False)
    weights.setflags(write=False)
    return bary, weights


@lru_cache(maxsize=None)
def subdivided_rule(depth):
    """Degree-6 rule composed over a uniform 4^depth subdivision of the triangle.

    The reference triangle is split ``depth`` times into 4 congruent children
    and the 12-point rule is mapped onto each child.

    Parameters
    ----------
    depth : int
        Nonnegative; anything else raises ``ValueError``.

    Returns
    -------
    bary : (12 * 4**depth, 3) array
        Barycentric coordinates with respect to the parent triangle.
    weights : (12 * 4**depth,) array
        Weights summing to 1.
    """
    if not (isinstance(depth, numbers.Integral) and depth >= 0):
        raise ValueError(f"depth must be a nonnegative integer, not {depth!r}")
    bary, weights = rule_degree6()
    # (n, 3, 3) corners; child 4 i + k of a step is child k of the last step's i
    corners = np.eye(3)[None]
    for _ in range(depth):
        v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
        m01, m12, m20 = (v0 + v1) / 2, (v1 + v2) / 2, (v2 + v0) / 2
        children = ((v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20))
        corners = np.stack([np.stack(c, axis=1) for c in children], axis=1)
        corners = corners.reshape(-1, 3, 3)
    pts = np.matmul(bary, corners).reshape(-1, 3)
    w = np.tile(weights / len(corners), len(corners))
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w
