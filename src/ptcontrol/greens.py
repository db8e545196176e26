"""Closed-form reference solution of the disc benchmark.

Benchmark setup: a disc of radius R about a single tracking point placed at
its center, homogeneous Dirichlet conditions, one target value, and box
bounds on the control.  The optimal adjoint is then the disc's Green's
function at the center,

    z(r) = ln(R/r) / (2 pi),

the optimal state is chosen as cos(k r) with r the distance to the center
and k = pi / (2 R), so that it vanishes on the circle r = R for every
radius, the optimal control follows from the projection formula
q(x) = clamp(-z(x)/alpha, a, b), and the source term f is manufactured so
that the optimality system holds exactly for the state equation
-Laplace(u) = f + q.  The target is state(center) - 1 = 0, so the adjoint
coefficient (tracking misfit at the center) equals 1.  At R = 1/2, k is
pi exactly.
"""

import numpy as np

from .mesh import DiscDomain

__all__ = ["ExactSolution"]


class ExactSolution:
    """Exact optimal triple (state, adjoint, control) and manufactured source.

    Parameters
    ----------
    center : sequence of floats
        Tracking point = domain center, a finite point of the plane.
    radius : float
        Disc radius, positive and finite.
    alpha : float
        Regularization weight (positive).
    lower, upper : float
        Control bounds, lower < upper; either may be infinite.

    All evaluation methods accept a single point of shape (2,) or a batch
    of shape (m, 2) and return a scalar or an (m,) array accordingly.
    """

    def __init__(
        self,
        center=(0.5, 0.5),
        radius=0.5,
        alpha=1.0,
        lower=-1.0,
        upper=1.0,
    ):
        disc = DiscDomain(center, radius)
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        if not lower < upper:
            raise ValueError("bounds must satisfy lower < upper")
        self.center = disc.center
        self.radius = disc.radius
        self.alpha = float(alpha)
        self.lower = float(lower)
        self.upper = float(upper)
        # the state's wave number: cos(k R) = 0 on the rim
        self._wave_number = np.pi / (2.0 * self.radius)

    def _radius_of(self, x):
        """Distance of x to the center, a new float array (0-d for one point)."""
        x = np.asarray(x, dtype=float)
        if x.shape == (2,):
            return np.asarray(np.linalg.norm(x - self.center))
        if x.ndim == 2 and x.shape[1] == 2:
            # sqrt(dx*dx + dy*dy) in place: equals np.linalg.norm(x - center,
            # axis=1) bit for bit, without its temporaries
            cx, cy = self.center
            dx = x[:, 0] - cx
            dy = x[:, 1] - cy
            dx *= dx
            dy *= dy
            dx += dy
            return np.sqrt(dx, out=dx)
        raise ValueError("points must have shape (2,) or (m, 2)")

    def greens_radial(self, r):
        """Adjoint value at distance r from the center; +inf at r = 0."""
        return _value(self._greens_over(np.array(r, dtype=float)))

    def greens(self, x):
        """Optimal adjoint = Green's function of the disc at the center.

        Singular at the center: returns +inf there (the flag value).
        """
        return _value(self._greens_over(self._radius_of(x)))

    def state(self, x):
        """Optimal state cos(k r), k = pi / (2 R); zero on the rim r = R."""
        return _value(np.cos(self._wave_number * self._radius_of(x)))

    def target(self):
        """Tracking target: state(center) - 1 (zero, so the misfit coefficient is 1)."""
        return self.state(self.center) - 1.0

    def control_radial(self, r):
        """Optimal control at distance r: clamp(-greens/alpha); equals lower at r=0."""
        return _value(self._control_over(np.array(r, dtype=float)))

    def control(self, x):
        """Optimal control by the projection formula clamp(-greens/alpha, a, b)."""
        return _value(self._control_over(self._radius_of(x)))

    def active_radius(self):
        """Radius inside which the control sits at the lower bound.

        Solves greens(r) = -lower * alpha in closed form; returns 0.0 if the
        lower bound is never active (e.g. lower = -inf).
        """
        level = -self.lower * self.alpha
        if not np.isfinite(level) or level <= 0:
            return 0.0
        return self.radius * np.exp(-2.0 * np.pi * level)

    def source_radial(self, r):
        """Manufactured source at distance r from the center.

        f = -Laplace(state) - control with the radial Laplacian of cos(k r),
        k = pi / (2 R): f = k^2 cos(k r) + (k/r) sin(k r) - control(r).  The
        middle term is continued by its series limit k^2 for r < 1e-8, so
        f(center) = 2 k^2 - lower.
        """
        return _value(self._source_over(np.array(r, dtype=float)))

    def source(self, x):
        """Manufactured source term of the state equation -Laplace(u) = f + q."""
        return _value(self._source_over(self._radius_of(x)))

    # The radial fields are evaluated over a fresh radius array, which each
    # overwrites with its values: the ufuncs and their order are those of
    # the formulas above, so the values keep their bits, without the
    # temporaries of a new array per step.

    def _greens_over(self, r):
        with np.errstate(divide="ignore"):
            np.divide(self.radius, r, out=r)
            np.log(r, out=r)
        r /= 2.0 * np.pi
        return r

    def _control_over(self, r):
        out = np.negative(self._greens_over(r), out=r)
        # a quotient that overflows is infinite, which the clamp makes a bound
        with np.errstate(over="ignore"):
            out /= self.alpha
        return np.clip(out, self.lower, self.upper, out=out)

    def _source_over(self, r):
        k = self._wave_number
        angle = np.multiply(k, r, out=np.empty_like(r))
        radial = np.sin(angle, out=np.empty_like(r))
        radial *= k
        with np.errstate(divide="ignore", invalid="ignore"):
            radial /= r
        np.copyto(radial, k**2, where=r < 1e-8)
        out = np.cos(angle, out=angle)
        out *= k**2
        out += radial
        out -= self._control_over(r)
        return out

    def __repr__(self):
        return (
            f"ExactSolution(center={tuple(map(float, self.center))}, radius={self.radius}, "
            f"alpha={self.alpha}, bounds=({self.lower}, {self.upper}))"
        )


def _value(out):
    """An array result, or a float for a single point."""
    return out if out.ndim else float(out)
