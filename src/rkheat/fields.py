"""Scalar fields on the space-time rectangle with derivative access.

A ScalarField wraps a plain callable f(x, t) and, when available, exact
closures for its mixed partial derivatives.  When a closure is missing the
derivative falls back to fourth-order central finite differences, which is
accurate enough for diagnostics and for homogenizing user-supplied data.
Built-in benchmark fields carry exact closures for every order <= 2 per
variable.
"""

from __future__ import annotations

import numpy as np

from .errors import NonDifferentiableData

__all__ = ["ScalarField", "fd_derivative_1d", "require_differentiable_1d"]

# step of the finite-difference fallback in ScalarField.partial
_FD_STEP = 1e-4

# fourth-order central stencils on points x + k*h, k = -2..2
_STENCILS = {
    1: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
    2: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
}


def fd_derivative_1d(f, x, order, h):
    """Fourth-order central difference of a 1-D callable."""
    w = _STENCILS[order]
    acc = sum(wk * np.asarray(f(x + (k - 2) * h), dtype=float)
              for k, wk in enumerate(w))
    return acc / h ** order


def require_differentiable_1d(f, points, order, h, name="data"):
    """Check that f has the requested derivative at the sample points.

    Compares the stencil at steps h and h/4; smooth data agree closely,
    while a kink or a non-finite value shows up as gross disagreement.
    Raises NonDifferentiableData on failure.
    """
    for x in np.atleast_1d(points):
        d1 = fd_derivative_1d(f, x, order, h)
        d2 = fd_derivative_1d(f, x, order, h / 4.0)
        if not (np.isfinite(d1) and np.isfinite(d2)):
            raise NonDifferentiableData(
                f"{name}: derivative of order {order} is not finite near x={x}")
        if abs(d1 - d2) > 1e-2 * (1.0 + max(abs(d1), abs(d2))):
            raise NonDifferentiableData(
                f"{name}: derivative of order {order} looks inconsistent near "
                f"x={x} ({d1:.6g} vs {d2:.6g} at steps h, h/4)")


class ScalarField:
    """Field f(x, t) with exact or finite-difference partial derivatives."""

    def __init__(self, value, partials=None):
        self._value = value
        self._partials = dict(partials) if partials else {}

    def __call__(self, x, t):
        return self._value(x, t)

    def partial(self, x, t, dx=0, dt=0):
        """Mixed partial d^dx/dx^dx d^dt/dt^dt f at (x, t)."""
        if (dx, dt) == (0, 0):
            return self._value(x, t)
        exact = self._partials.get((dx, dt))
        if exact is not None:
            return exact(x, t)
        if dx > 2 or dt > 2:
            raise NonDifferentiableData(
                f"no exact closure for order ({dx}, {dt}) and the finite-"
                "difference fallback supports orders up to 2 per variable")
        h = _FD_STEP

        def fx(xx, tt):
            if dx == 0:
                return self._value(xx, tt)
            return fd_derivative_1d(lambda s: self._value(s, tt), xx, dx, h)

        if dt == 0:
            return fx(x, t)
        return fd_derivative_1d(lambda s: fx(x, s), t, dt, h)

    @classmethod
    def constant(cls, c):
        return cls(lambda x, t: np.broadcast_to(np.float64(c), np.broadcast_shapes(
            np.shape(x), np.shape(t))).copy() if (np.shape(x) or np.shape(t)) else float(c),
            partials={(i, j): (lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t)))
                       if (np.shape(x) or np.shape(t)) else 0.0)
                      for i in range(4) for j in range(4) if (i, j) != (0, 0)})
