"""The continuous first-order optimality system.

Minimizing J subject to the state equation couples two parabolic problems:

    forward:  L1 y = (1/nu) p + G1,    L1 = -d/dt + d^2/dx^2,
    adjoint:  L2 p = y_d - (y + y_hat),    L2 = +d/dt + d^2/dx^2,

together with the gradient equation nu*u - p = 0.  This module applies the
operators to fields that carry exact (0, 1) and (2, 0) partials and
evaluates pointwise residuals of both equations for any candidate pair.
No solve calls it: the collocation module evaluates the same residuals
from its trial functions, and tests check the two against each other.
"""

from __future__ import annotations

import numpy as np

from .collocation import ADJOINT, FORWARD
from .errors import OutOfDomain
from .fields import ScalarField
from .problems import HomogenizedProblem

__all__ = ["apply_operator", "residual_forward", "residual_adjoint"]


def _as_field(field) -> ScalarField:
    if isinstance(field, ScalarField):
        return field
    return ScalarField(field)


def _check_interior(point, domain):
    (a, b), T = domain
    x, t = point
    xa = np.asarray(x, dtype=float)
    ta = np.asarray(t, dtype=float)
    if np.any(xa <= a) or np.any(xa >= b) or np.any(ta <= 0.0) or np.any(ta >= T):
        raise OutOfDomain(f"point not interior to ({a},{b}) x (0,{T})")


def apply_operator(op: float, field, point, domain=None):
    """(op d/dt + d^2/dx^2) field at point = (x, t), op FORWARD or ADJOINT.

    field is a ScalarField; a plain callable f(x, t) carries no partials,
    so it raises NonDifferentiableData, as a field without the (0, 1) or
    (2, 0) closure does.  domain, when given as ((a, b), T), restricts the
    point to the interior.
    """
    if domain is not None:
        _check_interior(point, domain)
    f = _as_field(field)
    x, t = point
    return op * f.partial(x, t, 0, 1) + f.partial(x, t, 2, 0)


def residual_forward(y, p, hom: HomogenizedProblem, point):
    """L1 y - ((1/nu) p + G1) at point; zero for an exact homogenized pair."""
    base = hom.base
    _check_interior(point, (base.interval, base.T))
    x, t = point
    lhs = apply_operator(FORWARD, y, point)
    pf = _as_field(p)
    return lhs - (pf(x, t) / base.nu + np.asarray(hom.G1(x, t), dtype=float))


def residual_adjoint(y, p, hom: HomogenizedProblem, point):
    """L2 p - (y_d - (y + y_hat)) at point."""
    base = hom.base
    _check_interior(point, (base.interval, base.T))
    x, t = point
    lhs = apply_operator(ADJOINT, p, point)
    yf = _as_field(y)
    rhs = (np.asarray(base.y_d(x, t), dtype=float)
           - (yf(x, t) + np.asarray(hom.y_hat(x, t), dtype=float)))
    return lhs - rhs
