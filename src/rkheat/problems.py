"""Distributed parabolic optimal control problems and their benchmarks.

The model problem on [a, b] x [0, T] is

    min J(u) = 1/2 iint (y - y_d)^2 + nu/2 iint u^2
    s.t.  -y_t + y_xx = u,   y = h on the lateral boundary,  y(., 0) = y0.

Three closed-form benchmark problems are built in.  Each state is separable,
y = g(t) X(x) with g a polynomial, and its adjoint is the forward equation
solved for the control, p = nu (-y_t + y_xx); p and every partial derivative
of order <= 2 per variable are derived from g and X, never transcribed.  The
target data y_d is re-derived from the pair through the adjoint equation
y_d = p_t + p_xx + y, so each benchmark is an exactly manufactured problem
for that pair.

A caveat: the closed-form adjoints of benchmarks 1 and 3 do not vanish on
the lateral boundary, while any solver that enforces the adjoint boundary
condition structurally converges to the true optimizer of J, which then
differs from the closed-form pair by a fixed margin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UnknownExample
from .fields import ScalarField, fd_derivative_1d, require_differentiable_1d
from .grids import trapezoid_2d

__all__ = [
    "ControlProblem",
    "ExactSolution",
    "HomogenizedProblem",
    "homogenize",
    "builtin_example",
    "derive_yd",
    "cost_functional",
]


@dataclass(frozen=True)
class ControlProblem:
    """Problem data: domain, horizon, Tikhonov weight, target and Dirichlet/
    initial data.  h1 and h2 are the boundary traces at x=a and x=b."""

    a: float
    b: float
    T: float
    nu: float
    y_d: object
    h1: object
    h2: object
    y0: object

    def __post_init__(self):
        for name in ("a", "b", "T", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.a < self.b:
            raise ValueError("need a < b")
        if self.T <= 0:
            raise ValueError("need T > 0")
        if self.nu <= 0:
            raise ValueError("need nu > 0")
        # -1/nu couples the equations; a float divide, unlike numpy's, does not warn
        if math.isinf(1.0 / float(self.nu)):
            raise ValueError(f"nu = {self.nu!r} is too small: -1/nu overflows")
        mism = max(abs(float(self.y0(self.a)) - float(self.h1(0.0))),
                   abs(float(self.y0(self.b)) - float(self.h2(0.0))))
        if mism > 1e-9:
            warnings.warn(
                f"initial and boundary data disagree at the corners by {mism:.3g}",
                stacklevel=2)

    @property
    def interval(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form reference pair; u_exact is p_exact/nu by definition."""

    y_exact: ScalarField
    p_exact: ScalarField
    u_exact: object


@dataclass(frozen=True)
class HomogenizedProblem:
    """Zero-data transform of a ControlProblem.

    y_hat = Y + y0 - Y(., 0), with Y the linear-in-x interpolant of the
    boundary traces, matches the boundary and initial data, so the
    remaining unknown y - y_hat has zero data; G1 collects the forcing the
    shift produces.
    """

    base: ControlProblem
    y_hat: object
    G1: object


def homogenize(problem: ControlProblem) -> HomogenizedProblem:
    a, b, T = problem.a, problem.b, problem.T
    h1, h2, y0 = problem.h1, problem.h2, problem.y0

    t_samples = np.linspace(0.0, T, 7)
    x_samples = np.linspace(a, b, 7)
    ht = 1e-4 * T
    hx = 1e-4 * (b - a)
    require_differentiable_1d(h1, t_samples, 1, ht, name="h1")
    require_differentiable_1d(h2, t_samples, 1, ht, name="h2")
    require_differentiable_1d(y0, x_samples, 2, hx, name="y0")

    def wa(x):
        return (x - b) / (a - b)

    def wb(x):
        return (x - a) / (b - a)

    def Y(x, t):
        return wa(x) * h1(t) + wb(x) * h2(t)

    def y_hat(x, t):
        return Y(x, t) + y0(x) - Y(x, 0.0)

    def G1(x, t):
        dh1 = fd_derivative_1d(h1, t, 1, ht)
        dh2 = fd_derivative_1d(h2, t, 1, ht)
        ddy0 = fd_derivative_1d(y0, x, 2, hx)
        return wa(x) * dh1 + wb(x) * dh2 - ddy0

    return HomogenizedProblem(base=problem, y_hat=y_hat, G1=G1)


def _zero_data_problem(nu, y_d):
    return ControlProblem(a=0.0, b=1.0, T=1.0, nu=nu, y_d=y_d,
                          h1=lambda t: 0.0 * np.asarray(t, dtype=float),
                          h2=lambda t: 0.0 * np.asarray(t, dtype=float),
                          y0=lambda x: 0.0 * np.asarray(x, dtype=float))


def _separable_pair(g, dX, nu):
    """State y = g(t) X(x) and adjoint p = nu (-y_t + y_xx) as ScalarFields.

    g is a Polynomial and dX lists X and its first four derivatives.  A
    field is a dict {k: P} meaning sum P(t) X^(k)(x): d/dt differentiates
    each P and d/dx moves P from k to k+1, so y = {0: g} and
    p = {0: -nu g', 2: nu g}.  Both fields carry every partial of order
    <= 2 in x and in t.
    """
    def value(terms):
        def f(x, t):
            x = np.asarray(x, dtype=float)
            return sum(P(t) * dX[k](x) for k, P in terms.items())
        return f

    def field(terms):
        return ScalarField(value(terms), {
            (i, j): value({k + i: P.deriv(j) for k, P in terms.items()})
            for i in range(3) for j in range(3)})

    return field({0: g}), field({0: -nu * g.deriv(), 2: nu * g})


def _example_fields(example_id, nu):
    """The three benchmarks: g(t) and X, X', ..., X'''' of y = g(t) X(x)."""
    P = np.polynomial.Polynomial
    if example_id == 1:
        g, X = -P.fromroots([0, 0, 1, 1, 1]), P.fromroots([0, 1])
        dX = [X.deriv(k) for k in range(5)]
    elif example_id == 2:
        g, w = P.fromroots([0, 0, 1, 1, 2, 2]), math.pi
        dX = [lambda x: np.sin(w * x), lambda x: w * np.cos(w * x),
              lambda x: -w ** 2 * np.sin(w * x), lambda x: -w ** 3 * np.cos(w * x),
              lambda x: w ** 4 * np.sin(w * x)]
    elif example_id == 3:
        g, w = -P.fromroots([0, 0, 0, 1, 1, 1]), 2 * math.pi
        dX = [lambda x: 1 - np.cos(w * x), lambda x: w * np.sin(w * x),
              lambda x: w ** 2 * np.cos(w * x), lambda x: -w ** 3 * np.sin(w * x),
              lambda x: -w ** 4 * np.cos(w * x)]
    else:
        raise UnknownExample(f"example id must be 1, 2 or 3, got {example_id!r}")
    return _separable_pair(g, dX, nu)


def builtin_example(example_id: int, nu: float = 1e-6):
    """Benchmark problem and its closed-form reference pair.

    All three use [a,b] = [0,1], T = 1, homogeneous boundary and initial
    data; y_d comes from derive_yd applied to the closed forms.
    """
    y, p = _example_fields(example_id, nu)
    exact = ExactSolution(y_exact=y, p_exact=p,
                          u_exact=lambda x, t: p(x, t) / nu)
    return _zero_data_problem(nu, y_d=derive_yd(exact)), exact


def derive_yd(exact: ExactSolution):
    """Target data consistent with the adjoint equation:
    y_d = p_t + p_xx + y.

    Uses p's exact (0, 1) and (2, 0) closures; y_d raises
    NonDifferentiableData when p lacks one.
    """
    p, y = exact.p_exact, exact.y_exact

    def y_d(x, t):
        return p.partial(x, t, 0, 1) + p.partial(x, t, 2, 0) + y(x, t)

    return y_d


def cost_functional(Y, U, xs, ts, problem: ControlProblem) -> float:
    """Trapezoidal approximation of J(u) = 1/2 iint (y-y_d)^2 + nu/2 iint u^2
    from t-major samples Y[j, i] = y(xs[i], ts[j]) and U of u alike."""
    Y, U = np.asarray(Y, dtype=float), np.asarray(U, dtype=float)
    for name, values in (("Y", Y), ("U", U)):
        if values.shape != (len(ts), len(xs)):
            raise ValueError(f"{name} has shape {values.shape}, "
                             f"need (len(ts), len(xs)) = {(len(ts), len(xs))}")
    X, T = np.meshgrid(xs, ts)
    track = (Y - np.asarray(problem.y_d(X, T), dtype=float)) ** 2
    penal = U ** 2
    return 0.5 * trapezoid_2d(track, xs, ts) + 0.5 * problem.nu * trapezoid_2d(penal, xs, ts)
