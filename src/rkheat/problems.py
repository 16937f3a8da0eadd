"""Distributed parabolic optimal control problems and their benchmarks.

The model problem on [a, b] x [0, T] is

    min J(u) = 1/2 iint (y - y_d)^2 + nu/2 iint u^2
    s.t.  -y_t + y_xx = u,   y = h on the lateral boundary,  y(., 0) = y0.

Three closed-form benchmark problems are built in.  Their target data y_d is
always re-derived from the closed-form state/adjoint pair through the adjoint
equation y_d = p_t + p_xx + y, never transcribed, so each benchmark is an
exactly manufactured problem for that pair.

A caveat the diagnostics surface explicitly: the closed-form adjoints of
benchmarks 1 and 3 do not vanish on the lateral boundary, while any solver
that enforces the adjoint boundary condition structurally converges to the
true optimizer of J, which then differs from the closed-form pair by a fixed
margin.  check_exact_consistency reports the defect instead of hiding it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, UnknownExample
from .fields import ScalarField, fd_derivative_1d, require_differentiable_1d
from .grids import GridField, trapezoid_2d

__all__ = [
    "ControlProblem",
    "ExactSolution",
    "HomogenizedProblem",
    "homogenize",
    "builtin_example",
    "derive_yd",
    "cost_functional",
    "check_exact_consistency",
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

    Y interpolates the boundary traces linearly in x, y_hat shifts the
    state so the remaining unknown has zero boundary and initial data, and
    G1 collects the forcing the shift produces.
    """

    base: ControlProblem
    Y: object
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

    return HomogenizedProblem(base=problem, Y=Y, y_hat=y_hat, G1=G1)


def _zero_data_problem(nu, y_d):
    return ControlProblem(a=0.0, b=1.0, T=1.0, nu=nu, y_d=y_d,
                          h1=lambda t: 0.0 * np.asarray(t, dtype=float),
                          h2=lambda t: 0.0 * np.asarray(t, dtype=float),
                          y0=lambda x: 0.0 * np.asarray(x, dtype=float))


def _per_distinct_t(f):
    """f(t) evaluated once per time level of t, broadcast to t's shape.

    Each entry equals f at that entry bitwise: f is elementwise, and on a
    t-major grid its ** powers then run once per time level instead of once
    per grid point.  A 2-D t whose rows are each constant, as a t-major
    meshgrid is, takes f of its first column; any other array takes f of
    its distinct values, whose sort (np.unique) costs more than one of
    these polynomials on a whole 100 x 100 grid.  Anything but an array of
    rank >= 1 is passed through, so scalars keep Python's float **.
    """
    def per_t(t):
        if not isinstance(t, np.ndarray) or t.ndim == 0:
            return f(t)
        if t.ndim == 2 and t.size and (t == t[:, :1]).all():
            return np.repeat(f(t[:, 0]), t.shape[1]).reshape(t.shape)
        distinct, inverse = np.unique(t, return_inverse=True)
        return f(distinct)[inverse].reshape(np.shape(t))
    return per_t


def _example_fields(example_id, nu):
    """Closed forms and hand derivatives of the three benchmarks."""
    if example_id == 1:
        # y = t^2 (1-t)^3 x(x-1)
        @_per_distinct_t
        def g(t):
            return t ** 2 * (1 - t) ** 3

        @_per_distinct_t
        def gp(t):
            return 2 * t * (1 - t) ** 3 - 3 * t ** 2 * (1 - t) ** 2

        def X(x):
            return x * (x - 1)

        # p = nu * (q(t) x(x-1) + r(t)) with q = 2t(t-1)^3 + 3t^2(t-1)^2,
        # r = -2 t^2 (t-1)^3; this equals nu*(-y_t + y_xx) identically.
        @_per_distinct_t
        def q(t):
            return 2 * t * (t - 1) ** 3 + 3 * t ** 2 * (t - 1) ** 2

        @_per_distinct_t
        def qp(t):
            return 2 * (t - 1) ** 3 + 12 * t * (t - 1) ** 2 + 6 * t ** 2 * (t - 1)

        @_per_distinct_t
        def r(t):
            return -2 * t ** 2 * (t - 1) ** 3

        @_per_distinct_t
        def rp(t):
            return -4 * t * (t - 1) ** 3 - 6 * t ** 2 * (t - 1) ** 2

        y = ScalarField(lambda x, t: g(t) * X(x), {
            (0, 1): lambda x, t: gp(t) * X(x),
            (2, 0): lambda x, t: 2 * g(t) + 0.0 * np.asarray(x, dtype=float),
            (1, 0): lambda x, t: g(t) * (2 * np.asarray(x, dtype=float) - 1),
        })
        p = ScalarField(lambda x, t: nu * (q(t) * X(x) + r(t)), {
            (0, 1): lambda x, t: nu * (qp(t) * X(x) + rp(t)),
            (2, 0): lambda x, t: nu * 2 * q(t) + 0.0 * np.asarray(x, dtype=float),
            (1, 0): lambda x, t: nu * q(t) * (2 * np.asarray(x, dtype=float) - 1),
        })
        return y, p

    if example_id == 2:
        # y = t^2 (t-1)^2 (t-2)^2 sin(pi x)
        @_per_distinct_t
        def g(t):
            return t ** 2 * (t - 1) ** 2 * (t - 2) ** 2

        @_per_distinct_t
        def gp(t):
            return (2 * t * (t - 1) ** 2 * (t - 2) ** 2
                    + 2 * t ** 2 * (t - 1) * (t - 2) ** 2
                    + 2 * t ** 2 * (t - 1) ** 2 * (t - 2))

        @_per_distinct_t
        def gpp(t):
            return (2 * (t - 1) ** 2 * (t - 2) ** 2
                    + 8 * t * (t - 1) * (t - 2) ** 2
                    + 8 * t * (t - 1) ** 2 * (t - 2)
                    + 2 * t ** 2 * (t - 2) ** 2
                    + 8 * t ** 2 * (t - 1) * (t - 2)
                    + 2 * t ** 2 * (t - 1) ** 2)

        pi = math.pi

        def s(x):
            return np.sin(pi * np.asarray(x, dtype=float))

        y = ScalarField(lambda x, t: g(t) * s(x), {
            (0, 1): lambda x, t: gp(t) * s(x),
            (2, 0): lambda x, t: -pi ** 2 * g(t) * s(x),
            (1, 0): lambda x, t: pi * g(t) * np.cos(pi * np.asarray(x, dtype=float)),
        })
        p = ScalarField(lambda x, t: nu * (-gp(t) - pi ** 2 * g(t)) * s(x), {
            (0, 1): lambda x, t: nu * (-gpp(t) - pi ** 2 * gp(t)) * s(x),
            (2, 0): lambda x, t: -pi ** 2 * nu * (-gp(t) - pi ** 2 * g(t)) * s(x),
            (1, 0): lambda x, t: pi * nu * (-gp(t) - pi ** 2 * g(t))
            * np.cos(pi * np.asarray(x, dtype=float)),
        })
        return y, p

    if example_id == 3:
        # y = t^3 (1-t)^3 (1 - cos 2 pi x)
        @_per_distinct_t
        def g(t):
            return t ** 3 * (1 - t) ** 3

        @_per_distinct_t
        def gp(t):
            return 3 * t ** 2 * (1 - t) ** 3 - 3 * t ** 3 * (1 - t) ** 2

        @_per_distinct_t
        def gpp(t):
            return (6 * t * (1 - t) ** 3 - 18 * t ** 2 * (1 - t) ** 2
                    + 6 * t ** 3 * (1 - t))

        two_pi = 2 * math.pi

        def c(x):
            return np.cos(two_pi * np.asarray(x, dtype=float))

        def w(x):
            return 1 - c(x)

        y = ScalarField(lambda x, t: g(t) * w(x), {
            (0, 1): lambda x, t: gp(t) * w(x),
            (2, 0): lambda x, t: g(t) * two_pi ** 2 * c(x),
            (1, 0): lambda x, t: g(t) * two_pi * np.sin(two_pi * np.asarray(x, dtype=float)),
        })
        p = ScalarField(lambda x, t: nu * (-gp(t) * w(x) + two_pi ** 2 * g(t) * c(x)), {
            (0, 1): lambda x, t: nu * (-gpp(t) * w(x) + two_pi ** 2 * gp(t) * c(x)),
            (2, 0): lambda x, t: nu * (-gp(t) * two_pi ** 2 * c(x)
                                       - two_pi ** 4 * g(t) * c(x)),
            (1, 0): lambda x, t: nu * (-gp(t) - two_pi ** 2 * g(t))
            * two_pi * np.sin(two_pi * np.asarray(x, dtype=float)),
        })
        return y, p

    raise UnknownExample(f"example id must be 1, 2 or 3, got {example_id!r}")


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

    Uses the exact derivative closures when the pair carries them and
    falls back to fourth-order finite differences otherwise.
    """
    p, y = exact.p_exact, exact.y_exact

    def y_d(x, t):
        return p.partial(x, t, 0, 1) + p.partial(x, t, 2, 0) + y(x, t)

    return y_d


def cost_functional(y: GridField, u: GridField, problem: ControlProblem) -> float:
    """Trapezoidal approximation of J(u) = 1/2 iint (y-y_d)^2 + nu/2 iint u^2."""
    if not y.same_grid(u):
        raise GridMismatch("state and control live on different grids")
    xs, ts = y.grid.xs, y.grid.ts
    X, T = np.meshgrid(xs, ts)
    track = (y.values - np.asarray(problem.y_d(X, T), dtype=float)) ** 2
    penal = u.values ** 2
    return 0.5 * trapezoid_2d(track, xs, ts) + 0.5 * problem.nu * trapezoid_2d(penal, xs, ts)


def check_exact_consistency(exact: ExactSolution, problem: ControlProblem,
                            n: int = 30) -> dict:
    """Diagnostic report on how well the reference pair fits the problem.

    Returns maxima of the forward-equation residual -y_t + y_xx - p/nu on
    an interior grid, the data mismatch of y on the boundary/initial
    manifolds, and the adjoint boundary traces |p| at x=a, x=b and t=T.
    The caller decides what to make of nonzero entries; benchmarks 1 and 3
    have adjoint traces of size O(nu) on the lateral boundary.
    """
    a, b, T = problem.a, problem.b, problem.T
    xi = np.linspace(a, b, n + 2)[1:-1]
    ti = np.linspace(0.0, T, n + 2)[1:-1]
    X, Tt = np.meshgrid(xi, ti)
    y, p = exact.y_exact, exact.p_exact
    forward = (-y.partial(X, Tt, 0, 1) + y.partial(X, Tt, 2, 0)
               - p(X, Tt) / problem.nu)
    tb = np.linspace(0.0, T, 50)
    xb = np.linspace(a, b, 50)
    report = {
        "forward_residual_max": float(np.abs(forward).max()),
        "y_boundary_mismatch": float(max(
            np.abs(y(a, tb) - np.asarray(problem.h1(tb), dtype=float)).max(),
            np.abs(y(b, tb) - np.asarray(problem.h2(tb), dtype=float)).max(),
            np.abs(y(xb, 0.0) - np.asarray(problem.y0(xb), dtype=float)).max())),
        "p_trace_a": float(np.abs(p(a, tb)).max()),
        "p_trace_b": float(np.abs(p(b, tb)).max()),
        "p_trace_T": float(np.abs(p(xb, T)).max()),
    }
    return report
