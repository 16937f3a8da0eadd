"""Reproducing kernels of constrained piecewise-polynomial spaces.

A space is described by a smoothness index m, an interval [a, b], and a set
of homogeneous point constraints u^(order)(a or b) = 0.  The inner product is

    <u, v> = sum_{i=1..m} u^(i)(a) v^(i)(a) + int_a^b u^(m+1) v^(m+1) dx,

restricted to functions satisfying the constraints.  The reproducing kernel
k(x, y) of such a space is, for fixed y, a piecewise polynomial of degree
2m+1 in x with a single knot at x = y.  Its two coefficient vectors are
determined by a square linear system of size 4m+4:

  * the constraints applied to k(., y),
  * natural boundary conditions obtained by integrating the inner product
    by parts (one row per unconstrained derivative order 0..m at each end),
  * continuity of derivatives 0..2m across the knot,
  * a unit jump of the (2m+1)-th derivative at the knot, with sign
    (-1)^(m+1), which makes <u, k(., y)> = u(y).

Derivatives with respect to the second argument are obtained exactly by
implicit differentiation of that condition system: the y-dependent rows
(continuity and jump) are differentiated in y, giving a recurrence for the
derivative coefficient vectors.  No finite differences are involved.

Kernel objects are immutable after construction.  Coefficient solves are
memoized per second argument; the cache is only ever extended, so concurrent
readers are safe under the GIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import KernelDomainMismatch, OutOfDomain, SingularConditionSystem

__all__ = [
    "SpaceSpec",
    "Kernel1D",
    "TensorKernel",
    "build_kernel",
    "kernel_matrix",
]


@dataclass(frozen=True)
class SpaceSpec:
    """Constrained space W_m[a, b] with point constraints at the endpoints.

    Parameters
    ----------
    order_m : smoothness index m >= 1.
    interval : (a, b) with a < b.
    constraints : tuple of (endpoint, derivative_order) pairs, endpoint being
        the string "a" or "b", each meaning u^(order)(endpoint) = 0.
    """

    order_m: int
    interval: tuple[float, float]
    constraints: tuple[tuple[str, int], ...]

    def __post_init__(self):
        a, b = self.interval
        if self.order_m < 1:
            raise ValueError("order_m must be a positive integer")
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        if len(self.constraints) > 2 * self.order_m + 2:
            raise ValueError("too many constraints for the polynomial degree")
        seen = set()
        for point, order in self.constraints:
            if point not in ("a", "b"):
                raise ValueError("constraint endpoint must be 'a' or 'b'")
            if order < 0 or order != int(order):
                raise ValueError("constraint derivative order must be a non-negative integer")
            if (point, order) in seen:
                raise ValueError("constraints must be distinct")
            seen.add((point, order))

    @property
    def a(self) -> float:
        return self.interval[0]

    @property
    def b(self) -> float:
        return self.interval[1]

    def constrained_orders(self, point: str) -> set:
        return {order for p, order in self.constraints if p == point}


def _deriv_row(point, order, ncoef):
    """Coefficient row of d^order/dx^order sum_i c_i x^i evaluated at x=point."""
    row = np.zeros(ncoef)
    for i in range(order, ncoef):
        row[i] = math.perm(i, order) * point ** (i - order)
    return row


class Kernel1D:
    """Reproducing kernel of a SpaceSpec space.

    For each second argument y the kernel is two polynomial pieces of degree
    2m+1 in x - a (coefficient length 2m+2): the left piece on [a, y] and
    the right piece on (y, b].  ``coefficients`` returns the pieces of the dy-th
    derivative of k with respect to its second argument, computed by the
    implicit-differentiation recurrence described in the module docstring.
    """

    def __init__(self, spec: SpaceSpec):
        self.spec = spec
        self._memo = {}

    @property
    def piece_length(self) -> int:
        return 2 * self.spec.order_m + 2

    # -- condition system ------------------------------------------------

    def _condition_matrix(self, y, shift=0):
        """The 4m+4 square condition matrix.

        shift > 0 returns the matrix of the y-dependent rows differentiated
        shift times with respect to y (constraint and natural-boundary rows,
        which do not depend on y, are zeroed); rows whose derivative order
        exceeds the piece degree vanish.  The rows are written in the local
        coordinate x - a, on [0, b - a]: in powers of x itself the system is
        numerically rank deficient on an interval such as [100, 101].
        """
        m = self.spec.order_m
        a, b = 0.0, self.spec.b - self.spec.a
        y = y - self.spec.a
        nc = self.piece_length
        rows = []

        def fixed(row_left, row_right):
            if shift > 0:
                rows.append(np.zeros(2 * nc))
            else:
                rows.append(np.concatenate([row_left, row_right]))

        # constraints: left piece carries conditions at a, right piece at b
        for point, order in self.spec.constraints:
            r = _deriv_row(a if point == "a" else b, order, nc)
            if point == "a":
                fixed(r, np.zeros(nc))
            else:
                fixed(np.zeros(nc), r)

        # natural boundary rows for unconstrained orders 0..m
        con_a = self.spec.constrained_orders("a")
        con_b = self.spec.constrained_orders("b")
        for i in range(m + 1):
            if i not in con_a:
                if i == 0:
                    r = _deriv_row(a, 2 * m + 1, nc)
                else:
                    r = (_deriv_row(a, i, nc)
                         - (-1.0) ** (m - i) * _deriv_row(a, 2 * m + 1 - i, nc))
                fixed(r, np.zeros(nc))
        for i in range(m + 1):
            if i not in con_b:
                fixed(np.zeros(nc), _deriv_row(b, 2 * m + 1 - i, nc))

        # continuity of derivatives 0..2m at the knot, then the jump row;
        # these depend on y and are the rows the shift applies to
        for d in range(2 * m + 1):
            order = d + shift
            if order <= 2 * m + 1:
                r = _deriv_row(y, order, nc)
            else:
                r = np.zeros(nc)
            rows.append(np.concatenate([r, -r]))
        order = 2 * m + 1 + shift
        if order <= 2 * m + 1:
            r = _deriv_row(y, order, nc)
        else:
            r = np.zeros(nc)
        rows.append(np.concatenate([-r, r]))
        return np.array(rows)

    def _solve_chain(self, y, max_dy):
        """Coefficient vectors of d^k k / dy^k for k = 0..max_dy at this y."""
        m = self.spec.order_m
        e = np.zeros(4 * m + 4)
        e[-1] = (-1.0) ** (m + 1)
        M0 = self._condition_matrix(y)
        try:
            lu = np.linalg.inv(M0)
        except np.linalg.LinAlgError:
            lu = None
        if lu is not None and not np.isfinite(lu).all():
            lu = None

        def solve(rhs):
            if lu is not None:
                return lu @ rhs
            sol, _, rank, _ = np.linalg.lstsq(M0, rhs, rcond=None)
            if not np.isfinite(sol).all() or np.abs(M0 @ sol - rhs).max() > 1e-8 * (1 + np.abs(rhs).max()):
                raise SingularConditionSystem(
                    f"condition system is rank deficient at y={y} "
                    f"(rank {rank} of {M0.shape[0]})")
            return sol

        sols = [solve(e)]
        shifted = {}
        for k in range(1, max_dy + 1):
            rhs = np.zeros(4 * m + 4)
            for j in range(1, k + 1):
                if j not in shifted:
                    shifted[j] = self._condition_matrix(y, shift=j)
                rhs -= math.comb(k, j) * (shifted[j] @ sols[k - j])
            sols.append(solve(rhs))
        return sols

    def coefficients(self, y, dy=0):
        """(left, right) coefficient vectors of d^dy k(., y)/dy^dy."""
        y = float(y)
        cached = self._memo.get(y)
        if cached is None or len(cached) <= dy:
            cached = self._solve_chain(y, max(dy, 2))
            self._memo[y] = cached
        nc = self.piece_length
        c = cached[dy]
        return c[:nc], c[nc:]

    # -- evaluation --------------------------------------------------------

    def eval(self, x, y, dx=0, dy=0):
        """d^dx/dx^dx d^dy/dy^dy k(x, y), vectorized over x.

        The left piece is used at x = y (tie-break).  Derivative orders up
        to 2m+1 are meaningful; beyond the piece degree the result is zero.
        The pieces are polynomials in x - a, so the value is the kernel of
        [0, b - a] at the shifted points x - a, y - a.
        """
        a, b = self.spec.interval
        tol = 1e-12 * (b - a)
        xarr = np.asarray(x, dtype=float)
        if float(y) < a - tol or float(y) > b + tol:
            raise OutOfDomain(f"y={y} outside [{a}, {b}]")
        if np.any(xarr < a - tol) or np.any(xarr > b + tol):
            raise OutOfDomain(f"x outside [{a}, {b}]")
        left, right = self.coefficients(y, dy)
        if dx >= self.piece_length:
            out = np.zeros_like(xarr)
            return out if out.shape else float(out)
        xs, ys = xarr - a, float(y) - a
        lv = npoly.polyval(xs, npoly.polyder(left, dx)) if dx else npoly.polyval(xs, left)
        rv = npoly.polyval(xs, npoly.polyder(right, dx)) if dx else npoly.polyval(xs, right)
        out = np.where(xs <= ys, lv, rv)
        return out if out.shape else float(out)


def build_kernel(spec: SpaceSpec) -> Kernel1D:
    """Construct the reproducing kernel of the given space.

    Probes the condition system at a few interior points so that an
    ill-posed constraint set fails fast.
    """
    kernel = Kernel1D(spec)
    a, b = spec.interval
    for frac in (0.5, 0.25, 0.75):
        y = a + frac * (b - a)
        M = kernel._condition_matrix(y)
        if np.linalg.matrix_rank(M) < M.shape[0]:
            raise SingularConditionSystem(
                "constraint set leads to a rank-deficient condition system "
                f"(probe at y={y})")
        kernel.coefficients(y)
    return kernel


def kernel_matrix(kernel: Kernel1D, xs, ys, dx=0, dy=0) -> np.ndarray:
    """Matrix [d^dx d^dy k(xs[i], ys[j])] built column by column.

    Coefficient solves are shared across rows through the per-y memo, so a
    column costs one small linear solve plus a vectorized polynomial
    evaluation.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty((xs.size, len(ys)))
    for j, y in enumerate(ys):
        out[:, j] = kernel.eval(xs, float(y), dx=dx, dy=dy)
    return out


@dataclass(frozen=True)
class TensorKernel:
    """Product kernel K((x,t),(r,s)) = k_spatial(x,r) * k_temporal(t,s)."""

    spatial: Kernel1D
    temporal: Kernel1D

    @property
    def rectangle(self):
        return self.spatial.spec.interval, self.temporal.spec.interval

    def require_domain(self, interval, horizon):
        (a, b), (t0, t1) = self.rectangle
        if not (np.isclose(a, interval[0]) and np.isclose(b, interval[1])
                and np.isclose(t0, 0.0) and np.isclose(t1, horizon)):
            raise KernelDomainMismatch(
                f"kernel built for {self.rectangle}, problem uses "
                f"{interval} x (0, {horizon})")
