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

The pieces of a set of second arguments are solved together: the rows
that do not depend on y are built once per kernel, the knot rows of all
centres at once, and one stacked inverse serves the whole set.  Kernel
objects are immutable after construction and hold no per-centre state, so
concurrent readers are safe; callers that evaluate one node set many
times keep its pieces themselves and pass them to kernel_matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import KernelDomainMismatch, OutOfDomain, SingularConditionSystem
from .grids import require_count

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
    order_m : integer smoothness index m >= 1.
    interval : finite (a, b) with a < b.
    constraints : tuple of (endpoint, derivative_order) pairs, endpoint being
        the string "a" or "b", each meaning u^(order)(endpoint) = 0.
    """

    order_m: int
    interval: tuple[float, float]
    constraints: tuple[tuple[str, int], ...]

    def __post_init__(self):
        require_count("order_m", self.order_m)
        a, b = self.interval
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"interval must be finite with a < b, got {self.interval!r}")
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


def _deriv_rows(points, ncoef):
    """Coefficient rows of d^order/dx^order sum_i c_i x^i at each point.

    Shape (len(points), ncoef, ncoef): entry [j, order, i] is
    perm(i, order) p_j^(i - order), zero for i < order.  The powers are
    Python float ** (C pow): numpy's array power rounds differently, and
    the kernel matrices of random centres would move by up to ~6e-14 of
    their largest entry.
    """
    powers = np.array([[p ** i for i in range(ncoef)] for p in points],
                      dtype=float).reshape(len(points), ncoef)
    rows = np.zeros((len(points), ncoef, ncoef))
    for order in range(ncoef):
        perms = np.array([math.perm(i, order) for i in range(order, ncoef)], dtype=float)
        rows[:, order, order:] = perms * powers[:, :ncoef - order]
    return rows


class Kernel1D:
    """Reproducing kernel of a SpaceSpec space.

    For each second argument y the kernel is two polynomial pieces of degree
    2m+1 in x - a (coefficient length 2m+2): the left piece on [a, y] and
    the right piece on (y, b].  ``pieces`` returns them for a set of centres
    and every dy-th derivative with respect to the second argument, by the
    implicit-differentiation recurrence described in the module docstring.
    The kernel holds only its spec and the condition rows that do not
    depend on y; whoever evaluates on a node set keeps that set's pieces.
    """

    def __init__(self, spec: SpaceSpec):
        self.spec = spec
        self._fixed = self._fixed_rows()

    @property
    def piece_length(self) -> int:
        return 2 * self.spec.order_m + 2

    # -- condition system ------------------------------------------------

    def _fixed_rows(self):
        """The condition rows that do not depend on y.

        The constraints, then the natural boundary rows for unconstrained
        orders 0..m at a and at b.  The rows are written in the local
        coordinate x - a, on [0, b - a]: in powers of x itself the system is
        numerically rank deficient on an interval such as [100, 101].
        """
        m, nc = self.spec.order_m, self.piece_length
        ends = _deriv_rows([0.0, self.spec.b - self.spec.a], nc)

        def row(point, order):
            return ends[1 if point == "b" else 0, order]

        zero = np.zeros(nc)
        rows = []
        # constraints: left piece carries conditions at a, right piece at b
        for point, order in self.spec.constraints:
            r = row(point, order)
            rows.append(np.concatenate([r, zero] if point == "a" else [zero, r]))
        con_a = self.spec.constrained_orders("a")
        con_b = self.spec.constrained_orders("b")
        for i in range(m + 1):
            if i not in con_a:
                if i == 0:
                    r = row("a", 2 * m + 1)
                else:
                    r = row("a", i) - (-1.0) ** (m - i) * row("a", 2 * m + 1 - i)
                rows.append(np.concatenate([r, zero]))
        for i in range(m + 1):
            if i not in con_b:
                rows.append(np.concatenate([zero, row("b", 2 * m + 1 - i)]))
        return np.array(rows).reshape(-1, 2 * nc)

    def _condition_matrices(self, rows, shift=0):
        """The 4m+4 condition matrices of the centres of a _deriv_rows table.

        Shape (k, 4m+4, 4m+4): the fixed rows, then continuity of
        derivatives 0..2m at the knot and the jump row.  shift > 0 returns
        the matrices of the knot rows differentiated shift times with
        respect to y, with the fixed rows zeroed; rows whose derivative
        order exceeds the piece degree vanish.
        """
        nc = self.piece_length
        nf = len(self._fixed)
        out = np.zeros((len(rows), nf + nc, 2 * nc))
        if shift == 0:
            out[:, :nf] = self._fixed
        knot = rows[:, shift:]                   # knot row d has order d + shift
        out[:, nf:nf + nc - shift, :nc] = knot
        out[:, nf:nf + nc - shift, nc:] = -knot
        if shift == 0:                           # the jump row is [-r, r]
            out[:, -1, :nc] = -knot[:, -1]
            out[:, -1, nc:] = knot[:, -1]
        return out

    def pieces(self, ys, max_dy=2):
        """Coefficients of d^dy k(., y)/dy^dy for every centre y in ys.

        Shape (len(ys), max_dy + 1, 2 (2m+2)): entry [j, dy] is the left
        piece followed by the right piece.  One stacked inverse serves all
        centres.  A centre whose matrix is singular, or whose inverse is not
        finite, raises SingularConditionSystem naming the first such centre.
        """
        m = self.spec.order_m
        ys = [float(y) for y in np.ravel(ys)]
        rows = _deriv_rows([y - self.spec.a for y in ys], self.piece_length)
        M0 = self._condition_matrices(rows)
        try:
            inv = np.linalg.inv(M0)
            finite = np.isfinite(inv).all(axis=(1, 2))
        except np.linalg.LinAlgError:            # an exactly zero pivot
            inv, finite = None, np.linalg.matrix_rank(M0) == M0.shape[1]
        if inv is None or not finite.all():
            i = int(np.argmin(finite))           # the first bad centre
            raise SingularConditionSystem(
                f"condition system is singular at y={ys[i]} "
                f"(rank {np.linalg.matrix_rank(M0[i])} of {M0.shape[1]})")

        e = np.zeros((len(ys), 4 * m + 4))
        e[:, -1] = (-1.0) ** (m + 1)
        sols = [np.matmul(inv, e[..., None])[..., 0]]
        shifted = [self._condition_matrices(rows, shift=j) for j in range(1, max_dy + 1)]
        for k in range(1, max_dy + 1):
            rhs = np.zeros_like(e)
            for j in range(1, k + 1):
                rhs -= math.comb(k, j) * np.matmul(shifted[j - 1], sols[k - j][..., None])[..., 0]
            sols.append(np.matmul(inv, rhs[..., None])[..., 0])
        return np.stack(sols, axis=1)

    # -- evaluation --------------------------------------------------------

    def _check(self, points, name):
        a, b = self.spec.interval
        tol = 1e-12 * (b - a)
        outside = ~((points >= a - tol) & (points <= b + tol))    # NaN too
        if outside.any():
            where = f"={points[outside][0]}" if name == "y" else ""
            raise OutOfDomain(f"{name}{where} outside [{a}, {b}]")

    def eval(self, x, y, dx=0, dy=0):
        """d^dx/dx^dx d^dy/dy^dy k(x, y), vectorized over x.

        A one-column kernel_matrix: the left piece is used at x = y
        (tie-break).  Derivative orders up to 2m+1 are meaningful; beyond
        the piece degree the result is zero.
        """
        out = kernel_matrix(self, x, [y], dx, dy)[:, 0].reshape(np.shape(x))
        return out if out.shape else float(out)


def build_kernel(spec: SpaceSpec) -> Kernel1D:
    """Construct the reproducing kernel of the given space.

    Runs a rank test only: the condition system at three interior probes,
    so an ill-posed constraint set fails fast (full rank bounds its inverse).
    """
    kernel = Kernel1D(spec)
    a, b = spec.interval
    probes = [a + frac * (b - a) for frac in (0.5, 0.25, 0.75)]
    M = kernel._condition_matrices(_deriv_rows([y - a for y in probes], kernel.piece_length))
    deficient = np.flatnonzero(np.linalg.matrix_rank(M) < M.shape[1])
    if deficient.size:
        raise SingularConditionSystem(
            "constraint set leads to a rank-deficient condition system "
            f"(probe at y={probes[deficient[0]]})")
    return kernel


def kernel_matrix(kernel: Kernel1D, xs, ys, dx=0, dy=0, *, pieces=None) -> np.ndarray:
    """Matrix [d^dx d^dy k(xs[i], ys[j])], one column per centre.

    pieces, where given, is kernel.pieces(ys) with at least dy + 1
    derivative orders, kept by the caller across calls on the same centres;
    otherwise it is solved here.  Each column is one polynomial evaluation
    per piece at xs - a, the left piece at x <= y.  dx and dy must be
    integers >= 0; an order beyond the piece degree gives exact zeros.
    """
    for name, order in (("dx", dx), ("dy", dy)):
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
            raise ValueError(f"derivative order {name} must be an integer >= 0, got {order!r}")
    a = kernel.spec.a
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    kernel._check(ys, "y")
    kernel._check(xs, "x")
    nc = kernel.piece_length
    if max(dx, dy) >= nc:
        return np.zeros((xs.size, ys.size))
    if pieces is None:
        pieces = kernel.pieces(ys, dy)
    coef = pieces[:, dy].reshape(-1, nc)
    if dx:
        coef = npoly.polyder(coef, dx, axis=1)
    xl, yl = xs - a, ys - a
    out = np.empty((xs.size, ys.size))
    for j in range(ys.size):
        lv = npoly.polyval(xl, coef[2 * j])
        rv = npoly.polyval(xl, coef[2 * j + 1])
        out[:, j] = np.where(xl <= yl[j], lv, rv)
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
