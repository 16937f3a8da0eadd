"""Independent quadrature oracles for the kernel inner products.

These evaluate the defining inner products directly, by Gauss-Legendre
panels split at the kernel knot, without going through any kernel solver
internals.  For the 1-D space of order m on [a, b],

    <u, v> = sum_{i=1..m} u^(i)(a) v^(i)(a) + int_a^b u^(m+1) v^(m+1) dx,

and the tensor space inner product is the product-rule expansion of the
two 1-D forms: boundary x boundary, boundary x integral, integral x
boundary and integral x integral terms.  Everything here is polynomial,
so 24-point panels are exact to machine precision.

ScalarKernel is the condition-system solver as it was written per centre:
one scalar condition matrix, one inverse and one derivative chain per
second argument, evaluated column by column.  The batched solve of the
kernel module is pinned to it bitwise.  BasisFunction and tensor_eval
evaluate one trial function and one tensor kernel value point by point, as references for the factored evaluation in
the collocation module.  write_csv_reference is the row-by-row CSV writer
that the CLI's output format is pinned to.  one_lu_solve is the direct
solve on the whole dense matrix, which keeps A beside its factors and
takes the refinement residual from it; the collocation module's solve,
which reads A only through its products, is pinned to its b and
condition estimate.
fd_sparse_system assembles the finite-difference reference's whole
Crank-Nicolson system as one sparse matrix, the form the sine-mode solve
must satisfy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from numpy.polynomial import polynomial as npoly

from rkheat.errors import SingularConditionSystem
from rkheat.kernels import SpaceSpec, TensorKernel

GAUSS_N = 24


def gauss_panel(a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(GAUSS_N)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def split_gauss(a: float, b: float, knot: float):
    """Panels on [a, knot] and [knot, b]; exact for piecewise polynomials."""
    x1, w1 = gauss_panel(a, knot)
    x2, w2 = gauss_panel(knot, b)
    return np.concatenate([x1, x2]), np.concatenate([w1, w2])


def inner_product_1d(u_deriv, kernel, y: float) -> float:
    """<u, k(., y)> for a 1-D kernel; u_deriv(i) -> callable for u^(i)."""
    m = kernel.spec.order_m
    a, b = kernel.spec.interval
    total = 0.0
    for i in range(1, m + 1):
        total += float(u_deriv(i)(a)) * float(kernel.eval(a, y, dx=i))
    xs, w = split_gauss(a, b, y)
    total += float(np.sum(w * u_deriv(m + 1)(xs) * kernel.eval(xs, y, dx=m + 1)))
    return total


def tensor_inner(u_dxdt, center, spatial_kernel, temporal_kernel) -> float:
    """<u, K_center> in the tensor space; u_dxdt(i, j) -> mixed partial."""
    ms = spatial_kernel.spec.order_m
    a, b = spatial_kernel.spec.interval
    mt = temporal_kernel.spec.order_m
    t0, t1 = temporal_kernel.spec.interval
    r, s = center

    def ks(x, d):
        return spatial_kernel.eval(np.asarray(x, dtype=float), r, dx=d)

    def kt(t, d):
        return temporal_kernel.eval(np.asarray(t, dtype=float), s, dx=d)

    xs, wx = split_gauss(a, b, r)
    ts, wt = split_gauss(t0, t1, s)
    total = 0.0
    for i in range(1, ms + 1):
        ksa = float(ks(a, i))
        for j in range(1, mt + 1):
            total += float(u_dxdt(i, j)(a, t0)) * ksa * float(kt(t0, j))
        f = u_dxdt(i, mt + 1)
        total += ksa * float(np.sum(wt * f(a, ts) * kt(ts, mt + 1)))
    for j in range(1, mt + 1):
        f = u_dxdt(ms + 1, j)
        total += float(kt(t0, j)) * float(np.sum(wx * f(xs, t0) * ks(xs, ms + 1)))
    f = u_dxdt(ms + 1, mt + 1)
    total += float(np.sum((wx * ks(xs, ms + 1))[:, None]
                          * (wt * kt(ts, mt + 1))[None, :]
                          * f(xs[:, None], ts[None, :])))
    return total


def admissible_polynomials(spec, count: int, rng) -> list:
    """Random polynomials of degree <= 2m+1 satisfying spec's constraints.

    Built from an orthonormal basis of the constraint nullspace in the
    monomial coefficient space of the local coordinate x - a, so the
    constraints hold to rounding on shifted intervals too.  Each returned
    Polynomial maps x to x - a itself, which is x bitwise when a = 0.
    """
    ncoef = 2 * spec.order_m + 2
    a, b = spec.interval
    rows = []
    for point, order in spec.constraints:
        p = 0.0 if point == "a" else b - a
        basis = np.eye(ncoef)
        rows.append([np.polynomial.Polynomial(basis[k]).deriv(order)(p)
                     if order else np.polynomial.Polynomial(basis[k])(p)
                     for k in range(ncoef)])
    if rows:
        ns = scipy.linalg.null_space(np.asarray(rows, dtype=float))
    else:
        ns = np.eye(ncoef)
    out = []
    for _ in range(count):
        coef = ns @ rng.standard_normal(ns.shape[1])
        out.append(np.polynomial.Polynomial(coef, domain=[a, a + 1.0], window=[0.0, 1.0]))
    return out


def poly_derivative_table(poly):
    """u_deriv(i) callables for a numpy Polynomial."""
    def u_deriv(i):
        q = poly.deriv(i) if i else poly
        return lambda x: q(np.asarray(x, dtype=float))
    return u_deriv


def rank_one_field(fx, gt):
    """u(x,t) = fx(x) gt(t) as a mixed-partial table for tensor_inner."""
    def u_dxdt(i, j):
        qx = fx.deriv(i) if i else fx
        qt = gt.deriv(j) if j else gt
        return lambda x, t: qx(np.asarray(x, dtype=float)) * qt(np.asarray(t, dtype=float))
    return u_dxdt


def tensor_eval(K: TensorKernel, point, center, dx=0, dt=0):
    """d^dx/dx^dx d^dt/dt^dt [k_spatial(x, r) * k_temporal(t, s)].

    point = (x, t) may carry derivatives; center = (r, s) does not.
    """
    x, t = point
    r, s = center
    return K.spatial.eval(x, r, dx=dx) * K.temporal.eval(t, s, dx=dt)


def _deriv_row(point, order, ncoef):
    """Coefficient row of d^order/dx^order sum_i c_i x^i evaluated at x=point."""
    row = np.zeros(ncoef)
    for i in range(order, ncoef):
        row[i] = math.perm(i, order) * point ** (i - order)
    return row


class ScalarKernel:
    """The reproducing kernel of a SpaceSpec, solved one centre at a time.

    Each centre's derivative chain is kept once solved, as the kernel
    module once kept it.
    """

    def __init__(self, spec: SpaceSpec):
        self.spec = spec
        self._chains = {}

    @property
    def piece_length(self) -> int:
        return 2 * self.spec.order_m + 2

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

    def eval(self, x, y, dx=0, dy=0):
        """d^dx/dx^dx d^dy/dy^dy k(x, y) at the points x, left piece at x = y."""
        nc = self.piece_length
        y = float(y)
        if y not in self._chains or len(self._chains[y]) <= dy:
            self._chains[y] = self._solve_chain(y, max(dy, 2))
        c = self._chains[y][dy]
        left, right = c[:nc], c[nc:]
        xarr = np.asarray(x, dtype=float)
        if dx >= nc:
            return np.zeros_like(xarr)
        a = self.spec.a
        xs, ys = xarr - a, float(y) - a
        lv = npoly.polyval(xs, npoly.polyder(left, dx)) if dx else npoly.polyval(xs, left)
        rv = npoly.polyval(xs, npoly.polyder(right, dx)) if dx else npoly.polyval(xs, right)
        return np.where(xs <= ys, lv, rv)

    def matrix(self, xs, ys, dx=0, dy=0):
        """[d^dx d^dy k(xs[i], ys[j])], one column per centre."""
        xs = np.asarray(xs, dtype=float)
        out = np.empty((xs.size, len(ys)))
        for j, y in enumerate(ys):
            out[:, j] = self.eval(xs, float(y), dx=dx, dy=dy)
        return out


class BasisKind(Enum):
    STATE = "state"
    ADJOINT = "adjoint"


@dataclass(frozen=True)
class BasisFunction:
    """Single trial function psi_j, the operator image of a kernel section.

    STATE uses L1 and the state-space kernel; ADJOINT uses L2 and the
    adjoint-space kernel.  evaluate() returns d^dx d^dt psi_j(x, t).
    """

    center: tuple[float, float]
    which: BasisKind
    kernel: TensorKernel

    def evaluate(self, x, t, dx=0, dt=0):
        xj, tj = self.center
        S = self.kernel.spatial
        Tk = self.kernel.temporal
        s0 = S.eval(x, xj, dx=dx, dy=0)
        s2 = S.eval(x, xj, dx=dx, dy=2)
        t1 = Tk.eval(t, tj, dx=dt, dy=1)
        t0 = Tk.eval(t, tj, dx=dt, dy=0)
        if self.which is BasisKind.STATE:
            # L1 = -d/ds + d^2/dr^2 applied to the second argument
            return -s0 * t1 + s2 * t0
        return s0 * t1 + s2 * t0

    def apply_own_operator(self, x, t):
        """L1 psi (STATE) or L2 psi (ADJOINT) at (x, t)."""
        sign = -1.0 if self.which is BasisKind.STATE else 1.0
        return (sign * self.evaluate(x, t, dx=0, dt=1)
                + self.evaluate(x, t, dx=2, dt=0))


def write_csv_reference(path, header, rows) -> None:
    """Header, then each value as "%.17g" of its float, one row per line."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % float(v) for v in row])


def one_lu_solve(A, C):
    """LU solve of the dense A with one refinement step and a gecon estimate.

    The refinement residual is C - A @ b, a product with the whole matrix.
    Returns the refined b, the refinement step db and the 1-norm condition
    estimate of A from its factors, rounded to 3 significant digits.
    """
    factors = scipy.linalg.lu_factor(A)
    rcond, _ = scipy.linalg.lapack.dgecon(factors[0], np.linalg.norm(A, 1), norm="1")
    b = scipy.linalg.lu_solve(factors, C)
    db = scipy.linalg.lu_solve(factors, C - A @ b)
    return b + db, db, float(f"{1.0 / rcond:.3g}")


def fd_sparse_system(problem, grid):
    """The coupled Crank-Nicolson system of solve_coupled_fd, as (A, rhs).

    Unknowns are y at levels 1..M, then p at levels 0..M-1, t-major over
    the interior points; rows are the forward equations at the half-steps,
    then the adjoint ones.
    """
    import scipy.sparse

    n_x = grid.n_x
    h = grid.h
    k = grid.k
    M = grid.n_t + 1                      # time intervals; levels 0..M
    xs_int = grid.xs[1:-1]
    ts = grid.ts                          # M + 1 levels
    ts_half = 0.5 * (ts[:-1] + ts[1:])
    nu = problem.nu

    main = -2.0 * np.ones(n_x)
    off = np.ones(n_x - 1)
    lap = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr") / h ** 2
    I = scipy.sparse.identity(n_x, format="csr")
    IM = scipy.sparse.identity(M, format="csr")
    sub = scipy.sparse.diags([np.ones(M - 1)], [-1], format="csr")
    sup = scipy.sparse.diags([np.ones(M - 1)], [1], format="csr")

    Fy = scipy.sparse.kron(IM, -I / k + lap / 2) + scipy.sparse.kron(sub, I / k + lap / 2)
    Fp = -1.0 / (2.0 * nu) * scipy.sparse.kron(IM + sup, I)
    Ay = scipy.sparse.kron(IM + sub, I / 2)
    Ap = scipy.sparse.kron(sup, I / k + lap / 2) + scipy.sparse.kron(IM, -I / k + lap / 2)
    A = scipy.sparse.bmat([[Fy, Fp], [Ay, Ap]], format="csc")

    y_init = np.asarray(problem.y0(xs_int), dtype=float)
    y_init = np.broadcast_to(y_init, xs_int.shape).astype(float)
    h1_lev = np.asarray([float(problem.h1(t)) for t in ts])
    h2_lev = np.asarray([float(problem.h2(t)) for t in ts])

    rhs_F = np.zeros((M, n_x))
    rhs_A = np.zeros((M, n_x))
    X, Th = np.meshgrid(xs_int, ts_half)
    rhs_A[:, :] = np.asarray(problem.y_d(X, Th), dtype=float)
    rhs_F[0] -= (y_init / k + (lap @ y_init) / 2)
    rhs_A[0] -= y_init / 2
    bnd_half1 = 0.5 * (h1_lev[:-1] + h1_lev[1:])
    bnd_half2 = 0.5 * (h2_lev[:-1] + h2_lev[1:])
    rhs_F[:, 0] -= bnd_half1 / h ** 2
    rhs_F[:, -1] -= bnd_half2 / h ** 2
    return A, np.concatenate([rhs_F.ravel(), rhs_A.ravel()])


def fd_unknowns(fd):
    """The FD solution's unknowns in fd_sparse_system's order."""
    return np.concatenate([fd.y.values[1:, 1:-1].ravel(), fd.p.values[:-1, 1:-1].ravel()])
