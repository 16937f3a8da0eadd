"""Kernel collocation for the coupled optimality system.

The homogenized state y is sought in the tensor space with spatial factor
W_2[a,b] (zero boundary values) and temporal factor W_1[0,T] (zero initial
value); the adjoint p lives in the partner space whose temporal factor
vanishes at t = T instead.  Writing K1, K2 for the two tensor kernels, the
trial functions are the operator images of the kernels in their second
argument,

    psi_j1(x,t) = L1 applied to K1((x,t), .) at the node (x_j, t_j),
    psi_j2(x,t) = L2 applied to K2((x,t), .) at the node (x_j, t_j),

and the truncated series y = sum b1_j psi_j1, p = sum b2_j psi_j2 are
collocated at the same nodes.  Because the couplings are linear they move
to the left-hand side, giving one 2n x 2n block system

    [ L1 psi_j1   -(1/nu) psi_j2 ] [b1]   [ G1 at nodes        ]
    [   psi_j1      L2 psi_j2    ] [b2] = [ (y_d - y_hat) nodes ].

Every 1-D factor of psi_j depends only on the node's x or t coordinate,
so each block, each point value and each grid of values is a sum of
products of small 1-D kernel derivative matrices on the node set's
distinct coordinates; _TrialSpace builds them, one per field.  On a
tensor node set each block is exactly a sum of Kronecker products of
those matrices, and the system keeps that form instead of the dense
matrix: products with A come from the factor pairs, and the solve
builds A once, to factor it.  All second-argument derivatives are exact (implicit
differentiation in the kernel module); no finite differences enter the
matrix.  Only the LU step needs scipy: solve and solve_picard import
scipy.linalg on first use, so importing rkheat does not load it.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import KernelDomainMismatch, NumericallySingular, OutOfDomain
from .grids import trapezoid_2d
from .kernels import SpaceSpec, TensorKernel, build_kernel, kernel_matrix
from .problems import ExactSolution, HomogenizedProblem

__all__ = [
    "FORWARD",
    "ADJOINT",
    "NodeSet",
    "CollocationSystem",
    "PicardInfo",
    "Solution",
    "standard_kernels",
    "generate_nodes",
    "assemble",
    "solve",
    "solve_picard",
    "evaluate",
    "error_norms",
]

# The parabolic operators -d/dt + d^2/dx^2 (forward) and +d/dt + d^2/dx^2
# (adjoint) differ only in the sign of the time derivative.
FORWARD = -1.0
ADJOINT = 1.0

# operators as (coef, dx, dt) terms: sum coef * d_x^dx d_t^dt
L1 = ((FORWARD, 0, 1), (1.0, 2, 0))
L2 = ((ADJOINT, 0, 1), (1.0, 2, 0))
IDENTITY = ((1.0, 0, 0),)


@dataclass(frozen=True)
class NodeSet:
    """Ordered collocation nodes with the descriptor that generated them."""

    nodes: np.ndarray            # shape (n, 2), columns x, t
    generation: dict

    def __post_init__(self):
        if not np.isfinite(self.nodes).all():
            raise ValueError("collocation nodes must be finite")
        pts = {(float(x), float(t)) for x, t in self.nodes}
        if len(pts) != len(self.nodes):
            raise ValueError("collocation nodes must be pairwise distinct")

    def __len__(self):
        return len(self.nodes)


def generate_nodes(n_x: int, n_t: int, domain) -> NodeSet:
    """Uniform midpoint tensor grid, t-major ordering.

    domain = ((a, b), T).  Points x_i = a + (i - 1/2)(b - a)/n_x and
    t_k = (k - 1/2) T / n_t are strictly interior by construction.
    """
    if n_x < 1 or n_t < 1:
        raise ValueError("need n_x, n_t >= 1")
    (a, b), T = domain
    xs = a + (np.arange(1, n_x + 1) - 0.5) * (b - a) / n_x
    ts = (np.arange(1, n_t + 1) - 0.5) * T / n_t
    X, Tt = np.meshgrid(xs, ts)          # t-major rows
    nodes = np.column_stack([X.ravel(), Tt.ravel()])
    gen = {"kind": "midpoint_grid", "n_x": n_x, "n_t": n_t,
           "interval": (a, b), "horizon": T, "ordering": "t-major"}
    return NodeSet(nodes=nodes, generation=gen)


class _KroneckerBlocks:
    """The four n x n blocks of A as sums of Kronecker products of 1-D factors.

    On a t-major tensor node set node r sits at (ux[r % nx], ut[r // nx]),
    so block (p, q) of A is scales[p][q] times the sum of kron(T, S) over
    its factor pairs pairs[p][q], summed in list order, the same products
    in the same order as a gather of the full block.
    """

    def __init__(self, pairs, scales, nt: int, nx: int):
        self.pairs, self.scales, self.nt, self.nx = pairs, scales, nt, nx

    def block(self, p: int, q: int, out: np.ndarray) -> None:
        """Write block (p, q) of A into the n x n view out.

        out may be strided, as a quadrant of a 2n x 2n array is, as long as
        its rows or its columns are contiguous.  A Fortran-ordered out is
        written as its transpose, the block of A^T, from transposed
        factors: the same products.  The products are taken a few t rows
        at a time, about _PRODUCT_ROWS rows of the block, so all but the
        first pair's go through a buffer of that many rows.
        """
        pairs = self.pairs[p][q]
        if out.strides[1] != out.itemsize:
            pairs, out = [(S.T, T.T) for S, T in pairs], out.T
        view = out.reshape((self.nt, self.nx, self.nt, self.nx), copy=False)
        step = max(1, _PRODUCT_ROWS // self.nx)
        buffer = np.empty((min(step, self.nt),) + view.shape[1:])
        for r in range(0, self.nt, step):
            dest = view[r:r + step]
            for k, (S, T) in enumerate(pairs):
                product = buffer[:len(dest)] if k else dest
                np.multiply(T[r:r + step, None, :, None], S[:, None, :], out=product)
                if k:
                    dest += product
        if self.scales[p][q] != 1.0:
            out *= self.scales[p][q]

    def matvec(self, b, absolute=False):
        """A @ b, or |A| @ |b| when absolute, from the factor pairs.

        With B_q the q-th half of b as an nt x nx array, block (p, q) maps
        it to scales[p][q] times the sum of T B_q S^T over its pairs; the
        scale is applied after the sum, as block applies it.  absolute
        takes |s|, |T|, |B_q| and |S|.
        """
        f = np.abs if absolute else (lambda M: M)
        n = self.nt * self.nx
        B = [f(b[q * n:q * n + n]).reshape(self.nt, self.nx) for q in (0, 1)]
        out = np.zeros(2 * n)
        for p in (0, 1):
            for q in (0, 1):
                block = sum(f(T) @ B[q] @ f(S).T for S, T in self.pairs[p][q])
                out[p * n:p * n + n] += f(self.scales[p][q]) * block.ravel()
        return out


@dataclass(frozen=True)
class CollocationSystem:
    """Block system A b = C for the coupled pair.

    A is kept in one of two forms.  On a full t-major tensor node set, as
    generate_nodes makes, it is its 1-D factor pairs (factors), ~200 KB at
    32 x 32 nodes where A takes 32 MB.  On any other node set it is the
    dense array (dense); there the factors are n x n each, and the 24 of
    them would take 6 |A|.  _block(p, q, out) writes one n x n block of A
    into a C- or Fortran-ordered view, bitwise equal in either form, and
    matvec(b) forms A @ b, or |A| @ |b|, without building A.  solve writes
    the four blocks into one Fortran-ordered A, once, and takes every
    other product from matvec; solve_picard builds only the four blocks.
    spaces are the state and adjoint trial spaces assemble built; the
    solution evaluates through them.
    """

    C: np.ndarray
    node_set: NodeSet
    kernels: tuple[TensorKernel, TensorKernel]
    hom: HomogenizedProblem
    spaces: tuple[_TrialSpace, _TrialSpace]
    dense: np.ndarray | None = None
    factors: _KroneckerBlocks | None = None

    @property
    def A(self) -> np.ndarray:
        """The 2n x 2n matrix; from factor pairs, a new array on each access.

        No solve reads it; the benchmark tracer does, and tests compare
        against it.  It can go once the tracer takes the size of A from C.
        """
        return self.dense if self.dense is not None else self._matrix()

    def _matrix(self, order: str = "C") -> np.ndarray:
        """A new 2n x 2n array of A in the given order, block by block."""
        n = len(self.node_set)
        out = np.empty((2 * n, 2 * n), order=order)
        for p in (0, 1):
            for q in (0, 1):
                self._block(p, q, out[p * n:p * n + n, q * n:q * n + n])
        return out

    def _block(self, p: int, q: int, out: np.ndarray) -> np.ndarray:
        """Block (p, q) of A, written into the n x n view out."""
        if self.dense is not None:
            n = len(self.node_set)
            out[...] = self.dense[p * n:p * n + n, q * n:q * n + n]
        else:
            self.factors.block(p, q, out)
        return out

    def matvec(self, b: np.ndarray, absolute: bool = False) -> np.ndarray:
        """A @ b, or |A| @ |b| when absolute, without building A.

        A dense A takes |A| in blocks of _ROW_BLOCK rows, so no second
        2n x 2n array is made.
        """
        if self.dense is None:
            return self.factors.matvec(b, absolute)
        if not absolute:
            return self.dense @ b
        size = len(b)
        out, b_abs = np.empty(size), np.abs(b)
        buffer = np.empty((min(_ROW_BLOCK, size), size))
        for i in range(0, size, _ROW_BLOCK):
            j = min(i + _ROW_BLOCK, size)
            out[i:j] = np.abs(self.dense[i:j], out=buffer[:j - i]) @ b_abs
        return out


@dataclass(frozen=True)
class PicardInfo:
    converged: bool
    iterations: int
    last_change: float
    tol: float
    max_iter: int


def standard_kernels(interval, horizon):
    """State and adjoint tensor kernels on [a,b] x [0,T].

    The spatial factor (m=2, zero boundary values) is shared; the temporal
    factors vanish at t=0 for the state and at t=T for the adjoint.
    """
    a, b = interval
    spatial = build_kernel(SpaceSpec(2, (float(a), float(b)), (("a", 0), ("b", 0))))
    state_t = build_kernel(SpaceSpec(1, (0.0, float(horizon)), (("a", 0),)))
    adjoint_t = build_kernel(SpaceSpec(1, (0.0, float(horizon)), (("b", 0),)))
    return TensorKernel(spatial, state_t), TensorKernel(spatial, adjoint_t)


# Peak bytes of a solve as a multiple of |A| = (2n)^2 * 8 B, keyed on
# whether A is kept as factor pairs (tensor node sets).  Tracemalloc of
# example 2 at 24^2 and 32^2 nodes: the direct solve holds A, factored in
# place, 1.13 |A|, or 2.23 and 2.13 |A| beside a dense A, whose |A| |b|
# takes a block of rows; Picard holds the four n x n blocks, 1.03 |A|, or
# 2.03 |A| beside a dense A.  The guard adds ~0.25 |A| to the worst path.
# The block of rows is a fixed cost of 256 rows, a larger share of a small
# |A| (2.51 |A| at 16^2 nodes).
_PEAK_PER_A = {True: 1.5, False: 2.5}


def _physical_memory():
    """Bytes of physical memory, or None where the OS does not report it."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _check_footprint(n: int, tensor: bool) -> None:
    """Refuse n nodes whose dense solve would not fit in physical memory."""
    budget = _physical_memory()
    estimate = _PEAK_PER_A[tensor] * (2 * n) ** 2 * 8
    if budget is not None and estimate > budget:
        raise ValueError(f"{n} nodes need an estimated {estimate / 2**20:.0f} MB "
                         f"for the dense {2 * n}x{2 * n} solve, more than the "
                         f"{budget / 2**20:.0f} MB of physical memory")


def _kernel_columns(kernel, xs, coords, dx, dy, pieces, memo=None):
    """kernel_matrix(kernel, xs, coords, dx, dy), built once per memo.

    pieces is kernel.pieces(coords), solved once by the caller's trial
    space.  On the coordinates themselves (assembly) a second-argument
    derivative is the transpose of a first-argument one, by symmetry of
    the kernel, so A has one fixed rounding: cond(A) ~1e13 amplifies its
    last bits.  A memo dict serves one call that applies several operators
    at the same xs and coords, and is dropped with it; it holds the kernel
    it is keyed on, so no key can be reused for another kernel.
    """
    key = (kernel, dx, dy)
    if memo is not None and key in memo:
        return memo[key]
    if xs is coords and dy > dx:
        columns = kernel_matrix(kernel, coords, coords, dy, dx, pieces=pieces).T
    else:
        columns = kernel_matrix(kernel, xs, coords, dx, dy, pieces=pieces)
    if memo is not None:
        memo[key] = columns
    return columns


class _TrialSpace:
    """Derivatives of one field's trial functions psi_j on one node set.

    sign is the time sign of the field's operator (FORWARD for the state,
    ADJOINT for the adjoint).  The node set's distinct x and t coordinates
    ux, ut carry the 1-D kernel columns; the inverse indices ix, it map
    each node back to them.  The kernels' pieces on ux and ut are solved
    once here and serve every later kernel matrix of the space.  tensor
    says whether the nodes are the full t-major tensor grid ut x ux.
    Operators are tuples of (coef, dx, dt) terms; a memo dict, where
    given, shares 1-D kernel matrices between the calls of one evaluation.
    Sums of the trial functions are evaluated on tensor grids only: a
    single point, as rk.evaluate asks for, is a 1 x 1 grid.
    """

    def __init__(self, kernel: TensorKernel, sign: float, nodes: NodeSet):
        self.kernel, self.sign = kernel, sign
        self.ux, self.ix = np.unique(nodes.nodes[:, 0], return_inverse=True)
        self.ut, self.it = np.unique(nodes.nodes[:, 1], return_inverse=True)
        self.px = kernel.spatial.pieces(self.ux)
        self.pt = kernel.temporal.pieces(self.ut, max_dy=1)   # psi_j takes T_.,0 and T_.,1
        n, nx = len(nodes), len(self.ux)
        self.tensor = (len(self.ut) * nx == n
                       and np.array_equal(self.it * nx + self.ix, np.arange(n)))

    def partner(self, kernel: TensorKernel, sign: float) -> "_TrialSpace":
        """The trial space of kernel and sign on the same nodes.

        It shares this space's coordinates, and its spatial pieces when
        both use the same spatial kernel, so only the temporal pieces are
        solved anew.
        """
        other = copy.copy(self)
        other.kernel, other.sign = kernel, sign
        if kernel.spatial is not self.kernel.spatial:
            other.px = kernel.spatial.pieces(self.ux)
        other.pt = kernel.temporal.pieces(self.ut, max_dy=1)
        return other

    def _factors(self, xs, ts, op, memo=None):
        """1-D factor pairs (S, T) of op applied to the trial functions.

        Rows of S belong to xs and rows of T to ts, columns to the distinct
        coordinates ux and ut, and

            op psi_j(xs[p], ts[q]) = sum over pairs of S[p, ix[j]] T[q, it[j]].

        With S_ab, T_ab the derivatives d^a in the first and d^b in the
        second argument of the spatial and temporal kernels,

            d_x^dx d_t^dt psi_j = sign S_dx,0 T_dt,1 + S_dx,2 T_dt,0.
        """
        S, T = self.kernel.spatial, self.kernel.temporal
        for coef, dx, dt in op:
            for c, sy, ty in ((coef * self.sign, 0, 1), (coef, 2, 0)):
                yield (c * _kernel_columns(S, xs, self.ux, dx, sy, self.px, memo),
                       _kernel_columns(T, ts, self.ut, dt, ty, self.pt, memo))

    def pairs(self, op, memo=None):
        """The factor pairs of op psi_j at the nodes: one block of A."""
        return list(self._factors(self.ux, self.ut, op, memo))

    def assemble(self, op, out):
        """out[i, j] += op psi_j at node i, gathered from the 1-D factors."""
        sx, st = np.ix_(self.ix, self.ix), np.ix_(self.it, self.it)
        for S, T in self._factors(self.ux, self.ut, op):
            block = S[sx]
            block *= T[st]
            out += block

    def _coefficient_grid(self, b):
        """Coefficients scattered to B[t-coordinate, x-coordinate]."""
        B = np.zeros((len(self.ut), len(self.ux)))
        B[self.it, self.ix] = b
        return B

    def grid(self, b, xs, ts, op=IDENTITY, memo=None):
        """sum_j b_j op psi_j on the tensor grid, t-major (len(ts), len(xs))."""
        B = self._coefficient_grid(b)
        return sum(Tm @ B @ Sm.T for Sm, Tm in self._factors(xs, ts, op, memo))


def assemble(hom: HomogenizedProblem, nodes: NodeSet, kernels) -> CollocationSystem:
    """Assemble the 2n x 2n collocation matrix and right-hand side."""
    K1, K2 = kernels
    base = hom.base
    K1.require_domain(base.interval, base.T)
    K2.require_domain(base.interval, base.T)
    if K1.spatial.spec != K2.spatial.spec:
        raise KernelDomainMismatch("state and adjoint kernels use different spatial spaces")

    n = len(nodes)
    state = _TrialSpace(K1, FORWARD, nodes)
    adjoint = state.partner(K2, ADJOINT)
    _check_footprint(n, state.tensor)
    xn = nodes.nodes[:, 0]
    tn = nodes.nodes[:, 1]
    g1 = np.asarray(hom.G1(xn, tn), dtype=float)
    rhs2 = (np.asarray(base.y_d(xn, tn), dtype=float)
            - np.asarray(hom.y_hat(xn, tn), dtype=float))
    C = np.concatenate([np.broadcast_to(g1, xn.shape),
                        np.broadcast_to(rhs2, xn.shape)])
    for name, values in (("G1", C[:n]), ("y_d - y_hat", C[n:])):
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            raise ValueError(f"problem data {name} is not finite at {bad} of {n} nodes")

    # -(1/nu) psi_j2, scaled once after the sum rather than per 1-D factor:
    # at cond ~1e13 a last-bit change in A moves b by ~1e-8
    scale = -1.0 / base.nu
    if state.tensor:
        memo = {}
        pairs = [[state.pairs(L1, memo), adjoint.pairs(IDENTITY, memo)],
                 [state.pairs(IDENTITY, memo), adjoint.pairs(L2, memo)]]
        factors = _KroneckerBlocks(pairs, [[1.0, scale], [1.0, 1.0]],
                                   len(state.ut), len(state.ux))
        return CollocationSystem(C, nodes, (K1, K2), hom, (state, adjoint), factors=factors)
    A = np.zeros((2 * n, 2 * n))
    state.assemble(L1, A[:n, :n])
    adjoint.assemble(IDENTITY, A[:n, n:])
    A[:n, n:] *= scale
    state.assemble(IDENTITY, A[n:, :n])
    adjoint.assemble(L2, A[n:, n:])
    return CollocationSystem(C, nodes, (K1, K2), hom, (state, adjoint), dense=A)


# rows of a dense A per block in the pass of |A| |b|; the pass reuses one
# block buffer, since a fresh multi-MB block per step is paged in anew
_ROW_BLOCK = 256
# rows of a block per product buffer when a block is built from factor pairs
_PRODUCT_ROWS = 32


def _round3(cond):
    """A condition estimate to 3 significant digits.

    With a threaded BLAS the last bits of an estimate vary between calls
    on bitwise-identical factors, which would break byte-identical reruns
    of convergence.csv; the estimate is only trusted to within a small
    factor anyway.
    """
    return float(f"{cond:.3g}") if np.isfinite(cond) else np.inf


def solve(system: CollocationSystem) -> "Solution":
    """Solve the collocation system with one LU factorization.

    The four blocks of A are written into one Fortran-ordered array and
    LAPACK's dlange takes ||A||_1 from it, so on a tensor node set, where A
    is kept as factor pairs, the solve builds A once and holds one 2n x 2n
    array.  A is factored in place by LU with partial pivoting; a zero
    pivot, as a zero row gives, raises NumericallySingular.  The factors solve the system,
    then one step of iterative refinement corrects b.  Every product with
    A, the refinement residual, the final residual and |A| |b|, comes from
    system.matvec.  info["cond"] holds LAPACK gecon's 1-norm condition
    estimate of A from its factors, under "pre" and "post" alike; no
    inverse is formed.  info["solver"] records the componentwise
    (Oettli-Prager) backward error max_i |A b - C|_i / (|A| |b| + |C|)_i,
    0 on rows where the denominator is 0, and the refinement change
    ||db||_inf / ||b||_inf.
    """
    import scipy.linalg

    # Fortran order: lu_factor copies a C-ordered A whatever overwrite_a says
    A = system._matrix(order="F")
    norm_1 = scipy.linalg.lapack.dlange("1", A)
    try:
        with warnings.catch_warnings():
            # an exactly singular matrix warns before we can inspect the
            # pivots; the zero-pivot check below turns it into an error
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            factors = scipy.linalg.lu_factor(A, overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericallySingular(f"LU factorization failed: {exc}") from exc
    del A                            # overwritten by its factors
    lu = factors[0]
    if np.abs(np.diag(lu)).min() == 0.0:
        raise NumericallySingular("LU factorization hit an exactly zero pivot")
    rcond, _ = scipy.linalg.lapack.dgecon(lu, norm_1, norm="1")
    cond = _round3(1.0 / rcond) if rcond > 0 else np.inf

    C = system.C
    b = scipy.linalg.lu_solve(factors, C)
    db = scipy.linalg.lu_solve(factors, C - system.matvec(b))
    b = b + db
    if not np.isfinite(b).all():
        raise NumericallySingular("solution vector is not finite")

    n = len(system.node_set)
    residual = np.abs(system.matvec(b) - C)
    scale = system.matvec(b, absolute=True) + np.abs(C)
    # a row with |A||b| + |C| = 0 has a zero residual: its ratio is 0
    backward_error = np.divide(residual, scale, out=np.zeros_like(scale), where=scale > 0)
    b_max = float(np.abs(b).max())
    info = {
        "cond": {"pre": cond, "post": cond},
        "residual_max": float(residual.max()),
        "solver": {"backward_error": float(backward_error.max()),
                   "refinement_change": float(np.abs(db).max()) / b_max if b_max else 0.0},
    }
    return Solution(b1=b[:n], b2=b[n:], node_set=system.node_set,
                    kernels=system.kernels, hom=system.hom, info=info, spaces=system.spaces)


def solve_picard(system: CollocationSystem, tol: float = 1e-10, max_iter: int = 200):
    """Block fixed-point iteration mirroring the two one-field solves.

    Both right-hand sides are evaluated on the previous iterate, so each
    sweep solves the state block and the adjoint block independently.  The
    iteration converges only when the coupling 1/nu is weak enough; the
    returned PicardInfo says whether the tolerance was met.
    """
    import scipy.linalg

    n = len(system.node_set)
    # the diagonal blocks are factored in place, so they are written in
    # Fortran order; the off-diagonal ones serve row-major products
    A11, A22 = (system._block(p, p, np.empty((n, n), order="F")) for p in (0, 1))
    A12, A21 = (system._block(p, 1 - p, np.empty((n, n))) for p in (0, 1))
    C1, C2 = system.C[:n], system.C[n:]
    try:
        lu1, piv1 = scipy.linalg.lu_factor(A11, overwrite_a=True)
        lu2, piv2 = scipy.linalg.lu_factor(A22, overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericallySingular(f"diagonal block factorization failed: {exc}") from exc
    # LAPACK's getrs itself, as lu_solve calls it, without lu_solve's
    # per-call checks: a sweep is only two n x n triangular pairs
    getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (lu1, lu2))
    b1 = np.zeros(n)
    b2 = np.zeros(n)
    converged = False
    change = np.inf
    iterations = 0
    # a diverging iterate stops at its first overflowing sweep
    try:
        with np.errstate(over="raise", invalid="raise"):
            for iterations in range(1, max_iter + 1):
                b1_new, _ = getrs(lu1, piv1, C1 - A12 @ b2, overwrite_b=True)
                b2_new, _ = getrs(lu2, piv2, C2 - A21 @ b1, overwrite_b=True)
                change = max(np.abs(b1_new - b1).max(), np.abs(b2_new - b2).max())
                b1, b2 = b1_new, b2_new
                scale = max(1.0, np.abs(b1).max(), np.abs(b2).max())
                if change < tol * scale:
                    converged = True
                    break
    except FloatingPointError as exc:
        raise NumericallySingular(
            f"picard iteration diverged: sweep {iterations} of {max_iter} "
            f"overflowed ({exc})") from exc
    if not np.isfinite(b1).all() or not np.isfinite(b2).all():
        raise NumericallySingular("picard iteration produced non-finite coefficients")
    info = PicardInfo(converged=converged, iterations=iterations,
                      last_change=float(change), tol=tol, max_iter=max_iter)
    sol = Solution(b1=b1, b2=b2, node_set=system.node_set,
                   kernels=system.kernels, hom=system.hom,
                   info={"picard": dataclasses.asdict(info)}, spaces=system.spaces)
    return sol, info


@dataclass
class Solution:
    """Truncated-series solution of the homogenized system.

    spaces are the system's state and adjoint trial spaces, whose solved
    kernel pieces serve every evaluation.
    """

    b1: np.ndarray
    b2: np.ndarray
    node_set: NodeSet
    kernels: tuple[TensorKernel, TensorKernel]
    hom: HomogenizedProblem
    info: dict
    spaces: tuple[_TrialSpace, _TrialSpace]

    def _check_domain(self, x, t):
        (a, b), T = self.hom.base.interval, self.hom.base.T
        tol_x = 1e-12 * (b - a)
        tol_t = 1e-12 * T
        xa = np.asarray(x, dtype=float)
        ta = np.asarray(t, dtype=float)
        # written so that NaN, which compares False, fails
        if not (np.all(xa >= a - tol_x) and np.all(xa <= b + tol_x)
                and np.all(ta >= -tol_t) and np.all(ta <= T + tol_t)):
            raise OutOfDomain(f"point outside [{a},{b}] x [0,{T}]")

    # -- public evaluation ----------------------------------------------

    def evaluate_grid(self, xs, ts):
        """(y_total, p, u) arrays on the tensor grid, t-major."""
        self._check_domain(xs, ts)
        X, T = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ts, dtype=float))
        memo = {}
        y_h = self.spaces[0].grid(self.b1, xs, ts, memo=memo)
        p = self.spaces[1].grid(self.b2, xs, ts, memo=memo)
        y_tot = y_h + np.asarray(self.hom.y_hat(X, T), dtype=float)
        return y_tot, p, p / self.hom.base.nu

    def residuals(self, xs, ts):
        """Forward and adjoint PDE residuals on the tensor grid, t-major.

        L1 y - (p/nu + G1) and L2 p - (y_d - (y + y_hat)) for the
        homogenized state y, the values rk.residual_forward and
        rk.residual_adjoint give for the same pair.  Each distinct 1-D
        kernel matrix is built once per call.
        """
        self._check_domain(xs, ts)
        hom, (state, adjoint) = self.hom, self.spaces
        X, T = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ts, dtype=float))
        memo = {}
        y = state.grid(self.b1, xs, ts, memo=memo)
        p = adjoint.grid(self.b2, xs, ts, memo=memo)
        r_forward = state.grid(self.b1, xs, ts, L1, memo) - (
            p / hom.base.nu + np.asarray(hom.G1(X, T), dtype=float))
        r_adjoint = adjoint.grid(self.b2, xs, ts, L2, memo) - (
            np.asarray(hom.base.y_d(X, T), dtype=float)
            - (y + np.asarray(hom.y_hat(X, T), dtype=float)))
        return r_forward, r_adjoint


def evaluate(sol: Solution, x: float, t: float):
    """(y_total, p, u) as floats at a single point of the closed rectangle.

    They are the [0, 0] entries of sol.evaluate_grid([x], [t]); a
    non-scalar x or t raises ValueError.
    """
    if np.ndim(x) or np.ndim(t):
        raise ValueError("evaluate takes a single point: x and t must be scalars")
    return tuple(float(v[0, 0]) for v in sol.evaluate_grid([x], [t]))


def exact_grid(exact: ExactSolution, xs, ts):
    """Closed-form (y, p, u) arrays on the tensor grid, t-major."""
    X, T = np.meshgrid(xs, ts)
    return tuple(np.asarray(f(X, T), dtype=float)
                 for f in (exact.y_exact, exact.p_exact, exact.u_exact))


def grid_error_norms(approx, reference, xs, ts) -> dict:
    """Sup and L2 norms of the (y, p, u) errors approx - reference.

    Both are triples of t-major arrays on the grid xs x ts; the L2 norm
    uses the trapezoidal rule over the grid's rectangle.
    """
    norms = {}
    for name, field, ref in zip("ypu", approx, reference):
        err = field - ref
        norms[f"linf_{name}"] = float(np.abs(err).max())
        norms[f"l2_{name}"] = float(np.sqrt(trapezoid_2d(err ** 2, xs, ts)))
    return norms


def error_norms(sol, exact: ExactSolution, eval_grid=(101, 101)) -> dict:
    """Error norms of y, p and u on a uniform inclusive evaluation grid.

    sol is anything exposing evaluate_grid(xs, ts) -> (y, p, u) and the
    homogenized problem hom, whose rectangle the grid spans; the L2 norm
    uses the trapezoidal rule over it.
    """
    ne_x, ne_t = eval_grid
    (a, b), T = sol.hom.base.interval, sol.hom.base.T
    xs = np.linspace(a, b, ne_x)
    ts = np.linspace(0.0, T, ne_t)
    return grid_error_norms(sol.evaluate_grid(xs, ts), exact_grid(exact, xs, ts), xs, ts)
