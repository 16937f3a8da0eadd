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
distinct coordinates; _TrialSpace builds them, one per field.  The
system keeps each block as a sum of Kronecker products instead of the
dense matrix: on a tensor node set, of those 1-D matrices; on any other
node set, one product of the gathered block with [[1]].  Products with
A come from the factor pairs, and the solve builds A once, to factor
it.  All second-argument derivatives are exact (implicit
differentiation in the kernel module); no finite differences enter the
matrix.  Only the LU step needs scipy: it imports scipy.linalg on first
use, so importing rkheat does not load it.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .errors import KernelDomainMismatch, NumericallySingular, OutOfDomain
from .grids import require_count, trapezoid_2d
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
# block (p, q) of A applies _OPS[p][q] to field q's trial functions
_OPS = ((L1, IDENTITY), (IDENTITY, L2))


@dataclass(frozen=True)
class NodeSet:
    """Ordered collocation nodes with the descriptor that generated them.

    ux and ut are the distinct x and t coordinates, ix and it each node's
    index into them, and tensor says whether the nodes are the full t-major
    tensor grid ut x ux, node r at (ux[r % len(ux)], ut[r // len(ux)]).
    """

    nodes: np.ndarray            # shape (n, 2), columns x, t
    generation: dict
    ux: np.ndarray = dataclasses.field(init=False, repr=False)
    ut: np.ndarray = dataclasses.field(init=False, repr=False)
    ix: np.ndarray = dataclasses.field(init=False, repr=False)
    it: np.ndarray = dataclasses.field(init=False, repr=False)
    tensor: bool = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.nodes) != 2 or np.shape(self.nodes)[1] != 2:
            raise ValueError(f"collocation nodes must be an (n, 2) array of x, t "
                             f"pairs, got shape {np.shape(self.nodes)}")
        if len(self.nodes) == 0:
            raise ValueError("the collocation node set is empty")
        if not np.isfinite(self.nodes).all():
            raise ValueError("collocation nodes must be finite")
        ux, ix = np.unique(self.nodes[:, 0], return_inverse=True)
        ut, it = np.unique(self.nodes[:, 1], return_inverse=True)
        flat = it * len(ux) + ix
        if len(np.unique(flat)) != len(flat):
            raise ValueError("collocation nodes must be pairwise distinct")
        tensor = np.array_equal(flat, np.arange(len(ut) * len(ux)))
        for name, value in dict(ux=ux, ut=ut, ix=ix, it=it, tensor=tensor).items():
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.nodes)


def generate_nodes(n_x: int, n_t: int, domain) -> NodeSet:
    """Uniform midpoint tensor grid, t-major ordering.

    domain = ((a, b), T).  Points x_i = a + (i - 1/2)(b - a)/n_x and
    t_k = (k - 1/2) T / n_t are strictly interior by construction.
    """
    require_count("n_x", n_x)
    require_count("n_t", n_t)
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

    With node r at (ux[r % nx], ut[r // nx]), block (p, q) of A is
    scales[p][q] times the sum of kron(T, S) over its factor pairs
    pairs[p][q], summed in list order.  A t-major tensor node set has one
    pair per term of the operator, on its distinct coordinates; any other
    node set is the case nt = 1, nx = n, one pair (block, [[1]]) per block
    with the unscaled block gathered at the nodes.
    """

    def __init__(self, pairs, scales, nt: int, nx: int):
        self.pairs, self.scales, self.nt, self.nx = pairs, scales, nt, nx

    def block(self, p: int, q: int, out: np.ndarray) -> np.ndarray:
        """Write block (p, q) of A into the n x n view out, and return out.

        out may be strided, as a quadrant of a 2n x 2n array is, as long as
        its rows or its columns are contiguous.  A Fortran-ordered out is
        written as its transpose, the block of A^T, from transposed
        factors: the same products.  The products are taken a few t rows
        at a time, about _PRODUCT_ROWS rows of the block, so all but the
        first pair's go through a buffer of that many rows.
        """
        pairs, target = self.pairs[p][q], out
        if out.strides[1] != out.itemsize:
            pairs, target = [(S.T, T.T) for S, T in pairs], out.T
        view = target.reshape((self.nt, self.nx, self.nt, self.nx), copy=False)
        step = max(1, _PRODUCT_ROWS // self.nx)
        buffer = np.empty((min(step, self.nt),) + view.shape[1:]) if len(pairs) > 1 else None
        for r in range(0, self.nt, step):
            dest = view[r:r + step]
            for k, (S, T) in enumerate(pairs):
                product = buffer[:len(dest)] if k else dest
                np.multiply(T[r:r + step, None, :, None], S[:, None, :], out=product)
                if k:
                    dest += product
        if self.scales[p][q] != 1.0:
            out *= self.scales[p][q]
        return out

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

    A is kept as its 1-D factor pairs (factors).  On a full t-major tensor
    node set, as generate_nodes makes, they are small, ~200 KB at 32 x 32
    nodes where A takes 32 MB; on any other node set they are the four
    gathered n x n blocks, |A| in all.  factors.block(p, q, out) writes one
    n x n block of A into a C- or Fortran-ordered view, and
    factors.matvec(b) forms A @ b, or |A| @ |b|, without building A.
    solve writes the four blocks into one Fortran-ordered A, once, and
    takes every other product from matvec; solve_picard builds only the
    four blocks.  spaces are the state and adjoint trial spaces assemble
    built; the solution evaluates through them.
    """

    C: np.ndarray
    node_set: NodeSet
    hom: HomogenizedProblem
    spaces: tuple[_TrialSpace, _TrialSpace]
    factors: _KroneckerBlocks

    @property
    def A(self) -> np.ndarray:
        """The 2n x 2n matrix, a new array from the factor pairs on each access.

        No solve reads it; the benchmark tracer does, and tests compare
        against it.  It can go once the tracer takes the size of A from C.
        """
        return self._matrix()

    def _matrix(self, order: str = "C") -> np.ndarray:
        """A new 2n x 2n array of A in the given order, block by block."""
        n = len(self.node_set)
        out = np.empty((2 * n, 2 * n), order=order)
        for p in (0, 1):
            for q in (0, 1):
                self.factors.block(p, q, out[p * n:p * n + n, q * n:q * n + n])
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
# whether the node set is a tensor grid, whose factor pairs are small; a
# scattered set's are its four gathered blocks, |A| in all.  Tracemalloc
# of example 2 at 24^2 and 32^2 nodes, counting those blocks: the direct
# solve holds A, factored in place, 1.03 and 1.01 |A|, or 2.26 and 2.25
# |A| on an x-major set, whose |A| |b| takes |block| one block at a time;
# Picard holds the four n x n blocks, 1.02 and 1.01 |A|, or 2.00 |A| on
# an x-major set.  The guard adds ~0.25 |A| or more to the worst path.
# Writing A's blocks is a fixed cost, a larger share of a small |A| (1.13
# |A| at 16^2 nodes).
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
    ux, ut carry the 1-D kernel columns; its indices ix, it map each node
    back to them.  px are the spatial kernel's pieces on ux, which assemble
    solves once for both fields; the temporal pieces on ut are solved here.
    Both serve every later kernel matrix of the space.  Operators are
    tuples of (coef, dx, dt) terms; a memo dict, where given, shares 1-D
    kernel matrices between the calls of one evaluation.  Sums of the
    trial functions are evaluated on tensor grids only: a single point, as
    rk.evaluate asks for, is a 1 x 1 grid.
    """

    def __init__(self, kernel: TensorKernel, sign: float, nodes: NodeSet, px):
        self.kernel, self.sign, self.px = kernel, sign, px
        self.ux, self.ut, self.ix, self.it = nodes.ux, nodes.ut, nodes.ix, nodes.it
        self.pt = kernel.temporal.pieces(self.ut, max_dy=1)   # psi_j takes T_.,0 and T_.,1

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

    def gather(self, op):
        """The n x n block [op psi_j at node i], gathered from the 1-D factors."""
        sx, st = np.ix_(self.ix, self.ix), np.ix_(self.it, self.it)
        out = np.zeros((len(self.ix), len(self.ix)))
        for S, T in self._factors(self.ux, self.ut, op):
            block = S[sx]
            block *= T[st]
            out += block
        return out

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
    _check_footprint(n, nodes.tensor)
    px = K1.spatial.pieces(nodes.ux)
    spaces = (_TrialSpace(K1, FORWARD, nodes, px), _TrialSpace(K2, ADJOINT, nodes, px))
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
    scales = ((1.0, -1.0 / base.nu), (1.0, 1.0))
    if nodes.tensor:
        memo = {}
        pairs = [[spaces[q].pairs(_OPS[p][q], memo) for q in (0, 1)] for p in (0, 1)]
        factors = _KroneckerBlocks(pairs, scales, len(nodes.ut), len(nodes.ux))
    else:
        one = np.ones((1, 1))
        pairs = [[[(spaces[q].gather(_OPS[p][q]), one)] for q in (0, 1)] for p in (0, 1)]
        factors = _KroneckerBlocks(pairs, scales, 1, n)
    return CollocationSystem(C, nodes, hom, spaces, factors)


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


def _lu_in_place(M: np.ndarray, name: str):
    """Factor the Fortran-ordered M in place by LU with partial pivoting.

    LAPACK is called directly, without the boolean mask of M that
    scipy's LU wrapper builds.  An inf or NaN in M, on which LAPACK may
    not terminate, shows as a non-finite ||M||_1; it and a zero pivot, as
    a zero row gives, raise NumericallySingular.  Returns the factors (M
    itself), the pivots, ||M||_1, getrs and gecon.
    """
    import scipy.linalg

    getrf, getrs, gecon, lange = scipy.linalg.get_lapack_funcs(
        ("getrf", "getrs", "gecon", "lange"), (M,))
    norm_1 = lange("1", M)
    if not np.isfinite(norm_1):
        raise NumericallySingular(f"{name} is not finite: its 1-norm is {norm_1}")
    lu, piv, info = getrf(M, overwrite_a=True)
    if info > 0:
        raise NumericallySingular(f"LU factorization of {name} hit an exactly zero "
                                  f"pivot in row {info} of {len(M)}")
    return lu, piv, norm_1, getrs, gecon


def solve(system: CollocationSystem) -> "Solution":
    """Solve the collocation system with one LU factorization.

    The four blocks of A are written from the factor pairs into one
    Fortran-ordered array, so the solve builds A once and holds one
    2n x 2n array beside the pairs.  _lu_in_place takes ||A||_1 and
    factors A in place; a non-finite A or a zero pivot raises
    NumericallySingular.  LAPACK getrs solves the system with the factors,
    then one step of iterative refinement corrects b.  Every product with
    A, the refinement residual, the final residual and |A| |b|, comes from
    system.factors.matvec.  info["cond"] holds LAPACK gecon's 1-norm condition
    estimate of A from its factors, under "pre" and "post" alike; no
    inverse is formed.  info["solver"] records the componentwise
    (Oettli-Prager) backward error max_i |A b - C|_i / (|A| |b| + |C|)_i,
    0 on rows where the denominator is 0, and the refinement change
    ||db||_inf / ||b||_inf.
    """
    lu, piv, norm_1, getrs, gecon = _lu_in_place(system._matrix(order="F"), "A")
    rcond, _ = gecon(lu, norm_1, norm="1")
    cond = _round3(1.0 / rcond) if rcond > 0 else np.inf

    C = system.C
    b, _ = getrs(lu, piv, C)
    db, _ = getrs(lu, piv, C - system.factors.matvec(b), overwrite_b=True)
    b = b + db
    if not np.isfinite(b).all():
        raise NumericallySingular("solution vector is not finite")

    n = len(system.node_set)
    residual = np.abs(system.factors.matvec(b) - C)
    scale = system.factors.matvec(b, absolute=True) + np.abs(C)
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
                    hom=system.hom, info=info, spaces=system.spaces)


def solve_picard(system: CollocationSystem, tol: float = 1e-10, max_iter: int = 200):
    """Block fixed-point iteration mirroring the two one-field solves.

    Both right-hand sides are evaluated on the previous iterate, so each
    sweep solves the state block and the adjoint block independently.  The
    iteration converges only when the coupling 1/nu is weak enough; the
    returned PicardInfo says whether the tolerance was met.  The diagonal
    blocks are factored as solve factors A, and each sweep calls getrs.
    """
    n = len(system.node_set)
    # the diagonal blocks are factored in place, so they are written in
    # Fortran order; the off-diagonal ones serve row-major products
    block = system.factors.block
    A11, A22 = (block(p, p, np.empty((n, n), order="F")) for p in (0, 1))
    A12, A21 = (block(p, 1 - p, np.empty((n, n))) for p in (0, 1))
    C1, C2 = system.C[:n], system.C[n:]
    lu1, piv1, _, getrs, _ = _lu_in_place(A11, "block A11")
    lu2, piv2, *_ = _lu_in_place(A22, "block A22")
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
    sol = Solution(b1=b1, b2=b2, node_set=system.node_set, hom=system.hom,
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
    """Error norms of y, p and u on a uniform inclusive evaluation grid of
    eval_grid = (points in x, points in t), each an integer >= 2.

    sol is anything exposing evaluate_grid(xs, ts) -> (y, p, u) and the
    homogenized problem hom, whose rectangle the grid spans; the L2 norm
    uses the trapezoidal rule over it.
    """
    ne_x, ne_t = eval_grid
    require_count("eval_grid[0]", ne_x, least=2)
    require_count("eval_grid[1]", ne_t, least=2)
    (a, b), T = sol.hom.base.interval, sol.hom.base.T
    xs = np.linspace(a, b, ne_x)
    ts = np.linspace(0.0, T, ne_t)
    return grid_error_norms(sol.evaluate_grid(xs, ts), exact_grid(exact, xs, ts), xs, ts)
