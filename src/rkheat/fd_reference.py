"""Finite-difference cross-check for the coupled optimality system.

Independent of the kernel solver: second-order central differences in
space, Crank-Nicolson in time, both equations enforced at the half-steps
t_{j+1/2} and solved all at once as one sparse linear system.  The state
is unknown at levels 1..M (level 0 is the initial data) and the adjoint
at levels 0..M-1 (level M is its terminal zero), so the system is square.
The control is recovered exactly as u = p / nu on the grid.

scipy.sparse and scipy.interpolate are imported on first use: the kernel
solver never needs them, and importing rkheat should not pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDiscretization
from .grids import GridField, SpaceTimeGrid, trapezoid_2d
from .problems import ControlProblem, ExactSolution

__all__ = [
    "FDReferenceSolution",
    "solve_coupled_fd",
    "error_vs_exact",
    "self_convergence",
]


@dataclass(frozen=True)
class FDReferenceSolution:
    """Grid solution including the boundary and initial/terminal layers."""

    grid: SpaceTimeGrid
    y: GridField
    p: GridField
    u: GridField


def _laplacian(n_x: int, h: float) -> "scipy.sparse.csr_matrix":
    import scipy.sparse

    main = -2.0 * np.ones(n_x)
    off = np.ones(n_x - 1)
    return scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr") / h ** 2


def solve_coupled_fd(problem: ControlProblem, grid: SpaceTimeGrid) -> FDReferenceSolution:
    """Solve both equations simultaneously on the given grid."""
    import scipy.sparse
    import scipy.sparse.linalg

    if not np.isclose(grid.interval[0], problem.a) \
            or not np.isclose(grid.interval[1], problem.b) \
            or not np.isclose(grid.horizon, problem.T):
        raise SingularDiscretization("grid does not cover the problem rectangle")

    n_x = grid.n_x
    h = grid.h
    k = grid.k
    M = grid.n_t + 1                      # time intervals; levels 0..M
    xs_int = grid.xs[1:-1]
    ts = grid.ts                          # M + 1 levels
    ts_half = 0.5 * (ts[:-1] + ts[1:])
    nu = problem.nu

    lap = _laplacian(n_x, h)
    I = scipy.sparse.identity(n_x, format="csr")
    IM = scipy.sparse.identity(M, format="csr")
    sub = scipy.sparse.diags([np.ones(M - 1)], [-1], format="csr")
    sup = scipy.sparse.diags([np.ones(M - 1)], [1], format="csr")

    # Unknown ordering: y levels 1..M then p levels 0..M-1, t-major.
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
    # Known initial level of y enters the j = 0 half-step of both equations.
    rhs_F[0] -= (y_init / k + (lap @ y_init) / 2)
    rhs_A[0] -= y_init / 2
    # Lateral boundary values of y enter the Laplacian rows next to x=a, x=b.
    bnd_half1 = 0.5 * (h1_lev[:-1] + h1_lev[1:])
    bnd_half2 = 0.5 * (h2_lev[:-1] + h2_lev[1:])
    rhs_F[:, 0] -= bnd_half1 / h ** 2
    rhs_F[:, -1] -= bnd_half2 / h ** 2

    rhs = np.concatenate([rhs_F.ravel(), rhs_A.ravel()])
    try:
        sol = scipy.sparse.linalg.spsolve(A, rhs)
    except RuntimeError as exc:
        raise SingularDiscretization(f"sparse solve failed: {exc}") from exc
    if not np.isfinite(sol).all():
        raise SingularDiscretization("sparse solve returned non-finite values")

    y_unk = sol[: M * n_x].reshape(M, n_x)
    p_unk = sol[M * n_x:].reshape(M, n_x)

    Y = np.zeros((M + 1, n_x + 2))
    P = np.zeros((M + 1, n_x + 2))
    Y[0, 1:-1] = y_init
    Y[1:, 1:-1] = y_unk
    Y[:, 0] = h1_lev
    Y[:, -1] = h2_lev
    P[:-1, 1:-1] = p_unk

    return FDReferenceSolution(
        grid=grid,
        y=GridField(grid, Y),
        p=GridField(grid, P),
        u=GridField(grid, P / nu),
    )


def error_vs_exact(field: GridField, exact_field) -> dict:
    """Max and trapezoidal L2 norm of field minus a callable reference."""
    grid = field.grid
    X, T = np.meshgrid(grid.xs, grid.ts)
    err = field.values - np.asarray(exact_field(X, T), dtype=float)
    l2 = float(np.sqrt(trapezoid_2d(err ** 2, grid.xs, grid.ts)))
    return {"linf": float(np.abs(err).max()), "l2": l2}


def _spline(field: GridField):
    from scipy.interpolate import RectBivariateSpline

    g = field.grid
    return RectBivariateSpline(g.ts, g.xs, field.values, kx=3, ky=3)


def self_convergence(problem: ControlProblem, n_base: int = 16,
                     probe: tuple[int, int] = (33, 33)) -> dict:
    """Observed order from three nested grids, no exact solution needed.

    Solves at n, 2n and 4n points per direction, transfers each solution
    to a fixed probe grid by bicubic splines, and estimates the order from
    the ratio of successive differences.
    """
    a, b, T = problem.a, problem.b, problem.T
    px = np.linspace(a, b, probe[0])
    pt = np.linspace(0.0, T, probe[1])

    samples = []
    for n in (n_base, 2 * n_base, 4 * n_base):
        grid = SpaceTimeGrid(n_x=n, n_t=n, interval=(a, b), horizon=T)
        fd = solve_coupled_fd(problem, grid)
        samples.append((_spline(fd.y)(pt, px), _spline(fd.p)(pt, px)))

    out = {}
    for name, idx in (("y", 0), ("p", 1)):
        d1 = float(np.abs(samples[0][idx] - samples[1][idx]).max())
        d2 = float(np.abs(samples[1][idx] - samples[2][idx]).max())
        out[f"order_{name}"] = float(np.log2(d1 / d2)) if d2 > 0 else float("inf")
        out[f"diff_{name}"] = (d1, d2)
    return out
