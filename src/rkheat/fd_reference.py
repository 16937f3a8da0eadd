"""Finite-difference cross-check for the coupled optimality system.

Independent of the kernel solver: second-order central differences in
space, Crank-Nicolson in time, both equations enforced at the half-steps
t_{j+1/2} and solved all at once.  The state is unknown at levels 1..M
(level 0 is the initial data) and the adjoint at levels 0..M-1 (level M is
its terminal zero), so the system is square.  The control is recovered
exactly as u = p / nu on the grid.

The spatial operator is the Dirichlet three-point Laplacian, which the
orthonormal sine transform (DST-I) diagonalizes, so every space block of
the system does too (the fast Poisson solver of Buzbee, Golub and
Nielson, SINUM 1970).  In sine modes the system splits into n_x
independent pentadiagonal systems in time, solved together by one banded
LU with partial pivoting; nothing of size n_x * M squared is formed.

solve_coupled_fd imports scipy.linalg on first use, so importing rkheat
does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDiscretization
from .grids import GridField, SpaceTimeGrid, require_count, trapezoid_2d
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


def _sine_modes(n_x: int, h: float):
    """Orthonormal DST-I matrix Q and the eigenvalues of the Laplacian.

    The Dirichlet three-point Laplacian on n_x interior points is
    Q diag(lam) Q with Q symmetric, so Q @ Q is the identity.
    """
    idx = np.arange(1, n_x + 1)
    Q = np.sqrt(2.0 / (n_x + 1)) * np.sin(np.outer(idx, idx) * np.pi / (n_x + 1))
    lam = -4.0 / h ** 2 * np.sin(idx * np.pi / (2 * (n_x + 1))) ** 2
    return Q, lam


def _mode_bands(lam: np.ndarray, k: float, nu: float, M: int) -> np.ndarray:
    """Banded (2, 2) storage of every mode's system, stacked mode-major.

    In mode m the unknowns interleave by level, z[2j] = P_j and
    z[2j+1] = Y_{j+1}.  Row 2j is the forward equation at t_{j+1/2},

        ap Y_j + c P_j + am Y_{j+1} + c P_{j+1} = F_j,

    and row 2j+1 the adjoint one,

        Y_j / 2 + am P_j + Y_{j+1} / 2 + ap P_{j+1} = A_j,

    where Y_0 is known data and P_M the terminal zero, so their terms are
    dropped and the modes do not couple.  Row 2 - d of the storage holds,
    in column q, the coefficient of z[q] in row q - d (LAPACK's layout).
    """
    am = (-1.0 / k + lam / 2)[:, None]
    ap = (1.0 / k + lam / 2)[:, None]
    c = -1.0 / (2.0 * nu)
    ab = np.zeros((5, len(lam), 2 * M))
    ab[0, :, 2::2] = c                   # P_j in forward row j - 1
    ab[1, :, 2::2] = ap                  # P_j in adjoint row j - 1
    ab[1, :, 1::2] = am                  # Y_{j+1} in forward row j
    ab[2, :, 0::2] = c                   # P_j in forward row j
    ab[2, :, 1::2] = 0.5                 # Y_{j+1} in adjoint row j
    ab[3, :, 0::2] = am                  # P_j in adjoint row j
    ab[3, :, 1:-1:2] = ap                # Y_{j+1} in forward row j + 1
    ab[4, :, 1:-1:2] = 0.5               # Y_{j+1} in adjoint row j + 1
    return ab.reshape(5, -1)


def solve_coupled_fd(problem: ControlProblem, grid: SpaceTimeGrid) -> FDReferenceSolution:
    """Solve both equations simultaneously on the given grid.

    Raises ValueError naming the field when y0, h1, h2 or y_d is not finite
    on the grid, and SingularDiscretization when the grid does not cover
    the problem or the banded solve fails or returns non-finite values.
    """
    import scipy.linalg

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

    y_init = np.asarray(problem.y0(xs_int), dtype=float)
    y_init = np.broadcast_to(y_init, xs_int.shape).astype(float)
    h1_lev = np.asarray([float(problem.h1(t)) for t in ts])
    h2_lev = np.asarray([float(problem.h2(t)) for t in ts])
    X, Th = np.meshgrid(xs_int, ts_half)
    y_d = np.broadcast_to(np.asarray(problem.y_d(X, Th), dtype=float), X.shape)
    for name, values in (("y0", y_init), ("h1", h1_lev), ("h2", h2_lev), ("y_d", y_d)):
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            raise ValueError(f"problem data {name} is not finite at {bad} of "
                             f"{values.size} grid points")

    rhs_F = np.zeros((M, n_x))
    rhs_A = y_d.copy()
    # Known initial level of y enters the j = 0 half-step of both equations;
    # lap @ y_init by the three-point stencil with zero ends.
    lap_y = -2.0 * y_init
    lap_y[1:] += y_init[:-1]
    lap_y[:-1] += y_init[1:]
    rhs_F[0] -= (y_init / k + (lap_y / h ** 2) / 2)
    rhs_A[0] -= y_init / 2
    # Lateral boundary values of y enter the Laplacian rows next to x=a, x=b.
    bnd_half1 = 0.5 * (h1_lev[:-1] + h1_lev[1:])
    bnd_half2 = 0.5 * (h2_lev[:-1] + h2_lev[1:])
    rhs_F[:, 0] -= bnd_half1 / h ** 2
    rhs_F[:, -1] -= bnd_half2 / h ** 2

    Q, lam = _sine_modes(n_x, h)
    rhs = np.empty((n_x, M, 2))
    rhs[:, :, 0] = (rhs_F @ Q).T
    rhs[:, :, 1] = (rhs_A @ Q).T
    try:
        z = scipy.linalg.solve_banded((2, 2), _mode_bands(lam, k, nu, M), rhs.ravel(),
                                      overwrite_ab=True, overwrite_b=True,
                                      check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularDiscretization(f"banded mode solve failed: {exc}") from exc
    if not np.isfinite(z).all():
        raise SingularDiscretization("banded mode solve returned non-finite values")
    z = z.reshape(n_x, M, 2)

    Y = np.zeros((M + 1, n_x + 2))
    P = np.zeros((M + 1, n_x + 2))
    Y[0, 1:-1] = y_init
    Y[1:, 1:-1] = z[:, :, 1].T @ Q
    Y[:, 0] = h1_lev
    Y[:, -1] = h2_lev
    P[:-1, 1:-1] = z[:, :, 0].T @ Q

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


def self_convergence(problem: ControlProblem, n_base: int = 16) -> dict:
    """Observed order from three nested grids, no exact solution needed.

    Solves on n, 2n and 4n intervals per direction, so every other point
    of each grid lies on the one before it, compares successive solutions
    at those shared points, and estimates the order from the ratio of
    successive differences.
    """
    require_count("n_base", n_base, least=2)
    samples = []
    for n in (n_base, 2 * n_base, 4 * n_base):
        grid = SpaceTimeGrid(n_x=n - 1, n_t=n - 1, interval=problem.interval,
                             horizon=problem.T)
        fd = solve_coupled_fd(problem, grid)
        samples.append((fd.y.values, fd.p.values))

    out = {}
    for name, idx in (("y", 0), ("p", 1)):
        d1 = float(np.abs(samples[0][idx] - samples[1][idx][::2, ::2]).max())
        d2 = float(np.abs(samples[1][idx] - samples[2][idx][::2, ::2]).max())
        out[f"order_{name}"] = float(np.log2(d1 / d2)) if d2 > 0 else float("inf")
        out[f"diff_{name}"] = (d1, d2)
    return out
