"""Cross-validate the kernel solver against an independent discretization.

A Crank-Nicolson finite-difference scheme solves the same coupled
optimality system all-at-once on a fine grid.  Both methods impose the
same boundary conditions, so where the printed benchmark pair violates
them (see demo_convergence.py) the two solvers should agree with each
other much more closely than either agrees with the printed pair —
strong evidence the discrepancy lives in the benchmark data, not the
solvers.
"""

import numpy as np

import rkheat as rk


def main():
    nu = 1e-2
    problem, exact = rk.builtin_example(1, nu=nu)

    hom = rk.homogenize(problem)
    kernels = rk.standard_kernels(problem.interval, problem.T)
    nodes = rk.generate_nodes(12, 12, (problem.interval, problem.T))
    sol = rk.solve(rk.assemble(hom, nodes, kernels))

    grid = rk.SpaceTimeGrid(n_x=64, n_t=64, interval=problem.interval,
                            horizon=problem.T)
    fd = rk.solve_coupled_fd(problem, grid)

    Y, P, _ = sol.evaluate_grid(grid.xs, grid.ts)
    X, T = np.meshgrid(grid.xs, grid.ts)
    y_printed = np.asarray(exact.y_exact(X, T), dtype=float)

    print("Example 1, nu = 1e-2:")
    print(f"  kernel (12x12) vs finite differences (64x64):")
    print(f"    max |y_rk - y_fd| = {np.abs(Y - fd.y.values).max():.3e}")
    print(f"    max |p_rk - p_fd| = {np.abs(P - fd.p.values).max():.3e}")
    print(f"  each vs the printed closed-form pair:")
    print(f"    max |y_rk - y_printed| = {np.abs(Y - y_printed).max():.3e}")
    print(f"    max |y_fd - y_printed| = "
          f"{np.abs(fd.y.values - y_printed).max():.3e}")
    print("  -> the two independent solvers sit on top of each other, an")
    print("     order of magnitude closer than either sits to the printed")
    print("     pair, which does not satisfy the adjoint boundary condition.")

    conv = rk.self_convergence(problem, n_base=16)
    print(f"\nFinite-difference self-convergence (16 -> 32 -> 64 intervals per axis):")
    print(f"  observed order in y: {conv['order_y']:.2f}   "
          f"in p: {conv['order_p']:.2f}   (Crank-Nicolson is second order)")


if __name__ == "__main__":
    main()
