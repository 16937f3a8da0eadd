"""Solve the first built-in optimal-control benchmark end to end.

The problem: steer the 1-D heat equation toward a target profile y_d
with a distributed control u, paying nu/2 * ||u||^2 for the effort.
The optimality system couples the (backward-in-time) state equation with
a forward adjoint equation, and the control is recovered as u = p/nu.
"""

import numpy as np

import rkheat as rk


def main():
    nu = 1e-2
    problem, exact = rk.builtin_example(1, nu=nu)
    print(f"Domain: [{problem.a}, {problem.b}] x [0, {problem.T}], nu = {nu}")

    # Homogenize the boundary/initial data, place collocation nodes, and
    # assemble the coupled 2n x 2n system.
    hom = rk.homogenize(problem)
    kernels = rk.standard_kernels(problem.interval, problem.T)
    nodes = rk.generate_nodes(8, 8, (problem.interval, problem.T))
    system = rk.assemble(hom, nodes, kernels)
    sol = rk.solve(system)
    size = len(system.C)
    print(f"Assembled {size}x{size} system; "
          f"cond_1 estimate: {sol.info['cond']['post']:.3e}")
    print(f"Max collocation residual at the nodes: "
          f"{sol.info['residual_max']:.2e}")

    norms = rk.error_norms(sol, exact, eval_grid=(101, 101))
    print("\nErrors against the closed-form benchmark pair (101x101 grid):")
    for key, val in norms.items():
        print(f"  {key:8s} = {val:.4e}")

    print("\nMid-domain values (x = 0.5):")
    xs = np.array([0.5])
    print(f"  {'t':>5s} {'y approx':>12s} {'y exact':>12s} "
          f"{'u approx':>12s} {'u exact':>12s}")
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        Y, P, U = sol.evaluate_grid(xs, np.array([t]))
        print(f"  {t:5.2f} {Y[0, 0]:12.6f} {exact.y_exact(0.5, t):12.6f} "
              f"{U[0, 0]:12.6f} {exact.u_exact(0.5, t):12.6f}")

    # The achieved objective value: tracking error plus control effort.
    grid = rk.SpaceTimeGrid(n_x=99, n_t=99, interval=problem.interval,
                            horizon=problem.T)
    X, T = np.meshgrid(grid.xs, grid.ts)
    Y, _, U = sol.evaluate_grid(grid.xs, grid.ts)
    j = rk.cost_functional(rk.GridField(grid, Y), rk.GridField(grid, U), problem)
    print(f"\nObjective value J(y, u) = {j:.4e}")


if __name__ == "__main__":
    main()
