"""Tour of the constrained kernel spaces the solver is built on.

Each space W_m[a, b] carries boundary constraints baked into its
reproducing kernel, so every linear combination of kernel sections
satisfies them automatically.  This script builds the three 1-D spaces
used by the solver, checks the reproducing identity numerically, and
shows how fast the Gram matrices' condition numbers grow with the nodes.
"""

import numpy as np

import rkheat as rk


def main():
    specs = {
        "W2[0,1], u(0)=u(1)=0   (space axis)":
            rk.SpaceSpec(2, (0.0, 1.0), (("a", 0), ("b", 0))),
        "W1[0,1], u(0)=0        (state time axis)":
            rk.SpaceSpec(1, (0.0, 1.0), (("a", 0),)),
        "W1[0,1], u(1)=0        (adjoint time axis)":
            rk.SpaceSpec(1, (0.0, 1.0), (("b", 0),)),
    }

    print("Boundary constraints are exact by construction:")
    for name, spec in specs.items():
        kernel = rk.build_kernel(spec)
        a, b = spec.interval
        vals = [kernel.eval(a if side == "a" else b, 0.37, dx=order)
                for side, order in spec.constraints]
        print(f"  {name}: constraint values {vals}")

    print("\nReproducing identity <f, K(., y)> = f(y), checked without")
    print("quadrature via a function the kernel can represent exactly:")
    w2 = rk.build_kernel(specs["W2[0,1], u(0)=u(1)=0   (space axis)"])
    # f(x) = K(x, 0.3) itself is in the space; <f, K(., y)> = K(0.3, y).
    for y in (0.25, 0.5, 0.75):
        lhs = w2.eval(0.3, y)
        rhs = w2.eval(y, 0.3)
        print(f"  y={y}: K(0.3,{y}) = {lhs:.12f}, symmetric partner {rhs:.12f}, "
              f"difference {abs(lhs - rhs):.2e}")

    print("\nGram matrix conditioning grows quickly with node count, which")
    print("bounds how many digits of the solve's coefficients can be trusted:")
    for n in (4, 8, 16, 32):
        pts = (np.arange(n) + 0.5) / n
        G = rk.kernel_matrix(w2, pts, pts)
        print(f"  {n:3d} nodes: cond_1(G) = {np.linalg.cond(G, 1):.3e}")


if __name__ == "__main__":
    main()
