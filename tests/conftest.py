import numpy as np
import pytest

import rkheat as rk

UNIT = ((0.0, 1.0), 1.0)


@pytest.fixture(scope="session")
def kernel_w2():
    return rk.build_kernel(rk.SpaceSpec(2, (0.0, 1.0), (("a", 0), ("b", 0))))


@pytest.fixture(scope="session")
def kernel_w1():
    return rk.build_kernel(rk.SpaceSpec(1, (0.0, 1.0), (("a", 0),)))


@pytest.fixture(scope="session")
def kernel_w1p():
    return rk.build_kernel(rk.SpaceSpec(1, (0.0, 1.0), (("b", 0),)))


@pytest.fixture(scope="session")
def unit_kernels():
    return rk.standard_kernels((0.0, 1.0), 1.0)


@pytest.fixture(scope="session")
def ex1_case():
    problem, exact = rk.builtin_example(1, nu=1e-2)
    hom = rk.homogenize(problem)
    return problem, exact, hom


@pytest.fixture(scope="session")
def ex1_solution_8(ex1_case, unit_kernels):
    problem, exact, hom = ex1_case
    nodes = rk.generate_nodes(8, 8, UNIT)
    system = rk.assemble(hom, nodes, unit_kernels)
    return rk.solve(system), system


def node_layout(kind, n):
    """n x n nodes on the unit square: the midpoint grid ("grid"), or one
    seeded uniform point in the middle half of each of its cells
    ("jittered"), so that no two nodes share a coordinate."""
    if kind == "grid":
        return rk.generate_nodes(n, n, UNIT)
    rng = np.random.default_rng(n)
    ix, it = np.meshgrid(np.arange(n), np.arange(n))
    jitter = rng.uniform(0.25, 0.75, size=(2, n * n))
    nodes = np.column_stack([(ix.ravel() + jitter[0]) / n, (it.ravel() + jitter[1]) / n])
    return rk.NodeSet(nodes=nodes, generation={"kind": "jittered", "n": n})


def solve_example(example_id, nu, n_x, n_t, kernels=None, mode="direct", **kw):
    problem, exact = rk.builtin_example(example_id, nu=nu)
    hom = rk.homogenize(problem)
    if kernels is None:
        kernels = rk.standard_kernels(problem.interval, problem.T)
    nodes = rk.generate_nodes(n_x, n_t, (problem.interval, problem.T))
    system = rk.assemble(hom, nodes, kernels)
    if mode == "picard":
        sol, info = rk.solve_picard(system, **kw)
        return problem, exact, hom, system, sol, info
    sol = rk.solve(system, **kw)
    return problem, exact, hom, system, sol, None


@pytest.fixture
def rng():
    # Fresh generator per test so results do not depend on test order.
    return np.random.default_rng(20240817)
