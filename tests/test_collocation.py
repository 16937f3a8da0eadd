import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import rkheat as rk
import rkheat.collocation as collocation
from conftest import UNIT, node_layout, solve_example
from oracles import BasisFunction, BasisKind, one_lu_solve


def dense_backed(system, A):
    """The system with A stored as the given dense array."""
    return dataclasses.replace(system, dense=A, factors=None)


def x_major(nodes):
    """The tensor node set reordered x-major, which is no t-major tensor set."""
    n_x, n_t = nodes.generation["n_x"], nodes.generation["n_t"]
    order = np.arange(len(nodes)).reshape(n_t, n_x).T.ravel()
    return rk.NodeSet(nodes=nodes.nodes[order], generation={"kind": "x-major"}), order


class TestGenerateNodes:
    def test_single_midpoint(self):
        ns = rk.generate_nodes(1, 1, UNIT)
        assert np.allclose(ns.nodes, [[0.5, 0.5]])

    def test_half_offset_pair(self):
        ns = rk.generate_nodes(2, 1, UNIT)
        assert np.allclose(ns.nodes, [[0.25, 0.5], [0.75, 0.5]])

    def test_t_major_ordering(self):
        ns = rk.generate_nodes(2, 2, UNIT)
        assert np.allclose(ns.nodes, [[0.25, 0.25], [0.75, 0.25],
                                      [0.25, 0.75], [0.75, 0.75]])

    @pytest.mark.parametrize("n_x,n_t", [(1, 1), (3, 5), (16, 16)])
    def test_strictly_interior(self, n_x, n_t):
        ns = rk.generate_nodes(n_x, n_t, ((0.0, 1.0), 2.0))
        assert np.all(ns.nodes[:, 0] > 0) and np.all(ns.nodes[:, 0] < 1)
        assert np.all(ns.nodes[:, 1] > 0) and np.all(ns.nodes[:, 1] < 2)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            rk.NodeSet(nodes=np.array([[0.5, 0.5], [0.5, 0.5]]), generation={})


class TestAssemble:
    def test_single_node_block_entries(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        nodes = rk.generate_nodes(1, 1, UNIT)
        system = rk.assemble(hom, nodes, unit_kernels)
        assert system.A.shape == (2, 2)
        K1, K2 = unit_kernels
        center = (0.5, 0.5)
        psi1 = BasisFunction(center, BasisKind.STATE, K1)
        psi2 = BasisFunction(center, BasisKind.ADJOINT, K2)
        nu = hom.base.nu
        assert system.A[1, 0] == pytest.approx(psi1.evaluate(0.5, 0.5), rel=1e-12)
        assert system.A[0, 0] == pytest.approx(psi1.apply_own_operator(0.5, 0.5),
                                               rel=1e-12)
        assert system.A[0, 1] == pytest.approx(-psi2.evaluate(0.5, 0.5) / nu,
                                               rel=1e-12)
        assert system.A[1, 1] == pytest.approx(psi2.apply_own_operator(0.5, 0.5),
                                               rel=1e-12)

    @pytest.mark.parametrize("layout", ["grid", "jittered"])
    def test_entries_match_basis_functions(self, layout, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        nodes = node_layout(layout, 2)
        system = rk.assemble(hom, nodes, unit_kernels)
        K1, K2 = unit_kernels
        n = len(nodes)
        nu = hom.base.nu
        for j in range(n):
            psi1 = BasisFunction(tuple(nodes.nodes[j]), BasisKind.STATE, K1)
            psi2 = BasisFunction(tuple(nodes.nodes[j]), BasisKind.ADJOINT, K2)
            for i in range(n):
                xi, ti = nodes.nodes[i]
                assert system.A[n + i, j] == pytest.approx(
                    psi1.evaluate(xi, ti), rel=1e-11, abs=1e-13)
                assert system.A[i, j] == pytest.approx(
                    psi1.apply_own_operator(xi, ti), rel=1e-11, abs=1e-13)
                assert system.A[i, n + j] == pytest.approx(
                    -psi2.evaluate(xi, ti) / nu, rel=1e-11, abs=1e-13)
                assert system.A[n + i, n + j] == pytest.approx(
                    psi2.apply_own_operator(xi, ti), rel=1e-11, abs=1e-13)

    def test_zero_data_gives_zero_solution(self, unit_kernels):
        zero = lambda *args: 0.0 * sum(np.asarray(a, dtype=float) for a in args)
        problem = rk.ControlProblem(a=0.0, b=1.0, T=1.0, nu=1e-2,
                                    y_d=zero,
                                    h1=lambda t: 0.0 * np.asarray(t, dtype=float),
                                    h2=lambda t: 0.0 * np.asarray(t, dtype=float),
                                    y0=lambda x: 0.0 * np.asarray(x, dtype=float))
        hom = rk.homogenize(problem)
        nodes = rk.generate_nodes(3, 3, UNIT)
        system = rk.assemble(hom, nodes, unit_kernels)
        assert np.allclose(system.C, 0.0, atol=1e-14)
        sol = rk.solve(system)
        assert np.allclose(sol.b1, 0.0, atol=1e-12)
        assert np.allclose(sol.b2, 0.0, atol=1e-12)
        # every row's backward-error ratio is 0 / 0, reported as 0
        assert sol.info["solver"]["backward_error"] == 0.0

    def test_domain_mismatch(self, ex1_case):
        _, _, hom = ex1_case
        bad = rk.standard_kernels((0.0, 2.0), 1.0)
        with pytest.raises(rk.KernelDomainMismatch):
            rk.assemble(hom, rk.generate_nodes(2, 2, UNIT), bad)

    def test_footprint_over_physical_memory_refused(self, ex1_case, unit_kernels,
                                                    monkeypatch):
        _, _, hom = ex1_case
        nodes = rk.generate_nodes(24, 24, UNIT)      # |A| = 1152^2 * 8 B = 10.1 MB
        monkeypatch.setattr(collocation, "_physical_memory", lambda: 12 * 2 ** 20)
        with pytest.raises(ValueError, match="576 nodes need an estimated 15 MB "
                                             "for the dense 1152x1152 solve, more "
                                             "than the 12 MB of physical memory"):
            rk.assemble(hom, nodes, unit_kernels)

    @pytest.mark.parametrize("layout, per_a", [("grid", 1.5), ("jittered", 2.5)])
    def test_footprint_estimate_per_representation(self, layout, per_a, ex1_case,
                                                   unit_kernels, monkeypatch):
        # the worst path is the direct solve, 1.2 |A| from factor pairs and
        # 2.2 |A| beside a dense A, each with a margin
        _, _, hom = ex1_case
        nodes = node_layout(layout, 2)
        estimate = per_a * 8 ** 2 * 8
        monkeypatch.setattr(collocation, "_physical_memory", lambda: estimate)
        rk.assemble(hom, nodes, unit_kernels)
        monkeypatch.setattr(collocation, "_physical_memory", lambda: estimate - 1)
        with pytest.raises(ValueError, match="physical memory"):
            rk.assemble(hom, nodes, unit_kernels)
        monkeypatch.setattr(collocation, "_physical_memory", lambda: None)
        rk.assemble(hom, nodes, unit_kernels)

    @pytest.mark.parametrize("mode", ["direct", "picard"])
    @pytest.mark.parametrize("dense", [False, True], ids=["tensor", "dense"])
    def test_footprint_estimate_covers_every_solve(self, dense, mode):
        # counting A where it is stored; buffers and vectors add a fixed
        # cost of well under 1 MB
        _, _, _, system, _, _ = solve_example(2, 1e-2, 24, 24)
        size = system.C.size ** 2 * 8
        if dense:
            system = dense_backed(system, system.A)
        tracemalloc.start()
        try:
            (rk.solve if mode == "direct" else rk.solve_picard)(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + dense * size <= collocation._PEAK_PER_A[not dense] * size + 2 ** 20

    @pytest.mark.parametrize("n_x, n_t", [(4, 4), (5, 7), (24, 24)])
    def test_factor_rows_match_gather(self, n_x, n_t, ex1_case, unit_kernels):
        # x-major order is no t-major tensor set, so it takes the gather of
        # the dense path; the same products, summed in the same order, make
        # the same matrix with its rows and columns permuted
        _, _, hom = ex1_case
        nodes = rk.generate_nodes(n_x, n_t, UNIT)
        system = rk.assemble(hom, nodes, unit_kernels)
        permuted, order = x_major(nodes)
        gathered = rk.assemble(hom, permuted, unit_kernels)
        assert system.dense is None and system.factors is not None
        assert gathered.dense is not None and gathered.factors is None
        both = np.concatenate([order, order + len(nodes)])
        A = system.A
        assert np.array_equal(A[np.ix_(both, both)], gathered.A)
        assert np.array_equal(system.C[both], gathered.C)

    @pytest.mark.parametrize("n_x, n_t", [(1, 1), (4, 4), (5, 7), (24, 24)])
    def test_blocks(self, n_x, n_t, ex1_case, unit_kernels):
        # every block in both orders and both forms; A itself is checked
        # against a gather in test_factor_rows_match_gather
        _, _, hom = ex1_case
        system = rk.assemble(hom, rk.generate_nodes(n_x, n_t, UNIT), unit_kernels)
        n, A = n_x * n_t, system.A
        for form in (system, dense_backed(system, A)):
            for p in (0, 1):
                for q in (0, 1):
                    quadrant = A[p * n:p * n + n, q * n:q * n + n]
                    for order in "CF":
                        out = form._block(p, q, np.empty((n, n), order=order))
                        assert np.array_equal(out, quadrant)

    def test_assembly_holds_factor_pairs_only(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        nodes = rk.generate_nodes(24, 24, UNIT)
        tracemalloc.start()
        try:
            system = rk.assemble(hom, nodes, unit_kernels)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 0.05 * system.C.size ** 2 * 8

    def test_heldout_residual_decreases_when_n_doubles(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        maxima = []
        for n in (4, 8):
            nodes = rk.generate_nodes(n, n, UNIT)
            sol = rk.solve(rk.assemble(hom, nodes, unit_kernels))
            xs = 0.5 * (np.arange(1, n + 2) - 0.5) * 2.0 / (n + 1)
            ts = 0.5 * (np.arange(1, n + 2) - 0.5) * 2.0 / (n + 1)
            rf, ra = sol.residuals(xs, ts)
            maxima.append(max(np.abs(rf).max(), np.abs(ra).max()))
        assert maxima[1] < maxima[0]


class TestSolve:
    def test_cramer_single_node(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        system = rk.assemble(hom, rk.generate_nodes(1, 1, UNIT), unit_kernels)
        (a11, a12), (a21, a22) = system.A
        c1, c2 = system.C
        det = a11 * a22 - a12 * a21
        want = np.array([(c1 * a22 - a12 * c2) / det,
                         (a11 * c2 - c1 * a21) / det])
        sol = rk.solve(system)
        assert np.allclose([sol.b1[0], sol.b2[0]], want, rtol=1e-12, atol=1e-15)

    def test_identity_blocks(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        system = rk.assemble(hom, rk.generate_nodes(2, 2, UNIT), unit_kernels)
        system = dense_backed(system, np.eye(8))
        sol = rk.solve(system)
        assert np.allclose(np.concatenate([sol.b1, sol.b2]), system.C,
                           rtol=0, atol=1e-14)

    def test_node_residual_bound(self, ex1_solution_8):
        sol, system = ex1_solution_8
        bound = 1e-8 * (1 + np.abs(system.C).max())
        assert sol.info["residual_max"] <= bound

    def test_conditioning_recorded(self, ex1_solution_8):
        sol, system = ex1_solution_8
        for key in ("pre", "post"):
            assert np.isfinite(sol.info["cond"][key])
            assert sol.info["cond"][key] >= 1.0

    @pytest.mark.parametrize("example_id, nu, layout, n", [
        pytest.param(1, 1e-2, "grid", 8, id="1-8"),
        pytest.param(2, 1e-2, "grid", 16, id="2-16"),
        pytest.param(1, 1e-2, "jittered", 8, id="1-8-jittered"),
        pytest.param(1, 1e-6, "grid", 14, id="1-14-nu1e-6"),
    ])
    def test_cond_estimates_against_exact(self, example_id, nu, layout, n, unit_kernels):
        problem, _ = rk.builtin_example(example_id, nu=nu)
        system = rk.assemble(rk.homogenize(problem), node_layout(layout, n), unit_kernels)
        sol = rk.solve(system)
        exact = np.linalg.cond(system.A, 1)
        for key in ("pre", "post"):
            assert exact / 3 <= sol.info["cond"][key] <= 1.01 * exact

    def test_cond_estimates_repeatable(self, ex1_case, unit_kernels):
        # a threaded BLAS can vary gecon's last bits between calls, rarely
        # and only under load; rounding to 3 digits keeps convergence.csv
        # reruns byte-identical, so check the rounding as well as repeats
        _, _, hom = ex1_case
        system = rk.assemble(hom, rk.generate_nodes(16, 16, UNIT), unit_kernels)
        conds = [rk.solve(system).info["cond"] for _ in range(10)]
        assert all(c == conds[0] for c in conds)
        assert all(float(f"{v:.3g}") == v for v in conds[0].values())

    @pytest.mark.parametrize("example_id, layout, n", [
        pytest.param(1, "grid", 8, id="1-8"),
        pytest.param(2, "grid", 16, id="2-16"),
        pytest.param(1, "jittered", 8, id="1-8-jittered"),
    ])
    def test_matches_two_lu_reference(self, example_id, layout, n, unit_kernels):
        # one LU of A, in place, with every product taken from the system's
        # matvec: on a dense set that is A @ b, so b matches the solve on
        # the whole matrix bitwise; on a tensor set the refinement residual
        # from the factor pairs rounds differently, and the fields agree to
        # the rounding floor of A
        problem, _ = rk.builtin_example(example_id, nu=1e-2)
        system = rk.assemble(rk.homogenize(problem), node_layout(layout, n), unit_kernels)
        sol = rk.solve(system)
        b, db, cond = one_lu_solve(system.A, system.C)
        assert sol.info["cond"] == {"pre": cond, "post": cond}
        if layout == "jittered":
            assert np.array_equal(np.concatenate([sol.b1, sol.b2]), b)
            assert sol.info["solver"]["refinement_change"] == np.abs(db).max() / np.abs(b).max()
            return
        size = len(system.node_set)
        reference = dataclasses.replace(sol, b1=b[:size], b2=b[size:])
        grid = np.linspace(0.0, 1.0, 33)
        for got, want in zip(sol.evaluate_grid(grid, grid)[:2],
                             reference.evaluate_grid(grid, grid)[:2]):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_backward_error(self, ex1_solution_8):
        # componentwise (Oettli-Prager): max_i |Ab - C|_i / (|A||b| + |C|)_i;
        # on a tensor set A b comes from the factor pairs, and the numerator,
        # rounding noise, differs from the dense product's in its last bits
        sol, system = ex1_solution_8
        A, C = system.A, system.C
        for tensor, solution in ((True, sol), (False, rk.solve(dense_backed(system, A)))):
            b = np.concatenate([solution.b1, solution.b2])
            want = (np.abs(A @ b - C) / (np.abs(A) @ np.abs(b) + np.abs(C))).max()
            got = solution.info["solver"]["backward_error"]
            assert abs(got - want) <= 1e-15 if tensor else got == want
            assert got < 1e-15

    def test_one_build_of_a_per_solve(self, ex1_case, unit_kernels, monkeypatch):
        # the fill of A; the residuals and |A||b| come from the factor pairs
        _, _, hom = ex1_case
        system = rk.assemble(hom, rk.generate_nodes(6, 5, UNIT), unit_kernels)
        built = []
        block = collocation._KroneckerBlocks.block

        def counting(self, p, q, out):
            built.append((p, q))
            return block(self, p, q, out)

        monkeypatch.setattr(collocation._KroneckerBlocks, "block", counting)
        rk.solve(system)
        assert sorted(built) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("example_id, nu, layout, n_x, n_t", [
        pytest.param(1, 1e-2, "grid", 4, 4, id="4x4"),
        pytest.param(1, 1e-2, "grid", 5, 7, id="5x7"),
        pytest.param(1, 1e-6, "grid", 14, 14, id="14x14-nu1e-6"),
        pytest.param(1, 1e-2, "jittered", 6, 6, id="jittered"),
    ])
    def test_matvec_matches_dense(self, example_id, nu, layout, n_x, n_t, rng):
        problem, _ = rk.builtin_example(example_id, nu=nu)
        nodes = (rk.generate_nodes(n_x, n_t, UNIT) if layout == "grid"
                 else node_layout(layout, n_x))
        system = rk.assemble(rk.homogenize(problem), nodes, rk.standard_kernels(*UNIT))
        assert (system.dense is None) == (layout == "grid")
        A = system.A
        b = rng.standard_normal(len(system.C))
        bound = 1e-15 * (np.abs(A) @ np.abs(b))
        assert np.all(np.abs(system.matvec(b) - A @ b) <= bound)
        assert np.all(np.abs(system.matvec(b, absolute=True) - np.abs(A) @ np.abs(b)) <= bound)

    def test_one_lu_per_solve(self, ex1_solution_8, monkeypatch):
        _, system = ex1_solution_8
        calls = []
        lu_factor = scipy.linalg.lu_factor

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return lu_factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
        rk.solve(system)
        assert calls == [system.A.shape]

    @pytest.mark.parametrize("mode", ["direct", "picard"])
    @pytest.mark.parametrize("layout", ["grid", "jittered"])
    def test_pieces_solved_once_per_kernel(self, layout, mode, ex1_case, unit_kernels,
                                           monkeypatch):
        # state and adjoint share the spatial kernel and the coordinates,
        # and the solution evaluates through the system's trial spaces:
        # one spatial and two temporal solves, none after assembly
        _, _, hom = ex1_case
        calls = []
        pieces = rk.Kernel1D.pieces

        def counting(kernel, ys, max_dy=2):
            calls.append(kernel)
            return pieces(kernel, ys, max_dy)

        monkeypatch.setattr(rk.Kernel1D, "pieces", counting)
        system = rk.assemble(hom, node_layout(layout, 6), unit_kernels)
        K1, K2 = unit_kernels
        assert calls == [K1.spatial, K1.temporal, K2.temporal]
        sol = rk.solve(system) if mode == "direct" else rk.solve_picard(system)[0]
        rk.evaluate(sol, 0.3, 0.7)
        sol.evaluate_grid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4))
        assert len(calls) == 3

    def test_extra_memory_below_one_and_a_third_matrices(self):
        # A, factored in place, plus a block of columns or lu_factor's
        # finiteness mask; a second LU, an LU copy or a dense A beside it
        # makes it 2 |A|
        _, _, _, system, _, _ = solve_example(2, 1e-2, 24, 24)
        tracemalloc.start()
        try:
            rk.solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * system.A.nbytes

    def test_picard_memory_below_one_and_a_tenth_matrices(self):
        # the four n x n blocks, the diagonal ones factored in place, plus
        # lu_factor's finiteness mask; a whole A beside them makes it 1.5 |A|
        _, _, _, system, _, _ = solve_example(2, 1e-2, 24, 24)
        tracemalloc.start()
        try:
            rk.solve_picard(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * system.C.size ** 2 * 8

    def test_assemble_and_solve_below_one_and_a_third_matrices(self):
        # counting everything: the factor pairs, then A and a block of columns
        problem, _ = rk.builtin_example(2, nu=1e-2)
        hom = rk.homogenize(problem)
        kernels = rk.standard_kernels(problem.interval, problem.T)
        nodes = rk.generate_nodes(32, 32, (problem.interval, problem.T))
        tracemalloc.start()
        try:
            rk.solve(rk.assemble(hom, nodes, kernels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 2048 ** 2 * 8

    def test_system_unchanged(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        system = rk.assemble(hom, rk.generate_nodes(4, 4, UNIT), unit_kernels)
        A, C = system.A.copy(), system.C.copy()
        rk.solve(system)
        assert np.array_equal(system.A, A) and np.array_equal(system.C, C)

    def test_zero_row_raises(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        system = rk.assemble(hom, rk.generate_nodes(2, 2, UNIT), unit_kernels)
        system = dense_backed(system, np.zeros_like(system.A))
        with pytest.raises(rk.NumericallySingular):
            rk.solve(system)

    def test_singular_matrix_raises(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        system = rk.assemble(hom, rk.generate_nodes(2, 2, UNIT), unit_kernels)
        A = system.A.copy()
        A[3] = A[2]                      # exact rank deficiency
        system = dense_backed(system, A)
        with pytest.raises(rk.NumericallySingular):
            rk.solve(system)

    def test_determinism_bitwise(self, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        runs = []
        for _ in range(2):
            nodes = rk.generate_nodes(6, 6, UNIT)
            system = rk.assemble(hom, nodes, unit_kernels)
            sol = rk.solve(system)
            runs.append(np.concatenate([sol.b1, sol.b2]))
        assert np.array_equal(runs[0], runs[1])


class TestEvaluate:
    def test_boundary_and_initial_exactness(self, ex1_solution_8, rng):
        sol, _ = ex1_solution_8
        for _ in range(100):
            which = rng.integers(0, 4)
            if which == 0:
                pt = (0.0, float(rng.uniform(0, 1)))
            elif which == 1:
                pt = (1.0, float(rng.uniform(0, 1)))
            elif which == 2:
                pt = (float(rng.uniform(0, 1)), 0.0)
            else:
                pt = (float(rng.uniform(0, 1)), 1.0)
            y, p, u = rk.evaluate(sol, *pt)
            if which in (0, 1):
                assert abs(y) <= 1e-10          # zero Dirichlet data
                assert abs(p) <= 1e-10          # adjoint spatial factor
            if which == 2:
                assert abs(y) <= 1e-10          # zero initial data
            if which == 3:
                assert abs(p) <= 1e-10          # adjoint terminal condition
            assert u == pytest.approx(p / 1e-2, rel=1e-15, abs=1e-300)

    def test_out_of_domain(self, ex1_solution_8):
        sol, _ = ex1_solution_8
        with pytest.raises(rk.OutOfDomain):
            rk.evaluate(sol, 1.2, 0.5)
        with pytest.raises(rk.OutOfDomain):
            sol.evaluate_grid(np.array([0.5]), np.array([-0.2]))

    @pytest.mark.parametrize("layout", ["grid", "jittered"])
    def test_point_is_a_one_by_one_grid(self, layout, ex1_case, unit_kernels):
        # at the rectangle's corners and 46 seeded points, bitwise
        _, _, hom = ex1_case
        sol = rk.solve(rk.assemble(hom, node_layout(layout, 8), unit_kernels))
        points = np.vstack([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
                            np.random.default_rng(11).uniform(0.0, 1.0, (46, 2))])
        for x, t in points:
            got = rk.evaluate(sol, x, t)
            assert all(type(v) is float for v in got)
            assert got == tuple(v[0, 0] for v in sol.evaluate_grid([x], [t]))

    @pytest.mark.parametrize("x, t", [([0.5], 0.5), (0.5, np.array([0.2, 0.3])),
                                      (np.array([[0.5]]), 0.5)])
    def test_non_scalar_point_raises(self, x, t, ex1_solution_8):
        with pytest.raises(ValueError, match="scalars"):
            rk.evaluate(ex1_solution_8[0], x, t)

    @pytest.mark.parametrize("layout", ["grid", "jittered"])
    def test_grid_matches_pointwise(self, layout, ex1_case, unit_kernels):
        _, _, hom = ex1_case
        sol = rk.solve(rk.assemble(hom, node_layout(layout, 8), unit_kernels))
        xs = np.array([0.2, 0.7])
        ts = np.array([0.3, 0.9])
        Y, P, U = sol.evaluate_grid(xs, ts)
        K1, K2 = unit_kernels
        psi = [(BasisFunction(tuple(c), BasisKind.STATE, K1),
                BasisFunction(tuple(c), BasisKind.ADJOINT, K2)) for c in sol.node_set.nodes]
        # The grid path and the oracle sum the series in a different order,
        # so only summation rounding may differ.
        for j, t in enumerate(ts):
            for i, x in enumerate(xs):
                y1, p1, u1 = rk.evaluate(sol, x, t)
                y_ref = sum(b * f.evaluate(x, t) for b, (f, _) in zip(sol.b1, psi))
                p_ref = sum(b * g.evaluate(x, t) for b, (_, g) in zip(sol.b2, psi))
                assert y1 == pytest.approx(y_ref, rel=1e-10, abs=1e-14)
                assert p1 == pytest.approx(p_ref, rel=1e-10, abs=1e-14)
                assert Y[j, i] == pytest.approx(y1, rel=1e-10, abs=1e-14)
                assert P[j, i] == pytest.approx(p1, rel=1e-10, abs=1e-14)
                assert U[j, i] == pytest.approx(u1, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("layout", ["grid", "jittered"])
    def test_residuals_match_residual_functions(self, layout, unit_kernels):
        # non-zero boundary and initial data, so that y_hat and G1 enter
        problem = rk.ControlProblem(a=0.0, b=1.0, T=1.0, nu=1e-2,
                                    y_d=lambda x, t: np.cos(x + t), h1=np.sin,
                                    h2=lambda t: np.asarray(t, dtype=float) ** 2,
                                    y0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)))
        hom = rk.homogenize(problem)
        sol = rk.solve(rk.assemble(hom, node_layout(layout, 6), unit_kernels))
        K1, K2 = unit_kernels

        def series(coefs, kind, kernel):
            # the truncated series with exact partials, one trial function at a time
            psi = [BasisFunction(tuple(c), kind, kernel) for c in sol.node_set.nodes]

            def partial(dx, dt):
                return lambda x, t: sum(b * f.evaluate(x, t, dx, dt) for b, f in zip(coefs, psi))
            return rk.ScalarField(partial(0, 0), {(0, 1): partial(0, 1), (2, 0): partial(2, 0)})

        y = series(sol.b1, BasisKind.STATE, K1)
        p = series(sol.b2, BasisKind.ADJOINT, K2)
        xs = np.array([0.05, 0.31, 0.62, 0.97])
        ts = np.array([0.02, 0.45, 0.88])
        X, T = np.meshgrid(xs, ts)
        forward, adjoint = sol.residuals(xs, ts)
        assert forward.shape == adjoint.shape == X.shape
        np.testing.assert_allclose(forward, rk.residual_forward(y, p, hom, (X, T)), rtol=1e-10)
        np.testing.assert_allclose(adjoint, rk.residual_adjoint(y, p, hom, (X, T)), rtol=1e-10)


    def test_residuals_build_each_kernel_matrix_once(self, monkeypatch):
        # the value and operator grids of both fields share the spatial
        # kernel and their own temporal kernel: 12 distinct 1-D matrices
        _, _, _, _, sol, _ = solve_example(2, 1e-2, 8, 8)
        xs, ts = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)
        state, adjoint = sol.spaces
        nu = sol.hom.base.nu
        X, T = np.meshgrid(xs, ts)
        forward = state.grid(sol.b1, xs, ts, collocation.L1) - (
            adjoint.grid(sol.b2, xs, ts) / nu + sol.hom.G1(X, T))
        adjoint_r = adjoint.grid(sol.b2, xs, ts, collocation.L2) - (
            sol.hom.base.y_d(X, T) - (state.grid(sol.b1, xs, ts) + sol.hom.y_hat(X, T)))
        calls = []
        kernel_matrix = collocation.kernel_matrix

        def counting(kernel, xs, ys, dx=0, dy=0, **kw):
            calls.append((kernel, dx, dy))
            return kernel_matrix(kernel, xs, ys, dx, dy, **kw)

        monkeypatch.setattr(collocation, "kernel_matrix", counting)
        got = sol.residuals(xs, ts)
        assert len(calls) == len(set(calls)) == 12
        assert np.array_equal(got[0], forward) and np.array_equal(got[1], adjoint_r)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda sol: rk.evaluate(sol, np.nan, 0.5), rk.OutOfDomain, id="evaluate"),
    pytest.param(lambda sol: sol.evaluate_grid([0.2, np.nan], [0.5]), rk.OutOfDomain,
                 id="evaluate_grid"),
    pytest.param(lambda sol: sol.residuals([0.5], [0.2, np.nan]), rk.OutOfDomain,
                 id="residuals"),
    pytest.param(lambda sol: rk.kernel_matrix(sol.kernels[0].spatial, [np.nan], [0.5]),
                 rk.OutOfDomain, id="kernel_matrix"),
    pytest.param(lambda sol: rk.NodeSet(nodes=np.array([[0.5, 0.5], [np.nan, 0.5]]),
                                        generation={}), ValueError, id="NodeSet"),
])
def test_non_finite_coordinate_raises(call, error, ex1_solution_8):
    # every comparison with NaN is False, so a check written as "x < a or
    # x > b" lets it through to a NaN result or a LAPACK argument error
    with pytest.raises(error):
        call(ex1_solution_8[0])


class TestErrorNorms:
    def test_zero_for_exact_reproduction(self, ex1_case):
        _, exact, hom = ex1_case

        class ExactStub:
            def __init__(self):
                self.hom = hom

            def evaluate_grid(self, xs, ts):
                X, T = np.meshgrid(xs, ts)
                return (np.asarray(exact.y_exact(X, T), dtype=float),
                        np.asarray(exact.p_exact(X, T), dtype=float),
                        np.asarray(exact.u_exact(X, T), dtype=float))

        norms = rk.error_norms(ExactStub(), exact)
        assert all(v == 0.0 for v in norms.values())

    def test_norm_inequality(self, ex1_solution_8, ex1_case):
        _, exact, _ = ex1_case
        sol, _ = ex1_solution_8
        norms = rk.error_norms(sol, exact)
        # unit-measure rectangle: the L2 norm cannot exceed the sup norm
        assert norms["l2_y"] <= norms["linf_y"] + 1e-15
        assert norms["l2_p"] <= norms["linf_p"] + 1e-15

    def test_linf_y_shrinks_from_8_to_16(self, ex1_case, unit_kernels):
        problem, exact, hom = ex1_case
        values = {}
        for n in (8, 16):
            nodes = rk.generate_nodes(n, n, UNIT)
            sol = rk.solve(rk.assemble(hom, nodes, unit_kernels))
            values[n] = rk.error_norms(sol, exact)["linf_y"]
        assert values[16] < values[8]


class TestPicard:
    def test_agrees_at_weak_coupling(self):
        _, _, _, system, direct, _ = solve_example(1, 0.1, 8, 8)
        pic, info = rk.solve_picard(system)
        assert info.converged
        assert info.iterations < 200
        diff = max(np.abs(pic.b1 - direct.b1).max(),
                   np.abs(pic.b2 - direct.b2).max())
        assert diff <= 1e-8

    def test_reports_nonconvergence_within_budget(self, ex1_solution_8):
        _, system = ex1_solution_8
        _, info = rk.solve_picard(system)   # nu = 1e-2: contraction ~0.98
        assert not info.converged
        assert info.iterations == info.max_iter == 200
        assert np.isfinite(info.last_change)

    def test_divergence_raises_at_the_overflowing_sweep(self):
        # at nu = 1e-6 the iterate grows without bound; the sweep that
        # overflows raises, where a warning (an error here) came first
        with pytest.raises(rk.NumericallySingular, match=r"sweep \d+ of 200 overflowed"):
            solve_example(1, 1e-6, 8, 8, mode="picard")

    def test_builds_no_whole_matrix(self, ex1_solution_8, monkeypatch):
        _, system = ex1_solution_8
        assert system.dense is None

        def whole(self):
            raise AssertionError("solve_picard read CollocationSystem.A")

        monkeypatch.setattr(rk.CollocationSystem, "A", property(whole))
        _, info = rk.solve_picard(system, max_iter=5)
        assert info.iterations == 5

    def test_sweeps_equal_lu_solve(self, ex1_solution_8):
        # the sweeps call LAPACK getrs directly; lu_solve gives the same bits
        _, system = ex1_solution_8
        pic, info = rk.solve_picard(system, tol=1e-11, max_iter=6000)
        n = len(system.node_set)
        A, C = system.A, system.C
        lu1 = scipy.linalg.lu_factor(A[:n, :n])
        lu2 = scipy.linalg.lu_factor(A[n:, n:])
        b1, b2 = np.zeros(n), np.zeros(n)
        for _ in range(info.iterations):
            b1, b2 = (scipy.linalg.lu_solve(lu1, C[:n] - A[:n, n:] @ b2),
                      scipy.linalg.lu_solve(lu2, C[n:] - A[n:, :n] @ b1))
        assert np.array_equal(pic.b1, b1)
        assert np.array_equal(pic.b2, b2)

    def test_converges_with_extended_budget(self, ex1_solution_8):
        direct, system = ex1_solution_8
        pic, info = rk.solve_picard(system, tol=1e-11, max_iter=6000)
        assert info.converged
        diff = max(np.abs(pic.b1 - direct.b1).max(),
                   np.abs(pic.b2 - direct.b2).max())
        assert diff <= 1e-8
