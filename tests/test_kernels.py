import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

import rkheat as rk
from oracles import (ScalarKernel, admissible_polynomials, inner_product_1d,
                     poly_derivative_table, rank_one_field, tensor_eval,
                     tensor_inner)
from rkheat import kernels

W2_SPEC = rk.SpaceSpec(2, (0.0, 1.0), (("a", 0), ("b", 0)))
W1_SPEC = rk.SpaceSpec(1, (0.0, 1.0), (("a", 0),))
W1P_SPEC = rk.SpaceSpec(1, (0.0, 1.0), (("b", 0),))


class TestSpaceSpec:
    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            rk.SpaceSpec(1, (1.0, 0.0), (("a", 0),))

    def test_duplicate_constraints_rejected(self):
        with pytest.raises(ValueError):
            rk.SpaceSpec(1, (0.0, 1.0), (("a", 0), ("a", 0)))

    def test_too_many_constraints_rejected(self):
        cs = tuple(("a", k) for k in range(3)) + tuple(("b", k) for k in range(2))
        with pytest.raises(ValueError):
            rk.SpaceSpec(1, (0.0, 1.0), cs)

    @pytest.mark.parametrize("order_m", [1.5, 0, True, "2"])
    def test_non_integer_or_small_order_rejected(self, order_m):
        with pytest.raises(ValueError, match="need an integer order_m >= 1"):
            rk.SpaceSpec(order_m, (0.0, 1.0), (("a", 0),))

    def test_numpy_integer_order_accepted(self):
        spec = rk.SpaceSpec(np.int64(2), (0.0, 1.0), W2_SPEC.constraints)
        x = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(rk.build_kernel(spec).eval(x, x),
                              rk.build_kernel(W2_SPEC).eval(x, x))

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
    def test_nonfinite_interval_rejected_before_lapack(self, interval, capfd):
        with pytest.raises(ValueError, match="^interval must be finite"):
            rk.build_kernel(rk.SpaceSpec(2, interval, W2_SPEC.constraints))
        assert capfd.readouterr() == ("", "")


class TestKernelValues:
    def test_boundary_constraints_force_zero(self, kernel_w2):
        assert kernel_w2.eval(0.0, 0.4) == pytest.approx(0.0, abs=1e-14)
        assert kernel_w2.eval(1.0, 0.4) == pytest.approx(0.0, abs=1e-14)

    def test_first_argument_constraint_any_center(self, kernel_w2):
        for y in (0.1, 0.45, 0.8):
            assert abs(kernel_w2.eval(0.0, y)) <= 1e-14

    def test_symmetry_m1(self, kernel_w1):
        assert kernel_w1.eval(0.3, 0.7) == pytest.approx(kernel_w1.eval(0.7, 0.3),
                                                         abs=1e-12)

    def test_symmetry_grid_all_spaces(self, kernel_w2, kernel_w1, kernel_w1p):
        pts = np.linspace(0.02, 0.98, 20)
        for kernel in (kernel_w2, kernel_w1, kernel_w1p):
            K = rk.kernel_matrix(kernel, pts, pts)
            denom = 1.0 + np.abs(K)
            assert (np.abs(K - K.T) / denom).max() <= 1e-10

    def test_out_of_domain_rejected(self, kernel_w1):
        with pytest.raises(rk.OutOfDomain):
            kernel_w1.eval(1.5, 0.3)
        with pytest.raises(rk.OutOfDomain):
            kernel_w1.eval(0.3, -0.1)

    def test_gram_positive_semidefinite(self, kernel_w2, kernel_w1, kernel_w1p, rng):
        for kernel in (kernel_w2, kernel_w1, kernel_w1p):
            pts = np.sort(rng.uniform(0.01, 0.99, size=15))
            G = rk.kernel_matrix(kernel, pts, pts)
            eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
            assert eigs.min() >= -1e-10 * np.trace(G)


class TestDiagonalStructure:
    @pytest.mark.parametrize("spec", [W2_SPEC, W1_SPEC, W1P_SPEC],
                             ids=["w2", "w1", "w1p"])
    def test_continuity_and_jump_at_knot(self, spec):
        kernel = rk.build_kernel(spec)
        m = spec.order_m
        y = 0.37
        eps = 1e-9
        for d in range(2 * m + 1):
            left = kernel.eval(y - eps, y, dx=d)
            right = kernel.eval(y + eps, y, dx=d)
            assert abs(left - right) <= 1e-8 * (1 + abs(left))
        # top-derivative jump: right minus left equals (-1)^(m+1)
        top = 2 * m + 1
        left = kernel.eval(y - eps, y, dx=top)
        right = kernel.eval(y + eps, y, dx=top)
        assert right - left == pytest.approx((-1.0) ** (m + 1), abs=1e-6)

    def test_tie_break_uses_left_piece(self, kernel_w1):
        y = 0.5
        eps = 1e-9
        top = 3
        at = kernel_w1.eval(y, y, dx=top)
        left = kernel_w1.eval(y - eps, y, dx=top)
        assert at == pytest.approx(left, abs=1e-6)


class TestReproducingProperty:
    def test_w2_hand_pin(self, kernel_w2):
        # f(x) = x(1-x) is admissible; <f, k(., 0.3)> must equal f(0.3).
        f = np.polynomial.Polynomial([0.0, 1.0, -1.0])
        val = inner_product_1d(poly_derivative_table(f), kernel_w2, 0.3)
        assert val == pytest.approx(0.21, abs=1e-8)

    @pytest.mark.parametrize("spec", [W2_SPEC, W1_SPEC, W1P_SPEC],
                             ids=["w2", "w1", "w1p"])
    def test_random_polynomials(self, spec, rng):
        kernel = rk.build_kernel(spec)
        polys = admissible_polynomials(spec, 20, rng)
        centers = rng.uniform(0.03, 0.97, size=10)
        worst = 0.0
        for f in polys:
            table = poly_derivative_table(f)
            for y in centers:
                got = inner_product_1d(table, kernel, float(y))
                worst = max(worst, abs(got - f(y)))
        assert worst <= 1e-6

    def test_second_derivative_sampling(self, kernel_w2, rng):
        # The same identity applied to f'' probes the dx=2..3 evaluations
        # that the collocation assembly relies on.
        f = admissible_polynomials(W2_SPEC, 1, rng)[0]
        table = poly_derivative_table(f)
        for y in (0.25, 0.6):
            got = inner_product_1d(table, kernel_w2, y)
            assert abs(got - f(y)) <= 1e-6


class TestTensorKernel:
    def test_product_value(self, unit_kernels):
        K1, _ = unit_kernels
        v = tensor_eval(K1, (0.5, 0.5), (0.5, 0.5))
        want = K1.spatial.eval(0.5, 0.5) * K1.temporal.eval(0.5, 0.5)
        assert v == pytest.approx(want, rel=1e-14)

    def test_spatial_constraint_zero(self, unit_kernels):
        K1, K2 = unit_kernels
        for K in (K1, K2):
            assert abs(tensor_eval(K, (0.0, 0.3), (0.4, 0.6))) <= 1e-14

    def test_swap_symmetry(self, unit_kernels, rng):
        K1, _ = unit_kernels
        for _ in range(5):
            p = tuple(rng.uniform(0.05, 0.95, size=2))
            c = tuple(rng.uniform(0.05, 0.95, size=2))
            assert tensor_eval(K1, p, c) == pytest.approx(
                tensor_eval(K1, c, p), rel=1e-10, abs=1e-12)

    def test_reproducing_pin(self, unit_kernels):
        # g(x,t) = x(1-x) t satisfies every side condition of the state
        # space; its inner product with K at (0.4, 0.6) must be g(0.4, 0.6).
        K1, _ = unit_kernels
        fx = np.polynomial.Polynomial([0.0, 1.0, -1.0])
        gt = np.polynomial.Polynomial([0.0, 1.0])
        val = tensor_inner(rank_one_field(fx, gt), (0.4, 0.6),
                           K1.spatial, K1.temporal)
        assert val == pytest.approx(0.144, abs=1e-6)

    @pytest.mark.parametrize("which", ["state", "adjoint"])
    def test_random_rank_one_fields(self, which, unit_kernels, rng):
        K1, K2 = unit_kernels
        K = K1 if which == "state" else K2
        temp_spec = W1_SPEC if which == "state" else W1P_SPEC
        fxs = admissible_polynomials(W2_SPEC, 20, rng)
        gts = admissible_polynomials(temp_spec, 20, rng)
        worst = 0.0
        for fx, gt in zip(fxs, gts):
            c = (float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)))
            got = tensor_inner(rank_one_field(fx, gt), c, K.spatial, K.temporal)
            worst = max(worst, abs(got - fx(c[0]) * gt(c[1])))
        assert worst <= 1e-6

    def test_domain_mismatch_detected(self, unit_kernels):
        K1, _ = unit_kernels
        with pytest.raises(rk.KernelDomainMismatch):
            K1.require_domain((0.0, 2.0), 1.0)


class TestConditionSystem:
    def test_rank_deficient_constraints_rejected(self):
        # Constraining the top derivative at both ends collides with the
        # natural boundary conditions and leaves the system singular.
        spec = rk.SpaceSpec(1, (0.0, 1.0), (("a", 3), ("b", 3)))
        with pytest.raises(rk.SingularConditionSystem):
            rk.build_kernel(spec)

    def test_derivative_matrices_match_pointwise(self, kernel_w2):
        xs = np.array([0.2, 0.5, 0.9])
        ys = np.array([0.3, 0.7])
        M = rk.kernel_matrix(kernel_w2, xs, ys, 2, 2)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert M[i, j] == pytest.approx(kernel_w2.eval(x, y, 2, 2),
                                                rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dx, dy, name", [(-1, 0, "dx"), (0, -1, "dy"), (1.0, 0, "dx"),
                                              (0, 2.5, "dy"), (0, True, "dy")])
    def test_invalid_derivative_order_rejected(self, kernel_w2, dx, dy, name):
        with pytest.raises(ValueError, match=f"derivative order {name} must be an integer"):
            rk.kernel_matrix(kernel_w2, [0.3], [0.5], dx, dy)
        with pytest.raises(ValueError, match=f"derivative order {name}"):
            kernel_w2.eval(0.3, 0.5, dx, dy)

    def test_orders_beyond_piece_degree_are_exact_zeros(self, kernel_w2):
        # W_2's pieces are quintics in x and in y
        xs, ys = np.linspace(0.0, 1.0, 11), [0.2, 0.5, 0.9]
        for dx, dy in ((6, 0), (0, 6), (0, 7), (1, 9), (7, 7)):
            assert np.array_equal(rk.kernel_matrix(kernel_w2, xs, ys, dx, dy), np.zeros((11, 3)))


class TestBatchedPieces:
    SPACES = [W2_SPEC, dataclasses.replace(W2_SPEC, interval=(100.0, 101.0)),
              dataclasses.replace(W2_SPEC, interval=(0.0, 10.0)),
              dataclasses.replace(W2_SPEC, interval=(0.0, 0.01)), W1_SPEC, W1P_SPEC]

    IDS = ["w2", "w2-100", "w2-10", "w2-0.01", "w1", "w1p"]

    @staticmethod
    def centres(spec, n_random):
        a, b = spec.interval
        rng = np.random.default_rng(7)
        return ([a + (b - a) * (np.arange(n) + 0.5) / n for n in (4, 12, 14, 32)]
                + [np.sort(rng.uniform(a, b, n_random))])

    @pytest.mark.parametrize("spec", SPACES, ids=IDS)
    def test_pieces_bitwise_equal_to_scalar_oracle(self, spec):
        # numpy's array power in place of Python's float ** breaks these
        kernel, oracle = rk.build_kernel(spec), ScalarKernel(spec)
        for ys in self.centres(spec, 256):
            want = np.array([oracle._solve_chain(float(y), 2) for y in ys])
            assert np.array_equal(kernel.pieces(ys), want)

    @pytest.mark.parametrize("spec", SPACES, ids=IDS)
    def test_kernel_matrix_bitwise_equal_to_scalar_oracle(self, spec):
        a, b = spec.interval
        kernel, oracle = rk.build_kernel(spec), ScalarKernel(spec)
        for ys in self.centres(spec, 32):
            pieces = kernel.pieces(ys)
            # the centres, 101 spaced points and a single point, in one call:
            # each entry depends on its own point only
            xs = np.concatenate([ys, np.linspace(a, b, 101), [a + 0.3 * (b - a)]])
            for dx in range(3):
                for dy in range(3):
                    want = oracle.matrix(xs, ys, dx, dy)
                    assert np.array_equal(
                        rk.kernel_matrix(kernel, xs, ys, dx, dy, pieces=pieces), want)
                    if dx == dy:                # pieces solved for dy orders only
                        assert np.array_equal(rk.kernel_matrix(kernel, xs, ys, dx, dy), want)

    def test_singular_centre_raises(self):
        # u'(a) = 0 leaves the constants with zero norm: every centre's
        # matrix is singular, and the first centre is named with its rank
        kernel = kernels.Kernel1D(rk.SpaceSpec(1, (0.0, 1.0), (("a", 1),)))
        with pytest.raises(rk.SingularConditionSystem, match=r"y=0\.3 \(rank 7 of 8\)"):
            kernel.pieces([0.3, 0.6])

    def test_no_per_centre_state(self, kernel_w2):
        centres = np.random.default_rng(3).uniform(0.0, 1.0, 256)
        before = dict(vars(kernel_w2))
        gc.collect()
        tracemalloc.start()
        try:
            rk.kernel_matrix(kernel_w2, centres, centres, 2, 2)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.Filter(True, kernels.__file__)])
        assert sum(stat.size for stat in held.statistics("filename")) < 64 * 1024
        assert vars(kernel_w2).keys() == before.keys()
        assert all(vars(kernel_w2)[key] is value for key, value in before.items())


class TestShiftedIntervals:
    # the condition system and the pieces are written in x - a, so a
    # kernel on [a, b] is the kernel of [0, b - a] at the shifted points
    INTERVALS = [(10.0, 11.0), (100.0, 101.0), (1000.0, 1001.0), (0.0, 0.01), (-1.0, 1.0)]

    @pytest.mark.parametrize("interval", INTERVALS, ids=str)
    @pytest.mark.parametrize("spec", [W2_SPEC, W1_SPEC, W1P_SPEC], ids=["w2", "w1", "w1p"])
    def test_kernel_of_shifted_interval(self, spec, interval, rng):
        a, b = interval
        kernel = rk.build_kernel(rk.SpaceSpec(spec.order_m, interval, spec.constraints))
        local = rk.build_kernel(rk.SpaceSpec(spec.order_m, (0.0, b - a), spec.constraints))
        pts = a + (b - a) * np.linspace(0.0, 1.0, 11)
        for dx in range(3):
            for dy in range(3):
                assert np.array_equal(rk.kernel_matrix(kernel, pts, pts, dx, dy),
                                      rk.kernel_matrix(local, pts - a, pts - a, dx, dy))
        K = rk.kernel_matrix(kernel, pts, pts)
        assert (np.abs(K - K.T) / (1.0 + np.abs(K))).max() <= 1e-10
        if ("a", 0) in spec.constraints:
            assert all(kernel.eval(a, y) == 0.0 for y in pts)
        worst = 0.0
        for f in admissible_polynomials(kernel.spec, 5, rng):
            for y in pts[1:-1:3]:
                got = inner_product_1d(poly_derivative_table(f), kernel, float(y))
                worst = max(worst, abs(got - f(y)) / (1.0 + abs(f(y))))
        assert worst <= 1e-11               # 1e-13 measured on [1000, 1001]

    def test_translated_problem_matches_unit_interval(self):
        # example 2 on [100, 101]: the same error to rounding of the shift
        problem, exact = rk.builtin_example(2, nu=1e-2)
        shift = 100.0
        moved = dataclasses.replace(problem, a=shift, b=shift + 1.0,
                                    y_d=lambda x, t: problem.y_d(x - shift, t))
        moved_exact = rk.ExactSolution(
            *(lambda x, t, f=f: f(x - shift, t)
              for f in (exact.y_exact, exact.p_exact, exact.u_exact)))
        errors = []
        for prob, ref in ((problem, exact), (moved, moved_exact)):
            kernels = rk.standard_kernels(prob.interval, prob.T)
            nodes = rk.generate_nodes(8, 8, (prob.interval, prob.T))
            sol = rk.solve(rk.assemble(rk.homogenize(prob), nodes, kernels))
            errors.append(rk.error_norms(sol, ref)["linf_y"])
        assert errors[1] == pytest.approx(errors[0], rel=1e-10)
