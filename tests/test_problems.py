import numpy as np
import pytest

import rkheat as rk
from oracles import sample_grid


def zero_t(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def zero_x(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def make_problem(**kw):
    base = dict(a=0.0, b=1.0, T=1.0, nu=1e-2,
                y_d=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
                h1=zero_t, h2=zero_t, y0=zero_x)
    base.update(kw)
    return rk.ControlProblem(**base)


class TestControlProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem(a=1.0, b=0.0)
        with pytest.raises(ValueError):
            make_problem(T=-1.0)
        with pytest.raises(ValueError):
            make_problem(nu=0.0)

    def test_nu_whose_reciprocal_overflows_rejected(self):
        # -1/nu is -inf below 1/float_info.max ~ 5.6e-309; a built-in
        # example fails when it is built, before either solver runs
        with pytest.raises(ValueError, match="nu = 1e-309 is too small: -1/nu overflows"):
            rk.builtin_example(2, nu=1e-309)

    @pytest.mark.parametrize("nu", [1e-309, np.float64(5e-324)], ids=["float", "numpy"])
    def test_overflowing_reciprocal_rejected_without_warning(self, nu):
        with pytest.raises(ValueError, match="is too small: -1/nu overflows"):
            make_problem(nu=nu)

    def test_smallest_nu_with_finite_reciprocal_accepted(self):
        assert make_problem(nu=1e-308).nu == 1e-308

    @pytest.mark.parametrize("name", ["a", "b", "T", "nu"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_nonfinite_parameter_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_problem(**{name: value})

    def test_corner_mismatch_warns(self):
        with pytest.warns(UserWarning):
            make_problem(y0=lambda x: np.ones_like(np.asarray(x, dtype=float)))


class TestHomogenize:
    def test_zero_data(self):
        hom = rk.homogenize(make_problem())
        for f in (hom.Y, hom.y_hat, hom.G1):
            assert abs(float(np.max(np.abs(f(np.linspace(0, 1, 5),
                                             np.linspace(0, 1, 5)))))) <= 1e-12

    def test_linear_boundary_trace(self):
        # h1(t) = t, h2 = 0, y0 = 0 on [0,1]: the interpolant is (1-x)t.
        hom = rk.homogenize(make_problem(h1=lambda t: np.asarray(t, dtype=float)))
        xs = np.linspace(0.0, 1.0, 7)
        ts = np.linspace(0.0, 1.0, 7)
        X, T = np.meshgrid(xs, ts)
        assert np.allclose(hom.Y(X, T), (1 - X) * T, atol=1e-12)
        assert np.allclose(hom.y_hat(X, T), (1 - X) * T, atol=1e-12)
        assert np.allclose(hom.G1(X, T), 1 - X, atol=1e-6)

    def test_constant_data(self):
        c = 0.7
        hom = rk.homogenize(make_problem(
            h1=lambda t: c + 0.0 * np.asarray(t, dtype=float),
            h2=lambda t: c + 0.0 * np.asarray(t, dtype=float),
            y0=lambda x: c + 0.0 * np.asarray(x, dtype=float)))
        xs = np.linspace(0.0, 1.0, 5)
        ts = np.linspace(0.0, 1.0, 5)
        X, T = np.meshgrid(xs, ts)
        assert np.allclose(hom.Y(X, T), c, atol=1e-12)
        assert np.allclose(hom.y_hat(X, T), c, atol=1e-12)
        assert np.allclose(hom.G1(X, T), 0.0, atol=1e-6)

    def test_reconstruction_recovers_data(self):
        # Corner-consistent data: y0(0) = h1(0) and y0(1) = h2(0).
        prob = make_problem(h1=lambda t: np.sin(np.asarray(t, dtype=float)),
                            h2=lambda t: np.asarray(t, dtype=float) ** 2,
                            y0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)))
        hom = rk.homogenize(prob)
        ts = np.linspace(0.0, 1.0, 9)
        assert np.allclose(hom.y_hat(0.0, ts), prob.h1(ts), atol=1e-12)
        assert np.allclose(hom.y_hat(1.0, ts), prob.h2(ts), atol=1e-12)
        xs = np.linspace(0.0, 1.0, 9)
        assert np.allclose(hom.y_hat(xs, 0.0), prob.y0(xs), atol=1e-12)

    def test_nondifferentiable_data_rejected(self):
        with pytest.warns(UserWarning):   # corner mismatch of the probe data
            prob = make_problem(y0=lambda x: np.abs(np.asarray(x, dtype=float) - 0.5))
        with pytest.raises(rk.NonDifferentiableData):
            rk.homogenize(prob)


class TestBuiltinExamples:
    def test_unknown_example(self):
        with pytest.raises(rk.UnknownExample):
            rk.builtin_example(4)

    def test_example1_value_pins(self):
        _, exact = rk.builtin_example(1, nu=1e-6)
        assert exact.y_exact(0.5, 0.5) == pytest.approx(-0.0078125, abs=1e-15)
        assert exact.p_exact(0.5, 0.5) == pytest.approx(1e-6 * 0.046875, rel=1e-12)
        assert exact.u_exact(0.5, 0.5) == pytest.approx(0.046875, rel=1e-12)

    # the printed pairs; each p is nu (-y_t + y_xx) of its y
    PRINTED = {
        1: (lambda x, t, nu: t ** 2 * (1 - t) ** 3 * x * (x - 1),
            lambda x, t, nu: nu * ((2 * t * (t - 1) ** 3 + 3 * t ** 2 * (t - 1) ** 2)
                                   * x * (x - 1) - 2 * t ** 2 * (t - 1) ** 3)),
        2: (lambda x, t, nu: t ** 2 * (t - 1) ** 2 * (t - 2) ** 2 * np.sin(np.pi * x),
            lambda x, t, nu: nu * (-2 * t * (t - 1) * (t - 2) * (3 * t ** 2 - 6 * t + 2)
                                   - np.pi ** 2 * t ** 2 * (t - 1) ** 2 * (t - 2) ** 2)
            * np.sin(np.pi * x)),
        3: (lambda x, t, nu: t ** 3 * (1 - t) ** 3 * (1 - np.cos(2 * np.pi * x)),
            lambda x, t, nu: nu * (-3 * t ** 2 * (1 - t) ** 2 * (1 - 2 * t)
                                   * (1 - np.cos(2 * np.pi * x))
                                   + 4 * np.pi ** 2 * t ** 3 * (1 - t) ** 3
                                   * np.cos(2 * np.pi * x))),
    }

    @pytest.mark.parametrize("nu", [1e-2, 1e-6])
    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_pairs_match_printed_closed_forms(self, example_id, nu, rng):
        # g(t) is summed from its monomial coefficients, which cancel near
        # its multiple roots: up to 2.7e-14 of the field's largest value
        _, exact = rk.builtin_example(example_id, nu=nu)
        x, t = rng.uniform(0.0, 1.0, (2, 500))
        for field, printed in zip((exact.y_exact, exact.p_exact), self.PRINTED[example_id]):
            want = printed(x, t, nu)
            assert np.abs(field(x, t) - want).max() <= 5e-14 * np.abs(want).max()

    def test_partials_take_the_broadcast_shape(self):
        X, T = np.meshgrid(np.linspace(0.0, 1.0, 37), np.linspace(0.0, 1.0, 23))
        xr, tr = np.random.default_rng(5).uniform(0.0, 1.0, (2, 50))
        inputs = [(X, T), (X.T, T.T), (X[::2, ::3], T[::2, ::3]),
                  (X, np.broadcast_to(T[:, :1], X.shape)), (xr, tr), (X[0], 0.3),
                  (0.4, T[:, 0]), (xr, np.float64(0.3)), (X[:, :0], T[:, :0]),
                  (np.float64(0.4), np.float64(0.3)), (0.4, 0.3)]
        for example_id in (1, 2, 3):
            _, exact = rk.builtin_example(example_id, nu=1e-2)
            for field in (exact.y_exact, exact.p_exact):
                for x, t in inputs:
                    shape = np.broadcast_shapes(np.shape(x), np.shape(t))
                    for dx in range(3):
                        for dt in range(3):
                            got = field.partial(x, t, dx, dt)
                            assert np.shape(got) == shape, (example_id, dx, dt)

    def test_example1_state_vanishes_at_time_ends(self):
        _, exact = rk.builtin_example(1, nu=1e-2)
        xs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(exact.y_exact(xs, 0.0), 0.0, atol=1e-15)
        assert np.allclose(exact.y_exact(xs, 1.0), 0.0, atol=1e-15)

    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_boundary_and_terminal_data(self, example_id):
        problem, exact = rk.builtin_example(example_id, nu=1e-2)
        ts = np.linspace(0.0, 1.0, 50)
        xs = np.linspace(0.0, 1.0, 50)
        assert np.max(np.abs(exact.y_exact(0.0, ts))) <= 1e-12
        assert np.max(np.abs(exact.y_exact(1.0, ts))) <= 1e-12
        assert np.max(np.abs(exact.y_exact(xs, 0.0))) <= 1e-12
        assert np.max(np.abs(exact.p_exact(xs, 1.0))) <= 1e-12

    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_gradient_identity(self, example_id, rng):
        _, exact = rk.builtin_example(example_id, nu=1e-2)
        xs = rng.uniform(0.0, 1.0, size=20)
        ts = rng.uniform(0.0, 1.0, size=20)
        assert np.allclose(exact.u_exact(xs, ts),
                           np.asarray(exact.p_exact(xs, ts)) / 1e-2,
                           rtol=1e-13, atol=1e-300)

    def test_partials_match_finite_differences(self):
        # every partial of order <= 2 in x and in t is exact; probe each
        # against nested central differences of the plain values
        def central(f, x, t, dx, dt, h=1e-3):
            if dx:
                return (central(f, x + h, t, dx - 1, dt)
                        - central(f, x - h, t, dx - 1, dt)) / (2 * h)
            if dt:
                return (central(f, x, t + h, 0, dt - 1)
                        - central(f, x, t - h, 0, dt - 1)) / (2 * h)
            return f(x, t)

        x, t = np.random.default_rng(3).uniform(0.1, 0.9, (2, 20))
        for example_id in (1, 2, 3):
            _, exact = rk.builtin_example(example_id, nu=1e-2)
            for f in (exact.y_exact, exact.p_exact):
                for dx in range(3):
                    for dt in range(3):
                        if (dx, dt) == (0, 0):
                            continue
                        got = f.partial(x, t, dx, dt)
                        # measured worst: 5e-5 of the partial's largest value
                        assert (np.abs(got - central(f, x, t, dx, dt)).max()
                                <= 1e-3 * np.abs(got).max()), (example_id, dx, dt)


class TestScalarField:
    def test_partial_without_closure_raises(self):
        field = rk.ScalarField(lambda x, t: x * t)
        assert field.partial(0.4, 0.6) == pytest.approx(0.24)
        for dx in range(3):
            for dt in range(3):
                if (dx, dt) != (0, 0):
                    with pytest.raises(rk.NonDifferentiableData,
                                       match=rf"\({dx}, {dt}\)"):
                        field.partial(0.4, 0.6, dx, dt)


class TestDeriveYd:
    def test_zero_solution(self):
        def zero(x, t):
            return 0.0 * np.asarray(x) * np.asarray(t)
        field = rk.ScalarField(zero, {(0, 1): zero, (2, 0): zero})
        exact = rk.ExactSolution(y_exact=field, p_exact=field, u_exact=zero)
        y_d = rk.derive_yd(exact)
        assert abs(float(y_d(0.4, 0.6))) <= 1e-12

    def test_example1_regression_pin(self):
        # Independent symbolic computation gives -62501/8000000 at the
        # midpoint for nu = 1e-6.
        problem, exact = rk.builtin_example(1, nu=1e-6)
        assert float(problem.y_d(0.5, 0.5)) == pytest.approx(
            -62501.0 / 8000000.0, rel=1e-12)

    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_adjoint_round_trip(self, example_id):
        problem, exact = rk.builtin_example(example_id, nu=1e-2)
        hom = rk.homogenize(problem)
        xs = np.linspace(0.05, 0.95, 30)
        ts = np.linspace(0.05, 0.95, 30)
        X, T = np.meshgrid(xs, ts)
        res = rk.residual_adjoint(exact.y_exact, exact.p_exact, hom, (X, T))
        assert np.max(np.abs(res)) <= 1e-9


class TestConsistencyReport:
    def test_example2_fully_consistent(self):
        problem, exact = rk.builtin_example(2, nu=1e-2)
        rep = rk.check_exact_consistency(exact, problem)
        assert rep["forward_residual_max"] <= 1e-9
        assert max(rep["p_trace_a"], rep["p_trace_b"], rep["p_trace_T"]) <= 1e-12

    @pytest.mark.parametrize("example_id", [1, 3])
    def test_examples_1_3_lateral_adjoint_defect(self, example_id):
        # The closed-form adjoints of these two pairs do not vanish on the
        # lateral boundary; the forward equation still holds exactly in the
        # interior.  The defect scales with nu and caps how closely any
        # solver with an admissible adjoint can match the printed pair.
        problem, exact = rk.builtin_example(example_id, nu=1e-2)
        rep = rk.check_exact_consistency(exact, problem)
        assert rep["forward_residual_max"] <= 1e-9
        assert max(rep["p_trace_a"], rep["p_trace_b"]) > 1e-6
        assert rep["p_trace_T"] <= 1e-12


class TestCostFunctional:
    def grid_fields(self, y_fun, u_fun, n=60):
        grid = rk.SpaceTimeGrid(n_x=n, n_t=n, interval=(0.0, 1.0), horizon=1.0)
        return (sample_grid(grid, y_fun), sample_grid(grid, u_fun))

    def test_perfect_tracking(self):
        prob = make_problem()
        y, u = self.grid_fields(lambda x, t: 0.0 * x * t, lambda x, t: 0.0 * x * t)
        assert rk.cost_functional(y, u, prob) == pytest.approx(0.0, abs=1e-15)

    def test_unit_offset(self):
        prob = make_problem()
        y, u = self.grid_fields(lambda x, t: 1.0 + 0.0 * x * t,
                                lambda x, t: 0.0 * x * t)
        assert rk.cost_functional(y, u, prob) == pytest.approx(0.5, rel=1e-12)

    def test_constant_control(self):
        prob = make_problem(nu=0.5)
        y, u = self.grid_fields(lambda x, t: 0.0 * x * t,
                                lambda x, t: 2.0 + 0.0 * x * t)
        assert rk.cost_functional(y, u, prob) == pytest.approx(1.0, rel=1e-12)

    def test_grid_mismatch(self):
        prob = make_problem()
        y, _ = self.grid_fields(lambda x, t: 0.0 * x * t, lambda x, t: 0.0 * x * t, n=30)
        _, u = self.grid_fields(lambda x, t: 0.0 * x * t, lambda x, t: 0.0 * x * t, n=40)
        with pytest.raises(rk.GridMismatch):
            rk.cost_functional(y, u, prob)
