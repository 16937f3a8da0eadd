import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import rkheat as rk
from oracles import fd_sparse_system, fd_unknowns, sample_grid


def unit_grid(n):
    return rk.SpaceTimeGrid(n_x=n, n_t=n, interval=(0.0, 1.0), horizon=1.0)


def zero_problem(nu=1e-2):
    return rk.ControlProblem(
        a=0.0, b=1.0, T=1.0, nu=nu,
        y_d=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
        h1=lambda t: 0.0 * np.asarray(t, dtype=float),
        h2=lambda t: 0.0 * np.asarray(t, dtype=float),
        y0=lambda x: 0.0 * np.asarray(x, dtype=float))


class TestSolveCoupledFD:
    def test_zero_data_exact_zero(self):
        fd = rk.solve_coupled_fd(zero_problem(), unit_grid(12))
        assert np.all(fd.y.values == 0.0)
        assert np.all(fd.p.values == 0.0)
        assert np.all(fd.u.values == 0.0)

    def test_boundary_rows_match_data(self):
        h1 = lambda t: np.sin(np.asarray(t, dtype=float))
        h2 = lambda t: np.asarray(t, dtype=float) ** 2
        y0 = lambda x: np.sin(np.pi * np.asarray(x, dtype=float))
        prob = rk.ControlProblem(
            a=0.0, b=1.0, T=1.0, nu=1e-2,
            y_d=lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(t))),
            h1=h1, h2=h2, y0=y0)
        grid = unit_grid(10)
        fd = rk.solve_coupled_fd(prob, grid)
        assert np.array_equal(fd.y.values[:, 0], h1(grid.ts))
        assert np.array_equal(fd.y.values[:, -1], h2(grid.ts))
        assert np.array_equal(fd.y.values[0, 1:-1], y0(grid.xs[1:-1]))
        # adjoint data: zero lateral and terminal layers
        assert np.all(fd.p.values[:, 0] == 0.0)
        assert np.all(fd.p.values[:, -1] == 0.0)
        assert np.all(fd.p.values[-1] == 0.0)

    def test_gradient_equation_exact_on_grid(self):
        problem, _ = rk.builtin_example(1, nu=1e-2)
        fd = rk.solve_coupled_fd(problem, unit_grid(16))
        assert np.array_equal(fd.u.values, fd.p.values / problem.nu)

    def test_grid_domain_mismatch(self):
        problem, _ = rk.builtin_example(1, nu=1e-2)
        grid = rk.SpaceTimeGrid(n_x=8, n_t=8, interval=(0.0, 2.0), horizon=1.0)
        with pytest.raises(rk.SingularDiscretization):
            rk.solve_coupled_fd(problem, grid)

    def test_example2_halving_ratio(self):
        # Example 2's closed-form pair satisfies every side condition, so
        # the scheme converges to it at second order: halving both steps
        # shrinks the error by about 4.
        problem, exact = rk.builtin_example(2, nu=1e-2)
        errs = []
        for n in (16, 33):                # h -> h/2 means n_x+1 doubling
            fd = rk.solve_coupled_fd(problem, unit_grid(n))
            errs.append(rk.error_vs_exact(fd.y, exact.y_exact)["linf"])
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)

    def test_example1_error_floor(self):
        # The closed-form adjoint of example 1 violates the zero lateral
        # condition by up to 2 nu max t^2(1-t)^3 = nu * 0.06912.  The
        # scheme enforces that condition, so its p error cannot drop below
        # the violation and the y error stalls near 4e-3 instead of
        # converging; refining the grid does not help.
        problem, exact = rk.builtin_example(1, nu=1e-2)
        errs_y, errs_p = [], []
        for n in (32, 64):
            fd = rk.solve_coupled_fd(problem, unit_grid(n))
            errs_y.append(rk.error_vs_exact(fd.y, exact.y_exact)["linf"])
            errs_p.append(rk.error_vs_exact(fd.p, exact.p_exact)["linf"])
        assert errs_y[0] / errs_y[1] < 2.0
        assert all(2e-3 < e < 5e-3 for e in errs_y)
        trace_bound = problem.nu * 0.06912
        assert all(0.9 * trace_bound < e < 1.3 * trace_bound for e in errs_p)


def general_problem(nu, a, b, T):
    """Non-zero target, boundary and initial data, consistent at the corners."""
    def s(x):
        return (np.asarray(x, dtype=float) - a) / (b - a)

    def h1(t):
        return 1.0 + np.sin(3.0 * np.asarray(t, dtype=float) / T)

    def h2(t):
        return 0.5 * np.cos(2.0 * np.asarray(t, dtype=float) / T)

    return rk.ControlProblem(
        a=a, b=b, T=T, nu=nu,
        y_d=lambda x, t: np.cos(np.pi * s(x)) * np.exp(-np.asarray(t, dtype=float) / T),
        h1=h1, h2=h2,
        y0=lambda x: h1(0.0) * (1.0 - s(x)) + h2(0.0) * s(x) + np.sin(np.pi * s(x)))


class TestModeSolve:
    """The sine-mode solve against the whole system assembled as one sparse matrix."""

    @pytest.mark.parametrize("domain", [(0.0, 1.0, 1.0), (100.0, 101.0, 1.0),
                                        (0.0, 10.0, 5.0), (0.0, 0.01, 0.01)], ids=str)
    @pytest.mark.parametrize("nu", [1e-8, 1e-6, 1e-2, 1e2])
    def test_backward_error(self, nu, domain):
        a, b, T = domain
        problem = general_problem(nu, a, b, T)
        grid = rk.SpaceTimeGrid(n_x=40, n_t=23, interval=(a, b), horizon=T)
        A, rhs = fd_sparse_system(problem, grid)
        z = fd_unknowns(rk.solve_coupled_fd(problem, grid))
        norm_A = abs(A).sum(axis=1).max()
        err = (np.abs(A @ z - rhs).max()
               / (norm_A * np.abs(z).max() + np.abs(rhs).max()))
        assert err <= 1e-14                 # <= 5e-16 measured

    @pytest.mark.parametrize("shape", [(64, 64), (99, 99), (10, 37), (50, 7)],
                             ids=lambda s: "%dx%d" % s)
    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_matches_sparse_solve(self, example_id, shape):
        problem, _ = rk.builtin_example(example_id, nu=1e-2)
        grid = rk.SpaceTimeGrid(n_x=shape[0], n_t=shape[1], interval=problem.interval,
                                horizon=problem.T)
        A, rhs = fd_sparse_system(problem, grid)
        ref = scipy.sparse.linalg.spsolve(A, rhs)
        z = fd_unknowns(rk.solve_coupled_fd(problem, grid))
        assert np.abs(z - ref).max() <= 1e-12 * np.abs(ref).max()


class TestNamedFailures:
    @pytest.mark.parametrize("field", ["y0", "h1", "h2", "y_d"])
    def test_non_finite_data_named(self, field):
        problem = general_problem(1e-2, 0.0, 1.0, 1.0)
        good = getattr(problem, field)
        if field == "y_d":
            bad = lambda x, t: np.where(np.asarray(t) < 0.3, np.nan, good(x, t))
        else:
            # the corners stay finite, so ControlProblem itself accepts it
            bad = lambda v: np.where((0.0 < np.asarray(v)) & (np.asarray(v) < 0.3),
                                     np.inf, good(v))
        problem = dataclasses.replace(problem, **{field: bad})
        grid = unit_grid(9)                 # nodes at multiples of 0.1
        count = {"y0": 2, "h1": 2, "h2": 2, "y_d": 3 * 9}[field]
        with pytest.raises(ValueError, match=f"{field} is not finite at {count} of "):
            rk.solve_coupled_fd(problem, grid)

    def test_banded_failure_is_singular_discretization(self, monkeypatch):
        def singular(*args, **kwargs):
            raise scipy.linalg.LinAlgError("singular matrix")
        monkeypatch.setattr(scipy.linalg, "solve_banded", singular)
        with pytest.raises(rk.SingularDiscretization, match="singular matrix"):
            rk.solve_coupled_fd(zero_problem(), unit_grid(6))

    def test_non_finite_solution_is_singular_discretization(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "solve_banded",
                            lambda l_and_u, ab, b, **kwargs: np.full_like(b, np.nan))
        with pytest.raises(rk.SingularDiscretization, match="non-finite"):
            rk.solve_coupled_fd(zero_problem(), unit_grid(6))


class TestErrorVsExact:
    def test_sampled_field_zero_error(self):
        _, exact = rk.builtin_example(1, nu=1e-2)
        grid = unit_grid(9)
        field = sample_grid(grid, lambda x, t: np.asarray(
            exact.y_exact(x, t), dtype=float))
        res = rk.error_vs_exact(field, exact.y_exact)
        assert res["linf"] == 0.0 and res["l2"] == 0.0

    def test_constant_offset(self):
        grid = unit_grid(9)
        field = sample_grid(grid, lambda x, t: 1.0 + 0.0 * np.asarray(x))
        res = rk.error_vs_exact(field, lambda x, t: 0.0 * np.asarray(x))
        assert res["linf"] == pytest.approx(1.0)
        assert res["l2"] == pytest.approx(1.0, rel=1e-12)

    def test_errors_decrease_with_refinement(self):
        problem, exact = rk.builtin_example(2, nu=1e-2)
        errs = [rk.error_vs_exact(rk.solve_coupled_fd(problem, unit_grid(n)).y,
                                  exact.y_exact)["linf"]
                for n in (8, 16)]
        assert errs[1] < errs[0]


class TestSelfConvergence:
    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_observed_order(self, example_id):
        problem, _ = rk.builtin_example(example_id, nu=1e-2)
        out = rk.self_convergence(problem, n_base=16)
        assert 1.7 <= out["order_y"] <= 2.3
        assert 1.7 <= out["order_p"] <= 2.3
