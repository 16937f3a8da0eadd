import numpy as np
import pytest

import rkheat as rk
from oracles import constant_field, fd_field, gauss_panel, recover_control


def product_field(fx, ft, dfx=None, d2fx=None, dft=None):
    """ScalarField for u = fx(x) ft(t) with exact partials."""
    partials = {}
    if dft is not None:
        partials[(0, 1)] = lambda x, t: fx(x) * dft(t)
    if dfx is not None:
        partials[(1, 0)] = lambda x, t: dfx(x) * ft(t)
    if d2fx is not None:
        partials[(2, 0)] = lambda x, t: d2fx(x) * ft(t)
    return rk.ScalarField(lambda x, t: fx(x) * ft(t), partials=partials)


class TestApplyOperator:
    def test_forward_hand_value(self):
        f = product_field(lambda x: x * (x - 1), lambda t: t,
                          dfx=lambda x: 2 * x - 1,
                          d2fx=lambda x: 2.0 + 0.0 * np.asarray(x),
                          dft=lambda t: 1.0 + 0.0 * np.asarray(t))
        got = rk.apply_operator(rk.FORWARD, f, (0.5, 0.3))
        assert got == pytest.approx(0.85, abs=1e-12)

    def test_constant_field(self):
        c = constant_field(3.7)
        for op in (rk.FORWARD, rk.ADJOINT):
            assert rk.apply_operator(op, c, (0.4, 0.6)) == pytest.approx(0.0, abs=1e-10)

    def test_time_terms_cancel(self, rng):
        f = fd_field(lambda x, t: np.sin(3 * x) * np.exp(t))
        for _ in range(5):
            pt = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
            both = (rk.apply_operator(rk.FORWARD, f, pt)
                    + rk.apply_operator(rk.ADJOINT, f, pt))
            f2 = f.partial(pt[0], pt[1], 2, 0)
            assert both == pytest.approx(2 * f2, rel=1e-6, abs=1e-6)

    def test_interior_check(self):
        f = constant_field(1.0)
        with pytest.raises(rk.OutOfDomain):
            rk.apply_operator(rk.FORWARD, f, (0.0, 0.5), domain=((0.0, 1.0), 1.0))

    def test_plain_callable_rejected(self):
        # a plain callable carries no partials; the first one asked for is named
        with pytest.raises(rk.NonDifferentiableData, match=r"\(0, 1\)"):
            rk.apply_operator(rk.FORWARD, lambda x, t: x * (x - 1) * t, (0.5, 0.3))


class TestRecoverControl:
    def test_zero(self):
        u = recover_control(lambda x, t: 0.0, 0.5)
        assert u(0.3, 0.3) == 0.0

    def test_ratio(self):
        u = recover_control(lambda x, t: 2.0, 0.5)
        assert u(0.1, 0.9) == pytest.approx(4.0, rel=1e-15)

    def test_example1_pin(self):
        _, exact = rk.builtin_example(1, nu=1e-6)
        u = recover_control(exact.p_exact, 1e-6)
        assert u(0.5, 0.5) == pytest.approx(0.046875, rel=1e-12)

    def test_idempotence(self, rng):
        nu = 0.37
        p = lambda x, t: np.sin(x) * np.cos(t)
        u1 = recover_control(p, nu)
        u2 = recover_control(lambda x, t: u1(x, t) * nu, nu)
        for _ in range(10):
            pt = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            assert u1(*pt) == u2(*pt)

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            recover_control(lambda x, t: 0.0, 0.0)


class TestResiduals:
    def test_zero_pair_zero_data(self):
        problem, _ = rk.builtin_example(1, nu=1e-2)
        hom = rk.homogenize(problem)
        z = constant_field(0.0)
        # G1 = 0 for the built-ins, so the zero pair solves the forward
        # equation identically.
        assert rk.residual_forward(z, z, hom, (0.3, 0.4)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_exact_pair_residuals(self, example_id, rng):
        problem, exact = rk.builtin_example(example_id, nu=1e-2)
        hom = rk.homogenize(problem)
        xs = rng.uniform(0.02, 0.98, size=100)
        ts = rng.uniform(0.02, 0.98, size=100)
        rf = rk.residual_forward(exact.y_exact, exact.p_exact, hom, (xs, ts))
        ra = rk.residual_adjoint(exact.y_exact, exact.p_exact, hom, (xs, ts))
        assert np.max(np.abs(rf)) <= 1e-9
        assert np.max(np.abs(ra)) <= 1e-9

    def test_affine_in_inputs(self):
        problem, exact = rk.builtin_example(1, nu=1e-2)
        hom = rk.homogenize(problem)
        pt = (0.41, 0.59)
        z = constant_field(0.0)

        def rf(scale):
            y = rk.ScalarField(lambda x, t: scale * exact.y_exact(x, t),
                               partials={k: (lambda x, t, k=k:
                                             scale * exact.y_exact.partial(x, t, *k))
                                         for k in ((0, 1), (2, 0), (1, 0))})
            p = rk.ScalarField(lambda x, t: scale * exact.p_exact(x, t),
                               partials={k: (lambda x, t, k=k:
                                             scale * exact.p_exact.partial(x, t, *k))
                                         for k in ((0, 1), (2, 0), (1, 0))})
            return rk.residual_forward(y, p, hom, pt)

        r0, r1, r2 = rf(0.0), rf(1.0), rf(2.0)
        # affine: r(2) - r(1) == r(1) - r(0)
        assert (r2 - r1) - (r1 - r0) == pytest.approx(0.0, abs=1e-10)

    def test_perturbation_changes_residual_linearly(self):
        problem, exact = rk.builtin_example(1, nu=1e-2)
        hom = rk.homogenize(problem)
        pt = (0.5, 0.3)
        eps = 0.25
        bump = product_field(lambda x: x * (1 - x), lambda t: t,
                             dfx=lambda x: 1 - 2 * x,
                             d2fx=lambda x: -2.0 + 0.0 * np.asarray(x),
                             dft=lambda t: 1.0 + 0.0 * np.asarray(t))
        y_pert = rk.ScalarField(
            lambda x, t: exact.y_exact(x, t) + eps * bump(x, t),
            partials={k: (lambda x, t, k=k: exact.y_exact.partial(x, t, *k)
                          + eps * bump.partial(x, t, *k))
                      for k in ((0, 1), (2, 0), (1, 0))})
        base = rk.residual_forward(exact.y_exact, exact.p_exact, hom, pt)
        got = rk.residual_forward(y_pert, exact.p_exact, hom, pt)
        # L1 bump at (0.5, 0.3) = -x(1-x) + 2t*(-2)/2 ... hand value:
        # -d/dt[x(1-x)t] + d2/dx2[x(1-x)t] = -x(1-x) - 2t = -0.25 - 0.6
        assert got - base == pytest.approx(eps * (-0.85), abs=1e-10)

    def test_adjoint_degenerate_constant(self):
        problem, _ = rk.builtin_example(1, nu=1e-2)
        hom = rk.homogenize(problem)
        # y = y_d and constant p: L2 p = 0 and the tracking gap vanishes,
        # so the residual is exactly the constant's contribution: zero.
        y = rk.ScalarField(lambda x, t: np.asarray(problem.y_d(x, t), dtype=float))
        p = constant_field(4.2)
        got = rk.residual_adjoint(y, p, hom, (0.3, 0.7))
        assert got == pytest.approx(0.0, abs=1e-6)


class TestWeakAdjointness:
    def test_integration_by_parts_pairs(self, rng):
        # For smooth fields vanishing on the whole space-time boundary,
        # int (L1 phi) psi == int phi (L2 psi).  Polynomial bubbles let the
        # Gauss rule integrate exactly.
        xs, wx = gauss_panel(0.0, 1.0)
        ts, wt = gauss_panel(0.0, 1.0)
        X, T = np.meshgrid(xs, ts)
        W = wt[:, None] * wx[None, :]
        for _ in range(5):
            c1 = rng.uniform(0.5, 2.0, size=4)
            phi = lambda x, t: c1[0] * (x * (1 - x)) ** 2 * (t * (1 - t)) ** 2 \
                + c1[1] * x ** 2 * (1 - x) * t * (1 - t) ** 2 * x * (1 - x) * t
            psi = lambda x, t: c1[2] * x * (1 - x) * t * (1 - t) \
                + c1[3] * (x * (1 - x)) ** 2 * t * (1 - t)
            h = 1e-4
            L1phi = (-(phi(X, T + h) - phi(X, T - h)) / (2 * h)
                     + (phi(X + h, T) - 2 * phi(X, T) + phi(X - h, T)) / h ** 2)
            L2psi = ((psi(X, T + h) - psi(X, T - h)) / (2 * h)
                     + (psi(X + h, T) - 2 * psi(X, T) + psi(X - h, T)) / h ** 2)
            lhs = float(np.sum(W * L1phi * psi(X, T)))
            rhs = float(np.sum(W * phi(X, T) * L2psi))
            assert abs(lhs - rhs) <= 1e-6
