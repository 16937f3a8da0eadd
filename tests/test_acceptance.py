"""Release checklist: one test per shipped acceptance criterion.

Each test prints a single ``CRITERION n: PASS/FAIL — measurements`` line
(visible with ``pytest -s`` or ``-rA``; failing criteria echo the line in
their failure message).  Two criteria are genuinely not met by the method
on these benchmarks; those tests fail carrying the measured numbers
rather than being loosened.  The root cause — examples 1 and 3 ship a
closed-form adjoint whose lateral boundary trace is nonzero while the
trial space enforces a zero trace — is analyzed in the README under
"Known limitations".
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

import rkheat as rk
import rkheat.cli as cli
from conftest import solve_example
from oracles import (admissible_polynomials, gauss_panel, inner_product_1d,
                     poly_derivative_table, rank_one_field, tensor_inner)

NU = 1e-2
W2_SPEC = rk.SpaceSpec(2, (0.0, 1.0), (("a", 0), ("b", 0)))
W1_SPEC = rk.SpaceSpec(1, (0.0, 1.0), (("a", 0),))
W1P_SPEC = rk.SpaceSpec(1, (0.0, 1.0), (("b", 0),))

_RUNS = {}


def run_example(example_id, n):
    """Solve example `example_id` on an n-by-n node set at nu = 1e-2 (cached)."""
    key = (example_id, n)
    if key not in _RUNS:
        problem, exact, hom, system, sol, _ = solve_example(example_id, NU, n, n)
        _RUNS[key] = SimpleNamespace(
            problem=problem, exact=exact, hom=hom, system=system, sol=sol,
            norms=rk.error_norms(sol, exact, eval_grid=(101, 101)))
    return _RUNS[key]


def report(num, passed, detail):
    line = f"CRITERION {num}: {'PASS' if passed else 'FAIL'} — {detail}"
    print("\n" + line, flush=True)
    return line


def test_criterion_1_reproducing_property(rng):
    # For every kernel space, <f, K(., y)> must return f(y) for admissible
    # test functions; 20 random polynomials x 10 random centers per space,
    # against a quadrature evaluation of the inner product.
    t0 = time.perf_counter()
    worst = {}
    for label, spec in (("W2", W2_SPEC), ("W1", W1_SPEC), ("W1'", W1P_SPEC)):
        kernel = rk.build_kernel(spec)
        polys = admissible_polynomials(spec, 20, rng)
        centers = rng.uniform(0.03, 0.97, size=10)
        w = 0.0
        for f in polys:
            table = poly_derivative_table(f)
            for y in centers:
                w = max(w, abs(inner_product_1d(table, kernel, float(y)) - f(y)))
        worst[label] = w
    K1, K2 = rk.standard_kernels((0.0, 1.0), 1.0)
    for label, K, temp_spec in (("state", K1, W1_SPEC), ("adjoint", K2, W1P_SPEC)):
        fxs = admissible_polynomials(W2_SPEC, 20, rng)
        gts = admissible_polynomials(temp_spec, 20, rng)
        centers = rng.uniform(0.05, 0.95, size=(10, 2))
        w = 0.0
        for fx, gt in zip(fxs, gts):
            field = rank_one_field(fx, gt)
            for c in centers:
                c = (float(c[0]), float(c[1]))
                got = tensor_inner(field, c, K.spatial, K.temporal)
                w = max(w, abs(got - fx(c[0]) * gt(c[1])))
        worst[label] = w
    elapsed = time.perf_counter() - t0
    worst_all = max(worst.values())
    passed = worst_all <= 1e-6 and elapsed < 30.0
    detail = ("max |<f,K_y> - f(y)| per space: "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
              + f" (target 1e-6); {elapsed:.1f}s (budget 30s)")
    line = report(1, passed, detail)
    assert passed, line


def test_criterion_2_kernel_structure(rng):
    t0 = time.perf_counter()
    sym_worst = bc_worst = cont_worst = jump_worst = 0.0
    psd_margin = np.inf
    for spec in (W2_SPEC, W1_SPEC, W1P_SPEC):
        kernel = rk.build_kernel(spec)
        a, b = spec.interval
        # symmetry on a grid, relative to 1 + |K|
        pts = np.linspace(a + 0.02, b - 0.02, 20)
        K = rk.kernel_matrix(kernel, pts, pts)
        sym_worst = max(sym_worst,
                        float((np.abs(K - K.T) / (1.0 + np.abs(K))).max()))
        # endpoint constraints hold exactly in the first argument
        for endpoint, order in spec.constraints:
            point = a if endpoint == "a" else b
            for y in (0.1, 0.45, 0.8):
                bc_worst = max(bc_worst, abs(kernel.eval(point, y, dx=order)))
        # Gram matrix positive semidefinite
        nodes = np.sort(rng.uniform(a + 0.01, b - 0.01, size=15))
        G = rk.kernel_matrix(kernel, nodes, nodes)
        eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
        psd_margin = min(psd_margin,
                         float(eigs.min() + 1e-10 * np.trace(G)))
        # piecewise-polynomial seam at x = y: derivatives continuous through
        # order 2m, top derivative jumps by (-1)^(m+1)
        m = spec.order_m
        y, eps = 0.37, 1e-9
        for d in range(2 * m + 1):
            left = kernel.eval(y - eps, y, dx=d)
            right = kernel.eval(y + eps, y, dx=d)
            cont_worst = max(cont_worst, abs(left - right) / (1.0 + abs(left)))
        top = 2 * m + 1
        jump = kernel.eval(y + eps, y, dx=top) - kernel.eval(y - eps, y, dx=top)
        jump_worst = max(jump_worst, abs(jump - (-1.0) ** (m + 1)))
    elapsed = time.perf_counter() - t0
    passed = (sym_worst <= 1e-10 and bc_worst <= 1e-12 and psd_margin >= 0.0
              and cont_worst <= 1e-6 and jump_worst <= 1e-6 and elapsed < 10.0)
    detail = (f"symmetry={sym_worst:.1e} (<=1e-10), boundary={bc_worst:.1e} "
              f"(<=1e-12), PSD margin={psd_margin:.1e} (>=0), "
              f"seam continuity={cont_worst:.1e}, jump={jump_worst:.1e} "
              f"(<=1e-6); {elapsed:.1f}s (budget 10s)")
    line = report(2, passed, detail)
    assert passed, line


def test_criterion_3_manufactured_accuracy():
    t0 = time.perf_counter()
    r8 = run_example(1, 8)
    r16 = run_example(1, 16)
    xs = np.linspace(0.0, 1.0, 101)
    X, T = np.meshgrid(xs, xs)
    p_scale = float(np.abs(r16.exact.p_exact(X, T)).max())
    linf_y = r16.norms["linf_y"]
    linf_p = r16.norms["linf_p"]
    direct = linf_y <= 1e-3 and linf_p <= 1e-3 * p_scale
    ratio = r8.norms["linf_y"] / linf_y
    fallback = ratio >= 2.0
    elapsed = time.perf_counter() - t0
    passed = (direct or fallback) and elapsed < 120.0
    detail = (f"example 1, nu=1e-2, 16x16 nodes, 101x101 grid: "
              f"linf_y={linf_y:.4g} (target <=1e-3), linf_p={linf_p:.4g} "
              f"(target <={1e-3 * p_scale:.3g}); fallback error ratio "
              f"8x8/16x16 = {ratio:.3f} (target >=2); {elapsed:.1f}s")
    line = report(3, passed, detail)
    if not passed:
        pytest.fail(
            line + "\n"
            "Analysis: the trial space enforces a zero adjoint trace on the "
            "lateral boundary, but example 1's closed-form adjoint is "
            "p = nu*(q(t)*(x^2-x) + r(t)) with r(t) = 2 t^2 (1-t)^3, whose "
            "lateral trace peaks at nu*0.06912 = 6.912e-4 (t=0.4).  With the "
            "re-derived target the computed pair converges to the true "
            "solution of the boundary-constrained optimality system, which "
            "differs from the printed pair by that trace near the boundary: "
            "an error floor of ~6.9e-4 in p and a few 1e-3 in y that node "
            "refinement cannot cross (4x4->16x16 errors plateau, ratio "
            "1.085).  A second-order finite-difference solver imposing the "
            "same boundary conditions shows the identical floor, confirming "
            "the defect lies in the benchmark data, not the solver.  See "
            "README 'Known limitations'.",
            pytrace=False)
    assert passed, line


def test_criterion_4_monotone_convergence():
    t0 = time.perf_counter()
    sizes = (4, 8, 12, 16)
    table = {}
    violations = []
    for ex in (1, 2, 3):
        seq = [run_example(ex, n).norms["l2_y"] for n in sizes]
        table[ex] = seq
        for n_prev, n_next, e_prev, e_next in zip(sizes, sizes[1:], seq, seq[1:]):
            if e_next > 1.05 * e_prev:
                violations.append(
                    f"example {ex}: l2_y {e_prev:.3e} ({n_prev}x{n_prev}) -> "
                    f"{e_next:.3e} ({n_next}x{n_next}), +{100 * (e_next / e_prev - 1):.0f}%")
    elapsed = time.perf_counter() - t0
    passed = not violations and elapsed < 300.0
    detail = ("; ".join(
        f"ex{ex}: " + " -> ".join(f"{v:.3e}" for v in seq)
        for ex, seq in table.items()) + f"; {elapsed:.1f}s (budget 300s)")
    line = report(4, passed, detail)
    if not passed:
        pytest.fail(
            line + "\nViolations: " + " | ".join(violations) + "\n"
            "Analysis: examples 1 and 2 decrease monotonically.  Example 3 "
            "does not: like example 1 its closed-form adjoint has a nonzero "
            "lateral trace, so past the error floor the l2_y sequence "
            "crosses it and rebounds (+81% from 8x8 to 12x12) instead of "
            "decreasing.  The non-monotonicity is a property of the "
            "benchmark pair, not of the discretization; example 2, whose "
            "printed pair satisfies every boundary condition, decreases "
            "strictly at every step.  See README 'Known limitations'.",
            pytrace=False)
    assert passed, line


def test_known_failures_pinned():
    # criteria 3 and 4 fail on the benchmark data, not the solver; their
    # measured numbers are pinned so that a drift in them shows
    r16 = run_example(1, 16)
    assert r16.norms["linf_y"] == pytest.approx(3.8581963045811653e-3, rel=1e-9, abs=0)
    assert r16.norms["linf_p"] == pytest.approx(6.912000000000107e-4, rel=1e-9, abs=0)
    l2_y = [run_example(3, n).norms["l2_y"] for n in (4, 8, 12, 16)]
    assert l2_y == pytest.approx([1.2414205924347358e-2, 5.245370120607734e-3,
                                  9.495126742522363e-3, 1.1739147442955148e-2],
                                 rel=1e-9, abs=0)


def test_criterion_5_oracle_cross_validation():
    t0 = time.perf_counter()
    run = run_example(1, 12)
    grid = rk.SpaceTimeGrid(n_x=64, n_t=64, interval=(0.0, 1.0), horizon=1.0)
    fd = rk.solve_coupled_fd(run.problem, grid)
    Y, P, _ = run.sol.evaluate_grid(grid.xs, grid.ts)
    disc_y = float(np.abs(Y - fd.y.values).max())
    disc_p = float(np.abs(P - fd.p.values).max())
    conv = rk.self_convergence(run.problem, n_base=16)
    order_y = conv["order_y"]
    # Richardson estimate of the 64x64 solution's own error from the last
    # pair of nested grids.
    self_err = conv["diff_y"][1] / (2.0 ** order_y - 1.0)
    threshold = max(3.0 * self_err, 1e-3)
    elapsed = time.perf_counter() - t0
    passed = (disc_y <= threshold and 1.7 <= order_y <= 2.3
              and elapsed < 120.0)
    detail = (f"12x12 kernel solve vs 64x64 finite differences (example 1): "
              f"max|y_rk - y_fd|={disc_y:.3e} (threshold {threshold:.3e}), "
              f"max|p_rk - p_fd|={disc_p:.3e}; observed FD order={order_y:.2f} "
              f"(target [1.7, 2.3]); {elapsed:.1f}s (budget 120s)")
    line = report(5, passed, detail)
    assert passed, line


def test_criterion_6_optimality_identities(rng):
    t0 = time.perf_counter()
    run = run_example(1, 8)
    # (a) control recovery u = p/nu holds bitwise at every evaluation point
    xs = np.linspace(0.0, 1.0, 101)
    _, P, U = run.sol.evaluate_grid(xs, xs)
    grad_exact = np.array_equal(U, P / run.problem.nu)
    # (b) collocation residuals at the nodes for the unregularized solve
    resid = run.sol.info["residual_max"]
    resid_cap = 1e-8 * (1.0 + float(np.abs(run.system.C).max()))
    # (c) weak adjointness: int (L1 phi) psi == int phi (L2 psi) for smooth
    # pairs vanishing on the whole space-time boundary (Gauss quadrature,
    # central differences for the operators)
    gx, wx = gauss_panel(0.0, 1.0)
    gt, wt = gauss_panel(0.0, 1.0)
    X, T = np.meshgrid(gx, gt)
    W = wt[:, None] * wx[None, :]
    h = 1e-4
    adj_worst = 0.0
    for _ in range(5):
        c = rng.uniform(0.5, 2.0, size=4)
        phi = lambda x, t: (c[0] * (x * (1 - x)) ** 2 * (t * (1 - t)) ** 2
                            + c[1] * (x * (1 - x)) ** 2 * t ** 2 * (1 - t) ** 3)
        psi = lambda x, t: (c[2] * x * (1 - x) * t * (1 - t)
                            + c[3] * (x * (1 - x)) ** 2 * t * (1 - t))
        L1phi = (-(phi(X, T + h) - phi(X, T - h)) / (2 * h)
                 + (phi(X + h, T) - 2 * phi(X, T) + phi(X - h, T)) / h ** 2)
        L2psi = ((psi(X, T + h) - psi(X, T - h)) / (2 * h)
                 + (psi(X + h, T) - 2 * psi(X, T) + psi(X - h, T)) / h ** 2)
        lhs = float(np.sum(W * L1phi * psi(X, T)))
        rhs = float(np.sum(W * phi(X, T) * L2psi))
        adj_worst = max(adj_worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    passed = grad_exact and resid <= resid_cap and adj_worst <= 1e-6
    detail = (f"u = p/nu bitwise: {grad_exact}; node residual "
              f"max={resid:.2e} (cap {resid_cap:.2e}); weak adjointness "
              f"worst |lhs - rhs|={adj_worst:.2e} (<=1e-6); {elapsed:.1f}s")
    line = report(6, passed, detail)
    assert passed, line


def test_criterion_7_small_nu_diagnostic(tmp_path):
    # nu = 1e-6 with ~200 total nodes must run to completion with finite
    # condition estimates and deterministic CSV output; no accuracy bar.
    t0 = time.perf_counter()
    base = ["solve", "--example", "1", "--nu", "1e-6", "--nx", "14",
            "--nt", "14", "--eval-grid", "51x51"]
    rc1 = cli.main(base + ["--out", str(tmp_path / "a")])
    rc2 = cli.main(base + ["--out", str(tmp_path / "b")])
    files_ok = all((tmp_path / "a" / name).exists()
                   for name in ("solution.csv", "slices.csv", "report.json"))
    rep = json.loads((tmp_path / "a" / "report.json").read_text())
    cond_pre, cond_post = rep["cond"]["pre"], rep["cond"]["post"]
    finite = bool(np.isfinite([cond_pre, cond_post]).all())
    identical = ((tmp_path / "a" / "solution.csv").read_bytes()
                 == (tmp_path / "b" / "solution.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    passed = (rc1 == 0 and rc2 == 0 and files_ok and finite and identical)
    detail = (f"nu=1e-6, 14x14 = 196 nodes: exit={rc1}, cond pre={cond_pre:.3e} "
              f"post={cond_post:.3e} (finite: {finite}), CSVs written: "
              f"{files_ok}, rerun byte-identical: {identical}; {elapsed:.1f}s")
    line = report(7, passed, detail)
    assert passed, line


def test_criterion_8_picard_direct_agreement():
    t0 = time.perf_counter()
    direct = run_example(1, 8)
    b_direct = np.concatenate([direct.sol.b1, direct.sol.b2])
    # The default 200-sweep budget does not converge at nu = 1e-2 (the
    # coupling is too strong); a tighter tolerance within a larger budget
    # does, which is the convergent regime this criterion addresses.
    *_, sol_p, info = solve_example(1, NU, 8, 8, mode="picard",
                                    tol=1e-11, max_iter=6000)
    b_picard = np.concatenate([sol_p.b1, sol_p.b2])
    agree = float(np.abs(b_picard - b_direct).max())
    elapsed = time.perf_counter() - t0
    passed = info.converged and agree <= 1e-8
    detail = (f"example 1, nu=1e-2, 8x8: fixed-point converged={info.converged} "
              f"in {info.iterations} sweeps (tol 1e-11); max-norm coefficient "
              f"agreement with direct solve = {agree:.3e} (<=1e-8); "
              f"{elapsed:.1f}s")
    line = report(8, passed, detail)
    assert passed, line
