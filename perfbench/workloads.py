"""The benchmark's workloads, each a closed loop of operations with checks.

Every workload drives rkheat only through ``rkheat.cli.main`` and the
``rkheat.*`` library functions, looked up at call time so that the tracer's
wrappers are seen.  ``op(i)`` is the timed operation; ``check(i, result,
checks)`` verifies its outputs outside the timed region.  The reasons for
each workload are in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

import rkheat as rk
import rkheat.cli


class Checks:
    """Counts output checks and keeps a message for each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.observed: dict[str, dict] = {}     # by reference group, for re-recording

    def true(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    def against(self, group: str, reference: dict, observed: dict) -> None:
        """Compare observed values with a reference group {rtol, values}."""
        self.observed.setdefault(group, {}).update(observed)
        rtol = reference["rtol"]
        for key, ref in reference["values"].items():
            value = observed.get(key)
            ok = value is not None and np.isfinite(value) and abs(value - ref) <= rtol * abs(ref)
            self.true(f"{group}.{key}", ok, f"{value!r} vs reference {ref!r} (rtol {rtol:g})")


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in d.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}{key}"] = float(value)
    return out


def _digest(path, drop_last_column: bool = False) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if drop_last_column:        # the wall-clock "seconds" column
        data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
    return hashlib.sha256(data).hexdigest()


class _Workload:
    """Shared plumbing: CLI calls with captured output and byte counting."""

    name = ""
    # the traced unit re-runs prepare() before its operation
    traced_prepare = False

    def __init__(self, workdir: str, seed: int, references: dict):
        self.workdir = workdir
        self.seed = seed
        self.refs = references
        self.bytes_written = 0
        self.linf_y = None
        self.fd_disc_y = None

    def _cli(self, *argv) -> int:
        out_dir = str(argv[argv.index("--out") + 1])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = rkheat.cli.main([str(a) for a in argv])
        with os.scandir(out_dir) as entries:
            self.bytes_written += sum(e.stat().st_size for e in entries if e.is_file())
        return rc

    def _dir(self, i: int, *parts) -> str:
        # two alternating output trees keep disk use flat
        return os.path.join(self.workdir, f"op{i % 2}", *parts)

    def prepare(self) -> None:
        pass

    def check_prepare(self, checks: Checks) -> None:
        pass

    def warm(self) -> None:
        pass


class GridCli(_Workload):
    """One `rkheat solve` of example 2 at 32x32 nodes, 101x101 eval grid."""

    name = "grid-cli"

    def __init__(self, workdir, seed, references, n=32, eval_grid=101):
        super().__init__(workdir, seed, references)
        self.n, self.eval_grid = n, eval_grid
        self.digests = None

    def warm(self):
        self._cli("solve", "--example", 2, "--nx", 4, "--nt", 4, "--eval-grid", "11x11",
                  "--out", os.path.join(self.workdir, "warm"))

    def op(self, i):
        out = self._dir(i)
        rc = self._cli("solve", "--example", 2, "--nu", "1e-2", "--nx", self.n, "--nt", self.n,
                       "--eval-grid", f"{self.eval_grid}x{self.eval_grid}", "--out", out)
        return rc, out

    def check(self, i, result, checks):
        rc, out = result
        if not checks.true("solve exit code", rc == 0, f"exit {rc}"):
            return
        with open(os.path.join(out, "report.json"), encoding="utf-8") as f:
            report = json.load(f)
        observed = _flatten({k: report[k] for k in ("norms", "residuals", "j_cost")})
        checks.against("solve", self.refs["solve"], observed)
        digests = [_digest(os.path.join(out, n)) for n in ("solution.csv", "slices.csv")]
        if self.digests is None:
            self.digests = digests
            self.linf_y = report["norms"]["linf_y"]
            self.fd_disc_y = self._fd_discrepancy(os.path.join(out, "solution.csv"))
            checks.against("fd", self.refs["fd"], {"fd_disc_y": self.fd_disc_y})
        checks.true("CSV bytes identical across operations", digests == self.digests)

    def _fd_discrepancy(self, solution_csv) -> float:
        """Max |y_kernel - y_FD| on the eval grid, FD grid nodes = eval grid."""
        problem, _ = rk.builtin_example(2, nu=1e-2)
        n = self.eval_grid - 2
        grid = rk.SpaceTimeGrid(n_x=n, n_t=n, interval=problem.interval, horizon=problem.T)
        fd = rk.solve_coupled_fd(problem, grid)
        with open(solution_csv, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        y = np.array([float(r["y_approx"]) for r in rows]).reshape(fd.y.values.shape)
        return float(np.abs(y - fd.y.values).max())


class SmallSweep(_Workload):
    """A fixed set of small runs where per-call Python overhead dominates."""

    name = "small-sweep"
    SWEEP = "4x4,8x8,12x12,16x16"

    def __init__(self, workdir, seed, references, sweep=SWEEP, c7_nodes=14,
                 crosscheck_nodes=12, oracle_grid="64x64", picard_nodes=8):
        super().__init__(workdir, seed, references)
        self.sweep, self.c7_nodes = sweep, c7_nodes
        self.crosscheck_nodes, self.oracle_grid = crosscheck_nodes, oracle_grid
        self.picard_nodes = picard_nodes
        self.digests = None
        self.direct = None

    def _picard_system(self):
        problem, _ = rk.builtin_example(1, nu=1e-2)
        kernels = rk.standard_kernels(problem.interval, problem.T)
        nodes = rk.generate_nodes(self.picard_nodes, self.picard_nodes,
                                  (problem.interval, problem.T))
        return rk.assemble(rk.homogenize(problem), nodes, kernels)

    def prepare(self):
        self.direct = rk.solve(self._picard_system())

    def warm(self):
        self._cli("solve", "--example", 1, "--nx", 4, "--nt", 4, "--eval-grid", "11x11",
                  "--out", os.path.join(self.workdir, "warm"))

    def op(self, i):
        rcs = {}
        for ex in (1, 2, 3):
            rcs[f"convergence{ex}"] = self._cli(
                "convergence", "--example", ex, "--nu", "1e-2", "--sweep", self.sweep,
                "--out", self._dir(i, f"convergence{ex}"))
        n = self.c7_nodes
        rcs["nu1e-6"] = self._cli("solve", "--example", 1, "--nu", "1e-6", "--nx", n, "--nt", n,
                                  "--out", self._dir(i, "nu1e-6"))
        n = self.crosscheck_nodes
        rcs["crosscheck"] = self._cli("crosscheck", "--example", 1, "--nx", n, "--nt", n,
                                      "--oracle-grid", self.oracle_grid,
                                      "--out", self._dir(i, "crosscheck"))
        picard, info = rk.solve_picard(self._picard_system(), tol=1e-11, max_iter=6000)
        return i, rcs, picard, info

    def check(self, i, result, checks):
        i, rcs, picard, info = result
        for key, rc in rcs.items():
            checks.true(f"{key} exit code", rc == 0, f"exit {rc}")
        if any(rcs.values()):
            return
        observed = {}
        for ex in (1, 2, 3):
            path = self._dir(i, f"convergence{ex}", "convergence.csv")
            with open(path, newline="", encoding="utf-8") as f:
                for row in csv.DictReader(f):
                    for col in ("linf_y", "l2_y", "linf_p", "l2_p"):
                        observed[f"ex{ex}.n{row['n_total']}.{col}"] = float(row[col])
        checks.against("convergence", self.refs["convergence"], observed)

        with open(self._dir(i, "nu1e-6", "report.json"), encoding="utf-8") as f:
            c7 = json.load(f)
        checks.against("nu1e-6", self.refs["nu1e-6"],
                       _flatten({"norms": c7["norms"], "residuals": c7["residuals"],
                                 "j_cost": c7["j_cost"]}))
        with open(self._dir(i, "crosscheck", "crosscheck.json"), encoding="utf-8") as f:
            xc = json.load(f)
        checks.against("crosscheck", self.refs["crosscheck"],
                       _flatten({k: xc[k] for k in ("discrepancy", "kernel_error", "oracle_error")}))

        checks.true("picard converged", info.converged, f"{info}")
        gap = max(np.abs(picard.b1 - self.direct.b1).max(), np.abs(picard.b2 - self.direct.b2).max())
        checks.true("picard matches direct within 1e-8", gap <= 1e-8, f"gap {gap:.3g}")

        digests = [_digest(self._dir(i, "nu1e-6", n)) for n in ("solution.csv", "slices.csv")]
        digests += [_digest(self._dir(i, f"convergence{ex}", "convergence.csv"), True)
                    for ex in (1, 2, 3)]
        if self.digests is None:
            self.digests = digests
            self.linf_y = c7["norms"]["linf_y"]
            self.fd_disc_y = xc["discrepancy"]["y"]
        checks.true("CSV bytes identical across operations", digests == self.digests)


class Queries(_Workload):
    """Single-point rk.evaluate queries on ex2 solutions, nu = 1e-2.

    Two layouts are solved in ``prepare``: the n x n midpoint tensor grid,
    and ``layouts`` seeded jittered node sets, one uniform point in the
    middle half of each cell of an n x n grid, so no two nodes share a
    coordinate.  One operation is ``batch`` queries at seeded points that
    alternate between the grid solution and a jittered one; each run of
    ``PER_VISIT`` consecutive jittered queries goes to one layout, cycling
    through them, so eight operations visit all 16.  A batch of ~5 s rather
    than one ~80 ms query per operation, because the speed of a shared host
    swings by up to 40% for seconds at a time, which makes the median of
    short operations jump.
    """

    name = "queries"
    traced_prepare = True
    PER_VISIT = 16

    def __init__(self, workdir, seed, references, n=16, layouts=16, oracle=64, batch=64):
        super().__init__(workdir, seed, references)
        self.n, self.layouts, self.oracle, self.batch = n, layouts, oracle, batch
        self.points = np.random.default_rng([seed, 1])
        self.solutions = []         # the grid solution, then the jittered ones
        self.layout_errors = None

    def warm(self):
        problem, _ = rk.builtin_example(2, nu=1e-2)
        grid = rk.SpaceTimeGrid(n_x=8, n_t=8, interval=problem.interval, horizon=problem.T)
        rk.solve_coupled_fd(problem, grid)
        kernels = rk.standard_kernels(problem.interval, problem.T)
        nodes = rk.generate_nodes(4, 4, (problem.interval, problem.T))
        rk.evaluate(rk.solve(rk.assemble(rk.homogenize(problem), nodes, kernels)), 0.5, 0.5)

    def _node_sets(self, problem):
        sets = [rk.generate_nodes(self.n, self.n, (problem.interval, problem.T))]
        rng = np.random.default_rng([self.seed, 0])
        n = self.n
        ix, it = np.meshgrid(np.arange(n), np.arange(n))
        for _ in range(self.layouts):
            jitter = rng.uniform(0.25, 0.75, size=(2, n * n))
            nodes = np.column_stack([(ix.ravel() + jitter[0]) / n, (it.ravel() + jitter[1]) / n])
            sets.append(rk.NodeSet(nodes=nodes, generation={"kind": "jittered", "n": n}))
        return sets

    def prepare(self):
        problem, self.exact = rk.builtin_example(2, nu=1e-2)
        self.nu = problem.nu
        hom = rk.homogenize(problem)
        grid = rk.SpaceTimeGrid(n_x=self.oracle, n_t=self.oracle, interval=problem.interval,
                                horizon=problem.T)
        fd = rk.solve_coupled_fd(problem, grid)
        self.solutions, linf, disc = [], [], []
        for nodes in self._node_sets(problem):
            kernels = rk.standard_kernels(problem.interval, problem.T)
            sol = rk.solve(rk.assemble(hom, nodes, kernels))
            linf.append(rk.error_norms(sol, self.exact)["linf_y"])
            y, _, _ = sol.evaluate_grid(grid.xs, grid.ts)
            disc.append(float(np.abs(y - fd.y.values).max()))
            self.solutions.append(sol)
        self.layout_errors = (linf, disc)
        # the headline solve is the scattered one: the mean over its layouts
        self.linf_y = float(np.mean(linf[1:]))
        self.fd_disc_y = float(np.mean(disc[1:]))

    def check_prepare(self, checks):
        linf, disc = self.layout_errors
        checks.against("grid", self.refs["grid"], {"linf_y": linf[0], "fd_disc_y": disc[0]})
        bound = self.refs["linf_y_max"]
        for k, value in enumerate(linf[1:]):
            checks.true(f"layout {k} linf_y <= {bound:g}", value <= bound, f"{value:.4g}")

    def op(self, i):
        out = []
        for k in range(i * self.batch, (i + 1) * self.batch):
            x, t = self.points.uniform(0.0, 1.0, size=2)
            sol = 0 if k % 2 == 0 else 1 + k // 2 // self.PER_VISIT % self.layouts
            out.append((sol, x, t, rk.evaluate(self.solutions[sol], x, t)))
        return out

    def check(self, i, result, checks):
        """Each query against the closed form, and against evaluate_grid to round-off.

        The closed-form bound only catches gross errors (the method's own
        error is a few 1e-3); the second public path, evaluated on the
        tensor grid of each solution's query coordinates and read on its
        diagonal, pins every (y, p, u) to rtol 1e-9 of the field's scale.
        """
        bound = self.refs["point_err_max"]
        rtol = self.refs["grid_path_rtol"]
        values = np.array([v for _, _, _, v in result])
        scale = np.abs(values).max(axis=0)
        for sol in sorted({s for s, _, _, _ in result}):
            queries = [(x, t, v) for s, x, t, v in result if s == sol]
            xs, ts = [q[0] for q in queries], [q[1] for q in queries]
            grid = self.solutions[sol].evaluate_grid(xs, ts)
            for j, (x, t, v) in enumerate(queries):
                err = abs(v[0] - float(self.exact.y_exact(x, t)))
                checks.true("point |y - y_exact| within bound", err <= bound,
                            f"{err:.4g} at ({x:.6f}, {t:.6f})")
                for name, value, other, s in zip("ypu", v, (g[j, j] for g in grid), scale):
                    checks.true(f"point {name} equals evaluate_grid", abs(value - other) <= rtol * s,
                                f"{value!r} vs {other!r} at ({x:.6f}, {t:.6f})")
                checks.true("u == p / nu", v[2] == v[1] / self.nu)


def make(name: str, workdir: str, seed: int, references: dict, **sizes):
    """Workload by name; ``sizes`` override the full-size parameters."""
    if name == "grid-cli":
        return GridCli(workdir, seed, references[name], **sizes)
    if name == "small-sweep":
        return SmallSweep(workdir, seed, references[name], **sizes)
    if name == "queries":
        return Queries(workdir, seed, references[name], **sizes)
    raise ValueError(f"unknown workload {name!r}")

