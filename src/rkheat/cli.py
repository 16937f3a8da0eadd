"""Command-line benchmark harness.

Three subcommands: ``solve`` runs the full kernel pipeline on a built-in
problem and writes solution.csv, slices.csv and report.json; ``convergence``
repeats the solve over a sweep of node counts and writes convergence.csv;
``crosscheck`` runs the kernel solver against the finite-difference solver
and reports their discrepancy and each one's error against the closed form.

Configuration comes from subcommand flags, optionally seeded by a flat
key = value file (--config) whose keys are the flag names with "_" for "-";
the file's entries parse as flags placed before the explicit ones, so
explicit flags win.  Output is deterministic: rerunning a command with the
same configuration reproduces the CSV files byte for byte.  Exit codes: 0
success, 2 usage or configuration error, 3 numerical failure; failures
print a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .collocation import (assemble, error_norms, exact_grid, generate_nodes,
                          grid_error_norms, solve, solve_picard, standard_kernels)
from .errors import (GridMismatch, KernelDomainMismatch, NonDifferentiableData,
                     NumericallySingular, OutOfDomain, SingularConditionSystem,
                     SingularDiscretization, UnknownExample)
from .fd_reference import error_vs_exact, solve_coupled_fd
from .grids import GridField, SpaceTimeGrid
from .problems import builtin_example, cost_functional, homogenize

__all__ = ["RunConfig", "main"]

PROSE_SLICE_TIMES = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
CAPTION_SLICE_TIMES = (0.0, 0.2, 0.5, 0.7, 0.9, 1.0)

SOLUTION_HEADER = ["x", "t", "y_exact", "y_approx", "p_exact", "p_approx",
                   "u_exact", "u_approx", "err_y", "err_p"]
CONVERGENCE_HEADER = ["n_total", "linf_y", "l2_y", "linf_p", "l2_p",
                      "cond_estimate", "seconds"]


class UsageError(Exception):
    pass


_USAGE_ERRORS = (UsageError, UnknownExample, GridMismatch, OutOfDomain,
                 NonDifferentiableData, KernelDomainMismatch, ValueError)
_NUMERICAL_ERRORS = (NumericallySingular, SingularDiscretization,
                     SingularConditionSystem, np.linalg.LinAlgError)


@dataclass(frozen=True)
class RunConfig:
    example_id: int = 1
    nu: float = 1e-2
    n_x: int = 8
    n_t: int = 8
    eval_grid: tuple[int, int] = (101, 101)
    mode: str = "direct"
    output_dir: str = "."
    slice_times: str = "prose"

    def __post_init__(self):
        if self.example_id not in (1, 2, 3):
            raise UsageError(f"example must be 1, 2 or 3, got {self.example_id}")
        if not 0 < self.nu < math.inf:
            raise UsageError(f"nu must be positive and finite, got {self.nu}")
        if self.n_x < 1 or self.n_t < 1 or min(self.eval_grid) < 2:
            raise UsageError("node counts must be >= 1 and eval grid >= 2 per axis")
        if self.mode not in ("direct", "picard"):
            raise UsageError(f"mode must be direct or picard, got {self.mode!r}")
        if self.slice_times not in ("prose", "caption"):
            raise UsageError("slice-times must be prose or caption")


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.lower().replace(" ", "").split("x")
    if len(parts) != 2:
        raise UsageError(f"expected WIDTHxHEIGHT dimensions, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad dimensions {text!r}") from exc


def _parse_sweep(text: str) -> list[tuple[int, int]]:
    pairs = [p for p in text.replace(" ", "").split(",") if p]
    sweep = [_parse_dims(p) for p in pairs]
    if len(sweep) < 2:
        raise UsageError("sweep needs at least two grid sizes")
    return sweep


def _config_tokens(path: str, args) -> list[str]:
    """A flat key = value file as --key=value flags, "_" in a key read as "-".

    A shared file's sweep and oracle_grid keys are skipped by the
    subcommands that do not take them.
    """
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                if key == "config":
                    raise UsageError(f"{path}:{lineno}: a config file cannot name another")
                if key in ("sweep", "oracle_grid") and not hasattr(args, key):
                    continue
                tokens.append(f"--{key.replace('_', '-')}={value}")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return tokens


def _resolve_config(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
                        if getattr(args, f.name) is not None})


# -- pipeline pieces -----------------------------------------------------


def _run_pipeline(cfg: RunConfig):
    problem, exact = builtin_example(cfg.example_id, nu=cfg.nu)
    hom = homogenize(problem)
    kernels = standard_kernels(problem.interval, problem.T)
    nodes = generate_nodes(cfg.n_x, cfg.n_t, (problem.interval, problem.T))
    system = assemble(hom, nodes, kernels)
    if cfg.mode == "picard":
        sol, _ = solve_picard(system)
    else:
        sol = solve(system)
    return problem, exact, sol


def _heldout_residuals(sol, problem, n_x: int, n_t: int) -> dict:
    """Residual maxima on a midpoint grid offset from the nodes."""
    (a, b), T = problem.interval, problem.T
    xs = a + (np.arange(1, n_x + 2) - 0.5) * (b - a) / (n_x + 1)
    ts = (np.arange(1, n_t + 2) - 0.5) * T / (n_t + 1)
    forward, adjoint = sol.residuals(xs, ts)
    return {"forward_max": float(np.abs(forward).max()),
            "adjoint_max": float(np.abs(adjoint).max())}


def _cost(sol, problem, n: int = 100) -> float:
    grid = SpaceTimeGrid(n_x=n - 1, n_t=n - 1, interval=problem.interval,
                         horizon=problem.T)
    Y, _, U = sol.evaluate_grid(grid.xs, grid.ts)
    return cost_functional(GridField(grid, Y), GridField(grid, U), problem)


def _grid_values(sol, exact, xs, ts):
    """(Y, P, U) of the solution and of the closed forms on the grid."""
    return sol.evaluate_grid(xs, ts), exact_grid(exact, xs, ts)


def _solution_rows(xs, ts, approx, reference):
    (Y, P, U), (Ye, Pe, Ue) = approx, reference
    X, Tt = np.meshgrid(xs, ts)
    return np.column_stack([c.ravel() for c in
                            (X, Tt, Ye, Y, Pe, P, Ue, U, np.abs(Y - Ye), np.abs(P - Pe))])


def _write_csv(path: str, header, rows) -> None:
    """Header line, then one "%.17g" line per row (round-trip exact)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        np.savetxt(f, rows, fmt="%.17g", delimiter=",")


def _emit_report(report: dict, path: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    print(text)


# -- subcommands ---------------------------------------------------------


def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    os.makedirs(cfg.output_dir, exist_ok=True)
    t0 = time.perf_counter()
    problem, exact, sol = _run_pipeline(cfg)

    ne_x, ne_t = cfg.eval_grid
    xs = np.linspace(problem.a, problem.b, ne_x)
    ts = np.linspace(0.0, problem.T, ne_t)
    values = _grid_values(sol, exact, xs, ts)
    norms = grid_error_norms(*values, xs, ts)
    _write_csv(os.path.join(cfg.output_dir, "solution.csv"),
               SOLUTION_HEADER, _solution_rows(xs, ts, *values))

    slice_ts = np.asarray(PROSE_SLICE_TIMES if cfg.slice_times == "prose"
                          else CAPTION_SLICE_TIMES) * problem.T
    _write_csv(os.path.join(cfg.output_dir, "slices.csv"), SOLUTION_HEADER,
               _solution_rows(xs, slice_ts, *_grid_values(sol, exact, xs, slice_ts)))

    report = {
        "config": dataclasses.asdict(cfg),
        "norms": norms,
        "cond": sol.info.get("cond"),
        "solver": sol.info.get("solver"),
        "residuals": _heldout_residuals(sol, problem, cfg.n_x, cfg.n_t),
        "j_cost": _cost(sol, problem),
        "seconds": time.perf_counter() - t0,
    }
    if "picard" in sol.info:
        report["picard"] = sol.info["picard"]
    _emit_report(report, os.path.join(cfg.output_dir, "report.json"))
    return 0


def cmd_convergence(args) -> int:
    cfg = _resolve_config(args)
    os.makedirs(cfg.output_dir, exist_ok=True)

    rows = []
    prev_l2 = None
    violations = []
    for n_x, n_t in args.sweep:
        run_cfg = dataclasses.replace(cfg, n_x=n_x, n_t=n_t)
        t0 = time.perf_counter()
        _, exact, sol = _run_pipeline(run_cfg)
        seconds = time.perf_counter() - t0
        norms = error_norms(sol, exact, eval_grid=cfg.eval_grid)
        cond_est = sol.info.get("cond", {}).get("post", float("nan"))
        rows.append([n_x * n_t, norms["linf_y"], norms["l2_y"],
                     norms["linf_p"], norms["l2_p"], cond_est, seconds])
        if prev_l2 is not None and norms["l2_y"] > 1.05 * prev_l2:
            violations.append((n_x, n_t, prev_l2, norms["l2_y"]))
        prev_l2 = norms["l2_y"]

    _write_csv(os.path.join(cfg.output_dir, "convergence.csv"),
               CONVERGENCE_HEADER, rows)
    for n_x, n_t, before, after in violations:
        print(json.dumps({"warning": "l2_y is not non-increasing within 5%",
                          "grid": f"{n_x}x{n_t}",
                          "previous": before, "current": after}),
              file=sys.stderr)
    print(json.dumps({"sweep": [f"{nx}x{nt}" for nx, nt in args.sweep],
                      "rows": len(rows), "violations": len(violations),
                      "out": os.path.join(cfg.output_dir, "convergence.csv")}))
    return 0


def cmd_crosscheck(args) -> int:
    cfg = _resolve_config(args)
    os.makedirs(cfg.output_dir, exist_ok=True)

    t0 = time.perf_counter()
    problem, exact, sol = _run_pipeline(cfg)
    n_x, n_t = args.oracle_grid
    grid = SpaceTimeGrid(n_x=n_x, n_t=n_t,
                         interval=problem.interval, horizon=problem.T)
    fd = solve_coupled_fd(problem, grid)

    Yk, Pk, _ = sol.evaluate_grid(grid.xs, grid.ts)
    disc_y = float(np.abs(Yk - fd.y.values).max())
    disc_p = float(np.abs(Pk - fd.p.values).max())

    report = {
        "config": dataclasses.asdict(cfg),
        "oracle_grid": list(args.oracle_grid),
        "discrepancy": {"y": disc_y, "p": disc_p},
        "kernel_error": error_norms(sol, exact, eval_grid=cfg.eval_grid),
        "oracle_error": {
            "y": error_vs_exact(fd.y, exact.y_exact),
            "p": error_vs_exact(fd.p, exact.p_exact),
        },
        "cond": sol.info.get("cond"),
        "seconds": time.perf_counter() - t0,
    }
    _emit_report(report, os.path.join(cfg.output_dir, "crosscheck.json"))
    return 0


# -- entry point ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting; flag names are never abbreviated."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _add_common(sub) -> None:
    # dests are the RunConfig fields; RunConfig checks every value
    sub.add_argument("--example", dest="example_id", type=int, metavar="{1,2,3}")
    sub.add_argument("--nu", type=float)
    sub.add_argument("--nx", dest="n_x", type=int, metavar="NX")
    sub.add_argument("--nt", dest="n_t", type=int, metavar="NT")
    sub.add_argument("--mode", metavar="{direct,picard}")
    sub.add_argument("--eval-grid", type=_parse_dims, metavar="NXxNT")
    sub.add_argument("--out", dest="output_dir", metavar="DIR")
    sub.add_argument("--slice-times", metavar="{prose,caption}")
    sub.add_argument("--config", metavar="FILE",
                     help="flat key = value file; flags override it")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rkheat",
                     description="kernel collocation benchmarks for the "
                                 "coupled heat-control system")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="run one configuration")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_conv = subs.add_parser("convergence", help="node-count sweep")
    _add_common(p_conv)
    p_conv.add_argument("--sweep", type=_parse_sweep, default="4x4,8x8,12x12,16x16",
                        metavar="N1xM1,N2xM2,...",
                        help="comma-separated grid sizes (at least two)")
    p_conv.set_defaults(func=cmd_convergence)

    p_cross = subs.add_parser("crosscheck",
                              help="kernel solver vs finite differences")
    _add_common(p_cross)
    p_cross.add_argument("--oracle-grid", type=_parse_dims, default="64x64",
                         metavar="NXxNT")
    p_cross.set_defaults(func=cmd_crosscheck)
    return parser


def _fail(code: int, exc: Exception) -> int:
    print(json.dumps({"error": type(exc).__name__, "reason": str(exc)}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file entries go after the subcommand and before the flags,
            # so that a flag given on both wins
            tokens = _config_tokens(args.config, args)
            try:
                args = parser.parse_args(argv[:1] + tokens + argv[1:])
            except UsageError as exc:
                raise UsageError(f"{args.config}: {exc}") from exc
        return args.func(args)
    except _USAGE_ERRORS as exc:
        return _fail(2, exc)
    except _NUMERICAL_ERRORS as exc:
        return _fail(3, exc)


if __name__ == "__main__":
    sys.exit(main())
