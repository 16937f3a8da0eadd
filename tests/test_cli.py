import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rkheat.cli as cli
import rkheat.collocation as collocation
from oracles import write_csv_reference
from rkheat.errors import NumericallySingular
from rkheat.problems import builtin_example, cost_functional

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SOLVE_ARGS = ["solve", "--example", "1", "--nu", "1e-2", "--nx", "4", "--nt", "4",
              "--eval-grid", "21x21"]


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestSolveCommand:
    def test_smoke(self, tmp_path, capsys):
        rc = cli.main(SOLVE_ARGS + ["--out", str(tmp_path)])
        assert rc == 0
        for name in ("solution.csv", "slices.csv", "report.json"):
            assert (tmp_path / name).exists()
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"config", "norms", "cond", "residuals",
                               "j_cost", "seconds"}
        for v in report["norms"].values():
            assert np.isfinite(v) and v >= 0
        assert set(report["cond"]) == {"pre", "post"}
        assert set(report["solver"]) == {"backward_error", "refinement_change"}
        assert set(report["residuals"]) == {"forward_max", "adjoint_max"}

    def test_norms_match_error_norms(self, tmp_path, capsys):
        # the norms come from the arrays solution.csv is written from
        cli.main(SOLVE_ARGS + ["--out", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        _, exact, sol = cli._run_pipeline(cli.RunConfig(n_x=4, n_t=4, eval_grid=(21, 21)))
        assert report["norms"] == collocation.error_norms(sol, exact, eval_grid=(21, 21))

    def test_cost_from_solution_csv(self, tmp_path, capsys):
        # j_cost is J on the evaluation grid, from the samples solution.csv holds
        cli.main(SOLVE_ARGS + ["--out", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        rows = read_csv(tmp_path / "solution.csv")
        xs = np.array([float(r["x"]) for r in rows[:21]])
        ts = np.array([float(r["t"]) for r in rows[::21]])
        Y, U = (np.array([float(r[k]) for r in rows]).reshape(21, 21)
                for k in ("y_approx", "u_approx"))
        problem, _ = builtin_example(1, nu=1e-2)
        assert report["j_cost"] == cost_functional(Y, U, xs, ts, problem)

    def test_grid_evaluated_once_per_file(self, tmp_path, monkeypatch):
        calls = []
        evaluate_grid = collocation.Solution.evaluate_grid

        def counting(sol, xs, ts):
            calls.append(len(ts))
            return evaluate_grid(sol, xs, ts)

        monkeypatch.setattr(collocation.Solution, "evaluate_grid", counting)
        assert cli.main(SOLVE_ARGS + ["--out", str(tmp_path)]) == 0
        assert calls == [21, len(cli.PROSE_SLICE_TIMES)]

    def test_solution_header_and_order(self, tmp_path):
        cli.main(SOLVE_ARGS + ["--out", str(tmp_path)])
        with open(tmp_path / "solution.csv", newline="") as f:
            header = f.readline().strip()
        assert header == "x,t,y_exact,y_approx,p_exact,p_approx,u_exact,u_approx,err_y,err_p"
        rows = read_csv(tmp_path / "solution.csv")
        assert len(rows) == 21 * 21
        # t-major: t constant along each block of 21 consecutive rows
        ts = [float(r["t"]) for r in rows]
        assert ts[:21] == [0.0] * 21

    def test_initial_slice_rows_zero(self, tmp_path):
        cli.main(SOLVE_ARGS + ["--out", str(tmp_path)])
        rows = [r for r in read_csv(tmp_path / "slices.csv") if float(r["t"]) == 0.0]
        assert len(rows) == 21
        assert all(float(r["y_approx"]) == 0.0 for r in rows)

    def test_prose_and_caption_slice_times(self, tmp_path):
        cli.main(SOLVE_ARGS + ["--out", str(tmp_path / "prose")])
        times = sorted({float(r["t"])
                        for r in read_csv(tmp_path / "prose" / "slices.csv")})
        assert times == [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        cli.main(SOLVE_ARGS + ["--slice-times", "caption",
                               "--out", str(tmp_path / "caption")])
        times = sorted({float(r["t"])
                        for r in read_csv(tmp_path / "caption" / "slices.csv")})
        assert times == [0.0, 0.2, 0.5, 0.7, 0.9, 1.0]

    def test_rerun_byte_identical(self, tmp_path):
        cli.main(SOLVE_ARGS + ["--out", str(tmp_path)])
        first = (tmp_path / "solution.csv").read_bytes()
        slices_first = (tmp_path / "slices.csv").read_bytes()
        cli.main(SOLVE_ARGS + ["--out", str(tmp_path)])
        assert (tmp_path / "solution.csv").read_bytes() == first
        assert (tmp_path / "slices.csv").read_bytes() == slices_first

    def test_picard_mode_reported(self, tmp_path, capsys):
        rc = cli.main(["solve", "--example", "1", "--nu", "0.1", "--nx", "4",
                       "--nt", "4", "--eval-grid", "11x11", "--mode", "picard",
                       "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["picard"]["converged"] is True
        assert report["cond"] is None and report["solver"] is None

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nexample = 2\nnu = 0.05\nnx = 3\nnt = 3\n"
                       "eval_grid = 11x11\n")
        rc = cli.main(["solve", "--config", str(cfg), "--nu", "0.1",
                       "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["example_id"] == 2
        assert report["config"]["nu"] == 0.1          # flag wins over file
        assert report["config"]["n_x"] == 3

    def test_config_file_matches_flags(self, tmp_path, capsys):
        flags = ["--example", "2", "--nu", "0.05", "--nx", "3", "--nt", "2",
                 "--eval-grid", "11x9", "--mode", "direct",
                 "--slice-times", "caption", "--out", str(tmp_path)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("example = 2\nnu = 0.05\nnx = 3\nnt = 2\neval_grid = 11x9\n"
                       "mode = direct\nslice_times = caption\n"
                       f"out = {tmp_path}\n")
        configs = []
        for argv in (["solve"] + flags, ["solve", "--config", str(cfg)]):
            assert cli.main(argv) == 0
            configs.append(json.loads((tmp_path / "report.json").read_text())["config"])
        assert configs[0] == configs[1]
        assert configs[0]["eval_grid"] == [11, 9]

    def test_config_keys_of_other_subcommands_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("nx = 4\nnt = 4\neval_grid = 11x11\nsweep = 2x2,3x3\n"
                       "oracle_grid = 12x12\n")
        common = ["--config", str(cfg), "--out", str(tmp_path)]
        assert cli.main(["solve"] + common) == 0
        assert cli.main(["convergence"] + common) == 0
        assert len(read_csv(tmp_path / "convergence.csv")) == 2
        capsys.readouterr()
        assert cli.main(["crosscheck"] + common) == 0
        assert json.loads(capsys.readouterr().out)["oracle_grid"] == [12, 12]


class TestCsvFormat:
    HEADER = ["n_total", "value", "other"]

    @pytest.mark.parametrize("rows", [
        [[16, -0.0, 1e-300], [64, float("inf"), -float("inf")],
         [144, float("nan"), 0.1], [256, -1.0 / 3.0, 2.0 ** 60]],
        np.array([[0.0, -0.0, 5e-324], [1.5, 21700000.0, -1e17],
                  [np.nan, np.inf, 0.30000000000000004]]),
        [[1, 2.5, -0.0]],
        np.array([[np.pi, -np.e, 1e-17]]),
    ], ids=["list", "array", "one-row-list", "one-row-array"])
    def test_bytes_match_row_by_row_writer(self, tmp_path, rows):
        cli._write_csv(tmp_path / "new.csv", self.HEADER, rows)
        write_csv_reference(tmp_path / "ref.csv", self.HEADER, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestFailureModes:
    def test_unknown_flag_usage_error(self, capsys):
        rc = cli.main(["solve", "--frobnicate"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UsageError"

    def test_bad_example_value(self, capsys):
        rc = cli.main(["solve", "--example", "7"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "UsageError"

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        rc = cli.main(["solve", "--config", str(cfg)])
        assert rc == 2
        assert "frobnicate" in json.loads(capsys.readouterr().err.strip())["reason"]

    @pytest.mark.parametrize("key, value, via_config", [
        pytest.param("ex", "2", False, id="flag"),
        pytest.param("ex", "2", True, id="config"),
        pytest.param("ridge", "1e-12", False, id="ridge-flag"),
    ])
    def test_abbreviated_name_rejected(self, tmp_path, capsys, key, value, via_config):
        # neither is a flag: --ex only abbreviates --example, and there is no --ridge
        argv = [f"--{key}", value]
        if via_config:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv = ["--config", str(tmp_path / "run.cfg")]
        rc = cli.main(["solve"] + argv + ["--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UsageError"
        assert f"--{key}" in err["reason"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("line,name", [("nx = four", "--nx"), ("mode = picrad", "mode"),
                                           ("config = other.cfg", "config"),
                                           ("ridge = 1e-12", "--ridge")])
    def test_bad_config_value(self, tmp_path, capsys, line, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UsageError"
        assert name in err["reason"]

    @pytest.mark.parametrize("argv", [["--nu", "nan"], ["--nu", "inf"]], ids=["nu-nan", "nu-inf"])
    def test_nonfinite_parameter_named(self, tmp_path, capsys, argv):
        rc = cli.main(SOLVE_ARGS + argv + ["--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "UsageError"
        assert err["reason"].startswith(argv[0][2:] + " must be")

    def test_single_point_sweep_rejected(self, capsys):
        rc = cli.main(["convergence", "--sweep", "4x4"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "UsageError"

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(system):
            raise NumericallySingular("synthetic failure")
        monkeypatch.setattr(cli, "solve", boom)
        rc = cli.main(SOLVE_ARGS + ["--out", str(tmp_path)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NumericallySingular"
        assert err["reason"] == "synthetic failure"

    def test_diverging_picard_prints_one_line(self, tmp_path):
        # run with Python's default warning filters, where numpy's overflow
        # warning used to reach stderr ahead of the JSON line
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "rkheat", "solve", "--example", "1", "--nu", "1e-6",
             "--nx", "8", "--nt", "8", "--mode", "picard", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert json.loads(lines[0])["error"] == "NumericallySingular"

    @pytest.mark.parametrize("mode_args", [[], ["--mode", "picard"]], ids=["direct", "picard"])
    def test_nonfinite_target_named(self, tmp_path, capsys, monkeypatch, mode_args):
        def example_with_nan_target(example_id, nu):
            problem, exact = builtin_example(example_id, nu=nu)
            y_d = problem.y_d
            return dataclasses.replace(
                problem, y_d=lambda x, t: np.where(x < 0.3, np.nan, y_d(x, t))), exact
        monkeypatch.setattr(cli, "builtin_example", example_with_nan_target)
        rc = cli.main(SOLVE_ARGS + mode_args + ["--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "y_d - y_hat is not finite at 4 of 16 nodes" in err["reason"]

    @pytest.mark.parametrize("mode_args", [[], ["--mode", "picard"]], ids=["direct", "picard"])
    def test_nu_whose_reciprocal_overflows_named(self, tmp_path, capsys, mode_args):
        rc = cli.main(SOLVE_ARGS + mode_args + ["--nu", "1e-309", "--out", str(tmp_path)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["reason"] == "nu = 1e-309 is too small: -1/nu overflows"

    def test_size_over_physical_memory_refused(self, tmp_path, capsys, monkeypatch):
        # 4x4 nodes: 1.5 * 32^2 * 8 B = 12 KB estimated against an 8 KB
        # budget; the 2x2 evaluation grid, 800 B estimated, fits
        monkeypatch.setattr(collocation, "_physical_memory", lambda: 2 ** 13)
        rc = cli.main(SOLVE_ARGS + ["--eval-grid", "2x2", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "16 nodes need an estimated" in err["reason"]
        assert not (tmp_path / "solution.csv").exists()

    @pytest.mark.parametrize("argv, reason", [
        (SOLVE_ARGS + ["--eval-grid", "101x101"], "--eval-grid 101x101 needs an estimated 2 MB"),
        (["convergence", "--eval-grid", "101x101"], "--eval-grid 101x101 needs an estimated 2 MB"),
        (["crosscheck", "--eval-grid", "2x2", "--oracle-grid", "64x64"],
         "--oracle-grid 64x64 needs an estimated 2 MB"),
    ], ids=["solve", "convergence", "crosscheck"])
    def test_grid_over_physical_memory_refused(self, tmp_path, capsys, monkeypatch, argv,
                                               reason):
        # refused before anything is solved or written: 200 B per evaluation
        # and 480 B per oracle grid point against a 1 MB budget
        monkeypatch.setattr(collocation, "_physical_memory", lambda: 2 ** 20)
        monkeypatch.setattr(cli, "assemble", lambda *args: pytest.fail("assembled"))
        out = tmp_path / "out"
        rc = cli.main(argv + ["--out", str(out)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["reason"].startswith(reason)
        assert err["reason"].endswith("more than the 1 MB of physical memory")
        assert not out.exists()


class TestConvergenceCommand:
    def test_two_point_sweep(self, tmp_path, capsys):
        rc = cli.main(["convergence", "--example", "1", "--nu", "1e-2",
                       "--sweep", "4x4,8x8", "--eval-grid", "21x21",
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "convergence.csv", newline="") as f:
            header = f.readline().strip()
        assert header == "n_total,linf_y,l2_y,linf_p,l2_p,cond_estimate,seconds"
        rows = read_csv(tmp_path / "convergence.csv")
        assert [int(r["n_total"]) for r in rows] == [16, 64]
        assert float(rows[1]["l2_y"]) <= 1.05 * float(rows[0]["l2_y"])
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == 0


class TestCrosscheckCommand:
    def test_report_contents(self, tmp_path, capsys):
        rc = cli.main(["crosscheck", "--example", "1", "--nu", "1e-2",
                       "--nx", "8", "--nt", "8", "--oracle-grid", "24x24",
                       "--eval-grid", "21x21", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_grid"] == [24, 24]
        assert set(report["discrepancy"]) == {"y", "p"}
        assert report["discrepancy"]["y"] < 5e-3
        assert set(report["cond"]) == {"pre", "post"}
        assert (tmp_path / "crosscheck.json").exists()
