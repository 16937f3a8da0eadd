"""What rkheat loads, checked in fresh interpreters.

Importing rkheat or rkheat.cli, printing the CLI help and rejecting an
unknown flag load numpy and no scipy module.  scipy.linalg loads at the
first LU, banded or block solve: rk.solve, rk.solve_picard and
rk.solve_coupled_fd import it where they call it, and each runs here as
the first caller in its own interpreter, so a missing import fails there.
self_convergence, which runs the banded solve, loads scipy.linalg too.  No
rkheat call loads scipy.interpolate or scipy.sparse.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import rkheat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rkheat.__file__)))
WATCHED = ("scipy.linalg", "scipy.sparse", "scipy.interpolate",
           "scipy.optimize", "scipy.special")
NONE_LOADED = dict.fromkeys(WATCHED, False)
LINALG_ONLY = dict(NONE_LOADED, **{"scipy.linalg": True})

# steps[name] = which watched modules are loaded at mark(name); the probe
# prints steps as its last line
PRELUDE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
watched, steps = sys.argv[2:], {}

def mark(name):
    steps[name] = {m: m in sys.modules for m in watched}

import rkheat as rk
import rkheat.cli
mark("import")
problem, _ = rk.builtin_example(1, nu=1e-2)
domain = (problem.interval, problem.T)
"""

SYSTEM = """
system = rk.assemble(rk.homogenize(problem), rk.generate_nodes(4, 4, domain),
                     rk.standard_kernels(*domain))
mark("assemble")
"""

USAGE = """
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rkheat.cli.main(["--help"])
    except SystemExit as exc:
        steps["help_exit"] = exc.code
mark("help")
with contextlib.redirect_stderr(io.StringIO()):
    steps["unknown_flag_exit"] = rkheat.cli.main(["solve", "--no-such-flag"])
mark("unknown flag")
rk.self_convergence(problem, n_base=4)
mark("self_convergence")
"""

FIRST_SOLVES = {
    "solve": SYSTEM + """
sol = rk.solve(system)
mark("after")
steps["value"] = rk.evaluate(sol, 0.5, 0.5)[0]
""",
    "solve_picard": SYSTEM + """
sol, info = rk.solve_picard(system)
mark("after")
steps["value"] = rk.evaluate(sol, 0.5, 0.5)[0]
""",
    "solve_coupled_fd": """
fd = rk.solve_coupled_fd(problem, rk.SpaceTimeGrid(n_x=4, n_t=4, interval=problem.interval,
                                                   horizon=problem.T))
mark("after")
steps["value"] = float(fd.y.values.max())
""",
}


@pytest.fixture(scope="module")
def probes():
    """Each probe's steps, from fresh interpreters started all at once."""
    codes = dict(FIRST_SOLVES, usage=USAGE)
    procs = {name: subprocess.Popen(
        [sys.executable, "-c", PRELUDE + code + "\nprint(json.dumps(steps))", SRC, *WATCHED],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, code in codes.items()}
    return {name: proc.communicate(timeout=60) + (proc.returncode,)
            for name, proc in procs.items()}


def steps_of(probes, name):
    out, err, code = probes[name]
    assert code == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_import_and_cli_usage_load_no_scipy(probes):
    steps = steps_of(probes, "usage")
    assert (steps["help_exit"], steps["unknown_flag_exit"]) == (0, 2)
    for name in ("import", "help", "unknown flag"):
        assert steps[name] == NONE_LOADED, name
    assert steps["self_convergence"] == LINALG_ONLY


@pytest.mark.parametrize("call", sorted(FIRST_SOLVES))
def test_first_solve_loads_scipy_linalg_only(probes, call):
    steps = steps_of(probes, call)
    assert steps["import"] == steps.get("assemble", NONE_LOADED) == NONE_LOADED
    assert steps["after"] == LINALG_ONLY
    assert math.isfinite(steps["value"])


def test_public_names():
    names = rkheat.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(rkheat, name)
    for name in ("GridMismatch", "check_exact_consistency"):
        assert name not in names and not hasattr(rkheat, name)
