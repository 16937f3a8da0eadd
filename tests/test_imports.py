"""What `import rkheat` loads, checked in a fresh interpreter.

The kernel solver and the finite-difference solve need numpy and
scipy.linalg only; scipy.interpolate (which itself loads scipy.sparse)
belongs to self_convergence and must be loaded on its first use, not at
import.
"""

import json
import os
import subprocess
import sys

import rkheat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rkheat.__file__)))
WATCHED = ("scipy.linalg", "scipy.sparse", "scipy.interpolate",
           "scipy.optimize", "scipy.special")

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
watched = sys.argv[2:]

def loaded():
    return {m: m in sys.modules for m in watched}

steps = {}
import rkheat as rk
import rkheat.cli
steps["import"] = loaded()
problem, _ = rk.builtin_example(1, nu=1e-2)
grid = rk.SpaceTimeGrid(n_x=4, n_t=4, interval=problem.interval, horizon=problem.T)
rk.solve_coupled_fd(problem, grid)
steps["solve_coupled_fd"] = loaded()
rk.self_convergence(problem, n_base=4, probe=(5, 5))
steps["self_convergence"] = loaded()
print(json.dumps(steps))
"""


def test_fd_modules_load_on_first_use():
    out = subprocess.run([sys.executable, "-c", PROBE, SRC, *WATCHED],
                         capture_output=True, text=True, check=True, timeout=60)
    steps = json.loads(out.stdout.strip().splitlines()[-1])
    assert steps["import"] == {"scipy.linalg": True, "scipy.sparse": False,
                               "scipy.interpolate": False, "scipy.optimize": False,
                               "scipy.special": False}
    assert steps["solve_coupled_fd"] == steps["import"]
    assert steps["self_convergence"]["scipy.interpolate"]
