"""The benchmark's own reference checks, one operation per workload.

perfbench/run.py compares each operation's outputs with
perfbench/references.json at rtol 1e-9 (1e-6 for the nu = 1e-6 solve).
Those references sit at the rounding floor of the collocation matrix, so
a change to how the solve rounds can breach them while every other test
passes.  grid-cli and small-sweep run here, concurrently, in ~4 s; queries
is left out, since one of its operations takes ~5-12 s and its references
keep a margin of >= 1e-12 against 1e-9.  perfbench/smoke.py runs beside
them (~3.5 s alone): it is the one run here of the traced path, which
reads CollocationSystem.A and wraps functions of rkheat by name.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid-cli", "small-sweep")


@pytest.fixture(scope="module")
def runs():
    """(exit code, stdout, stderr) of each script, all run concurrently:
    one zero-second run of each workload, and perfbench/smoke.py."""
    commands = {name: [os.path.join("perfbench", "run.py"), "--workload", name,
                       "--seconds", "0", "--trace", "0"] for name in WORKLOADS}
    commands["smoke"] = [os.path.join("perfbench", "smoke.py")]
    procs = {name: subprocess.Popen(
        [sys.executable] + command,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, command in commands.items()}
    out = {}
    try:
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            out[name] = proc.returncode, stdout, stderr
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_checks_pass(workload, runs):
    # run.py's last stdout line is the result, the line before the details
    returncode, stdout, stderr = runs[workload]
    assert returncode == 0, stderr
    info, result = (json.loads(line) for line in stdout.strip().splitlines()[-2:])
    assert result["correct"] is True, info["details"]["failed_checks"]
    assert result["failed"] == 0


def test_smoke_passes(runs):
    returncode, stdout, stderr = runs["smoke"]
    assert returncode == 0, stdout + stderr
