"""The benchmark's own reference checks, one operation per workload.

perfbench/run.py compares each operation's outputs with
perfbench/references.json at rtol 1e-9 (1e-6 for the nu = 1e-6 solve).
Those references sit at the rounding floor of the collocation matrix, so
a change to how the solve rounds can breach them while every other test
passes.  grid-cli and small-sweep run here, concurrently, in ~4 s; queries
is left out, since one of its operations takes ~5-12 s and its references
keep a margin of >= 1e-12 against 1e-9.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid-cli", "small-sweep")


@pytest.fixture(scope="module")
def results():
    """(details, result) of one zero-second run of each workload.

    The result is run.py's last stdout line, the details the line before.
    """
    procs = {name: subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in WORKLOADS}
    out = {}
    try:
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            info, result = stdout.strip().splitlines()[-2:]
            out[name] = json.loads(info)["details"], json.loads(result)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_checks_pass(workload, results):
    details, result = results[workload]
    assert result["correct"] is True, details["failed_checks"]
    assert result["failed"] == 0
