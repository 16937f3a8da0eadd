"""Smoke test of the benchmark itself, at tiny sizes (well under a minute).

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json it checks that an end-to-end run emits
exactly the declared end-to-end metrics and a traced run exactly the
declared per-layer metrics, each with its declared unit, and that both pass
their output checks against references recorded at the same tiny sizes.
Then it corrupts one reference value, and separately shifts every
``rk.evaluate`` result by 1e-6, and checks that each lowers ok_rate and
marks the result incorrect.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = {
    "grid-cli": {"n": 4, "eval_grid": 11},
    "small-sweep": {"sweep": "2x2,4x4", "c7_nodes": 3, "crosscheck_nodes": 3,
                    "oracle_grid": "8x8"},     # Picard stays at 8x8: it diverges at 4x4
    "queries": {"n": 4, "layouts": 2, "oracle": 8, "batch": 4},
}
LOOSE = {"linf_y_max": 1.0, "point_err_max": 1.0}


def tiny_references(full: dict) -> dict:
    """The reference layout of references.json, with values measured at TINY sizes."""
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import workloads
    refs = copy.deepcopy(full)
    workdir = os.path.join(run.OUT, "smoke-refs")
    try:
        for name, sizes in TINY.items():
            for key in LOOSE:
                if key in refs[name]:
                    refs[name][key] = LOOSE[key]
            checks = workloads.Checks()
            run.run_end_to_end(workloads.make(name, workdir, 0, refs, **sizes), 0.0, checks, 1)
            for group, observed in checks.observed.items():
                refs[name][group]["values"] = dict(observed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return refs


def expect(ok: bool, message: str, info: dict | None = None) -> None:
    if not ok:
        print(f"FAIL {message}")
        if info:
            print(json.dumps(info["details"].get("failed_checks")))
        sys.exit(1)
    print(f"ok   {message}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as f:
        refs = tiny_references(json.load(f))
    declared = {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for w in bench["workloads"]:
        name = w["name"]
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            info, result = run.benchmark(name, 0, 0.0, trace, refs, TINY[name], setup_samples=1)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == declared[kind], f"{name} {kind}: every declared metric, with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} {kind}: every value is a number")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} {kind}: output checks pass", info)
            if not trace:
                expect(result["metrics"]["ok_rate"]["value"] == 1.0, f"{name}: ok_rate is 1")

    broken = copy.deepcopy(refs)
    group = broken["grid-cli"]["solve"]["values"]
    group["norms.linf_y"] *= 1.01
    _, result = run.benchmark("grid-cli", 0, 0.0, False, broken, TINY["grid-cli"], setup_samples=1)
    expect(result["metrics"]["ok_rate"]["value"] < 1.0 and not result["correct"],
           "a corrupted reference value lowers ok_rate and marks the run incorrect")

    import rkheat
    evaluate = rkheat.evaluate

    def shifted(sol, x, t):
        y, p, u = evaluate(sol, x, t)
        return y + 1e-6, p, u

    rkheat.evaluate = shifted
    try:
        _, result = run.benchmark("queries", 0, 0.0, False, refs, TINY["queries"],
                                  setup_samples=1)
    finally:
        rkheat.evaluate = evaluate
    expect(result["metrics"]["ok_rate"]["value"] < 1.0 and not result["correct"],
           "rk.evaluate off by 1e-6 fails the evaluate_grid comparison")
    return 0


if __name__ == "__main__":
    sys.exit(main())
