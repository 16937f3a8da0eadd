"""Steadiness mode: repeat runs per workload and compare spreads with bounds.

    python3 perfbench/steady.py --runs 10 [--workloads grid-cli,queries]
                                [--save A.json] [--against B.json [--agree]]

Each run is a fresh ``run.py`` process with its own seed (first seed + run
index).  For every end-to-end metric and workload it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  A
spread is "steady" below a third of its bound and fails above the bound.
``--against`` compares this set's medians with a set saved earlier by
``--save``: a median worse by more than the bound fails, as for a change
measured against its parent.  With ``--agree`` the two sets are taken to be
of the same code, and a median that moved by more than the bound in either
direction fails.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(new: float, old: float, better: str) -> float:
    """Share of old by which new is worse (negative when better)."""
    return (new - old) / abs(old) if better == "lower" else (old - new) / abs(old)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--save", default=None, help="write all values to this JSON file")
    parser.add_argument("--against", default=None, help="compare medians with a saved set")
    parser.add_argument("--agree", action="store_true",
                        help="with --against: the sets are of the same code, test |change|")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values: dict[str, dict[str, list[float]]] = {}
    failed = False
    for workload in names:
        values[workload] = {m["name"]: [] for m in metrics}
        for k in range(args.runs):
            result = run_once(workload, args.first_seed + k, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.first_seed + k}: incorrect result", file=sys.stderr)
                failed = True
            for m in metrics:
                values[workload][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"# {workload} run {k + 1}/{args.runs} done", file=sys.stderr, flush=True)

    previous = None
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            previous = json.load(f)
    print(f"{'workload':16} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload in names:
        for m in metrics:
            vals = values[workload][m["name"]]
            med, q1, q3, rel = spread(vals)
            verdict = ["steady" if rel < m["bound"] / 3 else
                       "within-bound" if rel <= m["bound"] else "TOO-WIDE"]
            failed |= rel > m["bound"]
            if previous is not None:
                old = statistics.median(previous[workload][m["name"]])
                change = worse_by(med, old, m["better"])
                verdict.append(f"vs-saved {change:+.3f}")
                if (abs(change) if args.agree else change) > m["bound"]:
                    verdict.append("DISAGREES" if args.agree else "WORSE")
                    failed = True
            print(f"{workload:16} {m['name']:12} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{rel:8.4f} {m['bound']:6g}  {' '.join(verdict)}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(values, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
