"""rkheat benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload grid-cli --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line is a JSON object whose
``metrics`` hold every end-to-end metric of BENCHMARK.json; with
``--trace 1`` they hold every per-layer metric.  The line before it holds
the environment block and details (sample counts, tail percentile,
failed checks).  Scratch output goes to ``.perfbench_out/`` in the checkout.
See README.md next to this file for the design.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import rkheat; "
                 "print(repr(time.monotonic()))")


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter to a completed `import rkheat`."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip()) - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples above it.

    Below 20 samples no percentile from the median up has ten samples above
    it; the maximum is reported then, as percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


# -- environment -------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process, by library file."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "blas_threads_exceed_nproc": any(t > nproc for t in threads.values()),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- runs --------------------------------------------------------------------


def _timed_op(wl, i, checks) -> tuple[float, bool]:
    """Run operation i timed, then check it untimed; return (seconds, passed)."""
    before = len(checks.failures)
    t0 = time.perf_counter()
    try:
        result = wl.op(i)
    except Exception as exc:        # a failed operation is counted, not fatal
        elapsed = time.perf_counter() - t0
        checks.true(f"operation {i} completed", False, f"{type(exc).__name__}: {exc}")
        return elapsed, False
    elapsed = time.perf_counter() - t0
    checks.true(f"operation {i} completed", True)
    try:
        wl.check(i, result, checks)
    except Exception as exc:        # e.g. an output file the operation did not write
        checks.true(f"operation {i} outputs readable", False, f"{type(exc).__name__}: {exc}")
    return elapsed, len(checks.failures) == before


def run_end_to_end(wl, seconds: float, checks,
                   setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Operations until `seconds` of them are timed, each followed by a set-up sample.

    The untimed checks do not use up `seconds`.  Set-up is sampled between
    operations, across the whole run, because the host's speed changes in
    stretches of seconds and samples taken back to back land in one of them.
    """
    wl.prepare()
    wl.check_prepare(checks)
    wl.warm()
    times, setup, failed = [], [], 0
    while not times or sum(times) < seconds:
        elapsed, passed = _timed_op(wl, len(times), checks)
        times.append(elapsed)
        failed += not passed
        setup.append(measure_setup())
    while len(setup) < setup_samples:
        setup.append(measure_setup())
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(times),
        "run_s_tail": tail_value,
        "linf_y": wl.linf_y,
        "fd_disc_y": wl.fd_disc_y,
    }
    details = {"operations": len(times), "failed_operations": failed,
               "run_s_tail_percentile": tail_pct,
               "run_s_quartiles": statistics.quantiles(times, n=4) if len(times) > 1 else times,
               "setup_samples": setup}
    return metrics, details


def run_traced(wl, seconds: float, checks) -> tuple[dict, dict]:
    """Alternate an untraced and a traced unit of work until `seconds` pass.

    A unit is one operation, preceded by the preparation for workloads with
    ``traced_prepare``.  Per-layer values are totals per unit, averaged over
    the traced units.
    """
    from tracing import PER_LAYER, Tracer, dump_spans, layer_metrics

    if not wl.traced_prepare:
        wl.prepare()
    wl.warm()
    ops = []

    def unit(tracer):
        call = tracer.run if tracer else (lambda name, fn, *a: fn(*a))
        if wl.traced_prepare:
            call("prepare", wl.prepare)
        i = len(ops)
        ops.append(True)
        return i, call("op", wl.op, i)

    def check(i, result):
        if wl.traced_prepare:
            wl.check_prepare(checks)
        before = len(checks.failures)
        wl.check(i, result, checks)
        ops[i] = len(checks.failures) == before

    untraced, per_unit, spans = [], [], []
    deadline = time.perf_counter() + seconds
    while not per_unit or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        i, result = unit(None)
        untraced.append(time.perf_counter() - t0)
        check(i, result)

        tracer = Tracer()
        bytes_before = wl.bytes_written
        tracer.install()
        try:
            i, result = unit(tracer)
        finally:
            tracer.uninstall()
        per_unit.append(layer_metrics(tracer.spans, wl.bytes_written - bytes_before,
                                      tracer.assemble_peak()))
        spans.extend(tracer.spans)
        check(i, result)

    metrics = {name: statistics.fmean(u[name] for u in per_unit) for name in PER_LAYER}
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.fmean(untraced)
    path = os.path.join(OUT, f"trace-{wl.name}-seed{wl.seed}.json")
    dump_spans(spans, path)
    details = {"operations": len(ops), "failed_operations": ops.count(False),
               "prepare_in_unit": wl.traced_prepare,
               "traced_units": len(per_unit), "untraced_unit_s": untraced, "spans_file": path}
    return metrics, details


END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "run_s_tail": "s", "peak_rss_mb": "MB",
    "linf_y": "abs", "fd_disc_y": "abs", "ok_rate": "fraction",
}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, references: dict,
              sizes: dict | None = None, setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """One run of one workload; returns (environment and details, result)."""
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads                 # imports rkheat from SRC

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    checks = workloads.Checks()
    try:
        wl = workloads.make(workload, workdir, seed, references, **(sizes or {}))
        if trace:
            from tracing import PER_LAYER as units
            metrics, details = run_traced(wl, seconds, checks)
        else:
            units = END_TO_END_UNITS
            metrics, details = run_end_to_end(wl, seconds, checks, setup_samples)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["ok_rate"] = 1.0 - len(checks.failures) / checks.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(seed)
    details.update(workload=workload, checks=checks.attempted,
                   failed_checks=checks.failures[:20])
    result = {
        "correct": not checks.failures,
        "attempted": details["operations"],
        "failed": details["failed_operations"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in sorted(units.items())},
    }
    return {"environment": env, "details": details}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rkheat", "__init__.py")):
        print(f"perfbench: no rkheat package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as f:
        references = json.load(f)
    info, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), references)
    env = info["environment"]
    if env["blas_threads_exceed_nproc"]:
        print(f"perfbench: BLAS threads {env['blas_threads']} exceed nproc {env['nproc']}",
              file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
