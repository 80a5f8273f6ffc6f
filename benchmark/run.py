"""Benchmark of lpconv: group recovery through the CLI and the library, and certified p-norms.

    python3 benchmark/run.py --workload {build-recover,unlabeled,norm} --seed N --seconds S --trace {0,1}

Run from the root of an lpconv checkout; the program is imported from its
src/ directory, nothing is installed. The last line of stdout is one JSON
object with correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Full details go to
.bench_out/<workload>-seed<N>-trace<T>.json.

Every process runs with one BLAS thread. Set-up is measured in fresh
interpreters, several times, and reported as the median; the measured part
runs in one more fresh interpreter (worker.py), so every run starts cold.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7      # fresh interpreters that only set up; the worker adds one more
RUN_LIMIT_S = 175.0    # a run must end within 180 s
WORKLOADS = ("build-recover", "unlabeled", "norm")

PER_LAYER_UNITS = {"_s": "s", "_mb": "MB", ".classes": "count", ".estimates": "count",
                   ".iterations": "count"}


def _unit(name: str) -> str:
    if name.startswith("pnorm.gap"):
        return "ratio"
    return next(u for suffix, u in PER_LAYER_UNITS.items()
                if name.endswith(suffix) or f"{suffix}." in name)


def _worker(args, env, root, extra, timeout):
    """Run worker.py to completion and return the JSON it prints."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lpconv", "__init__.py")):
        print("run from the root of an lpconv checkout: src/lpconv is missing", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # one CPU for the whole process tree: the speed kernel and the work it
    # rescales then always run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = os.path.join(root, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    def left():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    try:
        setup = ["--workdir", workdir, "--setup-only"]
        _worker(args, env, root, setup, left())  # compiles bytecode; not a sample
        samples = [_worker(args, env, root, setup, left())["setup_cpu"]
                   for _ in range(SETUP_SAMPLES)]
        res = _worker(args, env, root, ["--workdir", workdir, "--seconds", str(args.seconds),
                                        "--trace", str(args.trace)], left())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not os.path.abspath(res["lpconv"]).startswith(src + os.sep):
        print(f"lpconv was imported from {res['lpconv']}, not from {src}", file=sys.stderr)
        return 1
    samples.append(res["setup_cpu"])
    rss_kb = res["child_peak_rss_kb"] or res["worker_peak_rss_kb"]
    details = dict(res, setup_samples=samples)
    if args.trace:
        metrics = {name: (value, _unit(name)) for name, value in res["layers"].items()}
    else:
        metrics = {"run_cpu_s": (res["run_cpu_s"], "s"),
                   "setup_s": (statistics.median(samples), "s"),
                   "peak_rss_mb": (rss_kb / 1024.0, "MB"),
                   "sandwich_gap": (res["sandwich_gap"], "ratio")}
    rejected = res["selftest_rejected"]
    summary = {"correct": bool(rejected) and all(rejected.values()),
               "attempted": res["attempted"], "failed": res["failed"],
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(details, summary=summary), fh, indent=1)
    for failure in res["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for label, ok in rejected.items():
        if not ok:
            print(f"self-test: check accepted a corrupted output ({label})", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
