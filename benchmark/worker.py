"""One run of one workload, in a fresh interpreter.

    python3 benchmark/worker.py --workload NAME --seed N --workdir DIR
        [--seconds S] [--trace 0|1] [--setup-only]

run.py starts it with lpconv's src/ on PYTHONPATH and prints one JSON
object on stdout. Set-up (importing lpconv, making the seeded inputs) is
timed in CPU seconds. The measured part runs whole rounds and starts
another only if it would end within --seconds, give or take half a
round; a traced run does one round under spans. Then every output of every round is checked, and the
checks are fed corrupted outputs to show that they can fail.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

COLD_START_SAMPLES = 5


def mean_gap(estimates, keep=lambda n: True) -> float:
    """Mean relative width of the sandwiches that have not collapsed."""
    import checks
    gaps = [g for n, lo, up in estimates if keep(n) and (g := checks.gap(lo, up)) is not None]
    return statistics.fmean(gaps) if gaps else 0.0


def layer_metrics(tr, rnd, workload) -> dict[str, float]:
    def size(k):
        return lambda n: n == k

    def small(n):
        return n < 16

    m = {"convolution.algebra_build_s": tr.cpu("convolution.algebra_build")}
    for n in (12, 16):
        m[f"convolution.algebra_build_s.n{n}"] = tr.cpu("convolution.algebra_build", size(n))
    m["convolution.basis_check_s"] = tr.cpu("convolution.basis_check")
    m["convolution.basis_check_alloc_mb"] = getattr(workload, "alloc_peak", 0) / 2**20
    m["convolution.enumerate_s"] = tr.cpu("convolution.enumerate")
    for n in (32, 64):
        m[f"convolution.enumerate_s.n{n}"] = tr.cpu("convolution.enumerate", size(n))
    m["convolution.classes"] = tr.counts["convolution.classes"]
    m["reconstruction.components_s"] = tr.cpu("reconstruction.components")
    m["reconstruction.decide_s"] = tr.cpu("reconstruction.decide")
    m["groups.is_isomorphic_s"] = tr.cpu("groups.is_isomorphic")
    m["pnorm.estimate_s"] = tr.cpu("pnorm.estimate")
    m["pnorm.estimate_s.small"] = tr.cpu("pnorm.estimate", small)
    for n in (16, 32, 64):
        m[f"pnorm.estimate_s.n{n}"] = tr.cpu("pnorm.estimate", size(n))
    m["pnorm.estimates"] = tr.counts["pnorm.estimates"]
    m["pnorm.iterations"] = tr.counts["pnorm.iterations"]
    m["pnorm.gap.small"] = mean_gap(rnd.estimates, small)
    m["pnorm.gap.large"] = mean_gap(rnd.estimates, lambda n: n >= 16)
    m["serialize.decode_s"] = tr.cpu("serialize.decode")
    m["serialize.encode_s"] = tr.cpu("serialize.encode")
    m["cli.cold_start_s"] = statistics.median(cli_cold_start() for _ in range(COLD_START_SAMPLES))
    return m


def cli_cold_start() -> float:
    """CPU seconds of `lpconv --help` in a fresh process: import and parse only."""
    proc = subprocess.Popen([sys.executable, "-m", "lpconv.cli", "--help"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, _, usage = os.wait4(proc.pid, 0)
    proc.returncode = 0
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # everything below that imports numpy or lpconv is imported here, inside set-up
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    import lpconv
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    import speed
    user, system = r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime
    setup_cpu = user + system
    setup_scaled = speed.rescaled_now(user, system)
    if args.setup_only:
        print(json.dumps({"setup_cpu": setup_scaled, "raw_setup_cpu": setup_cpu,
                          "lpconv": lpconv.__file__}))
        return 0

    import checks
    import selftest
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    rounds = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        t = time.perf_counter()
        rounds.append(workload.round(tracer))
        last = time.perf_counter() - t
        # another round if it ends before the deadline, give or take half a round
        if tracer is not None or time.perf_counter() + last > deadline + last / 2:
            break
    measured_wall = time.perf_counter() - start

    attempted, failures = 0, []
    for rnd in rounds:
        for kind, item in rnd.items:
            attempted += 1
            reason = checks.CHECKS[kind](*item)
            if reason is not None:
                failures.append(f"{kind}: {reason}")
    rejected = selftest.run(rounds[0].items)

    def per_op(field):
        return {op: statistics.median(getattr(r, field)[op] for r in rounds
                                      if op in getattr(r, field))
                for op in rounds[0].cpu}

    op_cpu = per_op("cpu")
    kernels = [k for r in rounds for k in r.speed.kernels]
    compute_s = statistics.median(k[0] for k in kernels)
    result = {
        "lpconv": lpconv.__file__,
        "setup_cpu": setup_scaled,
        "raw_setup_cpu": setup_cpu,
        "rounds": len(rounds),
        "measured_wall_s": measured_wall,
        "round_cpu_s": [sum(r.cpu.values()) for r in rounds],
        "raw_round_cpu_s": [sum(r.raw_cpu.values()) for r in rounds],
        "kernel_compute_s": compute_s,
        "kernel_fault_s": statistics.median(k[1] for k in kernels),
        "op_cpu_s": op_cpu,
        "run_cpu_s": sum(op_cpu.values()),
        "raw_run_cpu_s": sum(per_op("raw_cpu").values()),
        "child_peak_rss_kb": max(r.rss_kb for r in rounds),
        "worker_peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "selftest_rejected": rejected,
        "estimates": rounds[0].estimates,
        "sandwich_gap": mean_gap(rounds[0].estimates),
    }
    if tracer is not None:
        # span times are raw CPU; rescale them by the round's median compute kernel
        factor = speed.REFERENCE_COMPUTE_S / compute_s
        result["layers"] = {name: value * factor if name.endswith("_s") or "_s." in name else value
                            for name, value in layer_metrics(tracer, rounds[0], workload).items()}
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
