"""Reference figures quoted in README.md, measured outside the benchmark's runs.

    python3 benchmark/reference.py suite      # `lpconv suite run --seed 7`, per criterion
    python3 benchmark/reference.py s4         # the exact commutant of S4
    python3 benchmark/reference.py pnorm      # pnorm_estimate by n, one BLAS thread and default

Run from the root of a checkout with src/ on PYTHONPATH. Each figure is
printed with wall and CPU seconds and the compute part of the speed
kernel (see speed.py) next to it, so that a figure taken while the host was slow
can be told apart.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _timed(fn):
    w, c = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - w, time.process_time() - c


def suite() -> None:
    from lpconv import acceptance
    from speed import kernel
    for k, criterion in enumerate(acceptance.ALL_CRITERIA, start=1):
        result, wall, cpu = _timed(lambda: criterion(7))
        print(json.dumps({"criterion": k, "passed": result.passed, "wall_s": round(wall, 2),
                          "cpu_s": round(cpu, 2), "kernel_s": round(kernel()[0], 4)}))


def s4() -> None:
    from lpconv import convolver_basis_exact, make_symmetric
    from speed import kernel
    before = kernel()
    _, wall, cpu = _timed(lambda: convolver_basis_exact(make_symmetric(4)))
    print(json.dumps({"s4_commutant_wall_s": round(wall, 2), "cpu_s": round(cpu, 2),
                      "kernel_s": [round(before[0], 4), round(kernel()[0], 4)]}))


def pnorm(threads: str | None = None) -> None:
    if threads is None:
        for setting in ("1", "default"):
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env.pop(var, None)
                if setting == "1":
                    env[var] = "1"
            subprocess.run([sys.executable, __file__, "pnorm", setting], env=env, check=True)
        return
    import numpy as np
    from lpconv import ConvolutionContext, make_cyclic, pnorm_estimate
    import tables
    rng = np.random.default_rng(0)
    for n in (8, 16, 32, 64):
        lam = tables.left_translations(tables.cyclic(n))
        a = np.tensordot(rng.standard_normal(n) + 1j * rng.standard_normal(n), lam, axes=1)
        ctx = ConvolutionContext(make_cyclic(n), 3.0).lp_context()
        _, wall, cpu = _timed(lambda: pnorm_estimate(a, ctx, starts=8, seed=0))
        print(json.dumps({"blas_threads": threads, "n": n, "wall_s": round(wall, 3),
                          "cpu_s": round(cpu, 3)}))


if __name__ == "__main__":
    {"suite": suite, "s4": s4, "pnorm": pnorm}[sys.argv[1]](*sys.argv[2:])
