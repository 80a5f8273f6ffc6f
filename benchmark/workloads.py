"""The three workloads: seeded inputs, one round of operations, and what to check.

Importing this module imports lpconv and numpy; worker.py times that
import as part of set-up. A workload object is built from the seed (the
rest of set-up) and then runs rounds. Every round performs the same
operations on the same inputs and returns a Round: CPU seconds per
operation, the items to check, and the norm sandwiches it produced.
With a Tracer, a round calls lpconv's stages one at a time, each under
its own span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np

from lpconv import (AlgebraBasis, ConvolutionContext, FiniteGroup,
                    RecoveredGroup, components, convolver_algebra,
                    decide_isomorphism, is_isomorphic, make_cyclic,
                    make_dihedral, make_direct_product, make_quaternion,
                    make_symmetric, pnorm_estimate, recover_group, serialize,
                    unitary_group_enumerate)
from lpconv.isometry import LpContext
from lpconv.measure import FiniteMeasureAlgebra

import checks
import tables
from spans import span
from speed import Calibrated, usage

P = 3.0
P_DUAL = P / (P - 1.0)
CLI_TIMEOUT_S = 150.0
FAILED = object()  # what a failed operation returns; JSON null is a valid answer


class Round:
    """What one round did: CPU per operation, items to check, sandwiches.

    cpu holds each operation's CPU seconds rescaled to the reference speed
    (see speed.py); raw_cpu holds them as measured.
    """

    def __init__(self):
        self.cpu: dict[str, float] = {}
        self.raw_cpu: dict[str, float] = {}
        self.items: list[tuple[str, tuple]] = []
        self.estimates: list[tuple[int, float, float]] = []
        self.rss_kb = 0
        self.speed = Calibrated()

    def record(self, name: str, user: float, system: float) -> None:
        self.raw_cpu[name] = user + system
        self.cpu[name] = self.speed.scale(user, system)

    def op(self, name: str, fn, *args):
        """Run one library call, timing its CPU; a raised error is a failed item."""
        u0, s0 = usage()
        try:
            out = fn(*args)
        except Exception as exc:  # the round goes on; the failure is counted
            self.items.append(("error", (f"{name}: {type(exc).__name__}: {exc}",)))
            out = FAILED
        u1, s1 = usage()
        self.record(name, u1 - u0, s1 - s0)
        return out

    def check(self, kind: str, *args):
        self.items.append((kind, args))

    def estimate(self, n: int, lower: float, upper: float):
        self.estimates.append((n, float(lower), float(upper)))


def _lp(n: int, p: float) -> LpContext:
    return LpContext(FiniteMeasureAlgebra((1.0,) * n), p)


def _group_element(table, coeff) -> np.ndarray:
    return np.tensordot(coeff, tables.left_translations(table), axes=1)


def _complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _recover(tr, basis, p):
    """recover_group, or its stages one at a time under spans."""
    if tr is None:
        return recover_group(basis, p)
    with tr.span("convolution.enumerate", basis.n):
        units = unitary_group_enumerate(basis, p)
    tr.count("convolution.classes", len(units))
    with tr.span("reconstruction.components", basis.n):
        group, reps = components(units)
    return RecoveredGroup(group, reps)


def _iso(tr, g, h):
    with span(tr, "groups.is_isomorphic", g.order):
        return is_isomorphic(g, h)


def _decide(tr, a, p, b, q):
    with span(tr, "reconstruction.decide", a.n):
        return decide_isomorphism(a, p, b, q)


def _estimate(tr, a, ctx, starts, seed):
    with span(tr, "pnorm.estimate", a.shape[0]):
        est = pnorm_estimate(a, ctx, starts=starts, seed=seed)
    if tr is not None:
        tr.count("pnorm.estimates")
        tr.count("pnorm.iterations", est.iterations)
    return est


# ---------------------------------------------------------------- build-recover

MAKES = (("Q8", ("quaternion",), tables.quaternion()),
         ("Z2", ("cyclic", "2"), tables.cyclic(2)),
         ("Z4", ("cyclic", "4"), tables.cyclic(4)),
         ("Z2xZ4", ("product", "Z2", "Z4"), tables.product(tables.cyclic(2), tables.cyclic(4))),
         ("Z12", ("cyclic", "12"), tables.cyclic(12)),
         ("D6", ("dihedral", "6"), tables.dihedral(6)),
         ("D8", ("dihedral", "8"), tables.dihedral(8)))
BUILT = ("Q8", "Z2xZ4", "Z12", "D6", "D8")
NORM_TABLE = tables.dihedral(12)  # the CLI's norm operands: elements of D12's algebra
NORM_CALLS = 8


class BuildRecover:
    """Group table -> algebra -> recovered group through the CLI, one cold process per command."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.reference = {name: table for name, _, table in MAKES}
        # an exponent unrelated to P and P_DUAL, for a Distinct-by-exponent pair
        self.q = float(np.round(rng.uniform(3.5, 6.0), 4))
        self.decides = (("Z12", P, "Z12", P, "Isomorphic"),
                        ("D6", P, "D6", P_DUAL, "AntiIsomorphic"),
                        ("D8", P, "D8", self.q, "Distinct"),
                        ("Z12", P, "D6", P, "Distinct"),
                        ("Q8", P, "Z2xZ4", P, "Distinct"))
        self.norm_ops = []
        n = len(NORM_TABLE)
        for k in range(NORM_CALLS):
            a = _group_element(NORM_TABLE, _complex(rng, n))
            path = self._path(f"op{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"context": {"weights": [1.0] * n, "p": P},
                           "matrix": [[[z.real, z.imag] for z in row] for row in a]}, fh)
            self.norm_ops.append((path, a))

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _alg(self, name: str, p: float) -> str:
        return self._path(f"{name}.alg.json" if p == P else f"{name}.alg.p{p}.json")

    def _write(self, name: str, payload) -> None:
        with open(self._path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def round(self, tr=None) -> Round:
        r = Round()
        run = _InProcessCli(tr) if tr is not None else _cold_cli

        def call(op, argv):
            u0, s0 = usage()
            try:
                payload, (user, system), rss = run(argv)
            except Exception as exc:  # a crashed or hung command is a failed item
                r.items.append(("error", (f"{op}: {type(exc).__name__}: {exc}",)))
                u1, s1 = usage()
                payload, user, system, rss = FAILED, u1 - u0, s1 - s0, 0
            r.record(op, user, system)
            r.rss_kb = max(r.rss_kb, rss)
            return payload

        made, algebras, recovered = {}, {}, {}
        for name, spec, _ in MAKES:
            argv = [self._path(f"{s}.json") if s in self.reference else s for s in spec]
            made[name] = call(f"make:{name}", ["group", "make", *argv])
            self._write(f"{name}.json", made[name] if made[name] is not FAILED else {})
        for name in BUILT:
            algebras[name] = call(f"build:{name}", ["algebra", "build", self._path(f"{name}.json"),
                                                    "--p", str(P)])
            self._write(f"{name}.alg.json", algebras[name] if algebras[name] is not FAILED else {})
        for name in BUILT:
            recovered[name] = call(f"recover:{name}", ["recover", self._alg(name, P)])
        # the same algebra at other exponents: only the payload's p changes
        for name, p in (("D6", P_DUAL), ("D8", self.q)):
            if algebras[name] is not FAILED:
                self._write(os.path.basename(self._alg(name, p)), dict(algebras[name], p=p))
        if recovered["D8"] is not FAILED:
            self._write("D8.rec.group.json", recovered["D8"]["group"])
        isos = (("iso:D8", "D8.rec.group.json", "D8.json", True),
                ("iso:Q8-Z2xZ4", "Q8.json", "Z2xZ4.json", False))
        iso_out = [call(op, ["group", "iso", self._path(a), self._path(b)])
                   for op, a, b, _ in isos]
        decide_out = [call(f"decide:{a}@{p}-{b}@{q}", ["decide", self._alg(a, p), self._alg(b, q)])
                      for a, p, b, q, _ in self.decides]
        norm_out = [call(f"norm:{k}", ["norm", path, "--p", str(P), "--starts", "4",
                                       "--seed", str(k)])
                    for k, (path, _) in enumerate(self.norm_ops)]

        for name, _, table in MAKES:
            if made[name] is not FAILED:
                r.check("group", made[name]["table"], table)
        for name in BUILT:
            alg, rec = algebras[name], recovered[name]
            if made[name] is FAILED or alg is FAILED:
                continue
            basis = checks.complex_matrix(alg["basis"])
            r.check("algebra", basis, made[name]["table"], alg["n"], P, alg["p"])
            if rec is not FAILED:
                reps = [(u["perm"], checks.complex_matrix(u["phases"]))
                        for u in rec["representatives"]]
                r.check("recover", rec["group"]["table"], reps, basis, made[name]["table"])
        iso_tables = ((recovered["D8"], made["D8"]), (made["Q8"], made["Z2xZ4"]))
        for (_, _, _, expect), out, (ga, gb) in zip(isos, iso_out, iso_tables):
            if FAILED not in (out, ga, gb):
                ta = ga["group"]["table"] if "group" in ga else ga["table"]
                r.check("iso", out["map"] if out is not None else None, ta, gb["table"], expect)
        for (a, p, b, q, expected), out in zip(self.decides, decide_out):
            if out is not FAILED:
                ev = out["evidence"]
                witness = ev["witness"]["map"] if ev["witness"] is not None else None
                r.check("decide", out["verdict"], ev["p"], ev["q"], ev["group_a"]["table"],
                        ev["group_b"]["table"], witness, expected, p, q,
                        self.reference[a], self.reference[b])
        for (_, a), out in zip(self.norm_ops, norm_out):
            if out is not FAILED:
                r.check("norm", out["lower"], out["upper"], checks.complex_matrix(out["witness"]),
                        a, P, True, None)
                r.estimate(a.shape[0], out["lower"], out["upper"])
        return r


def _cold_cli(argv):
    """Run `python -m lpconv.cli ARGV` in a fresh process; CPU and peak RSS from wait4."""
    proc = subprocess.Popen([sys.executable, "-m", "lpconv.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.stdout.read(), proc.stderr.read()
    finally:
        _, status, rusage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {out[-300:]!r} {err[-300:]!r}")
    return json.loads(out), (rusage.ru_utime, rusage.ru_stime), rusage.ru_maxrss


class _InProcessCli:
    """The same argument lists, run stage by stage in this process under spans.

    Mirrors lpconv.cli's handlers, calling each module's public functions
    from here so that every layer gets its own span.
    """

    def __init__(self, tracer):
        self.tr = tracer

    def _decode(self, fn, path):
        with self.tr.span("serialize.decode"):
            with open(path, encoding="utf-8") as fh:
                return fn(json.load(fh))

    def _encode(self, fn, value):
        with self.tr.span("serialize.encode"):
            return json.loads(json.dumps(fn(value), indent=2, sort_keys=True))

    def __call__(self, argv):
        u0, s0 = usage()
        with self.tr.span(" ".join(argv[:2])):
            payload = self._dispatch(argv[0], argv[1:])
        u1, s1 = usage()
        return payload, (u1 - u0, s1 - s0), 0

    def _dispatch(self, cmd, rest):
        tr = self.tr
        if cmd == "group" and rest[0] == "make":
            family, params = rest[1], rest[2:]
            if family == "product":
                g = make_direct_product(self._decode(serialize.group_from_json, params[0]),
                                        self._decode(serialize.group_from_json, params[1]))
            elif family == "quaternion":
                g = make_quaternion()
            else:
                g = {"cyclic": make_cyclic, "dihedral": make_dihedral,
                     "symmetric": make_symmetric}[family](int(params[0]))
            return self._encode(serialize.group_to_json, g)
        if cmd == "group" and rest[0] == "iso":
            a = self._decode(serialize.group_from_json, rest[1])
            b = self._decode(serialize.group_from_json, rest[2])
            return self._encode(serialize.iso_to_json, _iso(tr, a, b))
        if cmd == "algebra":
            g = self._decode(serialize.group_from_json, rest[1])
            with tr.span("convolution.algebra_build", g.order):
                basis = convolver_algebra(ConvolutionContext(g, float(rest[3])))
            return self._encode(serialize.algebra_basis_to_json, basis)
        if cmd == "recover":
            basis = self._decode(serialize.algebra_basis_from_json, rest[0])
            return self._encode(serialize.recovered_group_to_json, _recover(tr, basis, basis.p))
        if cmd == "decide":
            a = self._decode(serialize.algebra_basis_from_json, rest[0])
            b = self._decode(serialize.algebra_basis_from_json, rest[1])
            return self._encode(serialize.verdict_to_json, _decide(tr, a, a.p, b, b.p))
        if cmd == "norm":
            op = self._decode(serialize.operator_from_json, rest[0])
            flags = dict(zip(rest[1::2], rest[2::2]))
            ctx = LpContext(op.context.algebra, float(flags["--p"]))
            est = _estimate(tr, op.matrix, ctx, int(flags["--starts"]), int(flags["--seed"]))
            return self._encode(serialize.norm_estimate_to_json, est)
        raise ValueError(f"no in-process mirror for {cmd} {rest}")


# ---------------------------------------------------------------- unlabeled

UNLABELED = (("D12", tables.dihedral(12)),
             ("Z4xZ8", tables.product(tables.cyclic(4), tables.cyclic(8))),
             ("Q8xZ4", tables.product(tables.quaternion(), tables.cyclic(4))),
             ("S4xZ2", tables.product(tables.symmetric(4), tables.cyclic(2))),
             ("Q8xZ8", tables.product(tables.quaternion(), tables.cyclic(8))))
UNLABELED_NORMS = 8


def present(table, rng) -> np.ndarray:
    """The left translations, relabeled by a random atom permutation and
    mixed by a random orthogonal matrix: a basis that hides the group."""
    n = len(table)
    sigma = rng.permutation(n)
    lam = tables.left_translations(table)
    hidden = np.empty_like(lam)
    hidden[:, sigma[:, None], sigma[None, :]] = lam
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return np.einsum("ij,jkl->ikl", q, hidden).astype(complex)


class Unlabeled:
    """Algebras handed over without their group, through the library in one process."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        # (name, table, presentation, the group as lpconv sees it)
        self.groups = [(name, table, present(table, rng),
                        FiniteGroup(len(table), tuple(map(tuple, table)), 0))
                       for name, table in UNLABELED]
        d12 = self.groups[0]
        self.second = present(d12[1], rng)  # another presentation of D12
        # (index of side a, index of side b or "B" for the second D12, q, verdict)
        self.decides = ((0, "B", P, "Isomorphic"), (0, "B", P_DUAL, "AntiIsomorphic"),
                        (1, 2, P, "Distinct"))
        self.norms = [np.tensordot(_complex(rng, len(d12[1])), d12[2], axes=1)
                      for _ in range(UNLABELED_NORMS)]
        self.ctx = _lp(len(d12[1]), P)
        self.alloc_peak = 0

    def _basis(self, tr, mats):
        n = mats.shape[1]
        if tr is None:
            return AlgebraBasis(n, P, tuple(mats))
        tracemalloc.start()
        try:
            with tr.span("convolution.basis_check", n):
                basis = AlgebraBasis(n, P, tuple(mats))
            self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return basis

    def round(self, tr=None) -> Round:
        r = Round()
        bases = {}
        for k, (name, table, mats, group) in enumerate(self.groups):
            bases[k] = basis = r.op(f"basis:{name}", self._basis, tr, mats)
            if basis is FAILED:
                continue
            rec = r.op(f"recover:{name}", _recover, tr, basis, P)
            if rec is FAILED:
                continue
            w = r.op(f"iso:{name}", _iso, tr, rec.group, group)
            if w is not FAILED:
                reps = [(u.perm, np.asarray(u.phases)) for u in rec.representatives]
                r.check("unlabeled", rec.group.table, reps, mats, table,
                        w.mapping if w is not None else None)
        bases["B"] = r.op("basis:D12/B", self._basis, tr, self.second)
        for a, b, q, expected in self.decides:
            if FAILED in (bases[a], bases[b]):
                continue
            v = r.op(f"decide:{a}-{b}@{q}", _decide, tr, bases[a], P, bases[b], q)
            if v is not FAILED:
                r.check("decide", v.verdict, v.p, v.q, v.group_a.table, v.group_b.table,
                        v.witness.mapping if v.witness is not None else None,
                        expected, P, q, self.groups[a][1], self.groups[0 if b == "B" else b][1])
        for k, a in enumerate(self.norms):
            est = r.op(f"norm:{k}", _estimate, tr, a, self.ctx, 4, k)
            if est is not FAILED:
                r.check("norm", est.lower, est.upper, est.witness, a, P, True, None)
                r.estimate(a.shape[0], est.lower, est.upper)
        return r


# ---------------------------------------------------------------- norm

ZOO = tuple([(f"Z{n}", tables.cyclic(n)) for n in range(1, 9)]
            + [("Z2xZ2", tables.product(tables.cyclic(2), tables.cyclic(2))),
               ("Z2xZ4", tables.product(tables.cyclic(2), tables.cyclic(4))),
               ("S3", tables.symmetric(3)), ("D4", tables.dihedral(4)),
               ("Q8", tables.quaternion())])
ZOO_SAMPLES = 12
NONNEG = (("D4", tables.dihedral(4), 1.5), ("Q8", tables.quaternion(), 3.0),
          ("S3", tables.symmetric(3), 4.0),
          ("Z2xZ4", tables.product(tables.cyclic(2), tables.cyclic(4)), 1.2),
          ("D6", tables.dihedral(6), 3.0), ("D8", tables.dihedral(8), 1.5))
LARGE = (("dense", 16, 1.2), ("dense", 16, 3.0), ("dense", 32, 1.5), ("dense", 64, 4.0),
         ("sparse", 16, 4.0), ("sparse", 32, 1.2), ("sparse", 32, 3.0), ("sparse", 64, 1.5))
SPARSE_DENSITY = 0.15


class Norm:
    """The norm engine alone: the duality pattern, nonnegative elements, large matrices."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        self.pairs = []    # (name, A, seed at P, seed at P_DUAL)
        for name, table in ZOO:
            for _ in range(ZOO_SAMPLES):
                a = _group_element(table, _complex(rng, len(table)))
                self.pairs.append((name, a, int(rng.integers(2**31)), int(rng.integers(2**31))))
        self.nonneg = []   # (name, f, A, p)
        for name, table, p in NONNEG:
            f = rng.uniform(0.0, 1.0, len(table)) * (rng.random(len(table)) < 0.75)
            f[0] += 0.5
            self.nonneg.append((name, f, _group_element(table, f).astype(complex), p))
        self.large = []    # (label, A, p)
        for kind, n, p in LARGE:
            a = _complex(rng, n, n)
            if kind == "sparse":
                a = a * (rng.random((n, n)) < SPARSE_DENSITY)
            self.large.append((f"{kind}{n}@{p}", a, p))
        sizes = [(a.shape[0], p) for _, a, _, _ in self.pairs for p in (P, P_DUAL)]
        sizes += [(a.shape[0], p) for _, _, a, p in self.nonneg]
        sizes += [(a.shape[0], p) for _, a, p in self.large]
        self.ctx = {key: _lp(*key) for key in sizes}

    def round(self, tr=None) -> Round:
        r = Round()

        def est(op, a, p, starts, seed, l1=None, group_element=True):
            e = r.op(op, _estimate, tr, a, self.ctx[(a.shape[0], p)], starts, seed)
            if e is not FAILED:
                r.check("norm", e.lower, e.upper, e.witness, a, p, group_element, l1)
                r.estimate(a.shape[0], e.lower, e.upper)
            return e

        for name, _ in ZOO:
            # one operation per group: its samples at P and, transposed, at P_DUAL
            pairs = [(a, a.T.copy(), sp, sq) for g, a, sp, sq in self.pairs if g == name]
            out = r.op(f"dual:{name}", lambda: [
                (_estimate(tr, a, self.ctx[(len(a), P)], 4, sp),
                 _estimate(tr, at, self.ctx[(len(a), P_DUAL)], 4, sq))
                for a, at, sp, sq in pairs])
            if out is FAILED:
                continue
            for (a, at, _, _), (e_p, e_q) in zip(pairs, out):
                for e, m, p in ((e_p, a, P), (e_q, at, P_DUAL)):
                    r.check("norm", e.lower, e.upper, e.witness, m, p, True, None)
                    r.estimate(len(m), e.lower, e.upper)
                r.check("overlap", (e_p.lower, e_p.upper), (e_q.lower, e_q.upper))
        for k, (name, f, a, p) in enumerate(self.nonneg):
            est(f"nonneg:{name}@{p}", a, p, 8, k, l1=float(f.sum()))
        for k, (label, a, p) in enumerate(self.large):
            est(f"large:{label}", a, p, 8, k, group_element=False)
        return r


WORKLOADS = {"build-recover": BuildRecover, "unlabeled": Unlabeled, "norm": Norm}
