"""The acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion returns a CriterionResult whose details contain only values
that are deterministic for a fixed seed, so suite reports reproduce byte
for byte. Criteria never raise on a failed check; they record it and
report passed=False.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .convolution import (ConvolutionContext, convolver_algebra,
                          convolver_basis_exact)
from .errors import P2Unsupported
from .groups import FiniteGroup, generating_sequence, is_isomorphic, zoo
from .isometry import (LampertiForm, LpContext, Operator, clarkson_gap,
                       lamperti_decompose, lamperti_distance, lamperti_operator)
from .measure import (BooleanAutomorphism, FiniteMeasureAlgebra,
                      MeasurableFunction, Valuation, integrate, rn_chain_rules,
                      rn_derivative)
from .pnorm import norm_witness_disjoint, pnorm_estimate, split_norm_ratio
from .reconstruction import (decide_isomorphism, dual_antiisomorphism_check,
                             p2_degeneracy_demo, recover_group)

P_GRID = (1.2, 1.5, 3.0, 4.0)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict[str, Any]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index} [{status}] {self.name}"


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _random_algebra(rng, n: int) -> FiniteMeasureAlgebra:
    return FiniteMeasureAlgebra(tuple(rng.uniform(0.5, 2.0, n)))


def _random_form(rng, algebra: FiniteMeasureAlgebra) -> LampertiForm:
    n = algebra.atoms
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    perm = tuple(int(v) for v in rng.permutation(n))
    return LampertiForm(MeasurableFunction(algebra, tuple(phases)),
                        BooleanAutomorphism(algebra, perm))


def criterion_1(seed: int = 0) -> CriterionResult:
    """Recovery returns the original group, with a witness, for the whole zoo."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for name, g in zoo():
        for p in P_GRID:
            cases += 1
            basis = convolver_algebra(ConvolutionContext(g, p))
            rec = recover_group(basis, p)
            witness = is_isomorphic(rec.group, g)
            if witness is None:
                failures.append(f"{name}@p={p}")
    runtime = time.perf_counter() - t0
    passed = not failures and runtime < 60.0
    return CriterionResult(1, "reconstruction rigidity across the zoo", passed,
                           {"cases": cases, "failures": failures,
                            "runtime_ok": runtime < 60.0})


def criterion_2(seed: int = 0) -> CriterionResult:
    """Exponent 2 conflates the 4-cycle and the Klein group; exponent 3 does not."""
    report = p2_degeneracy_demo(samples=100, seed=int(_rng(seed, 2).integers(2**31)))
    expected_cycle = sorted([1, 1j, -1, -1j], key=lambda z: (round(z.real, 9),
                                                             round(z.imag, 9)))
    expected_klein = sorted([1, 1, -1, -1], key=lambda z: (round(z.real, 9),
                                                           round(z.imag, 9)))
    spectra_ok = (
        max(abs(a - b) for a, b in zip(report.cycle_generator_spectrum,
                                       expected_cycle)) < 1e-9
        and max(abs(a - b) for a, b in zip(report.klein_involution_spectrum,
                                           expected_klein)) < 1e-9)
    checks = {
        "basis_mult_ok": report.basis_mult_residual < 1e-12,
        "random_mult_ok": report.random_mult_residual < 1e-12,
        "norm_agreement_ok": report.norm_agreement_max < 1e-9,
        "membership_ok": report.membership_residual < 1e-9,
        "spectra_ok": spectra_ok,
        "p3_distinct": report.p3_verdict == "Distinct",
    }
    return CriterionResult(2, "exponent-2 degeneracy demo", all(checks.values()),
                           checks)


def criterion_3(seed: int = 0) -> CriterionResult:
    """Compose/factor round trip over 1000 random forms; rejection at p = 2."""
    rng = _rng(seed, 3)
    worst_phase = 0.0
    perm_failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        algebra = _random_algebra(rng, n)
        p = float(P_GRID[rng.integers(len(P_GRID))])
        ctx = LpContext(algebra, p)
        form = _random_form(rng, algebra)
        recovered = lamperti_decompose(lamperti_operator(form, ctx))
        if recovered.phi.perm != form.phi.perm:
            perm_failures += 1
            continue
        dev = max(abs(a - b) for a, b in zip(recovered.f.values, form.f.values))
        worst_phase = max(worst_phase, dev)
    ctx2 = LpContext(FiniteMeasureAlgebra((1.0, 1.0)), 2.0)
    c = math.sqrt(0.5)
    rotation = Operator(ctx2, np.array([[c, -c], [c, c]]))
    try:
        lamperti_decompose(rotation)
        rejected = False
    except P2Unsupported:
        rejected = True
    passed = perm_failures == 0 and worst_phase <= 1e-12 and rejected
    return CriterionResult(3, "factorization round trip", passed,
                           {"trials": 1000, "perm_failures": perm_failures,
                            "phase_dev_ok": worst_phase <= 1e-12,
                            "p2_rotation_rejected": rejected})


def criterion_4(seed: int = 0) -> CriterionResult:
    """Closed-form distances sit inside the norm sandwich; witnesses certify 2."""
    rng = _rng(seed, 4)
    failures = []
    for trial in range(200):
        n = int(rng.integers(2, 7))
        algebra = _random_algebra(rng, n)
        p = float(P_GRID[rng.integers(len(P_GRID))])
        ctx = LpContext(algebra, p)
        a = _random_form(rng, algebra)
        b = _random_form(rng, algebra)
        if rng.uniform() < 0.5:
            b = LampertiForm(b.f, a.phi)  # share the permutation part
        closed = lamperti_distance(a, b, ctx)
        diff = lamperti_operator(a, ctx) - lamperti_operator(b, ctx)
        est = pnorm_estimate(diff, ctx, starts=4, seed=int(rng.integers(2**31)))
        if not (est.lower - 1e-6 <= closed <= est.upper + 1e-6):
            failures.append(f"trial {trial}: {closed} outside sandwich")
            continue
        if a.phi.perm == b.phi.perm:
            sup = max(abs(x - y) for x, y in zip(a.f.values, b.f.values))
            if closed != sup or abs(closed - est.lower) > 1e-6 \
                    or abs(closed - est.upper) > 1e-6:
                failures.append(f"trial {trial}: diagonal case mismatch")
        else:
            if closed != 2.0:
                failures.append(f"trial {trial}: expected 2, got {closed}")
                continue
            if abs(est.upper - 2.0) > 1e-6:
                failures.append(f"trial {trial}: majorant norm {est.upper}")
                continue
            xi = norm_witness_disjoint(a, b, ctx)
            ratio = split_norm_ratio(a, b, xi, ctx)
            if abs(ratio - 2.0) > 1e-12:
                failures.append(f"trial {trial}: witness ratio {ratio}")
                continue
            ya = lamperti_operator(a, ctx).apply(xi)
            yb = lamperti_operator(b, ctx).apply(xi)
            if float(np.max(np.abs(ya) * np.abs(yb))) > 1e-15:
                failures.append(f"trial {trial}: witness images overlap")
    return CriterionResult(4, "distance formulas against the norm sandwich",
                           not failures, {"trials": 200, "failures": failures})


def criterion_5(seed: int = 0) -> CriterionResult:
    """Derivative identities over 500 random finite measure algebras."""
    rng = _rng(seed, 5)
    exact_failures = 0
    worst_integral = 0.0
    worst_chain = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        algebra = _random_algebra(rng, n)
        mu = Valuation(algebra, tuple(rng.uniform(0.5, 2.5, n)))
        sigma = Valuation(algebra, tuple(rng.uniform(0.5, 2.5, n)))
        rho = Valuation(algebra, tuple(rng.uniform(0.5, 2.5, n)))
        deriv = rn_derivative(sigma, mu)
        ratios = tuple(s / m for s, m in zip(sigma.atom_values, mu.atom_values))
        if any(deriv.values[x] != ratios[x] for x in range(n)):
            exact_failures += 1
            continue
        f = MeasurableFunction(algebra, tuple(
            rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        lhs = integrate(f, sigma)
        rhs = integrate(f * deriv, mu)
        worst_integral = max(worst_integral, abs(lhs - rhs))
        phi = BooleanAutomorphism(algebra, tuple(int(v) for v in rng.permutation(n)))
        report = rn_chain_rules(mu, sigma, rho, phi)
        worst_chain = max(worst_chain, report.max_deviation)
    passed = (exact_failures == 0 and worst_integral <= 1e-12
              and worst_chain <= 1e-12)
    return CriterionResult(5, "derivative rules on random algebras", passed,
                           {"trials": 500, "exact_failures": exact_failures,
                            "integral_ok": worst_integral <= 1e-12,
                            "chain_ok": worst_chain <= 1e-12})


def criterion_6(seed: int = 0) -> CriterionResult:
    """Parallelogram-defect sign and its equality case, 500 pairs per exponent."""
    rng = _rng(seed, 6)
    failures = []
    for p in (1.5, 4.0):
        for trial in range(500):
            n = int(rng.integers(2, 9))
            algebra = _random_algebra(rng, n)
            ctx = LpContext(algebra, p)
            if trial % 2 == 0:
                # disjoint pair: split the atoms
                cut = int(rng.integers(1, n))
                xi = np.zeros(n, dtype=complex)
                eta = np.zeros(n, dtype=complex)
                vals = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
                xi[:cut] = vals[:cut]
                eta[cut:] = vals[cut:]
                gap = clarkson_gap(xi, eta, ctx)
                if abs(gap) > 1e-10:
                    failures.append(f"p={p} trial {trial}: disjoint gap {gap}")
            else:
                for _ in range(100):
                    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    gap = clarkson_gap(xi, eta, ctx)
                    if abs(gap) > 1e-6:
                        break
                else:
                    failures.append(f"p={p} trial {trial}: rejection sampling stalled")
                    continue
                if p > 2 and gap <= 1e-6:
                    failures.append(f"p={p} trial {trial}: gap {gap} not positive")
                if p < 2 and gap >= -1e-6:
                    failures.append(f"p={p} trial {trial}: gap {gap} not negative")
    return CriterionResult(6, "parallelogram-defect dichotomy", not failures,
                           {"trials": 1000, "failures": failures})


def _flatten_exact(mat) -> list[Fraction]:
    return [v for row in mat for v in row]


def _rational_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    rows = [row[:] for row in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _rational_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    rref, pivots = _rational_rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        basis.append(vec)
    return basis


def _commutant_constraints(group: FiniteGroup) -> list[list[Fraction]]:
    """Rows X[x, y t^-1] - X[x t, y] of X R_t = R_t X over a generating set."""
    n = group.order
    rows = []
    for t in generating_sequence(group) or [group.identity]:
        t_inv = group.inv(t)
        for x in range(n):
            for y in range(n):
                row = [Fraction(0)] * (n * n)
                row[x * n + group.mul(y, t_inv)] += 1
                row[group.mul(x, t) * n + y] -= 1
                rows.append(row)
    return rows


def criterion_7(seed: int = 0) -> CriterionResult:
    """Exact rational check: the orbit basis against the rational nullspace of
    the commutant constraints, its dimension and span equality for the zoo."""
    failures = []
    for name, g in zoo():
        n = g.order
        cv = convolver_basis_exact(g)
        oracle = _rational_nullspace(_commutant_constraints(g), n * n)
        if [_flatten_exact(m) for m in cv] != oracle:
            failures.append(f"{name}: orbit basis differs from the rational nullspace")
        if len(cv) != n:
            failures.append(f"{name}: commutant dimension {len(cv)}")
            continue
        lam_rows = []
        for s in range(n):
            mat = [[Fraction(0)] * n for _ in range(n)]
            for y in range(n):
                mat[g.mul(s, y)][y] = Fraction(1)
            lam_rows.append(_flatten_exact(mat))
        cv_rows = [_flatten_exact(m) for m in cv]
        _, pivots_cv = _rational_rref(cv_rows)
        _, pivots_lam = _rational_rref(lam_rows)
        _, pivots_all = _rational_rref(cv_rows + lam_rows)
        if not (len(pivots_cv) == len(pivots_lam) == len(pivots_all) == n):
            failures.append(f"{name}: spans differ")
    return CriterionResult(7, "commutant equals translation span, exactly",
                           not failures,
                           {"groups": len(zoo()), "failures": failures})


def criterion_8(seed: int = 0) -> CriterionResult:
    """Transpose duality: sandwich overlap and the AntiIsomorphic verdict."""
    rng = _rng(seed, 8)
    failures = []
    for name, g in zoo():
        report = dual_antiisomorphism_check(
            ConvolutionContext(g, 3.0), samples=20,
            seed=int(rng.integers(2**31)), starts=4)
        if report.max_overlap_gap > 2e-6:
            failures.append(f"{name}: overlap gap {report.max_overlap_gap}")
        if report.max_reversal_residual > 1e-13:
            failures.append(f"{name}: product reversal {report.max_reversal_residual}")
        verdict = decide_isomorphism(
            convolver_algebra(ConvolutionContext(g, 3.0)), 3.0,
            convolver_algebra(ConvolutionContext(g, 1.5)), 1.5)
        if verdict.verdict != "AntiIsomorphic":
            failures.append(f"{name}: verdict {verdict.verdict}")
    return CriterionResult(8, "dual-exponent transpose duality", not failures,
                           {"groups": len(zoo()), "failures": failures})


_GRID_CACHE: dict[tuple[float, float], np.ndarray] = {}


def _sphere_grid(p: float, resolution: float) -> np.ndarray:
    """Unit p-sphere sample in the nonnegative octant of 3-space.

    Simplex points v mapped through v^(1/p) sit exactly on the sphere; for
    matrices with positive entries the maximizer is interior, where the
    parametrization is smooth, so the grid error is quadratic in the step.
    """
    key = (p, resolution)
    if key not in _GRID_CACHE:
        steps = int(round(1.0 / resolution))
        blocks = []
        for i in range(steps + 1):
            rem = steps - i
            j = np.arange(rem + 1)
            blocks.append(np.stack([np.full(rem + 1, i), j, rem - j], axis=1))
        v = np.concatenate(blocks) / steps
        _GRID_CACHE[key] = v ** (1.0 / p)
    return _GRID_CACHE[key]


def grid_search_norm(m: np.ndarray, p: float, resolution: float = 1e-3) -> float:
    """Brute-force p -> p norm of a nonnegative 3x3 matrix."""
    xi = _sphere_grid(p, resolution)
    values = ((xi @ m.T) ** p).sum(axis=1)
    return float(values.max() ** (1.0 / p))


def criterion_9(seed: int = 0) -> CriterionResult:
    """Both ends of the norm sandwich versus grid search; it never inverts."""
    rng = _rng(seed, 9)
    algebra = FiniteMeasureAlgebra((1.0, 1.0, 1.0))
    worst_gap = 0.0
    inverted = 0
    for _ in range(100):
        m = rng.uniform(0.0, 1.0, (3, 3))
        p = float(rng.choice([1.5, 2.5, 3.0]))
        est = pnorm_estimate(m, LpContext(algebra, p), starts=2,
                             seed=int(rng.integers(2**31)))
        oracle = grid_search_norm(m, p)
        # float(): upper may be a numpy scalar, and the details go to JSON
        worst_gap = max(worst_gap, float(max(abs(est.lower - oracle),
                                             abs(est.upper - oracle))))
        if est.lower > est.upper:
            inverted += 1
    passed = worst_gap <= 1e-3 and inverted == 0
    return CriterionResult(9, "norm engine honesty", passed,
                           {"trials": 100, "grid_gap_ok": worst_gap <= 1e-3,
                            "sandwich_inversions": inverted})


ALL_CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9)


def run_suite(seed: int = 0, indices=None) -> dict[str, Any]:
    """Run the selected criteria and collect a machine-readable report."""
    wanted = set(indices) if indices else set(range(1, len(ALL_CRITERIA) + 1))
    results = []
    for k, criterion in enumerate(ALL_CRITERIA, start=1):
        if k in wanted:
            results.append(criterion(seed))
    return {
        "seed": seed,
        "results": [{"criterion": r.index, "name": r.name, "passed": r.passed,
                     "details": r.details} for r in results],
        "all_passed": all(r.passed for r in results),
    }
