import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpconv import pnorm
from lpconv.isometry import (LampertiForm, LpContext, lamperti_operator,
                             transform_isometry, vector_norm)
from lpconv.measure import (BooleanAutomorphism, FiniteMeasureAlgebra,
                            MeasurableFunction)
from lpconv.pnorm import (BOYD_MAX_ITER, BOYD_TOL, _power_iterate, _reduce, _unweighted_norm,
                          dual_transpose, norm_witness_disjoint, pnorm_estimate,
                          pnorm_genperm_exact, split_norm_ratio)

# the norm engine must stop a run before it divides by a vanishing value
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

COUNTING2 = FiniteMeasureAlgebra((1.0, 1.0))


def ctx_for(weights, p):
    return LpContext(FiniteMeasureAlgebra(tuple(weights)), p)


def test_genperm_exact_examples():
    ctx = ctx_for((1.0, 1.0), 3.0)
    phi = BooleanAutomorphism(ctx.algebra, (1, 0))
    assert pnorm_genperm_exact(transform_isometry(phi, ctx), ctx) \
        == pytest.approx(1.0, abs=1e-12)
    assert pnorm_genperm_exact(2.0 * np.eye(2), ctx) == 2.0
    assert pnorm_genperm_exact(np.diag([3.0, 1.0]), ctx) == 3.0


def test_genperm_exact_weighted_matches_rayleigh():
    ctx = ctx_for((0.7, 2.3, 1.1), 1.5)
    m = np.zeros((3, 3), dtype=complex)
    m[2, 0] = 1.5j
    m[0, 1] = -0.25
    exact = pnorm_genperm_exact(m, ctx)
    best = max(
        vector_norm(m @ e, ctx) / vector_norm(e, ctx)
        for e in np.eye(3, dtype=complex))
    assert exact == pytest.approx(best, rel=1e-13)


def test_genperm_exact_rejects_dense():
    ctx = ctx_for((1.0, 1.0), 3.0)
    with pytest.raises(ValueError):
        pnorm_genperm_exact(np.ones((2, 2)), ctx)


def test_boyd_all_ones_examples():
    for p, expected in ((2.0, 2.0), (3.0, 2.0)):
        est = pnorm_estimate(np.ones((2, 2)), ctx_for((1.0, 1.0), p))
        assert est.converged
        assert est.lower == pytest.approx(expected, abs=1e-9)
        assert est.upper == pytest.approx(expected, abs=1e-9)


def test_boyd_diagonal():
    est = pnorm_estimate(np.diag([3.0, 1.0]), ctx_for((1.0, 1.0), 2.5))
    assert est.lower == pytest.approx(3.0, abs=1e-9)
    assert est.upper == pytest.approx(3.0, abs=1e-9)


def test_boyd_weighted_isometry_has_norm_one():
    ctx = ctx_for((0.5, 1.7, 2.2), 1.3)
    phi = BooleanAutomorphism(ctx.algebra, (2, 0, 1))
    est = pnorm_estimate(transform_isometry(phi, ctx).matrix.real, ctx)
    assert est.lower == pytest.approx(1.0, abs=1e-9)
    assert est.upper == pytest.approx(1.0, abs=1e-9)


def sweep_norm(m, p):
    """The p-norm of a nonnegative 2 x 2 matrix by a dense 1-parameter sweep
    of the nonnegative quarter of the unit p-sphere, zoomed in three times on
    the best grid point: for p near 1 the maximum can sit within one step of
    an end, where a single sweep misses it by more than 1e-6."""
    lo, hi = 0.0, 1.0
    for _ in range(3):
        t = np.linspace(lo, hi, 20001)
        xi = np.stack([t, 1.0 - t], axis=1) ** (1.0 / p)
        vals = ((xi @ m.T) ** p).sum(axis=1)
        k = int(np.argmax(vals))
        step = (hi - lo) / 20000
        lo, hi = max(0.0, t[k] - step), min(1.0, t[k] + step)
    return float(vals[k] ** (1.0 / p))


@given(st.integers(0, 2**16), st.sampled_from([1.5, 2.5, 4.0]))
@settings(max_examples=15)
def test_boyd_matches_coarse_grid(seed, p):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 1.0, (2, 2))
    est = pnorm_estimate(m, ctx_for((1.0, 1.0), p), seed=seed)
    oracle = sweep_norm(m, p)
    assert est.lower == pytest.approx(oracle, abs=1e-6)
    assert est.upper == pytest.approx(oracle, abs=1e-6)


@given(st.integers(0, 2**16), st.integers(1, 6), st.sampled_from([1.2, 1.5, 3.0, 4.0]))
@settings(max_examples=25)
def test_estimate_lower_never_below_the_run_from_ones(seed, n, p):
    # on nonnegative input the run from ones (Boyd's iteration) seeds one of
    # the starts, so the lower bound keeps at least its value
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7)
    ctx = ctx_for(rng.uniform(0.5, 2.0, n), p)
    val, _, _, _ = _power_iterate(_reduce(m, ctx), p, np.ones((1, n)), BOYD_TOL,
                                  BOYD_MAX_ITER)
    est = pnorm_estimate(m, ctx, starts=2, seed=seed)
    assert est.lower >= val[0] * (1.0 - 1e-12)


def test_estimate_collapses_on_generalized_permutations():
    ctx = ctx_for((1.0, 2.0, 0.4), 3.0)
    phi = BooleanAutomorphism(ctx.algebra, (1, 2, 0))
    f = MeasurableFunction(ctx.algebra, (1j, -1.0, 1.0))
    op = lamperti_operator(LampertiForm(f, phi), ctx)
    est = pnorm_estimate(op, ctx)
    assert est.lower == est.upper == pnorm_genperm_exact(op, ctx)
    ray = vector_norm(op.apply(est.witness), ctx) / vector_norm(est.witness, ctx)
    assert ray == pytest.approx(est.lower, abs=1e-12)


@pytest.mark.parametrize("m", [
    np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.5]]),
    np.ones((3, 3)),
    np.array([[0.0, 2j, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
], ids=["dense", "nonnegative", "generalized-permutation"])
def test_estimate_bounds_are_python_floats(m):
    # callers compare the bounds and put them in JSON: no numpy scalars
    est = pnorm_estimate(m, ctx_for((1.0, 2.0, 0.5), 3.0))
    assert type(est.lower) is float and type(est.upper) is float


def test_estimate_translation_difference_attains_two():
    # difference of two translations whose quotient has even order: the
    # alternating-sign witness realizes the norm 2 and the majorant matches
    for n in (2, 4):
        ctx = ctx_for((1.0,) * n, 3.0)
        shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
        est = pnorm_estimate(shift - np.eye(n), ctx, starts=6, seed=1)
        assert est.lower >= 2.0 - 1e-6
        assert est.upper <= 2.0 + 1e-9
        assert est.lower <= est.upper


def test_translation_witness_on_three_cycle():
    # point masses certify the split ratio 2 for distinct translations
    ctx = ctx_for((1.0, 1.0, 1.0), 3.0)
    one = MeasurableFunction.constant(ctx.algebra, 1.0)
    shift = LampertiForm(one, BooleanAutomorphism(ctx.algebra, (1, 2, 0)))
    ident = LampertiForm(one, BooleanAutomorphism.identity(ctx.algebra))
    xi = norm_witness_disjoint(shift, ident, ctx)
    assert split_norm_ratio(shift, ident, xi, ctx) == pytest.approx(2.0, abs=1e-12)


@given(st.integers(0, 2**16))
@settings(max_examples=20)
def test_estimate_sandwich_never_inverts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ctx = ctx_for(rng.uniform(0.5, 2.0, n), float(rng.choice([1.2, 1.5, 3.0, 4.0])))
    est = pnorm_estimate(m, ctx, starts=3, seed=seed)
    assert est.lower <= est.upper
    ray = vector_norm(m @ est.witness, ctx) / vector_norm(est.witness, ctx)
    assert ray == pytest.approx(est.lower, abs=1e-12)


@given(st.integers(0, 2**16))
@settings(max_examples=15)
def test_holder_duality_of_estimates(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = rng.uniform(0.0, 1.0, (n, n))
    weights = rng.uniform(0.5, 2.0, n)
    p = float(rng.choice([1.5, 3.0]))
    ctx_p = ctx_for(weights, p)
    ctx_q = ctx_for(weights, p / (p - 1.0))
    lower_p = pnorm_estimate(m, ctx_p, starts=4, seed=seed).lower
    lower_q = pnorm_estimate(dual_transpose(m, ctx_p), ctx_q, starts=4, seed=seed).lower
    assert lower_p == pytest.approx(lower_q, abs=2e-6)


@given(st.integers(0, 2**16), st.integers(2, 8), st.sampled_from([1.2, 1.5, 3.0, 4.0]),
       st.booleans())
@settings(max_examples=25)
def test_power_iterate_rows_do_not_interact(seed, n, p, zero_column):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dead = int(rng.integers(n))
    if zero_column:
        a[:, dead] = 0.0
    x0 = np.concatenate([np.eye(n), np.zeros((1, n)),
                         rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))])
    for tol, max_iter in ((0.0, 30), (BOYD_TOL, 300)):
        vals, xs, passes, converged = _power_iterate(a, p, x0, tol, max_iter)
        for j in range(len(x0)):
            alone = _power_iterate(a, p, x0[[j]], tol, max_iter)
            assert vals[j] == alone[0][0]
            assert np.array_equal(xs[j], alone[1][0])
            assert passes[j] == alone[2][0] and converged[j] == alone[3][0]
        # the zero start never moves; an atom on a zero column stops at once
        assert vals[n] == 0.0 and passes[n] == 0 and not xs[n].any()
        if zero_column:
            assert vals[dead] == 0.0 and passes[dead] == 1


def _circulant(coeffs):
    n = len(coeffs)
    shift = np.roll(np.eye(n), 1, axis=0)
    return sum(c * np.linalg.matrix_power(shift, g) for g, c in enumerate(coeffs))


def test_polish_stops_at_its_fixed_point():
    # an element of the group algebra of Z4: without the fixed-point stop the
    # run from its best atom goes on for all 300 passes and ends at this same value
    rng = np.random.default_rng(1)
    a = _circulant(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    vals, xs, passes, converged = _power_iterate(a, 3.0, np.eye(4), 0.0, 300)
    best = int(np.argmax(vals))
    assert passes[best] < 300 and converged[best]
    assert vals[best] == pytest.approx(3.5702323276388266, rel=1e-12)
    again, _, _, _ = _power_iterate(a, 3.0, xs[[best]], 0.0, 300)
    assert again[0] <= vals[best] * (1.0 + 1e-14)
    est = pnorm_estimate(a, ctx_for((1.0,) * 4, 3.0))
    assert est.lower == pytest.approx(3.5702323276388266, rel=1e-12)


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_lower_bound_runs_past_300_passes_on_a_flat_maximum(p):
    # an element of the group algebra of Z7 whose iteration from every atom
    # still rises at pass 300; a 300-pass cap on the best start cut that off
    rng = np.random.default_rng(39)
    a = _circulant(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    capped, _, _, converged = _power_iterate(a, p, np.eye(7), 0.0, 300)
    earlier, _, _, _ = _power_iterate(a, p, np.eye(7), 0.0, 299)
    assert not converged.any() and capped.max() > earlier.max()
    ctx = ctx_for((1.0,) * 7, p)
    est = pnorm_estimate(a, ctx)
    assert est.lower >= capped.max()
    ray = vector_norm(a @ est.witness, ctx) / vector_norm(est.witness, ctx)
    assert ray == pytest.approx(est.lower, abs=1e-12)


@given(st.integers(0, 2**16), st.integers(2, 6), st.sampled_from([1.2, 1.5, 3.0, 4.0]))
@settings(max_examples=25)
@example(seed=193, n=2, p=1.2)  # the maximum sits at t = 0.99998
def test_power_iterate_on_positive_matrices(seed, n, p):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 1.0, (n, n))
    ctx = ctx_for(rng.uniform(0.5, 2.0, n), p)
    a = _reduce(m, ctx)
    # from ones it is Boyd's iteration, which reaches the norm on positive input
    val, x, _, converged = _power_iterate(a, p, np.ones((1, n)), BOYD_TOL, BOYD_MAX_ITER)
    assert converged[0]
    if n == 2:
        assert val[0] == pytest.approx(sweep_norm(a, p), abs=1e-6)
    # at any positive x the Schur test max_j (a^T (a x)^(p-1))_j / x_j^(p-1)
    # bounds the p-th power of the norm from above
    schur = np.max(a.T @ (a @ x[0]) ** (p - 1.0) / x[0] ** (p - 1.0)) ** (1.0 / p)
    assert val[0] <= schur * (1.0 + 1e-12) and schur <= val[0] * (1.0 + 1e-5)
    # from any positive start, with either stop, it keeps at least the start's value
    x0 = rng.uniform(0.01, 1.0, n)
    start = _unweighted_norm(a @ x0, p) / _unweighted_norm(x0, p)
    for tol, max_iter in ((0.0, 300), (BOYD_TOL, BOYD_MAX_ITER)):
        val, x, _, _ = _power_iterate(a, p, x0[None], tol, max_iter)
        assert val[0] >= start
        assert _unweighted_norm(a @ x[0], p) / _unweighted_norm(x[0], p) == pytest.approx(
            val[0], rel=1e-12)


def test_second_majorant_run_starts_at_the_reduced_witness(monkeypatch):
    # on a weighted space the best point lives in reduced coordinates,
    # witness * w^(1/p); the majorant re-run must start there, not at |witness|
    rng = np.random.default_rng(3)
    n, p = 4, 3.0
    weights = np.array([0.05, 0.4, 1.0, 6.0])
    ctx = ctx_for(weights, p)
    m = rng.uniform(0.1, 1.0, (n, n))
    runs = []

    def recording(a, p_, x0, tol, max_iter):
        out = _power_iterate(a, p_, x0, tol, max_iter)
        runs.append((np.array(x0), out))
        return out

    monkeypatch.setattr(pnorm, "_power_iterate", recording)
    est = pnorm_estimate(m, ctx, starts=3, seed=0)
    start, (value, _, passes, _) = runs[-1]
    assert start.shape == (1, n)
    reduced = np.abs(est.witness) * weights ** (1.0 / p)
    assert start[0] / _unweighted_norm(start[0], p) == pytest.approx(
        reduced / _unweighted_norm(reduced, p), rel=1e-12)
    # m is nonnegative, so that point already is the majorant's fixed point
    assert passes[0] == 1
    assert value[0] == pytest.approx(est.lower, rel=1e-12)


@pytest.mark.parametrize("kind", ["zero-column", "rank-one"])
def test_estimate_on_degenerate_matrices(kind):
    rng = np.random.default_rng(11)
    n = 5
    ctx = ctx_for(rng.uniform(0.5, 2.0, n), 3.0)
    if kind == "zero-column":
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[:, 2] = 0.0
    else:
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = np.outer(u, v.conj())
    est = pnorm_estimate(m, ctx, starts=3, seed=2)
    ray = vector_norm(m @ est.witness, ctx) / vector_norm(est.witness, ctx)
    assert ray == pytest.approx(est.lower, rel=1e-12, abs=1e-12)
    best_atom = max(vector_norm(m @ e, ctx) / vector_norm(e, ctx)
                    for e in np.eye(n, dtype=complex))
    assert est.lower >= best_atom * (1.0 - 1e-12)
    assert est.lower <= est.upper


def test_disjoint_witness_certifies_two():
    ctx = LpContext(COUNTING2, 3.0)
    identity = BooleanAutomorphism.identity(ctx.algebra)
    swap = BooleanAutomorphism(ctx.algebra, (1, 0))
    one = MeasurableFunction.constant(ctx.algebra, 1.0)
    a = LampertiForm(one, swap)
    b = LampertiForm(one, identity)
    xi = norm_witness_disjoint(a, b, ctx)
    assert np.count_nonzero(xi) == 1
    assert split_norm_ratio(a, b, xi, ctx) == pytest.approx(2.0, abs=1e-12)
    ya = lamperti_operator(a, ctx).apply(xi)
    yb = lamperti_operator(b, ctx).apply(xi)
    assert np.max(np.abs(ya) * np.abs(yb)) == 0.0


def test_disjoint_witness_weighted_still_two():
    ctx = ctx_for((0.3, 1.9, 2.4), 1.5)
    rng = np.random.default_rng(5)
    f = MeasurableFunction(ctx.algebra, tuple(np.exp(2j * np.pi * rng.uniform(size=3))))
    g = MeasurableFunction(ctx.algebra, tuple(np.exp(2j * np.pi * rng.uniform(size=3))))
    a = LampertiForm(f, BooleanAutomorphism(ctx.algebra, (1, 2, 0)))
    b = LampertiForm(g, BooleanAutomorphism(ctx.algebra, (0, 2, 1)))
    xi = norm_witness_disjoint(a, b, ctx)
    assert split_norm_ratio(a, b, xi, ctx) == pytest.approx(2.0, abs=1e-12)


def test_disjoint_witness_requires_distinct_permutations():
    ctx = LpContext(COUNTING2, 3.0)
    swap = BooleanAutomorphism(ctx.algebra, (1, 0))
    one = MeasurableFunction.constant(ctx.algebra, 1.0)
    a = LampertiForm(one, swap)
    with pytest.raises(ValueError):
        norm_witness_disjoint(a, a, ctx)
