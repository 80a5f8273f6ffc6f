import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpconv.errors import AlgebraMismatch, POutOfRange
from lpconv.isometry import LpContext, vector_norm
from lpconv.measure import (BooleanAutomorphism, FiniteMeasureAlgebra,
                            MeasurableFunction, Valuation, integrate,
                            rn_chain_rules, rn_derivative)

positive = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)


def weight_lists(min_size=1, max_size=8):
    return st.lists(positive, min_size=min_size, max_size=max_size)


@st.composite
def valuation_pairs(draw, max_size=8):
    weights = draw(weight_lists(max_size=max_size))
    n = len(weights)
    algebra = FiniteMeasureAlgebra(tuple(weights))
    sigma = Valuation(algebra, tuple(draw(st.lists(positive, min_size=n, max_size=n))))
    return algebra, sigma


def _mass(v, subset):
    """The additive extension of a valuation to a set of atoms."""
    return sum(v.atom_values[x] for x in subset)


def _layer_cake(values, mu):
    """The integral of t -> mu(values > t) over t > 0, exact for
    piecewise-constant nonnegative data."""
    thresholds = sorted(set(values) | {0.0})
    total = 0.0
    for lo, hi in zip(thresholds, thresholds[1:]):
        total += (hi - lo) * sum(m for v, m in zip(values, mu.atom_values) if v >= hi)
    return total


def _integrate_layer_cake(f, mu):
    """The integral through tail masses over the level thresholds: real and
    imaginary parts, each split into positive and negative parts, are
    integrated as the area under their decreasing tail-mass profiles."""
    def tail(part):
        return (_layer_cake([max(v, 0.0) for v in part], mu)
                - _layer_cake([max(-v, 0.0) for v in part], mu))

    return complex(tail([v.real for v in f.values]), tail([v.imag for v in f.values]))


def _norm(f, mu, p):
    """The weighted p-norm of f, through vector_norm."""
    return vector_norm(f.values, LpContext(FiniteMeasureAlgebra(mu.atom_values), p))


def test_algebra_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        FiniteMeasureAlgebra((1.0, 0.0))
    with pytest.raises(ValueError):
        FiniteMeasureAlgebra(())


def test_derivative_two_atom_example():
    algebra = FiniteMeasureAlgebra((1.0, 2.0))
    sigma = Valuation(algebra, (3.0, 1.0))
    d = rn_derivative(sigma, algebra.mu())
    assert d.values == (3.0 + 0j, 0.5 + 0j)


def test_derivative_of_itself_is_one():
    algebra = FiniteMeasureAlgebra((0.7, 1.3, 2.9))
    mu = algebra.mu()
    assert rn_derivative(mu, mu).values == (1.0 + 0j,) * 3


def test_derivative_requires_common_algebra():
    a = FiniteMeasureAlgebra((1.0,))
    b = FiniteMeasureAlgebra((2.0,))
    with pytest.raises(AlgebraMismatch):
        rn_derivative(a.mu(), b.mu())


@given(valuation_pairs())
def test_derivative_equals_atomwise_ratio_exactly(pair):
    algebra, sigma = pair
    mu = algebra.mu()
    d = rn_derivative(sigma, mu)
    for x in range(algebra.atoms):
        assert d.values[x] == sigma.atom_values[x] / mu.atom_values[x]
        assert d.values[x].real > 0.0


def brute_force_level_set(sigma, mu, t):
    """sup of the downward-hereditary family {a : sigma(b) <= t mu(b) for all
    b in a}, by enumerating all subsets, in exact rational arithmetic."""
    n = sigma.algebra.atoms
    atoms = range(n)

    def mass(v, subset):
        return sum((Fraction(v.atom_values[x]) for x in subset), Fraction(0))

    best: set[int] = set()
    for r in range(n + 1):
        for subset in itertools.combinations(atoms, r):
            if all(mass(sigma, sub) <= t * mass(mu, sub)
                   for k in range(len(subset) + 1)
                   for sub in itertools.combinations(subset, k)):
                best |= set(subset)
    return frozenset(best)


def _assert_derivative_is_least_level_set_threshold(sigma, mu):
    """At each atom the derivative is the least exact ratio whose level set
    holds the atom, rounded once: float division rounds correctly."""
    d = rn_derivative(sigma, mu)
    ratios = sorted({Fraction(s) / Fraction(m)
                     for s, m in zip(sigma.atom_values, mu.atom_values)})
    level_sets = [(t, brute_force_level_set(sigma, mu, t)) for t in ratios]
    for x in range(sigma.algebra.atoms):
        least = min(t for t, level_set in level_sets if x in level_set)
        assert d.values[x] == float(least)


def test_level_set_matches_subset_brute_force():
    algebra = FiniteMeasureAlgebra((1.0, 2.0, 0.5, 1.5))
    _assert_derivative_is_least_level_set_threshold(
        Valuation(algebra, (0.9, 2.6, 1.1, 0.4)), algebra.mu())


@given(valuation_pairs(max_size=6))
def test_drawn_derivatives_are_least_level_set_thresholds(pair):
    algebra, sigma = pair
    _assert_derivative_is_least_level_set_threshold(sigma, algebra.mu())


def test_underflowing_derivative_raises():
    algebra = FiniteMeasureAlgebra((1.0, 1e300, 1.0))
    sigma = Valuation(algebra, (2.0, 1e-300, 1.0))
    with pytest.raises(ValueError, match="underflows to 0 at atom 1"):
        rn_derivative(sigma, algebra.mu())


def test_band_inequality_over_all_subsets():
    # on any subset of a ratio band [s, t], the masses satisfy
    # s * mu(a) <= sigma(a) <= t * mu(a)
    algebra = FiniteMeasureAlgebra((1.0, 2.0, 0.5, 1.5, 0.8))
    mu = algebra.mu()
    sigma = Valuation(algebra, (0.9, 2.6, 1.1, 0.4, 1.7))
    d = rn_derivative(sigma, mu)
    ratios = sorted({v.real for v in d.values})
    for s, t in itertools.combinations_with_replacement(ratios, 2):
        band = [x for x in range(5) if s <= d.values[x].real <= t]
        for r in range(len(band) + 1):
            for subset in itertools.combinations(band, r):
                ms, mt = _mass(mu, subset), _mass(sigma, subset)
                assert s * ms <= mt + 1e-12
                assert mt <= t * ms + 1e-12


def test_integral_of_atom_indicator():
    algebra = FiniteMeasureAlgebra((1.0, 2.0))
    f = MeasurableFunction(algebra, (1.0, 0.0))
    assert integrate(f, algebra.mu()) == 1.0


def test_integral_recovers_total_mass_through_derivative():
    algebra = FiniteMeasureAlgebra((1.0, 2.0))
    mu = algebra.mu()
    sigma = Valuation(algebra, (3.0, 1.0))
    d = rn_derivative(sigma, mu)
    assert integrate(d, mu) == pytest.approx(sum(sigma.atom_values), abs=1e-14)


@given(valuation_pairs(max_size=6),
       st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=6, max_size=6))
def test_change_of_valuation_identity(pair, coords):
    algebra, sigma = pair
    mu = algebra.mu()
    n = algebra.atoms
    f = MeasurableFunction(algebra, tuple(complex(a, b) for a, b in coords[:n]))
    lhs = integrate(f, sigma)
    rhs = integrate(f * rn_derivative(sigma, mu), mu)
    assert abs(lhs - rhs) <= 1e-12


@given(valuation_pairs(max_size=8),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=8, max_size=8))
def test_layer_cake_agrees_with_weighted_sum(pair, coords):
    algebra, _ = pair
    mu = algebra.mu()
    n = algebra.atoms
    f = MeasurableFunction(algebra, tuple(complex(a, b) for a, b in coords[:n]))
    assert abs(integrate(f, mu) - _integrate_layer_cake(f, mu)) <= 1e-12


def test_lp_norm_examples():
    counting = FiniteMeasureAlgebra((1.0, 1.0))
    f = MeasurableFunction(counting, (1.0, 1.0))
    assert _norm(f, counting.mu(), 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    g = MeasurableFunction(counting, (1.0 + 1.0j, -2.0))
    assert g.sup_norm == 2.0
    for p in (0.5, math.inf):
        with pytest.raises(POutOfRange):
            LpContext(counting, p)


@given(valuation_pairs(max_size=8),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=8, max_size=8),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_lp_norm_against_layer_cake_of_powers(pair, coords, p):
    algebra, _ = pair
    mu = algebra.mu()
    n = algebra.atoms
    f = MeasurableFunction(algebra, tuple(complex(a, b) for a, b in coords[:n]))
    powered = MeasurableFunction(algebra, tuple(abs(v) ** p for v in f.values))
    oracle = _integrate_layer_cake(powered, mu).real ** (1.0 / p)
    assert _norm(f, mu, p) == pytest.approx(oracle, abs=1e-12)


@given(valuation_pairs(max_size=6),
       st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=12, max_size=12),
       st.sampled_from([1.0, 1.5, 3.0]))
def test_lp_norm_triangle_and_homogeneity(pair, coords, p):
    algebra, _ = pair
    mu = algebra.mu()
    n = algebra.atoms
    f = MeasurableFunction(algebra, tuple(complex(a, b) for a, b in coords[:n]))
    g = MeasurableFunction(algebra, tuple(complex(a, b) for a, b in coords[n:2 * n]))
    fg = MeasurableFunction(algebra, tuple(a + b for a, b in zip(f.values, g.values)))
    assert _norm(fg, mu, p) <= _norm(f, mu, p) + _norm(g, mu, p) + 1e-12
    scaled = MeasurableFunction(algebra, tuple(-2.5 * v for v in f.values))
    assert _norm(scaled, mu, p) == pytest.approx(2.5 * _norm(f, mu, p), rel=1e-12)


def test_chain_rules_trivial_cases():
    algebra = FiniteMeasureAlgebra((1.0, 2.0, 0.5))
    mu = algebra.mu()
    sigma = Valuation(algebra, (0.9, 1.4, 2.2))
    identity = BooleanAutomorphism(algebra, (0, 1, 2))
    report = rn_chain_rules(mu, sigma, sigma, identity)
    assert report.product_deviation <= 1e-15
    assert report.push_deviation == 0.0


def test_chain_rules_random_instance():
    rng = np.random.default_rng(11)
    algebra = FiniteMeasureAlgebra(tuple(rng.uniform(0.5, 2.0, 4)))
    mu = Valuation(algebra, tuple(rng.uniform(0.5, 2.0, 4)))
    sigma = Valuation(algebra, tuple(rng.uniform(0.5, 2.0, 4)))
    rho = Valuation(algebra, tuple(rng.uniform(0.5, 2.0, 4)))
    phi = BooleanAutomorphism(algebra, (3, 1, 0, 2))
    assert rn_chain_rules(mu, sigma, rho, phi).max_deviation < 1e-12
