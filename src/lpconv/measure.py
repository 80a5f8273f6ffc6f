"""Finite measure algebras: weighted atoms, valuations, pointwise functions.

The derivative of one valuation by another is read off its level sets, as
in the measure-algebra definition, rather than computed atomwise; it
reproduces the atomwise ratio float for float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AlgebraMismatch


@dataclass(frozen=True)
class FiniteMeasureAlgebra:
    """Atoms 0..n-1 carrying strictly positive reference weights."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValueError("an algebra needs at least one atom")
        for w in self.weights:
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError("weights must be strictly positive and finite")

    @property
    def atoms(self) -> int:
        return len(self.weights)

    def mu(self) -> Valuation:
        """The reference weights viewed as a valuation."""
        return Valuation(self, self.weights)


@dataclass(frozen=True)
class Valuation:
    """A strictly positive, additive set function, stored atom by atom."""

    algebra: FiniteMeasureAlgebra
    atom_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.atom_values) != self.algebra.atoms:
            raise ValueError("one value per atom required")
        for v in self.atom_values:
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError("valuations must be strictly positive and finite")


@dataclass(frozen=True)
class MeasurableFunction:
    """A complex value per atom."""

    algebra: FiniteMeasureAlgebra
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.values) != self.algebra.atoms:
            raise ValueError("one value per atom required")
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    @property
    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values)

    def __mul__(self, other: MeasurableFunction) -> MeasurableFunction:
        _same_algebra(self.algebra, other.algebra)
        return MeasurableFunction(self.algebra,
                                  tuple(a * b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: MeasurableFunction) -> MeasurableFunction:
        _same_algebra(self.algebra, other.algebra)
        return MeasurableFunction(self.algebra,
                                  tuple(a - b for a, b in zip(self.values, other.values)))


@dataclass(frozen=True)
class BooleanAutomorphism:
    """An atom permutation, acting on functions and valuations."""

    algebra: FiniteMeasureAlgebra
    perm: tuple[int, ...]

    def __post_init__(self):
        n = self.algebra.atoms
        if len(self.perm) != n or sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of the atoms")

    def push_function(self, f: MeasurableFunction) -> MeasurableFunction:
        """The transported function: value at perm[x] is the old value at x."""
        _same_algebra(self.algebra, f.algebra)
        out = [0j] * len(self.perm)
        for x, y in enumerate(self.perm):
            out[y] = f.values[x]
        return MeasurableFunction(self.algebra, tuple(out))

    def push_valuation(self, v: Valuation) -> Valuation:
        """The image valuation: mass at perm[x] is the old mass at x."""
        _same_algebra(self.algebra, v.algebra)
        out = [0.0] * len(self.perm)
        for x, y in enumerate(self.perm):
            out[y] = v.atom_values[x]
        return Valuation(self.algebra, tuple(out))


def _same_algebra(a: FiniteMeasureAlgebra, b: FiniteMeasureAlgebra) -> None:
    if a != b:
        raise AlgebraMismatch("operands live on different measure algebras")


def rn_level_set(sigma: Valuation, mu: Valuation, t: float) -> frozenset[int]:
    """Largest set on which sigma <= t * mu holds hereditarily.

    Hereditary domination by additivity reduces to the per-atom ratio test,
    which is how the set is evaluated here; the subset definition is
    exercised directly by brute force in the tests.
    """
    _same_algebra(sigma.algebra, mu.algebra)
    return frozenset(x for x in range(sigma.algebra.atoms)
                     if sigma.atom_values[x] / mu.atom_values[x] <= t)


def rn_derivative(sigma: Valuation, mu: Valuation) -> MeasurableFunction:
    """The derivative of sigma by mu, read off from its level sets.

    The level set at threshold t only jumps at the finitely many atomwise
    ratios, so scanning those thresholds in increasing order assigns to each
    atom the smallest threshold whose level set contains it. The result is
    strictly positive and coincides exactly, float for float, with the
    atomwise ratio sigma(x)/mu(x).
    """
    _same_algebra(sigma.algebra, mu.algebra)
    n = sigma.algebra.atoms
    ratios = [sigma.atom_values[x] / mu.atom_values[x] for x in range(n)]
    values: list[float | None] = [None] * n
    for t in sorted(set(ratios)):
        for x in rn_level_set(sigma, mu, t):
            if values[x] is None:
                values[x] = t
    assert all(v is not None and v > 0.0 for v in values)
    return MeasurableFunction(sigma.algebra, tuple(complex(v) for v in values))


def integrate(f: MeasurableFunction, mu: Valuation) -> complex:
    """The weighted sum of the values."""
    _same_algebra(f.algebra, mu.algebra)
    return sum(v * m for v, m in zip(f.values, mu.atom_values))


@dataclass(frozen=True)
class ChainRuleReport:
    product_deviation: float
    push_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.product_deviation, self.push_deviation)


def rn_chain_rules(mu: Valuation, sigma: Valuation, rho: Valuation,
                   phi: BooleanAutomorphism) -> ChainRuleReport:
    """Atomwise check of the two derivative identities.

    Product rule: (d mu / d sigma) * (d sigma / d rho) = d mu / d rho.
    Transport rule: pushing d mu / d sigma through phi equals the derivative
    of the pushed valuations. Returns the worst deviations found.
    """
    _same_algebra(mu.algebra, sigma.algebra)
    _same_algebra(mu.algebra, rho.algebra)
    _same_algebra(mu.algebra, phi.algebra)

    lhs = rn_derivative(mu, sigma) * rn_derivative(sigma, rho)
    rhs = rn_derivative(mu, rho)
    product_dev = max(abs(a - b) for a, b in zip(lhs.values, rhs.values))

    pushed = phi.push_function(rn_derivative(mu, sigma))
    direct = rn_derivative(phi.push_valuation(mu), phi.push_valuation(sigma))
    push_dev = max(abs(a - b) for a, b in zip(pushed.values, direct.values))

    return ChainRuleReport(product_dev, push_dev)
