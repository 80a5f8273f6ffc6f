"""Finite measure algebras: weighted atoms, valuations, pointwise functions.

The derivative of one valuation by another is their atomwise ratio, the
least threshold whose level set holds the atom.
"""

from __future__ import annotations

import math

from .errors import AlgebraMismatch, Frozen


class FiniteMeasureAlgebra(Frozen):
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


class Valuation(Frozen):
    """A strictly positive, additive set function, stored atom by atom."""

    algebra: FiniteMeasureAlgebra
    atom_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.atom_values) != self.algebra.atoms:
            raise ValueError("one value per atom required")
        for v in self.atom_values:
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError("valuations must be strictly positive and finite")


class MeasurableFunction(Frozen):
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


class BooleanAutomorphism(Frozen):
    """An atom permutation, acting on functions and valuations."""

    algebra: FiniteMeasureAlgebra
    perm: tuple[int, ...]

    def __post_init__(self):
        n = self.algebra.atoms
        if len(self.perm) != n or sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of the atoms")

    def _scatter(self, values: tuple) -> tuple:
        """The value at perm[x] is the old value at x."""
        out = [None] * len(self.perm)
        for x, y in enumerate(self.perm):
            out[y] = values[x]
        return tuple(out)

    def push_function(self, f: MeasurableFunction) -> MeasurableFunction:
        """The transported function: value at perm[x] is the old value at x."""
        _same_algebra(self.algebra, f.algebra)
        return MeasurableFunction(self.algebra, self._scatter(f.values))

    def push_valuation(self, v: Valuation) -> Valuation:
        """The image valuation: mass at perm[x] is the old mass at x."""
        _same_algebra(self.algebra, v.algebra)
        return Valuation(self.algebra, self._scatter(v.atom_values))


def _same_algebra(a: FiniteMeasureAlgebra, b: FiniteMeasureAlgebra) -> None:
    if a != b:
        raise AlgebraMismatch("operands live on different measure algebras")


def rn_derivative(sigma: Valuation, mu: Valuation) -> MeasurableFunction:
    """The derivative of sigma by mu: the atomwise ratio sigma(x)/mu(x).

    By additivity, the largest set on which sigma <= t * mu holds
    hereditarily is the set of atoms whose ratio is at most t, so the least
    threshold whose level set holds an atom is that atom's own ratio. The
    derivative is strictly positive: a ratio that underflows to 0 is refused.
    """
    _same_algebra(sigma.algebra, mu.algebra)
    values = tuple(s / m for s, m in zip(sigma.atom_values, mu.atom_values))
    if 0.0 in values:
        raise ValueError(f"the derivative underflows to 0 at atom {values.index(0.0)}")
    return MeasurableFunction(sigma.algebra, values)


def integrate(f: MeasurableFunction, mu: Valuation) -> complex:
    """The weighted sum of the values."""
    _same_algebra(f.algebra, mu.algebra)
    return sum(v * m for v, m in zip(f.values, mu.atom_values))


class ChainRuleReport(Frozen):
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
