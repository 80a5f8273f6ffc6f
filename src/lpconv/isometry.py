"""Surjective isometries of weighted finite lp spaces and their factorization.

Away from exponent 2 every surjective isometry is a unimodular
multiplication composed with a weight-transported atom permutation. This
module builds the two generators, checks their interplay, and factors a
validated isometry back into that normal form. The distance between two
factored isometries has the closed form max(sup distance of the phase
functions, 2 if the permutations differ); note that 2 is attained by the
entrywise-absolute majorant, while the complex operator norm can sit
strictly below it when the relative phases are generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlgebraMismatch, NotIsometry, P2Unsupported, POutOfRange
from .measure import BooleanAutomorphism, FiniteMeasureAlgebra, MeasurableFunction

SUPPORT_TOL = 1e-9
ISOMETRY_TOL = 1e-9
UNIMODULAR_TOL = 1e-9
_VALIDATION_SEED = 0x15EC7
_VALIDATION_VECTORS = 64


@dataclass(frozen=True)
class LpContext:
    """A finite measure algebra together with an exponent in [1, inf)."""

    algebra: FiniteMeasureAlgebra
    p: float

    def __post_init__(self):
        if not (self.p >= 1.0 and math.isfinite(self.p)):
            raise POutOfRange("context exponent must be a finite real >= 1")

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.algebra.weights, dtype=float)


def vector_norm(xi, ctx: LpContext) -> float:
    """Weighted p-norm of a value-per-atom vector."""
    v = np.asarray(xi, dtype=complex).reshape(-1)
    return float((np.abs(v) ** ctx.p @ ctx.weight_array) ** (1.0 / ctx.p))


@dataclass(frozen=True)
class Operator:
    """A dense complex matrix acting on value-per-atom vectors."""

    context: LpContext
    matrix: np.ndarray

    def __post_init__(self):
        n = self.context.algebra.atoms
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (n, n):
            raise ValueError(f"matrix must be {n} x {n}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, xi) -> np.ndarray:
        return self.matrix @ np.asarray(xi, dtype=complex).reshape(-1)

    def compose(self, other: Operator) -> Operator:
        _same_context(self.context, other.context)
        return Operator(self.context, self.matrix @ other.matrix)

    def __sub__(self, other: Operator) -> Operator:
        _same_context(self.context, other.context)
        return Operator(self.context, self.matrix - other.matrix)

    def max_abs_deviation(self, other: Operator) -> float:
        _same_context(self.context, other.context)
        return float(np.max(np.abs(self.matrix - other.matrix)))


@dataclass(frozen=True)
class LampertiForm:
    """A unimodular phase function together with an atom permutation."""

    f: MeasurableFunction
    phi: BooleanAutomorphism

    def __post_init__(self):
        if self.f.algebra != self.phi.algebra:
            raise AlgebraMismatch("phase function and permutation disagree on the algebra")
        for v in self.f.values:
            if abs(abs(v) - 1.0) > UNIMODULAR_TOL:
                raise ValueError("phase function must be unimodular on every atom")


def _same_context(a: LpContext, b: LpContext) -> None:
    if a != b:
        raise AlgebraMismatch("operands live on different lp contexts")


def mult_isometry(f: MeasurableFunction, ctx: LpContext) -> Operator:
    """Multiplication by a unimodular function, as a diagonal matrix."""
    if f.algebra != ctx.algebra:
        raise AlgebraMismatch("function lives on a different algebra")
    for v in f.values:
        if abs(abs(v) - 1.0) > UNIMODULAR_TOL:
            raise ValueError("multiplication isometries need a unimodular symbol")
    return Operator(ctx, np.diag(np.asarray(f.values, dtype=complex)))


def transform_isometry(phi: BooleanAutomorphism, ctx: LpContext) -> Operator:
    """The isometry induced by an atom permutation.

    The entry at (phi(x), x) is (w_x / w_phi(x))^(1/p): transported mass is
    rescaled so that weighted p-norms are preserved. Counting measure gives
    the plain permutation matrix.
    """
    if phi.algebra != ctx.algebra:
        raise AlgebraMismatch("permutation lives on a different algebra")
    n = ctx.algebra.atoms
    w = ctx.algebra.weights
    m = np.zeros((n, n), dtype=complex)
    for x in range(n):
        y = phi.perm[x]
        m[y, x] = (w[x] / w[y]) ** (1.0 / ctx.p)
    return Operator(ctx, m)


def lamperti_operator(form: LampertiForm, ctx: LpContext) -> Operator:
    """The composed isometry: multiply by the phases after transporting."""
    return mult_isometry(form.f, ctx).compose(transform_isometry(form.phi, ctx))


def interplay_deviation(phi: BooleanAutomorphism, f: MeasurableFunction,
                        ctx: LpContext) -> float:
    """Max entry deviation between u_phi m_f u_phi^-1 and m_(phi . f)."""
    u = transform_isometry(phi, ctx)
    u_inv = transform_isometry(phi.inverse(), ctx)
    lhs = u.compose(mult_isometry(f, ctx)).compose(u_inv)
    rhs = mult_isometry(phi.push_function(f), ctx)
    return lhs.max_abs_deviation(rhs)


def clarkson_gap(xi, eta, ctx: LpContext) -> float:
    """The parallelogram defect |xi+eta|_p^p + |xi-eta|_p^p - 2(|xi|_p^p + |eta|_p^p).

    Nonnegative for p > 2, nonpositive for p < 2, and zero exactly when the
    two vectors have disjoint supports (p != 2).
    """
    if ctx.p == 2.0:
        raise P2Unsupported("the gap vanishes identically at p = 2")
    x = np.asarray(xi, dtype=complex).reshape(-1)
    y = np.asarray(eta, dtype=complex).reshape(-1)
    p = ctx.p
    return (vector_norm(x + y, ctx) ** p + vector_norm(x - y, ctx) ** p
            - 2.0 * (vector_norm(x, ctx) ** p + vector_norm(y, ctx) ** p))


def is_disjointness_preserving(op: Operator, tol: float = 1e-10) -> bool:
    """Whether images of distinct atoms have (near) disjoint supports."""
    m = np.abs(op.matrix)
    n = m.shape[0]
    for x in range(n):
        for y in range(x + 1, n):
            if np.max(m[:, x] * m[:, y]) > tol:
                return False
    return True


def lamperti_decompose(op: Operator, *, support_tol: float = SUPPORT_TOL,
                       isometry_tol: float = ISOMETRY_TOL) -> LampertiForm:
    """Factor a surjective isometry into phases and a permutation.

    Validates the isometry property on the atom basis and on a fixed batch
    of pseudorandom vectors, then reads the permutation off the column
    supports (away from p = 2 a genuine isometry has exactly one supported
    row per column) and divides out the weight factors to recover the
    phases. The reconstruction must match the input entrywise.
    """
    ctx = op.context
    p = ctx.p
    if p == 1.0:
        raise POutOfRange("factorization requires p strictly between 1 and infinity")
    if p == 2.0:
        raise P2Unsupported(
            "no factorized form at p = 2; a plane rotation by pi/4 is an "
            "l2 isometry that preserves no disjointness")

    n = ctx.algebra.atoms
    m = op.matrix
    w = ctx.weight_array

    for x in range(n):
        expected = w[x] ** (1.0 / p)
        got = vector_norm(m[:, x], ctx)
        if abs(got - expected) > isometry_tol * max(1.0, expected):
            raise NotIsometry(f"atom {x} changes norm: {got} vs {expected}")
    rng = np.random.default_rng(_VALIDATION_SEED)
    for _ in range(_VALIDATION_VECTORS):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a, b = vector_norm(m @ xi, ctx), vector_norm(xi, ctx)
        if abs(a - b) > isometry_tol * max(1.0, b):
            raise NotIsometry("a random vector changes norm")

    perm = [-1] * n
    for x in range(n):
        rows = np.flatnonzero(np.abs(m[:, x]) > support_tol)
        if len(rows) != 1:
            raise NotIsometry(
                f"column {x} has {len(rows)} supported rows; "
                "an isometry away from p = 2 has exactly one")
        perm[x] = int(rows[0])
    if len(set(perm)) != n:
        raise NotIsometry("column supports do not form a permutation")

    values = [0j] * n
    for x in range(n):
        y = perm[x]
        values[y] = m[y, x] / (w[x] / w[y]) ** (1.0 / p)
    for v in values:
        if abs(abs(v) - 1.0) > UNIMODULAR_TOL:
            raise NotIsometry("recovered phases are not unimodular")

    form = LampertiForm(MeasurableFunction(ctx.algebra, tuple(values)),
                        BooleanAutomorphism(ctx.algebra, tuple(perm)))
    residual = op.max_abs_deviation(lamperti_operator(form, ctx))
    bound = max(1e-9, isometry_tol)
    if residual >= bound:
        raise NotIsometry(f"reconstruction residual {residual} exceeds {bound}")
    return form


def lamperti_distance(a: LampertiForm, b: LampertiForm, ctx: LpContext) -> float:
    """Closed-form distance between two factored isometries.

    Equal permutations: the sup distance of the phase functions. Different
    permutations: 2, the value attained by the entrywise-absolute majorant
    of the difference (the complex operator norm never exceeds it).
    """
    if a.f.algebra != ctx.algebra or b.f.algebra != ctx.algebra:
        raise AlgebraMismatch("forms live on a different algebra")
    if a.phi.perm != b.phi.perm:
        return 2.0
    return float((a.f - b.f).sup_norm)
