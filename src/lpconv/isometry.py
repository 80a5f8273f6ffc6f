"""Surjective isometries of weighted finite lp spaces and their factorization.

Away from exponent 2 every surjective isometry is a unimodular
multiplication composed with a weight-transported atom permutation. This
module builds the two generators and factors a proved isometry back
into that normal form. The distance between two factored isometries has
the closed form max(sup distance of the phase functions, 2 if the
permutations differ); note that 2 is attained by the entrywise-absolute
majorant, while the complex operator norm can sit strictly below it when
the relative phases are generic. A point mass where the permutations differ
certifies that 2 (norm_witness_disjoint, split_norm_ratio).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlgebraMismatch, Frozen, NotIsometry, P2Unsupported, POutOfRange
from .measure import BooleanAutomorphism, FiniteMeasureAlgebra, MeasurableFunction

DECOMPOSE_TOL = 1e-9
UNIMODULAR_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


class LpContext(Frozen):
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


def _reduce(m: np.ndarray, ctx: LpContext) -> np.ndarray:
    # similarity onto the unweighted space; isometric, preserves nonnegativity
    d = ctx.weight_array ** (1.0 / ctx.p)
    return (d[:, None] * m) / d[None, :]


def _riesz_thorin(a: np.ndarray, p: float) -> float:
    """Riesz-Thorin's proved bound |a|_1^(1/p) |a|_inf^(1 - 1/p) on the
    unweighted p-norm of the square matrix a, inflated by 1 + 4(n + 2) eps
    for the roundoff of the moduli, the column and row sums and the powers.
    """
    moduli = np.abs(a)
    col, row = float(moduli.sum(axis=0).max()), float(moduli.sum(axis=1).max())
    return col ** (1.0 / p) * row ** (1.0 - 1.0 / p) * (1.0 + 4.0 * (len(a) + 2) * _EPS)


def _unimodular_defect(values) -> float:
    """max ||v| - 1| over the values, 0 for none."""
    return max((abs(abs(v) - 1.0) for v in values), default=0.0)


class Operator(Frozen):
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


class LampertiForm(Frozen):
    """A unimodular phase function together with an atom permutation."""

    f: MeasurableFunction
    phi: BooleanAutomorphism

    def __post_init__(self):
        if self.f.algebra != self.phi.algebra:
            raise AlgebraMismatch("phase function and permutation disagree on the algebra")
        if _unimodular_defect(self.f.values) > UNIMODULAR_TOL:
            raise ValueError("phase function must be unimodular on every atom")


def _same_context(a: LpContext, b: LpContext) -> None:
    if a != b:
        raise AlgebraMismatch("operands live on different lp contexts")


def mult_isometry(f: MeasurableFunction, ctx: LpContext) -> Operator:
    """Multiplication by a unimodular function, as a diagonal matrix."""
    if f.algebra != ctx.algebra:
        raise AlgebraMismatch("function lives on a different algebra")
    if _unimodular_defect(f.values) > UNIMODULAR_TOL:
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


def lamperti_decompose(op: Operator, *, tol: float = DECOMPOSE_TOL) -> LampertiForm:
    """Factor a surjective isometry into phases and a permutation, proved to tol.

    Reads the permutation off the column supports (away from p = 2 a genuine
    isometry has one supported row per column; an entry of modulus at most
    tol counts as zero) and divides out the weight factors to recover values
    v, whose nearest unimodular phases v/|v| are the form's f. The proof:
    for the form's operator L, an isometry, and D = diag(w^(1/p)),
    E = D (op - L) D^-1 is D op D^-1 less the phases on the permutation's
    cells, which there leaves v - v/|v|, of modulus ||v| - 1|. So
    Riesz-Thorin's |E|_1^(1/p) |E|_inf^(1 - 1/p) alone bounds the relative
    norm change of every vector, atoms included. The form is returned only
    if that bound, plus 8 (n + 1) eps (1 + bound) for the roundoff in
    forming E, is at most tol; so tol = 0 accepts nothing.
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

    perm = [-1] * n
    for x in range(n):
        rows = np.flatnonzero(np.abs(m[:, x]) > tol)
        if len(rows) != 1:
            raise NotIsometry(
                f"column {x} has {len(rows)} supported rows; "
                "an isometry away from p = 2 has exactly one")
        perm[x] = int(rows[0])
    if len(set(perm)) != n:
        raise NotIsometry("column supports do not form a permutation")

    values = [0j] * n
    for x, y in enumerate(perm):
        v = m[y, x] / (w[x] / w[y]) ** (1.0 / p)
        values[y] = v / abs(v)

    e = _reduce(m, ctx)
    e[perm, range(n)] -= [values[y] for y in perm]
    bound = _riesz_thorin(e, p)
    bound += 8.0 * (n + 1) * _EPS * (1.0 + bound)
    if not bound <= tol:  # a NaN bound is refused too
        raise NotIsometry(f"Riesz-Thorin bound {bound} on the relative norm change exceeds {tol}")
    return LampertiForm(MeasurableFunction(ctx.algebra, tuple(values)),
                        BooleanAutomorphism(ctx.algebra, tuple(perm)))


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


def norm_witness_disjoint(a: LampertiForm, b: LampertiForm, ctx: LpContext) -> np.ndarray:
    """A normalized point mass on an atom where the two permutations differ.

    The two isometries send it to unit vectors with disjoint supports, so
    their norms add up to exactly 2 (see split_norm_ratio) and the
    entrywise-absolute difference attains operator norm 2 on it.
    """
    if a.phi.perm == b.phi.perm:
        raise ValueError("the permutation parts coincide; no disjoint witness exists")
    n = ctx.algebra.atoms
    c = next(x for x in range(n) if a.phi.perm[x] != b.phi.perm[x])
    xi = np.zeros(n, dtype=complex)
    xi[c] = 1.0 / ctx.algebra.weights[c] ** (1.0 / ctx.p)
    return xi


def split_norm_ratio(a: LampertiForm, b: LampertiForm, xi, ctx: LpContext) -> float:
    """(|A xi|_p + |B xi|_p) / |xi|_p for the two composed isometries.

    Equals 2 exactly on any nonzero vector since both factors preserve the
    norm; on a disjoint witness this certifies that the absolute majorant
    of A - B has norm 2.
    """
    x = np.asarray(xi, dtype=complex).reshape(-1)
    denom = vector_norm(x, ctx)
    if denom == 0.0:
        raise ValueError("witness must be nonzero")
    am = lamperti_operator(a, ctx).matrix
    bm = lamperti_operator(b, ctx).matrix
    return (vector_norm(am @ x, ctx) + vector_norm(bm @ x, ctx)) / denom
