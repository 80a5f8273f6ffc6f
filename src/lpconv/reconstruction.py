"""Recovering a finite group from an unlabeled convolution operator algebra.

The invertible isometries of such an algebra (exponent away from 2) are
phased permutation matrices; two of them lie in the same norm-connected
component of the isometry group exactly when their permutation parts
agree, since phases move on a connected circle while distinct permutation
parts keep a uniform norm gap. Grouping by permutation part therefore
computes the component group structurally, and that component group is the
group the algebra came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import (AlgebraBasis, ConvolutionContext, PhasedPermutation,
                          convolver_algebra, left_regular,
                          unitary_group_enumerate)
from .errors import NotGroupLike, P2Unsupported, POutOfRange
from .groups import (FiniteGroup, GroupIso, is_isomorphic, make_cyclic,
                     make_direct_product)
from .measure import BooleanAutomorphism
from .pnorm import dual_transpose, pnorm_estimate

P_MATCH_TOL = 1e-12


def components(unitaries) -> tuple[FiniteGroup, tuple[PhasedPermutation, ...]]:
    """Group a closed family of phased permutations by their permutation parts.

    Elements sharing a permutation part collapse to one component; the
    component products must close up into a group table, otherwise the
    family was not group-like. The permutation part of a product is the
    product of the permutation parts, so the table composes those alone.
    Returns the component group with the identity permutation as element 0
    and one representative per component.
    """
    units = list(unitaries)
    if not units:
        raise NotGroupLike("no isometry classes to quotient")
    n = len(units[0].perm)
    identity = tuple(range(n))
    reps: dict[tuple[int, ...], PhasedPermutation] = {}
    for u in units:
        reps.setdefault(u.perm, u)
    if identity not in reps:
        raise NotGroupLike("no scalar class present")
    perms = [identity] + sorted(p for p in reps if p != identity)
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for a in perms:
        row = tuple(index.get(tuple([a[y] for y in b]), -1) for b in perms)
        if -1 in row:
            raise NotGroupLike("component classes are not closed under product")
        table.append(row)
    try:
        group = FiniteGroup(len(perms), tuple(table), 0)
    except ValueError as exc:
        raise NotGroupLike(f"component table is not a group: {exc}") from exc
    return group, tuple(reps[p] for p in perms)


def left_translation_match(pi: BooleanAutomorphism, ctx: ConvolutionContext) -> int:
    """The unique element acting as the given automorphism by left translation.

    Requires pi to commute with every right translation; the witness is
    then pi applied to the identity atom.
    """
    g = ctx.group
    n = g.order
    if pi.algebra.atoms != n:
        raise ValueError("automorphism does not act on the group's atoms")
    perm = pi.perm
    for t in range(n):
        for x in range(n):
            if perm[g.mul(x, t)] != g.mul(perm[x], t):
                raise ValueError(
                    f"automorphism does not commute with right translation by {t}")
    s = perm[g.identity]
    assert all(perm[x] == g.mul(s, x) for x in range(n))
    return s


@dataclass(frozen=True)
class RecoveredGroup:
    """A component group together with one isometry class per element."""

    group: FiniteGroup
    representatives: tuple[PhasedPermutation, ...]


def recover_group(basis: AlgebraBasis, p: float) -> RecoveredGroup:
    """Recover a group from an algebra basis and its exponent.

    Pipeline: enumerate the invertible-isometry classes in the span, then
    quotient by permutation parts. Works for any basis whose classes close
    up into a group; NotGroupLike otherwise.
    """
    units = unitary_group_enumerate(basis, p)
    group, reps = components(units)
    return RecoveredGroup(group, reps)


@dataclass(frozen=True)
class IsoVerdict:
    verdict: str  # "Isomorphic" | "AntiIsomorphic" | "Distinct"
    p: float
    q: float
    group_a: FiniteGroup
    group_b: FiniteGroup
    witness: GroupIso | None


def decide_isomorphism(basis_a: AlgebraBasis, p: float,
                       basis_b: AlgebraBasis, q: float) -> IsoVerdict:
    """Decide whether two (algebra, exponent) pairs present the same data.

    Isomorphic: equal exponents and isomorphic recovered groups.
    AntiIsomorphic: conjugate exponents (q = p / (p - 1)) and isomorphic
    recovered groups, matching the transpose duality of the algebras.
    Distinct otherwise; the recovered groups ride along as evidence.
    """
    for exponent in (p, q):
        if exponent == 2.0:
            raise P2Unsupported("the decision procedure requires exponents away from 2")
        if not (1.0 < exponent < math.inf):
            raise POutOfRange("exponents must lie strictly between 1 and infinity")
    rec_a = recover_group(basis_a, p)
    rec_b = recover_group(basis_b, q)
    witness = is_isomorphic(rec_a.group, rec_b.group)
    if witness is not None and abs(p - q) <= P_MATCH_TOL:
        verdict = "Isomorphic"
    elif witness is not None and abs(q - p / (p - 1.0)) <= P_MATCH_TOL:
        verdict = "AntiIsomorphic"
    else:
        verdict = "Distinct"
        witness = None
    return IsoVerdict(verdict, p, q, rec_a.group, rec_b.group, witness)


@dataclass(frozen=True)
class DualityReport:
    samples: int
    max_overlap_gap: float
    max_reversal_residual: float


def dual_antiisomorphism_check(ctx: ConvolutionContext, samples: int = 20,
                               seed: int = 0, starts: int = 4) -> DualityReport:
    """Transpose duality between the exponent and its conjugate.

    For random span elements the p -> p norm sandwich and the transposed
    element's p' -> p' sandwich must overlap (they bracket the same norm),
    and the transpose must reverse products entrywise.
    """
    rng = np.random.default_rng(seed)
    g = ctx.group
    n = g.order
    lam = [left_regular(ctx, s).matrix for s in range(n)]
    ctx_p = ctx.lp_context()
    ctx_q = ConvolutionContext(g, ctx.p / (ctx.p - 1.0)).lp_context()

    def random_element():
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return sum(ci * li for ci, li in zip(c, lam))

    max_gap = 0.0
    max_reversal = 0.0
    for _ in range(samples):
        a = random_element()
        est_p = pnorm_estimate(a, ctx_p, starts=starts, seed=int(rng.integers(2**31)))
        est_q = pnorm_estimate(dual_transpose(a, ctx_p), ctx_q, starts=starts,
                               seed=int(rng.integers(2**31)))
        gap = max(est_p.lower, est_q.lower) - min(est_p.upper, est_q.upper)
        max_gap = max(max_gap, gap)
        b = random_element()
        residual = float(np.max(np.abs((a @ b).T - b.T @ a.T)))
        max_reversal = max(max_reversal, residual)
    return DualityReport(samples, max_gap, max_reversal)


@dataclass(frozen=True)
class P2DemoReport:
    """Evidence that exponent 2 cannot tell the two order-4 groups apart."""

    samples: int
    basis_mult_residual: float
    random_mult_residual: float
    norm_agreement_max: float
    membership_residual: float
    cycle_generator_spectrum: tuple[complex, ...]
    klein_involution_spectrum: tuple[complex, ...]
    p3_verdict: str


def _sorted_spectrum(m: np.ndarray) -> tuple[complex, ...]:
    eigs = np.linalg.eigvals(m)
    return tuple(complex(z) for z in sorted(eigs, key=lambda z: (round(z.real, 9),
                                                                 round(z.imag, 9))))


def p2_degeneracy_demo(samples: int = 100, seed: int = 0) -> P2DemoReport:
    """An explicit isometric algebra isomorphism at p = 2 that no group
    isomorphism underlies.

    The translation algebras of the 4-cycle and of the product of two
    2-cycles are both commutative and 4-dimensional; matching their joint
    diagonalizations slot by slot gives a linear map that is multiplicative
    and preserves the 2 -> 2 norm (the largest eigenvalue modulus), even
    though the groups are not isomorphic. At exponent 3 the decision
    procedure separates them.
    """
    rng = np.random.default_rng(seed)
    z4 = make_cyclic(4)
    z2 = make_cyclic(2)
    klein = make_direct_product(z2, z2)

    ctx4 = ConvolutionContext(z4, 2.0)
    ctxk = ConvolutionContext(klein, 2.0)
    lam4 = [left_regular(ctx4, s).matrix for s in range(4)]
    lamk = [left_regular(ctxk, s).matrix for s in range(4)]

    j = np.arange(4)
    fourier = np.power(1j, np.outer(j, j)) / 2.0  # columns diagonalize the cycle shifts
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    characters = np.kron(h, h) / 2.0  # columns diagonalize the Klein translations

    def transport(a: np.ndarray) -> np.ndarray:
        d = np.diag(fourier.conj().T @ a @ fourier)
        return characters @ np.diag(d) @ characters.conj().T

    klein_basis = AlgebraBasis(4, 2.0, tuple(lamk))
    membership_residual = 0.0
    for mat in lam4:
        image = transport(mat)
        coords = klein_basis.coordinates(image)
        if coords is None:
            membership_residual = math.inf
        else:
            stack = np.stack([m.reshape(-1) for m in lamk])
            resid = float(np.max(np.abs(stack.T @ coords - image.reshape(-1))))
            membership_residual = max(membership_residual, resid)

    basis_mult = 0.0
    for s in range(4):
        for t in range(4):
            lhs = transport(lam4[s] @ lam4[t])
            rhs = transport(lam4[s]) @ transport(lam4[t])
            basis_mult = max(basis_mult, float(np.max(np.abs(lhs - rhs))))

    random_mult = 0.0
    norm_dev = 0.0
    for _ in range(samples):
        ca = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = sum(c * m for c, m in zip(ca, lam4))
        b = sum(c * m for c, m in zip(cb, lam4))
        lhs = transport(a @ b)
        rhs = transport(a) @ transport(b)
        random_mult = max(random_mult, float(np.max(np.abs(lhs - rhs))))
        norm_a = float(np.max(np.abs(np.linalg.eigvals(a))))
        norm_fa = float(np.max(np.abs(np.linalg.eigvals(transport(a)))))
        norm_dev = max(norm_dev, abs(norm_a - norm_fa))

    involution = next(s for s in range(4) if klein.element_order(s) == 2)
    verdict = decide_isomorphism(
        convolver_algebra(ConvolutionContext(z4, 3.0)), 3.0,
        convolver_algebra(ConvolutionContext(klein, 3.0)), 3.0,
    )

    return P2DemoReport(
        samples=samples,
        basis_mult_residual=basis_mult,
        random_mult_residual=random_mult,
        norm_agreement_max=norm_dev,
        membership_residual=membership_residual,
        cycle_generator_spectrum=_sorted_spectrum(lam4[1]),
        klein_involution_spectrum=_sorted_spectrum(lamk[involution]),
        p3_verdict=verdict.verdict,
    )
