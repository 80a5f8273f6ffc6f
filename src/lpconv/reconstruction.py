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

import numpy as np

from .convolution import (AlgebraBasis, ConvolutionContext, PhasedPermutation,
                          convolver_algebra, left_regular,
                          unitary_group_enumerate)
from .errors import BudgetError, Frozen, NotGroupLike, P2Unsupported, POutOfRange
from .groups import (TABLE_BUDGET, FiniteGroup, GroupIso, is_isomorphic, make_cyclic,
                     make_direct_product)

P_MATCH_TOL = 1e-12
P2_DEMO_SAMPLES = 100


def components(unitaries) -> tuple[FiniteGroup, tuple[PhasedPermutation, ...]]:
    """Group a closed family of phased permutations by their permutation parts.

    Elements sharing a permutation part collapse to one component; the
    component products must close up into a group table, otherwise the
    family was not group-like. The permutation part of a product is the
    product of the permutation parts, so the table composes those alone: with
    the m sorted parts stacked as an m x n array P, one gather P[:, P] holds
    a∘b in row (a, b), and one dict lookup per row reads its index. Returns
    the component group with the identity permutation as element 0 and one
    representative per component. More than TABLE_BUDGET components raise
    BudgetError before any product is composed.

    Once every product is found among the parts, the table is a group, so
    FiniteGroup's own validation cannot refuse it: composition of
    permutations is associative; composing on either side by a permutation
    is injective, so every row and column permutes the indices; and index 0,
    the identity permutation, is the identity.
    """
    units = list(unitaries)
    if not units:
        raise NotGroupLike("no isometry classes to quotient")
    n = len(units[0].perm)
    identity = tuple(range(n))
    reps: dict[tuple[int, ...], PhasedPermutation] = {}
    for u in units:
        reps.setdefault(u.perm, u)
    if len(reps) > TABLE_BUDGET:
        raise BudgetError(f"component groups are capped at order {TABLE_BUDGET}")
    if any(len(p) != n for p in reps):
        raise NotGroupLike("isometry classes act on spaces of different sizes")
    if identity not in reps:
        raise NotGroupLike("no scalar class present")
    if n == 0:  # the empty permutation alone: no atoms to key the rows on
        return FiniteGroup(1, ((0,),), 0), (reps[identity],)
    perms = [identity] + sorted(p for p in reps if p != identity)
    m = len(perms)
    stack = np.array(perms, dtype=np.min_scalar_type(n))
    as_key = np.dtype((np.void, stack.itemsize * n))  # a row's bytes as one scalar
    index = {key: i for i, key in enumerate(stack.view(as_key).ravel().tolist())}
    products = stack[:, stack].reshape(m * m, n).view(as_key).ravel().tolist()
    flat = [index.get(key, -1) for key in products]
    if -1 in flat:
        raise NotGroupLike("component classes are not closed under product")
    table = tuple(tuple(flat[i:i + m]) for i in range(0, m * m, m))
    return FiniteGroup(m, table, 0), tuple(reps[p] for p in perms)


class RecoveredGroup(Frozen):
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


class IsoVerdict(Frozen):
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
    Isomorphic also when both recovered groups are trivial and the exponents
    are neither equal nor conjugate: both algebras are then C acting on C^1,
    normed by the modulus at every exponent, so the identity map is an
    isometric isomorphism.
    Distinct otherwise; the recovered groups ride along as evidence.
    CV_p(G) is the span of the |G| left translations, so an algebra whose
    dimension is not the order of its component group is not one, and
    NotGroupLike refuses it before any verdict is named.
    """
    for exponent in (p, q):
        if exponent == 2.0:
            raise P2Unsupported("the decision procedure requires exponents away from 2")
        if not (1.0 < exponent < math.inf):
            raise POutOfRange("exponents must lie strictly between 1 and infinity")
    rec_a = recover_group(basis_a, p)
    rec_b = recover_group(basis_b, q)
    for basis, rec in ((basis_a, rec_a), (basis_b, rec_b)):
        if basis.dimension != rec.group.order:
            raise NotGroupLike(f"an algebra of dimension {basis.dimension} is not the convolution "
                               f"algebra of its component group, of order {rec.group.order}")
    witness = is_isomorphic(rec_a.group, rec_b.group)
    if witness is not None and abs(p - q) <= P_MATCH_TOL:
        verdict = "Isomorphic"
    elif witness is not None and abs(q - p / (p - 1.0)) <= P_MATCH_TOL:
        verdict = "AntiIsomorphic"
    elif witness is not None and rec_a.group.order == 1:
        verdict = "Isomorphic"
    else:
        verdict = "Distinct"
        witness = None
    return IsoVerdict(verdict, p, q, rec_a.group, rec_b.group, witness)


class P2DemoReport(Frozen):
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


def p2_degeneracy_demo(seed: int = 0) -> P2DemoReport:
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
    for _ in range(P2_DEMO_SAMPLES):
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
        samples=P2_DEMO_SAMPLES,
        basis_mult_residual=basis_mult,
        random_mult_residual=random_mult,
        norm_agreement_max=norm_dev,
        membership_residual=membership_residual,
        cycle_generator_spectrum=_sorted_spectrum(lam4[1]),
        klein_involution_spectrum=_sorted_spectrum(lamk[involution]),
        p3_verdict=verdict.verdict,
    )
