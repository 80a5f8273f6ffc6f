import gc

import numpy as np
import pytest

from lpconv.convolution import (AlgebraBasis, ConvolutionContext,
                                PhasedPermutation, convolver_algebra,
                                left_regular, unitary_group_enumerate)
from lpconv.errors import NotGroupLike, P2Unsupported
from lpconv.groups import (FiniteGroup, is_isomorphic, make_cyclic,
                           make_direct_product, make_dihedral, make_quaternion,
                           make_symmetric, zoo)
from lpconv.isometry import LpContext
from lpconv.measure import BooleanAutomorphism, FiniteMeasureAlgebra
from lpconv.pnorm import pnorm_estimate
from lpconv.reconstruction import (components, decide_isomorphism,
                                   dual_antiisomorphism_check,
                                   left_translation_match, p2_degeneracy_demo,
                                   recover_group)


def klein():
    return make_direct_product(make_cyclic(2), make_cyclic(2))


def relabel(g, rng):
    """An isomorphic copy of g with scrambled element labels."""
    sigma = list(rng.permutation(g.order))
    inverse = [0] * g.order
    for x, y in enumerate(sigma):
        inverse[y] = x
    table = tuple(
        tuple(sigma[g.mul(inverse[a], inverse[b])] for b in range(g.order))
        for a in range(g.order))
    return FiniteGroup(g.order, table, sigma[g.identity])


def test_components_of_handmade_phase_classes():
    one = (1.0 + 0j, 1.0 + 0j)
    ident = PhasedPermutation((0, 1), one)
    swap = PhasedPermutation((1, 0), one)
    extra_phases = [PhasedPermutation((0, 1), (1j, 1j)),
                    PhasedPermutation((1, 0), (-1.0, -1.0))]
    group, reps = components([ident, swap] + extra_phases)
    assert group.order == 2
    assert reps[0].perm == (0, 1)
    # injecting more phase samples per class never changes the count
    more = [PhasedPermutation((0, 1), (-1j, -1j))] * 3
    group2, _ = components([ident, swap] + extra_phases + more)
    assert group2.order == 2


def test_components_reject_unclosed_lists():
    cycle = PhasedPermutation((1, 2, 0), (1.0, 1.0, 1.0))
    ident = PhasedPermutation((0, 1, 2), (1.0, 1.0, 1.0))
    with pytest.raises(NotGroupLike):
        components([ident, cycle])  # missing the squared cycle


def test_components_require_scalar_class():
    cycle = PhasedPermutation((1, 2, 0), (1.0, 1.0, 1.0))
    with pytest.raises(NotGroupLike):
        components([cycle])


def test_left_translation_match_identity():
    g = make_symmetric(3)
    ctx = ConvolutionContext(g, 3.0)
    algebra = FiniteMeasureAlgebra((1.0,) * 6)
    identity = BooleanAutomorphism.identity(algebra)
    assert left_translation_match(identity, ctx) == g.identity


def test_left_translation_match_recovers_every_element():
    for _, g in zoo():
        if g.order > 8:
            continue
        ctx = ConvolutionContext(g, 3.0)
        algebra = FiniteMeasureAlgebra((1.0,) * g.order)
        for s in range(g.order):
            ls = BooleanAutomorphism(algebra,
                                     tuple(g.mul(s, x) for x in range(g.order)))
            assert left_translation_match(ls, ctx) == s


def test_left_translation_match_rejects_right_translations():
    g = make_dihedral(4)
    ctx = ConvolutionContext(g, 3.0)
    algebra = FiniteMeasureAlgebra((1.0,) * 8)
    noncentral = next(t for t in range(8)
                      if any(g.mul(t, x) != g.mul(x, t) for x in range(8)))
    rt = BooleanAutomorphism(algebra,
                             tuple(g.mul(x, noncentral) for x in range(8)))
    with pytest.raises(ValueError):
        left_translation_match(rt, ctx)


def test_recover_four_cycle_and_klein_are_distinguished():
    z4 = make_cyclic(4)
    rec4 = recover_group(convolver_algebra(ConvolutionContext(z4, 3.0)), 3.0)
    assert is_isomorphic(rec4.group, z4) is not None
    reck = recover_group(convolver_algebra(ConvolutionContext(klein(), 3.0)), 3.0)
    assert is_isomorphic(reck.group, klein()) is not None
    assert is_isomorphic(rec4.group, reck.group) is None


def test_recovered_identity_representative_is_scalar():
    rec = recover_group(convolver_algebra(ConvolutionContext(make_symmetric(3), 3.0)), 3.0)
    rep = rec.representatives[rec.group.identity]
    assert rep.perm == tuple(range(6))
    ratios = [z / rep.phases[0] for z in rep.phases]
    assert max(abs(r - 1.0) for r in ratios) <= 1e-9


def test_recovered_representatives_project_to_the_table():
    rec = recover_group(convolver_algebra(ConvolutionContext(make_dihedral(4), 3.0)), 3.0)
    perms = [rep.perm for rep in rec.representatives]
    for a in range(rec.group.order):
        for b in range(rec.group.order):
            prod = rec.representatives[a].compose(rec.representatives[b])
            assert perms[rec.group.mul(a, b)] == prod.perm


def test_recovery_is_presentation_invariant():
    g = make_symmetric(3)
    rng = np.random.default_rng(4)
    ctx = ConvolutionContext(g, 3.0)
    cv = convolver_algebra(ctx)
    conjugator = np.exp(0.4j * np.pi) * left_regular(ctx, 2).matrix
    inv = np.linalg.inv(conjugator)
    scales = rng.uniform(0.5, 2.0, cv.dimension)
    mats = [s * (conjugator @ m @ inv) for s, m in zip(scales, cv.elements)]
    order = list(rng.permutation(cv.dimension))
    shuffled = AlgebraBasis(cv.n, cv.p, tuple(mats[i] for i in order))
    rec = recover_group(shuffled, 3.0)
    assert is_isomorphic(rec.group, g) is not None


def test_recovery_leaves_no_cyclic_garbage():
    # a search that kept a self-referencing closure would leave its basis
    # and lists for the cycle collector after every call
    g = make_direct_product(make_quaternion(), make_cyclic(4))
    basis = convolver_algebra(ConvolutionContext(g, 3.0))
    gc.collect()
    gc.disable()
    try:
        recover_group(basis, 3.0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_recover_full_matrix_algebra_gives_symmetric_group():
    elementary = []
    for i in range(3):
        for j in range(3):
            m = np.zeros((3, 3))
            m[i, j] = 1.0
            elementary.append(m)
    basis = AlgebraBasis(3, 3.0, tuple(elementary))
    rec = recover_group(basis, 3.0)
    assert is_isomorphic(rec.group, make_symmetric(3)) is not None


def test_structural_components_match_numeric_majorant_gap():
    # numeric cross-check of the quotient: the closed-form distance between
    # distinct isometry classes is 2 and agrees with the sandwich's
    # majorant leg, while the complex lower leg never exceeds it
    from lpconv.isometry import LampertiForm, lamperti_distance
    from lpconv.measure import MeasurableFunction

    for maker, n in ((make_cyclic, 3), (make_cyclic, 4), (make_dihedral, 3)):
        g = maker(n)
        cv = convolver_algebra(ConvolutionContext(g, 3.0))
        units = unitary_group_enumerate(cv, 3.0)
        algebra = FiniteMeasureAlgebra((1.0,) * g.order)
        ctx = LpContext(algebra, 3.0)

        def as_form(u):
            values = [0j] * g.order
            for y, x in enumerate(u.perm):
                values[x] = u.phases[y]
            return LampertiForm(MeasurableFunction(algebra, tuple(values)),
                                BooleanAutomorphism(algebra, u.perm))

        for i, a in enumerate(units):
            for b in units[i + 1:]:
                closed = lamperti_distance(as_form(a), as_form(b), ctx)
                assert closed == 2.0
                est = pnorm_estimate(a.as_matrix() - b.as_matrix(), ctx,
                                     starts=2, seed=0)
                assert est.upper == pytest.approx(closed, abs=1e-6)
                assert est.lower <= closed + 1e-9


def test_decide_isomorphic_for_relabeled_copy():
    g = make_symmetric(3)
    h = relabel(g, np.random.default_rng(9))
    verdict = decide_isomorphism(
        convolver_algebra(ConvolutionContext(g, 3.0)), 3.0,
        convolver_algebra(ConvolutionContext(h, 3.0)), 3.0)
    assert verdict.verdict == "Isomorphic"
    assert verdict.witness is not None


def test_decide_distinct_for_the_two_order_four_groups():
    verdict = decide_isomorphism(
        convolver_algebra(ConvolutionContext(make_cyclic(4), 3.0)), 3.0,
        convolver_algebra(ConvolutionContext(klein(), 3.0)), 3.0)
    assert verdict.verdict == "Distinct"
    assert verdict.witness is None


def test_decide_antiisomorphic_for_conjugate_exponents():
    g = make_cyclic(4)
    verdict = decide_isomorphism(
        convolver_algebra(ConvolutionContext(g, 3.0)), 3.0,
        convolver_algebra(ConvolutionContext(g, 1.5)), 1.5)
    assert verdict.verdict == "AntiIsomorphic"
    swapped = decide_isomorphism(
        convolver_algebra(ConvolutionContext(g, 1.5)), 1.5,
        convolver_algebra(ConvolutionContext(g, 3.0)), 3.0)
    assert swapped.verdict == "AntiIsomorphic"


def test_decide_rejects_p2():
    g = make_cyclic(2)
    cv = convolver_algebra(ConvolutionContext(g, 3.0))
    with pytest.raises(P2Unsupported):
        decide_isomorphism(cv, 2.0, cv, 3.0)


def test_duality_check_on_translations():
    report = dual_antiisomorphism_check(ConvolutionContext(make_symmetric(3), 3.0),
                                        samples=5, seed=1)
    assert report.max_overlap_gap <= 2e-6
    assert report.max_reversal_residual <= 1e-13


def test_duality_norms_of_shift_plus_identity():
    ctx = ConvolutionContext(make_cyclic(2), 3.0)
    lam1 = left_regular(ctx, 1).matrix
    a = np.eye(2) + lam1
    est = pnorm_estimate(a, ctx.lp_context(), seed=0)
    est_t = pnorm_estimate(a.T, ConvolutionContext(make_cyclic(2), 1.5).lp_context(),
                           seed=0)
    assert est.lower == pytest.approx(2.0, abs=1e-6)
    assert est_t.lower == pytest.approx(2.0, abs=1e-6)


def test_p2_demo_report():
    report = p2_degeneracy_demo(samples=25, seed=3)
    assert report.basis_mult_residual < 1e-12
    assert report.random_mult_residual < 1e-12
    assert report.norm_agreement_max < 1e-9
    assert report.membership_residual < 1e-9
    assert report.p3_verdict == "Distinct"
    spectrum = sorted(abs(z) for z in report.cycle_generator_spectrum)
    assert spectrum == pytest.approx([1.0] * 4, abs=1e-12)
    reals = sorted(z.real for z in report.klein_involution_spectrum)
    assert reals == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-12)
