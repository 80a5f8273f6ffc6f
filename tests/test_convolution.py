import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from lpconv import acceptance, convolution
from lpconv.convolution import (ENUM_TOL, AlgebraBasis, ConvolutionContext,
                                PhasedPermutation, _check_closure_by_pairs,
                                _closed_by_two_generators, _frame, _PatternSearch,
                                convolver_algebra, convolver_basis_exact,
                                left_regular, unitary_group_enumerate)
from lpconv.errors import BudgetError, NotGroupLike, P2Unsupported, POutOfRange
from lpconv.groups import (FiniteGroup, make_cyclic, make_dihedral, make_direct_product,
                           make_quaternion, make_symmetric, zoo)
from lpconv.reconstruction import components

# numerical trouble must end in a verdict or an error, not in a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _right_regular(g, s):
    """Right translation (R_s xi)(x) = xi(x s), a permutation matrix."""
    m = np.zeros((g.order, g.order))
    m[range(g.order), [g.mul(x, s) for x in range(g.order)]] = 1.0
    return m


def _translation_span(ctx):
    """The span of the left translations, built from them directly."""
    n = ctx.group.order
    return AlgebraBasis(n, ctx.p, tuple(left_regular(ctx, s).matrix for s in range(n)))


def _compose(a, b):
    """The matrix product a @ b, as a class representative."""
    return PhasedPermutation(tuple(a.perm[y] for y in b.perm),
                             tuple(a.phases[b.perm[y]] * b.phases[y] for y in range(len(a.perm))),
                             max(a.phase_dim, b.phase_dim))


def _same_class(a, b, tol=ENUM_TOL):
    """Equal permutation parts and phases equal up to a global scalar."""
    ratios = [x / y for x, y in zip(a.phases, b.phases)]
    return a.perm == b.perm and max(abs(r - ratios[0]) for r in ratios) <= tol


def test_regular_representations_at_identity():
    g = make_cyclic(3)
    ctx = ConvolutionContext(g, 3.0)
    assert np.array_equal(left_regular(ctx, 0).matrix, np.eye(3))
    assert np.array_equal(_right_regular(g, 0), np.eye(3))


def test_regular_representations_on_two_cycle():
    g = make_cyclic(2)
    ctx = ConvolutionContext(g, 3.0)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(left_regular(ctx, 1).matrix, swap)
    assert np.array_equal(_right_regular(g, 1), swap)


def test_left_regular_is_a_homomorphism_on_s3():
    g = make_symmetric(3)
    ctx = ConvolutionContext(g, 1.5)
    lam = [left_regular(ctx, s).matrix for s in range(6)]
    for s, t in itertools.product(range(6), repeat=2):
        assert np.array_equal(lam[s] @ lam[t], lam[g.mul(s, t)])


def test_right_regular_is_a_homomorphism_on_s3():
    g = make_symmetric(3)
    rho = [_right_regular(g, s) for s in range(6)]
    for s, t in itertools.product(range(6), repeat=2):
        assert np.array_equal(rho[s] @ rho[t], rho[g.mul(s, t)])


def test_left_and_right_translations_commute_exactly():
    g = make_dihedral(4)
    ctx = ConvolutionContext(g, 3.0)
    for s, t in itertools.product(range(8), repeat=2):
        lam = left_regular(ctx, s).matrix
        rho = _right_regular(g, t)
        assert np.array_equal(lam @ rho, rho @ lam)


def test_pseudofunction_of_cycle_is_circulant_shifts():
    ctx = ConvolutionContext(make_cyclic(4), 3.0)
    for s in range(4):
        assert np.array_equal(left_regular(ctx, s).matrix, np.roll(np.eye(4), s, axis=0))


def test_convolver_of_trivial_group():
    basis = convolver_algebra(ConvolutionContext(make_cyclic(1), 3.0))
    assert basis.dimension == 1


def test_convolver_of_two_cycle_is_identity_and_swap_span():
    basis = convolver_algebra(ConvolutionContext(make_cyclic(2), 3.0))
    assert basis.dimension == 2
    assert basis.coordinates(np.eye(2)) is not None
    assert basis.coordinates(np.array([[0.0, 1.0], [1.0, 0.0]])) is not None


def test_convolver_spans_translations_for_the_zoo():
    for _, g in zoo():
        ctx = ConvolutionContext(g, 3.0)
        cv = convolver_algebra(ctx)
        pf = _translation_span(ctx)
        assert cv.dimension == g.order
        for mat in pf.elements:
            assert cv.coordinates(mat) is not None
        for mat in cv.elements:
            assert pf.coordinates(mat) is not None


def test_convolver_commutes_with_right_translations_exactly():
    g = make_dihedral(4)
    ctx = ConvolutionContext(g, 1.2)
    cv = convolver_algebra(ctx)
    for mat in cv.elements:
        for t in range(g.order):
            rho = _right_regular(g, t)
            assert np.array_equal(mat @ rho, rho @ mat)


def _left_translation_index(g, mat):
    """The s with mat == L_s (0/1 entries), or None."""
    m = np.asarray(mat)
    s = int(np.argmax(m[:, g.identity]))
    lam = np.zeros(m.shape)
    lam[[g.mul(s, y) for y in range(g.order)], range(g.order)] = 1.0
    return s if np.array_equal(m, lam) else None


def test_exact_commutant_is_rational_zero_one():
    exact = convolver_basis_exact(make_symmetric(3))
    assert len(exact) == 6
    values = [v for mat in exact for row in mat for v in row]
    assert all(isinstance(v, (int, Fraction)) for v in values)
    assert set(values) <= {0, 1}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("group", [make_symmetric(3), make_dihedral(4), make_quaternion(),
                                   make_direct_product(make_cyclic(2), make_cyclic(4))],
                         ids=["S3", "D4", "Q8", "Z2xZ4"])
def test_exact_commutant_matches_the_rational_nullspace_off_identity_zero(group, seed):
    # criterion 7 sees only zoo tables, whose identity is element 0
    n = group.order
    rng = np.random.default_rng(seed)
    sigma = rng.permutation(n)
    while sigma[group.identity] == 0:
        sigma = rng.permutation(n)
    table = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        table[sigma[a]][sigma[b]] = int(sigma[group.mul(a, b)])
    h = FiniteGroup(n, tuple(map(tuple, table)), int(sigma[group.identity]))
    oracle = acceptance._rational_nullspace(acceptance._commutant_constraints(h), n * n)
    assert [[v for row in mat for v in row] for mat in convolver_basis_exact(h)] == oracle


def test_convolver_of_s4_is_spanned_by_left_translations():
    g = make_symmetric(4)
    cv = convolver_algebra(ConvolutionContext(g, 3.0))
    assert cv.dimension == 24
    assert all(_left_translation_index(g, mat) is not None for mat in cv.elements)


def test_exact_commutant_of_s5_is_the_left_translations():
    g = make_symmetric(5)
    exact = convolver_basis_exact(g)
    assert len(exact) == 120
    indices = {_left_translation_index(g, mat) for mat in exact}
    assert None not in indices and len(indices) == 120


def test_membership_examples():
    basis = _translation_span(ConvolutionContext(make_cyclic(4), 3.0))
    coords = basis.coordinates(basis.elements[2])
    assert coords is not None
    assert np.allclose(coords, np.eye(4)[2], atol=1e-12)
    combo = basis.elements[0] + basis.elements[1]
    coords = basis.coordinates(combo)
    assert np.allclose(coords, np.array([1.0, 1.0, 0.0, 0.0]), atol=1e-12)


def test_membership_rejects_outside_span():
    basis = _translation_span(ConvolutionContext(make_cyclic(3), 3.0))
    rng = np.random.default_rng(0)
    outside = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert basis.coordinates(outside) is None


def test_basis_validation_rejects_unclosed_sets():
    # the square of a 3-cycle escapes the span of {identity, 3-cycle}
    cycle = np.roll(np.eye(3), 1, axis=0)
    with pytest.raises(ValueError):
        AlgebraBasis(3, 3.0, (np.eye(3), cycle))


def test_basis_validation_rejects_more_matrices_than_entries():
    with pytest.raises(ValueError, match="linearly dependent"):
        AlgebraBasis(1, 3.0, (np.eye(1), 2 * np.eye(1)))


def _unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def _closure_cases():
    """(name, matrices, closed, accepted by the two-generator route)."""
    cases = []
    for name, g in zoo() + (("S4", make_symmetric(4)),):
        ctx = ConvolutionContext(g, 3.0)
        cases.append((f"{name} commutant", convolver_algebra(ctx).elements, True, True))
        cases.append((f"{name} translations", _translation_span(ctx).elements, True, True))
    for g in (make_dihedral(6), make_direct_product(make_quaternion(), make_cyclic(4)),
              make_direct_product(make_quaternion(), make_cyclic(8))):
        basis, _ = _hidden_presentation(g, np.random.default_rng(g.order))
        cases.append((f"hidden order {g.order}", basis.elements, True, True))
    # mixed by a complex Gaussian matrix, the basis's scale spreads over the
    # singular values (condition 42 at order 24 and 133 at 64)
    for g in (make_dihedral(12), make_direct_product(make_quaternion(), make_cyclic(8))):
        mats, _ = _presentation(g, np.random.default_rng(g.order), _gaussian(g.order, g.order))
        cases.append((f"gaussian-mixed order {g.order}", mats, True, True))
    for n in (2, 3, 4):
        upper = [_unit(n, i, j) for i in range(n) for j in range(i, n)]
        cases.append((f"upper triangular {n}", upper, True, True))
    # I plus a square-zero radical of dimension 4: closed, but two elements
    # generate only a 3-dimensional subalgebra
    radical = [np.eye(4)] + [_unit(4, i, j) for i in (0, 1) for j in (2, 3)]
    cases.append(("square-zero radical", radical, True, False))
    cases.append(("3-cycle", (np.eye(3), np.roll(np.eye(3), 1, axis=0)), False, False))
    # the basis's products would overflow; the frame's cannot, and it must still reject
    cases.append(("3-cycle at 1e200", (1e200 * np.eye(3), 1e200 * np.roll(np.eye(3), 1, axis=0)),
                  False, False))
    q8 = list(_translation_span(ConvolutionContext(make_quaternion(), 3.0)).elements)
    q8[3] = q8[3] + 1e-3 * np.random.default_rng(5).standard_normal((8, 8))
    cases.append(("perturbed Q8", q8, False, False))
    # the verdict belongs to the span, not to the scale of the basis spanning it
    cases.append(("3-cycle at 1e-5", (1e-5 * np.eye(3), 1e-5 * np.roll(np.eye(3), 1, axis=0)),
                  False, False))
    cases.append(("perturbed Q8 at 1e-4", [1e-4 * m for m in q8], False, False))
    mixed_q8, _ = _presentation(make_quaternion(), np.random.default_rng(8))
    for scale in (1e3, 1e6):
        cases.append((f"hidden Q8 at {scale:g}", scale * mixed_q8, True, True))
    cases.append(("I, E12, E23", (np.eye(3), _unit(3, 0, 1), _unit(3, 1, 2)), False, False))
    return cases


def _rejection(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_closure_routes_agree():
    # the two-generator route may only accept: every verdict and every
    # rejection message of AlgebraBasis is the pairwise check's
    for name, mats, closed, fast in _closure_cases():
        stacked = np.stack([np.asarray(m, dtype=complex) for m in mats])
        k, n, _ = stacked.shape
        vh = _frame(stacked.reshape(k, -1))[2]
        full = _rejection(_check_closure_by_pairs, vh, n)
        assert (full is None) == closed, name
        assert _rejection(AlgebraBasis, n, 3.0, tuple(mats)) == full, name
        assert _closed_by_two_generators(vh, n) == fast, name


def test_closure_verdicts_do_not_depend_on_scale():
    # both routes multiply the span's orthonormal frame, which a scale leaves alone
    for name, mats, closed, fast in _closure_cases():
        stacked = np.stack([np.asarray(m, dtype=complex) for m in mats])
        k, n, _ = stacked.shape
        for scale in (1e-6, 1e-3, 1e3, 1e6):
            assert (_rejection(AlgebraBasis, n, 3.0, tuple(scale * stacked)) is None) == closed, \
                (name, scale)
            vh = _frame(scale * stacked.reshape(k, -1))[2]
            assert _closed_by_two_generators(vh, n) == fast, (name, scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_basis_validation_refuses_non_finite_entries(bad):
    mats = [np.roll(np.eye(3), s, axis=0) for s in range(3)]  # Z3's translations
    mats[1][0, 1] = bad
    with pytest.raises(ValueError, match="basis matrices must be finite"):
        AlgebraBasis(3, 3.0, tuple(mats))


def test_two_generator_route_takes_a_gaussian_mixed_order_128_algebra(monkeypatch):
    # a complex Gaussian mix (condition 883) leaves a relative residual near
    # 3e-15, under the 1e-12 bound, so validation never multiplies all k^2 pairs
    def refuse(vh, n):
        raise AssertionError("the pairwise check ran")

    monkeypatch.setattr(convolution, "_check_closure_by_pairs", refuse)
    group = make_direct_product(make_quaternion(), make_cyclic(16))
    rng = np.random.default_rng(0)
    mix = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    mats, _ = _presentation(group, rng, mix)
    assert AlgebraBasis(128, 3.0, tuple(mats)).dimension == 128


@pytest.mark.parametrize("mix", ["orthogonal", "gaussian"])
def test_closure_refusal_stops_at_the_first_failing_factor(monkeypatch, mix):
    # one translation moved by 1e-9 times a Gaussian matrix before the mix, so
    # the identity stays in the span: the two-generator route declines after
    # its first batch of products, and the pairwise check refuses after its
    # first left factor instead of forming all k batches
    batches = []
    kernel = convolution._products_on_frame
    monkeypatch.setattr(convolution, "_products_on_frame",
                        lambda *args: batches.append(1) or kernel(*args))
    group = make_direct_product(make_quaternion(), make_cyclic(8))
    n = group.order
    rng = np.random.default_rng(0)
    lam, _ = _presentation(group, rng, np.eye(n))
    lam[1] += 1e-9 * rng.standard_normal((n, n))
    mixer = _gaussian(n, 0) if mix == "gaussian" else np.linalg.qr(rng.standard_normal((n, n)))[0]
    mats = np.einsum("ij,jkl->ikl", mixer, lam)
    assert _masked(_rejection(AlgebraBasis, n, 3.0, tuple(mats))) == \
        "basis is not closed under products (residual ...)"
    assert len(batches) == 2


@pytest.mark.parametrize("group", [make_dihedral(12),
                                   make_direct_product(make_quaternion(), make_cyclic(4))],
                         ids=["D12", "Q8xZ4"])
def test_two_generator_route_never_accepts_what_the_pairs_reject(group):
    # noise of 1e-13 to 1e-8 on one basis matrix walks the residuals across
    # both routes' bounds, on orthogonally and Gaussian-mixed presentations;
    # without noise both routes accept, and at 1e-8 both reject
    n = group.order
    rng = np.random.default_rng(n)
    verdicts = set()
    for mix in (None, _gaussian(n, n + 1)):
        stacked, _ = _presentation(group, rng, mix)
        for scale in (0.0, *np.geomspace(1e-13, 1e-8, 11)):
            noisy = stacked.copy()
            noisy[1] += scale * rng.standard_normal((n, n))
            vh = _frame(noisy.reshape(n, -1))[2]
            closed = _rejection(_check_closure_by_pairs, vh, n) is None
            fast = _closed_by_two_generators(vh, n)
            assert closed or not fast, (mix is None, scale)
            verdicts.add((closed, fast))
    assert {(True, True), (False, False)} <= verdicts


def _record_searches(monkeypatch):
    """The list of every _PatternSearch made from here on, in order. Each
    records in svds the descend calls that factor (those before the last
    column) and in paths the one-row slices it follows."""
    searches = []

    class RecordingSearch(_PatternSearch):
        def __init__(self, *args):
            super().__init__(*args)
            self.svds = self.paths = 0
            searches.append(self)

        def descend(self, c):
            self.svds += len(self.pattern) < self.n
            super().descend(c)

        def _follow_line(self, cs, heads):
            self.paths += len(heads)
            super()._follow_line(cs, heads)

    monkeypatch.setattr(convolution, "_PatternSearch", RecordingSearch)
    return searches


def test_enumeration_reuses_the_basis_frame(monkeypatch):
    group = make_direct_product(make_quaternion(), make_cyclic(4))
    basis, _ = _hidden_presentation(group, np.random.default_rng(7))
    n, k = basis.n, basis.dimension
    # the search run on a fresh SVD of the stack, as it was before the frame was kept
    _, s, vh = np.linalg.svd(np.stack([a.reshape(-1) for a in basis.elements]),
                             full_matrices=False)
    rank = int(np.sum(s > ENUM_TOL * s[0]))
    reference = _PatternSearch(vh[:rank], n)
    reference.descend(np.eye(rank, dtype=complex))

    stack_svds = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if np.shape(a) == (k, n * n):
            stack_svds.append(a)
        return real_svd(a, *args, **kwargs)

    searches = _record_searches(monkeypatch)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    units = unitary_group_enumerate(basis, 3.0)
    assert stack_svds == []
    assert [search.work for search in searches] == [reference.work] == [1 + n]
    assert len(units) == len(reference.found) == n
    assert set(units) == set(reference.found)


def _presentation(g, rng, mix=None):
    """The left translations with atoms relabelled by a random permutation
    and the basis mixed by mix (by default a random orthogonal matrix), as
    a complex stack; also the relabelled support of each translation, as
    perm tuples."""
    n = g.order
    sigma = rng.permutation(n)
    lam = np.zeros((n, n, n))
    for s in range(n):
        for y in range(n):
            lam[s, sigma[g.mul(s, y)], sigma[y]] = 1.0
    if mix is None:
        mix, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mats = np.einsum("ij,jkl->ikl", mix, lam).astype(complex)
    supports = {tuple(int(np.argmax(lam[s][:, y])) for y in range(n)) for s in range(n)}
    return mats, supports


def _hidden_presentation(g, rng):
    """_presentation's orthogonally mixed stack as a basis, and its supports."""
    mats, supports = _presentation(g, rng)
    return AlgebraBasis(g.order, 3.0, tuple(mats)), supports


def _gaussian(n, seed):
    """A complex Gaussian n x n matrix from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _conditioned(n, rng, cond):
    """A random real n x n matrix with singular values from 1 down to 1/cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * np.geomspace(1.0, 1.0 / cond, n)) @ q2


_FRAME_GROUPS = [make_dihedral(6), make_direct_product(make_quaternion(), make_cyclic(4)),
                 make_direct_product(make_quaternion(), make_cyclic(8))]


def _frame_stacks():
    """Stacks of condition number 1, near 100 (mixed by a complex Gaussian
    matrix) and 1e7, as pytest params (condition number, stack)."""
    stacks = []
    for g in _FRAME_GROUPS:
        n = g.order
        rng = np.random.default_rng(g.order)
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for name, cond, mix in (("hidden", 1.0, None), ("gaussian", np.linalg.cond(gauss), gauss),
                                ("condition 1e7", 1e7, _conditioned(n, rng, 1e7))):
            stacks.append(pytest.param(cond, _presentation(g, rng, mix)[0], id=f"{name} {n}"))
    return stacks


@pytest.mark.parametrize("cond, stacked", _frame_stacks())
def test_gram_frame_matches_the_svd(cond, stacked):
    k = len(stacked)
    flat = stacked.reshape(k, -1)
    u, s, vh = _frame(flat)
    ref_u, ref_s, ref_vh = np.linalg.svd(flat, full_matrices=False)
    if cond > 1e6:
        # the Gram cannot certify the rank verdict: the stack's own SVD, unchanged
        assert all(np.array_equal(a, b) for a, b in zip((u, s, vh), (ref_u, ref_s, ref_vh)))
        return
    assert cond < 1e3
    assert np.allclose(s, ref_s, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(vh @ vh.conj().T - np.eye(k))) < 1e-13
    # the same span: each frame projects the other onto itself
    assert np.max(np.abs((vh @ ref_vh.conj().T) @ ref_vh - vh)) < 1e-12
    assert np.max(np.abs((u * s) @ vh - flat)) < 1e-12 * s[0]


def _masked(message):
    """A rejection message with any closure residual figure masked; None stays None."""
    return message and re.sub(r"residual [^)]*", "residual ...", message)


def test_gram_frame_keeps_every_verdict(monkeypatch):
    # AlgebraBasis accepts and rejects as it does on the stack's SVD: the
    # closure cases, and hidden presentations on both sides of the 1e-9
    # rank bound and of the Gram's 1e6 condition bound
    cases = [(name, np.stack([np.asarray(m, dtype=complex) for m in mats]))
             for name, mats, _, _ in _closure_cases() if "1e200" not in name]
    rng = np.random.default_rng(3)
    for cond in (1e5, 1e6, 1e7, 2e8, 5e8, 2e9, 1e10):
        g = make_dihedral(6)
        cases.append((f"condition {cond:g}",
                      _presentation(g, rng, _conditioned(g.order, rng, cond))[0]))
    # two frames of one span differ by a rotation, which can move the residual
    # figure (the largest ratio over left factors): messages are compared without it
    verdicts = [_masked(_rejection(AlgebraBasis, len(m[0]), 3.0, tuple(m))) for _, m in cases]
    monkeypatch.setattr(convolution, "_frame",
                        lambda flat: np.linalg.svd(flat, full_matrices=False))
    reference = [_masked(_rejection(AlgebraBasis, len(m[0]), 3.0, tuple(m))) for _, m in cases]
    assert verdicts == reference
    verdict = dict(zip((name for name, _ in cases), reference))
    assert verdict["condition 1e+07"] is None
    # past condition 1e8 the frame no longer certifies the identity to 1e-9,
    # and the rejection says so rather than that the identity is missing
    assert verdict["condition 5e+08"] == ("at condition number 5.000e+08 the frame cannot "
                                          "certify that the span contains the identity")
    assert verdict["condition 2e+09"] == "basis matrices are linearly dependent"


@pytest.mark.parametrize("group", _FRAME_GROUPS, ids=["D6", "Q8xZ4", "Q8xZ8"])
def test_two_generator_route_accepts_on_the_gram_frame(group):
    n = group.order
    for seed in range(3):
        stacked, _ = _presentation(group, np.random.default_rng(seed))
        flat = stacked.reshape(n, -1)
        assert _closed_by_two_generators(np.linalg.svd(flat, full_matrices=False)[2], n)
        assert _closed_by_two_generators(_frame(flat)[2], n)


@pytest.mark.parametrize("group, cond, seed", [
    (make_dihedral(6), 1e8, 0),
    *((make_direct_product(make_quaternion(), make_cyclic(4)), 1e7, seed) for seed in (1, 5)),
], ids=["D6 1e8 seed 0", "Q8xZ4 1e7 seed 1", "Q8xZ4 1e7 seed 5"])
def test_closure_refusal_past_condition_1e6_says_the_frame_cannot_certify(group, cond, seed):
    # closed spans whose frames, about eps * cond off the span, leave closure
    # residuals of 1.0e-9 to 2.8e-9 with one BLAS thread or two: still
    # refused, in the identity check's words
    n = group.order
    rng = np.random.default_rng(seed)
    mats = _presentation(group, rng, _conditioned(n, rng, cond))[0]
    assert _rejection(AlgebraBasis, n, 3.0, tuple(mats)) == (
        f"at condition number {cond:.3e} the frame cannot certify that the span "
        "is closed under products")


def test_certified_real_stack_gets_a_float64_frame():
    # the left translations are 0/1 matrices, so a regular presentation, also
    # mixed by a real matrix, is a real stack, validated and searched in float64
    group = make_dihedral(12)
    rng = np.random.default_rng(0)
    for mix in (None, _conditioned(24, rng, 1e3)):
        stacked, supports = _presentation(group, rng, mix)
        basis = AlgebraBasis(24, 3.0, tuple(stacked))
        assert [a.dtype for a in (basis._u, basis._s, basis._vh)] == [np.float64] * 3
        assert all(m.dtype == complex for m in basis.elements)
        assert {u.perm for u in unitary_group_enumerate(basis, 3.0)} == supports
        # a complex target is projected as its real and imaginary parts
        coords = basis.coordinates((2 - 3j) * basis.elements[5] + 1j * basis.elements[7])
        assert np.allclose(coords, (2 - 3j) * np.eye(24)[5] + 1j * np.eye(24)[7],
                           rtol=0.0, atol=1e-9)
        outside = np.zeros((24, 24), dtype=complex)
        outside[0, 1] = 1j
        assert basis.coordinates(outside) is None


def _complex_frame_stacks():
    group = make_dihedral(6)
    one_entry, _ = _presentation(group, np.random.default_rng(0))
    one_entry[3, 2, 5] += 1e-20j
    gaussian, _ = _presentation(group, np.random.default_rng(1), _gaussian(12, 1))
    stacks = [pytest.param(one_entry, id="one imaginary entry"),
              pytest.param(gaussian, id="complex gaussian")]
    for cond in (2e6, 1e7):
        rng = np.random.default_rng(0)
        stacks.append(pytest.param(_presentation(group, rng, _conditioned(12, rng, cond))[0],
                                   id=f"condition {cond:g}"))
    return stacks


@pytest.mark.parametrize("stacked", _complex_frame_stacks())
def test_stack_keeps_a_complex_frame(stacked):
    basis = AlgebraBasis(12, 3.0, tuple(stacked))
    assert [a.dtype for a in (basis._u, basis._vh)] == [complex] * 2


def _enumerated(basis):
    """The classes and recovered table of a basis, or the error either raises."""
    try:
        classes = unitary_group_enumerate(basis, 3.0)
        return classes, components(classes)[0].table
    except (BudgetError, NotGroupLike) as exc:
        return str(exc), None


def test_real_and_complex_frames_of_one_span_agree():
    # e^{i pi / 7} S = S, so each real closure case and its multiple by
    # e^{i pi / 7}, which has a complex frame, must get one verdict, one set
    # of classes (phases to 1e-12) and one recovered table
    phase = np.exp(1j * np.pi / 7)
    cases, real_cases = _closure_cases(), 0
    for name, mats, _, _ in cases:
        stacked = np.stack([np.asarray(m, dtype=complex) for m in mats])
        if stacked.imag.any():
            continue
        real_cases += 1
        n = stacked.shape[1]
        verdicts = [_masked(_rejection(AlgebraBasis, n, 3.0, tuple(s)))
                    for s in (stacked, phase * stacked)]
        assert verdicts[0] == verdicts[1], name
        if verdicts[0] is not None:
            continue
        real, rotated = (AlgebraBasis(n, 3.0, tuple(s)) for s in (stacked, phase * stacked))
        assert (real._vh.dtype, rotated._vh.dtype) == (np.float64, complex), name
        (classes, table), (rotated_classes, rotated_table) = map(_enumerated, (real, rotated))
        assert table == rotated_table, name
        if isinstance(classes, str):
            assert classes == rotated_classes, name
            continue
        assert [(u.perm, u.phase_dim) for u in classes] == \
            [(u.perm, u.phase_dim) for u in rotated_classes], name
        assert max(np.max(np.abs(np.subtract(u.phases, v.phases)))
                   for u, v in zip(classes, rotated_classes)) <= 1e-12, name
    assert real_cases == len(cases) - 2  # all but the two Gaussian mixes


def _count_factorizations(monkeypatch):
    """Record every np.linalg.svd and np.linalg.inv call made from here on."""
    calls = {"factor": 0}

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls["factor"] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "inv", counting(np.linalg.inv))
    return calls


@pytest.mark.parametrize("group", _FRAME_GROUPS, ids=["D6", "Q8xZ4", "Q8xZ8"])
def test_enumeration_factors_the_root_once(monkeypatch, group):
    basis, supports = _hidden_presentation(group, np.random.default_rng(group.order))
    searches = _record_searches(monkeypatch)
    calls = _count_factorizations(monkeypatch)
    units = unitary_group_enumerate(basis, 3.0)
    assert calls == {"factor": 1}
    assert {u.perm for u in units} == supports
    # one unit for the root's SVD and one per one-row path: 65 at order 64
    assert [search.work for search in searches] == [group.order + 1]


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_rank_deficient_root_factors_once_per_multi_row_node(monkeypatch, seed):
    # the diagonal algebra's root block is n x n with rank 1; noise of 1e-13
    # off the diagonal (far inside every 1e-9 bound) turns its zero singular
    # values into tiny nonzero ones, which must not be inverted
    n = 4
    units = np.array([_unit(n, i, i) for i in range(n)])
    if seed is not None:
        units += 1e-13 * np.random.default_rng(seed).standard_normal(units.shape) * (1 - np.eye(n))
    basis = AlgebraBasis(n, 3.0, tuple(units))
    searches, decided = [], []

    class RecordingSearch(_PatternSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

        def descend(self, c):
            if len(self.pattern) < n:
                decided.append(len(c))
            super().descend(c)

    monkeypatch.setattr(convolution, "_PatternSearch", RecordingSearch)
    calls = _count_factorizations(monkeypatch)
    classes = unitary_group_enumerate(basis, 3.0)
    assert [(u.perm, u.phase_dim) for u in classes] == [(tuple(range(n)), n - 1)]
    # one n-row node per column, each factored once and charged one unit,
    # where the per-candidate rule made n + (n - 1) + ... + 1 SVDs
    assert decided == [n] * n
    assert calls == {"factor": n}
    assert [search.work for search in searches] == [n]


def test_enumerate_two_cycle():
    basis = convolver_algebra(ConvolutionContext(make_cyclic(2), 3.0))
    units = unitary_group_enumerate(basis, 3.0)
    assert [u.perm for u in units] == [(0, 1), (1, 0)]
    assert all(u.phase_dim == 0 for u in units)


def test_enumerate_four_cycle_forms_cyclic_group():
    basis = convolver_algebra(ConvolutionContext(make_cyclic(4), 3.0))
    units = unitary_group_enumerate(basis, 3.0)
    assert len(units) == 4
    shift = next(u for u in units if u.perm == (1, 2, 3, 0))
    power = shift
    seen = {shift.perm}
    for _ in range(3):
        power = _compose(power, shift)
        seen.add(power.perm)
    assert len(seen) == 4


def test_enumerate_counts_match_group_order():
    for _, g in zoo():
        for p in (1.5, 3.0):
            basis = convolver_algebra(ConvolutionContext(g, p))
            units = unitary_group_enumerate(basis, p)
            assert len(units) == g.order, g


def test_enumerate_closure_and_projection_to_group_product():
    g = make_symmetric(3)
    ctx = ConvolutionContext(g, 3.0)
    basis = convolver_algebra(ctx)
    units = unitary_group_enumerate(basis, 3.0)
    by_perm = {u.perm: u for u in units}
    lam_perm = {s: tuple(int(np.argmax(left_regular(ctx, s).matrix.real[:, y]))
                         for y in range(6)) for s in range(6)}
    for u, v in itertools.product(units, repeat=2):
        prod = _compose(u, v)
        assert prod.perm in by_perm
        assert _same_class(by_perm[prod.perm], prod)
        assert tuple(u.perm.index(x) for x in range(6)) in by_perm  # the inverse
    # scalar multiples of translations project to the translation product
    s, t = 3, 4
    a = PhasedPermutation(lam_perm[s], tuple(0.3 + 0.954j for _ in range(6)))
    b = PhasedPermutation(lam_perm[t], tuple(-1j for _ in range(6)))
    assert _compose(a, b).perm == lam_perm[g.mul(s, t)]


@pytest.mark.parametrize("group, work", [(make_cyclic(4), 5), (make_quaternion(), 9)],
                         ids=["Z4", "Q8"])
def test_enumerate_node_count_is_pinned(monkeypatch, group, work):
    # one unit for the root's SVD, then one for each of the n one-row paths
    n = group.order
    assert work == n + 1
    basis = convolver_algebra(ConvolutionContext(group, 3.0))
    monkeypatch.setattr(convolution, "ENUM_WORK_BUDGET", work)
    assert len(unitary_group_enumerate(basis, 3.0)) == n
    monkeypatch.setattr(convolution, "ENUM_WORK_BUDGET", work - 1)
    with pytest.raises(BudgetError, match="pattern search exceeded its work budget"):
        unitary_group_enumerate(basis, 3.0)


def test_matrix_algebra_search_is_charged_per_svd(monkeypatch):
    # M_5's search makes 206 SVDs and follows no one-row path; its 120
    # classes are the permutations, each with its whole phase torus
    basis = AlgebraBasis(5, 3.0, tuple(_unit(5, i, j) for i in range(5) for j in range(5)))
    searches = _record_searches(monkeypatch)
    monkeypatch.setattr(convolution, "ENUM_WORK_BUDGET", 206)
    classes = unitary_group_enumerate(basis, 3.0)
    assert len(classes) == 120 and {u.phase_dim for u in classes} == {4}
    assert [(s.work, s.svds, s.paths) for s in searches] == [(206, 206, 0)]
    monkeypatch.setattr(convolution, "ENUM_WORK_BUDGET", 205)
    with pytest.raises(BudgetError, match="pattern search exceeded its work budget"):
        unitary_group_enumerate(basis, 3.0)
    assert searches[-1].work == 206


@pytest.mark.parametrize("group", [
    make_dihedral(6),
    make_direct_product(make_quaternion(), make_cyclic(4)),
    make_direct_product(make_quaternion(), make_cyclic(8)),
], ids=["D6", "Q8xZ4", "Q8xZ8"])
def test_enumerate_hidden_presentations(group):
    basis, supports = _hidden_presentation(group, np.random.default_rng(group.order))
    units = unitary_group_enumerate(basis, 3.0)
    assert {u.perm for u in units} == supports
    assert len(units) == group.order
    for u in units:
        assert u.phase_dim == 0
        assert np.allclose(np.abs(u.phases), 1.0, atol=1e-12)


def test_enumerate_reads_phases_of_a_conjugated_presentation():
    # conjugating L_s by diag(d) puts d[s y] / d[y] in column y
    g = make_dihedral(4)
    n = g.order
    rng = np.random.default_rng(3)
    d = np.exp(2j * np.pi * rng.random(n))
    lam = [left_regular(ConvolutionContext(g, 1.5), s).matrix for s in range(n)]
    basis = AlgebraBasis(n, 1.5, tuple(np.diag(d) @ m @ np.diag(1 / d) for m in lam))
    units = {u.perm: u for u in unitary_group_enumerate(basis, 1.5)}
    assert len(units) == n
    for s in range(n):
        perm = tuple(g.mul(s, y) for y in range(n))
        expected = PhasedPermutation(perm, tuple(d[perm[y]] / d[y] for y in range(n)))
        assert _same_class(units[perm], expected, tol=1e-12)


def test_enumerate_full_matrix_algebra_yields_all_patterns():
    for n in (3, 4):
        elementary = []
        for i in range(n):
            for j in range(n):
                m = np.zeros((n, n))
                m[i, j] = 1.0
                elementary.append(m)
        basis = AlgebraBasis(n, 3.0, tuple(elementary))
        units = unitary_group_enumerate(basis, 3.0)
        assert len(units) == len(list(itertools.permutations(range(n))))
        assert all(u.phase_dim == n - 1 for u in units)


def test_enumerate_rejects_p2_and_p1():
    basis = convolver_algebra(ConvolutionContext(make_cyclic(2), 3.0))
    with pytest.raises(P2Unsupported):
        unitary_group_enumerate(basis, 2.0)
    with pytest.raises(POutOfRange):
        unitary_group_enumerate(basis, 1.0)


def test_enumerate_refuses_intermediate_phase_families():
    # span of I and diag(1, 1, -1): the diagonal pattern carries a
    # 2-parameter family on 3 atoms, which has no discrete class set
    basis = AlgebraBasis(3, 3.0, (np.eye(3), np.diag([1.0, 1.0, -1.0])))
    with pytest.raises(NotGroupLike):
        unitary_group_enumerate(basis, 3.0)


def test_enumerate_diagonal_algebra_keeps_the_identity_torus():
    # every candidate off the diagonal has a slice with a zero in its cell
    basis = AlgebraBasis(3, 3.0, tuple(_unit(3, i, i) for i in range(3)))
    units = unitary_group_enumerate(basis, 3.0)
    assert [(u.perm, u.phase_dim) for u in units] == [((0, 1, 2), 2)]


def test_enumerate_refuses_an_invertible_non_isometry():
    # J^2 = I, so J is invertible, but its moduli 2 and 1/2 differ: only the
    # scalar class survives
    j = np.array([[0.0, 2.0], [0.5, 0.0]])
    units = unitary_group_enumerate(AlgebraBasis(2, 3.0, (np.eye(2), j)), 3.0)
    assert [(u.perm, u.phase_dim) for u in units] == [((0, 1), 0)]


def test_enumerate_prunes_a_nilpotent_direction():
    # span{I, E10}: at column 0 the candidate row 2 leaves no slice, and the
    # slice of row 1 is E10 alone, which column 1 cannot continue
    basis = AlgebraBasis(3, 3.0, (np.eye(3), _unit(3, 1, 0)))
    units = unitary_group_enumerate(basis, 3.0)
    assert [(u.perm, u.phase_dim) for u in units] == [((0, 1, 2), 0)]


def _left_nullspace(a):
    """Orthonormal rows c with c @ a = 0."""
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    return u[:, int(np.sum(s > ENUM_TOL)):].conj().T


_ORACLE_NODE_BUDGET = 200_000  # the per-candidate rule's own count of candidates


def _per_candidate_enumerate(basis):
    """The search by the per-candidate rule, as an oracle: every free row x
    of the next column takes the left nullspace of the slice's other entries
    there, at every node down to one row. Returns the sorted classes and the
    node count."""
    b0, n = basis._vh, basis.n
    found, nodes = [], [0]

    def descend(c, pattern):
        y, d = len(pattern), len(c)
        if y == n:
            if d == 1:
                vec = (c @ b0[:, np.array(pattern) * n + np.arange(n)])[0]
                moduli = np.abs(vec)
                spread = (moduli.max() - moduli.min()) / moduli.max()
                if moduli.min() > ENUM_TOL and spread <= ENUM_TOL:
                    phases = vec / moduli
                    found.append(PhasedPermutation(tuple(pattern), tuple(phases / phases[0])))
            elif d == n:
                found.append(PhasedPermutation(tuple(pattern), (1.0,) * n, n - 1))
            else:
                raise NotGroupLike(f"a support pattern carries a {d}-parameter phase family "
                                   "strictly between a scalar line and the full torus")
            return
        acol = c @ b0[:, y::n]
        for x in range(n):
            if x in pattern:
                continue
            nodes[0] += 1
            if nodes[0] > _ORACLE_NODE_BUDGET:
                raise BudgetError("pattern search exceeded its node budget")
            nmat = _left_nullspace(np.delete(acol, x, axis=1))
            if len(nmat) and np.max(np.abs(nmat @ acol[:, x])) > ENUM_TOL:
                descend(nmat @ c, pattern + [x])

    descend(np.eye(basis.dimension, dtype=complex), [])
    identity = tuple(range(n))
    return sorted(found, key=lambda u: (u.perm != identity, u.perm)), nodes[0]


def _permutation_span(n, perms):
    """The span of the permutation matrices of perms on n atoms, as a basis
    of the first ones that are linearly independent."""
    kept = []
    for perm in perms:
        m = np.zeros((n, n))
        m[list(perm), range(n)] = 1.0
        if np.linalg.matrix_rank(np.array([a.reshape(-1) for a in kept + [m]])) > len(kept):
            kept.append(m)
    return AlgebraBasis(n, 3.0, tuple(kept))


def _block_sum(a, b):
    """The block-diagonal algebra of two bases, as a basis."""
    n, k = a.n + b.n, a.dimension
    mats = np.zeros((k + b.dimension, n, n), dtype=complex)
    mats[:k, :a.n, :a.n] = a.elements
    mats[k:, a.n:, a.n:] = b.elements
    return AlgebraBasis(n, 3.0, tuple(mats))


def _oracle_bases():
    """(name, basis, p): group algebras in several presentations, and
    algebras whose search descends through multi-row nodes or raises."""
    cases = [(f"{name} p={p}", convolver_algebra(ConvolutionContext(g, p)), p)
             for name, g in zoo() + (("S4", make_symmetric(4)), ("D6", make_dihedral(6)))
             for p in (1.5, 3.0)]
    for name, g in (("D6", make_dihedral(6)), ("S3", make_symmetric(3)), ("Q8", make_quaternion())):
        rng = np.random.default_rng(g.order)
        gauss = rng.standard_normal((g.order,) * 2) + 1j * rng.standard_normal((g.order,) * 2)
        for kind, mix in (("orthogonal", None), ("gaussian", gauss), ("plain", np.eye(g.order))):
            mats = _presentation(g, rng, mix)[0]
            cases.append((f"{kind} {name}", AlgebraBasis(g.order, 3.0, tuple(mats)), 3.0))
    for name, g in (("D4", make_dihedral(4)), ("Q8", make_quaternion()), ("Z6", make_cyclic(6))):
        d = np.exp(2j * np.pi * np.random.default_rng(3).random(g.order))
        lam = [left_regular(ConvolutionContext(g, 1.5), s).matrix for s in range(g.order)]
        cases.append((f"twisted {name}", AlgebraBasis(
            g.order, 1.5, tuple(np.diag(d) @ m @ np.diag(1 / d) for m in lam)), 1.5))
    for n in range(1, 7):
        for seed in (None, 0):
            units = np.array([_unit(n, i, i) for i in range(n)])
            if seed is not None:
                noise = np.random.default_rng(seed).standard_normal(units.shape)
                units += 1e-13 * noise * (1 - np.eye(n))
            cases.append((f"diagonal {n} noise {seed}", AlgebraBasis(n, 3.0, tuple(units)), 3.0))
    for n in (2, 3, 4):
        units = np.array([_unit(n, i, j) for i in range(n) for j in range(n)])
        q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n * n, n * n)))
        cases.append((f"M{n}", AlgebraBasis(n, 3.0, tuple(units)), 3.0))
        cases.append((f"mixed M{n}",
                      AlgebraBasis(n, 3.0, tuple(np.einsum("ij,jkl->ikl", q, units))), 3.0))
        cases.append((f"upper triangular {n}", AlgebraBasis(
            n, 3.0, tuple(_unit(n, i, j) for i in range(n) for j in range(i, n))), 3.0))
    cases += [("I, E10", AlgebraBasis(3, 3.0, (np.eye(3), _unit(3, 1, 0))), 3.0),
              ("J", AlgebraBasis(2, 3.0, (np.eye(2), np.array([[0.0, 2.0], [0.5, 0.0]]))), 3.0),
              ("I, diag(1, 1, -1)",
               AlgebraBasis(3, 3.0, (np.eye(3), np.diag([1.0, 1.0, -1.0]))), 3.0)]
    for name, n, perms in (
            ("S3 on 3 atoms", 3, itertools.permutations(range(3))),
            ("S4 on 4 atoms", 4, itertools.permutations(range(4))),
            ("Z2 x Z2 on 4 atoms", 4, [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]),
            ("Z4 on 5 atoms", 5,
             [tuple((y + k) % 4 if y < 4 else 4 for y in range(5)) for k in range(4)]),
            ("Z2 on 3 atoms", 3, [(0, 1, 2), (1, 0, 2)])):
        cases.append((name, _permutation_span(n, perms), 3.0))
    z2, z3 = (convolver_algebra(ConvolutionContext(make_cyclic(m), 3.0)) for m in (2, 3))
    cases += [("Z2 + Z3", _block_sum(z2, z3), 3.0),
              ("Z2 + C", _block_sum(z2, AlgebraBasis(1, 3.0, (np.eye(1),))), 3.0),
              ("M2 (x) C[Z3]", AlgebraBasis(6, 3.0, tuple(
                  np.kron(_unit(2, i, j), t)
                  for i in range(2) for j in range(2) for t in z3.elements)), 3.0)]
    return cases


def _outcome(search):
    """(classes, count) of a search, or the type and message it raised."""
    try:
        return search()
    except (BudgetError, NotGroupLike) as exc:
        return type(exc), str(exc)


def test_one_rule_agrees_with_the_per_candidate_oracle(monkeypatch):
    searches = _record_searches(monkeypatch)
    kinds = set()
    for name, basis, p in _oracle_bases():
        got = _outcome(lambda: (list(unitary_group_enumerate(basis, p)), searches[-1]))
        expected = _outcome(lambda: _per_candidate_enumerate(basis))
        if isinstance(expected[0], type):
            assert got == expected, name
            kinds.add("raises")
            continue
        (units, search), (ref_units, _) = got, expected
        assert search.work == search.svds + search.paths, name
        assert ([(u.perm, u.phase_dim) for u in units]
                == [(u.perm, u.phase_dim) for u in ref_units]), name
        assert all(np.max(np.abs(np.subtract(u.phases, v.phases))) <= 1e-12
                   for u, v in zip(units, ref_units)), name
        kinds.update("torus" if u.phase_dim else "line" for u in units)
    assert kinds == {"raises", "torus", "line"}


def test_contexts_reject_extreme_exponents():
    with pytest.raises(POutOfRange):
        ConvolutionContext(make_cyclic(2), 1.0)
