import contextlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from lpconv import convolution
from lpconv.convolution import (ENUM_NODE_BUDGET, ENUM_TOL, AlgebraBasis,
                                ConvolutionContext, PhasedPermutation,
                                _check_closure_by_pairs,
                                _closed_by_two_generators, _PatternSearch,
                                algebra_membership, convolver_algebra,
                                convolver_basis_exact, left_regular,
                                pseudofunction_algebra, right_regular,
                                unitary_group_enumerate)
from lpconv.errors import BudgetError, NotGroupLike, P2Unsupported, POutOfRange
from lpconv.groups import (make_cyclic, make_dihedral, make_direct_product,
                           make_quaternion, make_symmetric, zoo)

# numerical trouble must end in a verdict or an error, not in a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_regular_representations_at_identity():
    ctx = ConvolutionContext(make_cyclic(3), 3.0)
    assert np.array_equal(left_regular(ctx, 0).matrix, np.eye(3))
    assert np.array_equal(right_regular(ctx, 0).matrix, np.eye(3))


def test_regular_representations_on_two_cycle():
    ctx = ConvolutionContext(make_cyclic(2), 3.0)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(left_regular(ctx, 1).matrix, swap)
    assert np.array_equal(right_regular(ctx, 1).matrix, swap)


def test_left_regular_is_a_homomorphism_on_s3():
    g = make_symmetric(3)
    ctx = ConvolutionContext(g, 1.5)
    lam = [left_regular(ctx, s).matrix for s in range(6)]
    for s, t in itertools.product(range(6), repeat=2):
        assert np.array_equal(lam[s] @ lam[t], lam[g.mul(s, t)])


def test_right_regular_is_a_homomorphism_on_s3():
    g = make_symmetric(3)
    ctx = ConvolutionContext(g, 1.5)
    rho = [right_regular(ctx, s).matrix for s in range(6)]
    for s, t in itertools.product(range(6), repeat=2):
        assert np.array_equal(rho[s] @ rho[t], rho[g.mul(s, t)])


def test_left_and_right_translations_commute_exactly():
    g = make_dihedral(4)
    ctx = ConvolutionContext(g, 3.0)
    for s, t in itertools.product(range(8), repeat=2):
        lam = left_regular(ctx, s).matrix
        rho = right_regular(ctx, t).matrix
        assert np.array_equal(lam @ rho, rho @ lam)


def test_pseudofunction_dimensions():
    assert pseudofunction_algebra(ConvolutionContext(make_cyclic(1), 3.0)).dimension == 1
    for _, g in zoo():
        assert pseudofunction_algebra(ConvolutionContext(g, 3.0)).dimension == g.order


def test_pseudofunction_of_cycle_is_circulant_shifts():
    ctx = ConvolutionContext(make_cyclic(4), 3.0)
    basis = pseudofunction_algebra(ctx)
    for s, mat in enumerate(basis.elements):
        expected = np.roll(np.eye(4), s, axis=0)
        assert np.array_equal(mat.real, expected)


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
        pf = pseudofunction_algebra(ctx)
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
            rho = right_regular(ctx, t).matrix
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
    ctx = ConvolutionContext(make_cyclic(4), 3.0)
    basis = pseudofunction_algebra(ctx)
    coords = algebra_membership(basis, basis.elements[2])
    assert coords is not None
    assert np.allclose(coords, np.eye(4)[2], atol=1e-12)
    combo = basis.elements[0] + basis.elements[1]
    coords = algebra_membership(basis, combo)
    assert np.allclose(coords, np.array([1.0, 1.0, 0.0, 0.0]), atol=1e-12)


def test_membership_rejects_outside_span():
    ctx = ConvolutionContext(make_cyclic(3), 3.0)
    basis = pseudofunction_algebra(ctx)
    rng = np.random.default_rng(0)
    outside = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert algebra_membership(basis, outside) is None


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
        cases.append((f"{name} translations", pseudofunction_algebra(ctx).elements, True, True))
    for g in (make_dihedral(6), make_direct_product(make_quaternion(), make_cyclic(4)),
              make_direct_product(make_quaternion(), make_cyclic(8))):
        basis, _ = _hidden_presentation(g, np.random.default_rng(g.order))
        cases.append((f"hidden order {g.order}", basis.elements, True, True))
    for n in (2, 3, 4):
        upper = [_unit(n, i, j) for i in range(n) for j in range(i, n)]
        cases.append((f"upper triangular {n}", upper, True, True))
    # I plus a square-zero radical of dimension 4: closed, but two elements
    # generate only a 3-dimensional subalgebra
    radical = [np.eye(4)] + [_unit(4, i, j) for i in (0, 1) for j in (2, 3)]
    cases.append(("square-zero radical", radical, True, False))
    cases.append(("3-cycle", (np.eye(3), np.roll(np.eye(3), 1, axis=0)), False, False))
    # products overflow, so the residual is NaN and must still reject
    cases.append(("3-cycle at 1e200", (1e200 * np.eye(3), 1e200 * np.roll(np.eye(3), 1, axis=0)),
                  False, False))
    q8 = list(pseudofunction_algebra(ConvolutionContext(make_quaternion(), 3.0)).elements)
    q8[3] = q8[3] + 1e-3 * np.random.default_rng(5).standard_normal((8, 8))
    cases.append(("perturbed Q8", q8, False, False))
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
        # the 1e200 case overflows on purpose; any other warning is an error
        expected = (pytest.warns(RuntimeWarning,
                                 match="(overflow|invalid value) encountered in matmul")
                    if "1e200" in name else contextlib.nullcontext())
        with expected:
            stacked = np.stack([np.asarray(m, dtype=complex) for m in mats])
            k, n, _ = stacked.shape
            u, s, vh = np.linalg.svd(stacked.reshape(k, -1), full_matrices=False)
            full = _rejection(_check_closure_by_pairs, stacked, vh)
            assert (full is None) == closed, name
            assert _rejection(AlgebraBasis, n, 3.0, tuple(mats)) == full, name
            assert _closed_by_two_generators(stacked, u, s, vh) == fast, name


def test_enumeration_reuses_the_basis_frame(monkeypatch):
    group = make_direct_product(make_quaternion(), make_cyclic(4))
    basis, _ = _hidden_presentation(group, np.random.default_rng(7))
    n, k = basis.n, basis.dimension
    # the search run on a fresh SVD of the stack, as it was before the frame was kept
    _, s, vh = np.linalg.svd(np.stack([a.reshape(-1) for a in basis.elements]),
                             full_matrices=False)
    rank = int(np.sum(s > ENUM_TOL * s[0]))
    reference = _PatternSearch(vh[:rank], n, ENUM_NODE_BUDGET, ENUM_TOL)
    reference.descend(np.eye(rank, dtype=complex))

    searches, stack_svds = [], []

    class RecordingSearch(_PatternSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if np.shape(a) == (k, n * n):
            stack_svds.append(a)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(convolution, "_PatternSearch", RecordingSearch)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    units = unitary_group_enumerate(basis, 3.0)
    assert stack_svds == []
    assert [search.nodes for search in searches] == [reference.nodes]
    assert len(units) == len(reference.found) == n
    assert set(units) == set(reference.found)


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
        power = power.compose(shift)
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
        prod = u.compose(v)
        assert prod.perm in by_perm
        assert by_perm[prod.perm].same_class(
            PhasedPermutation(prod.perm, prod.phases, prod.phase_dim))
        assert u.inverse().perm in by_perm
    # scalar multiples of translations project to the translation product
    s, t = 3, 4
    a = PhasedPermutation(lam_perm[s], tuple(0.3 + 0.954j for _ in range(6)))
    b = PhasedPermutation(lam_perm[t], tuple(-1j for _ in range(6)))
    assert a.compose(b).perm == lam_perm[g.mul(s, t)]


@pytest.mark.parametrize("group, nodes", [(make_cyclic(4), 28), (make_quaternion(), 232)],
                         ids=["Z4", "Q8"])
def test_enumerate_node_count_is_pinned(group, nodes):
    # n root candidates, then each of the n one-dimensional children walks
    # its single path over (n - 1) + ... + 1 free rows: n + n * n(n - 1) / 2
    n = group.order
    assert nodes == n + n * n * (n - 1) // 2
    basis = convolver_algebra(ConvolutionContext(group, 3.0))
    assert len(unitary_group_enumerate(basis, 3.0, node_budget=nodes)) == n
    with pytest.raises(BudgetError):
        unitary_group_enumerate(basis, 3.0, node_budget=nodes - 1)


def _hidden_presentation(g, rng):
    """The left translations with atoms relabelled by a random permutation
    and the basis mixed by a random orthogonal matrix; also the relabelled
    support of each translation, as perm tuples."""
    n = g.order
    sigma = rng.permutation(n)
    lam = np.zeros((n, n, n))
    for s in range(n):
        for y in range(n):
            lam[s, sigma[g.mul(s, y)], sigma[y]] = 1.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mats = np.einsum("ij,jkl->ikl", q, lam)
    supports = {tuple(int(np.argmax(lam[s][:, y])) for y in range(n)) for s in range(n)}
    return AlgebraBasis(n, 3.0, tuple(mats)), supports


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
    lam = pseudofunction_algebra(ConvolutionContext(g, 1.5)).elements
    basis = AlgebraBasis(n, 1.5, tuple(np.diag(d) @ m @ np.diag(1 / d) for m in lam))
    units = {u.perm: u for u in unitary_group_enumerate(basis, 1.5)}
    assert len(units) == n
    for s in range(n):
        perm = tuple(g.mul(s, y) for y in range(n))
        expected = PhasedPermutation(perm, tuple(d[perm[y]] / d[y] for y in range(n)))
        assert units[perm].same_class(expected, tol=1e-12)


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


def test_contexts_reject_extreme_exponents():
    with pytest.raises(POutOfRange):
        ConvolutionContext(make_cyclic(2), 1.0)
