import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpconv.acceptance import P_GRID, _random_algebra, _random_form, _rng
from lpconv.errors import NotIsometry, P2Unsupported, POutOfRange
from lpconv.isometry import (DECOMPOSE_TOL, LampertiForm, LpContext, Operator, clarkson_gap,
                             lamperti_decompose, lamperti_distance,
                             lamperti_operator, mult_isometry,
                             transform_isometry, vector_norm)
from lpconv.measure import (BooleanAutomorphism, FiniteMeasureAlgebra,
                            MeasurableFunction)

P_CHOICES = (1.2, 1.5, 3.0, 4.0)


@st.composite
def contexts(draw, max_atoms=8, ps=P_CHOICES):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    weights = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    p = draw(st.sampled_from(ps))
    return LpContext(FiniteMeasureAlgebra(tuple(weights)), p)


@st.composite
def forms(draw, ctx):
    n = ctx.algebra.atoms
    angles = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    f = MeasurableFunction(ctx.algebra,
                           tuple(np.exp(2j * np.pi * a) for a in angles))
    return LampertiForm(f, BooleanAutomorphism(ctx.algebra, tuple(perm)))


@st.composite
def context_and_form(draw):
    ctx = draw(contexts())
    return ctx, draw(forms(ctx))


def _interplay_deviation(phi, f, ctx):
    """Max entry deviation between u_phi m_f u_phi^-1 and m_(phi . f)."""
    n = ctx.algebra.atoms
    inverse = BooleanAutomorphism(ctx.algebra, tuple(phi.perm.index(y) for y in range(n)))
    u = transform_isometry(phi, ctx)
    lhs = u.compose(mult_isometry(f, ctx)).compose(transform_isometry(inverse, ctx))
    return np.max(np.abs(lhs.matrix - mult_isometry(phi.push_function(f), ctx).matrix))


def _is_disjointness_preserving(op, tol=1e-10):
    """Whether images of distinct atoms have (near) disjoint supports."""
    m = np.abs(op.matrix)
    return all(np.max(m[:, x] * m[:, y]) <= tol
               for x in range(len(m)) for y in range(x + 1, len(m)))


def test_mult_isometry_identity_and_inverse_phases():
    algebra = FiniteMeasureAlgebra((1.0, 1.0))
    ctx = LpContext(algebra, 3.0)
    one = mult_isometry(MeasurableFunction(algebra, (1.0, 1.0)), ctx)
    assert np.array_equal(one.matrix, np.eye(2))
    f = mult_isometry(MeasurableFunction(algebra, (1j, 1.0)), ctx)
    g = mult_isometry(MeasurableFunction(algebra, (-1j, 1.0)), ctx)
    assert np.allclose(f.compose(g).matrix, np.eye(2), atol=0)


def test_mult_isometry_rejects_non_unimodular():
    algebra = FiniteMeasureAlgebra((1.0, 1.0))
    ctx = LpContext(algebra, 3.0)
    with pytest.raises(ValueError):
        mult_isometry(MeasurableFunction(algebra, (2.0, 1.0)), ctx)


@given(context_and_form())
def test_mult_isometry_preserves_norms(cf):
    ctx, form = cf
    op = mult_isometry(form.f, ctx)
    rng = np.random.default_rng(7)
    for _ in range(5):
        xi = rng.standard_normal(ctx.algebra.atoms) \
            + 1j * rng.standard_normal(ctx.algebra.atoms)
        assert abs(vector_norm(op.apply(xi), ctx) - vector_norm(xi, ctx)) <= 1e-12


@given(contexts(max_atoms=6), st.data())
def test_mult_isometries_compose_pointwise(ctx, data):
    n = ctx.algebra.atoms
    angles = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    f = MeasurableFunction(ctx.algebra,
                           tuple(np.exp(2j * np.pi * a) for a in data.draw(angles)))
    g = MeasurableFunction(ctx.algebra,
                           tuple(np.exp(2j * np.pi * a) for a in data.draw(angles)))
    lhs = mult_isometry(f, ctx).compose(mult_isometry(g, ctx))
    rhs = mult_isometry(f * g, ctx)
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-12


def test_transform_isometry_identity():
    algebra = FiniteMeasureAlgebra((1.0, 2.0, 0.5))
    ctx = LpContext(algebra, 1.7)
    identity = transform_isometry(BooleanAutomorphism(algebra, (0, 1, 2)), ctx)
    assert np.array_equal(identity.matrix, np.eye(3))


def test_transform_isometry_weighted_swap_entries():
    algebra = FiniteMeasureAlgebra((1.0, 2.0))
    ctx = LpContext(algebra, 3.0)
    swap = transform_isometry(BooleanAutomorphism(algebra, (1, 0)), ctx)
    assert swap.matrix[0, 1] == pytest.approx(2.0 ** (1.0 / 3.0), abs=0)
    assert swap.matrix[1, 0] == pytest.approx(0.5 ** (1.0 / 3.0), abs=0)
    basis0 = np.array([1.0, 0.0])
    assert abs(vector_norm(swap.apply(basis0), ctx)
               - vector_norm(basis0, ctx)) <= 1e-12


def test_transform_isometry_counting_measure_is_permutation_matrix():
    algebra = FiniteMeasureAlgebra((1.0, 1.0, 1.0))
    ctx = LpContext(algebra, 2.5)
    op = transform_isometry(BooleanAutomorphism(algebra, (1, 2, 0)), ctx)
    expected = np.zeros((3, 3))
    for x, y in enumerate((1, 2, 0)):
        expected[y, x] = 1.0
    assert np.array_equal(op.matrix, expected)


@given(contexts(max_atoms=6), st.data())
def test_transform_isometries_compose(ctx, data):
    n = ctx.algebra.atoms
    phi = BooleanAutomorphism(ctx.algebra, tuple(data.draw(st.permutations(range(n)))))
    psi = BooleanAutomorphism(ctx.algebra, tuple(data.draw(st.permutations(range(n)))))
    lhs = transform_isometry(psi, ctx).compose(transform_isometry(phi, ctx))
    psi_after_phi = BooleanAutomorphism(ctx.algebra, tuple(psi.perm[y] for y in phi.perm))
    rhs = transform_isometry(psi_after_phi, ctx)
    assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-12


@given(context_and_form())
def test_interplay_identity(cf):
    ctx, form = cf
    assert _interplay_deviation(form.phi, form.f, ctx) <= 1e-12


def test_clarkson_examples():
    algebra = FiniteMeasureAlgebra((1.0, 1.0))
    ctx4 = LpContext(algebra, 4.0)
    assert clarkson_gap((1.0, 0.0), (0.0, 1.0), ctx4) == pytest.approx(0.0, abs=1e-12)
    assert clarkson_gap((1.0, 0.0), (1.0, 0.0), ctx4) == pytest.approx(12.0, abs=1e-9)
    with pytest.raises(P2Unsupported):
        clarkson_gap((1.0, 0.0), (0.0, 1.0), LpContext(algebra, 2.0))


@given(contexts(max_atoms=8, ps=(1.5, 4.0)), st.data())
def test_clarkson_sign_dichotomy(ctx, data):
    n = ctx.algebra.atoms
    draw_vec = st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                        min_size=n, max_size=n)
    xi = np.array([complex(a, b) for a, b in data.draw(draw_vec)])
    eta = np.array([complex(a, b) for a, b in data.draw(draw_vec)])
    gap = clarkson_gap(xi, eta, ctx)
    if ctx.p > 2:
        assert gap >= -1e-10
    else:
        assert gap <= 1e-10
    if np.max(np.abs(xi) * np.abs(eta)) == 0.0:
        assert abs(gap) <= 1e-10


def test_disjointness_preserving_examples():
    algebra = FiniteMeasureAlgebra((1.0, 1.0))
    ctx = LpContext(algebra, 3.0)
    assert _is_disjointness_preserving(Operator(ctx, np.diag([1j, -1.0])))
    assert not _is_disjointness_preserving(Operator(ctx, np.ones((2, 2))))


@given(context_and_form())
def test_form_operators_preserve_disjointness(cf):
    ctx, form = cf
    assert _is_disjointness_preserving(lamperti_operator(form, ctx))


def test_decompose_identity():
    algebra = FiniteMeasureAlgebra((1.0, 2.0, 0.5))
    ctx = LpContext(algebra, 3.0)
    form = lamperti_decompose(Operator(ctx, np.eye(3)))
    assert form.phi.perm == (0, 1, 2)
    assert form.f.values == (1.0 + 0j,) * 3


def test_decompose_forced_two_atom_example():
    algebra = FiniteMeasureAlgebra((1.0, 1.0))
    ctx = LpContext(algebra, 3.0)
    op = Operator(ctx, np.array([[0.0, 1j], [1.0, 0.0]]))
    form = lamperti_decompose(op)
    assert form.phi.perm == (1, 0)
    assert form.f.values == (1j, 1.0 + 0j)


@given(context_and_form())
def test_decompose_round_trip(cf):
    ctx, form = cf
    recovered = lamperti_decompose(lamperti_operator(form, ctx))
    assert recovered.phi.perm == form.phi.perm
    assert max(abs(a - b) for a, b in
               zip(recovered.f.values, form.f.values)) <= 1e-12


def test_decompose_survives_tiny_perturbation():
    rng = np.random.default_rng(3)
    algebra = FiniteMeasureAlgebra(tuple(rng.uniform(0.5, 2.0, 5)))
    ctx = LpContext(algebra, 1.5)
    f = MeasurableFunction(algebra, tuple(np.exp(2j * np.pi * rng.uniform(size=5))))
    phi = BooleanAutomorphism(algebra, tuple(int(v) for v in rng.permutation(5)))
    op = lamperti_operator(LampertiForm(f, phi), ctx)
    noise = 1e-13 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    perturbed = Operator(ctx, op.matrix + noise)
    assert lamperti_decompose(perturbed).phi.perm == phi.perm


def test_decompose_rejects_rotation_at_p2():
    algebra = FiniteMeasureAlgebra((1.0, 1.0))
    ctx = LpContext(algebra, 2.0)
    c = math.sqrt(0.5)
    rotation = Operator(ctx, np.array([[c, -c], [c, c]]))
    with pytest.raises(P2Unsupported):
        lamperti_decompose(rotation)


def test_decompose_rejects_p1():
    algebra = FiniteMeasureAlgebra((1.0, 1.0))
    ctx = LpContext(algebra, 1.0)
    with pytest.raises(POutOfRange):
        lamperti_decompose(Operator(ctx, np.eye(2)))


def test_decompose_rejects_non_isometries():
    algebra = FiniteMeasureAlgebra((1.0, 1.0))
    ctx = LpContext(algebra, 3.0)
    with pytest.raises(NotIsometry):
        lamperti_decompose(Operator(ctx, np.diag([2.0, 1.0])))
    with pytest.raises(NotIsometry):
        lamperti_decompose(Operator(ctx, np.ones((2, 2))))
    # an l2 rotation presented at p = 3 fails on its column supports
    c = math.sqrt(0.5)
    with pytest.raises(NotIsometry):
        lamperti_decompose(Operator(ctx, np.array([[c, -c], [c, c]])))


def _identity_plus_ones(scale):
    """I + scale * J on eight atoms of counting measure at p = 3."""
    ctx = LpContext(FiniteMeasureAlgebra((1.0,) * 8), 3.0)
    return Operator(ctx, np.eye(8) + scale * np.ones((8, 8)))


def test_decompose_refuses_a_norm_change_above_tol():
    # the all-ones vector's norm grows by 1.6e-9 of itself, above the default 1e-9
    with pytest.raises(NotIsometry, match="Riesz-Thorin bound"):
        lamperti_decompose(_identity_plus_ones(2e-10))


def test_decompose_accepts_a_norm_change_below_tol():
    assert lamperti_decompose(_identity_plus_ones(1e-11)).phi.perm == tuple(range(8))


@given(context_and_form(), st.floats(-14.0, -9.0), st.data())
def test_accepted_perturbations_change_no_sampled_norm_beyond_tol(cf, log_scale, data):
    ctx, form = cf
    n = ctx.algebra.atoms
    noise = data.draw(st.lists(st.complex_numbers(max_magnitude=1.0),
                               min_size=n * n, max_size=n * n))
    op = Operator(ctx, lamperti_operator(form, ctx).matrix
                  + 10.0 ** log_scale * np.reshape(noise, (n, n)))
    try:
        lamperti_decompose(op)
    except NotIsometry:
        return
    rng = np.random.default_rng(n)
    draws = rng.standard_normal((16, n)) + 1j * rng.standard_normal((16, n))
    for xi in (*np.eye(n), np.ones(n), *draws):
        before = vector_norm(xi, ctx)
        # 1e-14 of slack for the roundoff of the two measured norms
        assert abs(vector_norm(op.apply(xi), ctx) - before) <= (DECOMPOSE_TOL + 1e-14) * before


def _stretched_atom(scale):
    """diag(scale, 1) on two atoms of counting measure at p = 3."""
    ctx = LpContext(FiniteMeasureAlgebra((1.0, 1.0)), 3.0)
    return Operator(ctx, np.diag([scale, 1.0]))


def test_tol_governs_the_phase_moduli():
    # diag(1 + 5e-7, 1) changes no norm by more than 5e-7 of itself: a tol
    # of 1e-6 accepts it, with its phases at the nearest unimodular values
    form = lamperti_decompose(_stretched_atom(1.0 + 5e-7), tol=1e-6)
    assert form.phi.perm == (0, 1) and form.f.values == (1.0 + 0j, 1.0 + 0j)
    with pytest.raises(NotIsometry, match="Riesz-Thorin bound"):
        lamperti_decompose(_stretched_atom(1.0 + 5e-7))


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6, 0.5, 0.999, 1.0, 1.5, 2.0, 10.0])
def test_a_doubled_atom_is_refused_at_every_tol(tol):
    with pytest.raises(NotIsometry):
        lamperti_decompose(_stretched_atom(2.0), tol=tol)


def test_tol_zero_refuses_exact_forms():
    # the first 300 forms of criterion 3 at seed 0: roundoff is never proved away
    rng = _rng(0, 3)
    for _ in range(300):
        algebra = _random_algebra(rng, int(rng.integers(1, 9)))
        ctx = LpContext(algebra, float(P_GRID[rng.integers(len(P_GRID))]))
        with pytest.raises(NotIsometry):
            lamperti_decompose(lamperti_operator(_random_form(rng, algebra), ctx), tol=0.0)


def test_tol_zero_refuses_the_identity():
    # its bound is 0 in floating point, but the roundoff allowance is not
    ctx = LpContext(FiniteMeasureAlgebra((1.0, 2.0, 0.5)), 3.0)
    with pytest.raises(NotIsometry, match="exceeds 0.0"):
        lamperti_decompose(Operator(ctx, np.eye(3)), tol=0.0)


def test_distance_closed_forms():
    algebra = FiniteMeasureAlgebra((1.0, 2.0))
    ctx = LpContext(algebra, 3.0)
    f = MeasurableFunction(algebra, (1j, 1.0))
    identity = BooleanAutomorphism(algebra, (0, 1))
    swap = BooleanAutomorphism(algebra, (1, 0))
    a = LampertiForm(f, identity)
    assert lamperti_distance(a, a, ctx) == 0.0
    b = LampertiForm(f, swap)
    assert lamperti_distance(a, b, ctx) == 2.0
    plus = LampertiForm(MeasurableFunction(algebra, (1.0, 1.0)), identity)
    minus = LampertiForm(MeasurableFunction(algebra, (-1.0, -1.0)), identity)
    assert lamperti_distance(plus, minus, ctx) == 2.0
