import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpconv.errors import BudgetError
from lpconv.groups import (FiniteGroup, GroupIso, generating_sequence,
                           is_isomorphic, make_cyclic, make_dihedral,
                           make_direct_product, make_quaternion,
                           make_symmetric, zoo)


def oracle_iso(g, h):
    """Exhaustive bijection search. Any multiplicative bijection fixes the
    identity, so pinning it is a lossless restriction."""
    if g.order != h.order:
        return None
    n = g.order
    rest_g = [x for x in range(n) if x != g.identity]
    rest_h = [y for y in range(n) if y != h.identity]
    for image in itertools.permutations(rest_h):
        m = [0] * n
        m[g.identity] = h.identity
        for x, y in zip(rest_g, image):
            m[x] = y
        if all(m[g.mul(a, b)] == h.mul(m[a], m[b])
               for a in range(n) for b in range(n)):
            return tuple(m)
    return None


def test_cyclic_trivial():
    g = make_cyclic(1)
    assert g.order == 1 and g.identity == 0


def test_cyclic_table_is_addition():
    g = make_cyclic(2)
    assert g.table == ((0, 1), (1, 0))
    z4 = make_cyclic(4)
    assert z4.element_order(1) == 4


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_table_validation_rejects_broken_tables():
    with pytest.raises(ValueError):
        FiniteGroup(2, ((0, 0), (1, 1)), 0)  # not a Latin square
    with pytest.raises(ValueError):
        FiniteGroup(2, ((0, 1), (1, 0)), 1)  # wrong identity
    # Latin square with identity that is not associative (order 5 loop)
    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(ValueError):
        FiniteGroup(5, loop, 0)


def test_dihedral_matches_permutation_representation():
    # oracle: symmetries of the square acting on vertices, composed as maps
    n = 4
    maps = []
    for t in (0, 1):
        for k in range(n):
            maps.append(tuple((k + x if t == 0 else k - x) % n for x in range(n)))
    index = {m: i for i, m in enumerate(maps)}
    expected = tuple(
        tuple(index[tuple(a[b[x]] for x in range(n))] for b in maps) for a in maps
    )
    g = make_dihedral(4)
    assert g.order == 8
    assert not g.is_abelian()
    assert g.table == expected


def test_quaternion_structure():
    q8 = make_quaternion()
    assert q8.order == 8
    assert not q8.is_abelian()
    assert q8.order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)
    minus_one = 4
    assert all(q8.mul(x, x) == minus_one for x in (1, 2, 3))


def test_direct_product_with_trivial_is_isomorphic_copy():
    for _, g in zoo()[:6]:
        prod = make_direct_product(g, make_cyclic(1))
        assert is_isomorphic(prod, g) is not None


def test_klein_four_elements_are_involutions():
    klein = make_direct_product(make_cyclic(2), make_cyclic(2))
    assert klein.order_profile() == (1, 2, 2, 2)


def test_symmetric_budget():
    with pytest.raises(BudgetError):
        make_symmetric(6)


def test_table_budgets():
    with pytest.raises(BudgetError):
        make_cyclic(129)
    with pytest.raises(BudgetError):
        make_dihedral(65)


def test_iso_budget():
    big = make_cyclic(65)
    with pytest.raises(BudgetError):
        is_isomorphic(big, big)


def test_self_isomorphism_is_identity_map():
    for _, g in zoo():
        w = is_isomorphic(g, g)
        assert w is not None and w.mapping == tuple(range(g.order))


def test_cyclic_vs_klein_not_isomorphic():
    z4 = make_cyclic(4)
    klein = make_direct_product(make_cyclic(2), make_cyclic(2))
    assert is_isomorphic(z4, klein) is None
    assert oracle_iso(z4, klein) is None


def test_s3_isomorphic_to_dihedral_3():
    s3, d3 = make_symmetric(3), make_dihedral(3)
    assert is_isomorphic(s3, d3) is not None
    assert oracle_iso(s3, d3) is not None


def test_agrees_with_exhaustive_oracle_up_to_order_8():
    small = [(name, g) for name, g in zoo() if g.order <= 8]
    for (na, a), (nb, b) in itertools.combinations_with_replacement(small, 2):
        if a.order != b.order or a.order > 6:
            continue
        assert (is_isomorphic(a, b) is not None) == (oracle_iso(a, b) is not None), \
            (na, nb)
    # one order-8 spot check per pair class: D4 vs Q8 share the order only
    d4, q8 = make_dihedral(4), make_quaternion()
    assert is_isomorphic(d4, q8) is None
    assert oracle_iso(d4, q8) is None
    z2xz4 = make_direct_product(make_cyclic(2), make_cyclic(4))
    assert is_isomorphic(z2xz4, make_cyclic(8)) is None


def test_isomorphism_is_an_equivalence_on_the_zoo():
    groups = [g for _, g in zoo() if g.order <= 8]
    witnesses = {}
    for i, a in enumerate(groups):
        for j, b in enumerate(groups):
            witnesses[i, j] = is_isomorphic(a, b)
    for i, a in enumerate(groups):
        assert witnesses[i, i] is not None
        for j, b in enumerate(groups):
            w = witnesses[i, j]
            assert (w is None) == (witnesses[j, i] is None)
            if w is not None:
                w.inverse()  # validates by construction
            for k, c in enumerate(groups):
                if w is not None and witnesses[j, k] is not None:
                    composed = witnesses[j, k].compose(w)
                    assert composed.source == a and composed.target == c


def relabel(g, names):
    """The same group with element x renamed names[x]."""
    old = sorted(range(g.order), key=lambda x: names[x])
    table = tuple(tuple(names[g.mul(old[a], old[b])] for b in range(g.order))
                  for a in range(g.order))
    return FiniteGroup(g.order, table, names[g.identity])


def test_equal_order_profiles_without_an_isomorphism():
    # both have 3 involutions and 12 elements of order 4, so the profile
    # passes them on and only the backtracking search can refuse
    z4xz4 = make_direct_product(make_cyclic(4), make_cyclic(4))
    q8xz2 = make_direct_product(make_quaternion(), make_cyclic(2))
    assert z4xz4.order_profile() == q8xz2.order_profile()
    assert is_isomorphic(z4xz4, q8xz2) is None
    assert is_isomorphic(q8xz2, z4xz4) is None


@pytest.mark.parametrize("seed", range(5))
def test_relabeled_group_is_isomorphic(seed):
    g = make_direct_product(make_dihedral(4), make_cyclic(2))
    h = relabel(g, random.Random(seed).sample(range(g.order), g.order))
    witness = is_isomorphic(g, h)
    assert witness is not None
    GroupIso(g, h, witness.mapping)  # validates the map


def test_witness_validation_rejects_non_homomorphism():
    z4 = make_cyclic(4)
    with pytest.raises(ValueError):
        GroupIso(z4, z4, (0, 2, 1, 3))


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_generated_by_one_element(n):
    g = make_cyclic(n)
    gens = generating_sequence(g)
    assert len(gens) <= 1
    assert g.order_profile()[-1] == n


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_direct_product_orders_multiply(a, b):
    g = make_direct_product(make_cyclic(a), make_cyclic(b))
    assert g.order == a * b
    e = g.identity
    assert all(g.mul(e, x) == x for x in range(g.order))
