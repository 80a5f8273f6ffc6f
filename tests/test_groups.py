import gc
import itertools
import random
import re
import time
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpconv.errors import BudgetError
from lpconv import groups
from lpconv.groups import (FiniteGroup, GroupIso, _class_keys,
                           generating_sequence, is_isomorphic, make_cyclic,
                           make_dihedral, make_direct_product,
                           make_quaternion, make_symmetric, zoo)


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


def sorted_orders(g):
    return tuple(sorted(g.element_order(x) for x in range(g.order)))


def closure_oracle(g, h):
    """The isomorphism search as it was before the Cayley-edge rule: each
    generator image is placed and the partial map closed under all pairwise
    products, with a trail to undo it; candidates are pruned by element
    order. Returns the mapping or None."""
    if g.order != h.order or sorted_orders(g) != sorted_orders(h):
        return None
    n = g.order
    orders_g = [g.element_order(x) for x in range(n)]
    orders_h = [h.element_order(x) for x in range(n)]
    gens = generating_sequence(g)
    mapping = [-1] * n
    used = [False] * n

    def place(x, y, trail):
        mapping[x] = y
        used[y] = True
        trail.append((x, y))
        queue = [(x, y)]
        while queue:
            a, fa = queue.pop()
            for b in range(n):
                fb = mapping[b]
                if fb < 0:
                    continue
                for u, v in ((g.table[a][b], h.table[fa][fb]),
                             (g.table[b][a], h.table[fb][fa])):
                    fu = mapping[u]
                    if fu == v:
                        continue
                    if fu >= 0 or used[v]:
                        return False
                    mapping[u] = v
                    used[v] = True
                    trail.append((u, v))
                    queue.append((u, v))
        return True

    def undo(trail):
        for x, y in trail:
            mapping[x] = -1
            used[y] = False

    def search(i):
        if i == len(gens):
            return all(m >= 0 for m in mapping)
        x = gens[i]
        for y in sorted(range(n), key=lambda y: (y != x, y)):
            if used[y] or orders_h[y] != orders_g[x]:
                continue
            trail = []
            if place(x, y, trail) and search(i + 1):
                return True
            undo(trail)
        return False

    place(g.identity, h.identity, [])
    return tuple(mapping) if search(0) else None


def semidirect_z4_z4():
    """Z4 x| Z4 with Z4 acting by inversion: (a, b)(c, d) = (a + (-1)^b c,
    b + d) mod 4, element (a, b) at index 4a + b."""
    def compose(x, y):
        (a, b), (c, d) = divmod(x, 4), divmod(y, 4)
        return (a + (-1) ** b * c) % 4 * 4 + (b + d) % 4

    return FiniteGroup(16, tuple(tuple(compose(x, y) for y in range(16))
                                 for x in range(16)), 0)


def order_64_pairs():
    """Two pairs that share their element-order profile but are not
    isomorphic: Z4xZ4xZ2^2 and Z2xQ8xZ2^2, each against (Z4 x| Z4)xZ2^2."""
    z2 = make_cyclic(2)
    z2_2 = make_direct_product(z2, z2)
    z4xz4 = make_direct_product(make_cyclic(4), make_cyclic(4))
    z2xq8 = make_direct_product(z2, make_quaternion())
    target = make_direct_product(semidirect_z4_z4(), z2_2)
    return [(make_direct_product(g, z2_2), target) for g in (z4xz4, z2xq8)]


def orders_only(monkeypatch):
    """Cut the class keys down to element orders, so that the pre-check and
    the candidate filter pass what the backtracking must refuse."""
    monkeypatch.setattr(groups, "_class_keys",
                        lambda g: [g.element_order(x) for x in range(g.order)])


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


def associative_by_triples(table):
    """The n^3 oracle: (ab)c = a(bc) on every triple."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def reduced_latin_squares(n):
    """Latin squares on 0..n-1 whose first row and column read 0..n-1, so
    that 0 is a two-sided identity, in lexicographic order."""
    rows = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield tuple(map(tuple, rows))
            return
        r, c = divmod(cell, n)
        if r == 0 or c == 0:
            yield from fill(cell + 1)
            return
        used = set(rows[r][:c]) | {rows[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                rows[r][c] = v
                yield from fill(cell + 1)
        rows[r][c] = -1

    return fill(0)


def intercalate_swaps(t, identity):
    """Every table made from t by swapping the entries of a 2 x 2 Latin
    subsquare that avoids the identity's row and column."""
    others = [x for x in range(len(t)) if x != identity]
    for r1, r2 in itertools.combinations(others, 2):
        for c1, c2 in itertools.combinations(others, 2):
            if t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]:
                rows = [list(row) for row in t]
                rows[r1][c1], rows[r1][c2] = rows[r1][c2], rows[r1][c1]
                rows[r2][c1], rows[r2][c2] = rows[r2][c2], rows[r2][c1]
                yield tuple(map(tuple, rows)), identity


def renamed(table, identity, names):
    """The same table with element x renamed names[x]."""
    old = sorted(range(len(table)), key=lambda x: names[x])
    return (tuple(tuple(names[table[a][b]] for b in old) for a in old),
            names[identity])


def light_verdict(table, identity):
    """FiniteGroup's verdict on a Latin square with identity, held to the
    n^3 oracle; a rejection must name a triple that really fails."""
    try:
        FiniteGroup(len(table), table, identity)
    except ValueError as exc:
        found = re.fullmatch(r"associativity fails at \((\d+), (\d+), (\d+)\)", str(exc))
        x, g, y = map(int, found.groups())
        assert table[table[x][g]][y] != table[x][table[g][y]]
        assert not associative_by_triples(table)
        return False
    assert associative_by_triples(table)
    return True


def light_cases():
    """(table, identity) of groups and of Latin squares with identity, most
    of them not associative, each relabelled by random.Random(20)."""
    rng = random.Random(20)
    small = [g for _, g in zoo() if 5 <= g.order <= 8]
    z2 = make_cyclic(2)
    small.append(make_direct_product(make_direct_product(z2, z2), z2))
    groups = [g for _, g in zoo()] + [
        make_symmetric(4), make_dihedral(12),
        make_direct_product(make_quaternion(), make_cyclic(4))]
    loop5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
             (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    cases = [(g.table, g.identity) for g in groups] + [(loop5, 0)]
    for g in small:
        cases += list(intercalate_swaps(g.table, g.identity))
    # odd cyclic groups and loop5 have no 2 x 2 subsquare, so orders 5 and 7
    # come from reduced Latin squares: all 56 of order 5, the first 40 of order 7
    cases += [(t, 0) for t in reduced_latin_squares(5)]
    cases += [(t, 0) for t in itertools.islice(reduced_latin_squares(7), 40)]
    assert {len(t) for t, _ in cases} >= {5, 6, 7, 8, 24, 32}
    return [renamed(table, identity, rng.sample(range(len(table)), len(table)))
            for table, identity in cases]


def test_light_test_agrees_with_the_triple_oracle():
    verdicts = [light_verdict(table, identity) for table, identity in light_cases()]
    assert True in verdicts and False in verdicts


def generating_sequence_from_scratch(table, identity):
    """The greedy generating sequence, each closure rebuilt from the whole
    generated set by products of all its pairs until nothing new appears."""
    gens, generated = [], {identity}
    for x in range(len(table)):
        if x not in generated:
            gens.append(x)
            generated.add(x)
            while True:
                grown = generated | {table[a][b] for a in generated for b in generated}
                if grown == generated:
                    break
                generated = grown
    return gens


def test_incremental_closure_matches_the_rebuilt_one():
    z2 = make_cyclic(2)
    z2_7 = z2
    for _ in range(6):
        z2_7 = make_direct_product(z2_7, z2)
    groups = [g for _, g in zoo()] + [
        make_symmetric(4), make_dihedral(64), z2_7,
        make_direct_product(make_quaternion(), make_cyclic(16))]
    loops = light_cases()
    assert not all(associative_by_triples(table) for table, _ in loops)
    # Latin squares that fail associativity cannot be a FiniteGroup, so every
    # table is handed over as a stand-in with the same fields
    lengths = set()
    for table, identity in [(g.table, g.identity) for g in groups] + loops:
        stand_in = types.SimpleNamespace(order=len(table), table=table, identity=identity)
        gens = generating_sequence(stand_in)
        assert gens == generating_sequence_from_scratch(table, identity)
        lengths.add(len(gens))
    assert max(lengths) == 7


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
    assert g.table != tuple(zip(*g.table))  # not abelian
    assert g.table == expected


def test_quaternion_structure():
    q8 = make_quaternion()
    assert q8.order == 8
    assert q8.table != tuple(zip(*q8.table))  # not abelian
    assert sorted_orders(q8) == (1, 2, 4, 4, 4, 4, 4, 4)
    minus_one = 4
    assert all(q8.mul(x, x) == minus_one for x in (1, 2, 3))


def test_direct_product_with_trivial_is_isomorphic_copy():
    for _, g in zoo()[:6]:
        prod = make_direct_product(g, make_cyclic(1))
        assert is_isomorphic(prod, g) is not None


def test_klein_four_elements_are_involutions():
    klein = make_direct_product(make_cyclic(2), make_cyclic(2))
    assert sorted_orders(klein) == (1, 2, 2, 2)


def test_symmetric_budget():
    with pytest.raises(BudgetError):
        make_symmetric(6)


def test_table_budgets():
    with pytest.raises(BudgetError):
        make_cyclic(129)
    with pytest.raises(BudgetError):
        make_dihedral(65)


def test_iso_budget():
    # the makers cap at 128, so the order-129 table is built directly
    big = FiniteGroup(129, tuple(tuple((i + j) % 129 for j in range(129)) for i in range(129)), 0)
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
    # the inverse and the composite of witnesses are witnesses: GroupIso
    # validates each map as it is built
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
            if w is None:
                continue
            GroupIso(b, a, tuple(w.mapping.index(y) for y in range(b.order)))
            for k, c in enumerate(groups):
                if witnesses[j, k] is not None:
                    GroupIso(a, c, tuple(witnesses[j, k].mapping[y] for y in w.mapping))


def relabel(g, names):
    """The same group with element x renamed names[x]."""
    return FiniteGroup(g.order, *renamed(g.table, g.identity, names))


def test_equal_order_profiles_without_an_isomorphism(monkeypatch):
    # both have 3 involutions and 12 elements of order 4; with the keys cut
    # down to orders, only the backtracking search can refuse them
    orders_only(monkeypatch)
    z4xz4 = make_direct_product(make_cyclic(4), make_cyclic(4))
    q8xz2 = make_direct_product(make_quaternion(), make_cyclic(2))
    assert sorted_orders(z4xz4) == sorted_orders(q8xz2)
    assert is_isomorphic(z4xz4, q8xz2) is None
    assert is_isomorphic(q8xz2, z4xz4) is None


def test_search_alone_refuses_the_order_64_pairs(monkeypatch):
    # one direction each: with orders only, every branch is tried, about 2 s a pair
    orders_only(monkeypatch)
    for g, h in order_64_pairs():
        assert sorted_orders(g) == sorted_orders(h)
        assert is_isomorphic(h, g) is None


def test_search_alone_stops_at_the_work_budget_at_order_128(monkeypatch):
    # times Z2, the first order-64 pair ran for over 11 minutes of CPU with
    # orders only: the order alone does not bound the backtracking, the budget does
    orders_only(monkeypatch)
    z2 = make_cyclic(2)
    g, h = (make_direct_product(x, z2) for x in order_64_pairs()[0])
    start = time.process_time()
    with pytest.raises(BudgetError, match="work budget"):
        is_isomorphic(g, h)
    # about 1.3 s of CPU alone; the bound leaves room for a loaded machine
    assert time.process_time() - start < 4.0


def test_order_128_relabelling_gets_a_validated_witness():
    g = make_direct_product(make_quaternion(), make_cyclic(16))
    h = relabel(g, random.Random(128).sample(range(128), 128))
    witness = is_isomorphic(g, h)
    # GroupIso checks every product of the mapping as it is built
    assert isinstance(witness, GroupIso) and witness.target is h


def test_isomorphism_search_leaves_no_cyclic_garbage():
    # a search that kept a self-referencing closure would leave its lists
    # for the cycle collector after every call
    g = make_direct_product(make_quaternion(), make_cyclic(4))
    h = relabel(g, random.Random(32).sample(range(32), 32))
    gc.collect()
    gc.disable()
    try:
        assert is_isomorphic(g, h) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_class_keys_count_centralizers_and_square_roots():
    for g in [make_symmetric(4), make_direct_product(make_quaternion(), make_cyclic(4)),
              make_direct_product(semidirect_z4_z4(), make_cyclic(2))]:
        n = g.order
        assert _class_keys(g) == [
            (g.element_order(x), sum(g.mul(x, y) == g.mul(y, x) for y in range(n)),
             sum(g.mul(y, y) == x for y in range(n))) for x in range(n)]


def test_class_keys_refuse_the_order_64_pairs(monkeypatch):
    # the sorted keys refuse both pairs before any search starts
    def no_search(g):
        raise AssertionError("searched a pair whose class keys differ")

    pairs = order_64_pairs()
    monkeypatch.setattr(groups, "generating_sequence", no_search)
    for g, h in pairs:
        assert sorted(_class_keys(g)) != sorted(_class_keys(h))
        assert is_isomorphic(g, h) is None
        assert is_isomorphic(h, g) is None


def oracle_pairs():
    """Every ordered pair of zoo groups; then each zoo group and D12, Z4xZ8,
    Q8xZ4, S4xZ2, Q8xZ8, Z64, D32, Z2^6, S4 and D8xZ2 against two
    relabellings of itself, both ways."""
    rng = random.Random(23)
    z2 = make_cyclic(2)
    z2_6 = z2
    for _ in range(5):
        z2_6 = make_direct_product(z2_6, z2)
    q8 = make_quaternion()
    zoo_groups = [g for _, g in zoo()]
    pairs = list(itertools.product(zoo_groups, repeat=2))
    for g in zoo_groups + [
            make_dihedral(12), make_direct_product(make_cyclic(4), make_cyclic(8)),
            make_direct_product(q8, make_cyclic(4)),
            make_direct_product(make_symmetric(4), z2),
            make_direct_product(q8, make_cyclic(8)), make_cyclic(64),
            make_dihedral(32), z2_6, make_symmetric(4),
            make_direct_product(make_dihedral(8), z2)]:
        for _ in range(2):
            h = relabel(g, rng.sample(range(g.order), g.order))
            pairs += [(g, h), (h, g)]
    return pairs


def test_cayley_rule_matches_the_closure_oracle():
    pairs = oracle_pairs()
    found = [is_isomorphic(g, h) for g, h in pairs]
    assert None in found and len(pairs) > 250
    for (g, h), w in zip(pairs, found):
        assert (None if w is None else w.mapping) == closure_oracle(g, h)


def test_cayley_rule_with_orders_only_matches_the_closure_oracle(monkeypatch):
    orders_only(monkeypatch)
    for g, h in oracle_pairs():
        w = is_isomorphic(g, h)
        assert (None if w is None else w.mapping) == closure_oracle(g, h)


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


SMALL_MAKERS = [
    lambda: make_cyclic(32), lambda: make_dihedral(12), lambda: make_dihedral(16),
    lambda: make_symmetric(4), make_quaternion,
    lambda: make_direct_product(make_cyclic(4), make_cyclic(8)),
    lambda: make_direct_product(make_quaternion(), make_cyclic(4)),
    lambda: make_direct_product(make_dihedral(8), make_cyclic(2)),
    lambda: make_direct_product(make_dihedral(4), make_cyclic(4)),
    lambda: make_direct_product(make_direct_product(make_cyclic(2), make_cyclic(2)),
                                make_direct_product(make_cyclic(2), make_cyclic(4))),
    lambda: make_direct_product(make_symmetric(3), make_cyclic(5)),
]


@given(st.sampled_from(SMALL_MAKERS), st.data())
def test_relabeled_copies_pass_the_key_filter(make, data):
    g = make()
    names = data.draw(st.permutations(range(g.order)))
    h = relabel(g, names)
    witness = is_isomorphic(g, h)
    assert witness is not None
    GroupIso(g, h, witness.mapping)  # validates the map
    keys_g, keys_h = _class_keys(g), _class_keys(h)
    assert all(keys_h[names[x]] == keys_g[x] for x in range(g.order))


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_generated_by_one_element(n):
    g = make_cyclic(n)
    gens = generating_sequence(g)
    assert len(gens) <= 1
    assert sorted_orders(g)[-1] == n


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_direct_product_orders_multiply(a, b):
    g = make_direct_product(make_cyclic(a), make_cyclic(b))
    assert g.order == a * b
    e = g.identity
    assert all(g.mul(e, x) == x for x in range(g.order))
