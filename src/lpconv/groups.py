"""Finite groups as explicit multiplication tables.

A group is a value: a table over element indices 0..order-1 plus the
identity index. Construction validates the full set of axioms (Latin
square, identity, and associativity by Light's test on at most log2(order)
generators, see FiniteGroup; two-sided inverses follow), so any
FiniteGroup instance can be trusted downstream; the exact 0/1 basis of the
translation algebra is built from the table here. Isomorphism testing is exact
backtracking over generator images, each checked on the Cayley-graph edges
and pruned by per-element class keys (order, centralizer size, square roots).
"""

from __future__ import annotations

import itertools
import math

from .errors import BudgetError, Frozen

TABLE_BUDGET = 128
# Cayley-edge steps one isomorphism search may take, about 1.3 s of CPU
ISO_WORK_BUDGET = 8_000_000
# the largest n whose symmetric group fits the table budget
SYMMETRIC_BUDGET = next(n for n in itertools.count(1) if math.factorial(n + 1) > TABLE_BUDGET)


class FiniteGroup(Frozen):
    """A validated group table. Associativity is checked by Light's test:
    (xg)y = x(gy) for all x, y and each g in generating_sequence. It is
    complete: let B be the b with (xb)y = x(by) for all x, y. For b1, b2 in B,
    (x(b1b2))y = ((xb1)b2)y = (xb1)(b2y) = x(b1(b2y)) = x((b1b2)y), so B is
    closed under the product. generating_sequence's closure assumes no
    associativity, so the sequence's closure is the whole table, and B is
    everything."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int

    def __post_init__(self):
        n = self.order
        t = self.table
        if n < 1:
            raise ValueError("order must be positive")
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError("table must be an order x order matrix")
        full = frozenset(range(n))
        for i, column in enumerate(zip(*t)):
            if frozenset(t[i]) != full:
                raise ValueError(f"row {i} is not a permutation of the elements")
            if frozenset(column) != full:
                raise ValueError(f"column {i} is not a permutation of the elements")
        e = self.identity
        if not 0 <= e < n or any(t[e][x] != x or t[x][e] != x for x in range(n)):
            raise ValueError("identity index does not act as an identity")
        # inverses need no check: row a holds e once, at ab = e; then
        # (ba)b = b(ab) = eb, and the Latin square cancels b, so ba = e
        for g in generating_sequence(self):
            for x in range(n):
                lhs, rhs = t[t[x][g]], tuple(map(t[x].__getitem__, t[g]))
                if lhs != rhs:  # (xg)y and x(gy) over all y
                    y = next(y for y in range(n) if lhs[y] != rhs[y])
                    raise ValueError(f"associativity fails at ({x}, {g}, {y})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        # the right inverse is two-sided, as __post_init__ shows
        return self.table[a].index(self.identity)

    def element_order(self, a: int) -> int:
        e = self.identity
        x, k = a, 1
        while x != e:
            x = self.table[x][a]
            k += 1
        return k


class GroupIso(Frozen):
    """A witnessing isomorphism: mapping[x] is the image of x in the target."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __post_init__(self):
        g, h, m = self.source, self.target, self.mapping
        if g.order != h.order or len(m) != g.order:
            raise ValueError("mapping length must match the common order")
        if len(set(m)) != g.order:
            raise ValueError("mapping is not a bijection")
        for a in range(g.order):
            for b in range(g.order):
                if m[g.mul(a, b)] != h.mul(m[a], m[b]):
                    raise ValueError(f"mapping is not multiplicative at ({a}, {b})")


def _freeze(table) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in table)


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n with table (i + j) mod n."""
    if n < 1:
        raise ValueError("cyclic group needs order at least 1")
    if n > TABLE_BUDGET:
        raise BudgetError(f"cyclic budget is n <= {TABLE_BUDGET}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(n, _freeze(table), 0)


def make_dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Element t*n + k is the map x -> (-1)^t x + k on Z_n; index 0 is the
    identity, indices below n are the rotations.
    """
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")
    if 2 * n > TABLE_BUDGET:
        raise BudgetError(f"dihedral budget is n <= {TABLE_BUDGET // 2}")
    order = 2 * n

    def compose(i, j):
        t1, k1 = divmod(i, n)
        t2, k2 = divmod(j, n)
        t = t1 ^ t2
        k = (k1 + (k2 if t1 == 0 else -k2)) % n
        return t * n + k

    table = [[compose(i, j) for j in range(order)] for i in range(order)]
    return FiniteGroup(order, _freeze(table), 0)


def make_symmetric(n: int) -> FiniteGroup:
    """The symmetric group on n letters; permutations in lexicographic order."""
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    if n > SYMMETRIC_BUDGET:
        raise BudgetError(f"symmetric budget is n <= {SYMMETRIC_BUDGET}")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = [
        [index[tuple(a[b[x]] for x in range(n))] for b in perms]
        for a in perms
    ]
    return FiniteGroup(order, _freeze(table), index[tuple(range(n))])


# basis products for the unit quaternions: (i, j) -> (sign, basis)
_QUAT = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def make_quaternion() -> FiniteGroup:
    """The quaternion group of order 8, elements ordered 1,i,j,k,-1,-i,-j,-k."""

    def compose(i, j):
        s1, b1 = divmod(i, 4)
        s2, b2 = divmod(j, 4)
        s3, b3 = _QUAT[(b1, b2)]
        sign = (s1 + s2 + (1 if s3 < 0 else 0)) % 2
        return sign * 4 + b3

    table = [[compose(i, j) for j in range(8)] for i in range(8)]
    return FiniteGroup(8, _freeze(table), 0)


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, encoded as i * h.order + j."""
    order = g.order * h.order
    if order > TABLE_BUDGET:
        raise BudgetError(f"direct product budget is order <= {TABLE_BUDGET}")
    m = h.order

    def compose(a, b):
        i1, j1 = divmod(a, m)
        i2, j2 = divmod(b, m)
        return g.mul(i1, i2) * m + h.mul(j1, j2)

    table = [[compose(a, b) for b in range(order)] for a in range(order)]
    return FiniteGroup(order, _freeze(table), g.identity * m + h.identity)


def zoo() -> tuple[tuple[str, FiniteGroup], ...]:
    """The named test groups used across the verification suites."""
    entries = [(f"Z{n}", make_cyclic(n)) for n in range(1, 9)]
    z2 = make_cyclic(2)
    entries += [
        ("Z2xZ2", make_direct_product(z2, z2)),
        ("Z2xZ4", make_direct_product(z2, make_cyclic(4))),
        ("S3", make_symmetric(3)),
        ("D4", make_dihedral(4)),
        ("Q8", make_quaternion()),
    ]
    return tuple(entries)


def convolver_basis_exact(group: FiniteGroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Exact 0/1 basis of the commutant of the right translations.

    X R_t = R_t X for every t says X[x t, y t] = X[x, y], so the commutant
    is spanned by the indicator matrices of the orbits of the diagonal right
    action on G x G, and the orbit of a cell (x, y) is labelled by x y^-1:
    orbit s holds the cells (s y, y), the left translation by s. Orbits are
    ordered by their largest cell index x*n + y (the free column of the
    constraint system's reduced row echelon form). Orbit s meets the last
    row once, at column s^-1 (n - 1), and that cell is its largest, so
    position j holds s = (n - 1) j^-1. Returned as row-major nested tuples
    of 0/1 integers. The table's axioms prove what a numeric check of the
    span would: disjoint supports (independence), orbit e is the identity,
    and L_s L_t = L_st (closure). So it lives here, free of numpy, and
    `lpconv algebra build` encodes it without building an AlgebraBasis.
    """
    n = group.order
    basis = []
    for j in range(n):
        row = group.table[group.mul(n - 1, group.inv(j))]
        mat = [[0] * n for _ in range(n)]
        for y in range(n):
            mat[row[y]][y] = 1
        basis.append(tuple(map(tuple, mat)))
    return tuple(basis)


def generating_sequence(g: FiniteGroup) -> list[int]:
    """A greedy generating sequence: each entry extends the generated subgroup.

    The generated set is closed under the product, and it assumes no
    associativity. It grows incrementally: each round multiplies only the
    newest elements, on both sides, by every element so far, since every
    other product was formed in an earlier round.
    """
    rows, cols = g.table, list(zip(*g.table))
    gens: list[int] = []
    generated = {g.identity}
    for x in range(g.order):
        if x in generated:
            continue
        gens.append(x)
        newest = {x}
        while newest:
            generated |= newest
            products: set[int] = set()
            for a in newest:
                row, col = rows[a], cols[a]
                products.update([row[b] for b in generated])  # a b
                products.update([col[b] for b in generated])  # b a
            newest = products - generated
    return gens


def _class_keys(g: FiniteGroup) -> list[tuple[int, int, int]]:
    """Each element's order, centralizer size and number of square roots,
    read off the table in O(order^2). An isomorphism preserves all three."""
    t = g.table
    roots = [0] * g.order
    for y in range(g.order):
        roots[t[y][y]] += 1
    return [(g.element_order(x), sum(a == b for a, b in zip(row, col)), roots[x])
            for x, (row, col) in enumerate(zip(t, zip(*t)))]


class _IsoSearch:
    """is_isomorphic's backtracking, its state on the instance: no reference cycle."""

    def __init__(self, g: FiniteGroup, h: FiniteGroup, keys_g, keys_h):
        self.g, self.h, self.keys_g, self.keys_h = g, h, keys_g, keys_h
        self.gens, self.work = generating_sequence(g), 0

    def search(self, images: list[int]) -> list[int] | None:
        g, h, gens = self.g, self.h, self.gens
        mapping = [-1] * g.order
        mapping[g.identity] = h.identity
        image, queue = {h.identity}, [g.identity]
        edges = list(zip(gens, images))
        for steps, a in enumerate(queue, 1):  # breadth first over the Cayley graph
            row_a, row_fa = g.table[a], h.table[mapping[a]]
            for x, y in edges:
                b, fb = row_a[x], row_fa[y]
                if mapping[b] < 0 and fb not in image:
                    mapping[b] = fb
                    image.add(fb)
                    queue.append(b)
                elif mapping[b] != fb:
                    mapping = None  # not well defined, or not injective
                    break
            if mapping is None:
                break
        self.work += steps * len(edges)  # the Cayley-edge steps taken
        if self.work > ISO_WORK_BUDGET:
            raise BudgetError("isomorphism search exceeded its work budget")
        if mapping is None or len(images) == len(gens):
            return mapping
        x = gens[len(images)]
        for y in sorted(range(h.order), key=lambda y: (y != x, y)):
            if self.keys_h[y] == self.keys_g[x] and y not in image:
                found = self.search(images + [y])
                if found is not None:
                    return found
        return None


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> GroupIso | None:
    """Exact isomorphism search; returns a witness or None.

    The sorted class keys (_class_keys) must agree. Then it backtracks over
    images y1, y2, ... of g's generating sequence x1, x2, ...: y = x first,
    so that a group against itself gets the identity witness, then
    ascending, among the unused elements with x's key. The images fix
    one map on <x1..xi>, with f(e) = e and f(a xj) = f(a) yj along every
    Cayley-graph edge. A choice is kept exactly when that map is well
    defined and injective; by induction on word length it is then a
    homomorphism, so a completed map is an isomorphism. Orders over
    TABLE_BUDGET raise BudgetError, as do more than ISO_WORK_BUDGET edge steps.
    """
    if g.order > TABLE_BUDGET or h.order > TABLE_BUDGET:
        raise BudgetError(f"isomorphism search capped at order {TABLE_BUDGET}")
    if g.order != h.order:
        return None
    keys_g, keys_h = _class_keys(g), _class_keys(h)
    if sorted(keys_g) != sorted(keys_h):
        return None
    mapping = _IsoSearch(g, h, keys_g, keys_h).search([])
    return None if mapping is None else GroupIso(g, h, tuple(mapping))
