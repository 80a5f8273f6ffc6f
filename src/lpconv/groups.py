"""Finite groups as explicit multiplication tables.

A group is a value: a table over element indices 0..order-1 plus the
identity index. Construction validates the full set of axioms (Latin
square, associativity, identity; two-sided inverses follow), so any
FiniteGroup instance can be trusted downstream. Isomorphism testing is exact
backtracking over generator images with element-order pruning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetError

DEFAULT_ISO_BUDGET = 64
SYMMETRIC_BUDGET = 5
TABLE_BUDGET = 128


@dataclass(frozen=True)
class FiniteGroup:
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
        for i in range(n):
            if frozenset(t[i]) != full:
                raise ValueError(f"row {i} is not a permutation of the elements")
            if frozenset(t[j][i] for j in range(n)) != full:
                raise ValueError(f"column {i} is not a permutation of the elements")
        e = self.identity
        if not 0 <= e < n or any(t[e][x] != x or t[x][e] != x for x in range(n)):
            raise ValueError("identity index does not act as an identity")
        # inverses need no check: row a holds e once, at ab = e; then
        # (ba)b = b(ab) = eb, and the Latin square cancels b, so ba = e
        for a in range(n):
            ta = t[a]
            for b in range(n):
                row_ab = t[ta[b]]
                tb = t[b]
                for c in range(n):
                    if row_ab[c] != ta[tb[c]]:
                        raise ValueError(f"associativity fails at ({a}, {b}, {c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        e = self.identity
        row = self.table[a]
        for b in range(self.order):
            if row[b] == e and self.table[b][a] == e:
                return b
        raise AssertionError("validated group lost its inverses")

    def element_order(self, a: int) -> int:
        e = self.identity
        x, k = a, 1
        while x != e:
            x = self.table[x][a]
            k += 1
        return k

    def order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_order(a) for a in range(self.order)))

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(n))


@dataclass(frozen=True)
class GroupIso:
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

    def inverse(self) -> GroupIso:
        inv = [0] * len(self.mapping)
        for x, y in enumerate(self.mapping):
            inv[y] = x
        return GroupIso(self.target, self.source, tuple(inv))

    def compose(self, other: GroupIso) -> GroupIso:
        """self after other: maps other.source into self.target."""
        if other.target != self.source:
            raise ValueError("composition needs a matching middle group")
        return GroupIso(other.source, self.target,
                        tuple(self.mapping[y] for y in other.mapping))


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


def _closure(g: FiniteGroup, seed: set[int]) -> set[int]:
    elems = set(seed)
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            row = g.table[a]
            for b in list(elems):
                c = row[b]
                if c not in elems:
                    elems.add(c)
                    changed = True
    return elems


def generating_sequence(g: FiniteGroup) -> list[int]:
    """A greedy generating sequence: each entry extends the generated subgroup."""
    gens: list[int] = []
    generated = {g.identity}
    for x in range(g.order):
        if x not in generated:
            gens.append(x)
            generated = _closure(g, generated | {x})
    return gens


def is_isomorphic(g: FiniteGroup, h: FiniteGroup,
                  budget: int = DEFAULT_ISO_BUDGET) -> GroupIso | None:
    """Exact isomorphism search; returns a witness or None.

    Prunes by order and element-order profile, then backtracks over images
    of a generating sequence. Every partial assignment is closed under
    products as it grows, so a completed assignment is already verified to
    be multiplicative on all pairs.
    """
    if g.order > budget or h.order > budget:
        raise BudgetError(f"isomorphism search capped at order {budget}")
    if g.order != h.order:
        return None
    if g.order_profile() != h.order_profile():
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
        if mapping[x] >= 0:
            return search(i + 1)
        # try y == x first so that identical groups get the identity witness
        candidates = sorted(range(n), key=lambda y: (y != x, y))
        for y in candidates:
            if used[y] or orders_h[y] != orders_g[x]:
                continue
            trail: list[tuple[int, int]] = []
            if place(x, y, trail) and search(i + 1):
                return True
            undo(trail)
        return False

    trail0: list[tuple[int, int]] = []
    if not place(g.identity, h.identity, trail0):
        return None
    if not search(0):
        return None
    return GroupIso(g, h, tuple(mapping))
