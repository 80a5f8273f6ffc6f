"""Group tables and translation matrices built by the benchmark itself.

Nothing here imports lpconv: these constructions are the independent side
of every output check. A table is a list of rows over element indices
0..n-1 with the identity at index 0.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np


def cyclic(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral(m: int) -> list[list[int]]:
    """Order 2m: element (f, k) is x -> (-1)^f x + k on Z_m, index f*m + k."""
    def mul(a, b):
        f1, k1 = divmod(a, m)
        f2, k2 = divmod(b, m)
        return (f1 ^ f2) * m + (k1 + (-k2 if f1 else k2)) % m
    return [[mul(a, b) for b in range(2 * m)] for a in range(2 * m)]


def quaternion() -> list[list[int]]:
    """Q8 from its 2x2 complex matrices, closed under products."""
    one = np.eye(2, dtype=complex)
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    return _matrix_group([one, i, j])


def symmetric(k: int) -> list[list[int]]:
    perms = list(itertools.permutations(range(k)))
    index = {p: a for a, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]


def product(g: list[list[int]], h: list[list[int]]) -> list[list[int]]:
    m = len(h)
    n = len(g) * m
    return [[g[a // m][b // m] * m + h[a % m][b % m] for b in range(n)]
            for a in range(n)]


def _matrix_group(gens) -> list[list[int]]:
    elems = [gens[0]]
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = a @ g
                if not any(np.allclose(c, e) for e in elems):
                    elems.append(c)
                    nxt.append(c)
        frontier = nxt

    def find(c):
        return next(k for k, e in enumerate(elems) if np.allclose(c, e))
    return [[find(a @ b) for b in elems] for a in elems]


def identity_of(table) -> int:
    n = len(table)
    return next(e for e in range(n) if all(table[e][x] == x for x in range(n)))


def is_group(table) -> bool:
    n = len(table)
    if n < 1 or any(len(row) != n for row in table):
        return False
    t = np.asarray(table)
    full = np.arange(n)
    if not all((np.sort(t[a]) == full).all() and (np.sort(t[:, a]) == full).all()
               for a in range(n)):
        return False
    # associativity: t[t[a, b], c] == t[a, t[b, c]] for all a, b, c
    return bool((t[t] == t[:, t]).all())


def element_orders(table) -> list[int]:
    e = identity_of(table)
    orders = []
    for a in range(len(table)):
        x, k = a, 1
        while x != e:
            x, k = table[x][a], k + 1
        orders.append(k)
    return orders


def invariant(table) -> tuple:
    """Isomorphism invariant: order profile, centre size, commuting pairs."""
    t = np.asarray(table)
    commuting = t == t.T
    centre = int(commuting.all(axis=1).sum())
    return (tuple(sorted(Counter(element_orders(table)).items())), centre,
            int(commuting.sum()))


def is_isomorphism(mapping, source, target) -> bool:
    """mapping[x] is the image of x: a bijection that respects both tables."""
    n = len(source)
    if len(target) != n or len(mapping) != n or sorted(mapping) != list(range(n)):
        return False
    m = np.asarray(mapping)
    return bool((m[np.asarray(source)] == np.asarray(target)[m[:, None], m[None, :]]).all())


def left_translations(table) -> np.ndarray:
    """Stack of L_s with (L_s)[s*y, y] = 1."""
    n = len(table)
    out = np.zeros((n, n, n))
    cols = np.arange(n)
    for s in range(n):
        out[s, np.asarray(table[s]), cols] = 1.0
    return out


def right_translations(table) -> np.ndarray:
    """Stack of R_t with (R_t)[x, x*t] = 1."""
    n = len(table)
    t = np.asarray(table)
    out = np.zeros((n, n, n))
    rows = np.arange(n)
    for s in range(n):
        out[s, rows, t[:, s]] = 1.0
    return out
