"""Independent checks of lpconv's outputs.

Every check takes plain data (tables, numpy arrays, decoded JSON) and
returns None when the output is right or a one-line reason when it is
not. The reference side is computed here with numpy from the raw tables
(see tables.py); no check compares against stored output of the program.
"""

from __future__ import annotations

import numpy as np

import tables

WITNESS_TOL = 1e-12   # the lower bound is attained by the witness to 1e-12
NONNEG_TOL = 1e-9     # nonnegative group-algebra elements have norm |f|_1
OVERLAP_TOL = 1e-9    # p and p' sandwiches of a transposed pair bracket one number
SPAN_TOL = 1e-8       # least-squares residual of a matrix inside a span


def complex_matrix(rows) -> np.ndarray:
    """Decode the CLI's [[[re, im], ...], ...] matrices."""
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _rank(stack: np.ndarray) -> int:
    s = np.linalg.svd(stack.reshape(stack.shape[0], -1), compute_uv=False)
    return int((s > 1e-9 * s[0]).sum())


def _span_residual(mats: np.ndarray, x: np.ndarray) -> float:
    v = mats.reshape(mats.shape[0], -1).T
    coeff, *_ = np.linalg.lstsq(v, x.reshape(-1), rcond=None)
    return float(np.max(np.abs(v @ coeff - x.reshape(-1))))


def _pnorm(v: np.ndarray, p: float) -> float:
    return float((np.abs(v) ** p).sum() ** (1.0 / p))


def check_group(table, expected) -> str | None:
    """A `group make` table: a group with the invariant of the expected one."""
    if not tables.is_group(table):
        return "not a group table"
    if tables.invariant(table) != tables.invariant(expected):
        return "invariant differs from the requested group"
    return None


def check_algebra(basis: np.ndarray, table, n: int, p: float, p_out: float) -> str | None:
    """Commutant basis: right-translation invariant, spanning the left translations."""
    if n != len(table) or basis.shape != (len(table),) * 3:
        return f"dimension {basis.shape[0]} or size {n} is not the order {len(table)}"
    if p_out != p:
        return f"exponent {p_out} is not the requested {p}"
    right = tables.right_translations(table)
    comm = np.einsum("kij,tjl->ktil", basis, right) - np.einsum("tij,kjl->ktil", right, basis)
    if np.max(np.abs(comm)) > 1e-12 * max(1.0, float(np.max(np.abs(basis)))):
        return "a basis matrix does not commute with a right translation"
    if _rank(basis) != n or _rank(np.concatenate([basis, tables.left_translations(table)])) != n:
        return "span differs from the span of the left translations"
    return None


def check_representatives(reps, mats: np.ndarray) -> str | None:
    """Generalized permutations with unimodular entries inside the span."""
    n = mats.shape[1]
    for perm, phases in reps:
        if sorted(perm) != list(range(n)) or len(phases) != n:
            return "a representative is not a permutation with n phases"
        if np.max(np.abs(np.abs(phases) - 1.0)) > 1e-9:
            return "a representative has an entry that is not unimodular"
        m = np.zeros((n, n), dtype=complex)
        m[np.asarray(perm), np.arange(n)] = phases
        if _span_residual(mats, m) > SPAN_TOL:
            return "a representative lies outside the span"
    return None


def check_recover(group_table, reps, mats: np.ndarray, table) -> str | None:
    """Recovered group and representatives of a labeled algebra.

    Each representative of the commutant is a multiple of some L_g, read
    off from the column of the identity; k -> g must then be an
    isomorphism from the recovered table onto the given one.
    """
    if not tables.is_group(group_table) or len(reps) != len(table):
        return "recovered table is not a group of the right order"
    bad = check_representatives(reps, mats)
    if bad:
        return bad
    e = tables.identity_of(table)
    mapping = []
    for perm, _ in reps:
        g = perm[e]
        if list(perm) != [table[g][y] for y in range(len(table))]:
            return "a representative is not a left translation"
        mapping.append(g)
    if not tables.is_isomorphism(mapping, group_table, table):
        return "representatives do not multiply like the recovered table"
    return None


def check_unlabeled(group_table, reps, mats: np.ndarray, hidden, mapping) -> str | None:
    """Recovered group of an unlabeled algebra, with a witness to the hidden group."""
    if not tables.is_group(group_table) or len(reps) != len(hidden):
        return "recovered table is not a group of the hidden order"
    bad = check_representatives(reps, mats)
    if bad:
        return bad
    perms = np.asarray([perm for perm, _ in reps])
    n = len(perms)
    # the representative of a*b carries the permutation part of rep_a @ rep_b
    composed = perms[np.arange(n)[:, None, None], perms[None, :, :]]
    if not (perms[np.asarray(group_table)] == composed).all():
        return "representatives do not multiply like the recovered table"
    if mapping is None or not tables.is_isomorphism(mapping, group_table, hidden):
        return "no verified witness to the hidden group"
    return None


def check_iso(mapping, table_a, table_b, expect_iso: bool) -> str | None:
    """A witness map, or a null answer backed by a differing invariant."""
    if mapping is None:
        if expect_iso:
            return "no witness for isomorphic groups"
        if tables.invariant(table_a) == tables.invariant(table_b):
            return "null answer but the invariants agree"
        return None
    if not expect_iso:
        return "witness for groups known to be distinct"
    if not tables.is_isomorphism(mapping, table_a, table_b):
        return "witness map is not an isomorphism"
    return None


def check_decide(verdict: str, p: float, q: float, table_a, table_b, witness,
                 expected: str, want_p: float, want_q: float,
                 source_a, source_b) -> str | None:
    """Verdict known by construction; evidence groups and witness verified."""
    if verdict != expected:
        return f"verdict {verdict}, expected {expected}"
    if (p, q) != (want_p, want_q):
        return "evidence exponents differ from the inputs"
    for got, src in ((table_a, source_a), (table_b, source_b)):
        if not tables.is_group(got) or tables.invariant(got) != tables.invariant(src):
            return "an evidence group is not the input's group"
    if expected == "Distinct":
        if witness is not None:
            return "Distinct verdict carries a witness"
        if tables.invariant(source_a) == tables.invariant(source_b) and want_p == want_q:
            return "Distinct groups share every invariant"
        return None
    return check_iso(witness, table_a, table_b, True)


def check_norm(lower: float, upper: float, witness: np.ndarray, a: np.ndarray,
               p: float, group_element: bool, l1: float | None = None) -> str | None:
    """Sandwich checks that hold for any correct estimate."""
    if not (np.isfinite(lower) and np.isfinite(upper)):
        return "non-finite bound"
    wn = _pnorm(witness, p)
    if wn == 0.0:
        return "zero witness"
    attained = _pnorm(a @ witness, p) / wn
    if abs(attained - lower) > WITNESS_TOL * max(1.0, lower):
        return f"witness attains {attained!r}, not lower {lower!r}"
    if lower > upper:
        return "lower above upper"
    aa = np.abs(a)
    riesz_thorin = aa.sum(axis=0).max() ** (1.0 / p) * aa.sum(axis=1).max() ** (1.0 - 1.0 / p)
    if lower > riesz_thorin * (1.0 + WITNESS_TOL):
        return "lower above the Riesz-Thorin bound"
    columns = max(_pnorm(a[:, y], p) for y in range(a.shape[1]))
    if lower < columns * (1.0 - WITNESS_TOL):
        return "lower below the best atom"
    if group_element and upper < np.linalg.norm(a, 2) * (1.0 - WITNESS_TOL):
        return "upper below the 2-norm of a convolution operator"
    if l1 is not None and max(abs(lower - l1), abs(upper - l1)) > NONNEG_TOL * max(1.0, l1):
        return "nonnegative element off |f|_1"
    return None


def check_overlap(est_p, est_q) -> str | None:
    """(lower, upper) at p for A and at p' for its transpose share a point."""
    lo = max(est_p[0], est_q[0])
    up = min(est_p[1], est_q[1])
    if lo > up * (1.0 + OVERLAP_TOL):
        return "dual sandwiches do not overlap"
    return None


def gap(lower: float, upper: float) -> float | None:
    """Relative width of a sandwich, or None once it has collapsed."""
    if upper <= 0.0 or upper - lower <= 1e-9 * upper:
        return None
    return (upper - lower) / upper


CHECKS = {"error": lambda message: message, "group": check_group, "algebra": check_algebra,
          "recover": check_recover, "unlabeled": check_unlabeled, "iso": check_iso,
          "decide": check_decide, "norm": check_norm, "overlap": check_overlap}
