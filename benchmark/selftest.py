"""Show that the checks can fail: feed each one a corrupted copy of a real output.

run(items) takes the checked items of a round, corrupts the first item
each corruption applies to, and reports for every corruption whether its
check rejected it. Every run of the benchmark does this after its checks.
"""

from __future__ import annotations

import numpy as np

from checks import CHECKS


def _swap(seq):
    out = list(seq)
    out[1], out[2] = out[2], out[1]
    return out


def _move_entry(basis):
    out = basis.copy()
    k, i, j = np.argwhere(np.abs(out) > 0)[0]
    out[k, i, (j + 1) % out.shape[2]] += out[k, i, j]
    out[k, i, j] = 0.0
    return out


def _swap_table_entries(table):
    out = [list(row) for row in table]
    out[1][0], out[1][1] = out[1][1], out[1][0]
    return out


def _swap_rep(reps):
    out = list(reps)
    perm, phases = out[1]
    out[1] = (_swap(perm), phases)
    return out


def _replace(args, index, value):
    out = list(args)
    out[index] = value
    return tuple(out)


# (label, kind, applies to these args, corrupted args)
CORRUPTIONS = (
    ("group: two table entries swapped", "group",
     lambda a: True, lambda a: _replace(a, 0, _swap_table_entries(a[0]))),
    ("algebra: a basis entry moved", "algebra",
     lambda a: True, lambda a: _replace(a, 0, _move_entry(a[0]))),
    ("recover: two images of a representative swapped", "recover",
     lambda a: True, lambda a: _replace(a, 1, _swap_rep(a[1]))),
    ("unlabeled: witness with two images swapped", "unlabeled",
     lambda a: a[4] is not None, lambda a: _replace(a, 4, _swap(a[4]))),
    ("unlabeled: two images of a representative swapped", "unlabeled",
     lambda a: True, lambda a: _replace(a, 1, _swap_rep(a[1]))),
    ("iso: witness with two images swapped", "iso",
     lambda a: a[0] is not None, lambda a: _replace(a, 0, _swap(a[0]))),
    ("iso: a witness for distinct groups", "iso",
     lambda a: a[0] is None, lambda a: _replace(a, 0, list(range(len(a[1]))))),
    ("decide: wrong verdict", "decide",
     lambda a: True,
     lambda a: _replace(a, 0, "Distinct" if a[0] != "Distinct" else "Isomorphic")),
    ("decide: witness with two images swapped", "decide",
     lambda a: a[5] is not None, lambda a: _replace(a, 5, _swap(a[5]))),
    ("norm: lower nudged above the witness value", "norm",
     lambda a: True, lambda a: _replace(a, 0, a[0] * (1.0 + 1e-9) + 1e-9)),
    ("norm: upper set below the 2-norm", "norm",
     lambda a: a[5], lambda a: _replace(a, 1, 0.999 * np.linalg.norm(a[3], 2))),
    ("norm: nonnegative upper off |f|_1", "norm",
     lambda a: a[6] is not None, lambda a: _replace(a, 1, a[1] + 1e-7 * a[6])),
    ("overlap: dual sandwich moved apart", "overlap",
     lambda a: True, lambda a: _replace(a, 1, (a[1][0] + 2 * a[0][1], a[1][1] + 2 * a[0][1]))),
)


def run(items) -> dict[str, bool]:
    """label -> whether the check rejected the corrupted output."""
    report = {}
    for label, kind, applies, corrupt in CORRUPTIONS:
        args = next((a for k, a in items if k == kind and applies(a)), None)
        if args is not None:
            report[label] = CHECKS[kind](*corrupt(args)) is not None
    return report
