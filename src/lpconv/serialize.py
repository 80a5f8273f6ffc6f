"""JSON encoding of the package's value types.

Complex numbers are [re, im] pairs, permutations are index arrays, and all
numbers are finite doubles. Decoders exist for the payloads the CLI reads:
groups, measure weights, operators and algebra bases. Each accepts what the
matching encoder emits; a matrix that is not rectangular, a matrix entry,
weight or exponent that is not a finite double (NaN, infinity, an integer
too large to convert), or an order, n, identity or table entry that is not
an integer, raises SchemaError.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .convolution import AlgebraBasis, PhasedPermutation
from .errors import BudgetError
from .groups import TABLE_BUDGET, FiniteGroup, GroupIso
from .isometry import LpContext, Operator
from .measure import FiniteMeasureAlgebra, MeasurableFunction
from .pnorm import NormEstimate
from .reconstruction import IsoVerdict, P2DemoReport, RecoveredGroup


class SchemaError(ValueError):
    """The JSON payload does not match the expected schema."""


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _from_pair(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SchemaError("complex numbers are [re, im] pairs")
    return complex(float(pair[0]), float(pair[1]))


def group_to_json(g: FiniteGroup) -> dict[str, Any]:
    return {"order": g.order, "table": [list(row) for row in g.table],
            "identity": g.identity}


def _integer(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from exc


def group_from_json(data) -> FiniteGroup:
    """Decode a group table; an order or table over TABLE_BUDGET raises
    BudgetError before the table's axioms are checked."""
    try:
        order = _integer(data["order"], "group payload: order")
        rows = data["table"]
        if order > TABLE_BUDGET or len(rows) > TABLE_BUDGET:
            raise BudgetError(f"group tables are capped at order {TABLE_BUDGET}")
        table = tuple(tuple(_integer(v, "group payload: table entry") for v in row)
                      for row in rows)
        return FiniteGroup(order, table, _integer(data["identity"], "group payload: identity"))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad group payload: {exc}") from exc


def iso_to_json(iso: GroupIso | None) -> Any:
    if iso is None:
        return None
    return {"map": list(iso.mapping)}


def _finite(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from exc
    if not math.isfinite(x):
        raise SchemaError(f"bad {what}: {x} is not finite")
    return x


def weights_from_json(data) -> tuple[float, ...]:
    """The finite numbers under the "weights" key of a payload."""
    try:
        return tuple(_finite(w, "weights payload") for w in data["weights"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad weights payload: {exc}") from exc


def algebra_weights_from_json(data) -> FiniteMeasureAlgebra:
    return FiniteMeasureAlgebra(weights_from_json(data))


def function_to_json(f: MeasurableFunction) -> dict[str, Any]:
    return {"re": [float(v.real) for v in f.values],
            "im": [float(v.imag) for v in f.values]}


def _matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_pair(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows) -> np.ndarray:
    try:
        m = np.array([[_from_pair(v) for v in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad matrix payload: {exc}") from exc
    if m.ndim != 2:
        raise SchemaError("bad matrix payload: rows must be equal-length lists")
    if not np.all(np.isfinite(m)):
        raise SchemaError("bad matrix payload: entries must be finite")
    return m


def operator_to_json(op: Operator) -> dict[str, Any]:
    return {"context": {"weights": [float(w) for w in op.context.algebra.weights],
                        "p": float(op.context.p)},
            "matrix": _matrix_to_json(op.matrix)}


def operator_from_json(data) -> Operator:
    try:
        ctx = data["context"]
        context = LpContext(algebra_weights_from_json(ctx),
                            _finite(ctx["p"], "operator payload: p"))
        return Operator(context, _matrix_from_json(data["matrix"]))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad operator payload: {exc}") from exc


def algebra_basis_to_json(basis: AlgebraBasis) -> dict[str, Any]:
    return {"n": basis.n, "p": float(basis.p),
            "basis": [_matrix_to_json(m) for m in basis.elements]}


def algebra_basis_from_json(data) -> AlgebraBasis:
    try:
        mats = tuple(_matrix_from_json(m) for m in data["basis"])
        return AlgebraBasis(_integer(data["n"], "algebra payload: n"),
                            _finite(data["p"], "algebra payload: p"), mats)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad algebra payload: {exc}") from exc


def norm_estimate_to_json(est: NormEstimate) -> dict[str, Any]:
    return {"lower": float(est.lower), "upper": float(est.upper),
            "witness": [_complex_pair(v) for v in np.asarray(est.witness)],
            "iterations": int(est.iterations), "converged": bool(est.converged)}


def phased_permutation_to_json(u: PhasedPermutation) -> dict[str, Any]:
    return {"perm": list(u.perm),
            "phases": [_complex_pair(z) for z in u.phases],
            "phase_dim": u.phase_dim}


def recovered_group_to_json(rec: RecoveredGroup) -> dict[str, Any]:
    return {"group": group_to_json(rec.group),
            "representatives": [phased_permutation_to_json(u)
                                for u in rec.representatives]}


def verdict_to_json(v: IsoVerdict) -> dict[str, Any]:
    return {"verdict": v.verdict,
            "evidence": {"p": float(v.p), "q": float(v.q),
                         "group_a": group_to_json(v.group_a),
                         "group_b": group_to_json(v.group_b),
                         "witness": iso_to_json(v.witness)}}


def p2_report_to_json(r: P2DemoReport) -> dict[str, Any]:
    return {"samples": r.samples,
            "basis_mult_residual": float(r.basis_mult_residual),
            "random_mult_residual": float(r.random_mult_residual),
            "norm_agreement_max": float(r.norm_agreement_max),
            "membership_residual": float(r.membership_residual),
            "cycle_generator_spectrum": [_complex_pair(z)
                                         for z in r.cycle_generator_spectrum],
            "klein_involution_spectrum": [_complex_pair(z)
                                          for z in r.klein_involution_spectrum],
            "p3_verdict": r.p3_verdict}
