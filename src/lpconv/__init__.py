"""Finite-scale toolkit for lp convolution algebras of finite groups.

Builds finite measure algebras and their valuation calculus, factors the
isometries of weighted lp spaces, certifies matrix p -> p operator norms,
realizes the translation algebras of finite groups, and recovers a group
(up to isomorphism) from such an algebra when the exponent is not 2.

The exported names resolve on first use (PEP 562), so `import lpconv`
loads no submodule, and numpy only arrives with a module that needs it.
"""

import importlib

_EXPORTS = {
    "convolution": ("AlgebraBasis", "ConvolutionContext", "PhasedPermutation",
                    "convolver_algebra", "left_regular", "unitary_group_enumerate"),
    "errors": ("AlgebraMismatch", "BudgetError", "LpconvError", "NotGroupLike",
               "NotIsometry", "P2Unsupported", "POutOfRange"),
    "groups": ("FiniteGroup", "GroupIso", "convolver_basis_exact", "is_isomorphic",
               "make_cyclic", "make_dihedral", "make_direct_product", "make_quaternion",
               "make_symmetric", "zoo"),
    "isometry": ("LampertiForm", "LpContext", "Operator", "clarkson_gap",
                 "lamperti_decompose", "lamperti_distance", "lamperti_operator",
                 "mult_isometry", "norm_witness_disjoint", "split_norm_ratio",
                 "transform_isometry", "vector_norm"),
    "measure": ("BooleanAutomorphism", "ChainRuleReport", "FiniteMeasureAlgebra",
                "MeasurableFunction", "Valuation", "integrate", "rn_chain_rules",
                "rn_derivative"),
    "pnorm": ("NormEstimate", "pnorm_estimate", "pnorm_genperm_exact"),
    "reconstruction": ("IsoVerdict", "P2DemoReport", "RecoveredGroup", "components",
                       "decide_isomorphism", "p2_degeneracy_demo", "recover_group"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
