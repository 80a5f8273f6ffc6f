"""Finite-scale toolkit for lp convolution algebras of finite groups.

Builds finite measure algebras and their valuation calculus, factors the
isometries of weighted lp spaces, certifies matrix p -> p operator norms,
realizes the translation algebras of finite groups, and recovers a group
(up to isomorphism) from such an algebra when the exponent is not 2.
"""

from .convolution import (AlgebraBasis, ConvolutionContext, PhasedPermutation,
                          algebra_membership, convolver_algebra,
                          convolver_basis_exact, left_regular,
                          pseudofunction_algebra, right_regular,
                          unitary_group_enumerate)
from .errors import (AlgebraMismatch, BudgetError, LpconvError, NotGroupLike,
                     NotIsometry, P2Unsupported, POutOfRange)
from .groups import (FiniteGroup, GroupIso, is_isomorphic, make_cyclic,
                     make_dihedral, make_direct_product, make_quaternion,
                     make_symmetric, zoo)
from .isometry import (LampertiForm, LpContext, Operator, clarkson_gap,
                       interplay_deviation, is_disjointness_preserving,
                       lamperti_decompose, lamperti_distance,
                       lamperti_operator, mult_isometry, transform_isometry,
                       vector_norm)
from .measure import (BooleanAutomorphism, ChainRuleReport,
                      FiniteMeasureAlgebra, MeasurableFunction, Valuation,
                      integrate, integrate_layer_cake, lp_norm,
                      rn_chain_rules, rn_derivative, rn_level_set)
from .pnorm import (NormEstimate, dual_transpose, norm_witness_disjoint,
                    pnorm_estimate, pnorm_genperm_exact, split_norm_ratio)
from .reconstruction import (DualityReport, IsoVerdict, P2DemoReport,
                             RecoveredGroup, components, decide_isomorphism,
                             dual_antiisomorphism_check,
                             left_translation_match, p2_degeneracy_demo,
                             recover_group)

__all__ = [name for name in dir() if not name.startswith("_")]
