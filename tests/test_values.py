"""The package's value types: construction in field order with today's
defaults, refusal of assignment and deletion, equality and hash by fields,
repr, and pickle and deepcopy round trips."""

import copy
import pickle

import numpy as np
import pytest

from lpconv.acceptance import CriterionResult
from lpconv.convolution import AlgebraBasis, ConvolutionContext, PhasedPermutation
from lpconv.groups import FiniteGroup, GroupIso, make_cyclic
from lpconv.isometry import LampertiForm, LpContext, Operator
from lpconv.measure import (BooleanAutomorphism, ChainRuleReport, FiniteMeasureAlgebra,
                            MeasurableFunction, Valuation)
from lpconv.pnorm import NormEstimate
from lpconv.reconstruction import IsoVerdict, P2DemoReport, RecoveredGroup

Z2 = make_cyclic(2)
Z2_SWAPPED = FiniteGroup(2, ((1, 0), (0, 1)), 1)  # Z2 with its labels swapped
ALGEBRA = FiniteMeasureAlgebra((1.0, 2.0))
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
PHASES = MeasurableFunction(ALGEBRA, (1, -1))
FLIP = BooleanAutomorphism(ALGEBRA, (1, 0))
REPS = (PhasedPermutation((0, 1), (1, 1)), PhasedPermutation((1, 0), (1, 1)))

# class: (fields in order with the values to build from, fields that have a
# default with it, fields to change for an unequal value, whether it hashes)
CASES = {
    FiniteGroup: ({"order": 2, "table": ((0, 1), (1, 0)), "identity": 0}, {},
                  {"table": ((1, 0), (0, 1)), "identity": 1}, True),
    GroupIso: ({"source": Z2, "target": Z2, "mapping": (0, 1)}, {},
               {"target": Z2_SWAPPED, "mapping": (1, 0)}, True),
    ConvolutionContext: ({"group": Z2, "p": 3.0}, {}, {"p": 1.5}, True),
    AlgebraBasis: ({"n": 2, "p": 3.0, "elements": (np.eye(2), SWAP)}, {}, {"p": 4.0}, False),
    PhasedPermutation: ({"perm": (1, 0), "phases": (1, -1j), "phase_dim": 0}, {"phase_dim": 0},
                        {"phase_dim": 1}, True),
    LpContext: ({"algebra": ALGEBRA, "p": 3.0}, {}, {"p": 1.5}, True),
    Operator: ({"context": LpContext(ALGEBRA, 3.0), "matrix": SWAP}, {},
               {"context": LpContext(ALGEBRA, 1.5)}, False),
    LampertiForm: ({"f": PHASES, "phi": FLIP}, {},
                   {"phi": BooleanAutomorphism(ALGEBRA, (0, 1))}, True),
    FiniteMeasureAlgebra: ({"weights": (1.0, 2.0)}, {}, {"weights": (1.0, 3.0)}, True),
    Valuation: ({"algebra": ALGEBRA, "atom_values": (0.5, 4.0)}, {},
                {"atom_values": (0.5, 2.0)}, True),
    MeasurableFunction: ({"algebra": ALGEBRA, "values": (1 + 1j, 2.0)}, {},
                         {"values": (1 + 1j, 3.0)}, True),
    BooleanAutomorphism: ({"algebra": ALGEBRA, "perm": (1, 0)}, {}, {"perm": (0, 1)}, True),
    ChainRuleReport: ({"product_deviation": 0.0, "push_deviation": 1e-16}, {},
                      {"push_deviation": 0.0}, True),
    NormEstimate: ({"lower": 1.0, "upper": 1.5, "witness": np.array([1.0, 0.0]),
                    "iterations": 3, "converged": True}, {}, {"lower": 0.5}, False),
    CriterionResult: ({"index": 4, "name": "norm sandwich", "passed": True,
                       "details": {"gap": 0.1}}, {}, {"passed": False}, False),
    RecoveredGroup: ({"group": Z2, "representatives": REPS}, {},
                     {"representatives": REPS[::-1]}, True),
    IsoVerdict: ({"verdict": "Isomorphic", "p": 3.0, "q": 3.0, "group_a": Z2, "group_b": Z2,
                  "witness": GroupIso(Z2, Z2, (0, 1))}, {},
                 {"verdict": "Distinct", "witness": None}, True),
    P2DemoReport: ({"samples": 8, "basis_mult_residual": 0.0, "random_mult_residual": 1e-16,
                    "norm_agreement_max": 1e-15, "membership_residual": 0.0,
                    "cycle_generator_spectrum": (1 + 0j, -1 + 0j),
                    "klein_involution_spectrum": (1 + 0j, -1 + 0j), "p3_verdict": "Distinct"},
                   {}, {"p3_verdict": "Isomorphic"}, True),
}


def _assert_same(a, b):
    """a and b are values of one class with equal fields; arrays compare by entry."""
    assert type(a) is type(b)
    names = list(CASES[type(a)][0])
    np.testing.assert_equal([getattr(a, n) for n in names], [getattr(b, n) for n in names])


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_type(cls):
    fields, defaults, changes, hashable = CASES[cls]
    names = list(fields)
    value = cls(*fields.values())
    # keyword arguments bind by name in any order; a field with a default may be left out
    _assert_same(value, cls(**dict(reversed(fields.items()))))
    _assert_same(value, cls(*(fields[n] for n in names if n not in defaults)))
    for name, default in defaults.items():
        assert getattr(cls(*(fields[n] for n in names if n != name)), name) == default

    required = [n for n in names if n not in defaults]
    with pytest.raises(TypeError):
        cls(*(fields[n] for n in required[:-1]))
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=0)
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)
    with pytest.raises(TypeError):
        cls(fields[names[0]], **fields)

    for name in (names[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, fields[names[0]])
        with pytest.raises(AttributeError):
            delattr(value, name)

    changed = cls(**{**fields, **changes})
    assert value == copy.copy(value)
    assert value != changed and not value == changed
    for other_cls, (other_fields, *_) in CASES.items():
        if other_cls is not cls:
            assert value != other_cls(**other_fields)
    if hashable:
        twin = cls(**fields)
        assert value == twin and hash(value) == hash(twin)
        assert len({value, twin, changed}) == 2
    else:
        with pytest.raises(TypeError):
            hash(value)

    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        _assert_same(value, copied)
        with pytest.raises(AttributeError):
            setattr(copied, names[0], fields[names[0]])


def test_equal_fields_of_two_classes_are_not_equal():
    assert Valuation(ALGEBRA, (1.0, 2.0)) != MeasurableFunction(ALGEBRA, (1.0, 2.0))
    assert LpContext(ALGEBRA, 3.0) != ConvolutionContext(Z2, 3.0)


def test_repr_names_every_field_in_order():
    assert repr(Z2) == "FiniteGroup(order=2, table=((0, 1), (1, 0)), identity=0)"
    assert (repr(PhasedPermutation((1, 0), (1, -1j)))
            == "PhasedPermutation(perm=(1, 0), phases=((1+0j), (-0-1j)), phase_dim=0)")
    assert (repr(LpContext(ALGEBRA, 3.0))
            == "LpContext(algebra=FiniteMeasureAlgebra(weights=(1.0, 2.0)), p=3.0)")
    z2 = repr(Z2)
    assert (repr(IsoVerdict("Isomorphic", 3.0, 3.0, Z2, Z2, GroupIso(Z2, Z2, (0, 1))))
            == f"IsoVerdict(verdict='Isomorphic', p=3.0, q=3.0, group_a={z2}, group_b={z2}, "
               f"witness=GroupIso(source={z2}, target={z2}, mapping=(0, 1)))")


def test_algebra_basis_keeps_its_frame_out_of_repr_and_equality():
    basis = AlgebraBasis(2, 3.0, (np.eye(2), SWAP))
    assert repr(basis).startswith("AlgebraBasis(n=2, p=3.0, elements=(array(")
    assert not any(name in repr(basis) for name in ("_u", "_s", "_vh"))
    twin = copy.copy(basis)
    object.__setattr__(twin, "_vh", -basis._vh)
    assert basis == twin
    with pytest.raises(TypeError):
        AlgebraBasis(2, 3.0, (np.eye(2), SWAP), _vh=basis._vh)
    # the frame survives a round trip: the copy still answers membership
    for copied in (pickle.loads(pickle.dumps(basis)), copy.deepcopy(basis)):
        np.testing.assert_array_equal(copied._vh, basis._vh)
        np.testing.assert_allclose(copied.coordinates(SWAP), [0.0, 1.0], atol=1e-12)
