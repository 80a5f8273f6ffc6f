"""The package's export table: `lpconv.X` resolves on first use to the
submodule's own object, and `import lpconv` alone loads no numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpconv

EXPORTS = {
    "convolution": ["AlgebraBasis", "ConvolutionContext", "PhasedPermutation",
                    "convolver_algebra", "left_regular", "unitary_group_enumerate"],
    "errors": ["AlgebraMismatch", "BudgetError", "LpconvError", "NotGroupLike", "NotIsometry",
               "P2Unsupported", "POutOfRange"],
    "groups": ["FiniteGroup", "GroupIso", "convolver_basis_exact", "is_isomorphic",
               "make_cyclic", "make_dihedral", "make_direct_product", "make_quaternion",
               "make_symmetric", "zoo"],
    "isometry": ["LampertiForm", "LpContext", "Operator", "clarkson_gap", "lamperti_decompose",
                 "lamperti_distance", "lamperti_operator", "mult_isometry",
                 "norm_witness_disjoint", "split_norm_ratio", "transform_isometry",
                 "vector_norm"],
    "measure": ["BooleanAutomorphism", "ChainRuleReport", "FiniteMeasureAlgebra",
                "MeasurableFunction", "Valuation", "integrate", "rn_chain_rules",
                "rn_derivative"],
    "pnorm": ["NormEstimate", "pnorm_estimate", "pnorm_genperm_exact"],
    "reconstruction": ["IsoVerdict", "P2DemoReport", "RecoveredGroup", "components",
                       "decide_isomorphism", "p2_degeneracy_demo", "recover_group"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_lists_the_exported_names():
    assert len(NAMES) == 53
    assert lpconv.__all__ == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_its_submodule_object(module, name):
    assert getattr(lpconv, name) is getattr(importlib.import_module(f"lpconv.{module}"), name)


def test_dir_and_star_import_list_every_name():
    assert set(NAMES) <= set(dir(lpconv))
    namespace = {}
    exec("from lpconv import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


@pytest.mark.parametrize("name", ["no_such_name", "DECOMPOSE_TOL"])
def test_a_name_outside_the_table_raises_attribute_error(name):
    # DECOMPOSE_TOL lives in lpconv.isometry but is not exported
    with pytest.raises(AttributeError, match=name):
        getattr(lpconv, name)


def _loaded_after(probe):
    """The numpy and lpconv modules that a fresh interpreter holds after probe."""
    src = str(Path(lpconv.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe += ("; import sys; "
              "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'lpconv'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_import_lpconv_loads_no_numpy():
    assert _loaded_after("import lpconv") == "['lpconv']"


@pytest.mark.parametrize("source", ["lpconv.groups", "lpconv"])
def test_the_exact_translation_basis_loads_no_numpy(source):
    probe = (f"from {source} import convolver_basis_exact; "
             "from lpconv.groups import make_symmetric; "
             "assert len(convolver_basis_exact(make_symmetric(4))) == 24")
    assert _loaded_after(probe) == "['lpconv', 'lpconv.errors', 'lpconv.groups']"
