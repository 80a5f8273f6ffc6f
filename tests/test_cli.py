import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpconv import serialize
from lpconv.cli import main
from lpconv.convolution import ConvolutionContext, convolver_algebra
from lpconv.groups import make_cyclic, make_direct_product, make_symmetric
from lpconv.isometry import LpContext, Operator
from lpconv.measure import FiniteMeasureAlgebra


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_group_make_cyclic(capsys):
    code, data = run(capsys, "group", "make", "cyclic", "4")
    assert code == 0
    assert data["order"] == 4
    assert data["table"][1][3] == 0


def test_group_make_product(capsys, tmp_path):
    z2 = write_json(tmp_path / "z2.json",
                    serialize.group_to_json(make_cyclic(2)))
    code, data = run(capsys, "group", "make", "product", z2, z2)
    assert code == 0
    assert data["order"] == 4


def test_group_iso_emits_witness_or_null(capsys, tmp_path):
    z4 = write_json(tmp_path / "z4.json", serialize.group_to_json(make_cyclic(4)))
    klein = write_json(tmp_path / "klein.json", serialize.group_to_json(
        make_direct_product(make_cyclic(2), make_cyclic(2))))
    code, data = run(capsys, "group", "iso", z4, klein)
    assert code == 0 and data is None
    code, data = run(capsys, "group", "iso", z4, z4)
    assert code == 0 and data["map"] == [0, 1, 2, 3]


def test_budget_exit_code(capsys):
    code, data = run(capsys, "group", "make", "symmetric", "6")
    assert code == 4
    assert data["kind"] == "budget"


def test_malformed_json_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, data = run(capsys, "group", "iso", str(bad), str(bad))
    assert code == 3


def test_unknown_command_exit_code(capsys):
    assert main(["frobnicate"]) == 2


def test_help_still_prints_help(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: lpconv")


def _operator_payload(matrix, p=3.0):
    return {"context": {"weights": [1.0, 1.0], "p": p}, "matrix": matrix}


NAN_ROWS = [[[float("nan"), 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_VALID_OPERATOR = _operator_payload([[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])


@pytest.mark.parametrize("argv, payload, expected", [
    (["norm", "FILE"], _operator_payload(NAN_ROWS), 3),
    (["norm", "FILE"], _operator_payload([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]), 3),
    (["recover", "FILE"], {"n": 2, "p": 3.0, "basis": [NAN_ROWS]}, 3),
    (["suite", "run", "--criteria", "1,x"], None, 2),
    (["suite", "run", "--criteria", "10"], None, 2),
    (["group", "make", "cyclic"], None, 2),
    (["group", "make", "cyclic", "abc"], None, 2),
    (["group", "make", "frobenius"], None, 2),
    (["group", "make", "cyclic", "3000"], None, 4),
    (["group", "iso", "FILE"], None, 2),
    (["isom", "distance", "FILE"], None, 2),
    (["measure", "rnd", "FILE", "FILE"], {"weights": [float("nan"), 1.0]}, 3),
    (["norm", "FILE"], _operator_payload([[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                                         p=float("nan")), 3),
    (["recover", "FILE"], {"n": "abc", "p": 3.0, "basis": [[[[1.0, 0.0]]]]}, 3),
    (["group", "iso", "FILE", "FILE"], {"order": "abc", "table": [[0]], "identity": 0}, 3),
    (["recover", "FILE"], {"n": float("inf"), "p": 3.0, "basis": [[[[1.0, 0.0]]]]}, 3),
    (["group", "iso", "FILE", "FILE"], {"order": float("inf"), "table": [[0]], "identity": 0}, 3),
    (["norm", "FILE", "--starts", "-1"], _VALID_OPERATOR, 2),
    (["norm", "FILE", "--starts", "100000000000000"], _VALID_OPERATOR, 4),
    (["frobnicate"], None, 2),
    (["norm", "FILE", "--starts", "abc"], _VALID_OPERATOR, 2),
    (["demo", "p3"], None, 2),
    (["recover"], None, 2),
], ids=["norm-nan", "norm-ragged", "recover-nan", "criteria-not-a-number",
        "criteria-out-of-range", "cyclic-no-order", "cyclic-bad-order",
        "unknown-family", "cyclic-over-budget", "group-iso-one-file", "isom-distance-one-file",
        "weights-nan", "p-nan", "n-not-a-number", "order-not-a-number", "n-infinite",
        "order-infinite", "starts-negative", "starts-over-budget", "unknown-command",
        "starts-not-a-number", "bad-choice", "missing-positional"])
def test_bad_inputs_end_in_json_errors(capsys, tmp_path, argv, payload, expected):
    if payload is not None:
        path = write_json(tmp_path / "input.json", payload)
        argv = [path if a == "FILE" else a for a in argv]
    code, data = run(capsys, *argv)
    assert code == expected
    assert set(data) == {"error", "kind"}


@pytest.mark.parametrize("argv", [
    ["algebra", "build", "GROUP", "MISSING", "--p", "3"],
    ["algebra", "build", "GROUP", "GROUP"],
    ["algebra", "unitaries", "ALGEBRA", "ALGEBRA"],
    ["isom", "decompose", "OPERATOR", "OPERATOR"],
], ids=["build-missing-extra", "build-two", "unitaries-two", "decompose-two"])
def test_one_file_commands_refuse_extra_files(capsys, tmp_path, argv):
    files = {
        "GROUP": write_json(tmp_path / "z2.json", serialize.group_to_json(make_cyclic(2))),
        "ALGEBRA": write_json(tmp_path / "alg.json", serialize.algebra_basis_to_json(
            convolver_algebra(ConvolutionContext(make_cyclic(2), 3.0)))),
        "OPERATOR": write_json(tmp_path / "op.json", serialize.operator_to_json(
            Operator(LpContext(FiniteMeasureAlgebra((1.0, 1.0)), 3.0), np.eye(2)))),
        "MISSING": str(tmp_path / "nonexistent.json"),
    }
    argv = [files.get(a, a) for a in argv]
    code, data = run(capsys, *argv)
    assert code == 2
    assert data["kind"] == "usage" and set(data) == {"error", "kind"}
    # the same command with its first file alone succeeds
    code, _ = run(capsys, *argv[:3])
    assert code == 0


@pytest.mark.parametrize("argv", [["recover", "BIG"], ["decide", "SMALL", "BIG"],
                                  ["algebra", "unitaries", "BIG"]],
                         ids=["recover", "decide", "unitaries"])
def test_enumeration_cap_is_checked_before_decoding(capsys, tmp_path, monkeypatch, argv):
    # the cap refuses on the payload's n alone: the basis is never decoded
    def refuse(data):
        raise AssertionError("decoded a basis over the enumeration cap")

    small = serialize.algebra_basis_to_json(
        convolver_algebra(ConvolutionContext(make_cyclic(2), 3.0)))
    paths = {"SMALL": write_json(tmp_path / "small.json", small),
             "BIG": write_json(tmp_path / "big.json",
                               {"n": 65, "p": 3.0, "basis": [[[[1.0, 0.0]]]]})}
    monkeypatch.setattr(serialize, "algebra_basis_from_json", refuse)
    code, data = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 4
    assert data["kind"] == "budget"


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("payload", [
    {"order": 200, "table": _cyclic_table(200), "identity": 0},
    {"order": 3, "table": _cyclic_table(3) * 67, "identity": 0},
], ids=["order", "table-length"])
def test_group_payload_budget_is_checked_before_validation(capsys, tmp_path, monkeypatch,
                                                           payload):
    def refuse(*args):
        raise AssertionError("built a group table over the budget")

    path = write_json(tmp_path / "big.json", payload)
    monkeypatch.setattr(serialize, "FiniteGroup", refuse)
    code, data = run(capsys, "group", "iso", path, path)
    assert code == 4
    assert data["kind"] == "budget"


_NUMBER = st.one_of(st.integers(-2, 6), st.floats(),
                    st.sampled_from([10**9, 10**40, float("nan"), float("inf"), "abc", None]))
_ANY = st.recursive(_NUMBER, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["n", "p", "order", "table", "weights"]), inner, max_size=3)),
    max_leaves=8)
_VALID = {
    "group": serialize.group_to_json(make_cyclic(3)),
    "algebra": serialize.algebra_basis_to_json(
        convolver_algebra(ConvolutionContext(make_cyclic(2), 3.0))),
    "operator": _VALID_OPERATOR,
    "weights": {"weights": [1.0, 2.0]},
}


@st.composite
def _payload(draw, kind):
    """A valid payload, a random value, or a valid payload with one value at
    some depth replaced by a random one or deleted (missing keys, ragged rows)."""
    payload = copy.deepcopy(_VALID[kind])
    action = draw(st.sampled_from(["keep", "replace", "mutate"]))
    if action == "keep":
        return payload
    if action == "replace":
        return draw(_ANY)
    parent, key = payload, draw(st.sampled_from(sorted(payload)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    if draw(st.booleans()):
        parent[key] = draw(st.one_of(_NUMBER, _ANY))
    else:
        del parent[key]
    return payload


_COMMANDS = [(["recover"], ["algebra"]), (["decide"], ["algebra", "algebra"]),
             (["algebra", "unitaries"], ["algebra"]), (["norm"], ["operator"]),
             (["group", "iso"], ["group", "group"]), (["algebra", "build"], ["group"]),
             (["measure", "rnd"], ["weights", "weights"]),
             (["measure", "check-rn"], ["weights", "weights", "weights"])]


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=200)
@given(st.data())
def test_cli_fuzz_ends_in_json(data):
    # wrong types, NaN and infinity, ragged rows, huge orders: every payload
    # ends in one JSON document on stdout and a documented exit code
    command, kinds = data.draw(st.sampled_from(_COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, kind in enumerate(kinds):
            payload = data.draw(_payload(kind))
            paths.append(write_json(Path(tmp) / f"{i}.json", payload))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(command + paths)
    assert code in range(5)
    _strict_json(out.getvalue())


def test_non_finite_results_end_in_json_errors(capsys, tmp_path):
    # |x|^p overflows at this exponent: the sandwich is not finite
    path = write_json(tmp_path / "op.json", _operator_payload(
        [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], p=1e300))
    code, data = run(capsys, "norm", path)
    assert code == 1
    assert data["kind"] == "non-finite-result"


def test_measure_rnd(capsys, tmp_path):
    sigma = write_json(tmp_path / "sigma.json", {"weights": [3.0, 1.0]})
    mu = write_json(tmp_path / "mu.json", {"weights": [1.0, 2.0]})
    code, data = run(capsys, "measure", "rnd", sigma, mu)
    assert code == 0
    assert data == {"re": [3.0, 0.5], "im": [0.0, 0.0]}


def test_measure_check_rn(capsys, tmp_path):
    mu = write_json(tmp_path / "mu.json", {"weights": [1.0, 2.0, 0.5]})
    sigma = write_json(tmp_path / "sigma.json", {"weights": [0.7, 1.1, 2.0]})
    rho = write_json(tmp_path / "rho.json", {"weights": [1.4, 0.9, 0.6]})
    code, data = run(capsys, "measure", "check-rn", mu, sigma, rho,
                     "--perm", "2,0,1")
    assert code == 0
    assert data["max_deviation"] < 1e-12


def test_isom_decompose_and_distance(capsys, tmp_path):
    ctx = LpContext(FiniteMeasureAlgebra((1.0, 1.0)), 3.0)
    op_a = Operator(ctx, np.array([[0.0, 1j], [1.0, 0.0]]))
    op_b = Operator(ctx, np.eye(2))
    a = write_json(tmp_path / "a.json", serialize.operator_to_json(op_a))
    b = write_json(tmp_path / "b.json", serialize.operator_to_json(op_b))
    code, data = run(capsys, "isom", "decompose", a)
    assert code == 0
    assert data["perm"] == [1, 0]
    assert data["phases"]["im"] == [1.0, 0.0]
    code, data = run(capsys, "isom", "distance", a, b)
    assert code == 0
    assert data["distance"] == 2.0
    assert data["estimate"]["lower"] <= 2.0 + 1e-9
    assert data["estimate"]["upper"] == pytest.approx(2.0, abs=1e-6)


def test_isom_decompose_rejects_non_isometry(capsys, tmp_path):
    ctx = LpContext(FiniteMeasureAlgebra((1.0, 1.0)), 3.0)
    bad = write_json(tmp_path / "bad.json", serialize.operator_to_json(
        Operator(ctx, np.diag([2.0, 1.0]))))
    code, data = run(capsys, "isom", "decompose", bad)
    assert code == 1
    assert data["kind"] == "NotIsometry"


def test_isom_decompose_tolerance_override(capsys, tmp_path):
    ctx = LpContext(FiniteMeasureAlgebra((1.0, 1.0)), 3.0)
    near = write_json(tmp_path / "near.json", serialize.operator_to_json(
        Operator(ctx, np.array([[0.0, 1j], [1.0, 5e-8]]))))
    code, data = run(capsys, "isom", "decompose", near)
    assert code == 1 and data["kind"] == "NotIsometry"
    code, data = run(capsys, "isom", "decompose", near, "--tol", "1e-6")
    assert code == 0 and data["perm"] == [1, 0]


def test_norm_command(capsys, tmp_path):
    ctx = LpContext(FiniteMeasureAlgebra((1.0, 1.0)), 3.0)
    op = write_json(tmp_path / "op.json", serialize.operator_to_json(
        Operator(ctx, np.ones((2, 2)))))
    code, data = run(capsys, "norm", op)
    assert code == 0
    assert data["lower"] == pytest.approx(2.0, abs=1e-6)
    assert data["lower"] <= data["upper"]
    code, data = run(capsys, "norm", op, "--p", "2.0")
    assert code == 0
    assert data["lower"] == pytest.approx(2.0, abs=1e-6)


def test_algebra_pipeline_distinct_verdict(capsys, tmp_path):
    z4 = write_json(tmp_path / "z4.json", serialize.group_to_json(make_cyclic(4)))
    klein = write_json(tmp_path / "klein.json", serialize.group_to_json(
        make_direct_product(make_cyclic(2), make_cyclic(2))))
    code, alg4 = run(capsys, "algebra", "build", z4, "--p", "3.0")
    assert code == 0 and alg4["n"] == 4
    code, algk = run(capsys, "algebra", "build", klein, "--p", "3.0")
    assert code == 0
    a4 = write_json(tmp_path / "a4.json", alg4)
    ak = write_json(tmp_path / "ak.json", algk)

    code, units = run(capsys, "algebra", "unitaries", a4)
    assert code == 0 and units["count"] == 4

    code, rec = run(capsys, "recover", a4)
    assert code == 0
    assert rec["group"]["order"] == 4

    code, verdict = run(capsys, "decide", a4, ak)
    assert code == 0
    assert verdict["verdict"] == "Distinct"


def test_demo_p2(capsys):
    code, data = run(capsys, "demo", "p2")
    assert code == 0
    assert data["p3_verdict"] == "Distinct"
    assert data["basis_mult_residual"] < 1e-12


def test_suite_run_is_deterministic(capsys):
    code1, first = run(capsys, "suite", "run", "--seed", "7", "--criteria", "5,6")
    code2, second = run(capsys, "suite", "run", "--seed", "7", "--criteria", "5,6")
    assert code1 == code2 == 0
    assert first == second
    text1 = json.dumps(first, sort_keys=True)
    text2 = json.dumps(second, sort_keys=True)
    assert text1 == text2


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "result.json"
    code = main(["--out", str(out), "group", "make", "cyclic", "3"])
    assert code == 0
    assert json.loads(out.read_text())["order"] == 3


def test_operator_json_round_trip():
    ctx = LpContext(FiniteMeasureAlgebra((1.0, 0.5)), 1.5)
    op = Operator(ctx, np.array([[1j, 0.25], [-0.5, 2.0]]))
    data = serialize.operator_to_json(op)
    back = serialize.operator_from_json(json.loads(json.dumps(data)))
    assert back.context == op.context
    assert np.array_equal(back.matrix, op.matrix)


def test_algebra_json_round_trip():
    basis = convolver_algebra(ConvolutionContext(make_symmetric(3), 1.5))
    data = serialize.algebra_basis_to_json(basis)
    back = serialize.algebra_basis_from_json(json.loads(json.dumps(data)))
    assert back.n == basis.n and back.p == basis.p
    for a, b in zip(back.elements, basis.elements):
        assert np.array_equal(a, b)
