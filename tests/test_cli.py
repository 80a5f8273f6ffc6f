import argparse
import contextlib
import copy
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpconv import cli, serialize
from lpconv.cli import build_parser, main
from lpconv.convolution import AlgebraBasis, ConvolutionContext, convolver_algebra
from lpconv.groups import (is_isomorphic, make_cyclic, make_dihedral, make_direct_product,
                           make_quaternion, make_symmetric, zoo)
from lpconv.isometry import LpContext
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


def _pairs(matrix):
    """A complex matrix as rows of [re, im] pairs, the operator payload's form."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex)]


NAN_ROWS = [[[float("nan"), 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_VALID_OPERATOR = _operator_payload([[[1.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
_IDENTITY_OPERATOR = _operator_payload(_pairs(np.eye(2)))


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
    (["norm", "FILE"], _operator_payload(_VALID_OPERATOR["matrix"], p=10**400), 3),
    (["measure", "rnd", "FILE", "FILE"], {"weights": [10**400, 1.0]}, 3),
    (["norm", "FILE"], _operator_payload([[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
     3),
    # json.load refuses an integer literal over 4,300 digits with a plain ValueError
    (["norm", "FILE"], "[" + "9" * 4301 + "]", 3),
    # numbers are not coerced: a float is no integer, a bool or a string no number
    (["group", "iso", "FILE", "FILE"], {"order": 2.7, "table": [[0, 1], [1, 0]],
                                        "identity": 0.9}, 3),
    (["group", "iso", "FILE", "FILE"], {"order": "2", "table": [[0, 1], [1, 0]],
                                        "identity": 0}, 3),
    (["group", "iso", "FILE", "FILE"], {"order": 2, "table": [[0, 1], [True, 0]],
                                        "identity": 0}, 3),
    (["norm", "FILE"], _operator_payload(_VALID_OPERATOR["matrix"], p="3"), 3),
    (["norm", "FILE"], _operator_payload([[[True, 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
     3),
    (["norm", "FILE"], _operator_payload([[["1", 0.0], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
     3),
    (["measure", "rnd", "FILE", "FILE"], {"weights": [True, 1.0]}, 3),
    (["recover", "FILE"], {"n": "100", "p": 3.0, "basis": [[[[1.0, 0.0]]]]}, 3),
    (["norm", "FILE", "--seed", "-1"], _VALID_OPERATOR, 2),
    (["demo", "p2", "--seed", "-1"], None, 2),
    (["suite", "run", "--seed", "-1", "--criteria", "5"], None, 2),
    (["isom", "decompose", "FILE", "--tol", "-1"], _IDENTITY_OPERATOR, 2),
    (["isom", "decompose", "FILE", "--tol", "nan"], _IDENTITY_OPERATOR, 2),
    (["isom", "decompose", "FILE", "--tol", "inf"], _IDENTITY_OPERATOR, 2),
    (["group", "make", "cyclic", "0"], None, 2),
    (["group", "make", "symmetric", "-1"], None, 2),
    (["group", "make", "dihedral", "2.5"], None, 2),
    (["norm", "FILE", "--p", "0"], _VALID_OPERATOR, 2),
    (["norm", "FILE", "--p", "1"], _VALID_OPERATOR, 2),
    (["norm", "FILE", "--p", "nan"], _VALID_OPERATOR, 2),
    (["algebra", "build", "FILE", "--p", "1e400"], {"order": 1, "table": [[0]], "identity": 0},
     2),
    (["algebra", "build", "FILE", "--p", "abc"], {"order": 1, "table": [[0]], "identity": 0}, 2),
], ids=["norm-nan", "norm-ragged", "recover-nan", "criteria-not-a-number",
        "criteria-out-of-range", "cyclic-no-order", "cyclic-bad-order",
        "unknown-family", "cyclic-over-budget", "group-iso-one-file", "isom-distance-one-file",
        "weights-nan", "p-nan", "n-not-a-number", "order-not-a-number", "n-infinite",
        "order-infinite", "starts-negative", "starts-over-budget", "unknown-command",
        "starts-not-a-number", "bad-choice", "missing-positional", "p-huge-integer",
        "weight-huge-integer", "entry-huge-integer", "integer-over-4300-digits",
        "order-float", "order-string", "table-entry-bool", "p-string", "entry-bool",
        "entry-string", "weight-bool", "n-string-over-cap", "norm-seed-negative",
        "demo-seed-negative", "suite-seed-negative", "tol-negative", "tol-nan",
        "tol-infinite", "cyclic-zero-order", "symmetric-negative-order",
        "dihedral-float-order", "norm-p-zero", "norm-p-one", "norm-p-nan", "build-p-infinite",
        "build-p-string"])
def test_bad_inputs_end_in_json_errors(capsys, tmp_path, argv, payload, expected):
    # a str payload is written as it stands: json.dumps cannot write every input
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [str(path) if a == "FILE" else a for a in argv]
    code, data = run(capsys, *argv)
    assert code == expected
    assert set(data) == {"error", "kind"}


@pytest.mark.parametrize("argv, error", [
    (["demo", "p2", "--seed", "abc"], "lpconv demo p2: argument --seed: invalid int value: 'abc'"),
    (["demo", "p2", "--seed", "-1"],
     "lpconv demo p2: argument --seed: takes an integer of at least 0, got '-1'"),
    (["norm", "FILE", "--starts", "-1"],
     "lpconv norm: argument --starts: takes a count of at least 0, got '-1'"),
    (["norm", "FILE", "--starts", "abc"], "lpconv norm: argument --starts: invalid int value: 'abc'"),
    (["group", "make", "cyclic", "0"],
     "lpconv group make cyclic: argument order: takes an integer of at least 1, got '0'"),
    (["norm", "FILE", "--p", "nan"], "lpconv norm: argument --p: takes a finite number above 1, got 'nan'"),
    (["isom", "decompose", "FILE", "--tol", "x"],
     "lpconv isom decompose: argument --tol: invalid float value: 'x'"),
], ids=["seed-not-a-number", "seed-negative", "starts-negative", "starts-not-a-number",
        "order-zero", "p-nan", "tol-not-a-number"])
def test_numeric_options_word_their_usage_errors_alike(capsys, argv, error):
    # every numeric option is parsed before any file is read
    code, data = run(capsys, *argv)
    assert (code, data) == (2, {"error": error, "kind": "usage"})


def _payload_files(tmp_path):
    return {
        "GROUP": write_json(tmp_path / "z2.json", serialize.group_to_json(make_cyclic(2))),
        "ALGEBRA": write_json(tmp_path / "alg.json", serialize.algebra_basis_to_json(
            convolver_algebra(ConvolutionContext(make_cyclic(2), 3.0)))),
        "OPERATOR": write_json(tmp_path / "op.json", _IDENTITY_OPERATOR),
        # not a generalized permutation, so the norm engine draws its random starts
        "MATRIX": write_json(tmp_path / "matrix.json", _VALID_OPERATOR),
        "WEIGHTS": write_json(tmp_path / "w.json", {"weights": [1.0, 2.0]}),
    }


@pytest.mark.parametrize("argv", [
    ["algebra", "build", "GROUP", "MISSING", "--p", "3"],
    ["algebra", "build", "GROUP", "GROUP"],
    ["algebra", "unitaries", "ALGEBRA", "ALGEBRA"],
    ["isom", "decompose", "OPERATOR", "OPERATOR"],
], ids=["build-missing-extra", "build-two", "unitaries-two", "decompose-two"])
def test_one_file_commands_refuse_extra_files(capsys, tmp_path, argv):
    files = dict(_payload_files(tmp_path), MISSING=str(tmp_path / "nonexistent.json"))
    argv = [files.get(a, a) for a in argv]
    code, data = run(capsys, *argv)
    assert code == 2
    assert data["kind"] == "usage" and set(data) == {"error", "kind"}
    # the same command with its first file alone succeeds
    code, _ = run(capsys, *argv[:3])
    assert code == 0


# a valid invocation of every leaf command; FILE-like words name payloads
_LEAVES = {
    ("group", "make", "cyclic"): ["3"],
    ("group", "make", "dihedral"): ["3"],
    ("group", "make", "symmetric"): ["3"],
    ("group", "make", "quaternion"): [],
    ("group", "make", "product"): ["GROUP", "GROUP"],
    ("group", "iso"): ["GROUP", "GROUP"],
    ("measure", "rnd"): ["WEIGHTS", "WEIGHTS"],
    ("measure", "check-rn"): ["WEIGHTS", "WEIGHTS", "WEIGHTS", "--perm", "1,0"],
    ("isom", "decompose"): ["OPERATOR", "--tol", "1e-6"],
    ("isom", "distance"): ["OPERATOR", "OPERATOR", "--seed", "1"],
    ("norm",): ["MATRIX", "--p", "3", "--starts", "2", "--seed", "1"],
    ("algebra", "build"): ["GROUP", "--p", "3"],
    ("algebra", "unitaries"): ["ALGEBRA"],
    ("recover",): ["ALGEBRA"],
    ("decide",): ["ALGEBRA", "ALGEBRA"],
    ("demo", "p2"): ["--seed", "1"],
    ("suite", "run"): ["--seed", "1", "--criteria", "5"],
}


def _leaf_parsers(parser, prefix=()):
    """(command path, parser) for every parser that has no subcommands."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield prefix, parser
        return
    for name, sub in subparsers[0].choices.items():
        yield from _leaf_parsers(sub, prefix + (name,))


def _handled(parser):
    """The command paths whose parsers were built down to their handler."""
    return {leaf for leaf, sub in _leaf_parsers(parser) if sub.get_default("handler")}


def test_leaf_table_covers_every_command():
    assert {leaf for leaf, _ in _leaf_parsers(build_parser())} == set(_LEAVES)
    assert _handled(build_parser()) == set(_LEAVES)


def test_a_command_line_builds_only_the_commands_it_names():
    assert _handled(build_parser(["group", "make", "cyclic", "3"])) == {("group", "make", "cyclic")}
    # an --out value that names a command builds that command too, harmlessly
    assert _handled(build_parser(["--out", "decide", "recover", "a.json"])) == {("recover",),
                                                                                 ("decide",)}
    assert _handled(build_parser(["--help"])) == set()


# the top level, every intermediate command and every leaf
_NODES = sorted({leaf[:i] for leaf in _LEAVES for i in range(len(leaf) + 1)})


@pytest.mark.parametrize("node", _NODES, ids=lambda node: " ".join(node) or "lpconv")
def test_parsers_built_from_argv_print_what_the_whole_tree_prints(capsys, monkeypatch, node):
    # help, a usage error, and both after an --out value that names another command
    bad = "--no-such-flag" if node in _LEAVES else "frobnicate"
    other = "recover" if node[:1] == ("decide",) else "decide"
    cases = [[*node, "--help"], [*node, bad],
             ["--out", other, *node, "--help"], ["--out", other, *node, bad]]

    def printed(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    from_argv = [printed(argv) for argv in cases]
    whole = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: whole())
    assert from_argv == [printed(argv) for argv in cases]
    assert [code for code, _, _ in from_argv] == [0, 2, 0, 2]


@pytest.mark.parametrize("leaf", sorted(_LEAVES), ids=" ".join)
def test_every_command_refuses_an_extra_argument_and_an_unknown_flag(capsys, tmp_path, leaf):
    files = _payload_files(tmp_path)
    argv = [*leaf, *(files.get(a, a) for a in _LEAVES[leaf])]
    code, _ = run(capsys, *argv)
    assert code == 0
    for extra in (["extra.json"], ["--no-such-flag"], ["--no-such-flag", "1"]):
        code, data = run(capsys, *argv, *extra)
        assert code == 2
        assert data["kind"] == "usage" and set(data) == {"error", "kind"}


# main(argv) in a fresh interpreter; prints its exit code and which heavy modules it loaded
_PROBE = """\
import contextlib, io, json, sys
from lpconv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
heavy = ("numpy", "numpy.random", "lpconv.acceptance", "lpconv.measure", "lpconv.isometry",
         "lpconv.pnorm", "dataclasses", "inspect")
print(json.dumps({"code": code, "loaded": [m for m in heavy if m in sys.modules]}))
"""


def _cold_run(tmp_path, argv):
    """Exit code of a command run in a fresh interpreter, and the set of
    _PROBE's heavy modules that it loaded."""
    files = _payload_files(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *(files.get(a, a) for a in argv)],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    return result["code"], set(result["loaded"])


# algebra build encodes the exact basis the group table proves, with no numpy;
# no command loads dataclasses, and inspect arrives only with numpy
_LIGHT = sorted(leaf for leaf in _LEAVES
                if leaf[0] in ("group", "measure") or leaf == ("algebra", "build"))


@pytest.mark.parametrize("argv, expected, modules", [
    *(([*leaf, *_LEAVES[leaf]], 0, {"lpconv.measure"} if leaf[0] == "measure" else set())
      for leaf in _LIGHT),
    (["--help"], 0, set()),
    (["group", "make", "cyclic", "abc"], 2, set()),
], ids=[*(" ".join(leaf) for leaf in _LIGHT), "help", "usage-error"])
def test_group_and_measure_commands_start_without_numpy(tmp_path, argv, expected, modules):
    code, loaded = _cold_run(tmp_path, argv)
    assert code == expected
    assert loaded == modules


@pytest.mark.parametrize("leaf, modules", [
    (("recover",), {"numpy", "inspect"}),
    (("decide",), {"numpy", "inspect"}),
    (("norm",), {"numpy", "numpy.random", "lpconv.measure", "lpconv.isometry", "lpconv.pnorm",
                 "inspect"}),
    (("isom", "decompose"), {"numpy", "lpconv.measure", "lpconv.isometry", "inspect"}),
], ids=["recover", "decide", "norm", "isom decompose"])
def test_numeric_commands_leave_the_acceptance_suite_unloaded(tmp_path, leaf, modules):
    code, loaded = _cold_run(tmp_path, [*leaf, *_LEAVES[leaf]])
    assert code == 0
    assert loaded == modules


@pytest.mark.parametrize("argv", [
    ["isom", "distance", "OPERATOR", "OPERATOR", "--tol", "1e-3"],
    ["algebra", "unitaries", "ALGEBRA", "--p", "2"],
    ["measure", "rnd", "WEIGHTS", "WEIGHTS", "--perm", "9,9,9"],
    ["group", "make", "quaternion", "5"],
    ["isom", "decompose", "OPERATOR", "--seed", "3"],
    ["suite", "--seed", "7", "run"],
    ["measure", "check-rn", "WEIGHTS", "WEIGHTS", "WEIGHTS", "--perm", ""],
    ["suite", "run", "--criteria", ""],
], ids=["distance-tol", "unitaries-p", "rnd-perm", "quaternion-order", "decompose-seed",
        "flag-before-action", "empty-perm", "empty-criteria"])
def test_inputs_a_command_does_not_take_are_usage_errors(capsys, tmp_path, argv):
    # a flag or parameter that only a sibling command reads is refused, not ignored
    files = _payload_files(tmp_path)
    code, data = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert data["kind"] == "usage" and set(data) == {"error", "kind"}


@pytest.mark.parametrize("argv", [["recover", "BIG"], ["decide", "SMALL", "BIG"],
                                  ["algebra", "unitaries", "BIG"]],
                         ids=["recover", "decide", "unitaries"])
def test_enumeration_cap_is_checked_before_decoding(capsys, tmp_path, monkeypatch, argv):
    # the decoder refuses on the payload's n alone: none of its matrices is
    # converted (decide converts SMALL's first)
    big = [[[1.0, 0.0]]]
    convert = serialize._matrix_from_json

    def refuse(rows):
        if rows == big:
            raise AssertionError("converted a matrix of a basis over the cap")
        return convert(rows)

    small = serialize.algebra_basis_to_json(
        convolver_algebra(ConvolutionContext(make_cyclic(2), 3.0)))
    paths = {"SMALL": write_json(tmp_path / "small.json", small),
             "BIG": write_json(tmp_path / "big.json", {"n": 129, "p": 3.0, "basis": [big]})}
    monkeypatch.setattr(serialize, "_matrix_from_json", refuse)
    code, data = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 4
    assert data["kind"] == "budget"


def test_recover_takes_an_order_65_payload(capsys, tmp_path):
    # over the 64-atom cap that the table budget replaced
    z65 = serialize.group_to_json(make_cyclic(65))
    code, data = run(capsys, "algebra", "build", write_json(tmp_path / "z65.json", z65))
    assert code == 0 and data["n"] == 65
    code, data = run(capsys, "recover", write_json(tmp_path / "cv.json", data))
    assert code == 0
    assert is_isomorphic(serialize.group_from_json(data["group"]), make_cyclic(65)) is not None


def test_recover_of_more_classes_than_the_table_budget_exits_4(capsys, tmp_path):
    # the 6 x 6 matrix algebra has 6! = 720 isometry classes, over the
    # 128-element cap on a component table
    m6 = AlgebraBasis(6, 3.0, tuple(np.eye(36).reshape(36, 6, 6)))
    path = write_json(tmp_path / "m6.json", serialize.algebra_basis_to_json(m6))
    code, data = run(capsys, "recover", path)
    assert code == 4
    assert data["kind"] == "budget"


def test_decide_on_an_algebra_of_the_wrong_dimension_exits_1(capsys, tmp_path):
    # M_3 recovers S3, but has dimension 9, and CV_3(S3) has dimension 6
    m3 = AlgebraBasis(3, 3.0, tuple(np.eye(9).reshape(9, 3, 3)))
    m3_path = write_json(tmp_path / "m3.json", serialize.algebra_basis_to_json(m3))
    s3_path = write_json(tmp_path / "s3.json", serialize.algebra_basis_to_json(
        convolver_algebra(ConvolutionContext(make_symmetric(3), 3.0))))
    code, data = run(capsys, "recover", m3_path)
    assert code == 0 and data["group"]["order"] == 6
    code, data = run(capsys, "decide", m3_path, s3_path)
    assert code == 1
    assert data == {"kind": "NotGroupLike",
                    "error": "an algebra of dimension 9 is not the convolution algebra "
                             "of its component group, of order 6"}


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
                    st.sampled_from([10**9, 10**40, 10**400, float("nan"), float("inf"), "abc",
                                     None]))
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


# every flag some leaf takes, and values of the wrong type, negative, huge or not a number
_FLAGS = ["--p", "--starts", "--seed", "--tol", "--perm", "--criteria"]
_BAD_VALUES = ["abc", "", "-1", "-2.5", "0", "1" + "0" * 40, "1e400", "nan", "inf", "-inf",
               "1,0", "3"]
# suite run takes seconds per call; the other leaves take milliseconds
_FUZZED_LEAVES = sorted(leaf for leaf in _LEAVES if leaf != ("suite", "run"))


@pytest.fixture(scope="module")
def payload_files(tmp_path_factory):
    # no fuzzed command writes a file, so the examples can share one set
    return _payload_files(tmp_path_factory.mktemp("payloads"))


@settings(max_examples=120)
@given(st.data())
def test_argv_fuzz_ends_in_json(payload_files, data):
    # a valid invocation with tokens dropped, flags of any leaf inserted and
    # tokens replaced by bad values: one JSON document and a documented exit code
    leaf = data.draw(st.sampled_from(_FUZZED_LEAVES))
    argv = [*leaf, *(payload_files.get(a, a) for a in _LEAVES[leaf])]
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(["drop", "flag", "value"]))
        i = data.draw(st.integers(0, len(argv)))
        if action == "flag":
            argv[i:i] = [data.draw(st.sampled_from(_FLAGS)), data.draw(st.sampled_from(_BAD_VALUES))]
        elif argv:
            i = min(i, len(argv) - 1)
            bad = [] if action == "drop" else [data.draw(st.sampled_from(_BAD_VALUES))]
            argv[i:i + 1] = bad
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in range(5)
    _strict_json(out.getvalue())


def test_non_finite_results_end_in_json_errors(capsys, tmp_path):
    # |x|^p overflows at this exponent: the sandwich is not finite
    path = write_json(tmp_path / "op.json", _operator_payload(
        [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], p=1e300))
    with pytest.warns(RuntimeWarning):
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


def _underflow_files(tmp_path, command):
    """Payloads whose derivative sigma / mu is 1e-300 / 1e300 at atom 0,
    below the least subnormal."""
    tiny = write_json(tmp_path / "s.json", {"weights": [1e-300, 1.0]})
    huge = write_json(tmp_path / "m.json", {"weights": [1e300, 1.0]})
    return [tiny, huge] if command == "rnd" else [huge, tiny, huge]


_UNDERFLOW = {"error": "the derivative underflows to 0 at atom 0", "kind": "ValueError"}


@pytest.mark.parametrize("command", ["rnd", "check-rn"])
def test_an_underflowing_derivative_ends_in_a_json_error(capsys, tmp_path, command):
    code, data = run(capsys, "measure", command, *_underflow_files(tmp_path, command))
    assert (code, data) == (1, _UNDERFLOW)


def test_an_underflowing_derivative_is_refused_under_optimization(tmp_path):
    # python -O strips assert statements; the refusal must not depend on them
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-m", "lpconv.cli", "measure", "rnd",
                           *_underflow_files(tmp_path, "rnd")],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, json.loads(proc.stdout)) == (1, _UNDERFLOW)


def test_isom_decompose_and_distance(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", _operator_payload(_pairs([[0.0, 1j], [1.0, 0.0]])))
    b = write_json(tmp_path / "b.json", _operator_payload(_pairs(np.eye(2))))
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
    bad = write_json(tmp_path / "bad.json", _operator_payload(_pairs(np.diag([2.0, 1.0]))))
    code, data = run(capsys, "isom", "decompose", bad)
    assert code == 1
    assert data["kind"] == "NotIsometry"


def test_isom_decompose_tolerance_override(capsys, tmp_path):
    near = write_json(tmp_path / "near.json",
                      _operator_payload(_pairs([[0.0, 1j], [1.0, 5e-8]])))
    code, data = run(capsys, "isom", "decompose", near)
    assert code == 1 and data["kind"] == "NotIsometry"
    code, data = run(capsys, "isom", "decompose", near, "--tol", "1e-6")
    assert code == 0 and data["perm"] == [1, 0]


def test_norm_command(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", _operator_payload(_pairs(np.ones((2, 2)))))
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


def _bad_path(tmp_path, monkeypatch, bad):
    """A path that cannot be opened: DIR is a directory, MISSING sits in a
    directory that does not exist, and LOCKED raises PermissionError when the
    CLI opens it (chmod cannot lock a file against a process run as root)."""
    if bad == "DIR":
        return str(tmp_path)
    if bad == "MISSING":
        return str(tmp_path / "absent" / "file.json")
    locked = str(tmp_path / "locked.json")
    real_open = open

    def guarded_open(file, *args, **kwargs):
        if file == locked:
            raise PermissionError(errno.EACCES, "Permission denied", file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", guarded_open, raising=False)
    return locked


@pytest.mark.parametrize("argv, bad, error, kind", [
    (["norm", "BAD"], "MISSING", "[Errno 2] No such file or directory", "missing-file"),
    (["norm", "BAD"], "DIR", "[Errno 21] Is a directory", "unreadable-file"),
    (["group", "iso", "BAD", "GROUP"], "DIR", "[Errno 21] Is a directory", "unreadable-file"),
    (["norm", "BAD"], "LOCKED", "[Errno 13] Permission denied", "unreadable-file"),
    (["group", "iso", "GROUP", "BAD"], "LOCKED", "[Errno 13] Permission denied",
     "unreadable-file"),
], ids=["missing", "directory-one-file", "directory-two-files", "locked-one-file",
        "locked-two-files"])
def test_unreadable_input_paths_end_in_json_errors(capsys, tmp_path, monkeypatch, argv, bad,
                                                   error, kind):
    files = _payload_files(tmp_path)
    path = _bad_path(tmp_path, monkeypatch, bad)
    assert main([path if a == "BAD" else files.get(a, a) for a in argv]) == 3
    expected = {"error": f"{error}: '{path}'", "kind": kind}
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", ["DIR", "MISSING", "LOCKED"],
                         ids=["directory", "missing-parent", "locked"])
@pytest.mark.parametrize("argv", [["group", "make", "cyclic", "3"],
                                  ["group", "make", "symmetric", "6"]],
                         ids=["result", "budget-error"])
def test_unwritable_out_reports_on_stdout(capsys, tmp_path, monkeypatch, bad, argv):
    path = _bad_path(tmp_path, monkeypatch, bad)
    assert main(["--out", path, *argv]) == 2
    data = _strict_json(capsys.readouterr().out)
    assert data["kind"] == "unwritable-out" and path in data["error"]


def test_operator_json_round_trip():
    matrix = np.array([[1j, 0.25], [-0.5, 2.0]])
    data = {"context": {"weights": [1.0, 0.5], "p": 1.5}, "matrix": _pairs(matrix)}
    back = serialize.operator_from_json(json.loads(json.dumps(data)))
    assert back.context == LpContext(FiniteMeasureAlgebra((1.0, 0.5)), 1.5)
    assert np.array_equal(back.matrix, matrix)


def test_algebra_json_round_trip():
    basis = convolver_algebra(ConvolutionContext(make_symmetric(3), 1.5))
    data = serialize.algebra_basis_to_json(basis)
    back = serialize.algebra_basis_from_json(json.loads(json.dumps(data)))
    assert back.n == basis.n and back.p == basis.p
    for a, b in zip(back.elements, basis.elements):
        assert np.array_equal(a, b)


_BUILD_GROUPS = [*zoo(), ("S4", make_symmetric(4)), ("D8", make_dihedral(8)),
                 ("Z12", make_cyclic(12)),
                 ("Q8xZ2", make_direct_product(make_quaternion(), make_cyclic(2)))]


@pytest.mark.parametrize("g", [g for _, g in _BUILD_GROUPS], ids=[n for n, _ in _BUILD_GROUPS])
def test_algebra_build_prints_the_validated_library_basis(capsys, tmp_path, g):
    # the command encodes the exact basis unchecked; the numerically validated
    # library route is its oracle, byte for byte
    path = write_json(tmp_path / "g.json", serialize.group_to_json(g))
    for p in ("1.5", "3", "4.25"):
        assert main(["algebra", "build", path, "--p", p]) == 0
        oracle = serialize.algebra_basis_to_json(
            convolver_algebra(ConvolutionContext(g, float(p))))
        assert capsys.readouterr().out == cli._dumps(oracle)
