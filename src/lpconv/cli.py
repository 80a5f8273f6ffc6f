"""Command line front end: JSON in, JSON out, deterministic under --seed.

Exit codes: 0 success, 1 domain error (invalid isometry, ungrouplike
algebra, mismatched contexts, failed suite, a result that overflows to a
non-finite number), 2 usage error, 3 malformed input JSON or an input path
that cannot be read (missing, a directory, no permission), 4 enumeration
budget exceeded. Errors are JSON too, written where the result would go;
an --out path that cannot be written sends its error to stdout with exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# every handler past the group commands imports its own callees, so a
# command loads only the modules it runs: a group command, algebra build,
# --help and a usage error start without numpy or lpconv.measure
from . import serialize
from .errors import BudgetError, LpconvError
from .groups import (convolver_basis_exact, is_isomorphic, make_cyclic, make_dihedral,
                     make_direct_product, make_quaternion, make_symmetric)
from .serialize import SchemaError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BAD_JSON = 3
EXIT_BUDGET = 4

NORM_STARTS_BUDGET = 1000  # random starts one norm call may ask for


class UsageError(Exception):
    """The command line names a bad or missing argument."""


class _Parser(argparse.ArgumentParser):
    """Turns argparse's own failures into UsageError, which ends in JSON.

    Subparsers are built with the parent's class, so this covers them too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or an integer literal too long to convert
            raise SchemaError(str(exc)) from exc


def _parse_perm(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"takes comma separated integers, got {text!r}") from exc


def _number(convert, accepts, wording):
    """An argparse type: convert the text (int or float), then require
    accepts(value), else the usage error says the option takes wording."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:  # argparse's own wording for type=int and type=float
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not accepts(value):  # NaN fails every range test
            raise argparse.ArgumentTypeError(f"takes {wording}, got {text!r}")
        return value
    return parse


# numpy would refuse a negative seed mid-run, so the parser refuses it
_parse_seed = _number(int, lambda v: v >= 0, "an integer of at least 0")
_parse_order = _number(int, lambda v: v >= 1, "an integer of at least 1")
_parse_starts = _number(int, lambda v: v >= 0, "a count of at least 0")
_parse_p = _number(float, lambda v: 1 < v < math.inf, "a finite number above 1")
_parse_tol = _number(float, lambda v: 0 <= v < math.inf, "a finite number of at least 0")


def _parse_criteria(text: str) -> list[int]:
    from . import acceptance
    count = len(acceptance.ALL_CRITERIA)
    parts = [v.strip() for v in text.split(",")]
    if not all(v.isdecimal() and 1 <= int(v) <= count for v in parts):
        raise argparse.ArgumentTypeError(f"takes comma separated numbers 1-{count}, got {text!r}")
    return [int(v) for v in parts]


_MAKERS = {"cyclic": make_cyclic, "dihedral": make_dihedral, "symmetric": make_symmetric}


def _cmd_make_order(args) -> tuple[object, int]:
    return serialize.group_to_json(_MAKERS[args.family](args.order)), EXIT_OK


def _cmd_make_quaternion(args) -> tuple[object, int]:
    return serialize.group_to_json(make_quaternion()), EXIT_OK


def _cmd_make_product(args) -> tuple[object, int]:
    g = make_direct_product(serialize.group_from_json(_load(args.a)),
                            serialize.group_from_json(_load(args.b)))
    return serialize.group_to_json(g), EXIT_OK


def _cmd_group_iso(args) -> tuple[object, int]:
    a = serialize.group_from_json(_load(args.a))
    b = serialize.group_from_json(_load(args.b))
    return serialize.iso_to_json(is_isomorphic(a, b)), EXIT_OK


def _cmd_measure_rnd(args) -> tuple[object, int]:
    from .measure import Valuation, rn_derivative
    sigma_weights = serialize.weights_from_json(_load(args.sigma))
    algebra = serialize.algebra_weights_from_json(_load(args.mu))
    sigma = Valuation(algebra, sigma_weights)
    return serialize.function_to_json(rn_derivative(sigma, algebra.mu())), EXIT_OK


def _cmd_measure_check_rn(args) -> tuple[object, int]:
    from .measure import BooleanAutomorphism, Valuation, rn_chain_rules
    algebra = serialize.algebra_weights_from_json(_load(args.mu))
    sigma = Valuation(algebra, serialize.weights_from_json(_load(args.sigma)))
    rho = Valuation(algebra, serialize.weights_from_json(_load(args.rho)))
    perm = args.perm if args.perm is not None else tuple(range(algebra.atoms))
    report = rn_chain_rules(algebra.mu(), sigma, rho, BooleanAutomorphism(algebra, perm))
    return {"product_deviation": report.product_deviation,
            "push_deviation": report.push_deviation,
            "max_deviation": report.max_deviation}, EXIT_OK


def _cmd_isom_decompose(args) -> tuple[object, int]:
    from .isometry import DECOMPOSE_TOL, lamperti_decompose
    tol = DECOMPOSE_TOL if args.tol is None else args.tol
    form = lamperti_decompose(serialize.operator_from_json(_load(args.file)), tol=tol)
    return {"phases": serialize.function_to_json(form.f),
            "perm": list(form.phi.perm)}, EXIT_OK


def _cmd_isom_distance(args) -> tuple[object, int]:
    from .isometry import lamperti_decompose, lamperti_distance
    from .pnorm import pnorm_estimate
    op_a = serialize.operator_from_json(_load(args.a))
    op_b = serialize.operator_from_json(_load(args.b))
    if op_a.context != op_b.context:
        raise LpconvError("operators live on different contexts")
    distance = lamperti_distance(lamperti_decompose(op_a), lamperti_decompose(op_b),
                                 op_a.context)
    est = pnorm_estimate(op_a - op_b, op_a.context, seed=args.seed)
    return {"distance": distance,
            "estimate": {"lower": est.lower, "upper": est.upper}}, EXIT_OK


def _cmd_norm(args) -> tuple[object, int]:
    from .isometry import LpContext
    from .pnorm import pnorm_estimate
    if args.starts > NORM_STARTS_BUDGET:
        raise BudgetError(f"--starts capped at {NORM_STARTS_BUDGET}")
    op = serialize.operator_from_json(_load(args.file))
    ctx = op.context if args.p is None else LpContext(op.context.algebra, args.p)
    est = pnorm_estimate(op.matrix, ctx, starts=args.starts, seed=args.seed)
    return serialize.norm_estimate_to_json(est), EXIT_OK


def _cmd_algebra_build(args) -> tuple[object, int]:
    # the group axioms prove the basis: nothing to validate, so no numpy
    g = serialize.group_from_json(_load(args.file))
    return serialize.algebra_to_json(g.order, args.p, convolver_basis_exact(g)), EXIT_OK


def _cmd_algebra_unitaries(args) -> tuple[object, int]:
    from .convolution import unitary_group_enumerate
    basis = serialize.algebra_basis_from_json(_load(args.file))
    units = unitary_group_enumerate(basis, basis.p)
    return {"count": len(units),
            "classes": [serialize.phased_permutation_to_json(u) for u in units]}, EXIT_OK


def _cmd_recover(args) -> tuple[object, int]:
    from .reconstruction import recover_group
    basis = serialize.algebra_basis_from_json(_load(args.file))
    return serialize.recovered_group_to_json(recover_group(basis, basis.p)), EXIT_OK


def _cmd_decide(args) -> tuple[object, int]:
    from .reconstruction import decide_isomorphism
    basis_a, basis_b = map(serialize.algebra_basis_from_json, [_load(args.a), _load(args.b)])
    verdict = decide_isomorphism(basis_a, basis_a.p, basis_b, basis_b.p)
    return serialize.verdict_to_json(verdict), EXIT_OK


def _cmd_demo_p2(args) -> tuple[object, int]:
    from .reconstruction import p2_degeneracy_demo
    return serialize.p2_report_to_json(p2_degeneracy_demo(seed=args.seed)), EXIT_OK


def _cmd_suite_run(args) -> tuple[object, int]:
    from . import acceptance
    report = acceptance.run_suite(seed=args.seed, indices=args.criteria)
    return report, EXIT_OK if report["all_passed"] else EXIT_DOMAIN


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command line parser, one subparser per leaf command: argparse
    refuses what its leaf does not declare.

    Given argv, a command whose name is not one of its words is added by
    name and help alone: it cannot be the command parsed, and the usage
    lines, help texts and errors that list it read as from the whole tree.
    Membership, not position, keeps that true when an --out value names a
    command. Without argv the whole tree is built.
    """
    named = None if argv is None else set(argv)
    parser = _Parser(prog="lpconv")
    parser.add_argument("--out", help="write the JSON result to this path")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, help):
        """The parser of a command that argv names, else None; a parent of
        None was not built, and its children are not added."""
        if parent is None:
            return None
        built = named is None or name in named
        # a command argv does not name is never parsed, so it needs no -h either
        p = parent.add_parser(name, help=help, add_help=built)
        return p if built else None

    def actions(name, help=None, dest="action", parent=commands):
        p = command(parent, name, help)
        return None if p is None else p.add_subparsers(dest=dest, required=True)

    def leaf(parent, name, handler, *positionals, help=None, **flags):
        p = command(parent, name, help)
        if p is None:
            return None
        for positional in positionals:
            p.add_argument(positional)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(handler=handler)
        return p

    seed = {"type": _parse_seed, "default": 0}
    group = actions("group", "construct groups and test isomorphism")
    make = actions("make", dest="family", parent=group)
    for family in _MAKERS:
        p = leaf(make, family, _cmd_make_order)
        if p is not None:
            p.add_argument("order", type=_parse_order)
    leaf(make, "quaternion", _cmd_make_quaternion)
    leaf(make, "product", _cmd_make_product, "a", "b")
    leaf(group, "iso", _cmd_group_iso, "a", "b")

    measure = actions("measure", "derivatives on finite measure algebras")
    leaf(measure, "rnd", _cmd_measure_rnd, "sigma", "mu")
    leaf(measure, "check-rn", _cmd_measure_check_rn, "mu", "sigma", "rho",
         perm={"type": _parse_perm, "help": "comma separated atom permutation"})

    isom = actions("isom", "factor isometries and measure distances")
    leaf(isom, "decompose", _cmd_isom_decompose, "file",
         tol={"type": _parse_tol, "help": "validation tolerance override"})
    leaf(isom, "distance", _cmd_isom_distance, "a", "b", seed=seed)

    leaf(commands, "norm", _cmd_norm, "file", help="certified operator norm sandwich",
         p={"type": _parse_p}, starts={"type": _parse_starts, "default": 8}, seed=seed)

    algebra = actions("algebra", "build algebras and list isometries")
    leaf(algebra, "build", _cmd_algebra_build, "file", p={"type": _parse_p, "default": 3.0})
    leaf(algebra, "unitaries", _cmd_algebra_unitaries, "file")

    leaf(commands, "recover", _cmd_recover, "file", help="recover a group from an algebra")
    leaf(commands, "decide", _cmd_decide, "a", "b", help="decide algebra isomorphism")
    leaf(actions("demo", "run a named demonstration", dest="name"), "p2", _cmd_demo_p2,
         seed=seed)
    leaf(actions("suite", "run the acceptance criteria"), "run", _cmd_suite_run, seed=seed,
         criteria={"type": _parse_criteria, "help": "comma separated criterion numbers"})
    return parser


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def main(argv=None) -> int:
    out = None  # an error found while parsing goes to stdout
    try:
        args = build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
        out = args.out
        payload, code = args.handler(args)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code else EXIT_OK
    except UsageError as exc:
        payload, code = {"error": str(exc), "kind": "usage"}, EXIT_USAGE
    except BudgetError as exc:
        payload, code = {"error": str(exc), "kind": "budget"}, EXIT_BUDGET
    except SchemaError as exc:
        payload, code = {"error": str(exc), "kind": "malformed-input"}, EXIT_BAD_JSON
    except FileNotFoundError as exc:
        payload, code = {"error": str(exc), "kind": "missing-file"}, EXIT_BAD_JSON
    except OSError as exc:  # an input path is a directory or unreadable; handlers write nothing
        payload, code = {"error": str(exc), "kind": "unreadable-file"}, EXIT_BAD_JSON
    except (LpconvError, ValueError, KeyError, IndexError) as exc:
        payload, code = {"error": str(exc), "kind": type(exc).__name__}, EXIT_DOMAIN
    try:
        text = _dumps(payload)
    except ValueError:  # NaN and infinity have no JSON form
        text = _dumps({"error": "the result holds a non-finite number",
                       "kind": "non-finite-result"})
        code = EXIT_DOMAIN
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:  # the error goes to stdout instead
            text, code = _dumps({"error": str(exc), "kind": "unwritable-out"}), EXIT_USAGE
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
