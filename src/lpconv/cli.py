"""Command line front end: JSON in, JSON out, deterministic under --seed.

Exit codes: 0 success, 1 domain error (invalid isometry, ungrouplike
algebra, mismatched contexts, failed suite, a result that overflows to a
non-finite number), 2 usage error, 3 malformed input JSON, 4 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, serialize
from .convolution import (ENUM_ATOM_BUDGET, AlgebraBasis, ConvolutionContext,
                          convolver_algebra, unitary_group_enumerate)
from .errors import BudgetError, LpconvError
from .groups import (is_isomorphic, make_cyclic, make_dihedral,
                     make_direct_product, make_quaternion, make_symmetric)
from .isometry import LpContext, lamperti_decompose, lamperti_distance
from .measure import (BooleanAutomorphism, Valuation, rn_chain_rules,
                      rn_derivative)
from .pnorm import pnorm_estimate
from .reconstruction import decide_isomorphism, p2_degeneracy_demo, recover_group
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


def _load_enumerable_bases(paths: list[str]) -> list[AlgebraBasis]:
    """Decode algebra payloads bound for the pattern search, refusing any
    whose n is over the search's atom cap before a basis is built."""
    payloads = [_load(path) for path in paths]
    for data in payloads:
        try:
            n = int(data["n"])
        except (KeyError, TypeError, ValueError, OverflowError):
            continue  # the decoder reports the malformed payload
        if n > ENUM_ATOM_BUDGET:
            raise BudgetError(f"pattern search capped at {ENUM_ATOM_BUDGET} atoms")
    return [serialize.algebra_basis_from_json(data) for data in payloads]


def _parse_perm(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"takes comma separated integers, got {text!r}") from exc


def _parse_criteria(text: str) -> list[int]:
    count = len(acceptance.ALL_CRITERIA)
    parts = [v.strip() for v in text.split(",")]
    if not all(v.isdecimal() and 1 <= int(v) <= count for v in parts):
        raise argparse.ArgumentTypeError(f"takes comma separated numbers 1-{count}, got {text!r}")
    return [int(v) for v in parts]


def _cmd_make_order(args) -> tuple[object, int]:
    return serialize.group_to_json(args.make(args.order)), EXIT_OK


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
    sigma_weights = serialize.weights_from_json(_load(args.sigma))
    algebra = serialize.algebra_weights_from_json(_load(args.mu))
    sigma = Valuation(algebra, sigma_weights)
    return serialize.function_to_json(rn_derivative(sigma, algebra.mu())), EXIT_OK


def _cmd_measure_check_rn(args) -> tuple[object, int]:
    algebra = serialize.algebra_weights_from_json(_load(args.mu))
    sigma = Valuation(algebra, serialize.weights_from_json(_load(args.sigma)))
    rho = Valuation(algebra, serialize.weights_from_json(_load(args.rho)))
    perm = args.perm if args.perm is not None else tuple(range(algebra.atoms))
    report = rn_chain_rules(algebra.mu(), sigma, rho, BooleanAutomorphism(algebra, perm))
    return {"product_deviation": report.product_deviation,
            "push_deviation": report.push_deviation,
            "max_deviation": report.max_deviation}, EXIT_OK


def _cmd_isom_decompose(args) -> tuple[object, int]:
    op = serialize.operator_from_json(_load(args.file))
    kwargs = {} if args.tol is None else {"support_tol": args.tol, "isometry_tol": args.tol}
    form = lamperti_decompose(op, **kwargs)
    return {"phases": serialize.function_to_json(form.f),
            "perm": list(form.phi.perm)}, EXIT_OK


def _cmd_isom_distance(args) -> tuple[object, int]:
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
    if args.starts < 0:
        raise UsageError(f"--starts takes a count of at least 0, got {args.starts}")
    if args.starts > NORM_STARTS_BUDGET:
        raise BudgetError(f"--starts capped at {NORM_STARTS_BUDGET}")
    op = serialize.operator_from_json(_load(args.file))
    ctx = op.context if args.p is None else LpContext(op.context.algebra, args.p)
    est = pnorm_estimate(op.matrix, ctx, starts=args.starts, seed=args.seed)
    return serialize.norm_estimate_to_json(est), EXIT_OK


def _cmd_algebra_build(args) -> tuple[object, int]:
    g = serialize.group_from_json(_load(args.file))
    basis = convolver_algebra(ConvolutionContext(g, args.p))
    return serialize.algebra_basis_to_json(basis), EXIT_OK


def _cmd_algebra_unitaries(args) -> tuple[object, int]:
    basis, = _load_enumerable_bases([args.file])
    units = unitary_group_enumerate(basis, basis.p)
    return {"count": len(units),
            "classes": [serialize.phased_permutation_to_json(u) for u in units]}, EXIT_OK


def _cmd_recover(args) -> tuple[object, int]:
    basis, = _load_enumerable_bases([args.file])
    return serialize.recovered_group_to_json(recover_group(basis, basis.p)), EXIT_OK


def _cmd_decide(args) -> tuple[object, int]:
    basis_a, basis_b = _load_enumerable_bases([args.a, args.b])
    verdict = decide_isomorphism(basis_a, basis_a.p, basis_b, basis_b.p)
    return serialize.verdict_to_json(verdict), EXIT_OK


def _cmd_demo_p2(args) -> tuple[object, int]:
    return serialize.p2_report_to_json(p2_degeneracy_demo(seed=args.seed)), EXIT_OK


def _cmd_suite_run(args) -> tuple[object, int]:
    report = acceptance.run_suite(seed=args.seed, indices=args.criteria)
    return report, EXIT_OK if report["all_passed"] else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    # one subparser per leaf command: argparse refuses what its leaf does not declare
    parser = _Parser(prog="lpconv")
    parser.add_argument("--out", help="write the JSON result to this path")
    commands = parser.add_subparsers(dest="command", required=True)

    def actions(name, help=None, dest="action", parent=commands):
        return parent.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    def leaf(parent, name, handler, *positionals, help=None, **flags):
        p = parent.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(handler=handler)
        return p

    seed = {"type": int, "default": 0}
    group = actions("group", "construct groups and test isomorphism")
    make = actions("make", dest="family", parent=group)
    for family, fn in (("cyclic", make_cyclic), ("dihedral", make_dihedral),
                       ("symmetric", make_symmetric)):
        p = leaf(make, family, _cmd_make_order)
        p.add_argument("order", type=int)
        p.set_defaults(make=fn)
    leaf(make, "quaternion", _cmd_make_quaternion)
    leaf(make, "product", _cmd_make_product, "a", "b")
    leaf(group, "iso", _cmd_group_iso, "a", "b")

    measure = actions("measure", "derivatives on finite measure algebras")
    leaf(measure, "rnd", _cmd_measure_rnd, "sigma", "mu")
    leaf(measure, "check-rn", _cmd_measure_check_rn, "mu", "sigma", "rho",
         perm={"type": _parse_perm, "help": "comma separated atom permutation"})

    isom = actions("isom", "factor isometries and measure distances")
    leaf(isom, "decompose", _cmd_isom_decompose, "file",
         tol={"type": float, "help": "validation tolerance override"})
    leaf(isom, "distance", _cmd_isom_distance, "a", "b", seed=seed)

    leaf(commands, "norm", _cmd_norm, "file", help="certified operator norm sandwich",
         p={"type": float}, starts={"type": int, "default": 8}, seed=seed)

    algebra = actions("algebra", "build algebras and list isometries")
    leaf(algebra, "build", _cmd_algebra_build, "file", p={"type": float, "default": 3.0})
    leaf(algebra, "unitaries", _cmd_algebra_unitaries, "file")

    leaf(commands, "recover", _cmd_recover, "file", help="recover a group from an algebra")
    leaf(commands, "decide", _cmd_decide, "a", "b", help="decide algebra isomorphism")
    leaf(actions("demo", "run a named demonstration", dest="name"), "p2", _cmd_demo_p2,
         seed=seed)
    leaf(actions("suite", "run the acceptance criteria"), "run", _cmd_suite_run, seed=seed,
         criteria={"type": _parse_criteria, "help": "comma separated criterion numbers"})
    return parser


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    out = None  # an error found while parsing goes to stdout
    try:
        args = build_parser().parse_args(argv)
        out = args.out
        payload, code = args.handler(args)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code else EXIT_OK
    except UsageError as exc:
        _emit({"error": str(exc), "kind": "usage"}, out)
        return EXIT_USAGE
    except BudgetError as exc:
        _emit({"error": str(exc), "kind": "budget"}, out)
        return EXIT_BUDGET
    except SchemaError as exc:
        _emit({"error": str(exc), "kind": "malformed-input"}, out)
        return EXIT_BAD_JSON
    except FileNotFoundError as exc:
        _emit({"error": str(exc), "kind": "missing-file"}, out)
        return EXIT_BAD_JSON
    except (LpconvError, ValueError, KeyError, IndexError) as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__}, out)
        return EXIT_DOMAIN
    try:
        _emit(payload, out)
    except ValueError:  # NaN and infinity have no JSON form
        _emit({"error": "the result holds a non-finite number", "kind": "non-finite-result"}, out)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
