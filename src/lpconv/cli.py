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
from .isometry import lamperti_decompose, lamperti_distance
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

NORM_STARTS_BUDGET = 1000  # random ascent starts one norm call may ask for


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
        return json.load(fh)


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
        raise UsageError(f"bad permutation flag: {text}") from exc


def _order_arg(family: str, params: list[str]) -> int:
    if len(params) == 1:
        try:
            return int(params[0])
        except ValueError:
            pass
    raise UsageError(f"group make {family} takes one integer order, got {params}")


def _cmd_group(args) -> tuple[object, int]:
    rest = args.rest
    if args.action == "make":
        if not rest:
            raise UsageError("group make needs a family name")
        family, params = rest[0], rest[1:]
        if family == "cyclic":
            g = make_cyclic(_order_arg(family, params))
        elif family == "dihedral":
            g = make_dihedral(_order_arg(family, params))
        elif family == "symmetric":
            g = make_symmetric(_order_arg(family, params))
        elif family == "quaternion":
            g = make_quaternion()
        elif family == "product":
            if len(params) != 2:
                raise UsageError("group make product takes two group files")
            g = make_direct_product(serialize.group_from_json(_load(params[0])),
                                    serialize.group_from_json(_load(params[1])))
        else:
            raise UsageError(f"unknown family {family}")
        return serialize.group_to_json(g), EXIT_OK
    # action == "iso"
    if len(rest) != 2:
        raise UsageError("group iso takes two group files")
    a = serialize.group_from_json(_load(rest[0]))
    b = serialize.group_from_json(_load(rest[1]))
    return serialize.iso_to_json(is_isomorphic(a, b)), EXIT_OK


def _cmd_measure(args) -> tuple[object, int]:
    if args.action == "rnd":
        if len(args.files) != 2:
            raise UsageError("measure rnd takes <sigma.json> <mu.json>")
        sigma_weights = serialize.weights_from_json(_load(args.files[0]))
        algebra = serialize.algebra_weights_from_json(_load(args.files[1]))
        sigma = Valuation(algebra, sigma_weights)
        return serialize.function_to_json(rn_derivative(sigma, algebra.mu())), EXIT_OK
    # action == "check-rn"
    if len(args.files) != 3:
        raise UsageError("measure check-rn takes <mu.json> <sigma.json> <rho.json>")
    algebra = serialize.algebra_weights_from_json(_load(args.files[0]))
    mu = algebra.mu()
    sigma = Valuation(algebra, serialize.weights_from_json(_load(args.files[1])))
    rho = Valuation(algebra, serialize.weights_from_json(_load(args.files[2])))
    perm = _parse_perm(args.perm) if args.perm else tuple(range(algebra.atoms))
    phi = BooleanAutomorphism(algebra, perm)
    report = rn_chain_rules(mu, sigma, rho, phi)
    return {"product_deviation": report.product_deviation,
            "push_deviation": report.push_deviation,
            "max_deviation": report.max_deviation}, EXIT_OK


def _cmd_isom(args) -> tuple[object, int]:
    if args.action == "decompose":
        op = serialize.operator_from_json(_load(args.files[0]))
        kwargs = {}
        if args.tol is not None:
            kwargs = {"support_tol": args.tol, "isometry_tol": args.tol}
        form = lamperti_decompose(op, **kwargs)
        return {"phases": serialize.function_to_json(form.f),
                "perm": list(form.phi.perm)}, EXIT_OK
    # action == "distance"
    if len(args.files) != 2:
        raise UsageError("isom distance takes two operator files")
    op_a = serialize.operator_from_json(_load(args.files[0]))
    op_b = serialize.operator_from_json(_load(args.files[1]))
    if op_a.context != op_b.context:
        raise LpconvError("operators live on different contexts")
    form_a = lamperti_decompose(op_a)
    form_b = lamperti_decompose(op_b)
    est = pnorm_estimate(op_a - op_b, op_a.context, seed=args.seed)
    return {"distance": lamperti_distance(form_a, form_b, op_a.context),
            "estimate": {"lower": est.lower, "upper": est.upper}}, EXIT_OK


def _cmd_norm(args) -> tuple[object, int]:
    if args.starts < 0:
        raise UsageError(f"--starts takes a count of at least 0, got {args.starts}")
    if args.starts > NORM_STARTS_BUDGET:
        raise BudgetError(f"--starts capped at {NORM_STARTS_BUDGET}")
    op = serialize.operator_from_json(_load(args.file))
    ctx = op.context
    if args.p is not None:
        from .isometry import LpContext
        ctx = LpContext(ctx.algebra, args.p)
    est = pnorm_estimate(op.matrix, ctx, starts=args.starts, seed=args.seed)
    return serialize.norm_estimate_to_json(est), EXIT_OK


def _cmd_algebra(args) -> tuple[object, int]:
    if args.action == "build":
        g = serialize.group_from_json(_load(args.files[0]))
        basis = convolver_algebra(ConvolutionContext(g, args.p))
        return serialize.algebra_basis_to_json(basis), EXIT_OK
    # action == "unitaries"
    basis, = _load_enumerable_bases(args.files[:1])
    units = unitary_group_enumerate(basis, basis.p)
    return {"count": len(units),
            "classes": [serialize.phased_permutation_to_json(u) for u in units]}, EXIT_OK


def _cmd_recover(args) -> tuple[object, int]:
    basis, = _load_enumerable_bases([args.file])
    rec = recover_group(basis, basis.p)
    return serialize.recovered_group_to_json(rec), EXIT_OK


def _cmd_decide(args) -> tuple[object, int]:
    basis_a, basis_b = _load_enumerable_bases(args.files)
    verdict = decide_isomorphism(basis_a, basis_a.p, basis_b, basis_b.p)
    return serialize.verdict_to_json(verdict), EXIT_OK


def _cmd_demo(args) -> tuple[object, int]:
    report = p2_degeneracy_demo(seed=args.seed)
    return serialize.p2_report_to_json(report), EXIT_OK


def _cmd_suite(args) -> tuple[object, int]:
    indices = None
    if args.criteria:
        count = len(acceptance.ALL_CRITERIA)
        parts = [v.strip() for v in args.criteria.split(",")]
        if not all(v.isdecimal() and 1 <= int(v) <= count for v in parts):
            raise UsageError(f"--criteria takes comma separated numbers 1-{count}, "
                             f"got {args.criteria!r}")
        indices = [int(v) for v in parts]
    report = acceptance.run_suite(seed=args.seed, indices=indices)
    return report, EXIT_OK if report["all_passed"] else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lpconv")
    parser.add_argument("--out", help="write the JSON result to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="construct groups and test isomorphism")
    p_group.add_argument("action", choices=["make", "iso"])
    p_group.add_argument("rest", nargs="*",
                         help="make: <family> <params...>; iso: <a.json> <b.json>")
    p_group.set_defaults(handler=_cmd_group)

    p_measure = sub.add_parser("measure", help="derivatives on finite measure algebras")
    p_measure.add_argument("action", choices=["rnd", "check-rn"])
    p_measure.add_argument("files", nargs="+")
    p_measure.add_argument("--perm", help="comma separated atom permutation")
    p_measure.set_defaults(handler=_cmd_measure)

    p_isom = sub.add_parser("isom", help="factor isometries and measure distances")
    p_isom.add_argument("action", choices=["decompose", "distance"])
    p_isom.add_argument("files", nargs="+")
    p_isom.add_argument("--tol", type=float, help="validation tolerance override")
    p_isom.add_argument("--seed", type=int, default=0)
    p_isom.set_defaults(handler=_cmd_isom)

    p_norm = sub.add_parser("norm", help="certified operator norm sandwich")
    p_norm.add_argument("file")
    p_norm.add_argument("--p", type=float)
    p_norm.add_argument("--starts", type=int, default=8)
    p_norm.add_argument("--seed", type=int, default=0)
    p_norm.set_defaults(handler=_cmd_norm)

    p_algebra = sub.add_parser("algebra", help="build algebras and list isometries")
    p_algebra.add_argument("action", choices=["build", "unitaries"])
    p_algebra.add_argument("files", nargs="+")
    p_algebra.add_argument("--p", type=float, default=3.0)
    p_algebra.set_defaults(handler=_cmd_algebra)

    p_recover = sub.add_parser("recover", help="recover a group from an algebra")
    p_recover.add_argument("file")
    p_recover.set_defaults(handler=_cmd_recover)

    p_decide = sub.add_parser("decide", help="decide algebra isomorphism")
    p_decide.add_argument("files", nargs=2)
    p_decide.set_defaults(handler=_cmd_decide)

    p_demo = sub.add_parser("demo", help="run a named demonstration")
    p_demo.add_argument("name", choices=["p2"])
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(handler=_cmd_demo)

    p_suite = sub.add_parser("suite", help="run the acceptance criteria")
    p_suite.add_argument("action", choices=["run"])
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--criteria", help="comma separated criterion numbers")
    p_suite.set_defaults(handler=_cmd_suite)

    return parser


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit({"error": str(exc), "kind": "usage"}, None)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        payload, code = args.handler(args)
    except UsageError as exc:
        _emit({"error": str(exc), "kind": "usage"}, args.out)
        return EXIT_USAGE
    except BudgetError as exc:
        _emit({"error": str(exc), "kind": "budget"}, args.out)
        return EXIT_BUDGET
    except (SchemaError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc), "kind": "malformed-input"}, args.out)
        return EXIT_BAD_JSON
    except FileNotFoundError as exc:
        _emit({"error": str(exc), "kind": "missing-file"}, args.out)
        return EXIT_BAD_JSON
    except (LpconvError, ValueError, KeyError, IndexError) as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__}, args.out)
        return EXIT_DOMAIN
    try:
        _emit(payload, args.out)
    except ValueError:  # NaN and infinity have no JSON form
        _emit({"error": "the result holds a non-finite number", "kind": "non-finite-result"},
              args.out)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
