"""Command-line front end.

Subcommands: eval, gram, gns, verify, demo-switch, demo-fuzz.  Output is
deterministic for a fixed seed; JSON is emitted with sorted keys.  Exit
codes: 0 success, 1 verification failure, 2 expression parse error or
command-line usage error, 3 model validation error, 4 dimension mismatch,
5 Hilbert-space pipeline refusal.  Diagnostics go to standard error;
the environment variable CAUSAL_KERNEL_LOG (DEBUG, INFO, WARNING) controls
log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .algebra import AlgebraError
from .demo import demo_fuzz_report, demo_switch_report
from .expr import ExprError, eval_expr, parse
from .gns import GnsError, build_gns, report_obj
from .models import LoadedModel, ModelFormatError, load_model
from .states import ModelValidationError, StateError
from .verify import verify_state

log = logging.getLogger("causal_kernel")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_MODEL_ERROR = 3
EXIT_DIMENSION_ERROR = 4
EXIT_GNS_ERROR = 5


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _load(path: str) -> LoadedModel:
    log.info("loading model %s", path)
    model = load_model(path)
    log.info("loaded %s model over factors %s", model.family,
             model.algebra.factor_indices)
    return model


def _cmd_eval(args) -> int:
    model = _load(args.model)
    ast_b = parse(args.b)
    ast_a = parse(args.a)
    elem_b = eval_expr(ast_b, model.symbols, model.algebra)
    elem_a = eval_expr(ast_a, model.symbols, model.algebra)
    value = model.state.eval_bilinear(elem_b, elem_a)
    if args.format == "pretty":
        sys.stdout.write(f"omega(b, a) = {value.real:.12g} {value.imag:+.12g}i\n")
    else:
        sys.stdout.write(
            json.dumps({"re": value.real, "im": value.imag}, separators=(",", ":"))
            + "\n"
        )
    return EXIT_OK


def _cmd_gram(args) -> int:
    from .gns import WordBasis, gram

    model = _load(args.model)
    basis = WordBasis.build(model.algebra, args.max_len)
    g = gram(model.state, basis, jobs=args.jobs)
    if args.format == "csv":
        for row in g:
            sys.stdout.write(",".join(_format_complex(z) for z in row) + "\n")
    elif args.format == "pretty":
        sys.stdout.write(f"basis size {len(basis)} (words up to length {args.max_len})\n")
        for row in g:
            sys.stdout.write("  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "\n")
    else:
        obj = {
            "basisSize": len(basis),
            "maxLen": args.max_len,
            "gram": [[[z.real, z.imag] for z in row] for row in g],
        }
        sys.stdout.write(_dump_json(obj))
    return EXIT_OK


def _cmd_gns(args) -> int:
    model = _load(args.model)
    tol = args.tol if args.tol is not None else 1e-8
    result = build_gns(
        model.state,
        max_len=args.max_len,
        null_tol=tol,
        left_ideal_tol=tol,
        jobs=args.jobs,
    )
    obj = report_obj(result)
    if args.format == "pretty":
        for key in sorted(obj):
            sys.stdout.write(f"{key}: {json.dumps(obj[key])}\n")
    else:
        sys.stdout.write(_dump_json(obj))
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = _load(args.model)
    report = verify_state(model.state, seed=args.seed, tolerance_override=args.tol)
    sys.stdout.write(_dump_json(report))
    if not report["passed"]:
        failing = sorted(
            name for name, entry in report["properties"].items() if not entry["passed"]
        )
        sys.stderr.write(f"verification failed: {', '.join(failing)}\n")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_demo(report) -> int:
    def run(args) -> int:
        obj = report()
        if args.format == "pretty":
            for row in obj["rows"]:
                sys.stdout.write(json.dumps(row, sort_keys=True) + "\n")
        else:
            sys.stdout.write(_dump_json(obj))
        return EXIT_OK

    return run


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-kernel",
        description="evaluate generalized states over free-product algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json", help="output format (default json)")
    common.add_argument("--seed", type=int, default=42,
                        help="seed for randomized suites (default 42)")
    common.add_argument("--tol", type=float, default=None,
                        help="tolerance override where applicable")
    common.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="accepted for compatibility; changes neither the "
                             "computation nor the output")
    # gns needs max-len >= 1, or its representation domain would be empty
    any_len, gns_len = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    for holder, low in ((any_len, 0), (gns_len, 1)):
        holder.add_argument("--max-len", type=_int_at_least(low), default=3,
                            dest="max_len", help="word-basis length cap (default 3)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common, any_len],
                            help="evaluate omega(b, a) for two expressions")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--b", required=True, help="first-slot expression")
    p_eval.add_argument("--a", required=True, help="second-slot expression")
    p_eval.set_defaults(func=_cmd_eval)

    p_gram = sub.add_parser("gram", parents=[common, any_len],
                            help="Gram matrix over the truncated word basis")
    p_gram.add_argument("--model", required=True)
    p_gram.set_defaults(func=_cmd_gram)

    p_gns = sub.add_parser("gns", parents=[common, gns_len],
                           help="run the Hilbert-space construction pipeline")
    p_gns.add_argument("--model", required=True)
    p_gns.set_defaults(func=_cmd_gns)

    p_verify = sub.add_parser("verify", parents=[common, any_len],
                              help="run the randomized verification suites")
    p_verify.add_argument("--model", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_ds = sub.add_parser("demo-switch", parents=[common, any_len],
                          help="control-superposition walkthrough")
    p_ds.set_defaults(func=_cmd_demo(demo_switch_report))

    p_df = sub.add_parser("demo-fuzz", parents=[common, any_len],
                          help="weighted-branch walkthrough")
    p_df.set_defaults(func=_cmd_demo(demo_fuzz_report))

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("CAUSAL_KERNEL_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(name)s %(levelname)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExprError as exc:
        sys.stderr.write(f"{exc.line}:{exc.col}: {exc.message}\n")
        return EXIT_PARSE_ERROR
    except (ModelFormatError, ModelValidationError) as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return EXIT_MODEL_ERROR
    except (AlgebraError, StateError) as exc:
        sys.stderr.write(f"dimension error: {exc}\n")
        return EXIT_DIMENSION_ERROR
    except GnsError as exc:
        sys.stderr.write(f"gns error: {exc}\n")
        return EXIT_GNS_ERROR


if __name__ == "__main__":
    sys.exit(main())
