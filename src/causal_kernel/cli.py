"""Command-line front end.

Subcommands: eval, gram, gns, verify, demo-switch, demo-fuzz.  Output is
deterministic for a fixed seed; JSON is emitted with sorted keys.  Exit
codes: 0 success, 1 verification failure (a failed verify suite or demo
row), 2 expression parse error (including nesting of '(' and 'adj(' deeper
than expr.MAX_DEPTH), eval value not finite, or usage error
(including a flag the subcommand does not take), 3 model validation error,
4 dimension error (a mismatch, a product over the word-length cap, or a
factor too large to tabulate), 5 refusal by gns or gram (word-length cap or
word-basis size limit).  Diagnostics go to stderr; the environment
variable CAUSAL_KERNEL_LOG (DEBUG, INFO, WARNING) controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .algebra import AlgebraError
from .demo import demo_fuzz_report, demo_switch_report
from .expr import ExprError, eval_expr, parse
from .gns import (NULL_TOL, GnsError, WordBasis, build_gns, default_max_len, gram,
                  report_obj)
from .models import LoadedModel, ModelFormatError, load_model
from .states import ModelValidationError
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
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        sys.stderr.write(f"eval error: omega(b, a) = {value} is not finite\n")
        return EXIT_PARSE_ERROR
    if args.format == "pretty":
        sys.stdout.write(f"omega(b, a) = {value.real:.12g} {value.imag:+.12g}i\n")
    else:
        sys.stdout.write(
            json.dumps({"re": value.real, "im": value.imag}, separators=(",", ":"))
            + "\n"
        )
    return EXIT_OK


def _cmd_gram(args) -> int:
    model = _load(args.model)
    max_len = args.max_len
    if max_len is None:
        max_len = default_max_len(model.algebra)
    basis = WordBasis.build(model.algebra, max_len)
    g = gram(model.state, basis)
    if args.format == "csv":
        for row in g:
            sys.stdout.write(",".join(_format_complex(z) for z in row) + "\n")
    elif args.format == "pretty":
        sys.stdout.write(f"basis size {len(basis)} (words up to length {max_len})\n")
        for row in g:
            sys.stdout.write("  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "\n")
    else:
        obj = {
            "basisSize": len(basis),
            "maxLen": max_len,
            "gram": [[[z.real, z.imag] for z in row] for row in g],
        }
        sys.stdout.write(_dump_json(obj))
    return EXIT_OK


def _cmd_gns(args) -> int:
    model = _load(args.model)
    result = build_gns(model.state, max_len=args.max_len, tol=args.tol)
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
        failing = [i for i, row in enumerate(obj["rows"]) if not row["ok"]]
        if failing:
            sys.stderr.write(f"demo failed: rows {failing} are not ok\n")
            return EXIT_VERIFY_FAILED
        return EXIT_OK

    return run


def _number_where(kind, ok, what: str):
    """An argparse type: ``kind(text)``, refused unless ``ok`` holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it: "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, holding only the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="causal-kernel",
        description="evaluate generalized states over free-product algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, formats=("json", "pretty"), model=True):
        p = sub.add_parser(name, help=help)
        if model:
            p.add_argument("--model", required=True)
        if formats:
            p.add_argument("--format", choices=formats, default="json",
                           help="output format (default json)")
        p.set_defaults(func=func)
        return p

    def max_len(p, low):
        p.add_argument("--max-len", type=_number_where(int, lambda n: n >= low,
                                                        f"at least {low}"),
                       default=None,
                       dest="max_len",
                       help="word-basis length cap (default 3, or the largest "
                            "length below it the size limit admits)")

    p_eval = command("eval", _cmd_eval, "evaluate omega(b, a) for two expressions")
    p_eval.add_argument("--b", required=True, help="first-slot expression")
    p_eval.add_argument("--a", required=True, help="second-slot expression")

    p_gram = command("gram", _cmd_gram, "Gram matrix over the truncated word basis",
                     formats=("json", "csv", "pretty"))
    max_len(p_gram, 0)

    p_gns = command("gns", _cmd_gns, "run the Hilbert-space construction pipeline")
    # gns needs max-len >= 1, or its representation domain would be empty
    max_len(p_gns, 1)
    p_gns.add_argument("--tol", default=NULL_TOL,
                       type=_number_where(float, lambda t: 0 < t < 1,
                                          "a finite number in (0, 1)"),
                       help="null-space cutoff relative to the largest eigenvalue, "
                            "and left-ideal tolerance, in (0, 1) (default 1e-8)")

    p_verify = command("verify", _cmd_verify, "run the randomized verification suites",
                       formats=())
    p_verify.add_argument("--seed", default=42,
                          type=_number_where(int, lambda n: n >= 0, "an integer >= 0"),
                          help="seed for the randomized suites (default 42)")
    p_verify.add_argument("--tol", default=None,
                          type=_number_where(float, lambda t: 0 <= t < math.inf,
                                             "a finite number >= 0"),
                          help="one tolerance for every suite, finite and >= 0 "
                               "(default: per suite)")

    command("demo-switch", _cmd_demo(demo_switch_report),
            "control-superposition walkthrough", model=False)
    command("demo-fuzz", _cmd_demo(demo_fuzz_report),
            "weighted-branch walkthrough", model=False)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("CAUSAL_KERNEL_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    # an attribute that is not a level, such as BASIC_FORMAT, is an unknown name
    if not isinstance(level, int):
        level = logging.WARNING
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
    except AlgebraError as exc:
        sys.stderr.write(f"dimension error: {exc}\n")
        return EXIT_DIMENSION_ERROR
    except GnsError as exc:
        sys.stderr.write(f"gns error: {exc}\n")
        return EXIT_GNS_ERROR


if __name__ == "__main__":
    sys.exit(main())
