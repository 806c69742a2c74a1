"""Command-line front end.

Subcommands::

    eval EXPR                 evaluate an expression
    convert --to FORM EXPR    evaluate, then convert to polar/cartesian
    roots EXPR N              all N-th roots of an expression's value
    audit [...]               run the law audit and emit the report

Exit codes: 0 success, 1 parse/type/usage error (including an expression
nested deeper than expr.MAX_DEPTH, a root order outside 1 ..
expr.MAX_ROOT_ORDER, an option out of range or repeated and an unwritable
--out file, all found before any work), 2 arithmetic error (zero divisor,
overflow), 3 audit found failing law samples (the report is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import algebra
from . import audit as audit_mod
from . import expr as expr_mod
from ._version import VERSION
from .core import CartesianHC, Orientation, Tolerance, to_polar
from .expr import ExprTypeError, ParseError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ARITHMETIC = 2
EXIT_AUDIT_FAILURES = 3
MAX_DIGITS = 999  # enough for the exact decimal value of any float


class _ArgumentParser(argparse.ArgumentParser):
    # usage mistakes share the parse-error exit code, not argparse's 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_expr_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--orientation",
        choices=["ccw", "cw"],
        default="ccw",
        help="angle-chain accumulation order (default: ccw)",
    )
    p.add_argument(
        "--digits", type=int, default=12, help="significant digits in text output"
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="hsc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hsc {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    _add_expr_flags(p_eval)
    p_eval.add_argument("expr", help="expression text")

    p_conv = sub.add_parser("convert", help="convert a value between forms")
    _add_expr_flags(p_conv)
    p_conv.add_argument("--to", choices=["polar", "cartesian"], required=True)
    p_conv.add_argument("expr", help="expression text")

    p_roots = sub.add_parser("roots", help="all n-th roots of a value")
    _add_expr_flags(p_roots)
    p_roots.add_argument("expr", help="expression text")
    p_roots.add_argument("n", type=int, help=f"root order (1 to {expr_mod.MAX_ROOT_ORDER})")

    p_audit = sub.add_parser("audit", help="run the law audit")
    p_audit.add_argument(
        "--dim", type=int, action="append", help="dimension to audit (repeatable)"
    )
    p_audit.add_argument("--samples", type=int, default=1000)
    p_audit.add_argument("--seed", type=int, default=42)
    p_audit.add_argument(
        "--law",
        action="append",
        choices=list(audit_mod.LAW_IDS),
        help="law to audit (repeatable; default: all)",
    )
    p_audit.add_argument(
        "--domain",
        choices=[d.value for d in audit_mod.Domain],
        default=audit_mod.Domain.UNRESTRICTED.value,
    )
    p_audit.add_argument("--abs-eps", type=float, default=1e-12)
    p_audit.add_argument("--rel-eps", type=float, default=1e-9)
    p_audit.add_argument("--format", choices=["json", "markdown"], default="json")
    p_audit.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _evaluate(args) -> tuple[expr_mod.Value, Orientation]:
    if not 0 <= args.digits <= MAX_DIGITS:
        raise argparse.ArgumentError(None, f"--digits must be 0 to {MAX_DIGITS}, got {args.digits}")
    tree = expr_mod.parse(args.expr)
    orientation = Orientation(args.orientation)
    return expr_mod.evaluate(tree, orientation), orientation


def _emit(value: expr_mod.Value, args) -> None:
    if args.format == "json":
        print(json.dumps(expr_mod.value_to_dict(value)))
    else:
        print(expr_mod.format_value(value, args.digits))


def _number(args, command: str) -> tuple[CartesianHC, Orientation]:
    """The expression's value in coordinate form; it must be a number."""
    value, orientation = _evaluate(args)
    if isinstance(value, (float, algebra.RootSet)):
        raise ExprTypeError(0, f"{command} expects a number-valued expression")
    return expr_mod._cart(value), orientation


def _cmd_eval(args) -> int:
    # eval reports coordinate form; polar stays available via `convert`
    _emit(expr_mod._cart(_evaluate(args)[0]), args)
    return EXIT_OK


def _cmd_convert(args) -> int:
    value, orientation = _number(args, "convert")
    _emit(to_polar(value, orientation) if args.to == "polar" else value, args)
    return EXIT_OK


def _cmd_roots(args) -> int:
    expr_mod.check_root_order(args.n)
    value, orientation = _number(args, "roots")
    _emit(algebra.nth_roots(value, args.n, orientation), args)
    return EXIT_OK


def _cmd_audit(args) -> int:
    try:  # the options and the report file, checked before the audit runs
        cfg = audit_mod.AuditConfig(
            **({"dims": tuple(args.dim)} if args.dim else {}),
            samples=args.samples,
            seed=args.seed,
            tolerance=Tolerance(args.abs_eps, args.rel_eps),
            domain=audit_mod.Domain(args.domain),
        )
        laws = audit_mod.select_laws(args.law)
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except (ValueError, OSError) as exc:
        raise argparse.ArgumentError(None, str(exc)) from None
    with out or contextlib.nullcontext(sys.stdout) as fh:
        report = audit_mod.run_audit(cfg, laws)
        if args.format == "json":
            fh.write(audit_mod.report_to_json(report) + "\n")
        else:
            fh.write(audit_mod.report_to_markdown(report) + "\n")
    return EXIT_AUDIT_FAILURES if audit_mod.has_failures(report) else EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "convert": _cmd_convert,
    "roots": _cmd_roots,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ExprTypeError, argparse.ArgumentError) as exc:
        print(f"hsc: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        print(f"hsc: arithmetic error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC


if __name__ == "__main__":
    sys.exit(main())
