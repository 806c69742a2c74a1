"""Command-line front end.

Subcommands::

    eval EXPR                 evaluate an expression
    convert --to FORM EXPR    evaluate, then convert to polar/cartesian
    roots EXPR N              all N-th roots of an expression's value
    audit [...]               run the law audit and emit the report

Exit codes: 0 success, 1 parse/type/usage error (including an expression
nested deeper than expr.MAX_DEPTH, a root order outside 1 ..
algebra.MAX_ROOT_ORDER, a scalar or root-set expression given to convert or
roots, an option out of range or repeated, an audit of more than 2**32
samples or of a dimension above audit.MAX_DIM, an unknown --law or --domain
and an unwritable --out file, all found before any work; and a result that
cannot be written, to stdout or to the --out file, reported in one
"hsc: cannot write output" line), 2 arithmetic error (zero divisor,
overflow), 3 audit found failing law samples (the report is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from ._version import VERSION

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ARITHMETIC = 2
EXIT_AUDIT_FAILURES = 3
MAX_DIGITS = 999  # enough for the exact decimal value of any float


class _Once(argparse.Action):
    """Store an argument's value; giving it a second time is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in parser.given:
            raise argparse.ArgumentError(self, "may not be repeated")
        parser.given.add(self.dest)
        setattr(namespace, self.dest, values)


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Once)  # the default action: only --dim and --law repeat
        self.given: set[str] = set()

    def parse_known_args(self, args=None, namespace=None):
        self.given = set()  # the arguments seen in this parse
        return super().parse_known_args(args, namespace)

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
    from .algebra import MAX_ROOT_ORDER  # loaded with the package

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
    p_roots.add_argument("n", type=int, help=f"root order (1 to {MAX_ROOT_ORDER})")

    # only the options given reach the audit, which owns every default and check
    p_audit = sub.add_parser(
        "audit", help="run the law audit", argument_default=argparse.SUPPRESS
    )
    p_audit.add_argument(
        "--dim", dest="dims", metavar="DIM", type=int, action="append",
        help="dimension to audit (repeatable)",
    )
    p_audit.add_argument("--samples", type=int)
    p_audit.add_argument("--seed", type=int)
    p_audit.add_argument("--law", action="append", help="law to audit (repeatable; default: all)")
    p_audit.add_argument("--domain")
    p_audit.add_argument("--abs-eps", type=float)
    p_audit.add_argument("--rel-eps", type=float)
    p_audit.add_argument("--format", choices=["json", "markdown"], default="json")
    p_audit.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def _evaluate(args, command: str | None = None) -> tuple:
    """The expression's value in coordinate form, and its orientation. A
    command named here needs a number: the expression's static type is
    checked before it is evaluated."""
    from . import expr as expr_mod

    if not 0 <= args.digits <= MAX_DIGITS:
        raise argparse.ArgumentError(None, f"--digits must be 0 to {MAX_DIGITS}, got {args.digits}")
    tree, kind = expr_mod._parse_typed(args.expr)
    if command and kind[0] not in ("ndim", "s3"):
        raise expr_mod.ExprTypeError(0, f"{command} expects a number-valued expression")
    orientation = expr_mod.Orientation(args.orientation)
    return expr_mod._cart(expr_mod.evaluate(tree, orientation)), orientation


def _stdout():
    """sys.stdout, which the interpreter sets to None when descriptor 1 was
    closed at start: a result cannot be written there."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    return sys.stdout


def _emit(value, args) -> None:
    from . import expr as expr_mod

    if args.format == "json":
        import json  # loaded here: text output, the default, does not use it

        text = json.dumps(expr_mod.value_to_dict(value))
    else:
        text = expr_mod.format_value(value, args.digits)
    # flushed, so that a failed write shows while main can report it
    print(text, file=_stdout(), flush=True)


def _cmd_eval(args) -> int:
    # eval reports coordinate form; polar stays available via `convert`
    _emit(_evaluate(args)[0], args)
    return EXIT_OK


def _cmd_convert(args) -> int:
    from .core import to_polar

    value, orientation = _evaluate(args, "convert")
    _emit(to_polar(value, orientation) if args.to == "polar" else value, args)
    return EXIT_OK


def _cmd_roots(args) -> int:
    from . import algebra, expr

    expr.check_root_order(args.n)
    value, orientation = _evaluate(args, "roots")
    _emit(algebra.nth_roots(value, args.n, orientation), args)
    return EXIT_OK


def _cmd_audit(args) -> int:
    from . import audit  # loaded here: no other command runs it

    opts = vars(args)
    eps = {k: opts[k] for k in ("abs_eps", "rel_eps") if k in opts}
    try:  # the options and the report file, checked before the audit runs
        cfg = audit.AuditConfig(
            **{k: opts[k] for k in ("dims", "samples", "seed", "domain") if k in opts},
            **({"tolerance": audit.Tolerance(**eps)} if eps else {}),
        )
        laws = audit.select_laws(opts.get("law"))
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except (ValueError, OSError) as exc:
        raise argparse.ArgumentError(None, str(exc)) from None
    with out or contextlib.nullcontext(_stdout()) as fh:
        report = audit.run_audit(cfg, laws)
        render = audit.report_to_json if args.format == "json" else audit.report_to_markdown
        print(render(report), file=fh, flush=True)
    return EXIT_AUDIT_FAILURES if audit.has_failures(report) else EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "convert": _cmd_convert,
    "roots": _cmd_roots,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    usage = (argparse.ArgumentError,)
    if args.command != "audit":  # the expression's parse and type errors are usage errors too
        from .expr import ExprTypeError, ParseError

        usage += (ParseError, ExprTypeError)
    try:
        return _COMMANDS[args.command](args)
    except usage as exc:
        print(f"hsc: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        print(f"hsc: arithmetic error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC
    except OSError as exc:
        print(f"hsc: cannot write output: {exc}", file=sys.stderr)
        try:
            if sys.stdout is not None:  # None: descriptor 1 was closed at start
                sys.stdout.flush()
        except OSError:  # what stdout holds would fail again at exit: send it nowhere
            with contextlib.suppress(OSError):  # a stream with no descriptor
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
