"""Command-line front end: coefficient dumps, structural checks, and
truncation / global convergence studies.

Commands: coeffs, check, truncation, converge.  All options may also be
supplied through `--config <file>` holding newline-separated `key = value`
pairs (same keys as the flags).  Each line is read as the flag `--key=value`
placed before the command line's, so it gets the same checks and explicit
flags override it.
Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import coeffs, solver, study
from .grid import KernelParams, UniformGrid
from .oracle import OracleError, constant, exponential, monomial
from .solver import CollocationSystem, SingularSystemError

COMMANDS = ("coeffs", "check", "truncation", "converge")

_FUNCTIONS = {
    "const": constant,
    "linear": lambda: monomial(1),
    "quadratic": lambda: monomial(2),
    "exp": exponential,
}


class UsageError(Exception):
    """Invalid invocation; message names the offending flag."""


def _flag_type(parse):
    """An argparse type whose ValueError text becomes the flag's message."""
    def convert(raw):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


@_flag_type
def _gamma(raw: str) -> float:
    return KernelParams(float(raw)).gamma


@_flag_type
def _interval(raw: str) -> tuple:
    ends = tuple(float(tok) for tok in raw.split(","))
    if len(ends) != 2:
        raise ValueError(f"expected 'a,b', got {raw!r}")
    return ends


@_flag_type
def _levels(raw: str) -> tuple:
    levels = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    if not levels:
        raise ValueError("empty list")
    # the library would reject these only when it meets them, with exit 1
    if not all(2 <= N <= coeffs.MAX_CELLS for N in levels):
        raise ValueError(
            f"each level must lie in 2..{coeffs.MAX_CELLS}, got {raw!r}")
    return levels


def _parse_point(raw: str, interval: tuple):
    if raw in ("center", "first"):
        return raw
    try:
        x = float(raw[2:]) if raw.startswith("x=") else None
    except ValueError:
        x = None
    if x is None:
        raise UsageError(f"--point: expected center, first or x=<real>, got {raw!r}")
    a, b = interval
    if not a < x < b:
        raise UsageError(f"--point: {raw} lies outside --interval ({a:g}, {b:g})")
    return x


class _Parser(argparse.ArgumentParser):
    def error(self, message):            # exit 2 with a one-line message
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nlcolloc", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scheme", required=True, choices=tuple(study.SCHEMES))
    parser.add_argument("--gamma", required=True, type=_gamma)
    parser.add_argument("--interval", type=_interval, default="0,1")
    parser.add_argument("--levels", required=True, type=_levels)
    parser.add_argument("--function", choices=tuple(_FUNCTIONS), default="exp")
    parser.add_argument("--point", default="center")
    parser.add_argument("--format", choices=("csv", "markdown"), default="csv")
    parser.add_argument("--out")
    parser.add_argument("--config")
    return parser


def _config_args(path: str, parser: _Parser) -> list:
    """The `key = value` lines of a config file as `--key=value` arguments."""
    args = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"--config: line {lineno} is not 'key = value': {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                # exact option names only: no argparse prefix abbreviations
                if key == "config" or f"--{key}" not in parser._option_string_actions:
                    raise UsageError(f"--config: unknown key {key!r}")
                args.append(f"--{key}={value.strip()}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"--config: cannot read {path!r}: {exc}")
    return args


def _attach_negative_values(argv, options) -> list:
    """Write `--flag -1,3` as `--flag=-1,3`.

    argparse reads a separate value that starts with '-' and is not a plain
    number, such as the interval -1,3 or -inf,0, as an unknown option.  So
    every single-dash token that is not itself an option (-h) is attached to
    the flag before it.
    """
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and tok.startswith("-") and not tok.startswith("--")
                and tok not in options):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def parse_args(argv) -> argparse.Namespace:
    """Parse the command line; config lines go first, so flags override them."""
    parser = _build_parser()
    argv = _attach_negative_values(argv, parser._option_string_actions)
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    args = parser.parse_args(
        (_config_args(config, parser) if config else []) + argv)
    try:                         # the grid's rules: finite h, distinct nodes
        args.grids = [UniformGrid(*args.interval, N) for N in args.levels]
    except ValueError as exc:
        raise UsageError(f"--interval: {exc}") from None
    args.point = _parse_point(args.point, args.interval)
    if args.command in ("truncation", "converge"):
        try:                     # the study's rules: the levels must nest
            args.study = study.StudyConfig(
                scheme=args.scheme, gamma=args.gamma, levels=args.levels,
                interval=args.interval,
                testFunction=_FUNCTIONS[args.function](),
                evalPoints=(args.point,))
        except ValueError as exc:
            raise UsageError(f"--levels: {exc}, got {args.levels}") from None
    return args


# --- command bodies ---------------------------------------------------------

# Dump names of the weight tables whose field names differ from the paper's.
_TABLE_NAMES = {"gammaB": "gamma", "dHalf": "d_half"}


def _cmd_coeffs(opt) -> str:
    params = KernelParams(opt.gamma)
    scheme = study.SCHEMES[opt.scheme]
    out = []
    for grid in opt.grids:
        c = scheme.weights(params, grid)
        scale, *tables = (f.name for f in fields(c))   # scaling factor first
        out.append(f"# scheme = {opt.scheme}, gamma = {opt.gamma:g}, "
                   f"N = {grid.N}")
        out.append(f"{scale} = {getattr(c, scale):.17g}")
        for name in tables:
            out.append(f"[{_TABLE_NAMES.get(name, name)}]")
            out.append(coeffs.dump_table(getattr(c, name)).rstrip("\n"))
    return "\n".join(out) + "\n"


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "n/a"
    if isinstance(v, np.ndarray):
        return f"min {np.min(v):.10e}, max {np.max(v):.10e}"
    if isinstance(v, float):
        return f"{v:.10e}"
    return str(v)


def _cmd_check(opt) -> str:
    params = KernelParams(opt.gamma)
    scheme = study.SCHEMES[opt.scheme]
    out = []
    for grid in opt.grids:
        op = scheme.structure(scheme.weights(params, grid))
        report = solver.check_structure(CollocationSystem(
            operator=op, rhs=np.zeros(len(op.diag)), nodes=scheme.nodes(grid)))
        out.append(f"N = {grid.N}")
        for name, value in (
                ("diagPositive", report.diagPositive),
                ("offDiagNegative", report.offDiagNegative),
                ("rowSums", report.rowSums),
                ("minRowSlack", report.minRowSlack),
                # min_i (a_ii - r_i), the Gershgorin bound, is the row slack
                ("gershgorinLowerBound", report.minRowSlack),
                ("symmetric", report.symmetric),
                ("spdFactorizationOk", report.spdFactorizationOk)):
            out.append(f"{name} = {_fmt_value(value)}")
    return "\n".join(out) + "\n"


def _cmd_truncation(opt) -> str:
    report = study.run_truncation_study(opt.study)[0]
    return study.emit_table(report, opt.format)


def _cmd_converge(opt) -> str:
    return study.emit_table(study.run_global_study(opt.study), opt.format)


_BODIES = {"coeffs": _cmd_coeffs, "check": _cmd_check,
           "truncation": _cmd_truncation, "converge": _cmd_converge}


def run(args: argparse.Namespace) -> int:
    try:
        text = _BODIES[args.command](args)
    except (OracleError, SingularSystemError, FloatingPointError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"--out: cannot write {args.out!r}: {exc}")
    return 0


def main(argv=None) -> int:
    try:
        return run(parse_args(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
