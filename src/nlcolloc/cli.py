"""Command-line front end: coefficient dumps, structural checks, and
truncation / global convergence studies.

Commands: coeffs, check, truncation, converge.  All options may also be
supplied through `--config <file>` holding newline-separated `key = value`
pairs (same keys as the flags); explicit flags override the file.
Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import math
import re
import sys
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class CliInvocation:
    command: str
    options: dict
    outputPath: str


def _parse_levels(raw: str, nested: bool) -> tuple:
    try:
        levels = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--levels: expected comma-separated integers, got {raw!r}")
    if not levels:
        raise UsageError("--levels: empty list")
    if not all(2 <= N <= coeffs.MAX_CELLS for N in levels):
        raise UsageError(
            f"--levels: each level must lie in 2..{coeffs.MAX_CELLS}, got {raw!r}")
    if nested and any(b <= a or b % a for a, b in zip(levels, levels[1:])):
        raise UsageError(
            f"--levels: levels must nest, each a larger multiple of the previous, got {raw!r}")
    return levels


def _parse_interval(raw: str) -> tuple:
    try:
        a, b = (float(tok) for tok in raw.split(","))
    except ValueError:
        raise UsageError(f"--interval: expected 'a,b', got {raw!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise UsageError(f"--interval: endpoints must be finite, got {raw!r}")
    if not a < b:
        raise UsageError(f"--interval: need a < b, got {raw!r}")
    return a, b


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


def _read_config(path: str) -> dict:
    pairs = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"--config: line {lineno} is not 'key = value': {line!r}")
                key, _, value = line.partition("=")
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path!r}: {exc}")
    return pairs


_OPTION_KEYS = ("scheme", "gamma", "interval", "levels", "function",
                "point", "format", "out")
_DEFAULTS = {"interval": "0,1", "function": "exp", "point": "center",
             "format": "csv", "out": None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):            # exit 2 with a one-line message
        raise UsageError(message)


def _attach_negative_values(argv) -> list:
    """Write `--flag -1,3` as `--flag=-1,3`.

    argparse reads a separate value that starts with '-' and is not a plain
    number, such as the interval -1,3, as an unknown option.
    """
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-\.?\d", tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def parse_args(argv) -> CliInvocation:
    parser = _Parser(prog="nlcolloc", description=__doc__, add_help=True)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scheme", choices=tuple(study.SCHEMES))
    parser.add_argument("--gamma")
    parser.add_argument("--interval")
    parser.add_argument("--levels")
    parser.add_argument("--function", choices=tuple(_FUNCTIONS))
    parser.add_argument("--point")
    parser.add_argument("--format", choices=("csv", "markdown"))
    parser.add_argument("--out")
    parser.add_argument("--config")
    args = parser.parse_args(_attach_negative_values(argv))

    raw = {k: getattr(args, k) for k in _OPTION_KEYS}
    if args.config:
        for key, value in _read_config(args.config).items():
            if key not in _OPTION_KEYS:
                raise UsageError(f"--config: unknown key {key!r}")
            if raw[key] is None:          # flags override the file
                raw[key] = value
    for key, value in _DEFAULTS.items():
        if raw[key] is None:
            raw[key] = value

    if raw["scheme"] is None:
        raise UsageError("--scheme is required (plc or pqc)")
    if raw["scheme"] not in study.SCHEMES:
        raise UsageError(f"--scheme: expected plc or pqc, got {raw['scheme']!r}")
    if raw["gamma"] is None:
        raise UsageError("--gamma is required")
    try:
        gamma = float(raw["gamma"])
    except ValueError:
        raise UsageError(f"--gamma: not a real number: {raw['gamma']!r}")
    if not 0.0 <= gamma < 1.0:
        raise UsageError(f"--gamma: must lie in [0, 1), got {gamma}")
    if raw["levels"] is None:
        raise UsageError("--levels is required")
    if raw["function"] not in _FUNCTIONS:
        raise UsageError(f"--function: unknown kind {raw['function']!r}")
    if raw["format"] not in ("csv", "markdown"):
        raise UsageError(f"--format: expected csv or markdown, got {raw['format']!r}")

    interval = _parse_interval(raw["interval"])
    options = {
        "scheme": raw["scheme"],
        "gamma": gamma,
        "interval": interval,
        "levels": _parse_levels(raw["levels"],
                                nested=args.command in ("truncation", "converge")),
        "function": raw["function"],
        "point": _parse_point(raw["point"], interval),
        "format": raw["format"],
    }
    return CliInvocation(command=args.command, options=options,
                         outputPath=raw["out"])


# --- command bodies ---------------------------------------------------------

# Dump names of the weight tables whose field names differ from the paper's.
_TABLE_NAMES = {"gammaB": "gamma", "dHalf": "d_half"}


def _cmd_coeffs(opt) -> str:
    params = KernelParams(opt["gamma"])
    a, b = opt["interval"]
    scheme = study.SCHEMES[opt["scheme"]]
    out = []
    for N in opt["levels"]:
        c = scheme.weights(params, UniformGrid(a, b, N))
        scale, *tables = (f.name for f in fields(c))   # scaling factor first
        out.append(f"# scheme = {opt['scheme']}, gamma = {opt['gamma']:g}, N = {N}")
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
    params = KernelParams(opt["gamma"])
    a, b = opt["interval"]
    scheme = study.SCHEMES[opt["scheme"]]
    out = []
    for N in opt["levels"]:
        grid = UniformGrid(a, b, N)
        op = scheme.structure(scheme.weights(params, grid))
        report = solver.check_structure(CollocationSystem(
            operator=op, rhs=np.zeros(len(op.diag)), scheme=opt["scheme"],
            nodes=scheme.nodes(grid)))
        out.append(f"N = {N}")
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
    config = study.StudyConfig(
        scheme=opt["scheme"], gamma=opt["gamma"], levels=opt["levels"],
        interval=opt["interval"], testFunction=_FUNCTIONS[opt["function"]](),
        evalPoints=(opt["point"],))
    report = study.run_truncation_study(config)[0]
    return study.emit_table(report, opt["format"])


def _cmd_converge(opt) -> str:
    config = study.StudyConfig(
        scheme=opt["scheme"], gamma=opt["gamma"], levels=opt["levels"],
        interval=opt["interval"], testFunction=_FUNCTIONS[opt["function"]]())
    report = study.run_global_study(config)
    return study.emit_table(report, opt["format"])


_BODIES = {"coeffs": _cmd_coeffs, "check": _cmd_check,
           "truncation": _cmd_truncation, "converge": _cmd_converge}


def run(invocation: CliInvocation) -> int:
    try:
        text = _BODIES[invocation.command](invocation.options)
    except (OracleError, SingularSystemError, FloatingPointError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    if invocation.outputPath:
        with open(invocation.outputPath, "w") as fh:
            fh.write(text)
    return 0


def main(argv=None) -> int:
    try:
        invocation = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(invocation)


if __name__ == "__main__":
    sys.exit(main())
