"""Grid-refinement experiment driver.

Runs truncation and global-convergence ladders over a list of
resolutions, estimates convergence orders from consecutive levels, and
renders the results as CSV or Markdown tables.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import plc, pqc, solver
from .grid import KernelParams, UniformGrid
from .oracle import TestFunction, exact_nonlocal_rhs, exponential

# Truncation entries below this magnitude sit at the double-precision
# rounding floor; they are flagged and excluded from order estimation.
FLOOR = 1e-12

# Absolute tolerance of every oracle value a study takes.
ORACLE_TOL = 1e-13

# The one place a scheme name is mapped to its definition: the module that
# provides weights(params, grid), structure(weights), nodes(grid),
# assemble(params, grid, problem) and truncation(params, grid, u, x, tol).
SCHEMES = {"plc": plc, "pqc": pqc}

# Eval points: "center" re-resolves to the midpoint junction (a+b)/2,
# "first" to the moving first interior node a+h; a float is used as-is.
EvalPoint = Union[str, float]


@dataclass(frozen=True)
class StudyConfig:
    scheme: str                        # 'plc' or 'pqc'
    gamma: float
    levels: tuple
    interval: tuple = (0.0, 1.0)
    testFunction: TestFunction = field(default_factory=exponential)
    evalPoints: tuple = ("center",)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        KernelParams(self.gamma)  # range check
        if not self.levels:
            raise ValueError("levels must be a non-empty increasing list")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if any(b % a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("each level must be a multiple of the previous")


@dataclass(frozen=True)
class StudyRow:
    N: int
    h: float
    error: float
    order: Optional[float]     # None on the first row or next to a floor entry
    floor: bool = False


@dataclass(frozen=True)
class StudyReport:
    rows: tuple
    label: str                 # which eval point / error the rows describe
    metadata: dict

    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.rows])

    def orders(self) -> list:
        return [r.order for r in self.rows]


def fit_orders(hs, errors, floor=FLOOR):
    """order[k] = log(err[k-1]/err[k]) / log(h[k-1]/h[k]); first entry None.

    Pairs touching a floor-flagged entry yield None, since log ratios of
    roundoff noise carry no information.
    """
    orders = [None]
    for k in range(1, len(errors)):
        if errors[k] < floor or errors[k - 1] < floor or errors[k] == 0.0:
            orders.append(None)
            continue
        orders.append(math.log(errors[k - 1] / errors[k])
                      / math.log(hs[k - 1] / hs[k]))
    return orders


def _resolve_point(point: EvalPoint, grid: UniformGrid) -> float:
    if point == "center":
        return 0.5 * (grid.a + grid.b)
    if point == "first":
        return grid.a + grid.h
    x = float(point)
    if not grid.a < x < grid.b:
        raise ValueError(f"eval point {x} outside ({grid.a}, {grid.b})")
    return x


def _build_rows(levels, hs, errors):
    orders = fit_orders(hs, errors)
    return tuple(
        StudyRow(N=n, h=h, error=e, order=o, floor=e < FLOOR)
        for n, h, e, o in zip(levels, hs, errors, orders))


def _metadata(config: StudyConfig) -> dict:
    return {
        "scheme": config.scheme,
        "gamma": config.gamma,
        "interval": config.interval,
        "levels": tuple(config.levels),
        "function": config.testFunction.kind,
    }


def run_truncation_study(config: StudyConfig) -> list:
    """One StudyReport per eval point: |I - I_k| at that point per level."""
    a, b = config.interval
    params = KernelParams(config.gamma)
    u = config.testFunction
    scheme = SCHEMES[config.scheme]

    per_point = {pt: [] for pt in config.evalPoints}
    hs = []
    for N in config.levels:
        grid = UniformGrid(a, b, N)
        hs.append(grid.h)
        for pt in config.evalPoints:
            x = _resolve_point(pt, grid)
            per_point[pt].append(
                scheme.truncation(params, grid, u, x, ORACLE_TOL))

    meta = _metadata(config)
    return [
        StudyReport(rows=_build_rows(config.levels, hs, per_point[pt]),
                    label=f"x={pt}", metadata=meta)
        for pt in config.evalPoints
    ]


def run_global_study(config: StudyConfig) -> StudyReport:
    """Manufacture f, assemble, solve; error is the max-norm over all
    interior collocation nodes (integer and half nodes for PQC)."""
    a, b = config.interval
    params = KernelParams(config.gamma)
    u = config.testFunction
    scheme = SCHEMES[config.scheme]

    hs, errors = [], []
    for N in config.levels:
        grid = UniformGrid(a, b, N)
        hs.append(grid.h)
        problem = exact_nonlocal_rhs(u, grid, params, nodes=config.scheme,
                                     tol=ORACLE_TOL)
        system = scheme.assemble(params, grid, problem)
        uh = solver.solve_dense(system)
        errors.append(float(np.max(np.abs(uh - u(system.nodes)))))

    return StudyReport(rows=_build_rows(config.levels, hs, errors),
                       label="max-norm error", metadata=_metadata(config))


# --- rendering --------------------------------------------------------------

def _fmt_error(row: StudyRow) -> str:
    return f"{row.error:.4e}"


def _fmt_h_markdown(h: float) -> str:
    """1/k when k*h = 1 to rounding, otherwise h as in the CSV."""
    k = round(1.0 / h)
    if math.isclose(k * h, 1.0, rel_tol=1e-12):
        return f"1/{k}"
    return f"{h:.10g}"


def _fmt_order(row: StudyRow) -> str:
    if row.order is None:
        return ""
    return f"{row.order:.4f}"


def emit_table(report: StudyReport, format: str = "csv") -> str:
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    if format == "csv":
        lines = ["N,h,error,order"]
        for r in report.rows:
            lines.append(f"{r.N},{r.h:.10g},{_fmt_error(r)},{_fmt_order(r)}")
        return "\n".join(lines) + "\n"
    if format == "markdown":
        lines = [f"| N | h | error ({report.label}) | order |",
                 "| --- | --- | --- | --- |"]
        for r in report.rows:
            err = _fmt_error(r) + (" (floor)" if r.floor else "")
            lines.append(f"| {r.N} | {_fmt_h_markdown(r.h)} | {err} "
                         f"| {_fmt_order(r)} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")

