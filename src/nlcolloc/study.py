"""Grid-refinement experiment driver.

Runs truncation and global-convergence ladders over a list of
resolutions, estimates convergence orders from consecutive levels, and
renders the results as CSV or Markdown tables.
"""

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Optional, Union

import numpy as np

from . import plc, pqc, solver
from .grid import KernelParams, UniformGrid
from .oracle import (ManufacturedProblem, TestFunction, exact_nonlocal_rhs,
                     exponential, singular_integrals)

# Truncation entries below this magnitude sit at the double-precision
# rounding floor; they are flagged and excluded from order estimation.
FLOOR = 1e-12

# The one place a scheme name is mapped to its definition: the module that
# provides the interface set out in collocation's docstring.
SCHEMES = {"plc": plc, "pqc": pqc}

# Eval points: "center" resolves to the lattice point a + (b-a)/2 (the
# midpoint junction for even N), "first" to the moving first node
# lattice(1)[1]; a float is used as-is (the oracle rejects one outside (a, b)).
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
        for N in self.levels:   # UniformGrid's rule; the nesting check divides
            if not (isinstance(N, Integral) and N >= 2):
                raise ValueError(f"each level must be an integer >= 2, got {N!r}")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if any(b % a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("each level must be a multiple of the previous")
        # the interval's rules; each coarser lattice is a subset of the finest
        UniformGrid(*self.interval, self.levels[-1])
        for pt in self.evalPoints:
            if pt not in ("center", "first") and not isinstance(pt, Real):
                raise ValueError(f"unknown eval point {pt!r}")


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


def fit_orders(hs, errors):
    """order[k] = log(err[k-1]/err[k]) / log(h[k-1]/h[k]); first entry None.

    Pairs touching an entry below FLOOR yield None, since log ratios of
    roundoff noise carry no information.
    """
    orders = [None]
    for k in range(1, len(errors)):
        if errors[k] < FLOOR or errors[k - 1] < FLOOR:
            orders.append(None)
            continue
        orders.append(math.log(errors[k - 1] / errors[k])
                      / math.log(hs[k - 1] / hs[k]))
    return orders


def _resolve_point(point: EvalPoint, grid: UniformGrid) -> float:
    if point == "center":
        return float(grid.lattice(2)[grid.N])
    if point == "first":
        return float(grid.lattice(1)[1])
    return float(point)


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
    """One StudyReport per entry of evalPoints: |I - I_k| at that point per
    level.

    The oracle is called once, on the distinct points of the whole ladder
    ("center" and a float are the same point at every level).  Its values
    are elementwise in x, so each equals that of a one-point call.
    """
    a, b = config.interval
    params = KernelParams(config.gamma)
    u = config.testFunction
    scheme = SCHEMES[config.scheme]

    grids = [UniformGrid(a, b, N) for N in config.levels]
    xs = [[_resolve_point(pt, grid) for pt in config.evalPoints]
          for grid in grids]
    # the oracle first: where u overflows it raises before the samples warn
    distinct, where = np.unique(np.ravel(xs), return_inverse=True)
    exact = singular_integrals(u, (a, b), params, distinct)[where]
    errors = []                # one row per level, one entry per eval point
    for grid, points, values in zip(grids, xs,
                                    exact.reshape(np.shape(xs)).tolist()):
        samples = u(scheme.lattice(grid))
        errors.append([
            abs(value - scheme.interpolant_integral(params, grid, samples, x))
            for x, value in zip(points, values)])

    hs = [grid.h for grid in grids]
    meta = _metadata(config)
    return [
        StudyReport(rows=_build_rows(config.levels, hs, column),
                    label=f"x={pt}", metadata=meta)
        for pt, column in zip(config.evalPoints, zip(*errors))
    ]


def run_global_study(config: StudyConfig) -> StudyReport:
    """Manufacture f, assemble, solve; error is the max-norm over all
    interior collocation nodes (integer and half nodes for PQC).

    The right-hand side is manufactured once, at the finest level.  Each
    level divides the next, so a coarser level's lattice is every stride-th
    point of the finest, bit for bit, and the level takes the same slice of
    the finest f, whose values are elementwise in x.
    """
    a, b = config.interval
    params = KernelParams(config.gamma)
    u = config.testFunction
    scheme = SCHEMES[config.scheme]

    grids = [UniformGrid(a, b, N) for N in config.levels]
    finest = exact_nonlocal_rhs(u, grids[-1], params, nodes=config.scheme)
    hs, errors = [], []
    for grid in grids:
        hs.append(grid.h)
        # fValues lists f at lattice(grid)[1:-1], in lattice order
        stride = grids[-1].N // grid.N
        problem = ManufacturedProblem(
            fValues=finest.fValues[stride - 1::stride],
            boundary=finest.boundary)
        system = scheme.assemble(params, grid, problem)
        uh = solver.solve_dense(system)
        errors.append(float(np.max(np.abs(uh - u(system.nodes)))))

    return StudyReport(rows=_build_rows(config.levels, hs, errors),
                       label="max-norm error", metadata=_metadata(config))


# --- rendering --------------------------------------------------------------

def _fmt_error(row: StudyRow) -> str:
    return f"{row.error:.4e}"


def _fmt_h_markdown(h: float) -> str:
    """1/k when k*h = 1 to rounding, otherwise h as in the CSV (so also
    where 1/h overflows, as for a subnormal h)."""
    if math.isfinite(1.0 / h):
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

