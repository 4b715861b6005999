"""The collocation method, written once for both schemes.

A scheme is a module that defines only what differs: DEGREE, the
interpolant's degree; weights(params, grid), the weight tables;
structure(weights), the operator; boundary(weights), the columns of u(a)
and u(b); and order(n), the lattice index of each row among the n interior
lattice points.  It binds the rest, SHARED, as partial(f, scheme):
lattice(grid), nodes(grid), rule(weights, samples),
interpolant_integral(params, grid, samples, x), assemble(params, grid,
problem) and truncation(params, grid, u, x, tol), whose tol defaults to
oracle.ORACLE_TOL, the accuracy every table uses.  They reach the scheme
and the moments only through attribute lookups at call time, so rebinding
a scheme's function (a tracer, a test's monkeypatch) reaches every call.
"""

import math

import numpy as np

from . import moments
from .oracle import ORACLE_TOL, singular_integral
from .solver import CollocationSystem


def lattice(scheme, grid):
    """Interpolation points: the DEGREE * N + 1 points of grid.lattice."""
    return grid.lattice(scheme.DEGREE)


def nodes(scheme, grid):
    """Collocation point of each row: interior lattice points, in row order."""
    inner = scheme.lattice(grid)[1:-1]
    return inner[scheme.order(len(inner))]


def rule(scheme, c, samples):
    """The rule at the interior lattice points, in increasing order, from
    samples at lattice(grid): with u the interior samples in row order,
    scale * (T u + left u(a) + right u(b)), from one FFT product as
    scale * (diag u + left u(a) + right u(b)) - A u."""
    op, (left, right) = scheme.structure(c), scheme.boundary(c)
    if len(samples) != len(op.diag) + 2:
        raise ValueError(f"expected {len(op.diag) + 2} samples, "
                         f"got {len(samples)}")
    order = scheme.order(len(op.diag))
    u = samples[1:-1][order]
    values = np.empty(len(order))
    values[order] = op.scale * (op.diag * u + left * samples[0]
                                + right * samples[-1]) - op.matvec(u)
    return values


def interpolant_integral(scheme, params, grid, samples, x):
    """int u_p(y) |x - y|^(-gamma) dy for the piecewise polynomial u_p of
    degree p = DEGREE through samples at lattice(grid), at any x in (a, b).

    Cell j spans lattice points p*j .. p*j + p.  One moments.cell_integral
    call integrates all cells, splitting the one holding x at x; cumsum adds
    them strictly left to right (np.sum adds pairwise, which rounds
    differently).  At the nodes this agrees with rule but sums per cell,
    which keeps the rounding floor near machine precision.  A sample count
    other than len(lattice(grid)) raises ValueError, a total that is not
    finite (the moments of cells far from 0 overflow) FloatingPointError.
    """
    if not grid.a < x < grid.b:
        raise ValueError(f"x={x} outside ({grid.a}, {grid.b})")
    points, degree = scheme.lattice(grid), scheme.DEGREE
    if len(samples) != len(points):
        raise ValueError(f"expected {len(points)} samples, got {len(samples)}")
    # the lattice indices of each cell, one row per cell
    cells = degree * np.arange(grid.N)[:, None] + np.arange(degree + 1)
    with np.errstate(over="ignore", invalid="ignore"):    # raised below
        values = moments.cell_integral(x, points[cells], samples[cells],
                                       params.gamma)
        total = float(np.cumsum(values)[-1])
    if not math.isfinite(total):
        raise FloatingPointError(
            f"the interpolant integral at x={x!r} is not finite")
    return total


def truncation(scheme, params, grid, u, x, tol=ORACLE_TOL):
    """|I(a,b,x) - I_p(a,b,x)| against the quadrature oracle, at a
    collocation node or any interior point x."""
    # the oracle first: where u overflows it raises before the samples warn
    exact = singular_integral(u, (grid.a, grid.b), params, x, tol)
    approx = scheme.interpolant_integral(params, grid,
                                         u(scheme.lattice(grid)), x)
    return abs(exact - approx)


def assemble(scheme, params, grid, problem):
    """The collocation system, rows at nodes(grid).

    problem.fValues are expected at the interior lattice points in
    increasing order and are put in row order here.
    """
    n = scheme.DEGREE * grid.N - 1
    if len(problem.fValues) != n:
        raise ValueError(
            f"expected {n} right-hand-side values, got {len(problem.fValues)}")
    c = scheme.weights(params, grid)
    op, (left, right) = scheme.structure(c), scheme.boundary(c)
    u0, uN = problem.boundary
    rhs = problem.fValues[scheme.order(n)] + op.scale * (left * u0 + right * uN)
    return CollocationSystem(operator=op, rhs=rhs, nodes=scheme.nodes(grid))


SHARED = (lattice, nodes, rule, interpolant_integral, truncation, assemble)
