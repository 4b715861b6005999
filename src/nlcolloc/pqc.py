"""Piecewise quadratic product integration and its collocation system.

Rows and unknowns follow the paper ordering: the integer nodes x_1 ..
x_{N-1}, then the half nodes x_{1/2} .. x_{N-1/2}.
"""

import numpy as np

from . import coeffs, moments
from .grid import KernelParams, UniformGrid
from .oracle import (ORACLE_TOL, ManufacturedProblem, TestFunction,
                     singular_integral)
from .solver import CollocationSystem, ToeplitzStructure


# The scheme interface, shared with plc: weights, structure, boundary,
# lattice, nodes, rule, interpolant_integral, assemble and truncation.  The
# weight tables are read only by structure and boundary.
weights = coeffs.pqc_weights

# Degree of the interpolant: cells of DEGREE + 1 lattice points, h/DEGREE apart.
DEGREE = 2


def _paper_order(n: int) -> np.ndarray:
    """Row order of the n = 2N - 1 interior lattice points x_{1/2} ..
    x_{N-1/2}, by their positions in increasing order: the integer nodes sit
    at odd positions, the half nodes at even ones."""
    return np.r_[1:n:2, 0:n:2]


def structure(c: coeffs.PqcCoeffs) -> ToeplitzStructure:
    """eta * ([D1 0; 0 D2] - [M Q; P N]) in the paper ordering.

    Each block depends on its row and column only through their offset, so
    it is Toeplitz, and its first column and first row are the tables
    themselves.  The half-step offsets -1/2 and +1/2 share a weight, so Q's
    first row and P's first column start with q_0 and p_0 twice.
    """
    m, p, q, n = c.m, c.p, c.q, c.n
    blocks = (((m, m), (q, np.r_[q[0], q])),
              ((np.r_[p[0], p], p), (n, n)))
    return ToeplitzStructure(scale=c.eta, blocks=blocks,
                             diag=c.dHalf[_paper_order(len(c.dHalf))])


def boundary(c: coeffs.PqcCoeffs) -> tuple:
    """Weights of u(a) and of u(b) in each row, in row order."""
    return np.r_[c.beta, c.gammaB], np.r_[c.beta[::-1], c.gammaB[::-1]]


def lattice(grid: UniformGrid) -> np.ndarray:
    """Interpolation points x_0, x_{1/2}, x_1, .., x_N."""
    return grid.lattice(DEGREE)


def nodes(grid: UniformGrid) -> np.ndarray:
    """Collocation point of each row, in the paper ordering."""
    return lattice(grid)[1:-1][_paper_order(2 * grid.N - 1)]


def rule(c: coeffs.PqcCoeffs, samples: np.ndarray) -> np.ndarray:
    """The rule at x_{1/2} .. x_{N-1/2}, in increasing order, from samples at
    lattice(grid)."""
    order = _paper_order(len(samples) - 2)
    in_rows = np.r_[samples[0], samples[1:-1][order], samples[-1]]
    values = np.empty(len(order))
    values[order] = structure(c).rule(boundary(c), in_rows)
    return values


def interpolant_integral(params: KernelParams, grid: UniformGrid,
                         samples: np.ndarray, x: float) -> float:
    """int u_Q(y) |x - y|^(-gamma) dy for the piecewise quadratic interpolant
    of samples at lattice(grid), at any x in (a, b).

    Exact per-cell moment integration; the cell containing x is split at x
    inside the moment primitives, so non-junction points are handled too.
    """
    if not grid.a < x < grid.b:
        raise ValueError(f"x={x} outside ({grid.a}, {grid.b})")
    return moments.piecewise_integral(x, lattice(grid), samples, DEGREE,
                                      params.gamma)


def pqc_truncation_at(params: KernelParams, grid: UniformGrid, u: TestFunction,
                      x: float, tol: float = ORACLE_TOL) -> float:
    """|I(a,b,x) - I_2(a,b,x)| against the quadrature oracle.

    x may be a collocation node (junction) or any interior point.
    """
    # the oracle first: where u overflows it raises before the samples warn
    exact = singular_integral(u, (grid.a, grid.b), params, x, tol)
    approx = interpolant_integral(params, grid, u(lattice(grid)), x)
    return abs(exact - approx)


truncation = pqc_truncation_at


def assemble_pqc_system(params: KernelParams, grid: UniformGrid,
                        problem: ManufacturedProblem) -> CollocationSystem:
    """Assemble in the paper ordering.

    problem.fValues are expected at the 2N-1 collocation nodes in
    increasing order and are rearranged here.
    """
    n = 2 * grid.N - 1
    if len(problem.fValues) != n:
        raise ValueError(
            f"expected {n} right-hand-side values, got {len(problem.fValues)}")
    c = weights(params, grid)
    op, (left, right), (u0, uN) = structure(c), boundary(c), problem.boundary
    rhs = problem.fValues[_paper_order(n)] + op.scale * (left * u0 + right * uN)
    return CollocationSystem(operator=op, rhs=rhs, nodes=nodes(grid))


assemble = assemble_pqc_system
