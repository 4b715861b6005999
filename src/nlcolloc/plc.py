"""Piecewise linear product integration and the resulting collocation system."""

import numpy as np

from . import coeffs, moments
from .grid import KernelParams, UniformGrid
from .oracle import (ORACLE_TOL, ManufacturedProblem, TestFunction,
                     singular_integral)
from .solver import CollocationSystem, ToeplitzStructure


# The scheme interface, shared with pqc: weights, structure, boundary,
# lattice, nodes, rule, interpolant_integral, assemble and truncation.  The
# weight tables are read only by structure and boundary.
weights = coeffs.plc_weights

# Degree of the interpolant: cells of DEGREE + 1 lattice points, h/DEGREE apart.
DEGREE = 1


def structure(c: coeffs.PlcCoeffs) -> ToeplitzStructure:
    """sigma * (D - G): G the symmetric Toeplitz matrix of g, D positive diagonal."""
    return ToeplitzStructure(scale=c.sigma, diag=c.d, blocks=(((c.g, c.g),),))


def boundary(c: coeffs.PlcCoeffs) -> tuple:
    """Weights of u(a) and of u(b) in each row, in row order."""
    return c.alpha, c.alpha[::-1]


def lattice(grid: UniformGrid) -> np.ndarray:
    """Interpolation points x_0 .. x_N."""
    return grid.lattice(DEGREE)


def nodes(grid: UniformGrid) -> np.ndarray:
    """Collocation point of each row: x_1 .. x_{N-1}."""
    return lattice(grid)[1:-1]


def rule(c: coeffs.PlcCoeffs, samples: np.ndarray) -> np.ndarray:
    """The rule at x_1 .. x_{N-1} from samples at lattice(grid)."""
    return structure(c).rule(boundary(c), samples)


def interpolant_integral(params: KernelParams, grid: UniformGrid,
                         samples: np.ndarray, x: float) -> float:
    """int u_L(y) |x - y|^(-gamma) dy for the piecewise linear interpolant of
    samples at lattice(grid), at any x in (a, b), via exact per-cell moments.

    At the nodes this agrees with rule but sums per cell, which keeps the
    rounding floor near machine precision.
    """
    if not grid.a < x < grid.b:
        raise ValueError(f"x={x} outside ({grid.a}, {grid.b})")
    return moments.piecewise_integral(x, lattice(grid), samples, DEGREE,
                                      params.gamma)


def truncation_error(params: KernelParams, grid: UniformGrid, u: TestFunction,
                     x: float, tol: float = ORACLE_TOL) -> float:
    """|I(a,b,x) - I_1(a,b,x)| against the quadrature oracle."""
    # the oracle first: where u overflows it raises before the samples warn
    exact = singular_integral(u, (grid.a, grid.b), params, x, tol)
    approx = interpolant_integral(params, grid, u(lattice(grid)), x)
    return abs(exact - approx)


truncation = truncation_error


def assemble_plc_system(params: KernelParams, grid: UniformGrid,
                        problem: ManufacturedProblem) -> CollocationSystem:
    N = grid.N
    if len(problem.fValues) != N - 1:
        raise ValueError(
            f"expected {N - 1} right-hand-side values, got {len(problem.fValues)}")
    c = weights(params, grid)
    op, (left, right), (u0, uN) = structure(c), boundary(c), problem.boundary
    rhs = problem.fValues + op.scale * (left * u0 + right * uN)
    return CollocationSystem(operator=op, rhs=rhs, nodes=nodes(grid))


assemble = assemble_plc_system
