"""Piecewise linear product integration and the resulting collocation system."""

import numpy as np

from . import coeffs, moments
from .grid import KernelParams, UniformGrid
from .oracle import ManufacturedProblem, TestFunction, singular_integral
from .solver import CollocationSystem, ToeplitzStructure


# The scheme interface, shared with pqc: weights, structure, nodes, assemble
# and truncation, all functions of (params, grid) or of the weight tables.
weights = coeffs.plc_weights


def plc_integral(c: coeffs.PlcCoeffs, samples: np.ndarray, i: int) -> float:
    """Weight-table evaluation of the rule at the interior node x_i."""
    N = len(c.alpha) + 1             # alpha_1 .. alpha_{N-1}
    if len(samples) != N + 1:
        raise ValueError(f"expected {N + 1} samples, got {len(samples)}")
    if not 1 <= i <= N - 1:
        raise IndexError(f"node index {i} outside 1..{N - 1}")
    j = np.arange(1, N)
    interior = c.g[np.abs(i - j)] @ samples[1:N]
    return c.sigma * (interior + c.alpha[i - 1] * samples[0]
                      + c.alpha[N - i - 1] * samples[N])


def interpolant_integral(params: KernelParams, grid: UniformGrid,
                         samples: np.ndarray, x: float) -> float:
    """int u_L(y) |x - y|^(-gamma) dy for the piecewise linear interpolant,
    at an arbitrary x in (a, b), via exact per-cell moments.

    At integer nodes this agrees with plc_integral but sums per cell, which
    keeps the rounding floor near machine precision.
    """
    if not grid.a < x < grid.b:
        raise ValueError(f"x={x} outside ({grid.a}, {grid.b})")
    N = grid.N
    xs = grid.integer_nodes()
    cells = np.column_stack((xs[:N], xs[1:N + 1]))
    values = np.column_stack((samples[:N], samples[1:N + 1]))
    total = 0.0
    # left to right: np.sum adds pairwise, which rounds differently
    for v in moments.cell_integral(x, cells, values, params.gamma).tolist():
        total += v
    return total


def truncation_error(params: KernelParams, grid: UniformGrid, u: TestFunction,
                     x: float, tol: float = 1e-14) -> float:
    """|I(a,b,x) - I_1(a,b,x)| against the quadrature oracle."""
    samples = u(grid.integer_nodes())
    approx = interpolant_integral(params, grid, samples, x)
    exact = singular_integral(u, (grid.a, grid.b), params, x, tol)
    return abs(exact - approx)


truncation = truncation_error


def structure(c: coeffs.PlcCoeffs) -> ToeplitzStructure:
    """sigma * (D - G): G the symmetric Toeplitz matrix of g, D positive diagonal."""
    return ToeplitzStructure(scale=c.sigma, diag=c.d, blocks=(((c.g, c.g),),))


def nodes(grid: UniformGrid) -> np.ndarray:
    """Collocation point of each row: x_1 .. x_{N-1}."""
    return grid.interior_nodes()


def assemble_plc_system(params: KernelParams, grid: UniformGrid,
                        problem: ManufacturedProblem) -> CollocationSystem:
    N = grid.N
    if len(problem.fValues) != N - 1:
        raise ValueError(
            f"expected {N - 1} right-hand-side values, got {len(problem.fValues)}")
    c = weights(params, grid)
    u0, uN = problem.boundary
    rhs = problem.fValues + c.sigma * (c.alpha * u0 + c.alpha[::-1] * uN)
    return CollocationSystem(operator=structure(c), rhs=rhs, scheme="plc",
                             nodes=nodes(grid))


assemble = assemble_plc_system
