"""Piecewise linear product integration and the resulting collocation system."""

from dataclasses import dataclass

import numpy as np

from . import coeffs, moments
from .grid import KernelParams, UniformGrid
from .oracle import ManufacturedProblem, TestFunction, singular_integral
from .solver import CollocationSystem, ToeplitzStructure


@dataclass(frozen=True)
class PlcIntegralRule:
    coeffs: coeffs.PlcCoeffs
    grid: UniformGrid
    params: KernelParams


def make_rule(params: KernelParams, grid: UniformGrid) -> PlcIntegralRule:
    return PlcIntegralRule(coeffs.plc_weights(params, grid), grid, params)


def plc_integral(rule: PlcIntegralRule, samples: np.ndarray, i: int) -> float:
    """Weight-table evaluation of the rule at the interior node x_i."""
    N = rule.grid.N
    if len(samples) != N + 1:
        raise ValueError(f"expected {N + 1} samples, got {len(samples)}")
    if not 1 <= i <= N - 1:
        raise IndexError(f"node index {i} outside 1..{N - 1}")
    c = rule.coeffs
    j = np.arange(1, N)
    interior = c.g[np.abs(i - j)] @ samples[1:N]
    return c.sigma * (interior + c.alpha[i - 1] * samples[0]
                      + c.alpha[N - i - 1] * samples[N])


def interpolant_integral(rule: PlcIntegralRule, samples: np.ndarray,
                         x: float) -> float:
    """int u_L(y) |x - y|^(-gamma) dy for the piecewise linear interpolant,
    at an arbitrary x in (a, b), via exact per-cell moments.

    At integer nodes this agrees with plc_integral but sums per cell, which
    keeps the rounding floor near machine precision.
    """
    g = rule.grid
    if not g.a < x < g.b:
        raise ValueError(f"x={x} outside ({g.a}, {g.b})")
    N = g.N
    xs = g.integer_nodes()
    cells = np.column_stack((xs[:N], xs[1:N + 1]))
    values = np.column_stack((samples[:N], samples[1:N + 1]))
    total = 0.0
    # left to right: np.sum adds pairwise, which rounds differently
    for v in moments.cell_integral(x, cells, values,
                                   rule.params.gamma).tolist():
        total += v
    return total


def truncation_error(rule: PlcIntegralRule, u: TestFunction, x: float,
                     tol: float = 1e-14) -> float:
    """|I(a,b,x) - I_1(a,b,x)| against the quadrature oracle."""
    samples = u(rule.grid.integer_nodes())
    approx = interpolant_integral(rule, samples, x)
    exact = singular_integral(u, (rule.grid.a, rule.grid.b), rule.params, x, tol)
    return abs(exact - approx)


def structure(c: coeffs.PlcCoeffs) -> ToeplitzStructure:
    """sigma * (D - G): G the symmetric Toeplitz matrix of g, D positive diagonal."""
    return ToeplitzStructure(scale=c.sigma, diag=c.d, blocks=(((c.g, c.g),),))


def plc_matrix(params: KernelParams, grid: UniformGrid) -> np.ndarray:
    """The dense matrix of the scheme's operator, with its weight tables
    built from (params, grid)."""
    return structure(coeffs.plc_weights(params, grid)).dense()


def nodes(grid: UniformGrid) -> np.ndarray:
    """Collocation point of each row: x_1 .. x_{N-1}."""
    return grid.interior_nodes()


def assemble_plc_system(params: KernelParams, grid: UniformGrid,
                        problem: ManufacturedProblem) -> CollocationSystem:
    N = grid.N
    if len(problem.fValues) != N - 1:
        raise ValueError(
            f"expected {N - 1} right-hand-side values, got {len(problem.fValues)}")
    c = coeffs.plc_weights(params, grid)
    u0, uN = problem.boundary
    rhs = problem.fValues + c.sigma * (c.alpha * u0 + c.alpha[::-1] * uN)
    return CollocationSystem(operator=structure(c), rhs=rhs, scheme="plc",
                             nodes=nodes(grid))


# --- scheme interface -------------------------------------------------------
# study.SCHEMES maps 'plc' to this module.  study and cli call make_rule,
# structure, nodes and the two functions below, names that pqc shares.  The
# two look the scheme's own functions up at call time, so rebinding those
# module attributes still takes effect.

def assemble(params, grid, problem) -> CollocationSystem:
    return assemble_plc_system(params, grid, problem)


def truncation(rule, u, x, tol) -> float:
    return truncation_error(rule, u, x, tol)
