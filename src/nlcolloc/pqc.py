"""Piecewise quadratic product integration and its collocation system.

Half-integer node subscripts are carried as doubled integer indices
(node x_{i/2} <-> index i), so index arithmetic such as |i - j - 1/2| - 1/2
stays exact: over doubled indices it becomes (|2(i - j) - 1| - 1) / 2.
"""

import numpy as np

from . import coeffs, moments
from .grid import KernelParams, UniformGrid
from .oracle import ManufacturedProblem, TestFunction, singular_integral
from .solver import CollocationSystem, ToeplitzStructure


# The scheme interface, shared with plc: weights, structure, nodes, assemble
# and truncation, all functions of (params, grid) or of the weight tables.
weights = coeffs.pqc_weights


# The four block index maps.  Rows are the integer nodes x_r, r = 1..N-1,
# then the half nodes x_{s + 1/2}, s = 0..N-1; columns run over the integer
# unknowns j = 1..N-1, then the half unknowns x_{jh + 1/2}, jh = 0..N-1.
# Each weight depends on its row and column only through the offset
# k = (r or s) - (j or jh), so every block is Toeplitz.  The maps serve the
# single-row evaluator (one row of offsets) and the operator's Toeplitz
# generators (its blocks' first columns and rows).

def _m(c, k): return c.m[np.abs(k)]
def _q(c, k): return c.q[(np.abs(2 * k - 1) - 1) // 2]
def _p(c, k): return c.p[(np.abs(2 * k + 1) - 1) // 2]
def _n(c, k): return c.n[np.abs(k)]


_BLOCKS = ((_m, _q), (_p, _n))     # [[M Q]; [P N]]


def _unknowns(N: int):
    """Indices of the integer unknowns, 1..N-1, and of the half unknowns, 0..N-1."""
    return np.arange(1, N), np.arange(N)


def _integer_rows(c: coeffs.PqcCoeffs, r):
    """Weights M, Q of the integer and half unknowns in the row of x_r."""
    j, jh = _unknowns(len(c.n))
    return _m(c, r - j), _q(c, r - jh)


def _half_rows(c: coeffs.PqcCoeffs, s):
    """Weights P, N of the integer and half unknowns in the row of x_{s + 1/2}."""
    j, jh = _unknowns(len(c.n))
    return _p(c, s - j), _n(c, s - jh)


def pqc_integral(c: coeffs.PqcCoeffs, int_samples: np.ndarray,
                 half_samples: np.ndarray, i: int) -> float:
    """Weight-table evaluation at collocation node x_{i/2}, doubled index
    i in 1..2N-1."""
    N = len(c.n)                     # n_0 .. n_{N-1}
    if len(int_samples) != N + 1 or len(half_samples) != N:
        raise ValueError("sample arrays must have lengths N+1 and N")
    if not 1 <= i <= 2 * N - 1:
        raise IndexError(f"doubled node index {i} outside 1..{2 * N - 1}")
    if i % 2 == 0:
        r = i // 2
        M, Q = _integer_rows(c, r)
        acc = M @ int_samples[1:N]
        acc += Q @ half_samples
        acc += c.beta[r - 1] * int_samples[0] + c.beta[N - r - 1] * int_samples[N]
    else:
        s = (i - 1) // 2      # row collocation point x_{s + 1/2}
        P, Nb = _half_rows(c, s)
        acc = P @ int_samples[1:N]
        acc += Nb @ half_samples
        acc += c.gammaB[s] * int_samples[0] + c.gammaB[N - 1 - s] * int_samples[N]
    return c.eta * acc


def interpolant_integral(params: KernelParams, grid: UniformGrid,
                         int_samples: np.ndarray, half_samples: np.ndarray,
                         x: float) -> float:
    """int u_Q(y) |x - y|^(-gamma) dy at arbitrary x in (a, b).

    Exact per-cell moment integration of the piecewise quadratic
    interpolant; the cell containing x is split at x inside the moment
    primitives, so non-junction points are handled too.
    """
    if not grid.a < x < grid.b:
        raise ValueError(f"x={x} outside ({grid.a}, {grid.b})")
    N = grid.N
    xs = grid.integer_nodes()
    cells = np.column_stack((xs[:N], grid.half_nodes(), xs[1:N + 1]))
    values = np.column_stack((int_samples[:N], half_samples[:N],
                              int_samples[1:N + 1]))
    total = 0.0
    # left to right: np.sum adds pairwise, which rounds differently
    for v in moments.cell_integral(x, cells, values, params.gamma).tolist():
        total += v
    return total


def pqc_truncation_at(params: KernelParams, grid: UniformGrid,
                      u: TestFunction, x: float, tol: float = 1e-14) -> float:
    """|I(a,b,x) - I_2(a,b,x)| against the quadrature oracle.

    x may be a collocation node (junction) or any interior point.
    """
    int_samples = u(grid.integer_nodes())
    half_samples = u(grid.half_nodes())
    approx = interpolant_integral(params, grid, int_samples, half_samples, x)
    exact = singular_integral(u, (grid.a, grid.b), params, x, tol)
    return abs(exact - approx)


truncation = pqc_truncation_at


# --- system assembly --------------------------------------------------------

def structure(c: coeffs.PqcCoeffs) -> ToeplitzStructure:
    """eta * ([D1 0; 0 D2] - [M Q; P N]) in the integers-then-halves ordering."""
    indices = _unknowns(len(c.n))
    # a block's first column holds the offsets rows - cols[0], its first
    # row the offsets rows[0] - cols
    blocks = tuple(
        tuple((w(c, rows - cols[0]), w(c, rows[0] - cols))
              for w, cols in zip(maps, indices))
        for maps, rows in zip(_BLOCKS, indices))
    d_int = c.dHalf[1::2]          # d_1 .. d_{N-1}
    d_half = c.dHalf[0::2]         # d_{1/2} .. d_{N-1/2}
    return ToeplitzStructure(scale=c.eta, diag=np.concatenate([d_int, d_half]),
                             blocks=blocks)


def nodes(grid: UniformGrid) -> np.ndarray:
    """Collocation point of each row, in the paper ordering."""
    return np.concatenate([grid.interior_nodes(), grid.half_nodes()])


def assemble_pqc_system(params: KernelParams, grid: UniformGrid,
                        problem: ManufacturedProblem) -> CollocationSystem:
    """Assemble in the paper ordering: u_1..u_{N-1}, then u_{1/2}..u_{N-1/2}.

    problem.fValues are expected at the 2N-1 collocation nodes in
    increasing order and are rearranged here.
    """
    N = grid.N
    if len(problem.fValues) != 2 * N - 1:
        raise ValueError(
            f"expected {2 * N - 1} right-hand-side values, got {len(problem.fValues)}")
    c = weights(params, grid)
    # fValues come ordered by increasing node; integers sit at odd doubled indices
    f_int = problem.fValues[1::2]
    f_half = problem.fValues[0::2]
    u0, uN = problem.boundary
    rhs = np.concatenate([
        f_int + c.eta * (c.beta * u0 + c.beta[::-1] * uN),
        f_half + c.eta * (c.gammaB * u0 + c.gammaB[::-1] * uN),
    ])
    return CollocationSystem(operator=structure(c), rhs=rhs, scheme="pqc",
                             nodes=nodes(grid))


assemble = assemble_pqc_system
