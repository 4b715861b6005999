"""Exact integration of polynomials against the |x - y|^(-gamma) kernel.

Every cell contribution is a polynomial (in powers of y - x) times the
kernel, which integrates in closed form through the power primitives
below.  This is the workhorse for evaluating an interpolant's singular
integral at arbitrary points, including points inside a cell.

The primitives take a stack of cells, one row per cell, and work on all
rows at once; a single cell (scalar bounds, 1-D nodes) is the one-row
case and keeps its own shape.  Each row is rounded exactly as that cell
alone would be.
"""

import numpy as np


def segment_moments(x: float, lo, hi, gamma: float, kmax: int) -> np.ndarray:
    """Moments M_k = int_lo^hi (y - x)^k |x - y|^(-gamma) dy, k = 0..kmax.

    lo and hi are scalars, giving shape (kmax+1,), or arrays of N segments,
    giving one row per segment, shape (N, kmax+1).  A segment may lie on
    either side of x or straddle it; an empty one (hi <= lo) has zero
    moments.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k = np.arange(kmax + 1)
    e = k + 1.0 - gamma

    def powers(d):
        # the exponents stay one array: with a scalar exponent 2.0 (gamma
        # = 0) numpy squares instead of calling pow(), which rounds
        # differently in the last bit
        return np.asarray(d)[..., None] ** e

    # Each segment is its part right of x plus its part left of x.  Bounds
    # are clipped to x, so a part on the other side has zero length and
    # every base is >= 0.
    right = (powers(np.maximum(hi, x) - x) - powers(np.maximum(lo, x) - x)) / e
    # left of x: (y - x)^k = (-1)^k (x - y)^k
    left = (-1.0) ** k * (powers(x - np.minimum(lo, x))
                          - powers(x - np.minimum(hi, x))) / e
    return np.where((hi > lo)[..., None], left + right, 0.0)


def poly_coeffs_about(x: float, ts: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolating polynomial through (ts[i], vs[i]),
    expressed in powers of (y - x).  Supports 2 points (linear) or 3
    (quadratic), via exact divided differences.

    ts and vs hold one cell's points, or one row of points per cell; the
    coefficients follow the same layout along the last axis.
    """
    t = np.asarray(ts, dtype=float) - x
    v = np.asarray(vs, dtype=float)
    t0, v0 = t[..., 0], v[..., 0]
    if t.shape[-1] == 2:
        c1 = (v[..., 1] - v0) / (t[..., 1] - t0)
        return np.stack([v0 - c1 * t0, c1], axis=-1)
    if t.shape[-1] == 3:
        d01 = (v[..., 1] - v0) / (t[..., 1] - t0)
        d12 = (v[..., 2] - v[..., 1]) / (t[..., 2] - t[..., 1])
        c2 = (d12 - d01) / (t[..., 2] - t0)
        c1 = d01 - c2 * (t0 + t[..., 1])
        # pow(), as a scalar t0 ** 2 calls: an array's ** 2 is a square,
        # which rounds differently in the last bit
        c0 = v0 - c1 * t0 - c2 * np.float_power(t0, 2)
        return np.stack([c0, c1, c2], axis=-1)
    raise ValueError("expected 2 or 3 interpolation points")


def cell_integral(x: float, cell_nodes: np.ndarray, cell_values: np.ndarray,
                  gamma: float):
    """int (y - x)-polynomial * |x - y|^(-gamma) over the cell
    [cell_nodes[0], cell_nodes[-1]].

    The polynomial interpolates cell_values at cell_nodes.  For one cell
    the result is a float; for rows of cells (nodes and values of shape
    (N, 2) or (N, 3)) it is an array of the N cell integrals.
    """
    nodes = np.asarray(cell_nodes, dtype=float)
    c = poly_coeffs_about(x, nodes, cell_values)
    mom = segment_moments(x, nodes[..., 0], nodes[..., -1], gamma,
                          c.shape[-1] - 1)
    # One dot product per row, (1, k) @ (k, 1): numpy hands these to BLAS
    # ddot, as for one cell, where an elementwise sum of products rounds
    # differently.
    values = np.matmul(c[..., None, :], mom[..., :, None])[..., 0, 0]
    return float(values) if values.ndim == 0 else values
