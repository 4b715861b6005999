"""Exact polynomial-times-kernel moment primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nlcolloc import moments, plc, pqc
from nlcolloc.grid import KernelParams, UniformGrid


def quad_moment(x, lo, hi, gamma, k):
    """Independent route: endpoint-singular pieces use the algebraic-weight
    quadrature, so the comparison stays sharp for gamma near 1."""
    def f(y):
        return (y - x) ** k * abs(x - y) ** -gamma
    if lo < x < hi:
        va, _ = integrate.quad(lambda y: (-1.0) ** k, lo, x,
                               weight="alg", wvar=(0.0, k - gamma))
        vb, _ = integrate.quad(lambda y: 1.0, x, hi,
                               weight="alg", wvar=(k - gamma, 0.0))
        return va + vb
    v, _ = integrate.quad(f, lo, hi, limit=200)
    return v


@pytest.mark.parametrize("lo,hi,x", [(0.2, 0.5, 0.1), (0.2, 0.5, 0.7),
                                     (0.2, 0.5, 0.3)])
@pytest.mark.parametrize("gamma", [0.0, 0.4, 0.8])
def test_segment_moments_match_quadrature(lo, hi, x, gamma):
    got = moments.segment_moments(x, lo, hi, gamma, 2)
    for k in range(3):
        assert got[k] == pytest.approx(quad_moment(x, lo, hi, gamma, k),
                                       rel=1e-9, abs=1e-12)


def test_empty_segment_is_zero():
    assert np.all(moments.segment_moments(0.3, 0.5, 0.5, 0.6, 2) == 0.0)
    assert np.all(moments.segment_moments(0.3, 0.6, 0.5, 0.6, 2) == 0.0)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(0.01, 0.99), gamma=st.floats(0.0, 0.9))
def test_straddling_split_is_additive(x, gamma):
    whole = moments.segment_moments(x, 0.0, 1.0, gamma, 2)
    left = moments.segment_moments(x, 0.0, x, gamma, 2)
    right = moments.segment_moments(x, x, 1.0, gamma, 2)
    assert np.allclose(whole, left + right, rtol=1e-13, atol=1e-15)


class TestPolyCoeffs:
    def test_linear_interpolates(self):
        ts = np.array([0.2, 0.6])
        vs = np.array([1.0, 3.0])
        c = moments.poly_coeffs_about(0.4, ts, vs)
        for t, v in zip(ts, vs):
            assert c[0] + c[1] * (t - 0.4) == pytest.approx(v, rel=1e-14)

    def test_quadratic_interpolates(self):
        ts = np.array([0.1, 0.3, 0.8])
        vs = np.array([2.0, -1.0, 0.5])
        c = moments.poly_coeffs_about(0.5, ts, vs)
        for t, v in zip(ts, vs):
            d = t - 0.5
            assert c[0] + c[1] * d + c[2] * d * d == pytest.approx(v, rel=1e-12)

    def test_wrong_point_count_rejected(self):
        with pytest.raises(ValueError):
            moments.poly_coeffs_about(0.0, np.arange(4.0), np.arange(4.0))


def test_cell_integral_constant():
    # int_a^b 1 * |x-y|^(-gamma) dy with x inside the cell
    got = moments.cell_integral(0.35, np.array([0.3, 0.4]),
                                np.array([1.0, 1.0]), 0.5)
    e = 0.5
    want = (0.05 ** e + 0.05 ** e) / e
    assert got == pytest.approx(want, rel=1e-13)


# --- stacked cells against the cell-by-cell reference -----------------------
# The reference below is the one-cell-at-a-time form of the primitives: the
# stacked code must give the same bits, so the tables do not move.

def ref_segment_moments(x, lo, hi, gamma, kmax):
    if hi <= lo:
        return np.zeros(kmax + 1)
    if lo < x < hi:
        return (ref_segment_moments(x, lo, x, gamma, kmax)
                + ref_segment_moments(x, x, hi, gamma, kmax))
    k = np.arange(kmax + 1)
    e = k + 1.0 - gamma
    if lo >= x:
        return ((hi - x) ** e - (lo - x) ** e) / e
    return (-1.0) ** k * ((x - lo) ** e - (x - hi) ** e) / e


def ref_poly_coeffs(x, ts, vs):
    t = np.asarray(ts, dtype=float) - x
    v = np.asarray(vs, dtype=float)
    if len(t) == 2:
        c1 = (v[1] - v[0]) / (t[1] - t[0])
        return np.array([v[0] - c1 * t[0], c1])
    d01 = (v[1] - v[0]) / (t[1] - t[0])
    d12 = (v[2] - v[1]) / (t[2] - t[1])
    c2 = (d12 - d01) / (t[2] - t[0])
    c1 = d01 - c2 * (t[0] + t[1])
    c0 = v[0] - c1 * t[0] - c2 * t[0] ** 2
    return np.array([c0, c1, c2])


def ref_cell_integral(x, nodes, values, gamma):
    c = ref_poly_coeffs(x, nodes, values)
    return float(c @ ref_segment_moments(x, nodes[0], nodes[-1], gamma,
                                         len(c) - 1))


def ref_interpolant_integral(scheme, grid, gamma, u, x):
    xs = grid.integer_nodes()
    xh = grid.half_nodes()
    total = 0.0
    for j in range(grid.N):
        if scheme == "plc":
            cell = xs[j:j + 2]
        else:
            cell = np.array([xs[j], xh[j], xs[j + 1]])
        total += ref_cell_integral(x, cell, u(cell), gamma)
    return total


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 3.0)])
@pytest.mark.parametrize("N", [2, 3, 8, 64, 512])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("scheme", ["plc", "pqc"])
def test_interpolant_integral_bitwise_equals_cell_by_cell(scheme, gamma, N,
                                                           interval):
    a, b = interval
    grid = UniformGrid(a, b, N)
    params = KernelParams(gamma)
    u = np.exp if a == 0.0 else np.square
    xs, xh = grid.integer_nodes(), grid.half_nodes()
    rng = np.random.default_rng(N)
    points = [a + grid.h, b - grid.h, xs[N // 2], xh[0], xh[N // 2], xh[-1],
              *(a + (b - a) * rng.random(3))]
    if scheme == "plc":
        got = [plc.interpolant_integral(params, grid, u(xs), x)
               for x in points]
    else:
        got = [pqc.interpolant_integral(params, grid, u(xs), u(xh), x)
               for x in points]
    want = [ref_interpolant_integral(scheme, grid, gamma, u, x)
            for x in points]
    assert bits(got) == bits(want)


@pytest.mark.parametrize("npoints", [2, 3])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
def test_stacked_cell_integral_equals_row_by_row(npoints, gamma):
    rng = np.random.default_rng(npoints)
    rows, x = 300, 0.4
    nodes = np.sort(rng.random((rows, npoints)), axis=1)
    values = rng.standard_normal((rows, npoints))
    stacked = moments.cell_integral(x, nodes, values, gamma)
    assert stacked.shape == (rows,)
    one_by_one = [moments.cell_integral(x, n, v, gamma)
                  for n, v in zip(nodes, values)]
    want = [ref_cell_integral(x, n, v, gamma) for n, v in zip(nodes, values)]
    assert bits(stacked) == bits(one_by_one) == bits(want)


@pytest.mark.parametrize("npoints", [2, 3])
def test_stacked_poly_coeffs_equal_row_by_row(npoints):
    # enough rows that pow(t, 2) and t * t, which differ in about one case
    # in a thousand, meet a row where c0 shows it
    rng = np.random.default_rng(10 + npoints)
    nodes = np.sort(rng.random((20000, npoints)), axis=1)
    values = rng.standard_normal((20000, npoints))
    got = moments.poly_coeffs_about(0.4, nodes, values)
    assert got.shape == (20000, npoints)
    want = [ref_poly_coeffs(0.4, n, v) for n, v in zip(nodes, values)]
    assert bits(got) == bits(want)


def test_stacked_segment_moments_shape_and_rows():
    lo = np.array([0.1, 0.2, 0.6, 0.5])
    hi = np.array([0.3, 0.7, 0.9, 0.5])
    got = moments.segment_moments(0.4, lo, hi, 0.6, 2)
    assert got.shape == (4, 3)
    for row, l, h in zip(got, lo, hi):
        assert bits(row) == bits(ref_segment_moments(0.4, l, h, 0.6, 2))
