"""Reference-integration oracle: cross-route agreement and closed forms."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlcolloc
from nlcolloc import oracle
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import (OracleError, TestFunction, closed_form_integral,
                             constant, exact_nonlocal_rhs, exponential,
                             kernel_row_integral, monomial, singular_integral,
                             singular_integrals)


class TestKernelRowIntegral:
    def test_gamma_zero_is_length(self):
        assert kernel_row_integral(0.0, 1.0, 0.0, 0.3) == pytest.approx(1.0)

    def test_symmetry(self):
        assert kernel_row_integral(0.0, 1.0, 0.6, 0.25) == pytest.approx(
            kernel_row_integral(0.0, 1.0, 0.6, 0.75), rel=1e-14)


class TestTestFunction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TestFunction("cubic-spline")

    def test_monomial_power_range(self):
        with pytest.raises(ValueError):
            monomial(5)

    def test_evaluation(self):
        ys = np.array([0.0, 0.5, 1.0])
        assert np.allclose(constant(3.0)(ys), 3.0)
        assert np.allclose(monomial(2)(ys), ys ** 2)
        assert np.allclose(exponential()(ys), np.exp(ys))


class TestSingularIntegral:
    def test_constant_matches_closed_form(self):
        for gamma in (0.0, 0.25, 0.5, 0.9):
            got = singular_integral(constant(2.0), (0.0, 1.0),
                                    KernelParams(gamma), 0.37)
            want = 2.0 * kernel_row_integral(0.0, 1.0, gamma, 0.37)
            assert got == pytest.approx(want, rel=1e-13)

    def test_linear_matches_closed_form(self):
        for gamma in (0.1, 0.5, 0.8):
            got = singular_integral(monomial(1), (0.0, 1.0),
                                    KernelParams(gamma), 0.41)
            want = closed_form_integral(monomial(1), (0.0, 1.0),
                                        KernelParams(gamma), 0.41)
            assert got == pytest.approx(want, rel=1e-13)

    def test_exp_cross_validates_against_series(self):
        # singular_integral raises internally if the two routes disagree
        got = singular_integral(exponential(), (0.0, 1.0),
                                KernelParams(0.7), 0.5, tol=1e-13)
        want = closed_form_integral(exponential(), (0.0, 1.0),
                                    KernelParams(0.7), 0.5)
        assert got == pytest.approx(want, rel=1e-13)

    def test_x_outside_interval_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            singular_integral(constant(), (0.0, 1.0), KernelParams(0.5), 1.0)

    def test_unattainable_tolerance_rejected(self):
        with pytest.raises(ValueError, match="1e-14"):
            singular_integral(constant(), (0.0, 1.0), KernelParams(0.5),
                              0.5, tol=1e-16)

    def test_general_interval(self):
        got = singular_integral(monomial(2), (-1.0, 2.0),
                                KernelParams(0.4), 0.9)
        want = closed_form_integral(monomial(2), (-1.0, 2.0),
                                    KernelParams(0.4), 0.9)
        assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(0.0, 0.9), x=st.floats(0.05, 0.95))
def test_constant_agrees_everywhere(gamma, x):
    got = singular_integral(constant(), (0.0, 1.0), KernelParams(gamma), x)
    assert got == pytest.approx(kernel_row_integral(0.0, 1.0, gamma, x),
                                rel=1e-12)


class TestManufacturedProblem:
    def test_plc_rhs_vanishes_for_constant_u(self):
        # f = u K - I is identically zero when u is constant
        grid = UniformGrid(0.0, 1.0, 8)
        prob = exact_nonlocal_rhs(constant(5.0), grid, KernelParams(0.5),
                                  nodes="plc")
        assert np.max(np.abs(prob.fValues)) < 1e-12
        assert prob.boundary == (5.0, 5.0)

    def test_pqc_node_count(self):
        grid = UniformGrid(0.0, 1.0, 8)
        prob = exact_nonlocal_rhs(exponential(), grid, KernelParams(0.3),
                                  nodes="pqc")
        assert len(prob.nodes) == 15
        assert len(prob.fValues) == 15

    def test_unknown_node_set_rejected(self):
        with pytest.raises(ValueError, match="node set"):
            exact_nonlocal_rhs(constant(), UniformGrid(0.0, 1.0, 4),
                               KernelParams(0.5), nodes="chebyshev")


# --- the per-point scalar oracle, kept as the bitwise reference -------------
#
# singular_integrals evaluates every point at once; these are the scalar
# routines it replaced.  The manufactured right-hand sides feed the frozen
# table CSVs, so the batched values must equal them bit for bit.

def _scalar_kernel_row_integral(a, b, gamma, x):
    e = 1.0 - gamma
    return ((x - a) ** e + (b - x) ** e) / e


def _scalar_one_sided(u, x, L, gamma, sign, n):
    if L <= 0.0:
        return 0.0
    s, w = oracle._gj_rule(n, gamma)
    acc = w @ np.asarray(u(x + sign * L * s), dtype=np.longdouble)
    return float(np.longdouble(L) ** (1.0 - np.longdouble(gamma)) * acc)


def _scalar_exp_power_series(c, sign, gamma, tol):
    if c <= 0.0:
        return 0.0
    total = 0.0
    term_base = 1.0
    for k in range(0, 500):
        term = term_base * c ** (1.0 - gamma) / (k + 1.0 - gamma)
        total += term
        if abs(term) < tol / 10.0 and k > 2:
            return total
        term_base *= sign * c / (k + 1.0)
    raise OracleError("series for the exponential integral did not converge")


def _scalar_singular_integral(u, interval, params, x, tol=1e-12):
    a, b = interval
    gamma = params.gamma
    n = 4
    prev = _scalar_one_sided(u, x, x - a, gamma, -1.0, n) \
        + _scalar_one_sided(u, x, b - x, gamma, +1.0, n)
    while True:
        n *= 2
        if n > oracle.MAX_NODES_PER_SIDE:
            raise OracleError("Gauss-Jacobi doubling did not converge")
        cur = _scalar_one_sided(u, x, x - a, gamma, -1.0, n) \
            + _scalar_one_sided(u, x, b - x, gamma, +1.0, n)
        if abs(cur - prev) < tol / 4.0 + 2e-14 * abs(cur):
            break
        prev = cur
    if u.kind == "exp":
        ref = math.exp(x) * (_scalar_exp_power_series(x - a, -1.0, gamma, tol)
                             + _scalar_exp_power_series(b - x, +1.0, gamma, tol))
        if abs(cur - ref) > 100.0 * tol:
            raise OracleError("Gauss-Jacobi and series disagree")
        return ref
    return cur


def _scalar_rhs(u, grid, params, nodes, tol):
    xs = grid.interior_nodes() if nodes == "plc" else grid.collocation_nodes_pqc()
    interval = (grid.a, grid.b)
    return np.array([
        uv * _scalar_kernel_row_integral(grid.a, grid.b, params.gamma, x)
        - _scalar_singular_integral(u, interval, params, x, tol)
        for x, uv in zip(xs, u(xs))
    ])


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("u", [constant(2.5), monomial(3), exponential()],
                         ids=["const", "monomial", "exp"])
def test_batched_rhs_bitwise_equals_scalar_oracle(u, gamma):
    params = KernelParams(gamma)
    for interval in ((0.0, 1.0), (-1.0, 3.0), (0.0, 1e-3)):
        for N in (2, 3, 64, 700):
            grid = UniformGrid(*interval, N)
            for nodes in ("plc", "pqc"):
                for tol in (1e-12, 1e-13):
                    try:
                        want = _scalar_rhs(u, grid, params, nodes, tol)
                    except OracleError:
                        with pytest.raises(OracleError):
                            exact_nonlocal_rhs(u, grid, params, nodes, tol)
                        continue
                    got = exact_nonlocal_rhs(u, grid, params, nodes, tol).fValues
                    assert np.array_equal(got, want), (interval, N, nodes, tol)


@pytest.mark.parametrize("u", [constant(2.5), monomial(3), exponential()],
                         ids=["const", "monomial", "exp"])
def test_singular_integral_bitwise_at_table_points(u):
    # the truncation tables evaluate at the first node, 1/3 and the centre
    for gamma in (0.3, 0.7):
        params = KernelParams(gamma)
        for N in (64, 128, 256, 512):
            grid = UniformGrid(0.0, 1.0, N)
            for x in (grid.a + grid.h, 1.0 / 3.0, 0.5):
                for tol in (1e-13, 1e-14):
                    want = _scalar_singular_integral(u, (0.0, 1.0), params, x, tol)
                    got = singular_integral(u, (0.0, 1.0), params, x, tol)
                    assert got == want, (gamma, N, x, tol)


class TestBatchedFailures:
    # On (0, 0.5) at gamma = 0.7, e^y converges at 8 nodes per side near the
    # centre and needs 16 near the ends.
    FAST = np.linspace(0.2, 0.3, 40)
    SLOW = 0.49

    def test_one_slow_point_among_many_raises(self, monkeypatch):
        u, params = exponential(), KernelParams(0.7)
        monkeypatch.setattr(oracle, "MAX_NODES_PER_SIDE", 8)
        singular_integrals(u, (0.0, 0.5), params, self.FAST)
        xs = np.insert(self.FAST, 17, self.SLOW)
        with pytest.raises(OracleError, match="did not converge"):
            singular_integrals(u, (0.0, 0.5), params, xs)

    def test_one_series_disagreement_raises(self, monkeypatch):
        u, params = exponential(), KernelParams(0.7)
        xs = np.linspace(0.1, 0.9, 33)
        singular_integrals(u, (0.0, 1.0), params, xs)
        series = oracle._exp_power_series

        def off_at_one_point(c, sign, gamma, tol):
            values = series(c, sign, gamma, tol)
            values[20] += 1e-9
            return values

        monkeypatch.setattr(oracle, "_exp_power_series", off_at_one_point)
        with pytest.raises(OracleError, match=r"disagree at x=0\.6"):
            singular_integrals(u, (0.0, 1.0), params, xs)

    def test_endpoint_among_points_rejected(self):
        xs = np.array([0.25, 0.5, 1.0])
        with pytest.raises(ValueError, match="strictly inside"):
            singular_integrals(constant(), (0.0, 1.0), KernelParams(0.5), xs)

    def test_unattainable_tolerance_rejected(self):
        with pytest.raises(ValueError, match="1e-14"):
            singular_integrals(constant(), (0.0, 1.0), KernelParams(0.5),
                               np.array([0.25, 0.5]), tol=1e-15)


@pytest.mark.parametrize("gamma, rtol", [(0.7, 1e-12), (0.95, 1e-12),
                                         (0.99, 2e-11)])
@pytest.mark.parametrize("n", [64, 512, 2048, 4096])
def test_gauss_jacobi_weights_sum_to_weight_integral(gamma, rtol, n):
    # int_0^1 s^(-gamma) ds = 1 / (1 - gamma).  With the recurrence
    # coefficients rounded to float64 the sum was off by up to 2e-10 for
    # gamma near 1, enough to stall the oracle's doubling.
    _, w = oracle._gj_rule(n, gamma)
    assert abs(np.sum(w) * (1 - gamma) - 1) <= rtol


# --- the general (alpha, beta) Jacobi recurrence, kept as the bitwise
# reference: the oracle's rules carry alpha = 0 only, and every table CSV
# rests on their bits.

def _ref_recurrence(n, alpha, beta):
    alpha, beta = np.longdouble(alpha), np.longdouble(beta)
    k = np.arange(2, n + 1, dtype=np.longdouble)
    s = 2.0 * k + alpha + beta
    poly = (2.0 * k * (k + alpha + beta) * (s - 2.0),
            (s - 1.0) * (alpha ** 2 - beta ** 2),
            (s - 2.0) * (s - 1.0) * s,
            2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s)
    k = k[:-1]
    s = 2.0 * k + alpha + beta + 2.0
    deriv = (2.0 * k * (k + alpha + beta + 2.0) * (s - 2.0),
             (s - 1.0) * ((alpha + 1.0) ** 2 - (beta + 1.0) ** 2),
             (s - 2.0) * (s - 1.0) * s,
             2.0 * (k + alpha) * (k + beta) * s)
    return poly, deriv


def _ref_jacobi_poly_and_deriv(n, alpha, beta, x):
    poly, deriv = _ref_recurrence(n, alpha, beta)
    alpha, beta = np.longdouble(alpha), np.longdouble(beta)
    p_prev = np.ones_like(x)
    p = 0.5 * (alpha + beta + 2.0) * x + 0.5 * (alpha - beta)
    if n == 0:
        p = p_prev
    for a1, a2, a3, a4 in zip(*poly):
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    if n == 0:
        return p, np.zeros_like(x)
    d_prev = np.ones_like(x)
    d = 0.5 * (alpha + beta + 4.0) * x + 0.5 * (alpha - beta)
    if n - 1 == 0:
        d = d_prev
    for a1, a2, a3, a4 in zip(*deriv):
        d, d_prev = ((a2 + a3 * x) * d - a4 * d_prev) / a1, d
    return p, 0.5 * (n + alpha + beta + 1.0) * d


def _ref_gj_rule(n, gamma):
    from scipy.special import roots_jacobi

    beta = -gamma
    x = roots_jacobi(n, 0.0, beta)[0].astype(np.longdouble)
    for _ in range(50):
        p, dp = _ref_jacobi_poly_and_deriv(n, 0.0, beta, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-16:
            break
    _, dp = _ref_jacobi_poly_and_deriv(n, 0.0, beta, x)
    c = np.longdouble(2.0) ** np.longdouble(beta + 1.0)
    w = c / ((1.0 - x ** 2) * dp ** 2)
    return (1.0 + x) / 2.0, w * np.longdouble(2.0) ** (gamma - 1.0)


def _hi_lo(values):
    # a long double's storage carries padding bytes, so compare its value as
    # the float64 pair hi + lo
    hi = values.astype(float)
    lo = (values - hi.astype(np.longdouble)).astype(float)
    return hi.tobytes() + lo.tobytes()


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64, 512])
def test_gauss_jacobi_rule_bitwise_equals_general_recurrence(n, gamma):
    got = oracle._gj_rule(n, gamma)
    want = _ref_gj_rule(n, gamma)
    assert [_hi_lo(v) for v in got] == [_hi_lo(v) for v in want]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


class TestBoundedMemory:
    def test_large_rhs(self):
        grid, params = UniformGrid(0.0, 1.0, 4096), KernelParams(0.7)
        exact_nonlocal_rhs(exponential(), UniformGrid(0.0, 1.0, 8), params)
        peak = _peak_bytes(lambda: exact_nonlocal_rhs(
            exponential(), grid, params, nodes="plc", tol=1e-13))
        assert peak <= 8e6, peak

    def test_non_converging_points_stay_chunked(self, monkeypatch):
        # a rule whose weights change by 1e-6 between levels never converges,
        # so all 1023 points reach 4096 nodes per side: one unchunked
        # working array would be 1023 x 4096 x 16 B = 67 MB
        def drifting_rule(n, gamma):
            s = np.linspace(0.0, 1.0, n, dtype=np.longdouble)
            return s, np.full(n, 1.0 + 1e-6 * (n.bit_length() % 2),
                              dtype=np.longdouble) / n

        monkeypatch.setattr(oracle, "_gj_rule", drifting_rule)

        def run():
            with pytest.raises(OracleError, match="did not converge"):
                exact_nonlocal_rhs(constant(), UniformGrid(0.0, 1.0, 1024),
                                   KernelParams(0.7), nodes="plc")

        assert _peak_bytes(run) <= 16e6


def test_package_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate serves only the adaptive-quadrature reference route and
    # is most of the import cost, so it is imported where that route runs
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    code = "import sys, nlcolloc; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
