"""Reference-integration oracle: cross-route agreement and closed forms."""

import itertools
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
from scipy import linalg
from scipy.special import roots_jacobi

import nlcolloc
from nlcolloc import oracle
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import (OracleError, TestFunction, constant,
                             exact_nonlocal_rhs, exponential,
                             kernel_row_integral, monomial, singular_integral,
                             singular_integrals)
from reference import closed_form_integral


class TestKernelRowIntegral:
    def test_gamma_zero_is_length(self):
        assert kernel_row_integral(0.0, 1.0, 0.0, 0.3) == pytest.approx(1.0)

    def test_symmetry(self):
        assert kernel_row_integral(0.0, 1.0, 0.6, 0.25) == pytest.approx(
            kernel_row_integral(0.0, 1.0, 0.6, 0.75), rel=1e-14)

    def test_endpoints_accepted(self):
        row = kernel_row_integral(0.0, 1.0, 0.5, np.array([0.0, 1.0]))
        assert row.tolist() == [2.0, 2.0]
        assert kernel_row_integral(0.0, 1.0, 0.5, 1.0) == 2.0

    @pytest.mark.parametrize("x, named", [
        (2.0, "x=2.0"), (-0.5, "x=-0.5"), (np.nan, "x=nan"),
        (np.inf, "x=inf"), (np.array([0.5, 1.5, 0.25]), "x=1.5")])
    def test_point_outside_interval_rejected(self, x, named):
        # 2.0 once gave (2.83+2j), and an array with one such point a
        # complex array
        with pytest.raises(ValueError, match=f"{named} must lie in"):
            kernel_row_integral(0.0, 1.0, 0.5, x)

    def test_points_not_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            kernel_row_integral(0.0, 1.0, 0.5, np.array([[0.25], [0.5]]))

    @pytest.mark.parametrize("gamma, x", [(1.5, 0.0), (1.0, 0.5), (-0.5, 0.5),
                                          (np.nan, 0.5)])
    def test_gamma_outside_kernel_range_rejected(self, gamma, x):
        # these once gave a bare "math domain error", inf with a
        # RuntimeWarning, 0.667 and nan
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
            kernel_row_integral(0.0, 1.0, gamma, x)


class TestTestFunction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TestFunction("cubic-spline")

    def test_monomial_power_range(self):
        with pytest.raises(ValueError):
            monomial(5)

    def test_monomial_power_must_be_an_integer(self):
        # the closed forms and y ** p for y < 0 need an integer power
        with pytest.raises(ValueError, match="integer"):
            TestFunction("monomial", p=2.5)

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
        # a nan tol once passed the check, doubled to the node cap
        # and raised OracleError; an infinite one took the first level
        for tol in (1e-16, np.nan, np.inf):
            with pytest.raises(ValueError, match="1e-14"):
                singular_integral(constant(), (0.0, 1.0), KernelParams(0.5),
                                  0.5, tol=tol)

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
        assert len(prob.fValues) == 15

    def test_unknown_node_set_rejected(self):
        with pytest.raises(ValueError, match="node set"):
            exact_nonlocal_rhs(constant(), UniformGrid(0.0, 1.0, 4),
                               KernelParams(0.5), nodes="chebyshev")


# --- the per-point scalar oracle, kept as the bitwise reference -------------
#
# singular_integrals evaluates every point at once; these are the scalar
# routines it replaced, and the batched values must equal them bit for bit.
# For const and monomial u the value is the Gauss-Jacobi sum itself.  The
# table CSVs all use u = e^y, whose value is the series: there the
# Gauss-Jacobi levels only decide whether the cross-check raises.

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
        left = _scalar_one_sided(u, x, x - a, gamma, -1.0, n)
        right = _scalar_one_sided(u, x, b - x, gamma, +1.0, n)
        cur = left + right
        if abs(cur - prev) < tol / 4.0 + 2e-14 * (abs(left) + abs(right)):
            break
        prev = cur
    if u.kind == "exp":
        ref = math.exp(x) * (_scalar_exp_power_series(x - a, -1.0, gamma, tol)
                             + _scalar_exp_power_series(b - x, +1.0, gamma, tol))
        if abs(cur - ref) > 100.0 * tol + 2e-14 * abs(ref):
            raise OracleError("Gauss-Jacobi and series disagree")
        return ref
    return cur


def _scalar_rhs(u, grid, params, nodes, tol):
    xs = grid.lattice(1 if nodes == "plc" else 2)[1:-1]
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
    # on (0, 20) the sides' series stop up to about 60 terms apart
    for interval, levels in (((0.0, 1.0), (2, 3, 64, 700)),
                             ((-1.0, 3.0), (2, 3, 64, 700)),
                             ((0.0, 1e-3), (2, 3, 64, 700)),
                             ((0.0, 20.0), (2, 3, 64))):
        for N in levels:
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


# --- the lattice route of exact_nonlocal_rhs --------------------------------
#
# For e^y at the collocation lattice, the Gauss-Jacobi levels come from
# power tables in float64; they only cross-check the series, whose value is
# returned, so fValues must keep every bit of the arbitrary-point route.

def _lattice(grid, nodes):
    p = 1 if nodes == "plc" else 2
    return grid.lattice(p)[1:-1], grid.h / p


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 3.0), (0.0, 1e-3),
                                      (0.0, 20.0)])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95, 0.99])
def test_lattice_levels_match_long_double_route(gamma, interval):
    a, b = interval
    u = exponential()
    for N in (2, 3, 64, 700, 4096):
        for nodes in ("plc", "pqc"):
            xs, step = _lattice(UniformGrid(a, b, N), nodes)
            lengths = np.concatenate([xs - a, b - xs])
            sides = oracle._lattice_sides(b, gamma, xs, step,
                                          oracle._pow(lengths, 1.0 - gamma))
            points = np.concatenate([xs, xs])
            signs = np.repeat([-1.0, 1.0], xs.size)
            for n in (4, 8, 16, 32):
                want = (oracle._side_scales(lengths, gamma) * oracle._rule_sums(
                    u, points, signs * lengths, gamma, n)).astype(float)
                got = sides(np.arange(xs.size), n)
                assert np.max(np.abs(got - want) / want) <= 5e-14, (N, nodes, n)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
def test_lattice_rhs_bitwise_equals_point_route(gamma):
    u, params = exponential(), KernelParams(gamma)
    for interval in ((0.0, 1.0), (-1.0, 3.0), (0.0, 1e-3)):
        for N in (2, 3, 64, 700, 4096):
            grid = UniformGrid(*interval, N)
            for nodes in ("plc", "pqc"):
                xs, _ = _lattice(grid, nodes)
                for tol in (1e-12, 1e-13):
                    try:
                        want = u(xs) * kernel_row_integral(*interval, gamma, xs) \
                            - singular_integrals(u, interval, params, xs, tol)
                    except OracleError:
                        with pytest.raises(OracleError):
                            exact_nonlocal_rhs(u, grid, params, nodes, tol)
                        continue
                    got = exact_nonlocal_rhs(u, grid, params, nodes, tol).fValues
                    assert np.array_equal(got, want), (interval, N, nodes, tol)


@pytest.mark.parametrize("nodes", ["plc", "pqc"])
def test_rhs_takes_each_side_power_once(nodes, monkeypatch):
    # the kernel row, the lattice levels and the series share one
    # C-library power per side, of sides taken once
    calls = {"_pow": [], "_sides": []}
    for name, seen in calls.items():
        def counted(*args, original=getattr(oracle, name), seen=seen):
            seen.append(args)
            return original(*args)
        monkeypatch.setattr(oracle, name, counted)
    problem = exact_nonlocal_rhs(exponential(), UniformGrid(0.0, 1.0, 64),
                                 KernelParams(0.7), nodes)
    n = problem.fValues.size
    assert [base.size for base, _ in calls["_pow"]] == [2 * n]
    assert len(calls["_sides"]) == 1

    calls["_pow"].clear()
    xs = np.linspace(0.1, 0.9, 9)
    singular_integrals(exponential(), (0.0, 1.0), KernelParams(0.7), xs)
    assert [base.size for base, _ in calls["_pow"]] == [2 * xs.size]


def test_series_sides_stop_at_their_own_terms():
    # one array whose sides stop about 4 to 60 terms apart, both signs,
    # gives every bit of one-element calls
    c = np.repeat(np.geomspace(1e-3, 20.0, 40), 2)
    sign = np.tile([-1.0, 1.0], 40)
    cpow = oracle._pow(c, 1.0 - 0.7)
    for tol in (1e-12, 1e-13, 1e-14):
        got = oracle._exp_power_series(c, sign, cpow, 0.7, tol)
        want = [oracle._exp_power_series(c[i:i + 1], sign[i:i + 1],
                                         cpow[i:i + 1], 0.7, tol)[0]
                for i in range(c.size)]
        assert got.tobytes() == np.array(want).tobytes(), tol


@pytest.mark.parametrize("nodes", ["plc", "pqc"])
def test_only_the_exponential_takes_the_lattice_route(nodes, monkeypatch):
    def no_long_double_sums(*args):
        raise AssertionError("long-double rule sums called")

    monkeypatch.setattr(oracle, "_rule_sums", no_long_double_sums)
    grid, params = UniformGrid(-1.0, 3.0, 64), KernelParams(0.7)
    exact_nonlocal_rhs(exponential(), grid, params, nodes)
    for u in (constant(2.5), monomial(3)):
        with pytest.raises(AssertionError, match="rule sums"):
            exact_nonlocal_rhs(u, grid, params, nodes)


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
        with pytest.raises(OracleError, match=r"did not converge.*x=0\.49"):
            singular_integrals(u, (0.0, 0.5), params, xs)

    def test_one_series_disagreement_raises(self, monkeypatch):
        u, params = exponential(), KernelParams(0.7)
        xs = np.linspace(0.1, 0.9, 33)
        singular_integrals(u, (0.0, 1.0), params, xs)
        series = oracle._exp_power_series

        def off_at_one_point(*args):
            values = series(*args)
            values[20] += 1e-9
            return values

        monkeypatch.setattr(oracle, "_exp_power_series", off_at_one_point)
        with pytest.raises(OracleError, match=r"disagree at x=0\.6"):
            singular_integrals(u, (0.0, 1.0), params, xs)

    def test_series_gate_scales_with_the_integral(self):
        # I is about 1.9e4 here: the two routes differ by 1.3e-11, a few
        # ulps of I, which an absolute 100*tol gate alone takes for a
        # disagreement on the arbitrary-point route but not on the lattice
        params, grid = KernelParams(0.99), UniformGrid(2.0, 7.0, 2)
        xs = grid.lattice(1)[1:-1]
        value = singular_integrals(exponential(), (2.0, 7.0), params, xs)
        lengths, signs = oracle._sides(2.0, 7.0, xs)
        assert value.tobytes() == oracle._exp_integral_series(
            xs, lengths, signs, oracle._pow(lengths, 1.0 - 0.99), 0.99,
            oracle.ORACLE_TOL).tobytes()
        problem = exact_nonlocal_rhs(exponential(), grid, params)
        assert problem.fValues.tobytes() == (
            np.exp(xs) * kernel_row_integral(2.0, 7.0, 0.99, xs)
            - value).tobytes()

    def test_endpoint_among_points_rejected(self):
        xs = np.array([0.25, 0.5, 1.0])
        with pytest.raises(ValueError, match="strictly inside"):
            singular_integrals(constant(), (0.0, 1.0), KernelParams(0.5), xs)

    def test_unattainable_tolerance_rejected(self):
        for tol in (1e-15, np.nan, np.inf):
            with pytest.raises(ValueError, match="1e-14"):
                singular_integrals(constant(), (0.0, 1.0), KernelParams(0.5),
                                   np.array([0.25, 0.5]), tol=tol)

    @pytest.mark.parametrize("xs", [0.5, [[0.25], [0.5]]])
    def test_points_not_one_dimensional_rejected(self, xs):
        # a 2-D xs once failed with a numpy broadcast error
        with pytest.raises(ValueError, match="1-D"):
            singular_integrals(constant(), (0.0, 1.0), KernelParams(0.5), xs)


@pytest.mark.parametrize("gamma, rtol", [(0.7, 1e-12), (0.95, 1e-12),
                                         (0.99, 2e-11)])
@pytest.mark.parametrize("n", [64, 256])
def test_gauss_jacobi_weights_sum_to_weight_integral(gamma, rtol, n):
    # int_0^1 s^(-gamma) ds = 1 / (1 - gamma).  With the recurrence
    # coefficients rounded to float64 the sum was off by up to 2e-10 for
    # gamma near 1, enough to stall the oracle's doubling.
    _, w = oracle._gj_rule(n, gamma)
    assert abs(np.sum(w) * (1 - gamma) - 1) <= rtol


# --- the general (alpha, beta) Jacobi recurrence, kept as the bitwise
# reference: the oracle's rules carry alpha = 0 only.  The const and
# monomial values are sums over these rules; the table CSVs (u = e^y, whose
# value is the series) take from them only the cross-check's verdict.

def _ref_recurrence(n, alpha, beta):
    alpha, beta = np.longdouble(alpha), np.longdouble(beta)
    k = np.arange(2, n + 1, dtype=np.longdouble)
    s = 2.0 * k + alpha + beta
    return (2.0 * k * (k + alpha + beta) * (s - 2.0),
            (s - 1.0) * (alpha ** 2 - beta ** 2),
            (s - 2.0) * (s - 1.0) * s,
            2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s)


def _ref_jacobi_poly_and_deriv(n, alpha, beta, x, left):
    # P_n^(alpha,beta)(t), n >= 1, and P_n' from the recurrence
    # differentiated in t, at t = x - 1 where left and t = x elsewhere
    recurrence = _ref_recurrence(n, alpha, beta)
    alpha, beta = np.longdouble(alpha), np.longdouble(beta)
    p_prev = np.ones_like(x)
    p = 0.5 * (alpha + beta + 2.0) * x + np.where(left, -1.0 - beta,
                                                  0.5 * (alpha - beta))
    d_prev = np.zeros_like(x)
    d = np.full_like(x, 0.5 * (alpha + beta + 2.0))
    for a1, a2, a3, a4 in zip(*recurrence):
        c = np.where(left, a2 - a3, a2) + a3 * x
        p, p_prev, d, d_prev = ((c * p - a4 * p_prev) / a1, p,
                                (c * d + a3 * p - a4 * d_prev) / a1, d)
    return p, d


def _ref_newton(n, gamma, poly_and_deriv):
    # the eigenvalues of the symmetrised Jacobi matrix of P_n^(0,-gamma),
    # polished on it in x = 1 + t where t < -1/2 and in x = t elsewhere;
    # 1 + t, 1 - t and P_n' at the nodes, the last step's P_n' moved there
    # by P''/P' = ((beta+2) t - beta)/(1 - t^2) where P_n = 0
    beta = np.longdouble(-gamma)
    a1, a2, a3, a4 = _ref_recurrence(n, 0.0, beta)
    diagonal = np.append(beta / (beta + 2.0), -a2 / a3)
    upper = np.append(2.0 / (beta + 2.0), a1 / a3)[:n - 1]
    t = linalg.eigvalsh_tridiagonal(diagonal.astype(float),
                                    np.sqrt(upper * a4 / a3).astype(float))
    left = t < -0.5
    x = np.where(left, 1.0 + t, t).astype(np.longdouble)
    for _ in range(3):
        p, dp = poly_and_deriv(x, left)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-16:
            break
    d, e = np.where(left, x, 1.0 + x), np.where(left, 2.0 - x, 1.0 - x)
    return d, e, dp * (1.0 - dx * ((beta + 2.0) * (d - 1.0) - beta) / (d * e))


def _ref_gj_rule(n, gamma):
    # with alpha = 0 the weight on [0, 1] is 1/((1-t^2) P_n'^2)
    d, e, dp = _ref_newton(n, gamma, lambda x, left: _ref_jacobi_poly_and_deriv(
        n, 0.0, -gamma, x, left))
    return d / 2.0, 1.0 / (d * e * dp ** 2)


def _family_gj_rule(n, gamma):
    # the same rule with P_n' from another family and both weight constants:
    # P_n^(0,beta)' = (n + beta + 1)/2 P_(n-1)^(1,beta+1), C = 2^(beta+1) on
    # [-1, 1], and 2^(gamma-1) for the map to [0, 1]
    beta = np.longdouble(-gamma)

    def poly_and_deriv(x, left):
        p, _ = _ref_jacobi_poly_and_deriv(n, 0.0, beta, x, left)
        family = np.ones_like(x) if n == 1 else _ref_jacobi_poly_and_deriv(
            n - 1, 1.0, beta + 1.0, x, left)[0]
        return p, 0.5 * (n + beta + 1.0) * family

    d, e, dp = _ref_newton(n, gamma, poly_and_deriv)
    w = np.longdouble(2.0) ** (beta + 1.0) / (d * e * dp ** 2)
    return d / 2.0, w * np.longdouble(2.0) ** (gamma - 1.0)


def _hi_lo(values):
    # a long double's storage carries padding bytes, so compare its value as
    # the float64 pair hi + lo
    hi = values.astype(float)
    lo = (values - hi.astype(np.longdouble)).astype(float)
    return hi.tobytes() + lo.tobytes()


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64, 256])
def test_gauss_jacobi_rule_bitwise_equals_general_recurrence(n, gamma):
    got = oracle._gj_rule(n, gamma)
    want = _ref_gj_rule(n, gamma)
    assert [_hi_lo(v) for v in got] == [_hi_lo(v) for v in want]


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64, 128, 256])
def test_gauss_jacobi_weights_match_derivative_family(n, gamma):
    # P_n' from the (1, beta+1) family has its own rounding: the Newton
    # steps end on the same nodes, and the weights agree to a few ulps
    # (measured worst 2.2e-15)
    s, w = oracle._gj_rule(n, gamma)
    s_ref, w_ref = _family_gj_rule(n, gamma)
    assert _hi_lo(s) == _hi_lo(s_ref)
    assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-14


def _mp_rule_errors(mp, n, gamma):
    # relative errors of s (as hi + lo) and of w against 40-digit values
    # from mpmath's hypergeometric P_n^(0,-gamma), independent of the
    # recurrence: one Newton step from each node, with P'' from the Jacobi
    # equation (1-t^2) P'' = ((beta+2) t - beta) P' - n (n+beta+1) P
    s, w = oracle._gj_rule(n, gamma)
    beta = -mp.mpf(gamma)

    def jacobi(k, alpha, t):     # P_k^(alpha, beta+alpha)(t)
        return mp.jacobi(k, alpha, beta + alpha, t, zeroprec=400) if k else 1

    def exact(v):
        hi = float(v)
        return mp.mpf(hi) + mp.mpf(float(v - np.longdouble(hi)))

    err_s, err_w = [], []
    with mp.workdps(40):
        for s_k, w_k in zip(map(exact, s), map(exact, w)):
            t = 2 * s_k - 1
            p, dp = jacobi(n, 0, t), (n + beta + 1) / 2 * jacobi(n - 1, 1, t)
            ddp = (((beta + 2) * t - beta) * dp - n * (n + beta + 1) * p) \
                / (1 - t * t)
            step = p / dp
            t, dp = t - step, dp - ddp * step
            err_s.append(abs(s_k / ((1 + t) / 2) - 1))
            err_w.append(abs(w_k * (1 - t) * (1 + t) * dp ** 2 - 1))
    return float(max(err_s)), float(max(err_w))


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 256])
def test_gauss_jacobi_rule_against_mpmath(n, gamma):
    # Measured worst over these cases: 6.3e-18 at n = 8, 1.5e-16 at n = 64,
    # 5.1e-15 at n = 256 (s and w alike, at the node nearest t = -1), about
    # 8e-20 n^2.  The bound rejects nodes polished in t near -1: from
    # roots_jacobi's seeds they read up to 3.4e-15 at n = 64 and 4.6e-14
    # at n = 256.
    mp = pytest.importorskip("mpmath")
    bound = 2e-19 * n ** 2 + 1e-17
    err_s, err_w = _mp_rule_errors(mp, n, gamma)
    assert err_s <= bound and err_w <= bound, (err_s, err_w)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64, 100, 256])
def test_gauss_jacobi_seeds_match_scipy_roots(monkeypatch, n):
    # the Jacobi-matrix eigenvalues that seed the Newton polish are
    # scipy.special.roots_jacobi's nodes to float64 roundoff (measured
    # worst 8.25 eps over n <= 512)
    seeds, eigenvalues = [], oracle._tridiagonal_eigenvalues
    monkeypatch.setattr(oracle, "_tridiagonal_eigenvalues", lambda d, e:
                        seeds.append(eigenvalues(d, e)) or seeds[-1])
    for gamma in (0.0, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99):
        oracle._gj_rule.__wrapped__(n, gamma)
        want = roots_jacobi(n, 0.0, -gamma)[0]
        assert np.max(np.abs(seeds[-1] - want)) <= 16 * np.finfo(float).eps


def test_gauss_jacobi_rule_size_limited():
    # the doubling loop stops at MAX_NODES_PER_SIDE; a direct caller, like
    # criterion 7's uncapped doubling, must not build a larger rule either
    with pytest.raises(OracleError, match="exceed"):
        oracle._gj_rule(oracle.MAX_NODES_PER_SIDE + 1, 0.5)


def test_rule_sizes_stay_well_below_the_cap(monkeypatch):
    # every call returns with rules of at most 32 nodes (at the points
    # 1e-9 (b - a) from an end): 64 allows one more doubling, and the cap
    # of 256 two more beyond that
    sizes, rule = [], oracle._gj_rule
    monkeypatch.setattr(oracle, "_gj_rule",
                        lambda n, gamma: sizes.append(n) or rule(n, gamma))
    offsets = np.concatenate([[1e-9], np.linspace(0.0, 1.0, 33)[1:-1],
                              [1.0 - 1e-9]])
    for (a, b), gamma, u, tol in itertools.product(
            [(0.0, 1.0), (-1.0, 3.0), (2.0, 7.0), (0.0, 5.0), (0.0, 1e-3)],
            [0.0, 0.3, 0.7, 0.99, 1.0 - 1e-6],
            [exponential(), constant(), monomial(4)], [1e-13, 1e-14]):
        values = singular_integrals(u, (a, b), KernelParams(gamma),
                                    a + (b - a) * offsets, tol)
        assert np.all(np.isfinite(values))
    assert max(sizes) <= 64


def _drifting_rule(n, gamma):
    # weights that change by 1e-6 between levels: no point ever converges
    s = np.linspace(0.0, 1.0, n, dtype=np.longdouble)
    return s, np.full(n, 1.0 + 1e-6 * (n.bit_length() % 2),
                      dtype=np.longdouble) / n


def test_non_converging_points_raise_at_the_cap(monkeypatch):
    sizes = []
    monkeypatch.setattr(oracle, "_gj_rule", lambda n, gamma:
                        sizes.append(n) or _drifting_rule(n, gamma))
    with pytest.raises(OracleError, match="within 256 nodes per side"):
        singular_integrals(constant(), (0.0, 1.0), KernelParams(0.7),
                           np.array([0.3, 0.5]))
    assert max(sizes) == oracle.MAX_NODES_PER_SIDE == 256


def test_cancelling_sides_integrate_to_zero():
    # u = y on (-1000, 1000) at gamma = 0: I(x) = int y dy = 0 at every x.
    # The sides sum to at most 1e6 in size, so a gate that scales with them
    # allows |I| up to 2e-14 * 1e6
    grid = UniformGrid(-1000.0, 1000.0, 8192)
    values = singular_integrals(monomial(1), (grid.a, grid.b),
                                KernelParams(0.0), grid.lattice(1)[1:-1])
    assert np.max(np.abs(values)) <= 2e-8


def test_largest_rule_and_oracle_load_no_scipy():
    # the seeds come from numpy's dense eigensolver at every rule size
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    code = ("import sys\n"
            "import numpy as np\n"
            "from nlcolloc import oracle\n"
            "from nlcolloc.grid import KernelParams\n"
            "oracle._gj_rule(oracle.MAX_NODES_PER_SIDE, 0.7)\n"
            "oracle.singular_integrals(oracle.exponential(), (0.0, 1.0), "
            "KernelParams(0.7), np.linspace(0.1, 0.9, 9))\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
        # under the drifting rule all 8191 points reach 256 nodes per side:
        # one unchunked working array would be 8191 x 256 x 16 B = 34 MB
        monkeypatch.setattr(oracle, "_gj_rule", _drifting_rule)

        def run():
            with pytest.raises(OracleError, match="did not converge"):
                exact_nonlocal_rhs(constant(), UniformGrid(0.0, 1.0, 8192),
                                   KernelParams(0.7), nodes="plc")

        assert _peak_bytes(run) <= 16e6


class TestOverflow:
    """Far from 0, e^y overflows float64; both routes say so at once."""

    def test_point_route_stops_at_the_first_level(self, monkeypatch):
        # every level is infinite: doubling on would build rules of up to
        # MAX_NODES_PER_SIDE nodes, at O(n^2) each
        sizes, rule = [], oracle._gj_rule
        monkeypatch.setattr(oracle, "_gj_rule",
                            lambda n, gamma: sizes.append(n) or rule(n, gamma))
        with pytest.raises(OracleError, match="x=710.0 is not finite"):
            singular_integral(exponential(), (700.0, 720.0), KernelParams(0.5),
                              710.0, 1e-13)
        assert max(sizes) <= 8

    def test_lattice_route(self):
        params = KernelParams(0.5)
        with pytest.raises(OracleError, match="overflows float64 at y=720.0"):
            exact_nonlocal_rhs(exponential(), UniformGrid(700.0, 720.0, 8),
                               params, tol=1e-13)
        # e^b is finite, the sides near b are not
        with pytest.raises(OracleError, match="not finite"):
            exact_nonlocal_rhs(exponential(), UniformGrid(700.0, 709.7, 8),
                               params, tol=1e-13)


def test_package_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate serves only the tests' adaptive-quadrature reference
    # route (tests/reference.py); no library module imports it
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    code = "import sys, nlcolloc; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
