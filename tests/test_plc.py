"""Piecewise linear rule: exactness, truncation orders, matrix structure."""

import math

import numpy as np
import pytest

from nlcolloc import plc, solver
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import constant, exact_nonlocal_rhs, exponential, monomial
from reference import (closed_form_integral, gershgorin_reference_bound,
                       min_eigenvalue)


def scheme_for(gamma, N, a=0.0, b=1.0):
    """(params, grid, weight tables) of one discretisation."""
    params, grid = KernelParams(gamma), UniformGrid(a, b, N)
    return params, grid, plc.weights(params, grid)


class TestExactness:
    """The rule integrates its own interpolation space {1, y} exactly."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("u", [constant(2.5), monomial(1)])
    def test_weight_route(self, gamma, u):
        # at every row of the operator the solver uses
        for N in (2, 3, 8, 64):
            params, grid, c = scheme_for(gamma, N)
            got = plc.rule(c, u(plc.lattice(grid)))
            want = [closed_form_integral(u, (0.0, 1.0), params, x)
                    for x in plc.nodes(grid)]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("gamma", [0.1, 0.6])
    @pytest.mark.parametrize("u", [constant(2.5), monomial(1)])
    def test_moment_route_at_arbitrary_x(self, gamma, u):
        params, grid, _ = scheme_for(gamma, 16)
        samples = u(plc.lattice(grid))
        for x in (1.0 / 3.0, 0.05, 0.991):
            want = closed_form_integral(u, (0.0, 1.0), params, x)
            got = plc.interpolant_integral(params, grid, samples, x)
            assert got == pytest.approx(want, rel=1e-12)


def test_weight_and_moment_routes_agree_at_junctions():
    for gamma in (0.0, 0.55, 0.95):
        for N in (2, 3, 32, 512):
            params, grid, c = scheme_for(gamma, N)
            samples = np.exp(plc.lattice(grid))
            moment = [plc.interpolant_integral(params, grid, samples, x)
                      for x in plc.nodes(grid)]
            np.testing.assert_allclose(plc.rule(c, samples), moment,
                                       rtol=1e-13, atol=0)


class TestValidation:
    def test_sample_count(self):
        params, grid, c = scheme_for(0.5, 8)
        with pytest.raises(ValueError, match="samples"):
            plc.rule(c, np.ones(8))
        for n in (8, 10):             # lattice(grid) has 9 points
            with pytest.raises(ValueError,
                               match=f"expected 9 samples, got {n}"):
                plc.interpolant_integral(params, grid, np.ones(n), 0.3)

    def test_eval_point_inside(self):
        params, grid, _ = scheme_for(0.5, 8)
        with pytest.raises(ValueError, match="outside"):
            plc.interpolant_integral(params, grid, np.ones(9), 1.5)


class TestTruncation:
    def test_second_order_at_center(self):
        params = KernelParams(0.5)
        errs = [plc.truncation_error(params, UniformGrid(0.0, 1.0, N),
                                     exponential(), 0.5)
                for N in (32, 64, 128)]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(abs(o - 2.0) < 0.1 for o in orders)

    def test_linear_u_hits_floor(self):
        err = plc.truncation_error(KernelParams(0.4), UniformGrid(0.0, 1.0, 32),
                                   monomial(1), 0.5)
        assert err < 1e-13


class TestSystem:
    def test_constant_reproduced(self):
        params, grid = KernelParams(0.6), UniformGrid(0.0, 1.0, 16)
        prob = exact_nonlocal_rhs(constant(3.0), grid, params, nodes="plc")
        sol = solver.solve_dense(plc.assemble_plc_system(params, grid, prob))
        assert np.max(np.abs(sol - 3.0)) < 1e-10

    def test_m_matrix_structure(self):
        params, grid = KernelParams(0.5), UniformGrid(0.0, 1.0, 16)
        prob = exact_nonlocal_rhs(constant(), grid, params, nodes="plc")
        system = plc.assemble_plc_system(params, grid, prob)
        report = solver.check_structure(system)
        assert report.diagPositive
        assert report.offDiagNegative
        assert report.minRowSlack > 0.0
        assert report.symmetric
        assert report.spdFactorizationOk

    def test_row_sums_equal_boundary_weights(self):
        params, grid = KernelParams(0.35), UniformGrid(0.0, 1.0, 12)
        prob = exact_nonlocal_rhs(constant(), grid, params, nodes="plc")
        system = plc.assemble_plc_system(params, grid, prob)
        c = plc.weights(params, grid)
        want = c.sigma * (c.alpha + c.alpha[::-1])
        assert np.allclose(solver.check_structure(system).rowSums, want,
                           rtol=1e-10, atol=0)

    def test_eigenvalue_above_gershgorin_bound(self):
        params, grid = KernelParams(0.7), UniformGrid(0.0, 1.0, 32)
        c = plc.weights(params, grid)
        A = plc.structure(c).dense()
        lam = min_eigenvalue(A)
        slack = solver.check_structure(
            plc.assemble_plc_system(
                params, grid,
                exact_nonlocal_rhs(constant(), grid, params, nodes="plc"))
        ).minRowSlack
        assert lam >= slack > 0.0
        # the unscaled analytic bound of the convergence analysis
        assert lam / c.sigma >= gershgorin_reference_bound(params, grid)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("N", [2, 3, 8, 64])
    def test_rows_match_single_row_evaluator(self, N, gamma):
        # the rule from the operator's FFT product equals the weight tables
        # read one row at a time: sigma (sum_j g_|i-j| u_j + alpha_i u_0
        # + alpha_{N-i} u_N)
        _, _, c = scheme_for(gamma, N)
        samples = np.random.default_rng(N).uniform(1.0, 2.0, N + 1)
        j = np.arange(1, N)
        want = c.sigma * (c.g[np.abs(j[:, None] - j)] @ samples[1:N]
                          + c.alpha * samples[0] + c.alpha[::-1] * samples[N])
        np.testing.assert_allclose(plc.rule(c, samples), want, rtol=1e-12,
                                   atol=0)

    def test_rhs_length_validated(self):
        params, grid = KernelParams(0.5), UniformGrid(0.0, 1.0, 8)
        prob = exact_nonlocal_rhs(constant(), grid, params, nodes="pqc")
        with pytest.raises(ValueError, match="right-hand-side"):
            plc.assemble_plc_system(params, grid, prob)
