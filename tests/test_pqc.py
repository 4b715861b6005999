"""Piecewise quadratic rule: exactness, truncation orders, block structure."""

import math

import numpy as np
import pytest

from nlcolloc import pqc, solver
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import constant, exact_nonlocal_rhs, exponential, monomial
from reference import boundary_basis_integrals, closed_form_integral


def scheme_for(gamma, N, a=0.0, b=1.0):
    """(params, grid, weight tables) of one discretisation."""
    params, grid = KernelParams(gamma), UniformGrid(a, b, N)
    return params, grid, pqc.weights(params, grid)


class TestExactness:
    """The rule integrates its interpolation space {1, y, y^2} exactly."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("u", [constant(1.5), monomial(1), monomial(2)])
    def test_weight_route_all_rows(self, gamma, u):
        # at every row of the operator the solver uses
        for N in (2, 3, 8, 64):
            params, grid, c = scheme_for(gamma, N)
            got = pqc.rule(c, u(pqc.lattice(grid)))
            want = [closed_form_integral(u, (0.0, 1.0), params, x)
                    for x in pqc.lattice(grid)[1:-1]]
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("gamma", [0.1, 0.6])
    @pytest.mark.parametrize("u", [monomial(2)])
    def test_moment_route_at_arbitrary_x(self, gamma, u):
        params, grid, _ = scheme_for(gamma, 8)
        samples = u(pqc.lattice(grid))
        for x in (1.0 / 3.0, 0.07, 0.93):
            want = closed_form_integral(u, (0.0, 1.0), params, x)
            got = pqc.interpolant_integral(params, grid, samples, x)
            assert got == pytest.approx(want, rel=1e-11)


def test_weight_and_moment_routes_agree_at_all_rows():
    for gamma in (0.0, 0.7, 0.95):
        for N in (2, 3, 16, 512):
            params, grid, c = scheme_for(gamma, N)
            samples = exponential()(pqc.lattice(grid))
            moment = [pqc.interpolant_integral(params, grid, samples, x)
                      for x in pqc.lattice(grid)[1:-1]]
            np.testing.assert_allclose(pqc.rule(c, samples), moment,
                                       rtol=1e-12, atol=0)


class TestValidation:
    def test_sample_counts(self):
        params, grid, c = scheme_for(0.5, 8)
        with pytest.raises(ValueError, match="samples"):
            pqc.rule(c, np.ones(9))
        for n in (16, 18):            # lattice(grid) has 17 points
            with pytest.raises(ValueError,
                               match=f"expected 17 samples, got {n}"):
                pqc.interpolant_integral(params, grid, np.ones(n), 0.3)


class TestTruncation:
    def test_fourth_order_at_center(self):
        params = KernelParams(0.5)
        errs = [pqc.pqc_truncation_at(params, UniformGrid(0.0, 1.0, N),
                                      exponential(), 0.5)
                for N in (16, 32, 64)]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(abs(o - 4.0) < 0.15 for o in orders)

    def test_reduced_order_off_junctions(self):
        # |I - I_2| = O(h^(4-gamma)) at non-junction x; compare same-parity
        # levels so x sits at the same relative cell position
        gamma, x = 0.6, 1.0 / 3.0
        e1, e2 = (pqc.pqc_truncation_at(KernelParams(gamma),
                                        UniformGrid(0.0, 1.0, N),
                                        exponential(), x)
                  for N in (32, 128))
        order = math.log(e1 / e2) / math.log(4.0)
        assert order == pytest.approx(4.0 - gamma, abs=0.1)

    def test_quadratic_u_hits_floor(self):
        err = pqc.pqc_truncation_at(KernelParams(0.4), UniformGrid(0.0, 1.0, 16),
                                    monomial(2), 0.5)
        assert err < 1e-12


class TestSystem:
    def test_constant_reproduced(self):
        params, grid = KernelParams(0.7), UniformGrid(0.0, 1.0, 8)
        prob = exact_nonlocal_rhs(constant(2.0), grid, params, nodes="pqc")
        sol = solver.solve_dense(pqc.assemble_pqc_system(params, grid, prob))
        assert np.max(np.abs(sol - 2.0)) < 1e-10

    def test_structure(self):
        params, grid = KernelParams(0.7), UniformGrid(0.0, 1.0, 32)
        prob = exact_nonlocal_rhs(constant(), grid, params, nodes="pqc")
        system = pqc.assemble_pqc_system(params, grid, prob)
        report = solver.check_structure(system)
        assert report.diagPositive
        assert report.offDiagNegative
        assert report.minRowSlack > 0.0
        assert not report.symmetric

    def test_row_slack_equals_boundary_integrals(self):
        # slack of each row = integral of the two boundary basis functions
        # at that row's collocation point (quadrature route, Lemma-style)
        params, grid = KernelParams(0.4), UniformGrid(0.0, 1.0, 8)
        prob = exact_nonlocal_rhs(constant(), grid, params, nodes="pqc")
        system = pqc.assemble_pqc_system(params, grid, prob)
        report = solver.check_structure(system)
        slack = np.diag(system.matrix) - np.sum(
            np.abs(system.matrix - np.diag(np.diag(system.matrix))), axis=1)
        nodes = pqc.lattice(grid)
        for row, x in ((0, nodes[2]), (7, nodes[1]), (10, nodes[7])):
            i0, iN = boundary_basis_integrals(grid, params, x, "pqc")
            assert slack[row] == pytest.approx(i0 + iN, rel=1e-9)
        assert report.minRowSlack == pytest.approx(np.min(slack))

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("N", [2, 3, 8, 64])
    def test_rows_match_single_row_evaluator(self, N, gamma):
        # the rule from the FFT product equals the dense rows plus the
        # boundary columns; rows in paper order: x_1 .. x_{N-1} (doubled
        # index 2r), then x_{1/2} .. x_{N-1/2} (doubled index 2s + 1)
        _, _, c = scheme_for(gamma, N)
        samples = np.random.default_rng(N).uniform(1.0, 2.0, 2 * N + 1)
        u0, uN = samples[0], samples[-1]
        s = np.concatenate([samples[2:-1:2], samples[1::2]])
        d = np.concatenate([c.dHalf[1::2], c.dHalf[0::2]])
        want = c.eta * np.concatenate([
            d[:N - 1] * s[:N - 1] + c.beta * u0 + c.beta[::-1] * uN,
            d[N - 1:] * s[N - 1:] + c.gammaB * u0 + c.gammaB[::-1] * uN,
        ]) - pqc.structure(c).dense() @ s
        rows = list(range(2, 2 * N, 2)) + list(range(1, 2 * N, 2))
        got = pqc.rule(c, samples)[np.array(rows) - 1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_rhs_length_validated(self):
        params, grid = KernelParams(0.5), UniformGrid(0.0, 1.0, 8)
        prob = exact_nonlocal_rhs(constant(), grid, params, nodes="plc")
        with pytest.raises(ValueError, match="right-hand-side"):
            pqc.assemble_pqc_system(params, grid, prob)

