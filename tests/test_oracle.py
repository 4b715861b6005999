"""Reference-integration oracle: cross-route agreement and closed forms."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlcolloc
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import (TestFunction, closed_form_integral, constant,
                             exact_nonlocal_rhs, exponential,
                             kernel_row_integral, monomial, singular_integral)


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


def test_package_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate serves only the adaptive-quadrature reference route and
    # is most of the import cost, so it is imported where that route runs
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    code = "import sys, nlcolloc; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
