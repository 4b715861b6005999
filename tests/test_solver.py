"""Dense solve, eigenvalue estimation, and structure reporting."""

import numpy as np
import pytest
from scipy import linalg

from nlcolloc import plc, solver
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import constant, exact_nonlocal_rhs, exponential
from nlcolloc.solver import CollocationSystem


def wrap(A, b):
    return CollocationSystem(matrix=A, rhs=b, scheme="plc",
                             nodes=np.arange(len(b), dtype=float))


class TestSolveDense:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(solver.solve_dense(wrap(np.eye(3), b)), b)

    def test_plc_scalar_case(self):
        params, grid = KernelParams(0.5), UniformGrid(0.0, 1.0, 2)
        prob = exact_nonlocal_rhs(exponential(), grid, params, nodes="plc")
        system = plc.assemble_plc_system(params, grid, prob)
        c = plc.make_rule(params, grid).coeffs
        want = system.rhs[0] / (c.sigma * (c.d[0] - c.g[0]))
        assert solver.solve_dense(system)[0] == pytest.approx(want, rel=1e-14)

    def test_random_dominant_residual(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((50, 50))
        A += np.diag(np.sum(np.abs(A), axis=1))
        b = rng.standard_normal(50)
        x = solver.solve_dense(wrap(A, b))
        res = np.max(np.abs(A @ x - b))
        assert res <= 1e-10 * np.max(np.abs(A)) * max(1.0, np.max(np.abs(x)))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_rejected(self):
        A = np.zeros((3, 3))
        with pytest.raises(solver.SingularSystemError):
            solver.solve_dense(wrap(A, np.ones(3)))

    def test_agrees_with_cholesky_on_spd(self):
        params, grid = KernelParams(0.6), UniformGrid(0.0, 1.0, 32)
        prob = exact_nonlocal_rhs(exponential(), grid, params, nodes="plc")
        system = plc.assemble_plc_system(params, grid, prob)
        lu_path = solver.solve_dense(system)
        chol_path = linalg.cho_solve(linalg.cho_factor(system.matrix),
                                     system.rhs)
        assert np.allclose(lu_path, chol_path, rtol=1e-10, atol=1e-14)


class TestMinEigenvalue:
    def test_diagonal_matrix(self):
        A = np.diag([4.0, 1.0, 9.0])
        assert solver.min_eigenvalue(A) == pytest.approx(1.0, rel=1e-10)

    def test_matches_dense_eigensolver(self):
        A = plc.plc_matrix(KernelParams(0.4), UniformGrid(0.0, 1.0, 24))
        want = np.min(linalg.eigvalsh(A))
        assert solver.min_eigenvalue(A) == pytest.approx(want, rel=1e-8)


class TestCheckStructure:
    def test_positive_diagonal_detection(self):
        A = np.array([[2.0, -0.5], [-0.5, 2.0]])
        report = solver.check_structure(wrap(A, np.zeros(2)))
        assert report.diagPositive
        assert report.offDiagNegative
        assert report.minRowSlack == pytest.approx(1.5)
        assert report.symmetric

    def test_violations_reported(self):
        A = np.array([[2.0, 0.5], [-3.0, -1.0]])
        report = solver.check_structure(wrap(A, np.zeros(2)))
        assert not report.diagPositive
        assert not report.offDiagNegative
        assert report.minRowSlack < 0.0

    def test_spd_flag_only_meaningful_for_plc(self):
        A = np.array([[2.0, -0.5], [-0.5, 2.0]])
        system = wrap(A, np.zeros(2))
        assert solver.check_structure(system).spdFactorizationOk is True


def test_gershgorin_reference_bound_positive():
    for gamma in (0.0, 0.5, 0.9):
        bound = solver.gershgorin_reference_bound(KernelParams(gamma),
                                                  UniformGrid(0.0, 1.0, 64))
        assert bound > 0.0

