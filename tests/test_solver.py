"""Solves, the Toeplitz operator description, eigenvalue estimation, and
structure reporting."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

import nlcolloc
from nlcolloc import plc, pqc, solver
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import constant, exact_nonlocal_rhs, exponential
from nlcolloc.solver import CollocationSystem, ToeplitzStructure
from nlcolloc.study import SCHEMES
from reference import (brent_kung_prefix_sums, check_structure_by_block_row,
                       gershgorin_reference_bound, min_eigenvalue)


def toeplitz(diag, column, row=None, scale=1.0):
    """scale * (diag(diag) - T), T the Toeplitz matrix of (column, row)."""
    row = column if row is None else row
    blocks = (((np.asarray(column, float), np.asarray(row, float)),),)
    return ToeplitzStructure(scale=scale, diag=np.asarray(diag, float),
                             blocks=blocks)


def system_of(structure, b=None):
    n = len(structure.diag)
    return CollocationSystem(operator=structure,
                             rhs=np.zeros(n) if b is None else b,
                             nodes=np.arange(n, dtype=float))


class TestSolveDense:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        identity = toeplitz(np.ones(3), np.zeros(3))
        assert np.array_equal(solver.solve_dense(system_of(identity, b=b)), b)

    def test_plc_scalar_case(self):
        params, grid = KernelParams(0.5), UniformGrid(0.0, 1.0, 2)
        prob = exact_nonlocal_rhs(exponential(), grid, params, nodes="plc")
        system = plc.assemble_plc_system(params, grid, prob)
        c = plc.weights(params, grid)
        want = system.rhs[0] / (c.sigma * (c.d[0] - c.g[0]))
        assert solver.solve_dense(system)[0] == pytest.approx(want, rel=1e-14)

    def test_random_dominant_residual(self):
        rng = np.random.default_rng(7)
        column, row = rng.standard_normal(50), rng.standard_normal(50)
        diag = rng.standard_normal(50) + np.sum(np.abs(column) + np.abs(row))
        structure = toeplitz(diag, column, row)
        b = rng.standard_normal(50)
        x = solver.solve_dense(system_of(structure, b=b))
        A = structure.dense()
        res = np.max(np.abs(A @ x - b))
        assert res <= 1e-10 * np.max(np.abs(A)) * max(1.0, np.max(np.abs(x)))

    def test_singular_rejected(self):
        zero = toeplitz(np.zeros(3), np.zeros(3))
        with pytest.raises(solver.SingularSystemError):
            solver.solve_dense(system_of(zero, b=np.ones(3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver.solve_dense(system_of(toeplitz([np.nan, 1.0], [0.0, 0.5]),
                                        b=np.ones(2)))

    @pytest.mark.parametrize("scheme", ["plc", "pqc"])
    def test_lu_bitwise_equals_lu_factor(self, scheme):
        # LAPACK called directly gives the bits of scipy's lu_factor and
        # lu_solve, with the same refinement step, on the global tables'
        # systems (both schemes, gamma in {0, 0.3, 0.7}, N = 16 .. 128)
        for gamma in (0.0, 0.3, 0.7):
            for N in (16, 32, 64, 128):
                system = _manufactured(scheme, gamma, N)
                A, b = system.matrix, system.rhs
                factors = linalg.lu_factor(A)
                want = linalg.lu_solve(factors, b)
                want += linalg.lu_solve(factors, b - A @ want)
                got = solver._solve_lu(A, b)
                assert got.tobytes() == want.tobytes(), (gamma, N)

    def test_agrees_with_cholesky_on_spd(self):
        params, grid = KernelParams(0.6), UniformGrid(0.0, 1.0, 32)
        prob = exact_nonlocal_rhs(exponential(), grid, params, nodes="plc")
        system = plc.assemble_plc_system(params, grid, prob)
        lu_path = solver.solve_dense(system)
        chol_path = linalg.cho_solve(linalg.cho_factor(system.matrix),
                                     system.rhs)
        assert np.allclose(lu_path, chol_path, rtol=1e-10, atol=1e-14)


def _old_plc_operator(c):
    return c.sigma * (np.diag(c.d) - linalg.toeplitz(c.g))


def _old_pqc_operator(c):
    """The PQC matrix as it was built before the Toeplitz description: every
    block from the index maps applied to full columns of row indices.

    Half-integer subscripts are doubled, so a weight's offset k = row - col
    (x_r or x_{s + 1/2} against u_j or u_{jh + 1/2}) indexes m and n by |k|,
    q by (|2k - 1| - 1) / 2 and p by (|2k + 1| - 1) / 2."""
    N = len(c.n)
    rows, half_rows = np.arange(1, N)[:, None], np.arange(N)[:, None]
    k, kh = rows - np.arange(1, N), rows - np.arange(N)
    M, Q = c.m[np.abs(k)], c.q[(np.abs(2 * kh - 1) - 1) // 2]
    k, kh = half_rows - np.arange(1, N), half_rows - np.arange(N)
    P, Nb = c.p[(np.abs(2 * k + 1) - 1) // 2], c.n[np.abs(kh)]
    A = np.zeros((2 * N - 1, 2 * N - 1))
    A[:N - 1, :N - 1] = np.diag(c.dHalf[1::2]) - M
    A[:N - 1, N - 1:] = -Q
    A[N - 1:, :N - 1] = -P
    A[N - 1:, N - 1:] = np.diag(c.dHalf[0::2]) - Nb
    return c.eta * A


OLD_OPERATORS = {"plc": _old_plc_operator, "pqc": _old_pqc_operator}


def _structure(scheme, gamma, N):
    module = SCHEMES[scheme]
    c = module.weights(KernelParams(gamma), UniformGrid(0.0, 1.0, N))
    return module.structure(c), c


def _manufactured(scheme, gamma, N):
    params, grid = KernelParams(gamma), UniformGrid(0.0, 1.0, N)
    prob = exact_nonlocal_rhs(exponential(), grid, params, nodes=scheme)
    return SCHEMES[scheme].assemble(params, grid, prob)


def _assert_matvec_matches(structure, A, rng, name=""):
    x = rng.standard_normal(len(A))
    # entries of A x that cancel are only known to the size of their terms,
    # so the absolute part scales with |A| |x|
    np.testing.assert_allclose(
        structure.matvec(x), A @ x, rtol=1e-13,
        atol=1e-13 * np.max(np.abs(A) @ np.abs(x)), err_msg=name)


class TestToeplitzStructure:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("N", [2, 3, 8, 64, 700])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
    def test_dense_bitwise_equals_old_formula(self, scheme, N, gamma):
        structure, c = _structure(scheme, gamma, N)
        got, want = structure.dense(), OLD_OPERATORS[scheme](c)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    # N = 513: the PQC blocks' m + k - 1 is 1023, 1024 and 1025, so the
    # shared FFT length is 2048, twice what the smaller blocks need
    @pytest.mark.parametrize("N", [2, 3, 8, 64, 513, 700])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
    def test_matvec_matches_dense(self, scheme, N, gamma):
        structure, _ = _structure(scheme, gamma, N)
        A = structure.dense()
        _assert_matvec_matches(structure, A, np.random.default_rng(N))
        assert np.array_equal(structure.diagonal(), np.diag(A))

    @pytest.mark.parametrize("scheme, ffts", [("plc", 1), ("pqc", 2)])
    def test_one_fft_per_block_column_and_per_block_row(self, scheme, ffts,
                                                        monkeypatch):
        structure, _ = _structure(scheme, 0.7, 64)
        x = np.random.default_rng(0).standard_normal(len(structure.diag))
        structure.matvec(x)            # computes and caches the spectra
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*args, name=name, fft=getattr(np.fft, name), **kwargs):
                calls.append(name)
                return fft(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        structure.matvec(x)
        assert sorted(calls) == ["irfft"] * ffts + ["rfft"] * ffts

    @pytest.mark.parametrize("sizes", [(1, 2), (16, 17), (128, 129),
                                       (299, 300)])
    def test_matvec_shares_one_fft_length(self, sizes):
        # the blocks' own m + k - 1 differ, and for (128, 129) they straddle
        # 256, so the shared length must cover the largest block
        rng = np.random.default_rng(sum(sizes))
        for name, structure in _random_grid(rng, sizes, -0.6):
            _assert_matvec_matches(structure, structure.dense(), rng, name)

    @pytest.mark.parametrize("scheme, N", [("plc", 64), ("plc", 512),
                                           ("pqc", 32), ("pqc", 256)])
    @pytest.mark.parametrize("gamma", [0.3, 0.7])
    def test_krylov_agrees_with_lu_below_cutoff(self, scheme, N, gamma):
        system = _manufactured(scheme, gamma, N)
        assert len(system.rhs) <= solver.KRYLOV_MIN_UNKNOWNS
        krylov = solver.solve_krylov(system.operator, system.rhs)
        assert krylov is not None
        lu = solver.solve_dense(system)
        assert np.max(np.abs(krylov - lu)) <= 1e-10


class TestSolveAboveCutoff:
    @pytest.mark.parametrize("scheme, N", [("plc", 1100), ("pqc", 520)])
    @pytest.mark.parametrize("gamma", [0.3, 0.7])
    def test_error_and_residual(self, scheme, N, gamma):
        system = _manufactured(scheme, gamma, N)
        b = system.rhs
        assert len(b) > solver.KRYLOV_MIN_UNKNOWNS
        x = solver.solve_dense(system)
        # the Krylov path produced it
        assert np.array_equal(x, solver.solve_krylov(system.operator, b))
        exact = exponential()(system.nodes)
        lu = solver._solve_lu(system.matrix, b)
        assert (np.max(np.abs(x - exact))
                <= 1.05 * np.max(np.abs(lu - exact)))
        residual = np.linalg.norm(b - system.matrix @ x) / np.linalg.norm(b)
        assert residual <= 1e-12

    def test_unconverged_gmres_falls_back_to_lu(self):
        # a random Toeplitz matrix: well conditioned, but its spectrum
        # surrounds the origin, so GMRES makes no progress and gives up
        # after KRYLOV_CYCLES cycles
        n = solver.KRYLOV_MIN_UNKNOWNS + 76
        rng = np.random.default_rng(0)
        column, row = rng.standard_normal(n), rng.standard_normal(n)
        structure = ToeplitzStructure(scale=1.0, diag=np.full(n, 3.0),
                                      blocks=(((column, row),),))
        b = rng.standard_normal(n)
        system = CollocationSystem(operator=structure, rhs=b,
                                   nodes=np.zeros(n))
        assert solver.solve_krylov(structure, b) is None
        x = solver.solve_dense(system)
        assert np.array_equal(x, solver._solve_lu(system.matrix, b))
        assert np.linalg.norm(b - system.matrix @ x) <= 1e-12 * np.linalg.norm(b)


@pytest.fixture
def matvec_calls(monkeypatch):
    """Counts ToeplitzStructure.matvec calls."""
    calls = []
    matvec = ToeplitzStructure.matvec

    def counted(self, x):
        calls.append(1)
        return matvec(self, x)

    monkeypatch.setattr(ToeplitzStructure, "matvec", counted)
    return calls


class TestGmres:
    @pytest.mark.parametrize("n", [1, 2, 7, 300, 1025])
    def test_dominant_toeplitz_matches_lu_in_one_cycle(self, n, matvec_calls):
        # off-diagonal generators summing to at most 0.9 of the diagonal
        rng = np.random.default_rng(n)
        column, row = rng.uniform(0.0, 1.0, (2, n)) / np.arange(1, n + 1) ** 2
        column[0] = 0.0
        column *= 0.45 / max(column.sum(), 1.0)
        row *= 0.45 / max(row[1:].sum(), 1.0)
        structure = toeplitz(np.full(n, 1.0), column, row, scale=2.5)
        b = rng.standard_normal(n)
        x = solver.solve_krylov(structure, b)
        assert x is not None
        # one cycle's inner steps plus the true residual
        assert len(matvec_calls) <= solver.KRYLOV_RESTART + 1
        lu = solver._solve_lu(structure.dense(), b)
        assert np.max(np.abs(x - lu)) <= 1e-10

    def test_zero_rhs_gives_zero(self, matvec_calls):
        structure = toeplitz(np.full(5, 2.0), np.full(5, 0.1))
        x = solver.solve_krylov(structure, np.zeros(5))
        assert np.array_equal(x, np.zeros(5))
        assert not matvec_calls

    def test_stalled_residual_falls_back_after_the_cycle_cap(self,
                                                             matvec_calls):
        # b = 1 has a rough solution: GMRES's estimate converges, but the
        # true residual stalls near 8e-12 at the matvec's roundoff; no
        # restart lowers it to KRYLOV_ACCEPT, so after KRYLOV_CYCLES cycles
        # the LU path solves
        params, grid = KernelParams(0.95), UniformGrid(0.0, 1.0, 2048)
        structure = pqc.structure(pqc.weights(params, grid))
        b = np.ones(len(structure.diag))
        system = system_of(structure, b=b)
        x = solver.solve_dense(system)
        assert (len(matvec_calls)
                <= solver.KRYLOV_CYCLES * (solver.KRYLOV_RESTART + 1))
        assert x.tobytes() == solver._solve_lu(system.matrix, b).tobytes()

    @staticmethod
    def _constant_solution(interval, matvec_calls):
        """PLC gamma = 0.99, N = 1024 on the interval, with b = A 2.5."""
        params, grid = KernelParams(0.99), UniformGrid(*interval, 1024)
        structure = plc.structure(plc.weights(params, grid))
        b = structure.matvec(np.full(len(structure.diag), 2.5))
        matvec_calls.clear()
        return structure, b

    def test_restart_is_load_bearing(self, matvec_calls, monkeypatch):
        # the first cycle's iterate misses KRYLOV_ACCEPT; the cycle that
        # restarts from its true residual meets it
        structure, b = self._constant_solution((0.0, 1.0), matvec_calls)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "KRYLOV_CYCLES", 1)
            assert solver.solve_krylov(structure, b) is None
        assert len(matvec_calls) <= solver.KRYLOV_RESTART + 1
        x = solver.solve_krylov(structure, b)
        assert x is not None
        lu = solver._solve_lu(structure.dense(), b)
        assert np.max(np.abs(x - lu)) <= 1e-10

    def test_slow_cycle_is_restarted_not_abandoned(self, matvec_calls,
                                                   monkeypatch):
        # on (0, 0.001) the true residual falls from 1.4e-12 to 1.1e-12 of
        # ||b|| in the second cycle, less than 10x, and the third cycle
        # meets KRYLOV_ACCEPT: only acceptance or the cycle cap ends GMRES
        structure, b = self._constant_solution((0.0, 1e-3), matvec_calls)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "KRYLOV_CYCLES", 2)
            assert solver.solve_krylov(structure, b) is None
        x = solver.solve_krylov(structure, b)
        assert x is not None
        lu = solver._solve_lu(structure.dense(), b)
        assert np.max(np.abs(x - lu)) <= 1e-10 * np.max(np.abs(lu))


def _loaded_around_solve(module, N):
    """Whether `module` is loaded after `import nlcolloc` and after a PLC
    solve at N, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    code = (
        "import sys, nlcolloc\n"
        f"print({module!r} in sys.modules)\n"
        "from nlcolloc import oracle, plc, solver\n"
        "from nlcolloc.grid import KernelParams, UniformGrid\n"
        f"params, grid = KernelParams(0.5), UniformGrid(0.0, 1.0, {N})\n"
        "prob = oracle.exact_nonlocal_rhs(oracle.constant(1.0), grid, params, nodes='plc')\n"
        "solver.solve_dense(plc.assemble_plc_system(params, grid, prob))\n"
        f"print({module!r} in sys.modules)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_small_solves_leave_scipy_sparse_linalg_unloaded():
    # neither solve path uses scipy.sparse.linalg; it would add to every
    # cold CLI call.  PLC N = cutoff + 1 gives the largest system that stays
    # on LU.
    N = solver.KRYLOV_MIN_UNKNOWNS + 1
    assert _loaded_around_solve("scipy.sparse.linalg", N) == ["False"] * 3


def test_krylov_solve_leaves_scipy_fft_unloaded():
    # the matvec's FFTs are numpy's and the GMRES loop is the solver's own;
    # scipy.fft or scipy.sparse.linalg would cost a first-use import inside
    # the solve.  PLC N = cutoff + 2 gives the smallest Krylov-path system.
    N = solver.KRYLOV_MIN_UNKNOWNS + 2
    assert _loaded_around_solve("scipy.fft", N) == ["False"] * 3


def test_large_solve_loads_no_scipy():
    # PLC N = 4096 from right-hand side to structure check: rules of at most
    # 16 nodes, a Krylov solve and a Gershgorin verdict need no scipy module
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    code = (
        "import sys\n"
        "from nlcolloc import oracle, plc, solver\n"
        "from nlcolloc.grid import KernelParams, UniformGrid\n"
        "params, grid = KernelParams(0.7), UniformGrid(0.0, 1.0, 4096)\n"
        "prob = oracle.exact_nonlocal_rhs(oracle.exponential(), grid, params)\n"
        "system = plc.assemble_plc_system(params, grid, prob)\n"
        "solver.solve_dense(system)\n"
        "assert solver.check_structure(system).spdFactorizationOk\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]"]


def _run_python(code):
    """The words code prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(nlcolloc.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_lapack_loaded_first_is_shared_with_scipy_linalg():
    # solver.lapack() loads scipy's LAPACK module without the scipy.linalg
    # package; importing the package afterwards reuses that module object,
    # and its lu_factor works
    assert _run_python(
        "import sys\n"
        "import numpy as np\n"
        "from nlcolloc import solver\n"
        "module = solver.lapack()\n"
        "print('scipy.linalg' in sys.modules, solver.lapack() is module)\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.lapack._flapack is module)\n"
        "A, b = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0])\n"
        "x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)\n"
        "print(np.allclose(A @ x, b))\n"
    ) == ["False", "True", "True", "True"]


def test_lapack_after_scipy_linalg_is_scipys_module():
    assert _run_python(
        "import scipy.linalg\n"
        "from nlcolloc import solver\n"
        "print(solver.lapack() is scipy.linalg.lapack._flapack)\n"
    ) == ["True"]


class TestMinEigenvalue:
    def test_diagonal_matrix(self):
        A = np.diag([4.0, 1.0, 9.0])
        assert min_eigenvalue(A) == pytest.approx(1.0, rel=1e-10)

    def test_matches_dense_eigensolver(self):
        A = plc.structure(
            plc.weights(KernelParams(0.4), UniformGrid(0.0, 1.0, 24))).dense()
        want = np.min(linalg.eigvalsh(A))
        assert min_eigenvalue(A) == pytest.approx(want, rel=1e-8)


class TestCheckStructure:
    def test_positive_diagonal_detection(self):
        # [[2, -0.5], [-0.5, 2]]
        report = solver.check_structure(system_of(toeplitz([2, 2], [0, 0.5])))
        assert report.diagPositive
        assert report.offDiagNegative
        assert report.minRowSlack == pytest.approx(1.5)
        assert report.symmetric

    def test_violations_reported(self):
        # [[2, 0.5], [-3, -1]]
        A = toeplitz([2, -1], [0, 3], [0, -0.5])
        report = solver.check_structure(system_of(A))
        assert not report.diagPositive
        assert not report.offDiagNegative
        assert report.minRowSlack < 0.0

    def test_spd_flag_only_for_symmetric_operators(self):
        A = toeplitz([2, 2], [0, 0.5])
        assert solver.check_structure(system_of(A)).spdFactorizationOk is True
        # [[2, 0], [5, 2]]: dominant with a positive diagonal, but not
        # symmetric
        report = solver.check_structure(system_of(toeplitz([2, 2], [0, -5],
                                                           [0, 0])))
        assert not report.symmetric
        assert report.spdFactorizationOk is None


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 16, 64, 512])
@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99,
                                   0.999])
def test_spd_check_follows_the_schemes_symmetry(gamma, N):
    # PLC's operator is symmetric, and Gershgorin certifies it SPD without
    # forming the matrix; PQC's is never symmetric, so it gets no verdict
    params, grid = KernelParams(gamma), UniformGrid(0.0, 1.0, N)
    system = system_of(plc.structure(plc.weights(params, grid)))
    report = solver.check_structure(system)
    assert report.symmetric and report.spdFactorizationOk is True
    assert "matrix" not in vars(system)
    report = solver.check_structure(
        system_of(pqc.structure(pqc.weights(params, grid))))
    assert not report.symmetric and report.spdFactorizationOk is None


def _old_check_structure(A):
    """check_structure from whole-matrix formulas, with Gershgorin's SPD
    certificate for a symmetric A with a positive diagonal and every row
    dominant by more than n times the symmetry tolerance."""
    diag = np.diag(A)
    off = A - np.diag(diag)
    slack = diag - np.sum(np.abs(off), axis=1)
    atol = 1e-14 * np.max(np.abs(A))
    symmetric = bool(np.allclose(A, A.T, rtol=0.0, atol=atol))
    certified = (symmetric and np.all(diag > 0.0)
                 and np.min(slack) > len(A) * atol)
    offdiag_mask = ~np.eye(len(A), dtype=bool)
    return solver.StructureReport(
        diagPositive=bool(np.all(diag > 0.0)),
        offDiagNegative=bool(np.all(A[offdiag_mask] < 0.0)),
        rowSums=np.sum(A, axis=1),
        minRowSlack=float(np.min(slack)),
        symmetric=symmetric,
        spdFactorizationOk=True if certified else None,
    )


def _fsum_reference(structure):
    """Row sums and minimum row slack summed exactly from the description:
    scale * fsum(d_i - T_i.) and scale * fsum(d_i - t_ii - sign * |T_i.|
    off the diagonal), each rounded once before the scaling."""
    s = structure.scale
    T = np.block([[linalg.toeplitz(column, row) for column, row in block_row]
                  for block_row in structure.blocks])
    sums, slack = [], []
    for i, (d, t) in enumerate(zip(structure.diag, T)):
        off = -math.copysign(1.0, s) * np.abs(np.delete(t, i))
        sums.append(s * math.fsum([d, *-t]))
        slack.append(s * math.fsum([d, -t[i], *off]))
    return np.array(sums), min(slack)


def _assert_matches_reference(structure):
    got = solver.check_structure(system_of(structure))
    want = _old_check_structure(structure.dense())
    assert (got.diagPositive, got.offDiagNegative, got.symmetric,
            got.spdFactorizationOk) == (want.diagPositive, want.offDiagNegative,
                                        want.symmetric, want.spdFactorizationOk)
    if got.spdFactorizationOk:
        linalg.cholesky(structure.dense())      # the certificate holds
    sums, slack = _fsum_reference(structure)
    assert np.all(np.abs(got.rowSums - sums) <= 2 * np.spacing(np.abs(sums)))
    assert abs(got.minRowSlack - slack) <= 2 * np.spacing(abs(slack))


# n = 1, 299 and 599 unknowns: the prefix-sum scan pads to a power of two
STRUCTURE_SIZES = (("plc", 2), ("plc", 300), ("plc", 600),
                   ("pqc", 2), ("pqc", 150), ("pqc", 300))


def _random_grid(rng, sizes, scale):
    """Random cases on a grid of Toeplitz blocks with these block sizes,
    as (name, structure): asymmetric, symmetric, dominant, asymmetric just
    inside the tolerance, and asymmetric in one generator's last entry."""
    def grid(diag, blocks):
        return ToeplitzStructure(scale=scale, diag=diag, blocks=tuple(
            tuple(map(tuple, block_row)) for block_row in blocks))

    asymmetric = [[(rng.standard_normal(m), rng.standard_normal(k))
                   for k in sizes] for m in sizes]
    symmetric = [[None] * len(sizes) for _ in sizes]
    for p in range(len(sizes)):
        for q in range(p, len(sizes)):
            column, row = asymmetric[p][q]
            if p == q:
                row = column.copy()
            symmetric[p][q] = (column, row)
            # block (q, p) is the transpose of (p, q): its first column is
            # the first row of (p, q) behind their shared corner column[0]
            symmetric[q][p] = (np.concatenate((column[:1], row[1:])), column)
    diag = rng.standard_normal(sum(sizes))
    yield "random", grid(diag, asymmetric)
    yield "symmetric", grid(diag, symmetric)
    # dominant with negative off-diagonal entries: t_ij of the scale's sign,
    # a_ii = scale * d_i + T_ii just over the row's off-diagonal |a_ij|
    signed = [[(np.copysign(c, scale), np.copysign(r, scale))
               for c, r in block_row] for block_row in symmetric]
    T = grid(np.zeros(len(diag)), signed).dense()
    off = np.sum(np.abs(T - np.diag(np.diag(T))), axis=1)
    yield "dominant", grid((1.01 * off + 0.1 - np.diag(T)) / scale, signed)
    big = np.max(np.abs(T)) / abs(scale)
    nearly = [[(c + 1e-15 * big * rng.random(len(c)), r) for c, r in block_row]
              for block_row in symmetric]
    yield "nearly-symmetric", grid(diag, nearly)
    late = [list(block_row) for block_row in symmetric]
    column, row = late[0][-1]
    late[0][-1] = (column, np.concatenate((row[:-1], row[-1:] + 1e-13 * big)))
    yield "late-asymmetry", grid(diag, late)


def _structure_cases():
    for scheme, N in STRUCTURE_SIZES:
        for gamma in (0.0, 0.7):
            yield f"{scheme}-N{N}-g{gamma}", scheme, _structure(scheme, gamma, N)[0]
    rng = np.random.default_rng(11)
    for n in (1, 7, 32, 33, 256, 257, 600):
        for name, structure in _random_grid(rng, (n,), 0.37):
            yield f"{name}-{n}", "plc", structure
    # 2x2 grids with square diagonal blocks of unequal sizes, one with a
    # negative scale
    for sizes, scale in (((1, 2), 0.37), ((16, 17), 2.5), ((128, 129), -0.6),
                         ((299, 300), 1.0)):
        for name, structure in _random_grid(rng, sizes, scale):
            yield f"{name}-{sizes[0]}+{sizes[1]}", "plc", structure
    # rho^|i-j| (Kac-Murdock-Szego): symmetric positive definite, but its
    # rows are far from dominant
    yield "kms-40", "plc", toeplitz(np.ones(40), -0.9 ** np.arange(40.0))


@pytest.mark.parametrize("name, scheme, structure", list(_structure_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_check_structure_matches_old_formulas(name, scheme, structure):
    # scheme only names the case: the SPD verdict follows the symmetry
    _assert_matches_reference(structure)


@pytest.mark.parametrize("scheme, N", STRUCTURE_SIZES)
@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
def test_check_structure_generated_equals_dense(scheme, N, gamma):
    _assert_matches_reference(_structure(scheme, gamma, N)[0])


def _assert_same_report_bits(got, want):
    flags = lambda r: (r.diagPositive, r.offDiagNegative, r.symmetric,
                       r.spdFactorizationOk)
    assert got.rowSums.tobytes() == want.rowSums.tobytes()
    assert got.minRowSlack.hex() == want.minRowSlack.hex()
    assert flags(got) == flags(want)


@pytest.mark.parametrize("scheme, N", [(scheme, N) for scheme in sorted(SCHEMES)
                                       for N in (2, 3, 8, 64, 100, 513, 2048, 4096)
                                       if (scheme, N) != ("pqc", 4096)])
def test_row_sums_bitwise_equal_brent_kung_scan(scheme, N, monkeypatch):
    # the one-cumsum prefix sums give the same rowSums and minRowSlack bits as
    # a Brent-Kung double-double scan, and the same flags
    for gamma in (0.0, 0.3, 0.5, 0.7, 0.95, 0.99):
        system = system_of(_structure(scheme, gamma, N)[0])
        got = solver.check_structure(system)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_prefix_sums", brent_kung_prefix_sums)
            want = solver.check_structure(system)
        _assert_same_report_bits(got, want)


def _block_row_cases():
    for scheme in sorted(SCHEMES):
        for gamma in (0.0, 0.3, 0.7, 0.95, 0.999):
            for N in (2, 3, 7, 64, 513, 2048):
                yield (f"{scheme}-N{N}-g{gamma}",
                       _structure(scheme, gamma, N)[0])
    # nonsymmetric grids, a negative scale, non-dominant symmetric, n = 1
    yield from ((name, structure) for name, _, structure in _structure_cases()
                if "-N" not in name)


@pytest.mark.parametrize("name, structure", list(_block_row_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_check_structure_bitwise_equals_block_row_walk(name, structure):
    # accumulating at each tile's rows of two length-n arrays gives every
    # field the bits of a walk that sums one block row at a time
    system = system_of(structure)
    _assert_same_report_bits(solver.check_structure(system),
                             check_structure_by_block_row(system))


def test_check_structure_never_forms_the_matrix(monkeypatch):
    """check_structure reads only the generators, also of a symmetric
    operator that Gershgorin cannot certify (KMS)."""
    calls = []

    def refuse(self):
        calls.append(len(self.diag))
        raise AssertionError("dense matrix formed")

    monkeypatch.setattr(ToeplitzStructure, "dense", refuse)
    for scheme, N in (("pqc", 64), ("plc", 64)):
        structure, _ = _structure(scheme, 0.7, N)
        report = solver.check_structure(system_of(structure))
        assert report.diagPositive and report.offDiagNegative
    kms = toeplitz(np.ones(5), -0.9 ** np.arange(5.0))
    assert solver.check_structure(system_of(kms)).symmetric
    assert calls == []


class TestLazyMatrix:
    def test_structured_matrix_formed_once(self):
        structure, _ = _structure("pqc", 0.7, 64)
        n = len(structure.diag)
        system = CollocationSystem(operator=structure, rhs=np.zeros(n),
                                   nodes=np.zeros(n))
        assert "matrix" not in vars(system)
        first = system.matrix
        assert system.matrix is first
        assert first.tobytes() == structure.dense().tobytes()

    def test_assemble_to_check_stays_small(self):
        # PQC N = 2048: the dense matrix alone would be 134 MB
        params, grid = KernelParams(0.7), UniformGrid(0.0, 1.0, 2048)
        prob = exact_nonlocal_rhs(exponential(), grid, params, nodes="pqc")
        tracemalloc.start()
        try:
            system = pqc.assemble_pqc_system(params, grid, prob)
            solver.solve_dense(system)
            solver.check_structure(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "matrix" not in vars(system)
        assert peak <= 16 * 2**20


class TestSpdFlag:
    """spdFactorizationOk is True where Gershgorin certifies a symmetric
    operator and None otherwise; the dense matrix is never formed."""

    def test_dominant_plc_operator_certified(self):
        system = system_of(_structure("plc", 0.7, 64)[0])
        assert solver.check_structure(system).spdFactorizationOk is True
        assert "matrix" not in vars(system)

    def test_non_dominant_spd_gets_no_verdict(self):
        # rho^|i-j| (Kac-Murdock-Szego) with rho near 1: SPD, but its rows
        # are far from dominant
        system = system_of(toeplitz(np.ones(40), -0.9 ** np.arange(40.0)))
        report = solver.check_structure(system)
        assert report.symmetric and report.minRowSlack < 0.0
        assert report.spdFactorizationOk is None
        assert "matrix" not in vars(system)

    def test_symmetric_indefinite_reported(self):
        # [[1, 2], [2, 1]]
        system = system_of(toeplitz([1, 1], [0, -2]))
        report = solver.check_structure(system)
        assert report.symmetric
        assert report.spdFactorizationOk is None
        assert "matrix" not in vars(system)


def test_gershgorin_reference_bound_positive():
    for gamma in (0.0, 0.5, 0.9):
        bound = gershgorin_reference_bound(KernelParams(gamma),
                                           UniformGrid(0.0, 1.0, 64))
        assert bound > 0.0

