"""Solves, the Toeplitz operator description, eigenvalue estimation, and
structure reporting."""

import dataclasses
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


def wrap(A, b):
    return CollocationSystem(operator=A, rhs=b, scheme="plc",
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


def _old_plc_operator(c):
    return c.sigma * (np.diag(c.d) - linalg.toeplitz(c.g))


def _old_pqc_operator(c):
    """The PQC matrix as it was built before the Toeplitz description: every
    block from the index maps applied to full columns of row indices."""
    N = len(c.n)
    M, Q = pqc._integer_rows(c, np.arange(1, N)[:, None])
    P, Nb = pqc._half_rows(c, np.arange(N)[:, None])
    A = np.zeros((2 * N - 1, 2 * N - 1))
    A[:N - 1, :N - 1] = np.diag(c.dHalf[1::2]) - M
    A[:N - 1, N - 1:] = -Q
    A[N - 1:, :N - 1] = -P
    A[N - 1:, N - 1:] = np.diag(c.dHalf[0::2]) - Nb
    return c.eta * A


OLD_OPERATORS = {"plc": _old_plc_operator, "pqc": _old_pqc_operator}


def _structure(scheme, gamma, N):
    module = SCHEMES[scheme]
    c = module.make_rule(KernelParams(gamma), UniformGrid(0.0, 1.0, N)).coeffs
    return module.structure(c), c


def _manufactured(scheme, gamma, N):
    params, grid = KernelParams(gamma), UniformGrid(0.0, 1.0, N)
    prob = exact_nonlocal_rhs(exponential(), grid, params, nodes=scheme)
    return SCHEMES[scheme].assemble(params, grid, prob)


class TestToeplitzStructure:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("N", [2, 3, 8, 64, 700])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
    def test_dense_bitwise_equals_old_formula(self, scheme, N, gamma):
        structure, c = _structure(scheme, gamma, N)
        got, want = structure.dense(), OLD_OPERATORS[scheme](c)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    # N = 513: the PQC blocks' m + k - 1 is 1023, 1024 and 1025, so their
    # circulant embeddings fill 1024 exactly or are padded to 2048
    @pytest.mark.parametrize("N", [2, 3, 8, 64, 513, 700])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
    def test_matvec_matches_dense(self, scheme, N, gamma):
        structure, _ = _structure(scheme, gamma, N)
        A = structure.dense()
        x = np.random.default_rng(N).standard_normal(len(A))
        # entries of A x that cancel are only known to the size of their
        # terms, so the absolute part scales with |A| |x|
        np.testing.assert_allclose(
            structure.matvec(x), A @ x, rtol=1e-13,
            atol=1e-13 * np.max(np.abs(A) @ np.abs(x)))
        assert np.array_equal(structure.diagonal(), np.diag(A))

    @pytest.mark.parametrize("scheme, N", [("plc", 64), ("plc", 512),
                                           ("pqc", 32), ("pqc", 256)])
    @pytest.mark.parametrize("gamma", [0.3, 0.7])
    def test_krylov_agrees_with_lu_below_cutoff(self, scheme, N, gamma):
        system = _manufactured(scheme, gamma, N)
        assert len(system.rhs) <= solver.KRYLOV_MIN_UNKNOWNS
        krylov = solver.solve_krylov(system.structure, system.rhs)
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
        assert np.array_equal(x, solver.solve_krylov(system.structure, b))
        exact = exponential()(system.nodes)
        lu = solver.solve_dense(dataclasses.replace(system,
                                                    operator=system.matrix))
        assert (np.max(np.abs(x - exact))
                <= 1.05 * np.max(np.abs(lu - exact)))
        residual = np.linalg.norm(b - system.matrix @ x) / np.linalg.norm(b)
        assert residual <= 1e-12

    def test_unconverged_gmres_falls_back_to_lu(self):
        # a random Toeplitz matrix: well conditioned, but its spectrum
        # surrounds the origin, so 200 GMRES iterations do not converge
        n = solver.KRYLOV_MIN_UNKNOWNS + 76
        rng = np.random.default_rng(0)
        column, row = rng.standard_normal(n), rng.standard_normal(n)
        structure = ToeplitzStructure(scale=1.0, diag=np.full(n, 3.0),
                                      blocks=(((column, row),),))
        b = rng.standard_normal(n)
        system = CollocationSystem(operator=structure, rhs=b, scheme="plc",
                                   nodes=np.zeros(n))
        assert solver.solve_krylov(structure, b) is None
        x = solver.solve_dense(system)
        lu = solver.solve_dense(dataclasses.replace(system,
                                                    operator=system.matrix))
        assert np.array_equal(x, lu)
        assert np.linalg.norm(b - system.matrix @ x) <= 1e-12 * np.linalg.norm(b)


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
    # scipy.sparse.linalg serves only the Krylov path above the cutoff; it
    # would add to every cold CLI call.  N = 1025 gives 1024 unknowns, the
    # largest system that stays on LU.
    assert _loaded_around_solve("scipy.sparse.linalg", 1025) == ["False"] * 3


def test_krylov_solve_leaves_scipy_fft_unloaded():
    # the matvec's FFTs are numpy's; scipy.fft would cost a first-use import
    # inside the solve.  N = 1026 gives 1025 unknowns, on the Krylov path.
    assert _loaded_around_solve("scipy.fft", 1026) == ["False", "False", "True"]


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


def _old_check_structure(system):
    """check_structure as it was: whole-matrix formulas and Cholesky."""
    A = system.matrix
    diag = np.diag(A)
    off = A - np.diag(diag)
    slack = diag - np.sum(np.abs(off), axis=1)
    spd_ok = None
    if system.scheme == "plc":
        try:
            linalg.cholesky(A)
            spd_ok = True
        except linalg.LinAlgError:
            spd_ok = False
    offdiag_mask = ~np.eye(len(A), dtype=bool)
    return solver.StructureReport(
        diagPositive=bool(np.all(diag > 0.0)),
        offDiagNegative=bool(np.all(A[offdiag_mask] < 0.0)),
        rowSums=np.sum(A, axis=1),
        minRowSlack=float(np.min(slack)),
        symmetric=bool(np.allclose(A, A.T, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(A)))),
        spdFactorizationOk=spd_ok,
    )


# n = 1, 299 and 599 unknowns: not multiples of the row block or the tile
STRUCTURE_SIZES = (("plc", 2), ("plc", 300), ("plc", 600),
                   ("pqc", 2), ("pqc", 150), ("pqc", 300))


def _structure_cases():
    for scheme, N in STRUCTURE_SIZES:
        for gamma in (0.0, 0.7):
            yield f"{scheme}-N{N}-g{gamma}", scheme, _structure(scheme, gamma, N)[0].dense()
    rng = np.random.default_rng(11)
    for n in (1, 7, 32, 33, 256, 257, 600):   # row blocks of 32, tiles of 256
        R = rng.standard_normal((n, n))
        S = R + R.T
        yield f"random-{n}", "plc", R
        yield f"symmetric-{n}", "plc", S
        yield f"dominant-{n}", "plc", S + np.diag(1.01 * np.sum(np.abs(S), axis=1))
        yield f"nearly-symmetric-{n}", "plc", S + 1e-15 * np.max(np.abs(S)) * np.tril(R)
        late = S.copy()
        late[-1, n // 2] += 1e-13 * np.max(np.abs(S))   # in the last tile pair
        yield f"late-asymmetry-{n}", "plc", late


@pytest.mark.parametrize("name, scheme, A", list(_structure_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_check_structure_matches_old_formulas(name, scheme, A):
    system = CollocationSystem(operator=A, rhs=np.zeros(len(A)), scheme=scheme,
                               nodes=np.zeros(len(A)))
    got, want = solver.check_structure(system), _old_check_structure(system)
    assert np.array_equal(got.rowSums, want.rowSums)
    assert got.minRowSlack == want.minRowSlack
    assert (got.diagPositive, got.offDiagNegative, got.symmetric,
            got.spdFactorizationOk) == (want.diagPositive, want.offDiagNegative,
                                        want.symmetric, want.spdFactorizationOk)


@pytest.mark.parametrize("scheme, N", STRUCTURE_SIZES)
@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
def test_check_structure_generated_equals_dense(scheme, N, gamma):
    structure, _ = _structure(scheme, gamma, N)
    n = len(structure.diag)
    got, want = (solver.check_structure(CollocationSystem(
        operator=op, rhs=np.zeros(n), scheme=scheme, nodes=np.zeros(n)))
        for op in (structure, structure.dense()))
    assert np.array_equal(got.rowSums, want.rowSums)
    assert got.minRowSlack == want.minRowSlack
    assert (got.diagPositive, got.offDiagNegative, got.symmetric,
            got.spdFactorizationOk) == (want.diagPositive, want.offDiagNegative,
                                        want.symmetric, want.spdFactorizationOk)


class TestLazyMatrix:
    def test_structured_matrix_formed_once(self):
        structure, _ = _structure("pqc", 0.7, 64)
        n = len(structure.diag)
        system = CollocationSystem(operator=structure, rhs=np.zeros(n),
                                   scheme="pqc", nodes=np.zeros(n))
        assert "matrix" not in vars(system)
        first = system.matrix
        assert system.matrix is first
        assert first.tobytes() == structure.dense().tobytes()

    def test_plain_matrix_is_the_given_one(self):
        A = np.eye(3)
        system = wrap(A, np.zeros(3))
        assert system.matrix is A
        assert system.structure is None

    def test_assemble_to_check_stays_small(self):
        # PQC N = 2048: the dense matrix alone would be 134 MB
        import scipy.sparse.linalg  # noqa: F401  (its import is not the solve)
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
    @pytest.fixture
    def cholesky_calls(self, monkeypatch):
        calls = []

        def spy(A, *args, **kwargs):
            calls.append(len(A))
            return linalg_cholesky(A, *args, **kwargs)

        linalg_cholesky = linalg.cholesky
        monkeypatch.setattr(solver.linalg, "cholesky", spy)
        return calls

    def test_dominant_plc_operator_skips_cholesky(self, cholesky_calls):
        A = _structure("plc", 0.7, 64)[0].dense()
        report = solver.check_structure(wrap(A, np.zeros(len(A))))
        assert report.spdFactorizationOk is True
        assert cholesky_calls == []

    def test_non_dominant_spd_still_factorized(self, cholesky_calls):
        R = np.random.default_rng(5).standard_normal((40, 40))
        A = R @ R.T + 0.1 * np.eye(40)
        report = solver.check_structure(wrap(A, np.zeros(40)))
        assert report.symmetric and report.minRowSlack < 0.0
        assert report.spdFactorizationOk is True
        assert cholesky_calls == [40]

    def test_symmetric_indefinite_reported(self, cholesky_calls):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        report = solver.check_structure(wrap(A, np.zeros(2)))
        assert report.symmetric
        assert report.spdFactorizationOk is False
        assert cholesky_calls == [2]


def test_gershgorin_reference_bound_positive():
    for gamma in (0.0, 0.5, 0.9):
        bound = solver.gershgorin_reference_bound(KernelParams(gamma),
                                                  UniformGrid(0.0, 1.0, 64))
        assert bound > 0.0

