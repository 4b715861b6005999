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


def toeplitz(diag, column, row=None, scale=1.0):
    """scale * (diag(diag) - T), T the Toeplitz matrix of (column, row)."""
    row = column if row is None else row
    blocks = (((np.asarray(column, float), np.asarray(row, float)),),)
    return ToeplitzStructure(scale=scale, diag=np.asarray(diag, float),
                             blocks=blocks)


def system_of(structure, scheme="plc", b=None):
    n = len(structure.diag)
    return CollocationSystem(operator=structure,
                             rhs=np.zeros(n) if b is None else b,
                             scheme=scheme, nodes=np.arange(n, dtype=float))


class TestSolveDense:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        identity = toeplitz(np.ones(3), np.zeros(3))
        assert np.array_equal(solver.solve_dense(system_of(identity, b=b)), b)

    def test_plc_scalar_case(self):
        params, grid = KernelParams(0.5), UniformGrid(0.0, 1.0, 2)
        prob = exact_nonlocal_rhs(exponential(), grid, params, nodes="plc")
        system = plc.assemble_plc_system(params, grid, prob)
        c = plc.make_rule(params, grid).coeffs
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

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_rejected(self):
        zero = toeplitz(np.zeros(3), np.zeros(3))
        with pytest.raises(solver.SingularSystemError):
            solver.solve_dense(system_of(zero, b=np.ones(3)))

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
        assert np.array_equal(x, solver._solve_lu(system.matrix, b))
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

    def test_spd_flag_only_meaningful_for_plc(self):
        A = toeplitz([2, 2], [0, 0.5])
        assert solver.check_structure(system_of(A)).spdFactorizationOk is True
        assert solver.check_structure(
            system_of(A, "pqc")).spdFactorizationOk is None


def _old_check_structure(A, scheme):
    """check_structure as it was: whole-matrix formulas and Cholesky."""
    diag = np.diag(A)
    off = A - np.diag(diag)
    slack = diag - np.sum(np.abs(off), axis=1)
    spd_ok = None
    if scheme == "plc":
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


def _assert_matches_reference(structure, scheme):
    got = solver.check_structure(system_of(structure, scheme))
    want = _old_check_structure(structure.dense(), scheme)
    assert (got.diagPositive, got.offDiagNegative, got.symmetric,
            got.spdFactorizationOk) == (want.diagPositive, want.offDiagNegative,
                                        want.symmetric, want.spdFactorizationOk)
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
    _assert_matches_reference(structure, scheme)


@pytest.mark.parametrize("scheme, N", STRUCTURE_SIZES)
@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 0.95])
def test_check_structure_generated_equals_dense(scheme, N, gamma):
    _assert_matches_reference(_structure(scheme, gamma, N)[0], scheme)


def test_check_structure_never_forms_the_matrix(monkeypatch):
    """Only the PLC Cholesky fallback reads the dense matrix."""
    calls = []

    def refuse(self):
        calls.append(len(self.diag))
        raise AssertionError("dense matrix formed")

    monkeypatch.setattr(ToeplitzStructure, "dense", refuse)
    for scheme, N in (("pqc", 64), ("plc", 64)):
        structure, _ = _structure(scheme, 0.7, N)
        report = solver.check_structure(system_of(structure, scheme))
        assert report.diagPositive and report.offDiagNegative
    assert calls == []
    kms = toeplitz(np.ones(5), -0.9 ** np.arange(5.0))
    with pytest.raises(AssertionError, match="dense matrix formed"):
        solver.check_structure(system_of(kms))
    assert calls == [5]


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
        report = solver.check_structure(system_of(_structure("plc", 0.7, 64)[0]))
        assert report.spdFactorizationOk is True
        assert cholesky_calls == []

    def test_non_dominant_spd_still_factorized(self, cholesky_calls):
        # rho^|i-j| (Kac-Murdock-Szego) with rho near 1
        A = toeplitz(np.ones(40), -0.9 ** np.arange(40.0))
        report = solver.check_structure(system_of(A))
        assert report.symmetric and report.minRowSlack < 0.0
        assert report.spdFactorizationOk is True
        assert cholesky_calls == [40]

    def test_symmetric_indefinite_reported(self, cholesky_calls):
        # [[1, 2], [2, 1]]
        report = solver.check_structure(system_of(toeplitz([1, 1], [0, -2])))
        assert report.symmetric
        assert report.spdFactorizationOk is False
        assert cholesky_calls == [2]


def test_gershgorin_reference_bound_positive():
    for gamma in (0.0, 0.5, 0.9):
        bound = solver.gershgorin_reference_bound(KernelParams(gamma),
                                                  UniformGrid(0.0, 1.0, 64))
        assert bound > 0.0

