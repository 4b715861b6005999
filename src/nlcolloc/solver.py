"""Solves and structural diagnostics shared by both collocation schemes."""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import linalg

from .grid import KernelParams, UniformGrid

# Above this many unknowns solve_dense takes the Krylov path when the system
# carries its Toeplitz structure.  With one thread on a 2-core Xeon VM and
# gamma in 0.3..0.95, both schemes, LU (forming the matrix included) takes
# 5.5-6.4 ms at 511 unknowns against 1.5-10 ms for GMRES, which wins for
# PLC at gamma <= 0.7 but loses for PQC at gamma >= 0.7; at 1023 LU takes
# 33-37 ms against 3-13 ms.  Neither path wins throughout at 511 and GMRES
# does at 1023, so every system up to 1024 unknowns stays on LU.
KRYLOV_MIN_UNKNOWNS = 1024
KRYLOV_RTOL = 1e-13          # GMRES stopping tolerance, relative to ||b||
KRYLOV_ACCEPT = 1e-12        # largest true relative residual accepted
KRYLOV_RESTART = 50          # inner iterations per GMRES cycle
KRYLOV_CYCLES = 4            # GMRES cycles before giving up

# check_structure's row block height and symmetry tile edge
_ROWS = 32
_TILE = 256


class SingularSystemError(RuntimeError):
    """A pivot underflowed; the assembled system is effectively singular."""


@dataclass(frozen=True, eq=False)
class ToeplitzStructure:
    """The operator scale * (diag(diag) - T), T a grid of Toeplitz blocks.

    blocks[p][q] is the (first column, first row) pair that generates block
    (p, q), as scipy.linalg.toeplitz takes them: the first columns of block
    row p have that block row's height, the first rows of block column q
    that block column's width.  Submatrices, the dense matrix and the FFT
    matvec are all built from this one description.
    """

    scale: float
    diag: np.ndarray
    blocks: tuple

    def _tiles(self):
        """(row slice, column slice, generator pair) of every block."""
        r0 = 0
        for block_row in self.blocks:
            height, c0 = len(block_row[0][0]), 0
            for column, row in block_row:
                yield slice(r0, r0 + height), slice(c0, c0 + len(row)), (column, row)
                c0 += len(row)
            r0 += height

    @cached_property
    def _windows(self):
        """(row slice, column slice, block) of every block, each block the
        strided view that scipy.linalg.toeplitz would copy out."""
        return [(rows, cols, sliding_window_view(
                    np.concatenate((column[::-1], row[1:])), len(row))[::-1])
                for rows, cols, (column, row) in self._tiles()]

    @cached_property
    def _spectra(self):
        """(row slice, column slice, FFT length, spectrum) of every block:
        the rfft of its circulant embedding, of a power-of-two length L of at
        least m + k - 1 for an m-by-k block (first column, then zeros, then
        the first row reversed)."""
        spectra = []
        for rows, cols, (column, row) in self._tiles():
            m, k = len(column), len(row)
            length = 1 << (m + k - 2).bit_length()
            embedding = np.zeros(length)
            embedding[:m] = column
            embedding[length - k + 1:] = row[:0:-1]
            spectra.append((rows, cols, length, np.fft.rfft(embedding)))
        return spectra

    def block(self, i0: int, i1: int, j0: int, j1: int,
              out: np.ndarray) -> np.ndarray:
        """Rows i0:i1 and columns j0:j1 of the matrix, written into out:
        copied from the blocks' strided views, negated, the diagonal added
        and scaled in place, so every entry is bitwise the same whichever
        submatrix it is formed in."""
        for rows, cols, window in self._windows:
            r0, r1 = max(rows.start, i0), min(rows.stop, i1)
            c0, c1 = max(cols.start, j0), min(cols.stop, j1)
            if r0 < r1 and c0 < c1:
                out[r0 - i0:r1 - i0, c0 - j0:c1 - j0] = window[
                    r0 - rows.start:r1 - rows.start,
                    c0 - cols.start:c1 - cols.start]
        np.negative(out, out=out)
        k = np.arange(max(i0, j0), min(i1, j1))
        out[k - i0, k - j0] += self.diag[k]
        out *= self.scale
        return out

    def dense(self) -> np.ndarray:
        """The whole matrix: no n-by-n temporary besides the result."""
        n = len(self.diag)
        return self.block(0, n, 0, n, np.empty((n, n)))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector x, in O(n log n): one rfft/irfft pair per block
        against its cached spectrum."""
        y = self.diag * x
        for rows, cols, length, spectrum in self._spectra:
            product = np.fft.irfft(spectrum * np.fft.rfft(x[cols], length),
                                   length)
            y[rows] -= product[:rows.stop - rows.start]
        y *= self.scale
        return y

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal: each diagonal block's Toeplitz diagonal is the
        first entry of its first column."""
        firsts = [block_row[p][0] for p, block_row in enumerate(self.blocks)]
        t = np.repeat([c[0] for c in firsts], [len(c) for c in firsts])
        return self.scale * (self.diag - t)


@dataclass(frozen=True)
class CollocationSystem:
    """Collocation system A u = rhs.

    `operator` describes A, with the sigma/eta scaling already applied: a
    ToeplitzStructure for assembled systems, or a plain matrix.  `matrix`
    is the dense A, formed from the structure on first read and kept;
    `nodes` lists the collocation point of each row, in row order, so
    solutions can be compared against exact values directly.
    """

    operator: Union[np.ndarray, ToeplitzStructure]
    rhs: np.ndarray
    scheme: str              # 'plc' or 'pqc'
    nodes: np.ndarray

    @property
    def structure(self) -> Optional[ToeplitzStructure]:
        """The Toeplitz description, or None for a plain-matrix system."""
        op = self.operator
        return op if isinstance(op, ToeplitzStructure) else None

    @cached_property
    def matrix(self) -> np.ndarray:
        structure = self.structure
        return self.operator if structure is None else structure.dense()

    def block(self, i0: int, i1: int, j0: int, j1: int,
              out: np.ndarray) -> np.ndarray:
        """Rows i0:i1, columns j0:j1 of A: a view of a plain matrix, or
        generated from the structure into out."""
        structure = self.structure
        if structure is None:
            return self.operator[i0:i1, j0:j1]
        return structure.block(i0, i1, j0, j1, out)


@dataclass(frozen=True)
class StructureReport:
    diagPositive: bool
    offDiagNegative: bool
    rowSums: np.ndarray          # signed row sums of the scaled matrix
    minRowSlack: float           # min_i (a_ii - sum_{j != i} |a_ij|)
    symmetric: bool
    spdFactorizationOk: Optional[bool]  # PLC only


def solve_dense(system: CollocationSystem) -> np.ndarray:
    """Solve the system for u.

    At most KRYLOV_MIN_UNKNOWNS unknowns, or no Toeplitz structure: LU with
    partial pivoting plus one step of iterative refinement on the dense
    matrix.  Above that, with a structure: solve_krylov, falling back to
    the LU path when its residual check fails.
    """
    if system.structure is not None and len(system.rhs) > KRYLOV_MIN_UNKNOWNS:
        x = solve_krylov(system.structure, system.rhs)
        if x is not None:
            return x
    return _solve_lu(system.matrix, system.rhs)


def _solve_lu(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    lu, piv = linalg.lu_factor(A)
    if np.min(np.abs(np.diag(lu))) < 1e-300:
        raise SingularSystemError("pivot underflow during LU factorization")
    x = linalg.lu_solve((lu, piv), b)
    x += linalg.lu_solve((lu, piv), b - A @ x)
    return x


def solve_krylov(structure: ToeplitzStructure,
                 b: np.ndarray) -> Optional[np.ndarray]:
    """Jacobi-preconditioned GMRES on the structure's FFT matvec.

    Returns the solution when the true relative residual
    ||b - A x|| / ||b|| is at most KRYLOV_ACCEPT, otherwise None.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    n = len(b)
    inverse_diagonal = 1.0 / structure.diagonal()
    A = LinearOperator((n, n), matvec=structure.matvec, dtype=float)
    M = LinearOperator((n, n), matvec=lambda v: inverse_diagonal * v,
                       dtype=float)
    x, _ = gmres(A, b, rtol=KRYLOV_RTOL, restart=KRYLOV_RESTART,
                 maxiter=KRYLOV_CYCLES, M=M)
    residual = np.linalg.norm(b - structure.matvec(x))
    return x if residual <= KRYLOV_ACCEPT * np.linalg.norm(b) else None


def min_eigenvalue(A: np.ndarray, tol: float = 1e-12, maxiter: int = 200) -> float:
    """Smallest-magnitude eigenvalue by inverse power iteration.

    Intended for the positive definite / dominant matrices produced here,
    where the smallest-magnitude eigenvalue is the smallest one.
    """
    n = A.shape[0]
    lu, piv = linalg.lu_factor(A)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = float("inf")
    for _ in range(maxiter):
        w = linalg.lu_solve((lu, piv), v)
        w /= np.linalg.norm(w)
        new = float(w @ A @ w)
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return new
        lam, v = new, w
    return lam


def check_structure(system: CollocationSystem) -> StructureReport:
    """Sign pattern, row sums, row slack and symmetry from one pass over the
    matrix in row blocks, then one over symmetric pairs of tiles that stops
    at the first pair breaking symmetry.

    Every block is read through system.block into reused buffers, so a
    structured system is checked without forming its n-by-n matrix.  For
    PLC, spdFactorizationOk comes from Gershgorin when the matrix is
    symmetric with a positive diagonal and every row dominant by more than
    n times the symmetry tolerance, so that the triangle Cholesky would read
    is dominant too; otherwise it comes from a Cholesky factorization.
    """
    n = len(system.rhs)
    diag, row_sums, slack = np.empty(n), np.empty(n), np.empty(n)
    # reused buffers: a row block stays in cache across the passes over it
    row_block = np.empty((_ROWS, n))
    absolute = np.empty((_ROWS, n))
    negative = np.empty((_ROWS, n), dtype=bool)
    off_negative, max_abs = True, 0.0
    for i0 in range(0, n, _ROWS):
        i1 = min(i0 + _ROWS, n)
        rows = system.block(i0, i1, 0, n, row_block[:i1 - i0])
        k = np.arange(i1 - i0)
        diag[i0:i1] = rows[k, i0 + k]
        row_sums[i0:i1] = np.sum(rows, axis=1)
        a = np.abs(rows, out=absolute[:i1 - i0])
        max_abs = np.maximum(max_abs, np.max(a))    # NaN propagates
        a[k, i0 + k] = 0.0
        slack[i0:i1] = diag[i0:i1] - np.sum(a, axis=1)
        neg = np.less(rows, 0.0, out=negative[:i1 - i0])
        neg[k, i0 + k] = True
        off_negative = off_negative and bool(np.all(neg))

    atol = 1e-14 * max_abs
    max_asymmetry = 0.0
    upper, lower = np.empty((_TILE, _TILE)), np.empty((_TILE, _TILE))
    for i0 in range(0, n, _TILE):
        i1 = min(i0 + _TILE, n)
        for j0 in range(i0, n, _TILE):
            j1 = min(j0 + _TILE, n)
            ij = system.block(i0, i1, j0, j1, upper[:i1 - i0, :j1 - j0])
            ji = system.block(j0, j1, i0, i1, lower[:j1 - j0, :i1 - i0])
            d = np.subtract(ij, ji.T, out=upper[:i1 - i0, :j1 - j0])
            max_asymmetry = np.maximum(max_asymmetry, np.max(np.abs(d, out=d)))
        if not max_asymmetry <= atol:
            break
    symmetric = bool(max_asymmetry <= atol)
    diag_positive = bool(np.all(diag > 0.0))
    min_slack = float(np.min(slack))
    spd_ok = None
    if system.scheme == "plc":
        if symmetric and diag_positive and min_slack > n * atol:
            spd_ok = True
        else:
            try:
                linalg.cholesky(system.matrix)
                spd_ok = True
            except linalg.LinAlgError:
                spd_ok = False

    return StructureReport(
        diagPositive=diag_positive,
        offDiagNegative=off_negative,
        rowSums=row_sums,
        minRowSlack=min_slack,
        symmetric=symmetric,
        spdFactorizationOk=spd_ok,
    )


def gershgorin_reference_bound(params: KernelParams, grid: UniformGrid) -> float:
    """Analytic lower bound on the smallest eigenvalue of the unscaled
    piecewise linear matrix D - G."""
    gam, N = params.gamma, grid.N
    i = np.arange(1, N, dtype=float)
    c = (2.0 - gam) * (1.0 - gam) / 2.0
    return float(np.min(c / i ** gam + c / (N - i) ** gam))
