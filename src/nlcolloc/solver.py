"""Solves and structural diagnostics shared by both collocation schemes."""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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


class SingularSystemError(RuntimeError):
    """A pivot underflowed; the assembled system is effectively singular."""


@dataclass(frozen=True, eq=False)
class ToeplitzStructure:
    """The operator scale * (diag(diag) - T), T a grid of Toeplitz blocks.

    blocks[p][q] is the (first column, first row) pair that generates block
    (p, q), as scipy.linalg.toeplitz takes them: the first columns of block
    row p have that block row's height, the first rows of block column q
    that block column's width; the first row's own first entry is never
    read.  The dense matrix, the FFT matvec and check_structure are all
    built from this one description.
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

    def dense(self) -> np.ndarray:
        """The whole matrix, with no n-by-n temporary besides the result:
        each block copied from the strided view that scipy.linalg.toeplitz
        would copy, then negated, the diagonal added and scaled in place."""
        n = len(self.diag)
        out = np.empty((n, n))
        for rows, cols, (column, row) in self._tiles():
            out[rows, cols] = sliding_window_view(
                np.concatenate((column[::-1], row[1:])), len(row))[::-1]
        np.negative(out, out=out)
        out[np.diag_indices(n)] += self.diag
        out *= self.scale
        return out

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

    `operator` describes A, with the sigma/eta scaling already applied.
    `matrix` is the dense A, formed from it on first read and kept;
    `nodes` lists the collocation point of each row, in row order, so
    solutions can be compared against exact values directly.
    """

    operator: ToeplitzStructure
    rhs: np.ndarray
    scheme: str              # 'plc' or 'pqc'
    nodes: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.operator.dense()


@dataclass(frozen=True)
class StructureReport:
    """Sign pattern, row sums, row slack and symmetry of A.  rowSums and
    minRowSlack are correctly rounded from the operator's description:
    scale times the exactly rounded sum over row i of d_i - T."""

    diagPositive: bool
    offDiagNegative: bool
    rowSums: np.ndarray          # signed row sums of the scaled matrix
    minRowSlack: float           # min_i (a_ii - sum_{j != i} |a_ij|)
    symmetric: bool
    spdFactorizationOk: Optional[bool]  # PLC only


def solve_dense(system: CollocationSystem) -> np.ndarray:
    """Solve the system for u.

    At most KRYLOV_MIN_UNKNOWNS unknowns: LU with partial pivoting plus
    one step of iterative refinement on the dense matrix.  Above that:
    solve_krylov, falling back to the LU path when its residual check fails.
    """
    if len(system.rhs) > KRYLOV_MIN_UNKNOWNS:
        x = solve_krylov(system.operator, system.rhs)
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


def _dd_add(x, y):
    """x + y for double-double pairs (hi, lo) of arrays: Knuth's TwoSum of
    the high parts, plus both low parts, renormalised."""
    s = x[0] + y[0]
    t = s - x[0]
    e = (x[0] - (s - t)) + (y[0] - t) + (x[1] + y[1])
    hi = s + e
    return hi, e - (hi - s)


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """0, x_0, x_0 + x_1, ..., sum(x) as a 2-row double-double array, from a
    work-efficient (Brent-Kung) scan: O(len(x)) time in 2 log2 len(x)
    vectorised steps."""
    n = len(x) + 1
    size = 1 << (n - 1).bit_length()
    dd = np.zeros((2, size))
    dd[0, 1:n] = x
    step = 1
    while step < size:      # the last entry of each group of 2 step: its sum
        right = dd[:, 2 * step - 1::2 * step]
        right[:] = _dd_add(right, dd[:, step - 1::2 * step])
        step *= 2
    while step > 1:         # then each group's middle: the prefix before it
        step //= 2
        right = dd[:, 3 * step - 1::2 * step]
        right[:] = _dd_add(right, dd[:, 2 * step - 1:size - step:2 * step])
    return dd[:, :n]


def _block_row_sums(column: np.ndarray, row: np.ndarray):
    """Row sums of the Toeplitz block (column, row) as a double-double pair:
    row i of a block k wide holds column[max(0, i-k+1)..i], row[1..k-1-i]."""
    i, k = np.arange(len(column)), len(row)
    C, R = _prefix_sums(column), _prefix_sums(row[1:])
    window = _dd_add(C[:, i + 1], -C[:, np.maximum(i + 1 - k, 0)])
    return _dd_add(window, R[:, np.maximum(k - 1 - i, 0)])


def check_structure(system: CollocationSystem) -> StructureReport:
    """Sign pattern, row sums, row slack and symmetry from the generators,
    in O(n) time and memory.

    The off-diagonal entries of A are scale * -t for the generator entries t
    off the diagonal.  Block (p, q) mirrors block (q, p) when its first
    column equals the first row of (q, p); each diagonal block mirrors
    itself.  Row sums and slack are windows of compensated prefix sums.
    For PLC, spdFactorizationOk comes from Gershgorin when A is symmetric
    with a positive diagonal and every row dominant by more than n times the
    symmetry tolerance (so the triangle Cholesky reads is too), otherwise
    from a Cholesky factorization of system.matrix.
    """
    op = system.operator
    n, scale = len(op.diag), op.scale
    sign = np.copysign(1.0, scale)
    diagonal = op.diagonal()
    row_sums, slack, entries, gaps = [], [], [], []
    r0 = 0
    for p, block_row in enumerate(op.blocks):
        d = op.diag[r0:r0 + len(block_row[0][0])]
        total = margin = (d, np.zeros(len(d)))
        for q, (column, row) in enumerate(block_row):
            total = _dd_add(total, _block_row_sums(-column, -row))
            # the slack takes -t_ii on the diagonal, -sign * |t_ij| off it
            absolute = np.abs(column)
            if p == q:
                absolute[0] = sign * column[0]
            margin = _dd_add(margin, _block_row_sums(-sign * absolute,
                                                     -sign * np.abs(row)))
            entries.append(scale * np.concatenate((column[p == q:], row[1:])))
            partner_column, partner_row = op.blocks[q][p]
            partner = np.concatenate((partner_column[:1], partner_row[1:]))
            gaps.append(np.abs(scale * column - scale * partner))
        row_sums.append(scale * (total[0] + total[1]))
        slack.append(scale * (margin[0] + margin[1]))
        r0 += len(d)

    entries = np.concatenate(entries)               # scale * t = -a_ij
    atol = 1e-14 * np.max(np.abs(np.concatenate((diagonal, entries))))
    symmetric = bool(np.max(np.concatenate(gaps)) <= atol)
    diag_positive = bool(np.all(diagonal > 0.0))
    min_slack = float(np.min(np.concatenate(slack)))
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
        offDiagNegative=bool(np.all(entries > 0.0)),
        rowSums=np.concatenate(row_sums),
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
