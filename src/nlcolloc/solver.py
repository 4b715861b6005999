"""Solves and structural diagnostics shared by both collocation schemes."""

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import machinery, util
from typing import Optional

import numpy as np
from numpy import fft      # loaded here, not inside the first matvec
from numpy.lib.stride_tricks import sliding_window_view

# Above this many unknowns solve_dense takes the Krylov path.  One thread on
# a 2-core Xeon VM, u = e^x, gamma in {0.3, 0.7, 0.95}, medians of 7 over
# two runs; LU includes forming the matrix, GMRES its block spectra:
#   511 unknowns:  LU 6.4-8.1 ms; GMRES 0.9-2.7 ms (PLC), 2.5-5.5 ms (PQC)
#   1023 unknowns: LU 36-40 ms;   GMRES 1.9-4.4 ms (PLC), 3.0-6.7 ms (PQC)
# GMRES wins for both schemes throughout; at 383 unknowns LU still wins for
# PQC at gamma = 0.95 (3.3-4.0 against 3.8-4.9 ms).  The crossover lies
# between, and systems of up to 511 unknowns (PLC N <= 512, PQC N <= 256)
# stay on LU.
KRYLOV_MIN_UNKNOWNS = 511
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
        """((p, q), row slice, column slice, generator pair) of every block
        (p, q), block row by block row."""
        r0 = 0
        for p, block_row in enumerate(self.blocks):
            height, c0 = len(block_row[0][0]), 0
            for q, (column, row) in enumerate(block_row):
                yield ((p, q), slice(r0, r0 + height),
                       slice(c0, c0 + len(row)), (column, row))
                c0 += len(row)
            r0 += height

    @cached_property
    def _spectra(self):
        """(L, row slices, column slices, spectra) of the block grid: one
        power-of-two FFT length L of at least m + k - 1 for every m-by-k
        block, the row slice of each block row and the column slice of each
        block column, and spectra[p][q], the rfft at length L of block (p, q)'s
        circulant embedding (first column, then zeros, then the first row
        reversed)."""
        tiles = list(self._tiles())
        length = 1 << max(len(c) + len(r) - 2 for *_, (c, r) in tiles).bit_length()
        spectra = []
        for *_, (column, row) in tiles:
            embedding = np.zeros(length)
            embedding[:len(column)] = column
            embedding[length - len(row) + 1:] = row[:0:-1]
            spectra.append(fft.rfft(embedding))
        width = len(self.blocks[0])
        return (length, [rows for _, rows, _, _ in tiles[::width]],
                [cols for _, _, cols, _ in tiles[:width]],
                np.reshape(spectra, (len(self.blocks), width, -1)))

    def dense(self) -> np.ndarray:
        """The whole matrix, with no n-by-n temporary besides the result:
        each block copied from the strided view that scipy.linalg.toeplitz
        would copy, then negated, the diagonal added and scaled in place."""
        n = len(self.diag)
        out = np.empty((n, n))
        for _, rows, cols, (column, row) in self._tiles():
            out[rows, cols] = sliding_window_view(
                np.concatenate((column[::-1], row[1:])), len(row))[::-1]
        np.negative(out, out=out)
        out[np.diag_indices(n)] += self.diag
        out *= self.scale
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector x, in O(n log n): one rfft per block column;
        per block row, the products with its blocks' cached spectra summed in
        frequency space and one irfft."""
        length, row_slices, column_slices, spectra = self._spectra
        X = [fft.rfft(x[cols], length) for cols in column_slices]
        y = self.diag * x
        for rows, block_row in zip(row_slices, spectra):
            product = fft.irfft((block_row * X).sum(axis=0), length)
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
    spdFactorizationOk: Optional[bool]  # True if Gershgorin certifies SPD


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


def lapack():
    """scipy's compiled LAPACK module, scipy.linalg._flapack, loaded on first
    call without running the scipy.linalg package: importing that package
    costs about 0.17 s, more than most CLI commands take in all, and the
    module with the bare scipy package about 12 ms.  It is registered under
    its own name, so that a later import of scipy.linalg shares it.  Its
    one user is the LU solve of small systems; a program that solves them
    throughout calls this once at start-up."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import scipy        # on Windows wheels, sets up the DLL search path
        spec = machinery.FileFinder(
            f"{scipy.__path__[0]}/linalg",
            (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
        ).find_spec(name)
        if spec is None:
            raise ImportError(f"no {name} in {scipy.__path__[0]}")
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _solve_lu(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LU with partial pivoting and one step of iterative refinement, from
    LAPACK's dgetrf and dgetrs called directly: the bits of
    scipy.linalg.lu_factor and lu_solve without their wrappers, with which a
    solve at n = 31 took 0.058 ms instead of 0.022 ms."""
    library = lapack()
    A, b = np.asarray_chkfinite(A), np.asarray_chkfinite(b)
    lu, piv, _ = library.dgetrf(A)
    if np.min(np.abs(np.diag(lu))) < 1e-300:
        raise SingularSystemError("pivot underflow during LU factorization")
    x = library.dgetrs(lu, piv, b)[0]
    x += library.dgetrs(lu, piv, b - A @ x)[0]
    return x


def solve_krylov(structure: ToeplitzStructure,
                 b: np.ndarray) -> Optional[np.ndarray]:
    """Restarted GMRES (Saad & Schultz 1986) with right Jacobi
    preconditioning on the structure's FFT matvec.

    Each cycle of at most KRYLOV_RESTART steps orthogonalises against the
    basis by classical Gram-Schmidt applied twice, and reduces the Hessenberg
    matrix by Givens rotations until the residual estimate is at most
    KRYLOV_RTOL ||b||.  After each cycle the true residual b - A x decides:
    the solution is returned when ||b - A x|| / ||b|| is at most
    KRYLOV_ACCEPT, otherwise the next cycle restarts from that residual.
    None is returned after KRYLOV_CYCLES cycles.
    """
    m, n = KRYLOV_RESTART, len(b)
    inverse_diagonal = 1.0 / structure.diagonal()
    b_norm = np.linalg.norm(b)
    x, r, r_norm = np.zeros(n), b, b_norm
    if b_norm == 0.0:
        return x
    V = np.empty((m + 1, n))      # the Krylov basis, one row per vector
    R = np.zeros((m, m))          # the Hessenberg matrix, once rotated
    for _ in range(KRYLOV_CYCLES):
        V[0] = r / r_norm
        g, cs, sn = [float(r_norm)], [], []
        for j in range(m):
            w = structure.matvec(inverse_diagonal * V[j])
            basis = V[:j + 1]
            h = basis @ w
            w -= h @ basis
            correction = basis @ w
            w -= correction @ basis
            column = (h + correction).tolist() + [float(np.linalg.norm(w))]
            for i in range(j):
                column[i], column[i + 1] = (
                    cs[i] * column[i] + sn[i] * column[i + 1],
                    cs[i] * column[i + 1] - sn[i] * column[i])
            rho = math.hypot(column[j], column[j + 1])
            if rho == 0.0:
                return None
            cs.append(column[j] / rho)
            sn.append(column[j + 1] / rho)
            column[j] = rho
            R[:j + 1, j] = column[:j + 1]
            g.append(-sn[j] * g[j])
            g[j] *= cs[j]
            if abs(g[j + 1]) <= KRYLOV_RTOL * b_norm:
                break
            V[j + 1] = w / column[j + 1]
        k = j + 1
        y = np.array(g[:k])
        for i in range(k - 1, -1, -1):
            y[i] = (y[i] - R[i, i + 1:k] @ y[i + 1:k]) / R[i, i]
        x += inverse_diagonal * (y @ V[:k])
        r = b - structure.matvec(x)
        r_norm = np.linalg.norm(r)
        if r_norm <= KRYLOV_ACCEPT * b_norm:
            return x
    return None


def _dd_add(x, y):
    """x + y for double-double pairs (hi, lo) of arrays: Knuth's TwoSum of
    the high parts, plus both low parts, renormalised."""
    s = x[0] + y[0]
    t = s - x[0]
    e = (x[0] - (s - t)) + (y[0] - t) + (x[1] + y[1])
    hi = s + e
    return hi, e - (hi - s)


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """0, x_0, x_0 + x_1, ..., sum(x) as a 2-row double-double array: the
    float64 cumsum, and the cumsum of each of its steps' exact TwoSum errors
    (Ogita, Rump & Oishi's Sum2), in a few O(len(x)) passes."""
    dd = np.zeros((2, len(x) + 1))
    hi = dd[0]
    np.cumsum(x, out=hi[1:])
    t = hi[1:] - hi[:-1]
    np.cumsum((hi[:-1] - (hi[1:] - t)) + (x - t), out=dd[1, 1:])
    return dd


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
    itself.  Row sums and slack are windows of prefix sums compensated by
    their running TwoSum errors, added block by block into two
    double-double arrays of length n at each block's rows.
    spdFactorizationOk is True when Gershgorin certifies A symmetric
    positive definite: A symmetric, its diagonal positive and every row
    dominant by more than n times the symmetry tolerance.  Any other A gets
    None, so the check never forms system.matrix.
    """
    op = system.operator
    n, scale = len(op.diag), op.scale
    sign = np.copysign(1.0, scale)
    diagonal = op.diagonal()
    total = np.stack((op.diag, np.zeros(n)))    # d_i - T, double-double
    margin = total.copy()                       # the same for the slack
    entries, gaps = [], []
    for (p, q), rows, _, (column, row) in op._tiles():
        total[:, rows] = _dd_add(total[:, rows], _block_row_sums(-column, -row))
        # the slack takes -t_ii on the diagonal, -sign * |t_ij| off it
        absolute = np.abs(column)
        if p == q:
            absolute[0] = sign * column[0]
        margin[:, rows] = _dd_add(margin[:, rows], _block_row_sums(
            -sign * absolute, -sign * np.abs(row)))
        entries.append(scale * np.concatenate((column[p == q:], row[1:])))
        partner_column, partner_row = op.blocks[q][p]
        partner = np.concatenate((partner_column[:1], partner_row[1:]))
        gaps.append(np.abs(scale * column - scale * partner))

    entries = np.concatenate(entries)               # scale * t = -a_ij
    atol = 1e-14 * np.max(np.abs(np.concatenate((diagonal, entries))))
    symmetric = bool(np.max(np.concatenate(gaps)) <= atol)
    diag_positive = bool(np.all(diagonal > 0.0))
    min_slack = float(np.min(scale * (margin[0] + margin[1])))
    # Gershgorin: each eigenvalue lies within r_i of some a_ii, so a
    # positive slack in every row makes a symmetric A positive definite
    certified = symmetric and diag_positive and min_slack > n * atol

    return StructureReport(
        diagPositive=diag_positive,
        offDiagNegative=bool(np.all(entries > 0.0)),
        rowSums=scale * (total[0] + total[1]),
        minRowSlack=min_slack,
        symmetric=symmetric,
        spdFactorizationOk=True if certified else None,
    )
