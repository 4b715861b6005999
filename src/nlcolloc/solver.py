"""Dense solve and structural diagnostics shared by both collocation schemes."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg

from .grid import KernelParams, UniformGrid


class SingularSystemError(RuntimeError):
    """A pivot underflowed; the assembled system is effectively singular."""


@dataclass(frozen=True)
class CollocationSystem:
    """Assembled dense collocation system A u = rhs.

    matrix carries the sigma/eta scaling already applied; `nodes` lists the
    collocation point of each row, in row order, so solutions can be
    compared against exact values directly.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    scheme: str              # 'plc' or 'pqc'
    nodes: np.ndarray


@dataclass(frozen=True)
class StructureReport:
    diagPositive: bool
    offDiagNegative: bool
    rowSums: np.ndarray          # signed row sums of the scaled matrix
    minRowSlack: float           # min_i (a_ii - sum_{j != i} |a_ij|)
    symmetric: bool
    spdFactorizationOk: Optional[bool]  # PLC only


def solve_dense(system: CollocationSystem) -> np.ndarray:
    """LU with partial pivoting plus one step of iterative refinement."""
    A, b = system.matrix, system.rhs
    lu, piv = linalg.lu_factor(A)
    if np.min(np.abs(np.diag(lu))) < 1e-300:
        raise SingularSystemError("pivot underflow during LU factorization")
    x = linalg.lu_solve((lu, piv), b)
    x += linalg.lu_solve((lu, piv), b - A @ x)
    return x


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
    A = system.matrix
    diag = np.diag(A)
    off = A - np.diag(diag)
    abs_off_rowsum = np.sum(np.abs(off), axis=1)
    slack = diag - abs_off_rowsum

    spd_ok = None
    if system.scheme == "plc":
        try:
            linalg.cholesky(A)
            spd_ok = True
        except linalg.LinAlgError:
            spd_ok = False

    offdiag_mask = ~np.eye(len(A), dtype=bool)
    return StructureReport(
        diagPositive=bool(np.all(diag > 0.0)),
        offDiagNegative=bool(np.all(A[offdiag_mask] < 0.0)),
        rowSums=np.sum(A, axis=1),
        minRowSlack=float(np.min(slack)),
        symmetric=bool(np.allclose(A, A.T, rtol=0.0, atol=1e-14 * np.max(np.abs(A)))),
        spdFactorizationOk=spd_ok,
    )


def gershgorin_reference_bound(params: KernelParams, grid: UniformGrid) -> float:
    """Analytic lower bound on the smallest eigenvalue of the unscaled
    piecewise linear matrix D - G."""
    gam, N = params.gamma, grid.N
    i = np.arange(1, N, dtype=float)
    c = (2.0 - gam) * (1.0 - gam) / 2.0
    return float(np.min(c / i ** gam + c / (N - i) ** gam))
