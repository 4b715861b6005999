"""Independent reference routes that only the tests use.

Closed forms of the singular integral, adaptive-quadrature integrals of the
boundary basis functions, and an eigenvalue bound for the PLC matrix: each
is computed without the collocation weight tables, so the tests can check
the library's rules, boundary terms and structure against them.  A
double-double prefix scan of another shape checks the solver's row sums,
a walk over the block grid one block row at a time checks its structure
report, and the studies' per-point and per-level loops check the studies'
shared oracle calls.
"""

import math

import numpy as np
from scipy import integrate, linalg

from nlcolloc import solver, study
from nlcolloc.grid import KernelParams, UniformGrid
from nlcolloc.oracle import (TestFunction, _exp_integral_series, _pow,
                             _sides, exact_nonlocal_rhs, kernel_row_integral)
from nlcolloc.solver import _block_row_sums, _dd_add


# --- closed forms -----------------------------------------------------------

def closed_form_integral(u: TestFunction, interval, params: KernelParams,
                         x: float, tol: float = 1e-13) -> float:
    """Closed-form (or series) value of I(a, b, x) for the supported kinds."""
    a, b = interval
    gamma = params.gamma
    if u.kind == "const":
        return u.c * kernel_row_integral(a, b, gamma, x)
    if u.kind == "exp":
        xs = np.array([x])
        lengths, signs = _sides(a, b, xs)
        return float(_exp_integral_series(
            xs, lengths, signs, _pow(lengths, 1.0 - gamma), gamma, tol)[0])
    # monomial: expand y^p about x; odd powers flip sign on the left side
    total = 0.0
    for j in range(u.p + 1):
        e = j + 1.0 - gamma
        binom = math.comb(u.p, j)
        total += binom * x ** (u.p - j) * (
            (-1.0) ** j * (x - a) ** e + (b - x) ** e) / e
    return total


# --- boundary basis integrals (adaptive-quadrature route) -------------------

def _piecewise_singular_quad(f, lo: float, hi: float, gamma: float,
                             x: float) -> float:
    """int_lo^hi f(y) |x - y|^(-gamma) dy with f smooth on [lo, hi]; the
    kernel singularity may sit inside, at an endpoint, or outside."""
    if gamma == 0.0:
        val, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)
        return val

    def piece(l, r):
        if l >= r:
            return 0.0
        if abs(l - x) < 1e-15 * max(1.0, abs(x)):
            v, _ = integrate.quad(f, l, r, weight="alg", wvar=(-gamma, 0.0),
                                  epsabs=1e-13, epsrel=1e-13)
        elif abs(r - x) < 1e-15 * max(1.0, abs(x)):
            v, _ = integrate.quad(f, l, r, weight="alg", wvar=(0.0, -gamma),
                                  epsabs=1e-13, epsrel=1e-13)
        else:
            v, _ = integrate.quad(lambda y: f(y) * abs(x - y) ** -gamma,
                                  l, r, epsabs=1e-13, epsrel=1e-13)
        return v

    if lo < x < hi:
        return piece(lo, x) + piece(x, hi)
    return piece(lo, hi)


def boundary_basis_integrals(grid: UniformGrid, params: KernelParams,
                             x: float, scheme: str) -> tuple:
    """Oracle values of int phi_0 |x-y|^(-gamma) dy and the phi_N twin.

    phi_0 / phi_N are the boundary interpolation basis functions: linear
    hats for 'plc', edge quadratics for 'pqc'.  Computed by adaptive
    quadrature, independently of the weight tables.
    """
    a, b, h = grid.a, grid.b, grid.h
    if scheme == "plc":
        left = lambda y: (a + h - y) / h
        right = lambda y: (y - (b - h)) / h
    elif scheme == "pqc":
        # quadratic through (x0, 1), (x_{1/2}, 0), (x1, 0) and its mirror
        left = lambda y: 2.0 * (a + h - y) * (a + h / 2.0 - y) / h ** 2
        right = lambda y: 2.0 * (y - (b - h)) * (y - (b - h / 2.0)) / h ** 2
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    i0 = _piecewise_singular_quad(left, a, a + h, params.gamma, x)
    iN = _piecewise_singular_quad(right, b - h, b, params.gamma, x)
    return i0, iN


# --- eigenvalues ------------------------------------------------------------

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


def gershgorin_reference_bound(params: KernelParams, grid: UniformGrid) -> float:
    """Analytic lower bound on the smallest eigenvalue of the unscaled
    piecewise linear matrix D - G."""
    gam, N = params.gamma, grid.N
    i = np.arange(1, N, dtype=float)
    c = (2.0 - gam) * (1.0 - gam) / 2.0
    return float(np.min(c / i ** gam + c / (N - i) ** gam))


# --- prefix sums ------------------------------------------------------------

def brent_kung_prefix_sums(x: np.ndarray) -> np.ndarray:
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


# --- structure report, one block row at a time -----------------------------

def check_structure_by_block_row(system) -> solver.StructureReport:
    """solver.check_structure with the block grid walked by hand: per block
    row, its slice of the diagonal starts a double-double row sum and row
    slack that every block of the row adds to; the block rows' results are
    then concatenated."""
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

    entries = np.concatenate(entries)
    atol = 1e-14 * np.max(np.abs(np.concatenate((diagonal, entries))))
    symmetric = bool(np.max(np.concatenate(gaps)) <= atol)
    diag_positive = bool(np.all(diagonal > 0.0))
    min_slack = float(np.min(np.concatenate(slack)))
    certified = symmetric and diag_positive and min_slack > n * atol
    return solver.StructureReport(
        diagPositive=diag_positive,
        offDiagNegative=bool(np.all(entries > 0.0)),
        rowSums=np.concatenate(row_sums),
        minRowSlack=min_slack,
        symmetric=symmetric,
        spdFactorizationOk=True if certified else None,
    )


# --- studies, one oracle call per row ---------------------------------------

def truncation_study_by_point(config: study.StudyConfig) -> list:
    """run_truncation_study with one scheme.truncation call, and so one
    oracle call, per level and eval point."""
    params = KernelParams(config.gamma)
    scheme = study.SCHEMES[config.scheme]
    grids = [UniformGrid(*config.interval, N) for N in config.levels]
    hs = [grid.h for grid in grids]
    return [
        study.StudyReport(
            rows=study._build_rows(config.levels, hs, [
                scheme.truncation(params, grid, config.testFunction,
                                  study._resolve_point(pt, grid))
                for grid in grids]),
            label=f"x={pt}", metadata=study._metadata(config))
        for pt in config.evalPoints]


def global_study_by_level(config: study.StudyConfig) -> study.StudyReport:
    """run_global_study with its own exact_nonlocal_rhs call per level."""
    params = KernelParams(config.gamma)
    u = config.testFunction
    scheme = study.SCHEMES[config.scheme]
    hs, errors = [], []
    for N in config.levels:
        grid = UniformGrid(*config.interval, N)
        hs.append(grid.h)
        problem = exact_nonlocal_rhs(u, grid, params, nodes=config.scheme)
        system = scheme.assemble(params, grid, problem)
        uh = solver.solve_dense(system)
        errors.append(float(np.max(np.abs(uh - u(system.nodes)))))
    return study.StudyReport(rows=study._build_rows(config.levels, hs, errors),
                             label="max-norm error",
                             metadata=study._metadata(config))
