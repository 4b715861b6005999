"""Closed-form product-integration weights for the |x - y|^(-gamma) kernel.

All weight tables are pure functions of (gamma, N).  The three-term power
differences cancel severely for large indices, so the closed forms are
evaluated in extended precision (x87 long double) and rounded to float64
once per table.  The powers are tabulated once per lattice point: j^(e-gamma)
for PLC and (j/2)^(e-gamma) for PQC, one table per exponent, and every
closed form reads them by slice or index.
"""

from dataclasses import dataclass

import numpy as np

from .grid import KernelParams, UniformGrid

# Largest admissible cell count.  At N = 8192 the PLC weights are accurate to
# about 1e-15; the PQC weights lose accuracy as N grows (scaled error 1.6e-11
# to 5.2e-10 at N = 8192, gamma 0.3 to 0.95), which a 1/z series would fix.
MAX_CELLS = 8192

_LD = np.longdouble


def _check(grid: UniformGrid) -> None:
    if grid.N > MAX_CELLS:
        raise ValueError(f"N={grid.N} exceeds supported maximum {MAX_CELLS}")


def sigma_scaling(h: float, gamma: float) -> float:
    """Scaling factor for the piecewise linear rule."""
    return h ** (1.0 - gamma) / ((2.0 - gamma) * (1.0 - gamma))


def eta_scaling(h: float, gamma: float) -> float:
    """Scaling factor for the piecewise quadratic rule."""
    return h ** (1.0 - gamma) / ((3.0 - gamma) * (2.0 - gamma) * (1.0 - gamma))


def _powers(top: int, gamma: float, exponents, halves: bool = False):
    """One long-double table per exponent e: z ** (e - gamma) for z = j, or
    z = j/2 when halves, over j = 0..top."""
    z = np.arange(top + 1, dtype=_LD)
    if halves:
        z = z / 2
    g = _LD(gamma)
    return [np.power(z, e - g) for e in exponents]


# --- piecewise linear weights ------------------------------------------------

@dataclass(frozen=True)
class PlcCoeffs:
    """Weight tables for the piecewise linear rule on a given (gamma, N)."""

    sigma: float
    g: np.ndarray        # g_0 .. g_{N-2}
    alpha: np.ndarray    # alpha_1 .. alpha_{N-1}
    d: np.ndarray        # d_1 .. d_{N-1}


def plc_weights(params: KernelParams, grid: UniformGrid) -> PlcCoeffs:
    _check(grid)
    gam, N = params.gamma, grid.N
    e = 2 - _LD(gam)
    P2, P1 = _powers(N, gam, (2, 1))      # j^(2-gamma), j^(1-gamma)
    g = np.empty(N - 1)
    g[0], g[1:] = 2.0, P2[2:N] - 2 * P2[1:N - 1] + P2[:N - 2]
    alpha = P2[:N - 1] - P2[1:N] + e * P1[1:N]
    d = e * (P1[1:N] + P1[N - 1:0:-1])
    return PlcCoeffs(sigma=sigma_scaling(grid.h, gam), g=g,
                     alpha=alpha.astype(np.float64), d=d.astype(np.float64))


# --- piecewise quadratic weight functions ----------------------------------
#
# The three families below take a doubled index J (the point z = J/2), so
# that the half-index identities p_k = m(k + 1/2), n_k = q(k - 1/2),
# gammaB_i = beta(i + 1/2) reuse the same closed forms.  H3, H2 and H1 hold
# (j/2)^(3-gamma), (j/2)^(2-gamma) and (j/2)^(1-gamma).

def _pqc_m(H3, H2, g, J):
    """m(J/2) for J >= 2; m_0 = 2(1 + gamma) is set by the caller."""
    return 4 * (H3[J + 2] - H3[J - 2]) \
        - (3 - g) * (H2[J + 2] + 6 * H2[J] + H2[J - 2])


def _pqc_q(H3, H2, g, J):
    """q(J/2) for J >= 0."""
    return -8 * (H3[J + 2] - H3[J]) + 4 * (3 - g) * (H2[J + 2] + H2[J])


def _pqc_beta(H3, H2, H1, g, J):
    """beta(J/2) for J >= 2."""
    return 4 * (H3[J] - H3[J - 2]) \
        - (3 - g) * (3 * H2[J] + H2[J - 2]) \
        + (3 - g) * (2 - g) * H1[J]


def _pqc_p0(H3, H2, H1, g):
    """p_0, the weight of u(x_1) at the collocation point x_{1/2}, from the
    tables at 1/2 (J = 1) and 3/2 (J = 3).

    m(1/2) is undefined over the reals, and the singularity sits inside the
    support of the basis function, so this case needs its own closed form:
    the integral of 2(y-x_0)(y-x_{1/2})/h^2 over [x_0, x_1] split at x_{1/2}
    plus the integral of 2(y-x_2)(y-x_{3/2})/h^2 over [x_1, x_2].
    """
    return (2 - g) * (1 - g) * 2 * (H3[3] + H3[1]) \
        - 5 * (3 - g) * (1 - g) * (H2[3] - H2[1]) \
        + 3 * (3 - g) * (2 - g) * (H1[3] - H1[1])


@dataclass(frozen=True)
class PqcCoeffs:
    """Weight tables for the piecewise quadratic rule on a given (gamma, N).

    d_half[i - 1] holds d_{i/2} for doubled index i = 1 .. 2N-1.
    """

    eta: float
    m: np.ndarray        # m_0 .. m_{N-2}
    p: np.ndarray        # p_0 .. p_{N-2}
    q: np.ndarray        # q_0 .. q_{N-2}
    n: np.ndarray        # n_0 .. n_{N-1}
    beta: np.ndarray     # beta_1 .. beta_{N-1}
    gammaB: np.ndarray   # gamma_0 .. gamma_{N-1}
    dHalf: np.ndarray    # d_{1/2}, d_1, ..., d_{N-1/2}


def pqc_weights(params: KernelParams, grid: UniformGrid) -> PqcCoeffs:
    _check(grid)
    gam, N = params.gamma, grid.N
    g = _LD(gam)
    H3, H2, H1 = _powers(2 * N - 1, gam, (3, 2, 1), halves=True)
    # one evaluation per family over doubled z: the integer-index table is
    # its even entries, the half-index table its odd entries
    M = _pqc_m(H3, H2, g, np.arange(2, 2 * N - 2))        # z = 1 .. N-3/2
    Q = _pqc_q(H3, H2, g, np.arange(2 * N - 2))           # z = 0 .. N-3/2
    B = _pqc_beta(H3, H2, H1, g, np.arange(2, 2 * N))     # z = 1 .. N-1/2
    m, p, n, gammaB = np.empty(N - 1), np.empty(N - 1), np.empty(N), np.empty(N)
    m[0], m[1:] = 2.0 * (1.0 + gam), M[::2]
    p[0], p[1:] = _pqc_p0(H3, H2, H1, g), M[1::2]
    n[0], n[1:] = (2 - g) * _LD(2) ** (g + 1), Q[1::2]
    gammaB[0], gammaB[1:] = (2 - g) * (1 - g) * _LD(2) ** (g - 1), B[1::2]
    dHalf = (3 - g) * (2 - g) * (H1[1:2 * N] + H1[2 * N - 1:0:-1])
    return PqcCoeffs(eta=eta_scaling(grid.h, gam), m=m, p=p,
                     q=Q[::2].astype(np.float64), n=n,
                     beta=B[::2].astype(np.float64), gammaB=gammaB,
                     dHalf=dHalf.astype(np.float64))


def dump_table(values: np.ndarray) -> str:
    """Render one weight table as CSV with full 17-digit values."""
    lines = ["index,value"]
    lines += [f"{i},{v:.17g}" for i, v in enumerate(np.asarray(values))]
    return "\n".join(lines) + "\n"
