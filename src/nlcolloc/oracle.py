"""High-accuracy reference evaluation of weakly singular integrals.

Everything here is independent of the collocation weight tables: the
primary route is Gauss-Jacobi quadrature with the s^(-gamma) weight on
each side of the singularity, doubled until converged.  For the
exponential test function a convergent series gives the value, and the
Gauss-Jacobi levels check it.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import KernelParams, UniformGrid

# Over 3000 random calls (intervals of length 1e-6 to 316, gamma up to
# 1 - 1e-6, points 1e-12 from an end, tol 1e-14 to 1e-10) every converged
# point stopped by 32 nodes per side and every failure came by 128.  Only
# sides that cancel to I = 0 (u = y on (-1000, 1000), gamma near 0) went
# further, and there the doubling gate accepts only by chance.
MAX_NODES_PER_SIDE = 256

# Absolute tolerance of every oracle value: the default of every tol argument.
ORACLE_TOL = 1e-13


class OracleError(RuntimeError):
    """Reference integration failed to converge or cross-validate."""


@dataclass(frozen=True)
class TestFunction:
    """Exact solution used to manufacture right-hand sides.

    kind is one of 'const' (value c), 'monomial' (y**p, integer p <= 4)
    or 'exp' (e**y).
    """

    __test__ = False          # keep pytest from collecting this dataclass

    kind: str
    c: float = 1.0
    p: int = 1

    def __post_init__(self):
        if self.kind not in ("const", "monomial", "exp"):
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if self.kind == "monomial" and not (
                isinstance(self.p, numbers.Integral) and 0 <= self.p <= 4):
            raise ValueError(f"monomial power must be an integer in 0..4, got {self.p}")

    def __call__(self, y):
        # dtype-preserving, so extended-precision quadrature stays extended
        y = np.asarray(y)
        if self.kind == "const":
            return np.full_like(y, self.c, dtype=y.dtype if y.dtype.kind == "f" else float)
        if self.kind == "monomial":
            return y ** self.p
        return np.exp(y)


def constant(c: float = 1.0) -> TestFunction:
    return TestFunction("const", c=c)


def monomial(p: int) -> TestFunction:
    return TestFunction("monomial", p=p)


def exponential() -> TestFunction:
    return TestFunction("exp")


def kernel_row_integral(a: float, b: float, gamma: float, x):
    """int_a^b |x - y|^(-gamma) dy = [(x-a)^(1-g) + (b-x)^(1-g)] / (1-g).

    x may be a float or a 1-D array of points, each in [a, b], and gamma
    lies in [0, 1), as KernelParams requires.
    """
    KernelParams(gamma)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"x must be a float or 1-D, got shape {xs.shape}")
    outside = ~((a <= xs) & (xs <= b))     # nan included
    if outside.any():
        raise ValueError(f"x={float(xs[outside][0])!r} must lie in [{a}, {b}]")
    lengths, _ = _sides(a, b, xs.reshape(-1))
    row = _kernel_row(_pow(lengths, 1.0 - gamma), gamma)
    return float(row[0]) if xs.ndim == 0 else row


def _kernel_row(powers: np.ndarray, gamma: float) -> np.ndarray:
    """kernel_row_integral at the points whose side powers
    (x - a)^(1-gamma), then (b - x)^(1-gamma), these are."""
    n = powers.size // 2
    return (powers[:n] + powers[n:]) / (1.0 - gamma)


def _pow(base: np.ndarray, e: float) -> np.ndarray:
    """base ** e per element of a 1-D array with the C library's pow.

    numpy's vectorised power (like its exp) can differ from the C library in
    the last bit, depending on the CPU's SIMD support; the oracle's values
    must not.
    """
    return np.fromiter(map(math.pow, base.tolist(), itertools.repeat(e)),
                       float, count=base.size)


# --- Gauss-Jacobi route -----------------------------------------------------

def _recurrence(n: int, beta):
    """Coefficients (a1, a2, a3, a4) of the three-term recurrence
    a1 P_k = (a2 + a3 t) P_(k-1) - a4 P_(k-2) of P^(0,beta), each a
    long-double array over k = 2..n.  beta is a long double.

    Each element is rounded as in a per-k scalar evaluation (same operation
    order).  0.0 - beta**2 rather than a negation keeps the sign of zero at
    beta = -0.0.
    """
    k = np.arange(2, n + 1, dtype=np.longdouble)
    s = 2.0 * k + beta
    return (2.0 * k * (k + beta) * (s - 2.0),
            (s - 1.0) * (0.0 - beta ** 2),
            (s - 2.0) * (s - 1.0) * s,
            2.0 * (k - 1.0) * (k + beta - 1.0) * s)


def _jacobi_poly_and_deriv(beta, recurrence, x: np.ndarray, left):
    """P_n^(0,beta)(t) and P_n'(t), n >= 1, at t = x - 1 where left and t = x
    elsewhere, from one pass over _recurrence(n, beta) and its derivative in
    t, a1 P'_k = (a2 + a3 t) P'_(k-1) + a3 P_(k-1) - a4 P'_(k-2)."""
    p_prev, p = np.ones_like(x), 0.5 * (beta + 2.0) * x + np.where(
        left, -1.0 - beta, 0.5 * (0.0 - beta))
    d_prev, d = np.zeros_like(x), np.full_like(x, 0.5 * (beta + 2.0))
    for a1, a2, a3, a4 in zip(*recurrence):
        c = np.where(left, a2 - a3, a2) + a3 * x
        p, p_prev, d, d_prev = ((c * p - a4 * p_prev) / a1, p,
                                (c * d + a3 * p - a4 * d_prev) / a1, d)
    return p, d


def _tridiagonal_eigenvalues(diagonal: np.ndarray,
                             off: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with this
    diagonal and off-diagonal, from numpy's dense solver on its lower
    triangle (256 rows: 3.7 ms of the rule's 14, one Xeon thread)."""
    n = len(diagonal)
    lower = np.diag(diagonal)
    lower[np.arange(1, n), np.arange(n - 1)] = off
    return np.linalg.eigvalsh(lower)


@functools.cache
def _gj_rule(n: int, gamma: float):
    """Nodes and weights, in long double, of the n-point Gauss rule for the
    weight s^(-gamma) on [0, 1].

    The nodes t of P_n^(0,-gamma): the recurrence's Jacobi-matrix eigenvalues
    (Golub-Welsch), Newton-polished on the recurrence in extended precision
    and in 1 + t where t < -1/2, since t itself loses those digits near -1.
    The rule is s = (1+t)/2, w = 1/((1-t^2) P_n'(t)^2): with alpha = 0 the
    constant 2^(1-gamma) and the map's 2^(gamma-1) cancel exactly.
    """
    if n > MAX_NODES_PER_SIDE:
        raise OracleError(f"{n} Gauss-Jacobi nodes exceed {MAX_NODES_PER_SIDE}")
    beta = np.longdouble(-gamma)
    recurrence = a1, a2, a3, a4 = _recurrence(n, beta)
    diagonal = np.append(beta / (beta + 2.0), -a2 / a3)
    upper = np.append(2.0 / (beta + 2.0), a1 / a3)[:n - 1]
    t = _tridiagonal_eigenvalues(diagonal.astype(float),
                                 np.sqrt(upper * a4 / a3).astype(float))
    left = t < -0.5
    x = np.where(left, 1.0 + t, t).astype(np.longdouble)
    for _ in range(3):
        p, dp = _jacobi_poly_and_deriv(beta, recurrence, x, left)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-16:
            break
    d, e = np.where(left, x, 1.0 + x), np.where(left, 2.0 - x, 1.0 - x)
    # the last step's P_n', moved to the polished t: where P_n = 0, the Jacobi
    # equation gives P''/P' = ((beta+2) t - beta)/(1 - t^2)
    dp = dp * (1.0 - dx * ((beta + 2.0) * (d - 1.0) - beta) / (d * e))
    return d / 2.0, 1.0 / (d * e * dp ** 2)


def _sides(a: float, b: float, x: np.ndarray):
    """Lengths and directions of the left and right sides of every x:
    (x - a, b - x) and (-1, +1), each concatenated left first."""
    signs = np.ones(2 * x.size)
    signs[:x.size] = -1.0
    return np.concatenate([x - a, b - x]), signs


# Quadrature points per working array in _rule_sums: 2**17 long doubles are
# 2 MB, so a large node set costs a few MB instead of points x nodes x 16 B
# (10**6 points x 32 nodes: 512 MB).
CHUNK_ENTRIES = 2 ** 17


def _side_scales(L, gamma: float):
    """L^(1-gamma) in long double, per element."""
    return np.asarray(L, dtype=np.longdouble) ** (1.0 - np.longdouble(gamma))


def _rule_sums(u, x, step, gamma: float, n: int):
    """int_0^1 u(x + step*s) s^(-gamma) ds in long double for each element
    of the 1-D arrays x and step, with the n-point rule, over row chunks of
    at most CHUNK_ENTRIES points."""
    s, w = _gj_rule(n, gamma)
    x = np.asarray(x, dtype=np.longdouble)
    step = np.asarray(step, dtype=np.longdouble)
    acc = np.empty(x.size, dtype=np.longdouble)
    rows = max(1, CHUNK_ENTRIES // n)
    for lo in range(0, x.size, rows):
        y = step[lo:lo + rows, None] * s
        y += x[lo:lo + rows, None]
        acc[lo:lo + rows] = np.asarray(u(y), dtype=np.longdouble) @ w
    return acc


def _point_sides(u, a: float, b: float, gamma: float, xs: np.ndarray):
    """Gauss-Jacobi levels at arbitrary points: sides(todo, n) gives the
    n-point values of the left sides of the points xs[todo], then of their
    right sides, from (points x nodes) long-double arrays.  The scales
    L^(1-gamma) are taken once, for all levels."""
    lengths, signs = _sides(a, b, xs)
    points = np.concatenate([xs, xs]).astype(np.longdouble)
    steps = (signs * lengths).astype(np.longdouble)
    scales = _side_scales(lengths, gamma)

    def sides(todo, n):
        side = np.concatenate([todo, todo + xs.size])
        sums = _rule_sums(u, points[side], steps[side], gamma, n)
        return (scales[side] * sums).astype(float)

    return sides


def _lattice_sides(b: float, gamma: float, xs: np.ndarray, step: float,
                   powers: np.ndarray):
    """Gauss-Jacobi levels of e^y at the lattice xs = a + i*step,
    i = 1..M-1, with M*step = b - a, from the side powers of xs
    (x - a)^(1-gamma), then (b - x)^(1-gamma); sides(todo, n) as in
    _point_sides.

    With the rule's nodes s_k and weights w_k, the left side of x_i is
    L^(1-gamma) e^(x_i) sum_k w_k tau_k^i, tau_k = e^(-step*s_k), and the
    right side R^(1-gamma) e^b sum_k w_k sigma_k^(M-i),
    sigma_k = e^(-step*(1-s_k)), where L = x_i - a and R = b - x_i.  No
    power exceeds 1, so nothing overflows on long intervals.  Each power sum
    over j = q*B + r, B about sqrt(M), is one (B x n) @ (n x Q) product of
    exponential tables: O(sqrt(M) n) exponentials instead of one per point
    and node, all in float64.

    The powers are those of L and R of the rounded nodes, not of i*step:
    near an end of a short interval the two differ by 1e-12 relative,
    which would put the lattice at other points than the series.
    """
    try:
        exp_b = math.exp(b)
    except OverflowError:
        raise OracleError(f"e^y overflows float64 at y={b!r}") from None
    with np.errstate(over="ignore"):          # an infinite side fails its level
        left = powers[:xs.size] * np.exp(xs)
        right = powers[xs.size:] * exp_b
    M = xs.size + 1
    B = math.isqrt(M - 1) + 1
    Q = -(-M // B)
    low, high = np.arange(B) * -step, np.arange(Q) * (B * -step)

    def power_sums(t, w):
        # sum_k w_k e^(-j*step*t_k) for j = 0 .. Q*B - 1
        return ((np.exp(np.outer(low, t)) * w)
                @ np.exp(np.outer(t, high))).T.ravel()

    def sides(todo, n):
        s, w = (v.astype(float) for v in _gj_rule(n, gamma))
        j = todo + 1
        return np.concatenate([left[todo] * power_sums(s, w)[j],
                               right[todo] * power_sums(1.0 - s, w)[M - j]])

    return sides


def singular_integrals(u: TestFunction, interval, params: KernelParams,
                       xs, tol: float = ORACLE_TOL) -> np.ndarray:
    """I(a, b, x) = int_a^b u(y) |x - y|^(-gamma) dy at every x of the 1-D
    array xs, each to absolute error <= tol.

    Node counts double per side until successive estimates at a point differ
    by less than tol/4; each point stops at its own level.  The exponential
    kind is additionally cross-checked, point by point, against its series
    expansion.
    """
    return _singular_integrals(u, interval, params, xs, tol)[0]


def _singular_integrals(u: TestFunction, interval, params: KernelParams,
                        xs, tol: float, step=None):
    """singular_integrals, with the Gauss-Jacobi levels from _point_sides;
    a step says that u is e^y and xs = a + i*step for i = 1..M-1, with
    M*step = b - a, and takes the levels from _lattice_sides instead.

    Returns the integrals and the side powers (x - a)^(1-gamma), then
    (b - x)^(1-gamma), of xs: taken once, they serve the series, the
    lattice levels and the caller's kernel row."""
    a, b = interval
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"xs must be 1-D, got shape {xs.shape}")
    outside = ~((a < xs) & (xs < b))
    if outside.any():
        raise ValueError(f"x={xs[outside][0]} must lie strictly inside ({a}, {b})")
    # a nan tol would never converge, an infinite one at the first level
    if not (math.isfinite(tol) and tol >= 1e-14):
        raise ValueError(f"tol must be finite and >= 1e-14 (a smaller one "
                         f"is not attainable in double precision), got {tol!r}")
    gamma = params.gamma
    lengths, signs = _sides(a, b, xs)
    powers = _pow(lengths, 1.0 - gamma)
    if step is None:
        sides = _point_sides(u, a, b, gamma, xs)
    else:
        sides = _lattice_sides(b, gamma, xs, step, powers)

    def level(todo, n):
        with np.errstate(over="ignore", invalid="ignore"):  # raised below
            values = sides(todo, n)
            values = values[:todo.size] + values[todo.size:]
        nonfinite = ~np.isfinite(values)
        if nonfinite.any():
            raise OracleError(
                f"the {n}-node Gauss-Jacobi estimate at "
                f"x={float(xs[todo[nonfinite][0]])!r} is not finite")
        return values

    values = np.empty(xs.size)
    todo = np.arange(xs.size)
    n = 4
    prev = level(todo, n)
    change = np.full(todo.size, np.inf)
    while todo.size:
        n *= 2
        if n > MAX_NODES_PER_SIDE:
            raise OracleError(
                f"Gauss-Jacobi doubling did not converge below {tol} "
                f"within {MAX_NODES_PER_SIDE} nodes per side: at "
                f"x={float(xs[todo[0]])!r} the last change was "
                f"{float(change[0])!r}")
        cur = level(todo, n)
        change = np.abs(cur - prev)
        # the roundoff term keeps tiny tolerances attainable on O(1) integrals
        done = change < tol / 4.0 + 2e-14 * np.abs(cur)
        values[todo[done]] = cur[done]
        todo, prev, change = todo[~done], cur[~done], change[~done]

    if u.kind == "exp":
        # the series carries less roundoff than the quadrature weights, so
        # after the two routes validate each other, prefer its value
        ref = _exp_integral_series(xs, lengths, signs, powers, gamma, tol)
        # mixed like the doubling gate: a large |I|'s roundoff is no error
        bad = np.abs(values - ref) > 100.0 * tol + 2e-14 * np.abs(ref)
        if bad.any():
            i = np.argmax(bad)
            raise OracleError(
                f"Gauss-Jacobi ({float(values[i])!r}) and series "
                f"({float(ref[i])!r}) disagree at x={float(xs[i])!r}")
        values = ref
    return values, powers


def singular_integral(u: TestFunction, interval, params: KernelParams,
                      x: float, tol: float = ORACLE_TOL) -> float:
    """I(a, b, x) at one point x; see singular_integrals."""
    return float(singular_integrals(u, interval, params, np.array([x]), tol)[0])


# --- independent second routes ---------------------------------------------

def _exp_power_series(c: np.ndarray, sign: np.ndarray, cpow: np.ndarray,
                      gamma: float, tol: float) -> np.ndarray:
    """int_0^c e^(sign*t) t^(-gamma) dt by its convergent series, for each
    triple of c >= 0, sign and cpow = c^(1-gamma) in 1-D arrays.

    All elements run in one pass of fixed size, and a term is added only
    where its element is still open, so each stops at its own term."""
    total = np.zeros(c.size)
    open_ = np.ones(c.size, dtype=bool)
    step = sign * c
    term_base = np.ones(c.size)  # sign^k c^k / k!
    for k in range(0, 500):
        term = term_base * cpow / (k + 1.0 - gamma)
        np.add(total, term, out=total, where=open_)
        if k > 2:
            open_ &= ~(np.abs(term) < tol / 10.0)    # a nan term stays open
            if not open_.any():
                return total
        term_base *= step / (k + 1.0)
    raise OracleError("series for the exponential integral did not converge")


def _exp_integral_series(x: np.ndarray, lengths: np.ndarray,
                         signs: np.ndarray, powers: np.ndarray, gamma: float,
                         tol: float) -> np.ndarray:
    """I(a, b, x) for u = e^y at every x of the 1-D array x by the series,
    from the _sides of x and their powers lengths^(1-gamma)."""
    sides = _exp_power_series(lengths, signs, powers, gamma, tol)
    return np.fromiter(map(math.exp, x.tolist()), float, count=x.size) \
        * (sides[:x.size] + sides[x.size:])


# --- manufactured problems --------------------------------------------------

@dataclass(frozen=True)
class ManufacturedProblem:
    """Right-hand side and boundary data manufactured from an exact solution.

    fValues holds f(x) = u(x) K(x) - I(a, b, x) at grid.lattice(p)[1:-1]
    (p = 1 for PLC, 2 for PQC) and boundary the Dirichlet data (u(a), u(b)).
    """

    fValues: np.ndarray
    boundary: tuple


def exact_nonlocal_rhs(u: TestFunction, grid: UniformGrid,
                       params: KernelParams, nodes: str = "plc",
                       tol: float = ORACLE_TOL) -> ManufacturedProblem:
    """Manufacture f for the nonlocal equation at the requested node set."""
    from .study import SCHEMES              # the schemes import this module
    scheme = SCHEMES.get(nodes)
    if scheme is None:
        raise ValueError(f"unknown node set {nodes!r}")
    xs, step = scheme.lattice(grid)[1:-1], grid.h / scheme.DEGREE
    # the integral first: where e^y overflows it raises before u(xs) warns
    integral, powers = _singular_integrals(
        u, (grid.a, grid.b), params, xs, tol,
        step if u.kind == "exp" else None)
    f = u(xs) * _kernel_row(powers, params.gamma) - integral
    return ManufacturedProblem(
        fValues=f, boundary=(float(u(grid.a)), float(u(grid.b))))
