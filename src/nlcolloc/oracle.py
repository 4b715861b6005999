"""High-accuracy reference evaluation of weakly singular integrals.

Everything here is independent of the collocation weight tables: the
primary route is Gauss-Jacobi quadrature with the s^(-gamma) weight on
each side of the singularity, doubled until converged.  The exponential
test function carries a convergent-series second opinion, and constant /
monomial functions have closed forms.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .grid import KernelParams, UniformGrid

MAX_NODES_PER_SIDE = 4096


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
        if self.kind == "monomial" and not 0 <= self.p <= 4:
            raise ValueError("monomial power must lie in 0..4")

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

    x may be a float or an array of points.
    """
    e = 1.0 - gamma
    return (_pow(x - a, e) + _pow(b - x, e)) / e


def _pow(base, e: float):
    """base ** e per element with the C library's pow.

    numpy's vectorised power (like its exp) can differ from the C library in
    the last bit, depending on the CPU's SIMD support; the oracle's values
    must not.
    """
    if np.ndim(base) == 0:
        return float(base) ** e
    return np.array([v ** e for v in base.tolist()])


# --- Gauss-Jacobi route -----------------------------------------------------

def _recurrence(n: int, beta):
    """Coefficients (a1, a2, a3, a4) of the three-term recurrence, each a
    long-double array over k: for P^(0,beta), k = 2..n, and for the
    (1, beta+1) family of the derivative, k = 2..n-1.  beta is a long
    double.

    Each element is rounded as in a per-k scalar evaluation (same operation
    order).  0.0 - beta**2 rather than a negation keeps the sign of zero at
    beta = -0.0.
    """
    k = np.arange(2, n + 1, dtype=np.longdouble)
    s = 2.0 * k + beta
    poly = (2.0 * k * (k + beta) * (s - 2.0),
            (s - 1.0) * (0.0 - beta ** 2),
            (s - 2.0) * (s - 1.0) * s,
            2.0 * (k - 1.0) * (k + beta - 1.0) * s)
    k = k[:-1]
    s = 2.0 * k + beta + 2.0
    deriv = (2.0 * k * (k + beta + 2.0) * (s - 2.0),
             (s - 1.0) * (1.0 - (beta + 1.0) ** 2),
             (s - 2.0) * (s - 1.0) * s,
             2.0 * k * (k + beta) * s)
    return poly, deriv


def _jacobi_poly_and_deriv(n: int, beta, recurrence, x: np.ndarray):
    """P_n^(0,beta)(x) and its derivative, n >= 1, via the three-term
    recurrence with the coefficients _recurrence(n, beta)."""
    poly, deriv = recurrence
    p_prev = np.ones_like(x)
    p = 0.5 * (beta + 2.0) * x + 0.5 * (0.0 - beta)
    for a1, a2, a3, a4 in zip(*poly):
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    # derivative from the (1, beta+1) family
    d_prev = np.ones_like(x)
    d = 0.5 * (beta + 4.0) * x + 0.5 * (0.0 - beta)
    if n == 1:
        d = d_prev
    for a1, a2, a3, a4 in zip(*deriv):
        d, d_prev = ((a2 + a3 * x) * d - a4 * d_prev) / a1, d
    return p, 0.5 * (n + beta + 1.0) * d


def _gauss_jacobi(n: int, beta: float):
    """Nodes and weights on [-1, 1] for weight (1+x)^beta.

    Library nodes serve as starting points and are Newton-polished on the
    recurrence in extended precision (the library values alone drift to
    ~1e-12 for beta near -1 at larger n); weights come from the closed-form
    derivative formula.
    """
    beta_ld = np.longdouble(beta)
    recurrence = _recurrence(n, beta_ld)
    x0, _ = roots_jacobi(n, 0.0, beta)
    x = x0.astype(np.longdouble)
    for _ in range(50):
        p, dp = _jacobi_poly_and_deriv(n, beta_ld, recurrence, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-16:
            break
    _, dp = _jacobi_poly_and_deriv(n, beta_ld, recurrence, x)
    # with alpha = 0 the Gamma factors collapse: C = 2^(beta+1) exactly
    c = np.longdouble(2.0) ** np.longdouble(beta + 1.0)
    w = c / ((1.0 - x ** 2) * dp ** 2)
    return x, w


@functools.cache
def _gj_rule(n: int, gamma: float):
    # weight s^(-gamma) on [0, 1]: map the (0, -gamma) Jacobi rule from [-1, 1]
    t, w = _gauss_jacobi(n, -gamma)
    return (1.0 + t) / 2.0, w * np.longdouble(2.0) ** (gamma - 1.0)


def _sides(a: float, b: float, x: np.ndarray):
    """Lengths and directions of the left and right sides of every x:
    (x - a, b - x) and (-1, +1), each concatenated left first."""
    signs = np.ones(2 * x.size)
    signs[:x.size] = -1.0
    return np.concatenate([x - a, b - x]), signs


# Quadrature points per working array in _rule_sums: 2**17 long doubles are
# 2 MB, so a node set that fails to converge up to MAX_NODES_PER_SIDE costs a
# few MB instead of nodes x 4096 x 16 B.
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


def _one_sided(u, x, L, gamma: float, sign, n: int):
    """int_0^L u(x + sign*t) t^(-gamma) dt for each x, L > 0 and sign = +-1
    (floats, or arrays of one shape).

    Uses int_0^L u(x + sign*t) t^(-gamma) dt
    == L^(1-gamma) int_0^1 u(x + sign*L*s) s^(-gamma) ds with the n-point
    rule.
    """
    shape = np.shape(x)
    x, L = np.ravel(x), np.ravel(L)
    sums = _rule_sums(u, x, sign * L, gamma, n)
    return (_side_scales(L, gamma) * sums).astype(float).reshape(shape)


def singular_integrals(u: TestFunction, interval, params: KernelParams,
                       xs, tol: float = 1e-12) -> np.ndarray:
    """I(a, b, x) = int_a^b u(y) |x - y|^(-gamma) dy at every x of the 1-D
    array xs, each to absolute error <= tol.

    Node counts double per side until successive estimates at a point differ
    by less than tol/4; each point stops at its own level.  The exponential
    kind is additionally cross-checked, point by point, against its series
    expansion.
    """
    a, b = interval
    xs = np.asarray(xs, dtype=float)
    outside = ~((a < xs) & (xs < b))
    if outside.any():
        raise ValueError(f"x={xs[outside][0]} must lie strictly inside ({a}, {b})")
    if tol < 1e-14:
        raise ValueError("tol below 1e-14 is not attainable in double precision")
    gamma = params.gamma

    # both sides of every point, left sides first: each level gathers the
    # sides of its open points, so the scales L^(1-gamma) are taken once
    lengths, signs = _sides(a, b, xs)
    points = np.concatenate([xs, xs]).astype(np.longdouble)
    steps = (signs * lengths).astype(np.longdouble)
    scales = _side_scales(lengths, gamma)

    def both_sides(todo, n):
        side = np.concatenate([todo, todo + xs.size])
        sums = _rule_sums(u, points[side], steps[side], gamma, n)
        values = (scales[side] * sums).astype(float)
        return values[:todo.size] + values[todo.size:]

    values = np.empty(xs.size)
    todo = np.arange(xs.size)
    n = 4
    prev = both_sides(todo, n)
    while todo.size:
        n *= 2
        if n > MAX_NODES_PER_SIDE:
            raise OracleError(
                f"Gauss-Jacobi doubling did not converge below {tol} "
                f"within {MAX_NODES_PER_SIDE} nodes per side")
        cur = both_sides(todo, n)
        # the roundoff term keeps tiny tolerances attainable on O(1) integrals
        done = np.abs(cur - prev) < tol / 4.0 + 2e-14 * np.abs(cur)
        values[todo[done]] = cur[done]
        todo, prev = todo[~done], cur[~done]

    if u.kind == "exp":
        # the series carries less roundoff than the quadrature weights, so
        # after the two routes validate each other, prefer its value
        ref = _exp_integral_series(a, b, gamma, xs, tol)
        bad = np.abs(values - ref) > 100.0 * tol
        if bad.any():
            i = np.argmax(bad)
            raise OracleError(
                f"Gauss-Jacobi ({float(values[i])!r}) and series "
                f"({float(ref[i])!r}) disagree at x={float(xs[i])!r}")
        return ref
    return values


def singular_integral(u: TestFunction, interval, params: KernelParams,
                      x: float, tol: float = 1e-12) -> float:
    """I(a, b, x) at one point x; see singular_integrals."""
    return float(singular_integrals(u, interval, params, np.array([x]), tol)[0])


# --- independent second routes ---------------------------------------------

def _exp_power_series(c: np.ndarray, sign: np.ndarray, gamma: float,
                      tol: float) -> np.ndarray:
    """int_0^c e^(sign*t) t^(-gamma) dt by its convergent series, for each
    pair of c and sign in 1-D arrays (0 where c <= 0); each element stops at
    its own term."""
    total = np.zeros(c.size)
    todo = np.flatnonzero(c > 0.0)
    step = (sign * c)[todo]
    cpow = _pow(c[todo], 1.0 - gamma)
    partial = np.zeros(todo.size)
    term_base = np.ones(todo.size)  # sign^k c^k / k!
    for k in range(0, 500):
        term = term_base * cpow / (k + 1.0 - gamma)
        partial += term
        if k > 2:
            done = np.abs(term) < tol / 10.0
            if done.any():
                total[todo[done]] = partial[done]
                keep = ~done
                todo, cpow, step = todo[keep], cpow[keep], step[keep]
                partial, term_base = partial[keep], term_base[keep]
            if not todo.size:
                return total
        term_base *= step / (k + 1.0)
    raise OracleError("series for the exponential integral did not converge")


def _exp_integral_series(a: float, b: float, gamma: float, x: np.ndarray,
                         tol: float) -> np.ndarray:
    sides = _exp_power_series(*_sides(a, b, x), gamma, tol)
    return np.array([math.exp(v) for v in x.tolist()]) \
        * (sides[:x.size] + sides[x.size:])


def closed_form_integral(u: TestFunction, interval, params: KernelParams,
                         x: float, tol: float = 1e-13) -> float:
    """Closed-form (or series) value of I(a, b, x) for the supported kinds."""
    a, b = interval
    gamma = params.gamma
    if u.kind == "const":
        return u.c * kernel_row_integral(a, b, gamma, x)
    if u.kind == "exp":
        return float(_exp_integral_series(a, b, gamma, np.array([x]), tol)[0])
    # monomial: expand y^p about x; odd powers flip sign on the left side
    total = 0.0
    for j in range(u.p + 1):
        e = j + 1.0 - gamma
        binom = math.comb(u.p, j)
        total += binom * x ** (u.p - j) * (
            (-1.0) ** j * (x - a) ** e + (b - x) ** e) / e
    return total


# --- manufactured problems --------------------------------------------------

@dataclass(frozen=True)
class ManufacturedProblem:
    """Right-hand side and boundary data manufactured from an exact solution.

    fValues holds f(x) = u(x) K(x) - I(a, b, x) at the collocation nodes
    (interior integer nodes for PLC; all 2N-1 nodes for PQC) and boundary
    the Dirichlet data (u(a), u(b)).
    """

    nodes: np.ndarray
    fValues: np.ndarray
    boundary: tuple


def exact_nonlocal_rhs(u: TestFunction, grid: UniformGrid,
                       params: KernelParams, nodes: str = "plc",
                       tol: float = 1e-12) -> ManufacturedProblem:
    """Manufacture f for the nonlocal equation at the requested node set."""
    if nodes == "plc":
        xs = grid.interior_nodes()
    elif nodes == "pqc":
        xs = grid.collocation_nodes_pqc()
    else:
        raise ValueError(f"unknown node set {nodes!r}")
    f = u(xs) * kernel_row_integral(grid.a, grid.b, params.gamma, xs) \
        - singular_integrals(u, (grid.a, grid.b), params, xs, tol)
    return ManufacturedProblem(
        nodes=xs, fValues=f, boundary=(float(u(grid.a)), float(u(grid.b))))


# --- boundary basis integrals (adaptive-quadrature route) -------------------

def _piecewise_singular_quad(f, lo: float, hi: float, gamma: float,
                             x: float) -> float:
    """int_lo^hi f(y) |x - y|^(-gamma) dy with f smooth on [lo, hi]; the
    kernel singularity may sit inside, at an endpoint, or outside."""
    # imported here: only this reference route needs it, and it is most of
    # the import cost of the package
    from scipy import integrate

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
