"""Weight-table closed forms: identities at gamma = 0, positivity bounds,
and agreement with quadrature on the boundary basis functions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcolloc import coeffs
from nlcolloc.grid import KernelParams, UniformGrid
from reference import boundary_basis_integrals


def plc_tables(gamma, N, a=0.0, b=1.0):
    return coeffs.plc_weights(KernelParams(gamma), UniformGrid(a, b, N))


def pqc_tables(gamma, N, a=0.0, b=1.0):
    return coeffs.pqc_weights(KernelParams(gamma), UniformGrid(a, b, N))


class TestGammaZeroIdentities:
    """At gamma = 0 the kernel is constant and every weight collapses to
    the plain Newton-Cotes value."""

    def test_plc_interior_all_two(self):
        c = plc_tables(0.0, 32)
        assert np.allclose(c.g, 2.0, rtol=0, atol=1e-14)

    def test_plc_boundary_all_one(self):
        c = plc_tables(0.0, 32)
        assert np.allclose(c.alpha, 1.0, rtol=0, atol=1e-14)

    def test_plc_diagonal_is_2n(self):
        c = plc_tables(0.0, 32)
        assert np.allclose(c.d, 2.0 * 32, rtol=0, atol=1e-12)

    def test_plc_sigma_is_half_h(self):
        assert plc_tables(0.0, 8).sigma == pytest.approx(0.125 / 2.0)

    def test_pqc_m_all_two(self):
        c = pqc_tables(0.0, 16)
        assert np.allclose(c.m, 2.0, rtol=0, atol=1e-13)

    def test_pqc_q_all_four(self):
        c = pqc_tables(0.0, 16)
        assert np.allclose(c.q, 4.0, rtol=0, atol=1e-13)
        assert np.allclose(c.n, 4.0, rtol=0, atol=1e-13)

    def test_pqc_p_all_two(self):
        c = pqc_tables(0.0, 16)
        assert np.allclose(c.p, 2.0, rtol=0, atol=1e-13)

    def test_pqc_boundary_all_one(self):
        c = pqc_tables(0.0, 16)
        assert np.allclose(c.beta, 1.0, rtol=0, atol=1e-13)
        assert np.allclose(c.gammaB, 1.0, rtol=0, atol=1e-13)


class TestSpecialValues:
    def test_plc_g0(self):
        assert plc_tables(0.42, 8).g[0] == 2.0

    def test_pqc_m0(self):
        gam = 0.37
        assert pqc_tables(gam, 8).m[0] == pytest.approx(2.0 * (1.0 + gam))

    def test_pqc_n0(self):
        gam = 0.6
        assert pqc_tables(gam, 8).n[0] == pytest.approx(
            (2.0 - gam) * 2.0 ** (gam + 1.0))

    def test_pqc_gamma0(self):
        gam = 0.6
        assert pqc_tables(gam, 8).gammaB[0] == pytest.approx(
            (2.0 - gam) * (1.0 - gam) * 2.0 ** (gam - 1.0))

    def test_pqc_p0_continuous_at_gamma_zero(self):
        assert pqc_tables(0.0, 2).p[0] == pytest.approx(2.0, abs=1e-13)
        assert pqc_tables(1e-9, 2).p[0] == pytest.approx(2.0, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(0.0, 0.95), N=st.integers(4, 128))
def test_plc_tables_positive(gamma, N):
    c = plc_tables(gamma, N)
    assert np.all(c.g > 0.0)
    assert np.all(c.alpha > 0.0)
    assert np.all(c.d > 0.0)


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(0.0, 0.95), N=st.integers(4, 128))
def test_pqc_tables_positive(gamma, N):
    c = pqc_tables(gamma, N)
    for table in (c.m, c.p, c.q, c.n, c.beta, c.gammaB, c.dHalf):
        assert np.all(table > 0.0)


class TestLowerBounds:
    """The explicit per-entry lower bounds from the positivity proof."""

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_m_bound(self, gamma):
        c = pqc_tables(gamma, 64)
        i = np.arange(1, 63, dtype=float)
        base = (3 - gamma) * (2 - gamma) * (1 - gamma)
        assert np.all(c.m[1:] >= 2.0 * base * i ** -gamma * (1 / 6 - 7 / 60))

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_p_and_q_bounds(self, gamma):
        c = pqc_tables(gamma, 64)
        base = (3 - gamma) * (2 - gamma) * (1 - gamma)
        z = np.arange(1, 63, dtype=float) + 0.5
        assert np.all(c.p[1:] >= 0.1 * base * z ** -gamma)
        assert c.p[0] >= base / 6.0 * 1.5 ** -gamma
        i = np.arange(0, 63, dtype=float)
        assert np.all(c.q >= (2.0 / 3.0) * base * (i + 1.0) ** -gamma)


class TestAgainstQuadrature:
    """sigma * alpha_i and eta * (beta_i, gamma_i) are the integrals of the
    boundary interpolation basis functions; compare with the adaptive
    quadrature route."""

    @pytest.mark.parametrize("gamma", [0.2, 0.7])
    def test_plc_alpha(self, gamma):
        N = 16
        grid = UniformGrid(0.0, 1.0, N)
        c = plc_tables(gamma, N)
        for i in (1, 2, N - 1):
            i0, iN = boundary_basis_integrals(grid, KernelParams(gamma),
                                              grid.lattice(1)[i], "plc")
            assert c.sigma * c.alpha[i - 1] == pytest.approx(i0, rel=1e-10)
            assert c.sigma * c.alpha[N - i - 1] == pytest.approx(iN, rel=1e-10)

    @pytest.mark.parametrize("gamma", [0.2, 0.7])
    def test_pqc_beta_and_gamma(self, gamma):
        N = 16
        grid = UniformGrid(0.0, 1.0, N)
        c = pqc_tables(gamma, N)
        for i in (1, 5):          # integer rows use beta
            i0, iN = boundary_basis_integrals(grid, KernelParams(gamma),
                                              grid.lattice(1)[i], "pqc")
            assert c.eta * c.beta[i - 1] == pytest.approx(i0, rel=1e-9)
            assert c.eta * c.beta[N - i - 1] == pytest.approx(iN, rel=1e-9)
        for s in (0, 3):          # half rows x_{s+1/2} use gamma
            i0, iN = boundary_basis_integrals(grid, KernelParams(gamma),
                                              grid.lattice(2)[2 * s + 1],
                                              "pqc")
            assert c.eta * c.gammaB[s] == pytest.approx(i0, rel=1e-9)
            assert c.eta * c.gammaB[N - 1 - s] == pytest.approx(iN, rel=1e-9)


def test_max_cells_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        coeffs.plc_weights(KernelParams(0.5),
                           UniformGrid(0.0, 1.0, coeffs.MAX_CELLS + 1))


def test_dump_table_format():
    text = coeffs.dump_table(np.array([1.0, 0.5]))
    lines = text.strip().splitlines()
    assert lines[0] == "index,value"
    assert lines[1].startswith("0,1")
    assert lines[2].startswith("1,0.5")


# --- bitwise agreement with the per-element closed forms -------------------
#
# The weight tables read each power from a once-per-lattice-point table.
# These are the closed forms as they read before that, one long-double
# power per term, kept here as the reference the tables must equal bit for
# bit.

_LD = np.longdouble


def _ref_plc_interior(k, gamma):
    k = np.asarray(k, dtype=_LD)
    e = 2 - _LD(gamma)
    km1 = np.where(k >= 1, k - 1, 0)
    g = (k + 1) ** e - 2 * k ** e + km1 ** e
    return np.where(k == 0, _LD(2), g).astype(np.float64)


def _ref_plc_boundary(i, gamma):
    i = np.asarray(i, dtype=_LD)
    g = _LD(gamma)
    return ((i - 1) ** (2 - g) - i ** (2 - g)
            + (2 - g) * i ** (1 - g)).astype(np.float64)


def _ref_pqc_m(z, gamma):
    z = np.asarray(z, dtype=_LD)
    g = _LD(gamma)
    v = 4 * ((z + 1) ** (3 - g) - (z - 1) ** (3 - g)) \
        - (3 - g) * ((z + 1) ** (2 - g) + 6 * z ** (2 - g) + (z - 1) ** (2 - g))
    return v.astype(np.float64)


def _ref_pqc_q(z, gamma):
    z = np.asarray(z, dtype=_LD)
    g = _LD(gamma)
    v = -8 * ((z + 1) ** (3 - g) - z ** (3 - g)) \
        + 4 * (3 - g) * ((z + 1) ** (2 - g) + z ** (2 - g))
    return v.astype(np.float64)


def _ref_pqc_beta(z, gamma):
    z = np.asarray(z, dtype=_LD)
    g = _LD(gamma)
    v = 4 * (z ** (3 - g) - (z - 1) ** (3 - g)) \
        - (3 - g) * (3 * z ** (2 - g) + (z - 1) ** (2 - g)) \
        + (3 - g) * (2 - g) * z ** (1 - g)
    return v.astype(np.float64)


def _ref_pqc_p0(gamma):
    g = _LD(gamma)
    half, th = _LD(0.5), _LD(1.5)
    v = (2 - g) * (1 - g) * 2 * (th ** (3 - g) + half ** (3 - g)) \
        - 5 * (3 - g) * (1 - g) * (th ** (2 - g) - half ** (2 - g)) \
        + 3 * (3 - g) * (2 - g) * (th ** (1 - g) - half ** (1 - g))
    return float(v)


def _ref_plc(gam, N):
    i = np.arange(1, N, dtype=_LD)
    d = (2 - _LD(gam)) * (i ** (1 - _LD(gam)) + (N - i) ** (1 - _LD(gam)))
    return coeffs.PlcCoeffs(
        sigma=coeffs.sigma_scaling(1.0 / N, gam),
        g=_ref_plc_interior(np.arange(N - 1), gam),
        alpha=_ref_plc_boundary(np.arange(1, N), gam), d=d.astype(np.float64))


def _ref_pqc(gam, N):
    g = _LD(gam)
    m = np.empty(N - 1)
    m[0] = 2.0 * (1.0 + gam)
    p = np.empty(N - 1)
    p[0] = _ref_pqc_p0(gam)
    if N > 2:
        m[1:] = _ref_pqc_m(np.arange(1, N - 1), gam)
        p[1:] = _ref_pqc_m(np.arange(1, N - 1) + 0.5, gam)
    n = np.empty(N)
    n[0] = float((2 - g) * _LD(2) ** (g + 1))
    n[1:] = _ref_pqc_q(np.arange(1, N) - 0.5, gam)
    gammaB = np.empty(N)
    gammaB[0] = float((2 - g) * (1 - g) * _LD(2) ** (g - 1))
    gammaB[1:] = _ref_pqc_beta(np.arange(1, N) + 0.5, gam)
    half = np.arange(1, 2 * N, dtype=_LD) / 2
    dHalf = (3 - g) * (2 - g) * (half ** (1 - g) + (N - half) ** (1 - g))
    return coeffs.PqcCoeffs(
        eta=coeffs.eta_scaling(1.0 / N, gam), m=m, p=p,
        q=_ref_pqc_q(np.arange(N - 1), gam), n=n,
        beta=_ref_pqc_beta(np.arange(1, N), gam), gammaB=gammaB,
        dHalf=dHalf.astype(np.float64))


def _assert_fields_bitwise_equal(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype, field.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


BITWISE_GAMMAS = [0.0, 0.3, 0.5, 0.7, 0.95, 0.99]
BITWISE_SIZES = [2, 3, 4, 8, 64, 513, 2048, 4096, coeffs.MAX_CELLS]


@pytest.mark.parametrize("N", BITWISE_SIZES)
@pytest.mark.parametrize("gamma", BITWISE_GAMMAS)
def test_plc_tables_bitwise_equal_per_element_forms(gamma, N):
    _assert_fields_bitwise_equal(plc_tables(gamma, N), _ref_plc(gamma, N))


@pytest.mark.parametrize("N", BITWISE_SIZES)
@pytest.mark.parametrize("gamma", BITWISE_GAMMAS)
def test_pqc_tables_bitwise_equal_per_element_forms(gamma, N):
    _assert_fields_bitwise_equal(pqc_tables(gamma, N), _ref_pqc(gamma, N))


@pytest.mark.parametrize("gamma", BITWISE_GAMMAS + [0.42, 1e-9])
def test_single_closed_forms_bitwise_equal_per_element_forms(gamma):
    k = np.array([0, 1, 2, 7, 100])
    assert plc_tables(gamma, 102).g[k].tobytes() == \
        _ref_plc_interior(k, gamma).tobytes()
    assert pqc_tables(gamma, 2).p[0] == _ref_pqc_p0(gamma)


def test_one_evaluation_per_pqc_family(monkeypatch):
    # each family is read at integer and at half indices; both come from
    # one call over the doubled index
    calls = []
    for name in ("_pqc_m", "_pqc_q", "_pqc_beta"):
        def counted(*args, name=name, family=getattr(coeffs, name)):
            calls.append(name)
            return family(*args)
        monkeypatch.setattr(coeffs, name, counted)
    coeffs.pqc_weights(KernelParams(0.7), UniformGrid(0.0, 1.0, 64))
    assert sorted(calls) == ["_pqc_beta", "_pqc_m", "_pqc_q"]
