"""Uniform grids: endpoint and cell-count validation, nested lattices."""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from nlcolloc.grid import UniformGrid


@pytest.mark.parametrize("a, b", [(0.0, float("inf")), (float("-inf"), 0.0),
                                  (float("nan"), 1.0), (1.0, 0.0)])
def test_bad_endpoints_rejected(a, b):
    with pytest.raises(ValueError, match="need"):
        UniformGrid(a, b, 4)


def test_cell_count_must_be_an_integer():
    # with N = 4.5 the nodes ran past b and the weights raised IndexError
    with pytest.raises(ValueError, match="integer N"):
        UniformGrid(0.0, 1.0, 4.5)
    assert UniformGrid(0.0, 1.0, np.int64(8)).lattice(1)[-1] == 1.0


@pytest.mark.parametrize("a, b, N", [
    (-1e308, 1e308, 4),                   # b - a overflows: h = inf
    (1.0, 1.0000000000000004, 8),         # nodes h/2 apart round together
    (1.0, 1.000000000001, 8192),          # distinct at N = 2, not at 8192
])
def test_unresolvable_nodes_rejected(a, b, N):
    with pytest.raises(ValueError, match="need"):
        UniformGrid(a, b, N)


def test_fine_interval_accepted_at_coarse_levels():
    assert len(set(UniformGrid(1.0, 1.000000000001, 2).lattice(2))) == 5


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 3.0), (0.1, 0.7),
                                  (-3.7, 1e-3)])
@pytest.mark.parametrize("N", [2, 3, 7, 64, 513, 4096])
def test_lattice_interleaves_integer_and_half_nodes(a, b, N):
    # (2j+1)/(2N) and (j+1/2)/N are one rational, so they round alike
    grid = UniformGrid(a, b, N)
    integer = a + (np.arange(N + 1) / N) * (b - a)
    assert grid.lattice(1).tobytes() == integer.tobytes()
    fine = grid.lattice(2)
    assert fine[0::2].tobytes() == integer.tobytes()
    half = a + ((np.arange(N) + 0.5) / N) * (b - a)
    assert fine[1::2].tobytes() == half.tobytes()


finite = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
powers_of_two = st.sampled_from([2 ** k for k in range(1, 10)])


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(st.just(0.0), finite), b=finite,
       N=st.one_of(st.integers(2, 600), powers_of_two),
       s=st.integers(2, 8), p=st.sampled_from([1, 2]))
def test_lattices_nest_bit_for_bit(a, b, N, s, p):
    assume(a < b)
    try:
        coarse, fine = UniformGrid(a, b, N), UniformGrid(a, b, s * N)
    except ValueError:           # nodes h/2 apart round together
        reject()
    points = coarse.lattice(p)
    # a coarser level's points are every s-th point of the finer level
    assert points.tobytes() == fine.lattice(p)[::s].tobytes()
    assert coarse.lattice(2)[::2].tobytes() == coarse.lattice(1).tobytes()
    if (p * N) & (p * N - 1) == 0 and coarse.h / p >= np.finfo(float).tiny:
        # j/(pN) is exact, and so is h/p unless it is subnormal: the points
        # are a + j (h/p), as on every ladder of the tables
        stepped = a + np.arange(p * N + 1) * (coarse.h / p)
        assert points.tobytes() == stepped.tobytes()
    if a == 0.0:
        assert points[-1] == b
