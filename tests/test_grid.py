"""Uniform grids: endpoint and cell-count validation."""

import numpy as np
import pytest

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
    grid = UniformGrid(a, b, N)
    integer = a + np.arange(N + 1) * grid.h
    assert grid.lattice(1).tobytes() == integer.tobytes()
    fine = grid.lattice(2)
    assert fine[0::2].tobytes() == integer.tobytes()
    half = a + (np.arange(N) + 0.5) * grid.h
    assert fine[1::2].tobytes() == half.tobytes()
