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
    assert UniformGrid(0.0, 1.0, np.int64(8)).integer_nodes()[-1] == 1.0
