"""Uniform grids: endpoint validation."""

import pytest

from nlcolloc.grid import UniformGrid


@pytest.mark.parametrize("a, b", [(0.0, float("inf")), (float("-inf"), 0.0),
                                  (float("nan"), 1.0), (1.0, 0.0)])
def test_bad_endpoints_rejected(a, b):
    with pytest.raises(ValueError, match="need"):
        UniformGrid(a, b, 4)
