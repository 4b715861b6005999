"""Kernel parameters and uniform partitions of the computational interval."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelParams:
    """Exponent of the weakly singular kernel |x - y|^(-gamma).

    gamma = 0 is admitted (constant kernel); gamma = 1 is not integrable
    against the product-integration weights and is rejected.
    """

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")


@dataclass(frozen=True)
class UniformGrid:
    """Partition of [a, b] into N equal cells with integer and half nodes."""

    a: float
    b: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"need finite a, b, got a={self.a}, b={self.b}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.N < 2:
            raise ValueError(f"need N >= 2, got N={self.N}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.N

    def node(self, i: float) -> float:
        """Node x_i; i may be half-integer."""
        return self.a + i * self.h

    def integer_nodes(self) -> np.ndarray:
        """x_0, x_1, ..., x_N."""
        return self.a + np.arange(self.N + 1) * self.h

    def half_nodes(self) -> np.ndarray:
        """x_{1/2}, x_{3/2}, ..., x_{N-1/2}."""
        return self.a + (np.arange(self.N) + 0.5) * self.h

    def interior_nodes(self) -> np.ndarray:
        """x_1, ..., x_{N-1} (piecewise linear collocation points)."""
        return self.a + np.arange(1, self.N) * self.h

    def collocation_nodes_pqc(self) -> np.ndarray:
        """All 2N-1 interior collocation points x_{i/2}, i = 1..2N-1, in
        increasing order."""
        return self.a + np.arange(1, 2 * self.N) * (self.h / 2.0)
