"""Kernel parameters and uniform partitions of the computational interval."""

import math
import numbers
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
    """Partition of [a, b] into N equal cells; lattice(p) lists its nodes."""

    a: float
    b: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"need finite a, b, got a={self.a}, b={self.b}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if not (isinstance(self.N, numbers.Integral) and self.N >= 2):
            raise ValueError(f"need an integer N >= 2, got N={self.N}")
        # the nodes at step h/2 are the finest lattice any scheme uses
        if not (math.isfinite(self.h) and np.all(np.diff(self.lattice(2)) > 0)):
            raise ValueError(
                f"need a finite h and distinct nodes at step h/2, got "
                f"h={self.h} from a={self.a}, b={self.b}, N={self.N}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.N

    def lattice(self, p: int) -> np.ndarray:
        """The pN + 1 points a + (j/(pN)) (b - a), j = 0..pN: the integer nodes
        for p = 1, integer and half nodes interleaved for p = 2.  j/(pN) and
        sj/(spN) round alike, so these are every s-th point on sN cells."""
        n = p * self.N
        return self.a + (np.arange(n + 1) / n) * (self.b - self.a)
