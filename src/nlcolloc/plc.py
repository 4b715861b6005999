"""Piecewise linear product integration and the resulting collocation system."""

import sys
from functools import partial

import numpy as np

from . import coeffs
from .collocation import SHARED
from .solver import ToeplitzStructure


# What PLC defines of the scheme interface (see collocation); the weight
# tables are read only by structure and boundary.
weights = coeffs.plc_weights

# Degree of the interpolant: cells of DEGREE + 1 lattice points, h/DEGREE apart.
DEGREE = 1


def order(n: int) -> np.ndarray:
    """Row order of the n interior lattice points x_1 .. x_{N-1}: increasing."""
    return np.arange(n)


def structure(c: coeffs.PlcCoeffs) -> ToeplitzStructure:
    """sigma * (D - G): G the symmetric Toeplitz matrix of g, D positive diagonal."""
    return ToeplitzStructure(scale=c.sigma, diag=c.d, blocks=(((c.g, c.g),),))


def boundary(c: coeffs.PlcCoeffs) -> tuple:
    """Weights of u(a) and of u(b) in each row, in row order."""
    return c.alpha, c.alpha[::-1]


lattice, nodes, rule, interpolant_integral, truncation, assemble = (
    partial(f, sys.modules[__name__]) for f in SHARED)
truncation_error, assemble_plc_system = truncation, assemble
