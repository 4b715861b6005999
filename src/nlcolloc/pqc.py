"""Piecewise quadratic product integration and its collocation system.

Rows and unknowns follow the paper ordering: the integer nodes x_1 ..
x_{N-1}, then the half nodes x_{1/2} .. x_{N-1/2}.
"""

import sys
from functools import partial

import numpy as np

from . import coeffs
from .collocation import SHARED
from .solver import ToeplitzStructure


# What PQC defines of the scheme interface (see collocation); the weight
# tables are read only by structure and boundary.
weights = coeffs.pqc_weights

# Degree of the interpolant: cells of DEGREE + 1 lattice points, h/DEGREE apart.
DEGREE = 2


def order(n: int) -> np.ndarray:
    """Row order of the n = 2N - 1 interior lattice points x_{1/2} ..
    x_{N-1/2}, by their positions in increasing order: the integer nodes sit
    at odd positions, the half nodes at even ones."""
    return np.r_[1:n:2, 0:n:2]


def structure(c: coeffs.PqcCoeffs) -> ToeplitzStructure:
    """eta * ([D1 0; 0 D2] - [M Q; P N]) in the paper ordering.

    Each block depends on its row and column only through their offset, so
    it is Toeplitz, and its first column and first row are the tables
    themselves.  The half-step offsets -1/2 and +1/2 share a weight, so Q's
    first row and P's first column start with q_0 and p_0 twice.
    """
    m, p, q, n = c.m, c.p, c.q, c.n
    blocks = (((m, m), (q, np.r_[q[0], q])),
              ((np.r_[p[0], p], p), (n, n)))
    return ToeplitzStructure(scale=c.eta, blocks=blocks,
                             diag=c.dHalf[order(len(c.dHalf))])


def boundary(c: coeffs.PqcCoeffs) -> tuple:
    """Weights of u(a) and of u(b) in each row, in row order."""
    return np.r_[c.beta, c.gammaB], np.r_[c.beta[::-1], c.gammaB[::-1]]


lattice, nodes, rule, interpolant_integral, truncation, assemble = (
    partial(f, sys.modules[__name__]) for f in SHARED)
pqc_truncation_at, assemble_pqc_system = truncation, assemble
