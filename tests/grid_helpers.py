"""Whole-grid helpers the tests use; the package itself only streams."""

import math

import numpy as np

from zel.prime_poly import iter_poly_blocks


def t_array(grid, j0=0, j1=None):
    """t_j for j in [j0, j1) as one vector, t0 + j * delta."""
    j1 = grid.count if j1 is None else j1
    return grid.t0 + np.arange(j0, j1, dtype=float) * grid.delta


def poly_eval_batch(spec, table, grid):
    """P(t_j) for the whole grid (float64, length grid.count)."""
    out = np.empty(grid.count)
    ct, st = math.cos(spec.theta), math.sin(spec.theta)
    for j0, z in iter_poly_blocks(spec, table, grid):
        out[j0:j0 + z.size] = ct * z.real + st * z.imag
    return out
