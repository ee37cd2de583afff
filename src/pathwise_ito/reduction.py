"""Fixed-order evaluation and summation helpers.

Per-level sums and row dot products add their terms in a fixed order, left
to right, so every sum is bit-identical from run to run and CPU to CPU.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def map_chunked(fill: Callable[[np.ndarray], None], out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with one call ``fill(out)`` and return it.

    The named stage around the per-cell fill loop of a slot without a state
    form (the ``functionals`` module docstring says which); benchmark
    traces time it by this name.
    """
    fill(out)
    return out


def ordered_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum over the last axis of u[..., k] * v[..., k], left to right in separate
    multiply and add ufuncs: no BLAS kernel or FMA sets the order or the bits."""
    acc = u[..., 0] * v[..., 0]
    for k in range(1, u.shape[-1]):
        acc = acc + u[..., k] * v[..., k]
    return acc


def running_sum(terms: np.ndarray) -> np.ndarray:
    """Left-to-right cumulative sum along the last axis, with a leading zero.

    Sequential order is part of the contract: repeated runs give the same
    bits, each row of a 2-D input sums exactly like that row on its own,
    and a partial sum always equals the reported value at that point.
    """
    terms = np.asarray(terms, dtype=np.float64)
    out = np.empty(terms.shape[:-1] + (terms.shape[-1] + 1,), dtype=np.float64)
    out[..., 0] = 0.0
    np.cumsum(terms, axis=-1, out=out[..., 1:])
    return out
