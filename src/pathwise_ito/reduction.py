"""Fixed-order evaluation and summation helpers.

Per-level sums are assembled from per-cell terms filled in grid order and
reduced left to right, so every sum is bit-identical from run to run.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def map_chunked(fill: Callable[[int, int, np.ndarray], None], out: np.ndarray) -> np.ndarray:
    """Fill ``out`` along its first axis with one call ``fill(0, n, out)``.

    The named stage around the per-cell fill loop that general functionals
    and finite-difference slots need (and any product, composition or
    recentering that has such a part); benchmark traces time it by this
    name.  State-only integrands, combinators of them included, skip it.
    """
    fill(0, out.shape[0], out)
    return out


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
