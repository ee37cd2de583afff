"""Quadratic variation and covariation along a refining partition sequence.

The level-n quadratic variation of a scalar path is the sum of squared
increments over the level-n partition,

    [x]_n(t) = sum_{s in T_n, s <= t} (x(s') - x(s))^2,

clipped in the final cell so that t -> [x]_n(t) is continuous between
partition points.  Whether the level sums settle down as n grows depends on
the path AND on the partition sequence; convergence is therefore always
reported as a diagnostic, never assumed, and nothing below ever raises just
because a path fails to converge.

Every entry path follows one rule.  At grid time u in the level cell that
starts at s,

    [x_i, x_j]_n(u) = L_ij(s) + (x_i(u) - x_i(s)) (x_j(u) - x_j(s)),

where L is the running sum, from +0.0, of the products of the level
increments.  A diagonal is the scalar sum above, and over a base cell
[u, u'] an entry grows by the rank-two v_i v_j - w_i w_j, v = x(u') - x(s)
and w = x(u) - x(s) (:func:`_anchored_steps`); the Ito compensator, the QV
identity for Y and :func:`qv_measures` use these increments.  Every product
a_i a_j, i <= j, is written by :func:`_pair_products` into one packed (k, N)
layout, k = d(d + 1)/2: the upper triangle row by row (``np.triu_indices``
order), which is the order of the ``qv`` table's columns.  A
:class:`QVMatrix` keeps this layout and builds its (N, d, d) ``matrices``
only when they are read.

A level allocates no (k, N) temporaries beyond its output.  The anchors
0, s, 2s, ... of stride s are the strided view ``cols[:, 0:N-1:s]``, not a
gather; the steps from them are written into the output's first d rows and
their products into the whole output.  The level products are cumulated in
place in one (k, cells + 1) array and added in one broadcast over the
(k, cells, s) view; the partial last cell and the endpoint are two slices.
:func:`qv_converged` alternates two (k, N) buffers: the gap between two
levels is computed in the older one, which then receives the next level.

All reductions run in a fixed order (see reduction.py), so repeated runs
produce bit-identical results.  A QV whose sums overflow is never
reported: qv_scalar, qv_matrix and qv_converged raise DomainError naming
the entry, the level and the grid time.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .paths import (
    PartitionSequence,
    SampledPath,
    _grid_position,
    _require_finite,
    _require_same_grid,
)

if TYPE_CHECKING:
    from .stieltjes import StieltjesMeasure


def _pair_products(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a_i * a_j for i <= j into the packed rows of ``out``: a is (d, ...), out (k, ...).

    Matrix rows d - 1 .. 1 are written first, all into packed rows >= d, then row 0's
    pairs into packed rows 1 .. d - 1 and the (0, 0) square last, so ``a`` may be
    ``out[:d]``.
    """
    d = a.shape[0]
    for i in range(d - 1, 0, -1):
        start = i * d - i * (i - 1) // 2  # row i's block: the pairs (i, j >= i)
        np.multiply(a[i], a[i:], out=out[start : start + d - i])
    np.multiply(a[0], a[1:], out=out[1:d])
    np.multiply(a[0], a[0], out=out[0])
    return out


def _entry_rows(d: int) -> np.ndarray:
    """(d, d) map from a matrix entry to its row in the packed entry layout."""
    i, j = np.triu_indices(d)
    rows = np.empty((d, d), dtype=np.intp)
    rows[i, j] = rows[j, i] = np.arange(i.shape[0])
    return rows


def _entry_names(d: int) -> list[str]:
    """qv_ij for each packed row, in row order."""
    return [f"qv_{i + 1}{j + 1}" for i, j in zip(*np.triu_indices(d))]


def _unpack(entries: np.ndarray, d: int) -> np.ndarray:
    """Packed (k, M) entries as (M, d, d) symmetric matrices."""
    out = np.empty((entries.shape[1], d, d))
    for i, rows in enumerate(_entry_rows(d)):  # one matrix row at a time
        out[:, i] = entries[rows].T
    return out


def _entry_paths(
    cols: np.ndarray, partition: PartitionSequence, level: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Packed (k, N) entry paths [x_i, x_j], i <= j, of the (d, N) columns ``cols``, into
    ``out`` when one is given.

    Overflow yields non-finite entries without a warning; callers that
    report entries check them.
    """
    d, n = cols.shape
    k = d * (d + 1) // 2
    s = partition.stride(level)
    q = (n - 1) // s  # full cells; a partial last cell starts at q * s
    anchors = cols[:, 0 : n - 1 : s]
    cells = anchors.shape[1]
    paths = np.empty((k, n)) if out is None else out
    full = paths[:, : q * s].reshape(k, q, s)
    steps = paths[:d]  # each grid time's step from its cell's anchor
    lvl = np.empty((k, cells + 1))  # 0, then the level increments' products
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(anchors[:, 1:], anchors[:, :-1], out=lvl[:d, 1:cells])
        np.subtract(cols[:, n - 1], anchors[:, -1], out=lvl[:d, cells])
        _pair_products(lvl[:d, 1:], lvl[:, 1:])
        lvl[:, 0] = 0.0
        np.cumsum(lvl, axis=1, out=lvl)
        np.subtract(cols[:, : q * s].reshape(d, q, s), anchors[:, :q, None], out=full[:d])
        np.subtract(cols[:, q * s : n - 1], cols[:, q * s : q * s + 1], out=steps[:, q * s : n - 1])
        np.subtract(cols[:, n - 1], cols[:, n - 1], out=steps[:, n - 1])  # anchors itself
        _pair_products(steps, paths)
        full += lvl[:, :q, None]
        paths[:, q * s : n - 1] += lvl[:, q : q + 1]
        paths[:, n - 1] += lvl[:, cells]
    return paths


def _anchored_steps(x: SampledPath, partition: PartitionSequence, level: int):
    """(v, w), each (N-1, d): v = x(u') - x(s), w = x(u) - x(s) for every base cell [u, u'],
    j-th cell's anchor s = (j // stride) * stride: a cell that ends at a partition point keeps
    the old anchor, and each cell's w is the v of the cell before it."""
    _require_same_grid(x, partition)
    s = partition.stride(level)
    anchors = x.values[np.arange(x.n_points - 1) // s * s]
    with np.errstate(over="ignore", invalid="ignore"):  # callers report non-finite terms
        v = x.values[1:] - anchors
        w = np.subtract(x.values[:-1], anchors, out=anchors)
    return v, w


def qv_scalar(
    x: SampledPath,
    partition: PartitionSequence,
    level: int,
    t: float | None = None,
    component: int = 0,
) -> float:
    """Level-n quadratic variation of one component up to grid time t."""
    _require_same_grid(x, partition)
    if not 0 <= component < x.d:
        raise ValueError(f"component must lie in [0, {x.d - 1}]")
    path = _entry_paths(x.values[:, component][None, :], partition, level)[0]
    _require_finite(f"qv_{component + 1}{component + 1}", path, x.times, f"at level {level}")
    if t is None:
        return float(path[-1])
    return float(path[x.grid_index(t)])


@dataclass(frozen=True, eq=False)
class QVMatrix:
    """Symmetric QV/covariation matrices along the grid at one level.

    ``entries`` holds the packed (k, N) entry paths; ``matrices`` (N, d, d)
    is unpacked from them on first read, cached and read-only.  Entry paths
    are continuous between partition points thanks to final-cell clipping,
    start at zero, and the diagonals are nondecreasing along partition
    points (between them the clipped term can dip while the path wanders
    back toward its anchor).
    When produced by :func:`qv_converged` the per-level diagnostics are
    attached: ``level_diffs`` between consecutive levels and ``last_gap``,
    the per-grid-time gap between the last two levels.
    """

    times: np.ndarray
    entries: np.ndarray
    level: int
    levels: tuple[int, ...] | None = None
    level_diffs: np.ndarray | None = None
    last_gap: np.ndarray | None = None
    converged: bool | None = None
    tol: float | None = None

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        matrices = _unpack(self.entries, self.d)
        matrices.flags.writeable = False
        return matrices

    @property
    def d(self) -> int:
        return int((2 * self.entries.shape[0]) ** 0.5)  # k = d(d + 1)/2

    def entry_path(self, i: int, j: int) -> np.ndarray:
        return self.entries[_entry_rows(self.d)[i, j]]

    def final(self) -> np.ndarray:
        return self.entries[_entry_rows(self.d), -1]

    def value(self, t: float) -> np.ndarray:
        """The matrix at grid time t, or at the last grid time below t."""
        return self.matrices[_grid_position(self.times, float(t))[0]]


def qv_matrix(
    x: SampledPath, partition: PartitionSequence, level: int
) -> "QVMatrix":
    """Full matrix [x_i, x_j]_n on the grid, every entry from its cell's anchor.

    A non-finite entry (the sums overflowed) raises DomainError naming the
    entries, the level and the first grid time.
    """
    _require_same_grid(x, partition)
    entries = _entry_paths(np.ascontiguousarray(x.values.T), partition, level)
    _require_finite(_entry_names(x.d), entries, x.times, f"at level {level}")
    return QVMatrix(times=x.times, entries=entries, level=int(level))


def qv_measures(x: SampledPath, partition: PartitionSequence, level: int) -> StieltjesMeasure:
    """The matrix-valued measure d[x]_n: row i * d + j holds d[x_i, x_j]_n, over each
    base cell the rank-two v_i v_j - w_i w_j of :func:`_anchored_steps`."""
    from .stieltjes import StieltjesMeasure

    v, w = _anchored_steps(x, partition, level)
    inc = np.empty((x.d, x.d, x.n_points - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        packed = _pair_products(v.T, np.empty((x.d * (x.d + 1) // 2, x.n_points - 1)))
        packed -= _pair_products(w.T, inc.reshape(x.d * x.d, -1)[: packed.shape[0]])  # scratch
    for i, rows in enumerate(_entry_rows(x.d)):  # one matrix row at a time
        inc[i] = packed[rows]
    return StieltjesMeasure(x.times, inc.reshape(x.d * x.d, -1))


def qv_converged(
    x: SampledPath,
    partition: PartitionSequence,
    tol: float = 1e-2,
    levels: tuple[int, ...] | None = None,
) -> QVMatrix:
    """Finest-level QV matrix with cross-level convergence diagnostics.

    Runs the matrix at every requested level (default: all of them; at
    least two, strictly increasing), from one (d, N) copy of the columns, and
    records the max-over-time, max-over-entry difference between consecutive
    levels, plus, per grid time, the max-over-entry difference between the
    last two (``last_gap``).  ``converged`` holds iff the last recorded
    difference is below ``tol`` (an absolute threshold).  A non-finite entry
    or difference raises DomainError.
    """
    levels = partition._level_list(levels)
    if len(levels) < 2:
        raise ValueError("convergence diagnostics need at least two levels")
    _require_same_grid(x, partition)
    cols = np.ascontiguousarray(x.values.T)
    names = _entry_names(x.d)
    diffs = []
    prev = spare = gap = None
    for prev_n, n in zip((None,) + levels, levels):
        entries = _entry_paths(cols, partition, n, out=spare)
        _require_finite(names, entries, x.times, f"at level {n}")
        if prev is not None:  # the gap is computed in the older buffer
            with np.errstate(over="ignore", invalid="ignore"):
                gap = np.max(np.abs(np.subtract(entries, prev, out=prev), out=prev), axis=0)
            _require_finite("level_diff", gap, x.times, f"between levels {prev_n} and {n}")
            diffs.append(float(np.max(gap)))
        spare, prev = prev, entries  # the two (k, N) buffers alternate
    level_diffs = np.asarray(diffs)
    return QVMatrix(
        times=x.times,
        entries=prev,
        level=levels[-1],
        levels=levels,
        level_diffs=level_diffs,
        last_gap=gap,
        converged=bool(level_diffs[-1] < tol),
        tol=float(tol),
    )


__all__ = [
    "QVMatrix",
    "qv_scalar",
    "qv_matrix",
    "qv_measures",
    "qv_converged",
]
