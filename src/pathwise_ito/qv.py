"""Quadratic variation and covariation along a refining partition sequence.

The level-n quadratic variation of a scalar path is the sum of squared
increments over the level-n partition,

    [x]_n(t) = sum_{s in T_n, s <= t} (x(s') - x(s))^2,

clipped in the final cell so that t -> [x]_n(t) is continuous between
partition points.  Whether the level sums settle down as n grows depends on
the path AND on the partition sequence; convergence is therefore always
reported as a diagnostic, never assumed, and nothing below ever raises just
because a path fails to converge.

The entry paths are polarized: off-diagonal entries are never formed from
cross products but defined by

    [x_i, x_j] = ([x_i + x_j] - [x_i] - [x_j]) / 2,

which keeps every matrix exactly symmetric and consistent with the scalar
sums by construction.  The increments are rank-two: over a base cell
[u, u'] in the level cell that starts at s, [x]_n grows by v v^T - w w^T,
v = x(u') - x(s) and w = x(u) - x(s) (:func:`_anchored_steps`); the Ito
compensator, the QV identity for Y and :func:`qv_measures` use them.
Polarization is batched: the d columns x_i and the d(d-1)/2 columns
x_i + x_j sit in one (columns, N) array and every level
runs on all of them in one set of array operations.  Each column keeps the
one-column arithmetic and summation order, so the batch gives the same bits
as running the columns one by one.  A :class:`QVMatrix` keeps this packed
layout and builds its (N, d, d) ``matrices`` only when they are read.

A level allocates no (k, N) temporaries beyond its output.  The anchors
0, s, 2s, ... of stride s are the strided view ``cols[:, 0:N-1:s]``, not a
gather; the full cells are the grid reshaped to (k, cells, s) and broadcast
against them, and the partial last cell and the endpoint are two slices.
Nothing is repeated per grid point.  The squared level increments are
cumulated in place in one (k, cells + 1) array, and :func:`qv_converged`
alternates two (k, N) buffers: the gap between two levels is computed in
the older one, which then receives the next level.

All reductions run in a fixed order (see reduction.py), so repeated runs
produce bit-identical results.  A QV whose sums overflow is never
reported: qv_scalar, qv_matrix and qv_converged raise DomainError naming
the entry, the level and the grid time.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .paths import DomainError, PartitionSequence, SampledPath, _grid_position, _require_same_grid
from .stieltjes import StieltjesMeasure


def _pair_blocks(d: int):
    """(i, rows) for each i < d - 1: the packed rows of the pairs (i, j > i).

    Pairs are packed after the d diagonal rows in ``np.triu_indices``
    order, so the pairs of one i fill a contiguous block whose j run
    i + 1 .. d - 1.
    """
    start = d
    for i in range(d - 1):
        yield i, slice(start, start + d - 1 - i)
        start += d - 1 - i


def _polarization_columns(values: np.ndarray) -> np.ndarray:
    """The scalar columns polarization needs, as one C-contiguous (k, N) array.

    Rows 0..d-1 hold x_i and the remaining d(d-1)/2 rows hold x_i + x_j for
    i < j in ``np.triu_indices`` order, so k = d + d(d-1)/2.
    """
    n, d = values.shape
    cols = np.empty((d + d * (d - 1) // 2, n), dtype=np.float64)
    cols[:d] = values.T
    with np.errstate(over="ignore"):  # callers report non-finite entries
        for i, rows in _pair_blocks(d):
            np.add(cols[i], cols[i + 1 : d], out=cols[rows])
    return cols


def _entry_rows(d: int) -> np.ndarray:
    """(d, d) map from a matrix entry to its row in the packed entry layout."""
    rows = np.diag(np.arange(d))
    for i, block in _pair_blocks(d):
        rows[i, i + 1 :] = rows[i + 1 :, i] = np.arange(block.start, block.stop)
    return rows


def _unpack(entries: np.ndarray, d: int) -> np.ndarray:
    """Packed (k, M) entries as (M, d, d) symmetric matrices."""
    out = np.empty((entries.shape[1], d, d))
    for i, rows in enumerate(_entry_rows(d)):  # one matrix row at a time
        out[:, i] = entries[rows].T
    return out


def _qv_matrix_arrays(
    cols: np.ndarray,
    d: int,
    partition: PartitionSequence,
    level: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Packed (k, N) entry paths: [x_i] for i < d, then [x_i, x_j] for i < j.

    Each row of ``cols`` (:func:`_polarization_columns`) gets the one-component
    computation, then the pair rows are polarized; the paths go into ``out``,
    a (k, N) float64 array, when one is given.  Overflow yields non-finite
    entries without a warning; callers that report entries check them.
    """
    k, n = cols.shape
    s = partition.stride(level)
    q = (n - 1) // s  # full cells; a partial last cell starts at q * s
    anchors = cols[:, 0 : n - 1 : s]
    cells = anchors.shape[1]
    sq = np.empty((k, n)) if out is None else out
    full = sq[:, : q * s].reshape(k, q, s)
    lvl = np.empty((k, cells + 1))  # 0, then the squared level increments
    with np.errstate(over="ignore", invalid="ignore"):
        lvl[:, 0] = 0.0
        np.subtract(anchors[:, 1:], anchors[:, :-1], out=lvl[:, 1:cells])
        np.subtract(cols[:, n - 1], anchors[:, -1], out=lvl[:, cells])
        lvl *= lvl
        # squared distance to the cell's anchor; the endpoint anchors itself
        np.subtract(cols[:, : q * s].reshape(k, q, s), anchors[:, :q, None], out=full)
        np.subtract(cols[:, q * s : n - 1], cols[:, q * s : q * s + 1], out=sq[:, q * s : n - 1])
        np.subtract(cols[:, n - 1], cols[:, n - 1], out=sq[:, n - 1])
        sq *= sq
        np.cumsum(lvl, axis=1, out=lvl)
        full += lvl[:, :q, None]
        sq[:, q * s : n - 1] += lvl[:, q : q + 1]
        sq[:, n - 1] += lvl[:, cells]
        for i, rows in _pair_blocks(d):  # [x_i + x_j] - [x_i] - [x_j], then halved
            off = sq[rows]
            off -= sq[i]
            off -= sq[i + 1 : d]
        sq[d:] *= 0.5
    return sq


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


def _table_pairs(d: int) -> list[tuple[int, int]]:
    """Upper-triangle entries (i <= j) in table order: row by row."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def _require_finite_term(name: str, path: np.ndarray, times: np.ndarray, level: int) -> None:
    """DomainError naming the first grid time at which a term's running path is non-finite."""
    bad = np.flatnonzero(~np.isfinite(path))
    if bad.shape[0]:
        raise DomainError(f"non-finite {name} at level {level}, grid time {float(times[bad[0]])}")


def _require_finite(entries: np.ndarray, d: int, level: int, times: np.ndarray) -> None:
    """DomainError naming the non-finite entries at their first grid time."""
    ok = np.isfinite(entries)
    if ok.all():
        return
    k = int(np.argmin(ok.all(axis=0)))  # first grid time with a bad entry
    rows = _entry_rows(d)
    names = ", ".join(
        f"qv_{i + 1}{j + 1}" for i, j in _table_pairs(d) if not ok[rows[i, j], k]
    )
    raise DomainError(f"non-finite {names} at level {level}, grid time {float(times[k])}")


def _level_gap(
    new: np.ndarray, old: np.ndarray, axis, levels: tuple[int, int], times: np.ndarray
) -> np.ndarray:
    """Per grid time, the largest |new - old| over the entry axes.

    ``old`` is overwritten with |new - old|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(new, old, out=old)
        gap = np.max(np.abs(old, out=old), axis=axis)
    ok = np.isfinite(gap)
    if not ok.all():
        k = int(np.argmin(ok))
        raise DomainError(
            f"non-finite level_diff between levels {levels[0]} and {levels[1]}, "
            f"grid time {float(times[k])}"
        )
    return gap


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
    path = _qv_matrix_arrays(x.values[:, component][None, :], 1, partition, level)[0]
    _require_finite_term(f"qv_{component + 1}{component + 1}", path, x.times, level)
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
    """Full matrix [x_i, x_j]_n on the grid; off-diagonals by polarization.

    A non-finite entry (the sums overflowed) raises DomainError naming the
    entries, the level and the first grid time.
    """
    _require_same_grid(x, partition)
    entries = _qv_matrix_arrays(_polarization_columns(x.values), x.d, partition, level)
    _require_finite(entries, x.d, level, x.times)
    return QVMatrix(times=x.times, entries=entries, level=int(level))


def qv_measures(x: SampledPath, partition: PartitionSequence, level: int) -> StieltjesMeasure:
    """The matrix-valued measure d[x]_n: row i * d + j holds d[x_i, x_j]_n, over each
    base cell the rank-two v_i v_j - w_i w_j of :func:`_anchored_steps`."""
    v, w = _anchored_steps(x, partition, level)
    inc = np.empty((x.d, x.d, x.n_points - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in np.ndindex(x.d, x.d):
            np.subtract(v[:, i] * v[:, j], w[:, i] * w[:, j], out=inc[i, j])
    return StieltjesMeasure(x.times, inc.reshape(x.d * x.d, -1))


def qv_converged(
    x: SampledPath,
    partition: PartitionSequence,
    tol: float = 1e-2,
    levels: tuple[int, ...] | None = None,
) -> QVMatrix:
    """Finest-level QV matrix with cross-level convergence diagnostics.

    Runs the matrix at every requested level (default: all of them; at
    least two, strictly increasing), from one set of polarization columns, and
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
    cols = _polarization_columns(x.values)
    diffs = []
    prev = spare = gap = None
    for prev_n, n in zip((None,) + levels, levels):
        entries = _qv_matrix_arrays(cols, x.d, partition, n, out=spare)
        _require_finite(entries, x.d, n, x.times)
        if prev is not None:
            gap = _level_gap(entries, prev, 0, (prev_n, n), x.times)
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
