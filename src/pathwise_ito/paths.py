"""Sampled paths on a finite time grid and refining partition sequences.

Everything downstream works from one data model: a strictly increasing grid
``0 = t_0 < t_1 < ... < t_{N-1} = T`` carrying vector samples.  A path is
read either as a cadlag step function (the value is held from the left grid
point, ``STEP``) or as the continuous piecewise-linear interpolant of its
samples (``LINEAR``).  Containers are immutable; operations return new
objects and never touch shared state.

Every time lookup follows one rule (``_grid_position``): a time within
1e-12 * max(1, T) of a grid time *is* that grid time, and any other time in
[0, T] lies in the cell of the last grid time below it.

The partition machinery thins the base grid dyadically: level ``n`` of an
``L``-level sequence keeps every ``2**(L-n)``-th grid point plus the final
one, so levels are nested and the finest level is the grid itself.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._g17 import format_rows

STEP = "step"
LINEAR = "linear"
_INTERPOLATIONS = (STEP, LINEAR)

_GRID_RTOL = 1e-12


class DomainError(ValueError):
    """A path value lies outside its configured open domain."""


def _require_finite(
    names: str | Sequence[str], values: np.ndarray, times: np.ndarray, where: str
) -> None:
    """DomainError naming, at the first grid time with a non-finite value, every term
    non-finite there: ``values`` is one (N,) path named ``names``, or (k, N) paths named
    by the k ``names``; ``where`` is the caller's "at level n" or "between levels a and b"."""
    ok = np.isfinite(values)
    if ok.all():
        return
    ok = ok.reshape(-1, ok.shape[-1])
    k = int(np.argmin(ok.all(axis=0)))
    names = [names] if isinstance(names, str) else names
    bad = ", ".join(name for name, good in zip(names, ok[:, k]) if not good)
    raise DomainError(f"non-finite {bad} {where}, grid time {float(times[k])}")


class GridError(ValueError):
    """Incompatible grids, or a time that is not a grid point."""


class PathFormatError(ValueError):
    """Malformed path CSV input."""


class HypothesisError(RuntimeError):
    """A numerically checked hypothesis of an identity failed its gate."""

    def __init__(self, message: str, residual: float, tol: float) -> None:
        super().__init__(message)
        self.residual = residual
        self.tol = tol


@dataclass(frozen=True)
class Box:
    """Axis-aligned open box used as a path domain.

    Bounds are strict: a value sitting exactly on a face is outside.  Use
    ``-inf`` / ``inf`` for unbounded axes.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def contains(self, values: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        return np.all((v > lo) & (v < hi), axis=-1)


def positive_orthant(d: int = 1) -> Box:
    return Box(lower=(0.0,) * d, upper=(np.inf,) * d)


def _require_box(domain: Box | None) -> Box | None:
    if domain is not None and not isinstance(domain, Box):
        raise TypeError(f"a domain must be a Box or None, got {type(domain).__name__}")
    return domain


def _check_domain(values: np.ndarray, domain: Box | None) -> None:
    if domain is None:
        return
    ok = np.atleast_1d(domain.contains(values))
    if not bool(np.all(ok)):
        idx = int(np.argmin(ok))
        raise DomainError(f"path value at grid index {idx} lies outside the domain")


def _grid_position(times: np.ndarray, t: float) -> tuple[int, bool]:
    """(i, on_grid) for t, from one search: the rule behind every time lookup.

    A t within 1e-12 * max(1, T) of a grid time is that grid time (the
    lowest such i, on_grid True); any other t in [0, T] gives the last grid
    time below it (on_grid False).  Outside [0, T] by more raises GridError.
    """
    n = times.shape[0]
    T = times.item(-1)
    tol = _GRID_RTOL * (T if T > 1.0 else 1.0)
    i = int(times.searchsorted(t - tol))
    if i and t - times.item(i - 1) <= tol:  # t - tol rounded up past a match
        i -= 1
    elif i < n and t - times.item(i) > tol:  # t - tol rounded down below a miss
        i += 1
    if i < n and abs(times.item(i) - t) <= tol:
        return i, True
    if i == 0 or i == n:
        raise GridError(f"time {t} outside [0, {T}]")
    return i - 1, False


def _grid_index(times: np.ndarray, t: float) -> int:
    """Index of grid time t (see :func:`_grid_position`); off the grid raises GridError."""
    i, on_grid = _grid_position(times, t)
    if not on_grid:
        raise GridError(f"time {t} is not a grid point")
    return i


def _validate_grid(times: np.ndarray) -> np.ndarray:
    t = np.ascontiguousarray(np.asarray(times, dtype=np.float64))
    if t.ndim != 1 or t.shape[0] < 2:
        raise GridError("a grid needs at least two time points")
    if t[0] != 0.0:
        raise GridError("the grid must start at time 0")
    if not np.all(np.diff(t) > 0.0):
        raise GridError("grid times must be strictly increasing")
    return t


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A vector-valued path sampled on a fixed grid.

    ``values`` has shape (N, d); a 1-d array is promoted to a single
    component.  If ``domain`` (a :class:`Box`) is given, every grid value
    must lie inside it (a violation raises :class:`DomainError` at
    construction, which is what makes one-sided finite differences near a
    boundary detectable).

    A stopped, pre-step, bumped or composed path is a view: it looks its
    rows up in its source and builds ``values`` only when they are read.
    """

    times: np.ndarray
    values: np.ndarray
    interpolation: str = LINEAR
    domain: Box | None = None

    def __post_init__(self) -> None:
        t = _validate_grid(self.times)
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise GridError("values must be a (N, d) array")
        v = np.ascontiguousarray(v)
        if v.shape[0] != t.shape[0]:
            raise GridError("times and values disagree on the number of grid points")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        if self.interpolation not in _INTERPOLATIONS:
            raise ValueError(f"unknown interpolation tag {self.interpolation!r}")
        self._check_extra(v)
        _check_domain(v, _require_box(self.domain))
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "d", v.shape[1])

    def _check_extra(self, values: np.ndarray) -> None:
        pass

    @classmethod
    def _trusted(
        cls,
        times: np.ndarray,
        values: np.ndarray,
        interpolation: str,
        domain: Box | None,
    ) -> "SampledPath":
        # Internal constructor for derived paths whose grid was already
        # validated and whose values are drawn from an accepted path.
        values.setflags(write=False)
        return cls._make(times=times, values=values, d=values.shape[1],
                         interpolation=interpolation, domain=domain)

    @classmethod
    def _make(cls, **attrs) -> "SampledPath":
        obj = object.__new__(cls)
        obj.__dict__.update(attrs)  # frozen: bypass __setattr__
        return obj

    def __getattr__(self, name: str):
        # Only a view lacks ``values``: build them once, read-only.
        build = self.__dict__.get("_build")
        if name != "values" or build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = build()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        return values

    def _row(self, i: int) -> np.ndarray:
        """Sample row i; a view overrides this per instance."""
        return self.values[i]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_points(self) -> int:
        return self.times.shape[0]

    def value(self, t: float) -> np.ndarray:
        """Path value at any t in [0, T] under the interpolation tag."""
        t = float(t)
        i, on_grid = _grid_position(self.times, t)
        if on_grid or self.interpolation == STEP:
            return self._row(i)
        t0, t1 = self.times[i], self.times[i + 1]
        w = (t - t0) / (t1 - t0)
        v0, v1 = self._row(i), self._row(i + 1)
        # lerp via the increment so constant cells reproduce their value bitwise
        return v0 + w * (v1 - v0)

    def left_limit(self, t: float) -> np.ndarray:
        """Limit from the left at t > 0: value(t) for a LINEAR path; for a STEP
        path the row before grid time t, or the row of t's cell."""
        i, on_grid = _grid_position(self.times, float(t))
        if on_grid and i == 0:
            raise GridError("left limits need t > 0")
        if self.interpolation == LINEAR:
            return self.value(t)
        return self._row(i - 1 if on_grid else i)

    def grid_index(self, t: float) -> int:
        """Index of grid time t; raises GridError if t is not on the grid."""
        return _grid_index(self.times, float(t))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(n={self.n_points}, d={self.d}, "
            f"T={self.horizon:g}, {self.interpolation})"
        )


@dataclass(frozen=True, eq=False)
class BVPath(SampledPath):
    """Piecewise-linear extra components of bounded variation.

    Holds the m user components A_1..A_m; the running clock A_0(t) = t is
    implicit and supplied by consumers that need it.  m = 0 is allowed and
    stands for "no extra components".
    """

    interpolation: str = LINEAR

    def _check_extra(self, values: np.ndarray) -> None:
        if self.interpolation != LINEAR:
            raise ValueError("BV components are piecewise linear by construction")

    @property
    def m(self) -> int:
        return self.d

    @classmethod
    def empty(cls, times: np.ndarray) -> "BVPath":
        times = _validate_grid(np.asarray(times, dtype=np.float64))
        return cls._trusted(times, np.zeros((times.shape[0], 0)), LINEAR, None)

    def slice_components(self, lo: int, hi: int) -> "BVPath":
        if not (0 <= lo <= hi <= self.m):
            raise ValueError("component slice out of range")
        return BVPath._trusted(self.times, self.values[:, lo:hi], LINEAR, self.domain)


def concat_components(a: BVPath, b: BVPath | None) -> BVPath:
    """Positional concatenation of extra components on a shared grid."""
    if b is None or b.m == 0:
        return a
    if a.m == 0:
        return b
    _require_same_grid(a, b)
    vals = np.ascontiguousarray(np.hstack([a.values, b.values]))
    return BVPath._trusted(a.times, vals, LINEAR, None)


def _require_same_grid(p, q) -> None:
    if p.times is q.times:
        return
    if p.times.shape != q.times.shape or not np.array_equal(p.times, q.times):
        raise GridError("paths live on different grids")


# ---------------------------------------------------------------------------
# Refining partitions


@dataclass(frozen=True, eq=False)
class PartitionSequence:
    """Dyadic thinning of a base grid into nested partition levels.

    Level ``num_levels`` is the base grid; level ``n`` keeps base indices
    ``0, k, 2k, ...`` with ``k = 2**(num_levels - n)`` plus the final index,
    so every level contains 0 and T and coarser levels are subsets of finer
    ones.  When the stride exceeds the grid, a level degrades to {0, T}.
    """

    times: np.ndarray
    num_levels: int

    def __post_init__(self) -> None:
        t = _validate_grid(self.times)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        if int(self.num_levels) < 1:
            raise ValueError("need at least one partition level")
        object.__setattr__(self, "num_levels", int(self.num_levels))

    def _check_level(self, level: int) -> int:
        level = int(level)
        if not 1 <= level <= self.num_levels:
            raise ValueError(f"level must lie in [1, {self.num_levels}]")
        return level

    def _level_list(self, levels) -> tuple[int, ...]:
        """A levels argument as a tuple: all levels for None, else nonempty and rising."""
        if levels is None:
            return tuple(range(1, self.num_levels + 1))
        if isinstance(levels, (int, np.integer)):
            return (int(levels),)
        out = tuple(int(n) for n in levels)
        if not out:
            raise ValueError("need at least one level")
        if any(b <= a for a, b in zip(out, out[1:])):
            raise ValueError("levels must be strictly increasing")
        return out

    def stride(self, level: int) -> int:
        return 2 ** (self.num_levels - self._check_level(level))

    def indices(self, level: int) -> np.ndarray:
        """Base-grid indices of the level's partition points."""
        n = self.times.shape[0]
        k = self.stride(level)
        idx = np.arange(0, n - 1, k, dtype=np.intp)
        return np.append(idx, n - 1)

    def points(self, level: int) -> np.ndarray:
        return self.times[self.indices(level)]

    def contains(self, level: int, t: float) -> bool:
        try:
            return _grid_position(self.points(level), t)[1]
        except GridError:
            return False


def default_num_levels(n_points: int) -> int:
    """Deepest dyadic thinning that still halves: floor(log2(#cells))."""
    return max(1, int(math.floor(math.log2(max(n_points - 1, 2)))))


# ---------------------------------------------------------------------------
# Path operations


def _view(path: SampledPath, row: Callable, build: Callable) -> SampledPath:
    """A path like ``path`` whose row i is row(i) and whose values are build()."""
    return type(path)._make(
        times=path.times, d=path.d, interpolation=path.interpolation,
        domain=path.domain, _row=row, _build=build,
    )


def _frozen_from(path: SampledPath, cut: int, frozen: np.ndarray) -> SampledPath:
    """View of path: its rows before index cut, the row ``frozen`` from there on."""
    frozen.setflags(write=False)
    base_row = path._row

    def build():
        vals = np.empty((path.n_points, path.d))
        vals[:cut] = path.values[:cut]
        vals[cut:] = frozen
        return vals

    return _view(path, lambda i: base_row(i) if i < cut else frozen, build)


def _bumped(path: SampledPath, j: int, i: int, h: float, domain: Box | None) -> SampledPath:
    """View of path plus h in component i from grid index j on; checks the domain."""
    base_row = path._row

    def row(r):
        out = base_row(r)
        if r >= j:
            out = out.copy()
            out[i] += h
            out.setflags(write=False)
        return out

    def build():
        vals = path.values.copy()
        vals[j:, i] += h
        return vals

    bumped = _view(path, row, build)
    if domain is not None:
        _check_domain(bumped.values, domain)
    return bumped


def stop(path: SampledPath, t: float) -> SampledPath:
    """Freeze the path at time t: unchanged on [0, t], constant after.

    The result lives on the same grid.  At a grid time (within the grid
    tolerance, see :func:`_grid_position`) the operation is exact everywhere
    and idempotent.  Between grid points a LINEAR path freezes at the value
    interpolated from the samples (even where ``path.value`` is computed
    otherwise, as for a composed path); the kink then sits inside a grid
    cell, which linear interpolation smooths.  Outside [0, T]: GridError.
    """
    i, on_grid = _grid_position(path.times, float(t))
    return _frozen_from(path, i + 1, path._row(i) if on_grid else SampledPath.value(path, t))


def _stepped(path: SampledPath, partition: PartitionSequence, level: int) -> SampledPath:
    _require_same_grid(path, partition)
    idx = partition.indices(level)
    n = path.n_points
    pos = np.searchsorted(idx, np.arange(n), side="right") - 1
    succ = idx[np.minimum(pos + 1, idx.shape[0] - 1)]
    vals = path.values[succ].copy()
    vals[-1] = path.values[-1]
    return type(path)._trusted(path.times, vals, STEP, path.domain)


def stepped_approx(path: SampledPath, partition: PartitionSequence, level: int) -> SampledPath:
    """Level-n step approximation: on [s, s') the value is X(s').

    Takes a continuous path and returns a STEP path on the same grid whose
    value at T is X(T).  Note the look-ahead: between partition points the
    step path already shows the value at the cell's right endpoint.
    """
    if path.interpolation != LINEAR:
        raise ValueError("stepped_approx expects a continuous (LINEAR) path")
    return _stepped(path, partition, level)


def pre_step(
    path: SampledPath, partition: PartitionSequence, level: int, s: float
) -> SampledPath:
    """Left limit of the stopped step approximation at partition point s.

    Equals the level-n step path on [0, s) and is frozen at X(s) from s on.
    ``s`` must be a level-n partition point.
    """
    if not partition.contains(level, s):
        raise GridError(f"{s} is not a level-{level} partition point")
    j = path.grid_index(s)
    return _frozen_from(_stepped(path, partition, level), j, path._row(j))


def sup_distance(p: SampledPath, q: SampledPath) -> float:
    """Sup distance over the grid, sampling left limits for mixed tags.

    For two STEP or two LINEAR paths the grid values already realise the
    supremum over [0, T].  When the tags differ, the largest gap can sit at
    a left limit just before a jump, so those are sampled as well.
    """
    _require_same_grid(p, q)
    if p.d != q.d:
        raise GridError("paths have different dimensions")
    gaps = np.linalg.norm(p.values - q.values, axis=1)
    best = float(np.max(gaps))
    if p.interpolation != q.interpolation:
        pl = p.values[:-1] if p.interpolation == STEP else p.values[1:]
        ql = q.values[:-1] if q.interpolation == STEP else q.values[1:]
        best = max(best, float(np.max(np.linalg.norm(pl - ql, axis=1))))
    return best


# ---------------------------------------------------------------------------
# CSV I/O
#
# Path files are plain CSV with a header ``t,x1,...,xd`` (or ``a1..am`` for
# extra components); numbers are written with 17 significant digits so a
# round trip reproduces every float bit for bit.


def _format(x: float) -> str:
    return f"{float(x):.17g}"


# About 330 bytes of temporaries a cell: 4096-cell blocks stay in cache.
_CELLS_PER_WRITE = 4096


def _write_table(dest, header: Sequence[str], table: np.ndarray) -> None:
    """Write a header and a float table as CSV, 17 significant digits a cell.

    Gives the bytes ``csv.writer`` gives for ``_format`` cells (no quoting,
    CRLF rows), one block of rows at a time (as bytes to a UTF-8 text
    stream's buffer, untranslated, as csv wants ``newline=""``) so the file
    is never held as one string.  The cells are formatted by array
    arithmetic (``_g17``), exactly:
    a finite cell with 1e-11 < |v| < 1e17 is M * 2**E with M < 2**53, and its
    17 digits are M * 5**k * 2**(E + k) for k = 16 - floor(log10 |v|) in
    [0, 27], a product below 2**116 that is formed as two uint64 words and
    rounded half to even on its exact remainder, as ``'%.17g'`` rounds.
    The other cells (0, -0, inf, nan, |v| >= 1e17 and |v| <= 1e-11) are
    formatted by ``'%.17g' % v`` itself.
    """
    dest.write(",".join(header) + "\r\n")
    raw = getattr(dest, "buffer", None)
    if raw is not None and codecs.lookup(dest.encoding).name == "utf-8":
        dest.flush()
        write = raw.write
    else:
        def write(cells: bytes) -> None:
            dest.write(cells.decode("ascii"))
    rows = max(1, _CELLS_PER_WRITE // table.shape[1])
    for start in range(0, table.shape[0], rows):
        write(format_rows(table[start : start + rows]))


def write_path_csv(path: SampledPath, dest, prefix: str = "x") -> None:
    close = False
    if not hasattr(dest, "write"):
        dest = open(dest, "w", newline="")
        close = True
    try:
        header = ["t"] + [f"{prefix}{i + 1}" for i in range(path.d)]
        _write_table(dest, header, np.column_stack([path.times, path.values]))
    finally:
        if close:
            dest.close()


def read_path_table(src) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Times, values and component names of a path CSV (a file name or stream).

    ``csv.reader`` and ``float()`` on every cell define the format.  The body
    is parsed by numpy's C reader, which converts each cell with CPython's own
    correctly rounded string-to-double, so it gives the values ``float()``
    gives.  A file that reader refuses (quoted cells, ``1_0``, lone-CR line
    ends, malformed rows) or could read differently (the separators
    ``\\x1c``-``\\x1f``, a line past ``csv``'s field size limit) is read
    again cell by cell, so its values and errors are the ``csv`` ones.
    """
    if hasattr(src, "read"):
        text = src.read()
    else:
        with open(src, "r", newline="") as fh:
            text = fh.read()
    return _read_table_fast(text) or _read_table_csv(io.StringIO(text, newline=""))


def _read_table_fast(text: str) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    # Left to csv: the separators \x1c-\x1f (loadtxt strips them as whitespace,
    # float() refuses them), quoted or CR-split headers, bodies of blank lines
    # (which loadtxt warns about) and lines long enough to hold a cell past
    # csv's limit.
    if any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    lines = text.split("\n")
    head = lines[0].removesuffix("\r")
    header = [h.strip() for h in head.split(",")]
    body = lines[1:]
    if '"' in head or "\r" in head or header[0] != "t" or not any(map(str.strip, body)):
        return None
    if max(map(len, body)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[0] < 2 or table.shape[1] != len(header):
        return None
    return table[:, 0], table[:, 1:], header[1:]


def _read_table_csv(src) -> tuple[np.ndarray, np.ndarray, list[str]]:
    reader = csv.reader(src)
    try:
        header = next(reader, None)
        if header is None:
            raise PathFormatError("empty path file")
        header = [h.strip() for h in header]
        if not header or header[0] != "t":
            raise PathFormatError("first CSV column must be 't'")
        width = len(header)
        times: list[float] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise PathFormatError(f"line {lineno}: expected {width} columns")
            try:
                nums = [float(c) for c in row]
            except ValueError as exc:
                raise PathFormatError(f"line {lineno}: {exc}") from None
            times.append(nums[0])
            rows.append(nums[1:])
    except csv.Error as exc:
        raise PathFormatError(f"line {reader.line_num}: {exc}") from None
    if len(times) < 2:
        raise PathFormatError("a path file needs at least two samples")
    return np.asarray(times), np.asarray(rows), header[1:]


def load_sampled_path(
    src, interpolation: str = LINEAR, domain: Box | None = None
) -> SampledPath:
    times, values, _ = read_path_table(src)
    try:
        return SampledPath(times, values, interpolation, domain)
    except GridError as exc:
        raise PathFormatError(str(exc)) from None


def load_bv_path(src) -> BVPath:
    times, values, _ = read_path_table(src)
    try:
        return BVPath(times, values)
    except GridError as exc:
        raise PathFormatError(str(exc)) from None


def path_to_csv_text(path: SampledPath, prefix: str = "x") -> str:
    buf = io.StringIO()
    write_path_csv(path, buf, prefix=prefix)
    return buf.getvalue()


def default_output_dir() -> str:
    """Directory used for relative output paths (env override)."""
    return os.environ.get("PATHWISE_ITO_OUT_DIR", ".")
