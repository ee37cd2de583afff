"""Differential tests: the packed QV entry paths against per-entry references.

The library runs every QV entry of a level in one set of array operations.
The references below are written entry by entry from the definition: the
diagonal [x_i] is the one-column sum of squared level increments plus the
squared step from the cell's anchor, and the entry [x_i, x_j] is the
running sum, from +0.0, of the level increments' products plus the product
of the two steps from the anchor.  The batch must give the same bits for
the matrix paths, the convergence diagnostics and the ``qv`` command's
table.  The polarized ([x_i + x_j] - [x_i] - [x_j]) / 2 of the same sums
agrees with the off-diagonals to within their a-priori rounding bounds.
The per-cell increments of ``qv_measures`` are the rank-two v v^T - w w^T
of each base cell's steps from its anchor, checked entry by entry against
steps whose anchors are found by search.
"""

import contextlib
import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.cli import cli_main
from pathwise_ito.paths import (
    PartitionSequence,
    SampledPath,
    _format,
    _write_table,
    write_path_csv,
)
from pathwise_ito.qv import (
    _entry_rows,
    qv_converged,
    qv_matrix,
    qv_measures,
    qv_scalar,
)
from pathwise_ito.reduction import running_sum
from rounding import rounding_bound


def _scalar_qv_path(values, partition, level):
    """Per-grid-time QV path of one component."""
    idx = partition.indices(level)
    v = values[idx]
    dv = np.diff(v)
    cum = running_sum(dv * dv)
    pos = np.searchsorted(idx, np.arange(values.shape[0]), side="right") - 1
    anchored = values - v[pos]
    return cum[pos] + anchored * anchored


def _anchors(n_points, partition, level):
    """Each grid time's cell anchor, as an index into the level's partition points."""
    idx = partition.indices(level)
    return idx, np.searchsorted(idx, np.arange(n_points), side="right") - 1


def _entry_qv_path(xi, xj, partition, level):
    """[x_i, x_j] per grid time: L(s) + (x_i(u) - x_i(s)) (x_j(u) - x_j(s)), with L the
    running sum of the level increments' products from a +0.0 start."""
    idx, pos = _anchors(xi.shape[0], partition, level)
    cum = np.cumsum(np.concatenate([[0.0], np.diff(xi[idx]) * np.diff(xj[idx])]))
    return cum[pos] + (xi - xi[idx][pos]) * (xj - xj[idx][pos])


def _reference_matrix_paths(x, partition, level):
    """(N, d, d) paths, one entry at a time."""
    n, d = x.values.shape
    mats = np.empty((n, d, d))
    for i in range(d):
        mats[:, i, i] = _scalar_qv_path(x.values[:, i], partition, level)
        for j in range(i + 1, d):
            mats[:, i, j] = mats[:, j, i] = _entry_qv_path(
                x.values[:, i], x.values[:, j], partition, level
            )
    return mats


def _polarized_entry_path(xi, xj, partition, level):
    """([x_i + x_j] - [x_i] - [x_j]) / 2 from the one-column sums."""
    p_sum = _scalar_qv_path(xi + xj, partition, level)
    p_i, p_j = _scalar_qv_path(xi, partition, level), _scalar_qv_path(xj, partition, level)
    return 0.5 * (p_sum - p_i - p_j)


def _entry_gap_bound(xi, xj, partition, level):
    """A-priori bound on |anchored - polarized| for [x_i, x_j] at every grid time.

    Both are within rounding of the exact L(s) + a_i a_j, a = x(u) - x(s), a
    sum of m terms: the level increments before u and the step from the
    anchor.  With D a term's exact increment and S the sum of |x_i| + |x_j|
    at its two ends (tests/rounding.py's model):

    * anchored: a product D_i D_j is formed with three roundings and enters
      the sum through at most m additions: gamma_(m+3) sum |D_i D_j|;
    * polarized: the column x_i + x_j rounds once a grid time, which moves a
      term of [x_i + x_j] by at most 2 gamma_5 S^2 (|D_i + D_j| <= S); with
      the one-column sums, the two subtractions and the halving, the entry
      is within gamma_(m+8) sum (2 S^2 + D_i^2 + D_j^2).

    Taking every level increment and the largest step covers each grid
    time.  Forming the terms here adds 3 and 9 roundings, the gap's
    subtraction one more.
    """
    idx, pos = _anchors(xi.shape[0], partition, level)
    s = np.abs(xi) + np.abs(xj)
    inc_i, inc_j, ends = np.diff(xi[idx]), np.diff(xj[idx]), s[idx]
    step_i, step_j = xi - xi[idx][pos], xj - xj[idx][pos]
    m = inc_i.shape[0] + 1
    anchored = np.append(np.abs(inc_i * inc_j), np.max(np.abs(step_i * step_j)))
    polarized = np.append(
        2.0 * (ends[1:] + ends[:-1]) ** 2 + inc_i**2 + inc_j**2,
        np.max(2.0 * (s + ends[pos]) ** 2 + step_i**2 + step_j**2),
    )
    return rounding_bound(anchored, m + 3 + 3 + 1) + rounding_bound(polarized, m + 8 + 9 + 1)


def _steps_by_search(x, partition, level):
    """(v, w) of every base cell from the last partition point at or before its left end."""
    idx = partition.indices(level)
    cells = np.arange(x.n_points - 1)
    anchors = x.values[idx[np.searchsorted(idx, cells, side="right") - 1]]
    return x.values[cells + 1] - anchors, x.values[cells] - anchors


def _rank_two_measure_loop(x, partition, level):
    """(d * d, N - 1) rows v_i v_j - w_i w_j, one entry at a time, row i * d + j."""
    v, w = _steps_by_search(x, partition, level)
    d = x.d
    rows = np.empty((d * d, x.n_points - 1))
    for i in range(d):
        for j in range(d):
            rows[i * d + j] = v[:, i] * v[:, j] - w[:, i] * w[:, j]
    return rows


def _triangle_gap(new, old):
    """Per grid time, the largest |new - old| over the upper triangle."""
    d = new.shape[1]
    cols = [abs(new[:, i, j] - old[:, i, j]) for i in range(d) for j in range(i, d)]
    return np.array([max(c[k] for c in cols) for k in range(new.shape[0])])


def _reference_table(x, num_levels):
    """The qv command's CSV, built with csv.writer from the reference."""
    part = PartitionSequence(x.times, num_levels)
    finest = _reference_matrix_paths(x, part, num_levels)
    if num_levels >= 2:
        prev = _reference_matrix_paths(x, part, num_levels - 1)
        gap = _triangle_gap(finest, prev)
    else:
        gap = np.zeros(x.n_points)
    pairs = [(i, j) for i in range(x.d) for j in range(i, x.d)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"qv_{i + 1}{j + 1}" for i, j in pairs] + ["level_diff"])
    for k in range(x.n_points):
        writer.writerow(
            [_format(x.times[k])]
            + [_format(finest[k, i, j]) for i, j in pairs]
            + [_format(gap[k])]
        )
    return buf.getvalue().encode()


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _paths(draw, scales=(1e-3, 1.0, 1e3)):
    d = draw(st.integers(1, 6))
    n = draw(st.one_of(st.sampled_from([3, 5, 9, 17, 33, 65, 129, 257, 513]), st.integers(3, 600)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])
    values = rng.standard_normal((n, d)) * draw(st.sampled_from(scales))
    if draw(st.booleans()):
        # small integers: exact ties, zero increments and exact cancellations
        values = np.round(values * 4.0 / max(1.0, float(np.max(np.abs(values)))))
    # up to three levels whose stride passes the grid: they degrade to {0, T}
    num_levels = draw(st.integers(1, int(np.log2(n - 1)) + 4))
    return SampledPath(times, values), num_levels


@settings(max_examples=80, deadline=None)
@given(_paths())
def test_batched_qv_matches_the_per_column_reference(case):
    x, num_levels = case
    part = PartitionSequence(x.times, num_levels)
    refs = {}
    for level in range(1, num_levels + 1):
        ref_mats = _reference_matrix_paths(x, part, level)
        refs[level] = ref_mats
        assert _same_bits(qv_matrix(x, part, level).matrices, ref_mats)
        rows = qv_measures(x, part, level).increments  # row i * d + j: d[x_i, x_j]
        assert _same_bits(rows, _rank_two_measure_loop(x, part, level))
        for c in range(x.d):
            assert _same_bits(qv_scalar(x, part, level, component=c), ref_mats[-1, c, c])
    if num_levels >= 3:
        rep = qv_converged(x, part)
        assert _same_bits(rep.matrices, refs[num_levels])
        diffs = [np.max(np.abs(refs[n] - refs[n - 1])) for n in range(2, num_levels + 1)]
        assert _same_bits(rep.level_diffs, diffs)
        assert _same_bits(rep.last_gap, _triangle_gap(refs[num_levels], refs[num_levels - 1]))


@settings(max_examples=30, deadline=None)
@given(_paths())
def test_off_diagonals_agree_with_polarization_within_their_rounding_bound(case):
    x, num_levels = case
    part = PartitionSequence(x.times, num_levels)
    for level in range(1, num_levels + 1):
        qv = qv_matrix(x, part, level)
        for i in range(x.d):
            for j in range(i + 1, x.d):
                xi, xj = x.values[:, i], x.values[:, j]
                polarized = _polarized_entry_path(xi, xj, part, level)
                gap = np.max(np.abs(qv.entry_path(i, j) - polarized))
                assert gap <= _entry_gap_bound(xi, xj, part, level), (level, i, j)


def _qv_command(x, num_levels):
    """The qv command's table bytes and stderr line for path x."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "x.csv"), os.path.join(tmp, "qv.csv")
        write_path_csv(x, src)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli_main(["qv", "-i", src, "--levels", str(num_levels), "-o", out]) == 0
        with open(out, "rb") as fh:
            return fh.read(), err.getvalue()


def _all_levels_verdict(x, num_levels):
    if num_levels < 3:
        return "converged: n/a (need at least 3 levels)\n"
    converged = qv_converged(x, PartitionSequence(x.times, num_levels)).converged
    return f"converged: {'yes' if converged else 'no'}\n"


@settings(max_examples=40, deadline=None)
@given(_paths(scales=(1e-3, 1.0, 1e3, 1e150)))
def test_qv_command_table_matches_the_per_column_reference(case):
    # At scale 1e150 the sums stay far from overflow, but 16 N max|x|^2
    # mostly passes 2^1000, so qv runs every level instead of the last two.
    x, num_levels = case
    table, err = _qv_command(x, num_levels)
    assert table == _reference_table(x, num_levels)
    assert err == _all_levels_verdict(x, num_levels)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e150])
@pytest.mark.parametrize("num_levels", [3, 6, 9])
def test_qv_verdict_is_the_all_levels_verdict_at_every_scale(scale, num_levels):
    # Up to scale 1e3 qv runs only the last two levels, at 1e150 every
    # level; on both routes the verdict is qv_converged's over every level.
    rng = np.random.default_rng(num_levels)
    times = np.linspace(0.0, 1.0, 257)
    values = np.cumsum(rng.standard_normal((257, 3)), axis=0) * scale / 16.0
    x = SampledPath(times, values)
    assert _qv_command(x, num_levels)[1] == _all_levels_verdict(x, num_levels)


@pytest.mark.parametrize("num_levels", [3, 7])
def test_qv_verdict_at_the_tolerance_edge(num_levels):
    # The last gap scales as the square of the path: put it just below and
    # just above qv_converged's default tol of 1e-2.
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 1.0, 129)
    unit = SampledPath(times, np.cumsum(rng.standard_normal((129, 2)), axis=0))
    part = PartitionSequence(times, num_levels)
    gap = qv_converged(unit, part).level_diffs[-1]
    for target in (0.98e-2, 1.02e-2):
        x = SampledPath(times, unit.values * (target / gap) ** 0.5)
        assert qv_converged(x, part).converged == (target < 1e-2)
        assert _qv_command(x, num_levels)[1] == _all_levels_verdict(x, num_levels)


def test_qv_matrix_builds_its_matrices_on_read():
    rng = np.random.default_rng(3)
    x = SampledPath(np.linspace(0.0, 1.0, 65), rng.standard_normal((65, 4)))
    part = PartitionSequence(x.times, 6)
    for m in (qv_matrix(x, part, 5), qv_converged(x, part)):
        assert "matrices" not in vars(m)  # not built until read
        first = m.matrices
        assert _same_bits(first, np.moveaxis(m.entries[_entry_rows(x.d)], -1, 0))
        assert not first.flags.writeable
        assert m.matrices is first
        assert m.d == x.d
        assert _same_bits(m.final(), first[-1])
        for i in range(x.d):
            for j in range(x.d):
                assert _same_bits(m.entry_path(i, j), first[:, i, j])


def test_table_writer_matches_csv_writer_on_special_values():
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.nan, np.inf, -np.inf,
               1e300, -1e-300, 0.1, 1.0 / 3.0, 2.0**53, 123456789.0]
    rng = np.random.default_rng(5)
    table = rng.choice(special, size=(1100, 7))  # crosses several row blocks
    table[:, 0] = rng.standard_normal(1100)
    header = ["t"] + [f"x{i}" for i in range(1, 7)]
    ref = io.StringIO()
    writer = csv.writer(ref)
    writer.writerow(header)
    for row in table:
        writer.writerow([_format(v) for v in row])
    got = io.StringIO()
    _write_table(got, header, table)
    assert got.getvalue() == ref.getvalue()
