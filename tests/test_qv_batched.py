"""Differential tests: batched polarization against the per-column reference.

The library runs every QV column (x_i, and x_i + x_j for i < j) of a level
in one set of array operations.  The reference below is the one-column
computation, looped over the columns and polarized entry by entry; the
batch must give the same bits for the matrix paths, the per-cell
increments, the convergence diagnostics and the ``qv`` command's table.
"""

import contextlib
import csv
import io
import os
import tempfile

import numpy as np
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
    _polarization_columns,
    _qv_matrix_arrays,
    _unpack,
    qv_converged,
    qv_matrix,
    qv_measures,
    qv_scalar,
)
from pathwise_ito.reduction import running_sum


def _scalar_qv_arrays(values, partition, level):
    """Per-grid-time QV path and per-cell QV increments for one component."""
    idx = partition.indices(level)
    v = values[idx]
    dv = np.diff(v)
    cum = running_sum(dv * dv)
    pos = np.searchsorted(idx, np.arange(values.shape[0]), side="right") - 1
    anchored = values - v[pos]
    path = cum[pos] + anchored * anchored
    increments = anchored[1:] ** 2 - anchored[:-1] ** 2
    boundary = idx[1:]
    prev_anchor = values[boundary] - v[pos[boundary] - 1]
    increments[boundary - 1] = prev_anchor**2 - anchored[boundary - 1] ** 2
    return path, increments


def _reference_matrix_arrays(x, partition, level):
    """(N, d, d) paths and (N-1, d, d) increments, one column at a time."""
    n, d = x.values.shape
    mats = np.empty((n, d, d))
    incs = np.empty((n - 1, d, d))
    diag = [_scalar_qv_arrays(x.values[:, i], partition, level) for i in range(d)]
    for i in range(d):
        mats[:, i, i], incs[:, i, i] = diag[i]
    for i in range(d):
        for j in range(i + 1, d):
            p_sum, inc_sum = _scalar_qv_arrays(x.values[:, i] + x.values[:, j], partition, level)
            mats[:, i, j] = mats[:, j, i] = 0.5 * (p_sum - diag[i][0] - diag[j][0])
            incs[:, i, j] = incs[:, j, i] = 0.5 * (inc_sum - diag[i][1] - diag[j][1])
    return mats, incs


def _triangle_gap(new, old):
    """Per grid time, the largest |new - old| over the upper triangle."""
    d = new.shape[1]
    cols = [abs(new[:, i, j] - old[:, i, j]) for i in range(d) for j in range(i, d)]
    return np.array([max(c[k] for c in cols) for k in range(new.shape[0])])


def _reference_table(x, num_levels):
    """The qv command's CSV, built with csv.writer from the reference."""
    part = PartitionSequence(x.times, num_levels)
    finest, _ = _reference_matrix_arrays(x, part, num_levels)
    if num_levels >= 2:
        prev, _ = _reference_matrix_arrays(x, part, num_levels - 1)
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
    cols = _polarization_columns(x.values)
    assert cols.flags.c_contiguous and cols.shape == (x.d * (x.d + 1) // 2, x.n_points)
    refs = {}
    for level in range(1, num_levels + 1):
        ref_mats, ref_incs = _reference_matrix_arrays(x, part, level)
        refs[level] = ref_mats
        paths, incs = _qv_matrix_arrays(cols, x.d, part, level, paths=True, increments=True)
        assert _same_bits(_unpack(paths, x.d), ref_mats)
        assert _same_bits(_unpack(incs, x.d), ref_incs)
        only_paths = _qv_matrix_arrays(cols, x.d, part, level)
        only_incs = _qv_matrix_arrays(cols, x.d, part, level, paths=False, increments=True)
        assert only_paths[1] is None and only_incs[0] is None
        assert _same_bits(only_paths[0], paths) and _same_bits(only_incs[1], incs)
        assert _same_bits(qv_matrix(x, part, level).matrices, ref_mats)
        table = qv_measures(x, part, level)
        for i in range(x.d):
            for j in range(x.d):
                assert _same_bits(table[i][j].increments, ref_incs[:, i, j])
        for c in range(x.d):
            assert _same_bits(qv_scalar(x, part, level, component=c), ref_mats[-1, c, c])
    if num_levels >= 3:
        rep = qv_converged(x, part)
        assert _same_bits(rep.matrices, refs[num_levels])
        diffs = [np.max(np.abs(refs[n] - refs[n - 1])) for n in range(2, num_levels + 1)]
        assert _same_bits(rep.level_diffs, diffs)
        assert _same_bits(rep.last_gap, _triangle_gap(refs[num_levels], refs[num_levels - 1]))


@settings(max_examples=40, deadline=None)
@given(_paths(scales=(1e-3, 1.0, 1e3, 1e150)))
def test_qv_command_table_matches_the_per_column_reference(case):
    # At scale 1e150 the sums stay far from overflow, but 16 N max|x|^2
    # mostly passes 2^1000, so qv runs every level instead of the last three.
    x, num_levels = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "x.csv"), os.path.join(tmp, "qv.csv")
        write_path_csv(x, src)
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli_main(["qv", "-i", src, "--levels", str(num_levels), "-o", out]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == _reference_table(x, num_levels)


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
