"""Differential tests: the array CSV writer against per-cell ``'%.17g'``.

``paths._write_table`` formats cells with integer arithmetic on whole
blocks.  The reference below is the per-cell formatting it replaced: Python's
``'%.17g' % v`` through ``csv.writer``.  The two must give the same bytes for
every double, including rounding ties, values next to powers of ten, the
cells that fall back to Python, and tables that span several blocks.
"""

import csv
import io
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito import paths
from pathwise_ito.paths import _write_table


def _reference(header, table):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in table.tolist():
        writer.writerow(["%.17g" % v for v in row])
    return buf.getvalue()


def _written(header, table):
    buf = io.StringIO()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        _write_table(buf, header, table)
    return buf.getvalue()


_bits = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))
)
_decades = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(1.0, 10.0),
    st.integers(-40, 40),
)
_dyadic = st.builds(lambda n, j: n / 2.0**j, st.integers(-(2**53), 2**53), st.integers(0, 80))


def _tie(j, u):
    # m * 2**-j with m odd has the digits of m * 5**j, which end in 5; with
    # 18 of them the 17-digit rounding is an exact tie.
    lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
    m = lo + int(u * (hi - lo))
    m += 1 - m % 2
    return m / 2.0**j


_ties = st.builds(_tie, st.integers(3, 25), st.floats(0.0, 1.0, exclude_max=True))
_near_powers = st.builds(
    lambda e, ulps, sign: sign * float(np.nextafter(10.0**e, np.inf if ulps > 0 else 0.0))
    if ulps
    else sign * 10.0**e,
    st.integers(-40, 40),
    st.integers(-1, 1),
    st.sampled_from([1.0, -1.0]),
)
_special = st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
     1.7976931348623157e308, 1e-11, 1e17, 99999999999999984.0, 1e-7, 0.0001, 1e-5]
)
_cells = st.one_of(_bits, _decades, _dyadic, _ties, _near_powers, _special)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda cols: st.lists(
            st.lists(_cells, min_size=cols, max_size=cols), min_size=0, max_size=40
        )
    ),
    st.integers(1, 60),
)
def test_writer_matches_per_cell_format(rows, cells_per_write):
    cols = len(rows[0]) if rows else 3
    table = np.array(rows, dtype=np.float64).reshape(len(rows), cols)
    header = ["t"] + [f"x{i}" for i in range(1, cols)]
    # A small block size makes the tables cross many block boundaries.
    with mock.patch.object(paths, "_CELLS_PER_WRITE", cells_per_write):
        assert _written(header, table) == _reference(header, table)


def test_writer_matches_per_cell_format_across_full_blocks():
    rng = np.random.default_rng(6)
    rows = 2 * paths._CELLS_PER_WRITE // 5 + 3
    table = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-14, 19, (rows, 5))
    table[::7, 1] = 0.0
    table[::11, 2] = -0.0
    table[::13, 3] = np.nan
    header = ["t", "x1", "x2", "x3", "x4"]
    assert _written(header, table) == _reference(header, table)


def test_every_decade_and_its_neighbours():
    powers = 10.0 ** np.arange(-40, 41)
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    table = np.concatenate(near + [-p for p in near])[:, None]
    assert _written(["x"], table) == _reference(["x"], table)
