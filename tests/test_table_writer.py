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


def _chunk_patterns():
    # Integers below 2**53 print their own digits, D = n * 10**(17 - len(n)):
    # chunks of 0000 and 9999 in every position of D, and their decimal
    # shifts next to them.
    ints = [10**15, 10**15 + 9999, 9999 * 10**12, 1000099990000999, 9999000099990000,
            1000000099999999, 9999999900000000, 2**53 - 1, 99999999, 10**8, 9999, 10**4]
    cells = [sign * n * 10.0**k for n in ints for k in (-20, -8, -4, 0) for sign in (1, -1)]
    # neighbours of 10**4 and 10**8 multiples, where the halves and chunks roll over
    for b in (1e4, 1e8, 1e12, 1e16, 9999.0, 99999999.0, 1.0000999900009999, 99990000.0):
        for scale in (1e-12, 1e-5, 1.0, 1e8):
            v = b * scale
            cells += [v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, np.inf))]
    return np.array(cells)


def test_digit_chunks_of_0000_and_9999_and_their_boundaries():
    cells = _chunk_patterns()
    for cols in (1, 3, 7):
        table = np.resize(cells, (len(cells) + cols - 1) // cols * cols).reshape(-1, cols)
        header = [f"c{i}" for i in range(cols)]
        assert _written(header, table) == _reference(header, table)


def test_longest_cells_at_row_ends():
    # 23 characters, the most a fast-path cell has, and a 24-character fallback
    longest = [-1.2345678901234567e-05, -0.00012345678901234567, -9.8765432109876543e-11,
               -0.00098765432109876543, -1.0000000000000002e-05, -2.2250738585072014e-308]
    for cols in (1, 2, 5):
        table = np.full((len(longest), cols), -0.1234567890123456)
        table[:, -1] = longest
        header = [f"c{i}" for i in range(cols)]
        text = _written(header, table)
        assert text == _reference(header, table)
        ends = [row.rsplit(",", 1)[-1] for row in text.split("\r\n")[1:-1]]
        assert [len(cell) for cell in ends] == [23] * 5 + [24]


def test_tables_across_block_boundaries_to_every_kind_of_stream(tmp_path):
    rng = np.random.default_rng(7)
    cols = 7
    rows = 3 * paths._CELLS_PER_WRITE // cols + 5  # four blocks, the last one short
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 18, (rows, cols))
    table[::5, -1] = np.resize(_chunk_patterns(), len(table[::5, -1]))
    header = [f"c{i}" for i in range(cols)]
    want = _reference(header, table)
    assert _written(header, table) == want
    # A UTF-8 text stream takes the cells as bytes on its buffer, after the
    # header; another encoding takes them as text.
    for encoding in ("utf-8", "UTF8", "utf-16", "latin-1"):
        raw = io.BytesIO()
        stream = io.TextIOWrapper(raw, encoding=encoding, newline="")
        with np.errstate(all="raise"):
            _write_table(stream, header, table)
        stream.flush()
        assert raw.getvalue() == want.encode(encoding)
    path = tmp_path / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh, np.errstate(all="raise"):
        _write_table(fh, header, table)
    assert path.read_bytes() == want.encode()
