"""Contract tests: ``paths.read_path_table`` against a ``csv`` + ``float()`` reader.

The reference below is the reader the library started from: every line goes
through ``csv.reader`` and every cell through Python's ``float()``.  Its
values and its ``PathFormatError`` messages define the behaviour, so for any
file the library reader must return bit-identical arrays and the same header,
or raise ``PathFormatError`` with the same text.  Files are fed both as a
file name (how the CLI reads them) and as an open stream.
"""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathwise_ito.paths import PathFormatError, read_path_table


def _reference(src):
    reader = csv.reader(src)
    try:
        header = next(reader)
    except StopIteration:
        raise PathFormatError("empty path file") from None
    header = [h.strip() for h in header]
    if not header or header[0] != "t":
        raise PathFormatError("first CSV column must be 't'")
    width = len(header)
    times, rows = [], []
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
    if len(times) < 2:
        raise PathFormatError("a path file needs at least two samples")
    return np.asarray(times), np.asarray(rows), header[1:]


def _outcome(read, src):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        try:
            return read(src)
        except PathFormatError as exc:
            return str(exc)


def _bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, np.ascontiguousarray(a).view(np.uint64).tolist()


def _check(text, directory):
    expected = _outcome(_reference, io.StringIO(text, newline=""))
    path = directory / "path.csv"
    path.write_bytes(text.encode("utf-8"))
    for src in (str(path), io.StringIO(text, newline="")):
        got = _outcome(read_path_table, src)
        if isinstance(expected, str):
            assert got == expected
            continue
        assert not isinstance(got, str), got
        times, values, header = got
        assert header == expected[2]
        assert _bits(times) == _bits(expected[0])
        assert _bits(values) == _bits(expected[1])
    return expected


# ---------------------------------------------------------------------------
# Drawing files


_raw = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))
)
_cell = st.one_of(
    st.builds(lambda v, fmt: fmt(v), _raw, st.sampled_from(["%.17g".__mod__, repr, "%.25e".__mod__])),
    st.sampled_from(["+1.5", ".5", "5.", "1E5", " 1.5 ", "1_0", "Infinity", "-nan", '"1.5"']),
)
_ending = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _files(draw):
    """(header cells, body rows as cell lists, line ending, blank lines, final newline)."""
    width = draw(st.integers(1, 4))
    header = ["t"] + [f"x{i + 1}" for i in range(width - 1)]
    if draw(st.booleans()):
        header = [f" {h} " for h in header]
    rows = draw(st.lists(st.lists(_cell, min_size=width, max_size=width), min_size=2, max_size=8))
    ending = draw(_ending)
    blanks = draw(st.lists(st.integers(0, len(rows)), max_size=3))
    final = draw(st.booleans())
    return header, rows, ending, blanks, final


def _text(header, rows, ending, blanks, final):
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for at in sorted(blanks, reverse=True):
        lines.insert(1 + at, "")
    text = ending.join(lines)
    return text + ending if final else text


_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_settings
@given(_files())
def test_valid_files_read_bit_identically(tmp_path, case):
    expected = _check(_text(*case), tmp_path)
    assert not isinstance(expected, str), expected
    assert expected[0].shape == (len(case[1]),)


def _ragged(row):
    return row[:-1] if len(row) > 1 else row + ["1"]


_CORRUPTIONS = {
    "ragged row": lambda rows, i: rows[:i] + [_ragged(rows[i])] + rows[i + 1 :],
    "trailing comma": lambda rows, i: rows[:i] + [rows[i][:-1] + [rows[i][-1] + ","]] + rows[i + 1 :],
    "comment line": lambda rows, i: rows[:i] + [["# a comment"]] + rows[i:],
    "non-numeric cell": lambda rows, i: rows[:i] + [rows[i][:-1] + ["abc"]] + rows[i + 1 :],
    # str.isspace() holds for \x1c-\x1f, but float() does not strip them
    "separator in a cell": lambda rows, i: rows[:i] + [rows[i][:-1] + [rows[i][-1] + "\x1e"]] + rows[i + 1 :],
    "header only": lambda rows, i: [],
    "one row": lambda rows, i: rows[:1],
}


@_settings
@given(_files(), st.sampled_from(sorted(_CORRUPTIONS)), st.integers(0, 7))
def test_rejected_files_give_the_same_error(tmp_path, case, corruption, at):
    header, rows, ending, blanks, final = case
    rows = _CORRUPTIONS[corruption](rows, at % len(rows))
    blanks = [b for b in blanks if b <= len(rows)]
    expected = _check(_text(header, rows, ending, blanks, final), tmp_path)
    assert isinstance(expected, str), corruption


@_settings
@given(_files(), st.sampled_from(["time", "x", "", " ", '"t"x', "T"]))
def test_wrong_first_header_gives_the_same_error(tmp_path, case, first):
    header, rows, ending, blanks, final = case
    text = _text([first] + header[1:], rows, ending, blanks, final)
    expected = _check(text, tmp_path)
    # '"t"x' unquotes to 't' followed by 'x': csv reads it as 'tx'
    assert isinstance(expected, str)


@pytest.mark.parametrize(
    "text",
    ["", "\n", "t", "t\n", "t,x1\r\n", "t,x1\n\n\n", "t,x1\r\r", "t\n0\n", "t\n0\n1", "t\n0\n \n1\n"],
)
def test_degenerate_files_give_the_same_outcome(tmp_path, text):
    _check(text, tmp_path)
