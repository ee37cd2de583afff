"""CSV rows of ``'%.17g'`` cells, formatted by integer arithmetic on arrays.

``paths._write_table`` states why the digits are exact and which cells fall
back to Python's formatting.  Here M * 5**k is formed as two uint64 words
from 32-bit limbs, and the digits are laid out by per-exponent tables.
"""
from __future__ import annotations

import functools

import numpy as np

_X_MIN, _X_MAX = -11, 16
_ONE, _U32, _LOW32 = np.uint64(1), np.uint64(32), np.uint64(0xFFFFFFFF)
_POW5 = np.array([5 ** (16 - x) for x in range(_X_MIN, _X_MAX + 1)], dtype=np.uint64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _U32

_WIDTH, _SEP = 32, 29  # bytes per cell slot; where its separator starts
_FALLBACK_WIDTH = 24  # the longest '%.17g' text: -2.2250738585072014e-308


# The tables are built on first use: importing the module allocates nothing.
@functools.cache
def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """D is read as five chunks of four digits, the first of them "000d".

    Returns the four digit values of each c in 0..9999 as one uint32 (bytes
    in reading order), and ends[i, c], one past the last nonzero digit of
    chunk i among D's 17 digits (0 for c == 0).
    """
    c = np.arange(10000, dtype=np.int16)
    digits = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    zeros = (c % 10 == 0).astype(np.int16) + (c % 100 == 0) + (c % 1000 == 0)
    starts = np.array([1, 5, 9, 13, 17], dtype=np.int16)[:, None]  # chunk ends
    ends = np.where(c > 0, starts - zeros, 0).astype(np.uint8)
    return digits.astype(np.uint8).view(np.uint32).ravel(), ends


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bytes of a cell slot but its digit values, per (X, digits, sign).

    A cell is written into a slot of 32 bytes, and zero bytes are dropped
    when the block is joined.  With Z = "0000" followed by D's digits, a cell
    reads Z[start:end] with a decimal point after Z[point], so the "0.000" of
    1e-4 <= |v| < 1 comes from Z's leading zeros.  Z[j] is byte 3 + j before
    the point and byte 4 + j after it; the sign is byte 0, "e-XX" bytes
    25-28 and the separator bytes 29-30.  ``text`` has '0' where a digit is
    kept, so a stripped trailing zero stays a zero byte; ``before`` and
    ``after`` select the digit bytes on either side of the point.
    """
    x, sig, negative = (
        key.ravel()[:, None]
        for key in np.meshgrid(
            np.arange(_X_MIN, _X_MAX + 1), np.arange(1, 18), (0, 1), indexing="ij"
        )
    )
    sci = x < -4
    point = np.where(sci, 4, 4 + x)
    j = np.arange(21)
    kept = (j >= np.minimum(point, 4)) & (j < 4 + np.maximum(sig, point - 3))
    row, at = np.arange(x.size)[:, None], 3 + j + (j > point)
    text, before, after = (np.zeros((x.size, _WIDTH), dtype=np.uint8) for _ in range(3))
    text[row, at] = kept * ord("0")
    before[row, at] = (kept & (j <= point)) * 0xFF
    after[row, at] = (kept & (j > point)) * 0xFF
    text[row, 4 + point] = (kept & (j > point)).any(axis=1, keepdims=True) * ord(".")
    text[:, :1] = negative * ord("-")
    e_xx = [0 * x + ord("e"), 0 * x + ord("-"), ord("0") + -x // 10, ord("0") + -x % 10]
    text[:, _SEP - 4 : _SEP] = sci * np.hstack(e_xx)
    text[:, _SEP] = ord(",")
    return tuple(table.view(np.uint64) for table in (text, before, after))


def _round_digits(m: np.ndarray, e: np.ndarray, x: np.ndarray):
    """Truncated and half-even rounded m * 2**(e - 16) * 10**(16 - x), as uint64."""
    i = x - _X_MIN
    m_lo, m_hi = m & _LOW32, m >> _U32
    f_lo, f_hi = _POW5_LO.take(i), _POW5_HI.take(i)
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo
    lo = low + (mid << _U32)
    hi = m_hi * f_hi + (mid >> _U32) + (lo < low)
    shift = e - x
    right = np.maximum(-shift, 0).astype(np.uint64)
    left = np.maximum(shift, 0).astype(np.uint64)
    # right <= 63; when right == 0 the product is below 2**60, so hi == 0
    # and its shift by 64 is 0 however the platform shifts.
    truncated = ((hi << (np.uint64(64) - right)) | (lo >> right)) << left
    rest = lo & ((_ONE << right) - _ONE)
    # Up when rest > half, or rest == half and truncated is odd.
    up = (rest << _ONE) + (truncated & _ONE) > (_ONE << right)
    return truncated, truncated + up


def format_rows(block: np.ndarray) -> bytes:
    """The CSV bytes of a 2-d float block: ``'%.17g'`` cells, CRLF rows."""
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a > 1e-11) & (a < 1e17)
    # The other cells run through as 1.0 (no log10(0), no inf arithmetic)
    # and are overwritten at the end.
    a = np.where(fast, a, 1.0)
    # a = m * 2**(e - 16) with m < 2**53: a fast cell is a normal number.
    bits = a.view(np.int64)
    m = ((bits & (2**52 - 1)) | 2**52).view(np.uint64)
    e = (bits >> 52) - (1075 - 16)
    x = np.floor(np.log10(a)).astype(np.int64)
    np.maximum(x, _X_MIN, out=x)
    np.minimum(x, _X_MAX, out=x)
    truncated, d = _round_digits(m, e, x)
    # log10 can be one off next to a power of ten.  The truncated digits tell,
    # not the rounded ones: 1e-7 is 9.9999999999999995e-08, not 1e-07.  A
    # rounding carry to 10**17 is one more decade too.
    bad = np.flatnonzero((truncated < np.uint64(10**16)) | (d >= np.uint64(10**17)))
    if bad.size:
        x[bad] += np.where(truncated[bad] < np.uint64(10**16), -1, 1)
        d[bad] = _round_digits(m[bad], e[bad], x[bad])[1]

    # D's chunks from D = upper * 10**8 + lower in int32, numpy's fastest division.
    upper = d // np.uint64(10**8)
    lower = (d - upper * np.uint64(10**8)).astype(np.int32)
    upper = upper.astype(np.int32)
    first = upper // 10**8
    upper -= first * 10**8
    hi, lo = upper // 10**4, lower // 10**4
    chunks = np.stack([first, hi, upper - hi * 10**4, lo, lower - lo * 10**4]).astype(np.intp)
    chunk_digits, chunk_ends = _chunk_tables()
    # sig is where D's last nonzero chunk ends: the fifth's, but for 0000.
    sig = chunk_ends[4].take(chunks[4])
    short = np.flatnonzero(sig == 0)
    if short.size:
        sig[short] = chunk_ends[np.arange(5)[:, None], chunks[:, short]].max(axis=0)
    key = ((x - _X_MIN) * 17 + sig - 1) * 2 + np.signbit(v)

    # Chunk digits fill uint32 words 1-5 of a slot, so Z[j] is byte 3 + j.
    words = np.zeros((v.size, _WIDTH // 4), dtype=np.uint32)
    for i, word in enumerate(chunk_digits.take(chunks), start=1):
        words[:, i] = word
    digits = words.view(np.uint64)
    shifted = np.zeros_like(digits)  # the digits one byte on
    shifted.view(np.uint8).ravel()[1:] = digits.view(np.uint8).ravel()[:-1]
    text, before, after = _layouts()
    out = text.take(key, axis=0)
    out += digits & before.take(key, axis=0)
    out += shifted & after.take(key, axis=0)
    out = out.view(np.uint8)
    out[block.shape[1] - 1 :: block.shape[1], _SEP : _SEP + 2] = (ord("\r"), ord("\n"))
    slow = np.flatnonzero(~fast)
    if slow.size:
        fallback = np.array(["%.17g" % c for c in v[slow].tolist()], dtype=f"S{_FALLBACK_WIDTH}")
        out[slow, :_SEP] = 0
        out[slow, :_FALLBACK_WIDTH] = fallback.view(np.uint8).reshape(-1, _FALLBACK_WIDTH)
    return out.tobytes().translate(None, b"\0")
