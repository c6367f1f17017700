"""``float.__repr__`` of every value of a float64 array, computed in numpy.

:func:`float_texts` returns the exact text ``repr`` gives each value: the
shortest decimal that reads back as the same double, the one nearest to the
value among several such, laid out as Python lays it out. The digits come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
which finds them with three fixed-width products per value and no loop over
digits, so numpy runs it over a whole array at once:

- ``v = c 2^q`` is rounded to odd at three points, ``4 c``, ``4 c - 2`` (or
  ``4 c - 1`` at a power of two, whose lower neighbour is nearer) and ``4 c +
  2``, times ``2^q 10^-k``, where ``10^k`` is the largest power of ten at or
  below the rounding interval's width. ``10^-k`` is scaled into
  ``[2^125, 2^126)`` and rounded up to an integer ``g(k)``; its products
  with multipliers below ``2^60`` are formed from 32-bit limbs held in
  uint64, and what they leave out is Giulietti's.
- Of the candidates ``10 floor(s / 10)`` and ``10 floor(s / 10) + 10`` (one
  digit fewer), then ``s`` and ``s + 1``, it takes the first that alone lies
  in the rounding interval, and the nearer of ``s`` and ``s + 1`` (the even
  one on a tie) when both do. Java's reference tries the shorter pair only
  from ``s >= 100`` on, to keep two digits; Python prints the shortest, and
  ``s`` has 16 or 17 digits for every normal double, so the test always
  runs here.

The layout is Python's: with the decimal point ``decpt`` digits after the
first digit, positional when ``-4 < decpt <= 16`` (``0.0001``, ``123.0``,
``1234567890123456.0``), otherwise ``d[.ddd]e±XX`` with at least two
exponent digits (``1e-05``, ``1e+16``). The digit characters of each value
fill a 24-byte row of a uint8 buffer, with its trailing zeros left NUL. Each
run of values with the same sign and ``decpt`` is laid out with a few column
operations, moving the integer digits one column left to make room for the
point or writing ``0.000`` before the digits, and its rows are turned into
``str`` through a ``<U`` view of the columns the texts take.

Zeros, subnormals, infinities and nan take ``repr`` itself. All arithmetic
on digits is uint64 with uint64 operands, which numpy keeps in uint64 on
every version (a Python int beside a uint64 array would turn it into float64
under numpy 1.x's value-based casting).
"""

import numpy as np

__all__ = ["float_texts"]

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_ONES = _U(0x0101_0101_0101_0101)
_CHUNK = 4096  # values per pass, so that the kernel's working set stays below the encoder's peak


def _g_halves():
    """Giulietti's ``g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1`` for
    ``k`` in ``[-324, 292]``, as its halves ``g1 = g >> 63`` and ``g0 = g mod
    2^63``: ``10^-k`` rounded up to 126 bits."""
    g = []
    p = 1
    for _ in range(325):  # k = 0, -1, ..., -324
        shift = 125 - (p.bit_length() - 1)
        g.append((p << shift if shift >= 0 else p >> -shift) + 1)
        p *= 10
    g.reverse()
    p = 10
    for _ in range(292):  # k = 1, ..., 292
        g.append((1 << (125 + p.bit_length())) // p + 1)
        p *= 10
    return (np.array([x & (2**63 - 1) for x in g], dtype=np.uint64),
            np.array([x >> 63 for x in g], dtype=np.uint64))


_G0, _G1 = _g_halves()


def _step(g0, g1, j):
    """``floor(g 2^j 2^-64)`` as ``hi 2^63 + lo`` with ``lo < 2^63``, and ``g0 2^j
    mod 2^64``: what moving ``rop``'s multiplier by ``2^j`` adds to its ``T``,
    and the low bits whose carry it leaves out."""
    right = _U(64) - j
    lo = ((g1 << (j - _U(1))) & _M63) + (g0 >> right)
    return (g1 >> right) + (lo >> _U(63)), lo & _M63, g0 << j


def _row_constants(row):
    """``k``, and the other constants of each row as one array: ``h + 2``,
    the shift from ``c`` to ``4c << h``, the 32-bit limbs of ``g(k)``'s
    halves and the :func:`_step` to ``4c + 2`` and to ``4c - 2`` (``4c - 1``
    at a power of two). A row is a biased exponent, plus 2048 at a power of
    two above the smallest normal."""
    q = (row & _U(0x7FF)).astype(np.int64) - 1075
    power = row >> _U(11)
    k = (q * 661_971_961_083 - 274_743_187_321 * power.astype(np.int64)) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g0, g1 = _G0[k + 324], _G1[k + 324]
    return k, np.array([
        h + _U(2), g0 & _M32, g0 >> _U(32), g1 & _M32, g1 >> _U(32),
        *_step(g0, g1, h + _U(1)), *_step(g0, g1, h + _U(1) - power),
    ])


def _digits(bits):
    """Shortest digits ``d`` and exponent ``k`` of normal doubles: ``|v| = d 10^k``.

    ``k`` is ``floor(log10 2^q)``, or ``floor(log10 (3/4 2^q))`` at a power
    of two above the smallest normal, whose interval reaches only half as
    far down, and ``h = q + floor(log2 10^-k) + 2`` puts ``g(k) (4c << h)
    2^-127`` at four times ``v 10^-k``; the integer forms of these logarithms
    are Giulietti's. ``vb``, ``vbl`` and ``vbr`` are his ``rop(g, cp)``: ``g
    cp 2^-127`` rounded to odd, with ``cp`` the multiplier shifted by ``h``,
    as ``T = floor(g1 cp / 2) + floor(g0 cp 2^-64)``, ``rop = T >> 63``, odd
    when ``T mod 2^63`` is not 0. The low bits the reference leaves out hold
    the error of ``g(k)``, which is ``10^-k`` rounded up, so that an exact
    multiple stays exact. ``vb``'s ``T`` is formed from 32-bit limbs; the
    other two differ from it by a :func:`_step` and a carry.
    """
    t = bits & _U(2**52 - 1)
    exponent = (bits >> _U(52)) & _U(0x7FF)
    power = (t == 0) & (exponent > 1)
    # what depends on the exponent alone, once per run of equal rows, which
    # sorted values come in
    row = exponent | power * _U(2048)
    starts = np.flatnonzero(row[1:] != row[:-1]) + 1
    lengths = np.diff(starts, prepend=0, append=row.size)
    k, constants = _row_constants(row[np.concatenate([[0], starts])])
    k = np.repeat(k, lengths)
    h, g00, g01, g10, g11, up_hi, up_lo, up_low, down_hi, down_lo, down_low = np.repeat(
        constants, lengths, axis=1
    )
    cp = (t | _U(2**52)) << h
    p0, p1 = cp & _M32, cp >> _U(32)
    low = g00 * p0
    mid = g01 * p0 + g00 * p1 + (low >> _U(32))
    low0 = (mid << _U(32)) | (low & _M32)  # g0 cp mod 2^64
    x1 = g01 * p1 + (mid >> _U(32))  # floor(g0 cp 2^-64)
    low = g10 * p0
    mid = g11 * p0 + g10 * p1 + (low >> _U(32))
    z = (((mid << _U(32)) | (low & _M32)) >> _U(1)) + x1
    high = g11 * p1 + (mid >> _U(32)) + (z >> _U(63))
    z &= _M63  # T = high 2^63 + z
    vb = high | (z != 0)
    w = z + up_lo + (low0 + up_low < low0)
    vbr = high + up_hi + (w >> _U(63)) | ((w & _M63) != 0)
    w = z - down_lo - (low0 < down_low)  # below 0 it wraps, and bit 63 is the borrow
    vbl = high - down_hi - (w >> _U(63)) | ((w & _M63) != 0)

    odd = t & _U(1)  # an odd c's interval leaves out its ends
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    four = sp10 << _U(2)
    upin = vbl <= four
    wpin = four + _U(40) <= vbr
    four = vb & ~_U(3)
    uin = vbl <= four
    win = four + _U(4) <= vbr
    nearer_up = (vb & _U(3)) + (s & _U(1)) > _U(2)  # past the middle, or on it with s odd
    d = np.where(upin | wpin, sp10 + _U(10) * wpin, s + (win & (nearer_up | ~uin)))
    return d, k


def _digit_rows(d):
    """Rows of 24 bytes holding the 17 digit characters of each ``d`` below
    ``10^17`` in columns 7 to 23, with ``d`` scaled up to 17 digits and its
    trailing zeros left NUL, and NUL in columns 0 to 6."""
    words = np.empty((d.size, 3), dtype="<u8")
    lead = d // _U(10**16)
    rest = d - lead * _U(10**16)
    words[:, 0] = (lead + _U(48)) << _U(56)
    eight = np.empty((2, d.size), dtype=np.uint64)
    np.floor_divide(rest, _U(10**8), out=eight[0])
    np.subtract(rest, eight[0] * _U(10**8), out=eight[1])
    # eight digits to eight bytes, the first digit lowest: split into 4 + 4,
    # 2 + 2 and 1 + 1 digits per lane with exact multiply-shift divisions
    high = eight // _U(10_000)
    x = high | (eight - high * _U(10_000)) << _U(32)
    high = (x * _U(10_486) >> _U(20)) & _U(0x7F_0000_007F)
    x = high | (x - high * _U(100)) << _U(16)
    high = (x * _U(103) >> _U(10)) & _U(0x000F_000F_000F_000F)
    x = high | (x - high * _U(10)) << _U(8)
    # every byte up to the last nonzero digit of the 16 gets its "0"
    nonzero = x | x >> _U(8)
    nonzero |= nonzero >> _U(16)
    nonzero |= nonzero >> _U(32)
    nonzero[0] |= (nonzero[1] != 0) * _ONES
    nonzero = (nonzero + _U(0x7F7F_7F7F_7F7F_7F7F)) >> _U(7) & _ONES
    x += nonzero * _U(48)
    words[:, 1] = x[0]
    words[:, 2] = x[1]
    return words.view(np.uint8)


def _exponent_texts(rows, decpt, negative):
    """``d.ddde±XX`` texts of a run of rows of :func:`_digit_rows`."""
    off = int(negative)
    buf = np.zeros((rows.shape[0], 24), dtype=np.uint8)
    if negative:
        buf[:, 0] = 45
    buf[:, off] = rows[:, 7]
    buf[:, off + 1] = 46
    buf[:, off + 2 : off + 18] = rows[:, 8:]
    n = np.count_nonzero(rows, axis=1)  # no point after a single digit
    at = np.arange(n.size) * 24 + off + n + (n > 1)
    e = decpt - 1
    mag = np.abs(e)
    wide = mag >= 100
    flat = buf.reshape(-1)
    flat[at] = 101
    flat[at + 1] = np.where(e < 0, 45, 43)
    flat[at + 2] = 48 + np.where(wide, mag // 100, mag // 10)
    flat[at + 3] = 48 + np.where(wide, mag // 10 % 10, mag % 10)
    flat[at + 4] = np.where(wide, 48 + mag % 10, 0)
    return buf.astype("<u4").view("<U24").ravel().tolist()


def _texts(rows, decpt, negative, key):
    """Texts of normal doubles from their :func:`_digit_rows`, which are edited
    in place, one run of equal ``key`` (sign and layout) at a time."""
    texts = []
    edges = np.flatnonzero(key[1:] != key[:-1]) + 1
    for a, b in zip([0, *edges.tolist()], [*edges.tolist(), key.size]):
        run = rows[a:b]
        p = int(decpt[a])
        if 0 < p <= 16:  # ddd.ddd, a "0" after the point if nothing else
            for j in range(6, 6 + p):  # the integer digits one column left
                np.maximum(run[:, j + 1], 48, out=run[:, j])
            run[:, 6 + p] = 46
            np.maximum(run[:, 7 + p], 48, out=run[:, 7 + p])
            start = 6
        elif -4 < p <= 0:  # 0.000ddd
            run[:, 5 + p : 7] = 48
            run[:, 6 + p] = 46
            start = 5 + p
        else:
            texts += _exponent_texts(run, decpt[a:b], negative[a])
            continue
        if negative[a]:
            start -= 1
            run[:, start] = 45
        texts += run[:, start:].astype("<u4").view(f"<U{24 - start}").ravel().tolist()
    return texts


def _normal_texts(bits):
    """Texts of normal doubles given as their bit patterns."""
    negative = bits >> _U(63)
    d, k = _digits(bits)
    wide = d >= _U(10**16)
    decpt = k + 16 + wide
    key = np.clip(decpt, -4, 17) + 22 * negative.astype(np.int64)
    return _texts(_digit_rows(np.where(wide, d, d * _U(10))), decpt, negative, key)


def float_texts(values):
    """``[float.__repr__(v) for v in values.ravel()]`` for a float64 array.

    Any order gives the same texts, but the work per call grows with the
    number of runs of values with the same sign and exponent, so it is
    fastest on values sorted by their bit patterns.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    exponent = (bits >> _U(52)) & _U(0x7FF)
    normal = (exponent != 0) & (exponent != _U(0x7FF))
    if not normal.all():
        texts = float_texts(bits[normal].view(np.float64))
        at = np.flatnonzero(~normal)
        cuts = (at - np.arange(at.size)).tolist()  # the normal values before each other one
        spliced = []
        for start, stop, value in zip([0, *cuts], cuts, bits[at].view(np.float64).tolist()):
            spliced += texts[start:stop]
            spliced.append(repr(value))
        return spliced + texts[cuts[-1] :]
    texts = []
    for start in range(0, bits.size, _CHUNK):
        texts += _normal_texts(bits[start : start + _CHUNK])
    return texts
