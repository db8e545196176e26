"""Whole-array text formatting for the dump writers.

``text_rows`` turns equal-length columns into the lines "c0 c1 ... ck" as
bytes: a float column prints each value exactly as ``format(x, ".17g")``
does, an integer column as ``str``.  Rows go out in blocks of about
``BLOCK_VALUES`` values, so the temporaries stay small and in cache.  The
blocks are formatted on both cores, two at a time: ``_parallel.drain``
hands one to the calling thread and one to its helper, and the pair is
yielded in order before the next is formatted.

A float x whose decimal exponent X lies in -6..16 (1e-6 <= |x| < 1e17,
up to rounding) takes the vectorized path.  Its 17 significant digits are
the integer N = round(|x| * 10^k), k = 16 - X, rounded half to even on the
exact binary value, as Python rounds.  For 0 <= k <= 22 the power 10^k is
a double, so Dekker's product gives |x| * 10^k = hi + lo exactly.  With
the exponent right, hi + lo lies in [1e16, 1e17); hi is then an even
integer (1e16 > 2^53), and round(hi + lo) = hi + rint(lo) because rint
rounds half to even.  X starts from floor(log10|x|) and is corrected by
one wherever hi + lo falls outside that window.  A value still outside it,
and every zero, inf, nan, subnormal or value out of the window, is
formatted by ``format`` one at a time.  The text is laid out one
character column at a time over the values sorted by exponent, then
scattered back to one zero-padded row of bytes per value; the zero bytes
are squeezed out at the end.
"""

import itertools

import numpy as np

from ._parallel import drain

BLOCK_VALUES = 1 << 16

# widest ".17g" text: "-2.2250738585072014e-308"
FLOAT_WIDTH = 24

_K_MAX = 22  # 10^k is exact in float64 up to k = 22
_POW10 = 10.0 ** np.arange(_K_MAX + 1)
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
_SLOW_KEY = 127  # sorts after every decimal exponent of the fast path
_ZERO, _DOT, _MINUS = ord("0"), ord("."), ord("-")


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


_P10_HI, _P10_LO = _split(_POW10)


def _scaled(ax, k):
    """|x| * 10^k as hi + lo, exactly (Dekker's product)."""
    hi = ax * _POW10[k]
    ah, al = _split(ax)
    bh, bl = _P10_HI[k], _P10_LO[k]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, lo


def _window_side(hi, lo):
    """-1 where hi + lo < 1e16, +1 where hi + lo >= 1e17, 0 in between."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.int64) - below


def _significands(ax):
    """17-digit decimal significands and exponents of the magnitudes ``ax``.

    Returns (ok, n, exponent): ``ok`` marks the values the fast path
    covers; for those, in order, ``n`` (int64, in [1e16, 1e17)) holds the
    rounded significand and ``exponent`` its decimal exponent, so the
    value is n * 10^(exponent - 16) to 17 digits.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = np.floor(np.log10(ax))
    ok = (estimate >= 16 - _K_MAX - 1) & (estimate <= 17)
    ax = ax[ok]
    k = np.clip(16 - estimate[ok].astype(np.int64), 0, _K_MAX)
    hi, lo = _scaled(ax, k)
    side = _window_side(hi, lo)
    off = np.flatnonzero(side)
    if len(off):
        k[off] = np.clip(k[off] - side[off], 0, _K_MAX)
        hi[off], lo[off] = _scaled(ax[off], k[off])
        side[off] = _window_side(hi[off], lo[off])
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # a significand rounding up to 1e17 would carry into the exponent; no
    # double of the window lies that close below a power of ten, and such
    # a value would be left to ``format``
    good = (side == 0) & (n < 10**17)
    if not good.all():
        ok[np.flatnonzero(ok)[~good]] = False
        n, k = n[good], k[good]
    return ok, n, 16 - k


def _digit_rows(n):
    """The 17 decimal digits of each n in [1e16, 1e17), one row per digit."""
    digits = np.empty((17, len(n)), dtype=np.uint8)
    high = n // 10**9
    parts = ((high.astype(np.uint32), range(7, -1, -1)),
             ((n - high * 10**9).astype(np.uint32), range(16, 7, -1)))
    for rest, rows in parts:
        for j in rows:
            quotient = rest // 10  # uint32 floor division is fast; % is not
            digits[j] = rest - quotient * 10
            rest = quotient
    return digits


def float_fields(values):
    """``format(x, ".17g")`` of every value, as zero-padded rows of bytes.

    Returns a (len(values), FLOAT_WIDTH + 1) uint8 array; row i holds the
    ASCII text of values[i] followed by zero bytes, the last of them left
    for a separator.  Sorting by exponent first makes every step a slice
    over one layout: "ddd.ddd", "0.000ddd" or "d.ddde-05".
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    ok, n, exponent = _significands(np.abs(values))
    key = np.full(len(values), _SLOW_KEY, dtype=np.int8)
    key[ok] = exponent
    order = np.argsort(key, kind="stable")
    key = key[order]
    n_fast = len(n)
    sig = np.zeros(len(values), dtype=np.int64)
    sig[ok] = n
    digits = _digit_rows(sig[order[:n_fast]])
    exponent = key[:n_fast]
    # trailing zeros of the fraction go, and the point with them; the
    # digits before the point stay (fixed notation has exponent + 1)
    last = np.full(n_fast, 16, dtype=np.int8)
    zero = np.ones(n_fast, dtype=bool)
    for j in range(16, 0, -1):
        zero &= digits[j] == 0
        last -= zero
    whole = np.where((exponent > 0) & (exponent < 17), exponent, 0).astype(np.int8)
    keep = np.maximum(last, whole)
    digits += _ZERO
    for j in range(1, 17):
        digits[j] *= keep >= j
    dot = np.where(last > whole, _DOT, 0).astype(np.uint8)

    text = np.zeros((FLOAT_WIDTH, len(values)), dtype=np.uint8)
    text[0] = np.where(np.signbit(values[order]), _MINUS, 0)
    bounds = np.flatnonzero(key[1:] != key[:-1]) + 1
    for a, b in zip(np.r_[0, bounds].tolist(), np.r_[bounds, len(key)].tolist()):
        x = int(key[a])
        if x == _SLOW_KEY:
            break
        t, d = text[:, a:b], digits[:, a:b]
        if 0 <= x < 17:  # ddd.ddd
            t[1 : x + 2] = d[: x + 1]
            t[x + 2] = dot[a:b]
            t[x + 3 : 19] = d[x + 1 :]
        elif -4 <= x < 0:  # 0.000ddd
            t[1 : 2 - x] = _ZERO
            t[2] = _DOT
            t[2 - x : 19 - x] = d
        else:  # d.ddde-05
            t[1] = d[0]
            t[2] = dot[a:b]
            t[3:19] = d[1:]
            t[19:23] = np.frombuffer(f"e{x:+03d}".encode(), dtype=np.uint8)[:, None]
    if n_fast < len(values):
        slow = "".join(
            s.ljust(FLOAT_WIDTH, "\0")
            for s in map("{:.17g}".format, values[order[n_fast:]].tolist())
        )
        text[:, n_fast:] = np.frombuffer(slow.encode(), dtype=np.uint8).reshape(
            -1, FLOAT_WIDTH).T
    out = np.zeros((len(values), FLOAT_WIDTH + 1), dtype=np.uint8)
    out[order, :FLOAT_WIDTH] = text.T
    return out


def int_fields(values):
    """``str`` of every nonnegative integer, as zero-padded rows of bytes.

    Returns a (len(values), w + 1) uint8 array, w the widest text; like
    ``float_fields``, the last byte of each row is left for a separator.
    """
    values = np.asarray(values).astype(np.int64).ravel()
    if len(values) and values.min() < 0:
        raise ValueError("int_fields takes nonnegative integers")
    width = len(str(int(values.max()))) if len(values) else 1
    out = np.zeros((len(values), width + 1), dtype=np.uint8)
    rest = values
    for j in range(width - 1, -1, -1):
        quotient = rest // 10
        out[:, j] = rest - quotient * 10 + _ZERO
        rest = quotient
    leading = np.logical_and.accumulate(out[:, : width - 1] == _ZERO, axis=1)
    out[:, : width - 1][leading] = 0
    return out


def text_rows(*columns):
    """Yield the lines "c0 c1 ... ck" of equal-length columns, as bytes.

    Every line ends in a newline; floats print as ".17g", integers and
    booleans as ``str`` of the integer.  Each yielded chunk holds whole
    lines of about ``BLOCK_VALUES`` values; adjacent float columns are
    formatted in one call.  At most two chunks are held at a time.
    """
    columns = [np.asarray(c) for c in columns]
    kinds = [np.issubdtype(c.dtype, np.floating) for c in columns]
    step = max(1, BLOCK_VALUES // len(columns))
    starts = range(0, len(columns[0]), step)
    for first in range(0, len(starts), 2):
        pair = starts[first : first + 2]
        blocks = {}

        def format_block(start):
            blocks[start] = _block_rows([c[start : start + step] for c in columns], kinds)

        drain(format_block, pair)
        for start in pair:
            yield blocks[start]


def _block_rows(block, kinds):
    """The text of the lines of one block of columns, as bytes."""
    parts, widths = [], []
    for is_float, run in itertools.groupby(zip(kinds, block), key=lambda p: p[0]):
        run = [c for _, c in run]
        if is_float:
            fields = float_fields(np.column_stack(run).ravel())
            parts.append(fields.reshape(len(run[0]), -1))
            widths += [FLOAT_WIDTH + 1] * len(run)
        else:
            for column in run:
                parts.append(int_fields(column))
                widths.append(parts[-1].shape[1])
    buf = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    separators = np.cumsum(widths) - 1  # the last byte of each field
    buf[:, separators[:-1]] = ord(" ")
    buf[:, separators[-1]] = ord("\n")
    buf = buf.ravel()
    return buf[buf != 0].tobytes()
