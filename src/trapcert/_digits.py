"""The bytes that `'%.17g' % v`, `'%r' % v`, `'%.6f' % v` and `'%d' % v`
write, for a column, or a stack of columns, at once.

A formatter returns a uint8 canvas, one row per value, in which byte 0
marks "no byte"; `join` lays canvases and literals side by side and drops
those bytes, as bytes.  The digits are those of an exact integer N, after
Loitsch, "Printing floating-point numbers quickly and accurately with
integers" (PLDI 2010); leading zeros are byte 0, the units digit kept:

- `%.17g` and `%r`: V = |x| 10^s, s = 16 - E.  10^s is held as a
  double-double hi + lo, and TwoProduct (Veltkamp split, as numpy has no
  fma) makes |x| hi = p + e exact.  E is decided on the unrounded p + e.
  Where 10^s is a double (lo == 0) V is exact; elsewhere p + e is off by
  less than 1e-14.  `%.17g` writes N17 = round-half-even(V).  `%r` writes
  the shortest digits that read back as x, the nearest of them (Adams,
  "Ryu", PLDI 2018): of the integers within h, half an ulp of x scaled
  alike, of V, the multiple of 100, else 10, else 1 nearest V (2h < 23).
  A value within 2^-40 of a tie 10^s does not settle, and for `%r` one
  within 2^-30 of a tie or of an end of that interval (which counts for
  an even significand only), or a power of two, whose interval is
  asymmetric, is left to `%`.  A table per layout is gathered one output
  column at a time; `%r` is fixed for -4 <= E < 16, with ".0" on integers.
- `%.6f`: N = round-half-even(|x| 10^6), exact by TwoProduct; a tie of the
  rounded product is decided by the sign of its error.  One layout: sign,
  integer digits, ".", 6 decimals; the sign only where N != 0.
- `%d`: the digits of an integer 1 <= v < 10^16.

Zero is a layout case; subnormal, non-finite and out-of-range floats get
`%`, one by one.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Union

import numpy as np

# `%.17g` and `%r` are computed for 1e-280 <= |x| < 1e290: every 10^s (s = 16 - E, E
# one off) is in the table, and no Veltkamp split overflows
_G_RANGE = (1e-280, 1e290)
_S_LO, _S_HI = 16 - 292, 16 + 282
_NEAR_TIE = 2.0 ** -40
_NEAR_END = 2.0 ** -30
_F_MAX = 2.0 ** 32  # |x| 10^6 < 2^52, where every half-integer is a double
_E16 = 10 ** 16
_E_MAX = 299
_POW10 = 10 ** np.arange(17, dtype=np.int64)
_ZERO, _MINUS = ord("0"), ord("-")
# a `%.17g` or `%r` source row: [no byte, sign, d0, 16 digits, ".", "0", "e",
# exponent sign, exponent digits]
_SIGN, _D, _DOT, _NOUGHT, _E = 1, list(range(2, 19)), 19, 20, 21


def _power(s):
    """10^s as hi + lo, each correctly rounded (so is int true division)."""
    t = 10 ** abs(s)
    if s >= 0:
        return float(t), float(t - int(float(t)))
    num, den = (1 / t).as_integer_ratio()
    return 1 / t, (den - num * t) / (den * t)


@functools.lru_cache(maxsize=None)
def _layouts(template):
    """E from which `template` is scientific, and per (fixed notation at
    E = -4..top - 1, or scientific; digits kept 1..17) the source bytes of
    its field in order, a column each, and their count.  Built on first use."""
    top, integral = (16, [_DOT, _NOUGHT]) if template == "%r" else (17, [])
    rows = []
    for exp in [*range(-4, top), None]:
        for kept in range(1, 18):
            point = ([_DOT] + _D[1:kept] if kept > 1 else []) + list(range(_E, 26))
            if exp is not None and exp < 0:
                point = [_NOUGHT, _DOT] + [_NOUGHT] * (-exp - 1) + _D[:kept]
            elif exp is not None:
                point = _D[:exp + 1] + ([_DOT] + _D[exp + 1:kept] if kept > exp + 1 else integral)
            rows.append([_SIGN] + ([_D[0]] if exp is None else []) + point)
    width = max(map(len, rows))
    return (top, np.array([row + [0] * (width - len(row)) for row in rows], np.intp).T.copy(),
            np.array(list(map(len, rows))))


class _Tables(NamedTuple):
    groups: np.ndarray  # "0000".."9999" as uint32
    hi: np.ndarray  # 10^s = hi + lo for s in [_S_LO, _S_HI]; lo == 0 where
    lo: np.ndarray  # 10^s is a double
    tails: np.ndarray  # exponent sign and digits as uint32, from E = -_E_MAX


@functools.lru_cache(maxsize=None)
def _tables() -> _Tables:
    """Built on first use, so importing the module stays cheap."""
    groups = np.stack([np.arange(10_000) // 10 ** k % 10 for k in (3, 2, 1, 0)], axis=1)
    hi, lo = np.array([_power(s) for s in range(_S_LO, _S_HI + 1)]).T
    # two exponent digits at least
    tails = b"".join(b"%c%c%02d" % (b"+-"[e < 0], _ZERO + abs(e) // 100 if abs(e) > 99 else 0,
                                     abs(e) % 100) for e in range(-_E_MAX, _E_MAX + 1))
    return _Tables((groups + _ZERO).astype(np.uint8).view(np.uint32).ravel(), hi, lo,
                   np.frombuffer(tails, np.uint32))


def _two_product(a, b):
    """p = fl(a b) and e with p + e = a b exactly."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _digits16(n, units=0) -> np.ndarray:
    """The 16 digits of each n < 10^16, leading zeros before column `units` byte 0."""
    groups, high = _tables().groups, n // 10 ** 8
    digits = np.empty((len(n), 4), np.uint32)
    # the halves below 10^8 as int32, which divides faster than int64
    for k, half in enumerate((high.astype(np.int32), (n - high * 10 ** 8).astype(np.int32))):
        top = half // 10 ** 4
        digits[:, 2 * k], digits[:, 2 * k + 1] = groups.take(top), groups.take(half - top * 10 ** 4)
    digits = digits.view(np.uint8)
    digits[:, :units] *= n[:, None] >= _POW10[15:15 - units:-1]
    return digits


def _field(src, table, case) -> np.ndarray:
    """Row i is src[i, table[:, case[i]]], one output column at a time."""
    flat, base = src.ravel(), np.arange(0, src.size, src.shape[1])
    field = np.empty((len(src), len(table)), np.uint8)
    for w, column in enumerate(table):
        field[:, w] = flat.take(base + column.take(case))
    return field


def _fallback(field, values, slow, template) -> np.ndarray:
    """`field` with `template % v` in its `slow` rows, widened to fit."""
    rows = np.flatnonzero(slow)
    if len(rows):
        texts = [(template % v).encode("ascii") for v in values[rows].tolist()]
        field = np.pad(field, ((0, 0), (0, max(0, max(map(len, texts)) - field.shape[1]))))
        field[rows] = 0
        for row, text in zip(rows.tolist(), texts):
            field[row, :len(text)] = np.frombuffer(text, np.uint8)
    return field


def d(values) -> np.ndarray:
    """Canvas of `'%d' % v`, for integers 1 <= v < 10^16."""
    values = np.asarray(values, dtype=np.int64)
    if not ((values >= 1) & (values < _E16)).all():
        raise ValueError("the '%d' canvas takes integers 1 <= v < 10^16")
    return _digits16(values, 15)


def f6(values) -> np.ndarray:
    """Canvas of `'%.6f' % v`, unsigned where v rounds to zero."""
    shape = np.shape(values)
    values = np.asarray(values, dtype=float).ravel()
    with np.errstate(invalid="ignore"):
        slow = ~(np.abs(values) < _F_MAX)
    p, e = _two_product(np.abs(np.where(slow, 0.0, values)), 1e6)
    r = np.rint(p)
    tie = np.abs(p - r) == 0.5
    n = np.where(tie & (e != 0), p + np.copysign(0.5, e), r).astype(np.int64)
    del p, e, r, tie
    places = len(str(n.max(initial=0) // 10 ** 6))  # integer digits of the largest
    field = np.insert(_digits16(n, 9)[:, 10 - places:], [0, places], [0, ord(".")], axis=1)
    np.copyto(field[:, 0], _MINUS, where=np.signbit(values) & (n != 0))
    return _fallback(field, values, slow, "%.6f").reshape(*shape, -1)


def g17(values) -> np.ndarray:
    """Canvas of `'%.17g' % v`."""
    return _kernel(values, "%.17g")


def r(values) -> np.ndarray:
    """Canvas of `'%r' % v`: repr(v), which json.dumps writes."""
    return _kernel(values, "%r")


def _kernel(values, template) -> np.ndarray:
    shape = np.shape(values)
    values = np.asarray(values, dtype=float).ravel()
    a = np.abs(values)
    zero = values == 0  # laid out as 1.0 is, with the digit 0
    with np.errstate(invalid="ignore"):
        slow = ~((a >= _G_RANGE[0]) & (a < _G_RANGE[1]) | zero)
    a[slow | zero] = 1.0
    exp = np.floor(np.log10(a)).astype(np.int64)
    p, e, inexact = _scaled(a, exp)
    # log10 may be one off next to 10^E: move E until 10^16 <= p + e < 10^17
    off = _outside(p, e)
    redo = np.flatnonzero(off)
    if len(redo):
        exp[redo] += off[redo]
        p[redo], e[redo], inexact[redo] = _scaled(a[redo], exp[redo])
        slow[redo] |= _outside(p[redo], e[redo]) != 0
    # p >= 10^16 > 2^53 is an even integer, so N17 = p + rint(e) rounds half-even
    rounded = np.rint(e)
    n = p.astype(np.int64) + rounded.astype(np.int64)
    e -= rounded  # V - N17
    del off, rounded
    if template == "%r":  # the multiple of 100, 10 or 1 nearest V within h
        m = np.frexp(a)[0]
        half = p * 2.0 ** -54 / m  # h
        x = n % 100 + e  # V above the multiple of 100 at or below N17
        step, near = x, m == 0.5
        for unit in (1, 10, 100):
            nearest = np.rint(x / unit) * unit
            dist = np.abs(nearest - x)
            inside = dist < half
            step = np.where(inside, nearest, step)
            near |= np.abs(dist - half) < _NEAR_END  # an end of the interval
            near |= inside & (np.abs(dist - unit / 2) < _NEAR_END)  # a tie inside it
        n += step.astype(np.int64) - n % 100
        del m, half, x, step, nearest, dist, inside
    else:  # a tie that 10^s does not settle
        near = inexact & (np.abs(np.abs(e) - 0.5) < _NEAR_TIE)
    slow |= near & ~zero
    # freed before the layout is built, to lower the peak
    del a, p, e, inexact, near
    carry = n == 10 * _E16
    n[carry] = _E16
    exp += carry
    src = np.zeros((len(n), 26), np.uint8)
    np.copyto(src[:, _SIGN], _MINUS, where=np.signbit(values))
    src[:, _D[0]] = n // _E16 + _ZERO
    n %= _E16
    src[:, _D[1]:_DOT] = _digits16(n)
    src[:, _DOT:_E + 1] = np.frombuffer(b".0e", np.uint8)
    src[:, _E + 1:] = _tables().tails[exp + _E_MAX].view(np.uint8).reshape(-1, 4)
    kept = 17 - np.argmax(src[:, _D[-1]:_SIGN:-1] != _ZERO, axis=1)
    np.copyto(src[:, _D[0]], _ZERO, where=zero)
    top, table, lengths = _layouts(template)
    case = np.where((exp >= -4) & (exp < top), exp + 4, top + 4) * 17 + kept - 1
    del n, exp, carry, kept
    # only as wide as the longest field of the call
    field = _field(src, table[:lengths.take(case).max(initial=1)], case)
    return _fallback(field, values, slow, template).reshape(*shape, -1)


def _scaled(a, exp):
    """p + e ~ a 10^(16 - exp), and whether 10^(16 - exp) is inexact."""
    tables, s = _tables(), 16 - exp - _S_LO
    p, e = _two_product(a, tables.hi[s])
    lo = tables.lo[s]
    return p, e + a * lo, lo != 0


def _outside(p, e):
    """-1 where p + e < 10^16, +1 where p + e >= 10^17, else 0."""
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    return high.astype(np.int64) - low


def join(parts: List[Union[bytes, np.ndarray]]) -> bytes:
    """The rows of literals and canvases side by side, as one bytes object.
    Empties `parts`, so that each canvas is freed once it is copied."""
    rows = next(len(p) for p in parts if isinstance(p, np.ndarray))
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    canvas = np.empty((rows, sum(widths)), np.uint8)
    start = 0
    for width in widths:
        part = parts.pop(0)
        canvas[:, start:start + width] = (np.frombuffer(part, np.uint8)
                                          if isinstance(part, bytes) else part)
        start += width
    text = canvas.tobytes()
    del canvas
    return text.translate(None, b"\0")
