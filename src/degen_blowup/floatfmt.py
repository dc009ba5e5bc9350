"""Vectorized ``'%.17g' % x`` for float64 arrays.

``format_g17`` turns each value into a slot of ``SLOT`` bytes whose
non-zero bytes, read in order, are exactly ``'%.17g' % x``; the 0 bytes are
padding for the caller to squeeze out, and the last byte of every slot is
0, free for a separator.  A slot is four little-endian 8-byte words:

    sign, "0.000" prefix | 17 digits and the point ... | ... "e+dd", free byte

where k = floor(log10|x|) is the decimal exponent and a part that a value
does not use stays 0.  The digits are D = round-half-even(|x| * 10**(16 - k)).
The product is a double-double, from Dekker's exact two-product (Dekker,
Numer. Math. 18, 1971) against a table of 10**q held as (hi, lo) pairs, so
D's rounding fraction is known to about 1e-14.  The values this cannot
place exactly go through ``'%.17g'`` itself (Gay's dtoa): nan, +-inf, |x|
outside (1e-280, 1e280), a rounding fraction within 1e-9 of 1/2 (exact
ties exist, e.g. 1250000000000000.25), and a log10 that is off by one
(the product's integer part outside [10**16, 10**17)).  Zero is laid out
as 1 with its digit made '0'.
"""

from __future__ import annotations

import numpy as np

SLOT = 32

# Decimal exponents of the vectorized path, 1e-280 < |x| < 1e280: every
# partial product of the two-product stays normal and finite there.
_K_MIN, _K_MAX = -280, 280
_TIE_WINDOW = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_WORD = np.dtype("<u8")  # byte i of a word is byte i of the text
# Values per pass: the temporaries of one pass stay in the core's cache.
_BLOCK = 4096


def _split(v):
    c = _SPLIT * v
    high = c - (c - v)
    return high, v - high


def _pow10() -> tuple[np.ndarray, np.ndarray]:
    """hi + lo = 10**(16 - k) for k = _K_MIN.._K_MAX: hi rounded, lo the rest rounded.

    Exact integers throughout, since int -> float and int / int round correctly.
    """
    hi, lo = [], []
    for q in range(16 - _K_MIN, 16 - _K_MAX - 1, -1):
        if q >= 0:
            h = float(10**q)
            rest = float(10**q - int(h))
        else:
            den = 10**-q
            h = 1 / den
            num, two = h.as_integer_ratio()
            rest = (two - num * den) / (den * two)
        hi.append(h)
        lo.append(rest)
    return np.array(hi), np.array(lo)


def _layout():
    """Per decimal exponent k: the prefix word, the exponent's word, and
    three-word masks over the 17 digits and the point: the bytes before
    the point, the digit bytes after it once shifted, the point itself, and
    '0' on the integer digits that %g never strips."""
    first, last, before, after, point, whole = (bytearray() for _ in range(6))
    for k in range(_K_MIN, _K_MAX + 1):
        prefix, exponent, p, integer = b"", b"", 1, 0
        if -4 <= k < 0:
            prefix, p = b"0.000"[: 1 - k], 18
        elif 0 <= k < 17:
            p = integer = k + 1
        else:
            exponent = b"e%+03d" % k
        first += (b"\0" + prefix).ljust(8, b"\0")
        last += (b"\0\0" + exponent).ljust(8, b"\0")
        before += (b"\xff" * p).ljust(24, b"\0")
        after += (b"\0" * (p + 1) + b"\xff" * (17 - p)).ljust(24, b"\0")
        point += (b"\0" * p + b".").ljust(24, b"\0")
        whole += (b"0" * integer).ljust(24, b"\0")
    point += bytes(24)  # taken at index -1, for a value with no fraction digits
    words = [np.frombuffer(bytes(t), _WORD) for t in (first, last, before, after, point, whole)]
    return *words[:2], *(w.reshape(-1, 3).T.copy() for w in words[2:])


def _digit_groups() -> np.ndarray:
    """The four digits of 0..9999, four bytes each, then at index + 10**4 the
    same with trailing '0's as 0 bytes, for a group no later digit follows."""
    n = np.arange(10000, dtype=np.uint16)
    chars = np.empty((2, 10000, 4), np.uint8)
    for j in range(4):
        chars[0, :, j] = 48 + n // 10 ** (3 - j) % 10
        chars[1, :, j] = chars[0, :, j] * (n % 10 ** (4 - j) != 0)
    return chars.view("<u4").ravel()


_HI, _LO = _pow10()
_HI_H, _HI_L = _split(_HI)
_FIRST, _LAST, _BEFORE, _AFTER, _POINT, _WHOLE = _layout()
_GROUPS = _digit_groups()


def _dtoa(values: np.ndarray) -> np.ndarray:
    """The per-value path: '%.17g' of each value in a zero-padded slot."""
    return np.array([b"%.17g" % v for v in values.tolist()], dtype=f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)


def format_g17(values: np.ndarray) -> np.ndarray:
    """Slots of '%.17g' text for float64 values, shape values.shape + (SLOT,)."""
    x = np.asarray(values, dtype=np.float64).ravel()
    slots = np.empty((x.size, SLOT), np.uint8)
    for start in range(0, x.size, _BLOCK):
        _format_block(x[start : start + _BLOCK], slots[start : start + _BLOCK])
    return slots.reshape(np.shape(values) + (SLOT,))


def _format_block(x: np.ndarray, out: np.ndarray) -> None:
    """Fill out[i] with the slot of x[i]."""
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    fast = (a > 1e-280) & (a < 1e280)
    a[~fast] = 1.0  # zero and the values left to _dtoa run through as 1
    fast |= zero
    ik = np.floor(np.log10(a)).astype(np.intp) - _K_MIN

    # |x| * 10**q = p + (err + a * lo) with p + err = a * hi exactly
    hi = _HI.take(ik)
    p = a * hi
    a_h, a_l = _split(a)
    hi_h = _HI_H.take(ik)
    hi_l = _HI_L.take(ik)
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    whole = np.floor(p)
    frac = (p - whole) + (err + a * _LO.take(ik))
    carry = np.floor(frac)
    frac -= carry
    floor_d = whole.astype(np.int64) + carry.astype(np.int64)
    d = floor_d + (frac > 0.5)
    placed = fast & (np.abs(frac - 0.5) > _TIE_WINDOW) & (floor_d >= 10**16) & (d < 10**17)

    # D = lead digit and four groups of four digits
    lead = d // 10**16
    d -= lead * 10**16
    upper = d // 10**8
    d -= upper * 10**8
    groups = np.empty((4, n), np.int64)
    groups[0] = upper // 10**4
    groups[1] = upper - groups[0] * 10**4
    groups[2] = d // 10**4
    groups[3] = d - groups[2] * 10**4
    stripped = np.empty((4, n), bool)
    stripped[3] = True
    stripped[2] = groups[3] == 0
    stripped[1] = d == 0
    stripped[0] = stripped[1] & (groups[1] == 0)
    np.add(groups, 10000, out=groups, where=stripped)
    chars = _GROUPS.take(groups)
    head = chars[1].astype(_WORD) << 32
    head |= chars[0]
    tail = chars[3].astype(_WORD) << 32
    tail |= chars[2]

    body = np.empty((3, n), _WORD)
    np.left_shift(head, 8, out=body[0])
    body[0] |= (lead + ord("0") - zero).astype(_WORD)
    np.left_shift(tail, 8, out=body[1])
    body[1] |= head >> 56
    np.right_shift(tail, 56, out=body[2])
    body |= _WHOLE.take(ik, axis=1)

    # the point follows the integer digits (the first digit in e-notation):
    # the digits after it move one byte up, and it stays only if one does
    shifted = body << 8
    shifted[1:] |= body[:-1] >> 56
    shifted &= _AFTER.take(ik, axis=1)
    dotted = (shifted[0] | shifted[1] | shifted[2]) != 0
    body &= _BEFORE.take(ik, axis=1)
    body |= shifted
    body |= _POINT.take(np.where(dotted, ik, -1), axis=1)
    body[2] |= _LAST.take(ik)

    words = out.view(_WORD)
    first = _FIRST.take(ik)
    first |= np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    words[:, 0] = first
    words[:, 1] = body[0]
    words[:, 2] = body[1]
    words[:, 3] = body[2]
    rows = np.flatnonzero(~placed)
    out[rows] = _dtoa(x[rows])
