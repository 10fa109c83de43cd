"""Vectorised shortest round-trip formatting of float64 arrays.

``repr_cells`` gives, for every element of a float64 array, the bytes of
its ``repr``, without a per-element call.  Digit selection is Giulietti's
Schubfach ("The Schubfach way to render doubles", 2020, the algorithm of
OpenJDK's ``Double.toString`` since JDK 19): the interval of reals that
round to a double is scaled by a 126-bit upper approximation g of a power
of ten, and the shortest decimal in it (the closest, ties to even) is
read off the scaled interval's centre and ends.  Every 64 x 126-bit
product is taken in 32-bit limbs, so each step is a numpy integer
operation.  Integers are formatted the same way; zero is given no digits.

The digits are laid out in ``repr``'s two forms: positional when the
decimal point position ``decpt`` (value = 0.d1d2... x 10^decpt) lies in
(-4, 16], with ``.0`` after an integer, and ``d.ddde+XX`` otherwise.
Each cell is MAX_CELL = 32 bytes with NUL holes where a character is
absent; dropping the NULs leaves exactly ``repr``.  The sign, the first
digit and the exponent have fixed bytes; the point is made room for by
moving the digits after it up a byte, one 8-bit shift of the whole chunk
under a mask.  The mask and the characters ORed in (``0.000``, the
digits' ``0``, the point) are rows of small tables chosen by decpt and
the count of significant digits.  Non-finite and subnormal values are
formatted by ``float.__repr__`` one at a time; for the smallest
subnormals (5e-324, 1e-323) Schubfach's two-digit rule and ``repr`` differ.
"""

from __future__ import annotations

import numpy as np

__all__ = ["repr_cells", "MAX_CELL"]

_U = np.uint64
_M32, _M63 = _U(0xFFFFFFFF), _U((1 << 63) - 1)
_MANTISSA, _HIDDEN = _U((1 << 52) - 1), _U(1 << 52)
_NORMAL_SPAN = _U(0x7FF0000000000000 - (1 << 52))  # bits - 2^52 of the normal doubles
_K_MIN, _K_MAX = -324, 292  # floor(q log10 2) over the exponents q of doubles
_P10 = 10 ** np.arange(18, dtype=np.uint64)
_PAD = np.array([1] + [10 ** (17 - n) for n in range(1, 18)] + [1], dtype=np.uint64)
_ROUND_UP = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=np.uint64)  # by vb & 7: ties to even

# A cell is four little-endian words.  Byte 0 holds the sign, 1..5 "0." and up to
# three zeros before the digits of 0 < |x| < 1, 7 the first digit, 8..23 the other
# 16 and 25..29 "e", the exponent's sign and its digits.  A point after digit j
# (1..16) goes into byte 7 + j and the digits after it move up a byte, the last
# into byte 24.  Bytes 6, 30 and 31 are always NUL.
MAX_CELL = 32


def _layout_tables() -> tuple[np.ndarray, ...]:
    """By decpt - _K_MIN: the exponent word and the layout class x 17.  By layout
    class x 17 + the count of digits after the first up to the last nonzero one:
    the head mask (the bytes before the point, and the exponent's) and the
    characters ORed in.  Classes 0..15 are positional with decpt 1..16, 16 is the
    exponent form and 17..20 are decpt -3..0; zero (-324) is laid out as decpt 1."""
    decpts = np.arange(_K_MIN, 311)  # zero's and every decpt of a normal double
    whole, small = (decpts >= 1) & (decpts <= 16), (decpts >= -3) & (decpts <= 0)
    cls = np.select([whole, small], [decpts - 1, decpts + 20], 16)
    cls[0] = 0
    exponent = [
        int.from_bytes(f"\0e{p - 1:+03d}".encode(), "little") if c == 16 else 0
        for p, c in zip(decpts.tolist(), cls.tolist())
    ]
    c, last = np.divmod(np.arange(21 * 17)[:, None], 17)
    point = np.select([c < 16, c == 16], [c, 0], MAX_CELL)  # among digits 1..16
    written = np.maximum(last + (point < last), np.where(c < 16, c + 2, 0))  # an integer's ".0"
    pos = np.arange(MAX_CELL) - 8  # of each byte among digits 1..16
    head = np.where((pos < point) | (pos > 16), 0xFF, 0).astype(np.uint8)
    chars = np.where(pos < written, np.where(pos == point, ord("."), ord("0")), 0) * (pos >= -1)
    prefixes = [b""] * 17 + [b"0.000", b"0.00", b"0.0", b"0."]  # by class
    chars[:, 1:6] = np.array([list(p.ljust(5, b"\0")) for p in prefixes])[c[:, 0]]
    return (np.array(exponent, dtype=np.uint64), (cls * 17).astype(np.int64),
            head.view("<u8"), chars.astype(np.uint8).view("<u8"))


def _pow10_words() -> tuple[np.ndarray, np.ndarray]:
    """g(k) = floor(10^-k 2^-r) + 1 in [2^125, 2^126), r = floor(-k log2 10) - 125, for
    k in [_K_MIN, _K_MAX], as its low and high 64-bit words."""
    low, high = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125
        if k <= 0:
            g = (10**-k >> r if r >= 0 else 10**-k << -r) + 1
        else:
            g = (1 << -r) // 10**k + 1
        low.append(g & ((1 << 64) - 1))
        high.append(g >> 64)
    return np.array(low, dtype=np.uint64), np.array(high, dtype=np.uint64)


# Built at import, low in the heap: made in a first call, they would keep the heap from shrinking.
_EXPONENT, _LAYOUT, _HEAD_MASKS, _CHARS = _layout_tables()
_POW10_LOW, _POW10_HIGH = _pow10_words()


def _shifted(gl, gh, t):
    """g 2^t as its bits 0..63, 64..126 and from 127 up, for 2 <= t <= 6."""
    return gl << t, ((gh << t) | (gl >> (64 - t))) & _M63, gh >> (63 - t)


def _product(gl, gh, cp):
    """P = g cp, cp < 2^61, in 32-bit limbs: floor(P / 2^127), bits 64..126, bits 0..63.
    Row a is g c0 and row b is g c1 plus a's digits, each with its carry."""
    c0, c1 = cp & _M32, cp >> 32
    g0, g1, g2, g3 = gl & _M32, gl >> 32, gh & _M32, gh >> 32
    a = g0 * c0
    low = a & _M32
    a = g1 * c0 + (a >> 32)
    b = (a & _M32) + g0 * c1
    low |= b << 32
    a = g2 * c0 + (a >> 32)
    b = (a & _M32) + g1 * c1 + (b >> 32)
    mid = b & _M32
    a = g3 * c0 + (a >> 32)
    b = (a & _M32) + g2 * c1 + (b >> 32)
    mid |= (b & 0x7FFFFFFF) << 32
    return ((a >> 32) + g3 * c1 + (b >> 32)) << 1 | (b >> 31) & 1, mid, low


def _schubfach(bits):
    """The shortest decimal d 10^k that rounds to each positive normal double (the
    closest such, ties to even), as d and k - _K_MIN; d may end in zeros.

    vb, vbl and vbr are 4 x 10^-k times the double and the ends of its rounding
    interval, rounded to odd: floor(P / 2^127), with the low bit set when bits 64..126
    of P = g (4c 2^h) are not all zero.  Bits below 64 carry only the excess of g over
    10^-k 2^-r, so they stay out of that sticky bit (Giulietti, section 9).  The ends
    are P -/+ g 2^(h+1), or P - g 2^h below a power of two, where the gap halves.
    """
    be = (bits >> 52).view(np.int64)
    closer_below = ((bits & _MANTISSA) == 0) & (be > 1)
    # k = floor(q log10 2), less log10(4/3) below a power of two, in 2^-41 units: q = be - 1075
    k = (be * 661971961083 - np.where(closer_below, 711894601351546, 711619858164225)) >> 41
    t = (be + ((k * -913124641741) >> 38) - 1072).view(np.uint64)  # h + 1
    del be
    k -= _K_MIN
    gl, gh = _POW10_LOW.take(k), _POW10_HIGH.take(k)
    top, mid, low = _product(gl, gh, ((bits & _MANTISSA) | _HIDDEN) << (t + 1))
    vb = top | (mid != 0)
    odd = bits & 1  # an odd c leaves the interval's ends out

    dl, dm, dq = _shifted(gl, gh, t)
    m = mid + dm + (low + dl < low)
    vbr = ((top + dq + (m >> 63)) | ((m & _M63) != 0)) - odd
    del dl, dm, dq
    dl, dm, dq = _shifted(gl, gh, t - closer_below)
    m = mid - dm - (low < dl)
    vbl = ((top - dq - (m >> 63)) | ((m & _M63) != 0)) + odd
    del gl, gh, t, top, mid, low, odd, dl, dm, dq, m  # spent: a chunk's peak is what is live at once

    # one digit fewer: u' = 10 floor(s / 10) or w' = u' + 10, if just one is inside;
    # else s or s + 1, if just one is inside; else the closer, ties to even
    s = vb >> 2
    sp = s // 10 * 10
    up_in, wp_in = vbl <= sp << 2, (sp + 10) << 2 <= vbr
    u_in, w_in = vbl <= s << 2, (s + 1) << 2 <= vbr
    nearest = s + np.where(u_in == w_in, _ROUND_UP.take(vb & 7), w_in)
    return np.where(up_in != wp_in, sp + _U(10) * wp_in, nearest), k


def _swar8(x):
    """The eight decimal digits of each x < 10^8, one per byte of a little-endian
    word, most significant first."""
    hi = x // 10000
    v = hi | (x - hi * 10000) << 32
    q = (v * 10486) >> 20 & 0x0000007F0000007F  # v // 100 in each half
    v = q | (v - q * 100) << 16
    q = (v * 103) >> 10 & 0x000F000F000F000F  # v // 10 in each quarter
    return q | (v - q * 10) << 8


def repr_cells(values) -> np.ndarray:
    """``repr`` of every element of a float64 array, with NUL holes.

    Returns a uint8 array of shape ``values.shape + (MAX_CELL,)``; each
    element's row, with its zero bytes dropped, is ``repr(float(x))``.
    """
    x = np.asarray(values, dtype=np.float64)
    shape, x = x.shape, x.ravel()
    bits = x.view(np.uint64)
    bits = bits & _M63
    zero = bits == 0
    fallback = (bits - _HIDDEN >= _NORMAL_SPAN) ^ zero  # subnormal or not finite
    d, idx = _schubfach(bits)
    d[zero] = 0
    ndig = np.searchsorted(_P10, d, side="right")
    idx += ndig  # decpt - _K_MIN; 0 for zero
    d *= _PAD.take(ndig)  # 17 digits, zero-filled on the right
    top = d // 10**16
    d -= top * 10**16
    digits = np.empty((len(x), 2), dtype=np.uint64)  # digits 1..8 and 9..16
    np.floor_divide(d, 10**8, out=digits[:, 0])
    np.subtract(d, digits[:, 0] * 10**8, out=digits[:, 1])
    digits = _swar8(digits).astype("<u8", copy=False)  # copied below as bytes
    # the count of digits after the first up to the last nonzero one, by the top set bit
    last = (np.frexp(digits[:, 1] * 2.0**64 + digits[:, 0])[1] + 7) >> 3

    words = np.empty((len(x), 4), dtype="<u8")
    np.bitwise_or(top << 56, (x.view(np.uint64) >> 63) * ord("-"), out=words[:, 0])
    words.view(np.uint8)[:, 8:24].view(np.complex128)[:, 0] = digits.view(np.complex128)[:, 0]
    words[:, 3] = _EXPONENT.take(idx)
    row = _LAYOUT.take(idx) + last
    del d, ndig, top, digits, idx, last  # spent before the (n, 4) arrays
    head = _HEAD_MASKS.take(row, axis=0)
    head &= words
    words ^= head  # the bytes after the point, moved up one (the chunk's last byte is NUL)
    flat = words.reshape(-1)
    carry = flat >> 56
    flat <<= 8
    flat[1:] |= carry[:-1]
    words |= head
    _CHARS.take(row, axis=0, out=head)
    words |= head
    out = words.view(np.uint8)

    for i in np.flatnonzero(fallback):
        text = repr(float(x[i])).encode()
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.reshape(shape + (MAX_CELL,))
