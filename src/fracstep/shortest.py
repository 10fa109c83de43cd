"""Vectorised shortest round-trip formatting of float64 arrays.

``repr_cells`` gives, for every element of a float64 array, the bytes of
its ``repr``, without a per-element call.  Digit selection is Giulietti's
Schubfach ("The Schubfach way to render doubles", 2020, the algorithm of
OpenJDK's ``Double.toString`` since JDK 19): the interval of reals that
round to a double is scaled by a 126-bit upper approximation g of a power
of ten, and the shortest decimal in it (the closest, ties to even) is
read off the scaled interval's centre and ends.  Every 64 x 126-bit
product is taken in 32-bit limbs, so each step is a numpy integer
operation.  Integers below 2^53, and zero, are their own digits.

The digits are laid out in ``repr``'s two forms: positional when the
decimal point position ``decpt`` (value = 0.d1d2... x 10^decpt) lies in
(-4, 16], with ``.0`` after an integer, and ``d.ddde+XX`` otherwise.
Each cell is a fixed layout of MAX_CELL bytes with NUL holes where a
character is absent, so no byte is moved per element; dropping the NULs
leaves exactly ``repr``.  Non-finite and subnormal values are formatted
by ``float.__repr__`` one at a time; for the smallest subnormals
(5e-324, 1e-323) Schubfach's two-digit rule and ``repr`` differ.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["repr_cells", "MAX_CELL"]

_U = np.uint64
_M32, _M63 = _U(0xFFFFFFFF), _U((1 << 63) - 1)
_MANTISSA, _HIDDEN = _U((1 << 52) - 1), _U(1 << 52)
_K_MIN, _K_MAX = -324, 292  # floor(q log10 2) over the exponents q of doubles
_P10 = 10 ** np.arange(18, dtype=np.uint64)
_QUARTER_SHIFTS = np.array([[0], [32]], dtype=np.uint64)

# A cell is six little-endian words.  Byte 0 holds the sign, 1..5 "0." and up to
# three zeros before the digits of 0 < |x| < 1, 7 the first digit; 8..39 a point
# slot and a digit for each of the other 16, so the point lands before digit j
# without moving a digit; 40..44 "e", the exponent's sign and its three digits.
# Bytes 6 and 45..47 are always NUL.
MAX_CELL = 48
_FIRST_DIGITS = np.array([[1], [5], [9], [13]])  # of words 1..4
# bytes 1..5 of word 0 for decpt = -3, -2, -1, 0, and for none
_SMALL_PREFIX = np.array(
    [int.from_bytes(b"\0" + text, "little") for text in (b"0.000", b"0.00", b"0.0", b"0.", b"")],
    dtype=np.uint64,
)


@functools.cache
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


def _shifted(gl, gh, t):
    """g 2^t as its bits 0..63, 64..126 and from 127 up, for 2 <= t <= 6."""
    return gl << t, ((gh << t) | (gl >> (_U(64) - t))) & _M63, gh >> (_U(63) - t)


def _schubfach(bits):
    """The shortest decimal d 10^k that rounds to each positive normal double (the
    closest such, ties to even); d may end in zeros.

    vb, vbl and vbr are 4 x 10^-k times the double and the ends of its rounding
    interval, rounded to odd: floor(P / 2^127), with the low bit set when bits 64..126
    of P = g (4c 2^h) are not all zero.  Bits below 64 carry only the excess of g over
    10^-k 2^-r, so they stay out of that sticky bit (Giulietti, section 9).  The ends
    are P -/+ g 2^(h+1), or P - g 2^h below a power of two, where the gap halves.
    """
    be = (bits >> _U(52)).astype(np.int64)
    f = bits & _MANTISSA
    c = f | _HIDDEN
    q = be - 1075
    closer_below = (f == 0) & (be > 1)
    k = (q * 661971961083 - np.where(closer_below, 274743187321, 0)) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    table_low, table_high = _pow10_words()
    gl, gh = table_low.take(k - _K_MIN), table_high.take(k - _K_MIN)

    # P in 32-bit limbs: g = g3 g2 g1 g0, 4c 2^h = c1 c0
    cp = c << (h + _U(2))
    c0, c1 = cp & _M32, cp >> _U(32)
    g0, g1, g2, g3 = gl & _M32, gl >> _U(32), gh & _M32, gh >> _U(32)
    s = _U(32)
    a0 = g0 * c0
    a1 = g1 * c0 + (a0 >> s)
    a2 = g2 * c0 + (a1 >> s)
    a3 = g3 * c0 + (a2 >> s)
    b1 = (a1 & _M32) + g0 * c1
    b2 = (a2 & _M32) + g1 * c1 + (b1 >> s)
    b3 = (a3 & _M32) + g2 * c1 + (b2 >> s)
    top = ((a3 >> s) + g3 * c1 + (b3 >> s)) << _U(1) | (b3 >> _U(31)) & _U(1)
    mid = (b3 & _U(0x7FFFFFFF)) << s | (b2 & _M32)  # bits 64..126
    low = (b1 << s) | (a0 & _M32)  # bits 0..63
    vb = top | (mid != 0)
    odd = c & _U(1)  # an odd c leaves the interval's ends out

    dl, dm, dq = _shifted(gl, gh, h + _U(1))
    m = mid + dm + (low + dl < low)
    vbr = ((top + dq + (m >> _U(63))) | ((m & _M63) != 0)) - odd
    dl, dm, dq = _shifted(gl, gh, h + _U(1) - closer_below)
    m = mid - dm - (low < dl)
    vbl = ((top - dq - (m >> _U(63))) | ((m & _M63) != 0)) + odd

    # one digit fewer: u' = 10 floor(s / 10) or w' = u' + 10, if just one is inside;
    # else s or s + 1, if just one is inside; else the closer, ties to even
    s = vb >> _U(2)
    sp = s // _U(10) * _U(10)
    up_in, wp_in = vbl <= sp << _U(2), (sp + _U(10)) << _U(2) <= vbr
    u_in, w_in = vbl <= s << _U(2), (s + _U(1)) << _U(2) <= vbr
    frac = vb & _U(3)
    up = (frac > 2) | (frac == 2) & (s & _U(1) == 1)
    return np.where(up_in != wp_in, sp + _U(10) * wp_in, s + np.where(u_in != w_in, w_in, up)), k


def _swar8(x):
    """The eight decimal digits of each x < 10^8, one per byte of a little-endian
    word, most significant first."""
    hi = x // _U(10000)
    v = hi | (x - hi * _U(10000)) << _U(32)
    q = (v * _U(10486)) >> _U(20) & _U(0x0000007F0000007F)  # v // 100 in each half
    v = q | (v - q * _U(100)) << _U(16)
    q = (v * _U(103)) >> _U(10) & _U(0x000F000F000F000F)  # v // 10 in each quarter
    return q | (v - q * _U(10)) << _U(8)


def _spread(x):
    """The four low bytes of each x moved to the odd bytes of a word."""
    x = (x | x << _U(16)) & _U(0x0000FFFF0000FFFF)
    return ((x | x << _U(8)) & _U(0x00FF00FF00FF00FF)) << _U(8)


def _last_nonzero_byte(v):
    """The index of the highest nonzero byte of each v whose bytes are <= 9; -1 for 0.
    (Rounding to double cannot carry the top set bit into the next byte.)"""
    return (np.frexp(v.astype(np.float64))[1] - 1) >> 3


def _low_bytes(n):
    """A word with its n low bytes set, all eight for n >= 8 (n >= 0)."""
    return (_U(1) << (n.astype(np.uint64) << _U(3))) - _U(1)


def repr_cells(values) -> np.ndarray:
    """``repr`` of every element of a float64 array, with NUL holes.

    Returns a uint8 array of shape ``values.shape + (MAX_CELL,)``; each
    element's row, with its zero bytes dropped, is ``repr(float(x))``.
    """
    x = np.asarray(values, dtype=np.float64)
    shape, x = x.shape, x.ravel()
    bits = x.view(np.uint64)
    neg = bits >> _U(63)
    bits = bits & _M63
    be = bits >> _U(52)
    f = bits & _MANTISSA
    fallback = (be == _U(2047)) | ((be == _U(0)) & (f != _U(0)))

    # c 2^q with -52 <= q <= 0 and 2^-q dividing c is an integer below 2^53; so is zero
    shift = _U(1075) - be  # -q, wrapping to >= 64 (a zero shift) where q > 0
    d = (f | _HIDDEN) >> shift
    exact = (bits == _U(0)) | ((be - _U(1023) <= _U(52)) & ((f & ((_U(1) << shift) - _U(1))) == 0))
    k = np.zeros(len(x), dtype=np.int64)
    rest = ~(exact | fallback)
    if rest.any():
        d[rest], k[rest] = _schubfach(bits[rest])

    ndig = np.maximum(np.searchsorted(_P10, d, side="right"), 1)
    decpt = k + ndig
    d = d * _P10[17 - ndig]  # 17 digits, zero-filled on the right
    top = d // _U(10**16)
    d -= top * _U(10**16)
    halves = np.empty((2, len(x)), dtype=np.uint64)  # digits 1..8 and 9..16
    halves[0] = d // _U(10**8)
    halves[1] = d - halves[0] * _U(10**8)
    halves = _swar8(halves)
    last = _last_nonzero_byte(halves)
    sig = np.where(halves[1] != 0, 10 + last[1], 2 + last[0])  # significant digits

    positional = (decpt > -4) & (decpt <= 16)
    whole = positional & (decpt > 0)
    small = positional & ~whole
    keep = np.where(whole, np.maximum(sig, decpt + 1), sig)  # digits written
    point = np.where(whole, decpt, np.where(positional | (sig == 1), 0, 1))  # 0: no point
    words = np.empty((len(x), 6), dtype="<u8")
    prefix = _SMALL_PREFIX.take(np.where(small, decpt + 3, 4))
    words[:, 0] = neg * _U(ord("-")) | prefix | (top + _U(0x30)) << _U(56)
    # words 1..4 take digits 1..4, 5..8, 9..12 and 13..16
    quarters = ((halves[:, None] >> _QUARTER_SHIFTS) & _M32).reshape(4, len(x))
    digits = _spread(quarters) | _U(0x3000300030003000)
    digits &= _low_bytes(2 * np.maximum(keep - _FIRST_DIGITS, 0))
    words[:, 1:5] = (digits | _U(ord(".")) << ((point - _FIRST_DIGITS).astype(np.uint64) << _U(4))).T
    words[:, 5] = 0
    sci = np.flatnonzero(~positional)
    e = np.abs(decpt[sci] - 1).astype(np.uint64)
    words[sci, 5] = (
        _U(ord("e"))
        | np.where(decpt[sci] < 1, _U(ord("-")), _U(ord("+"))) << _U(8)
        | (e >= 100) * (e // _U(100) + _U(0x30)) << _U(16)
        | (e // _U(10) % _U(10) + _U(0x30)) << _U(24)
        | (e % _U(10) + _U(0x30)) << _U(32)
    )
    out = words.view(np.uint8)

    for i in np.flatnonzero(fallback):
        text = repr(float(x[i])).encode()
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.reshape(shape + (MAX_CELL,))
