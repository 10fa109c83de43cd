"""Discretization weights of the fractional derivative operator.

Each supported formula family is defined by the generating function
w(z, alpha) = sum_k w_k z^k of its weights:

    BDF1:  (1 - z)^alpha                          order 1 (Grunwald-Letnikov)
    BDF2:  (3/2 - 2z + z^2/2)^alpha               order 2
    BDF3:  (11/6 - 3z + 3z^2/2 - z^3/3)^alpha     order 3
    NG2:   (1 - z)^alpha [W_0 + W_1 (1 - z)]      order 2 (Newton-Gregory)

These are orders in h on smooth functions; the solver's order in dt is gamma
for all four, as u - u_0 ~ t^gamma from a parabola start (tests/test_convergence.py).

BDF1 weights follow w_k = (1 - (alpha + 1)/k) w_{k-1}, w_0 = 1, taken as
one running product (the same multiplications in the same order).  BDF2/BDF3
are the Taylor coefficients of a polynomial raised to a real power (J.C.P.
Miller recurrence, unrolled); NG2 composes the BDF1 stream with the linear
Newton-Gregory correction W_0 + W_1 (1 - z) in one elementwise expression.
A table is a read-only float64 array w_0 .. w_K, built once at its capacity K.
"""

from __future__ import annotations

import enum
import math

import numpy as np

_ALPHA_MIN = 0.0  # alpha = 0 is the classical limit (identity weights)
_ALPHA_MAX = 2.0

#: Most weights a table holds: 128 MiB (``run`` needs steps + 1; ``MAX_HISTORY_CELLS`` keeps that below a third).
#: A BDF3 table this long took 3.4-4.2 s and a 158 MB maxrss to build (child process, 2-core x86-64 VM).
MAX_WEIGHTS = 1 << 24
_CHUNK = 4096  # weights per chunk of _poly_pow's coefficients


class FormulaFamily(str, enum.Enum):
    """Supported discretization formula families.

    Each member carries ``order``, the order p in h of the discrete operator on
    smooth functions (tested on t^3; not the scheme's order in dt, which the
    t^gamma start lowers), and ``base_poly``, the coefficients (constant term
    first) of the polynomial under the power; both are read-only.
    """

    BDF1 = "bdf1", 1, (1.0, -1.0)
    BDF2 = "bdf2", 2, (1.5, -2.0, 0.5)
    BDF3 = "bdf3", 3, (11.0 / 6.0, -3.0, 1.5, -1.0 / 3.0)
    NG2 = "ng2", 2, (1.0, -1.0)

    def __new__(cls, value: str, order: int, base_poly: tuple[float, ...]):
        member = str.__new__(cls, value)
        member._value_, member._order, member._base_poly = value, order, base_poly
        return member

    order, base_poly = property(lambda m: m._order), property(lambda m: m._base_poly)  # read-only

    def base_value(self, z: float) -> float:
        """The polynomial under the power at z, by Horner's rule."""
        acc = 0.0
        for c in reversed(self.base_poly):
            acc = acc * z + c
        return acc

    @classmethod
    def parse(cls, text: str) -> "FormulaFamily":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown formula family {text!r}; expected one of {valid}")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < _ALPHA_MIN or alpha >= _ALPHA_MAX:
        raise ValueError(f"alpha must lie in [{_ALPHA_MIN}, {_ALPHA_MAX}), got {alpha}")
    return alpha


def _poly_pow(f: tuple[float, ...], alpha: float, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of f(z)^alpha, f a polynomial of degree 2 or 3, f_0 > 0.

    J.C.P. Miller's recurrence g_0 = f_0^alpha, g_k = sum_{j=1..k} (j alpha - (k - j)) f_j g_{k-j}
    / (k f_0), unrolled: numpy forms a chunk's c_j = (j alpha - (k - j)) f_j and k f_0, then
    g_k = ((0.0 + c_1 g_{k-1}) + c_2 g_{k-2} [+ c_3 g_{k-3}]) / (k f_0) runs on Python floats.
    These are the term-by-term sum's operations in its order (g_{k-j} = 0.0 for k < j adds only
    a zero), so they give its bits; memory is the result and one chunk.
    """
    g, g2, g3 = np.empty(count), 0.0, 0.0
    g[0] = g1 = f[0] ** alpha
    for start in range(1, count, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, count), dtype=float)
        c, out = [((j * alpha - (k - j)) * f[j]).tolist() for j in range(1, len(f))], []
        if len(f) == 3:
            for c1, c2, kf0 in zip(*c, (k * f[0]).tolist()):
                g1, g2 = (0.0 + c1 * g1 + c2 * g2) / kf0, g1
                out.append(g1)
        else:
            for c1, c2, c3, kf0 in zip(*c, (k * f[0]).tolist()):
                g1, g2, g3 = (0.0 + c1 * g1 + c2 * g2 + c3 * g3) / kf0, g1, g2
                out.append(g1)
        g[start : start + k.size] = out
    return g


def newton_gregory_omegas(alpha: float, count: int) -> np.ndarray:
    """Newton-Gregory correction coefficients W_0 .. W_{count-1}.

    These are the coefficients of the expansion of (ln(xi)/(xi - 1))^alpha
    in powers of u = 1 - xi.  The base series is

        f(u) = ln(1 - u) / (-u) = 1 + u/2 + u^2/3 + u^3/4 + ...

    raised to the power alpha with Miller's recurrence (``_poly_pow``), its
    sum taken term by term on Python floats.  W_0 = 1 and W_1 = alpha/2 for
    every alpha.
    """
    alpha = float(alpha)
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    f = [1.0 / (j + 1) for j in range(count)]
    g, terms = [f[0] ** alpha], [(j, j * alpha, f[j]) for j in range(1, count)]
    for k in range(1, count):
        acc = 0.0
        for j, j_alpha, f_j in terms[:k]:
            acc += (j_alpha - (k - j)) * f_j * g[-j]  # g[-j] is g_{k-j}
        g.append(acc / (k * f[0]))
    return np.array(g)


def _bdf1_product(a: float, count: int) -> np.ndarray:
    """The running product of the BDF1 ratios 1 - (a + 1)/k from w_0 = 1: one
    multiplication per entry, in the order of the recurrence w_k = (1 - (a + 1)/k) w_{k-1}."""
    return np.cumprod(np.concatenate(([1.0], 1.0 - (a + 1.0) / np.arange(1, count))))


def build_table(family: FormulaFamily, alpha: float, capacity: int) -> np.ndarray:
    """The weights w_0 .. w_capacity of one formula family, a read-only array.

    ``alpha`` is the operator exponent; the subdiffusion stepper uses
    alpha = 1 - gamma, so alpha = 0 (classical diffusion) is accepted and
    yields the identity weights (1, 0, 0, ...).  Being read-only, one table
    can be shared between concurrent solver runs.
    """
    family, a = FormulaFamily(family), _check_alpha(alpha)
    count = int(capacity) + 1
    if count < 1:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if count > MAX_WEIGHTS:
        raise ValueError(f"a table of {count} weights exceeds MAX_WEIGHTS = {MAX_WEIGHTS}")
    if family is FormulaFamily.BDF1:
        w = _bdf1_product(a, count)
    elif family is FormulaFamily.NG2:
        # Cauchy product of the BDF1 stream with W0 + W1 (1 - z)
        #   = (W0 + W1) - W1 z, i.e. w_k = (W0 + W1) b_k - W1 b_{k-1}.
        w0, w1 = newton_gregory_omegas(a, 2)
        b = _bdf1_product(a, count)
        w = np.concatenate(([(w0 + w1) * b[0]], (w0 + w1) * b[1:] - w1 * b[:-1]))
    else:
        w = _poly_pow(family.base_poly, a, count)
    w.flags.writeable = False
    return w


def eval_generating_function(family: FormulaFamily, alpha: float, z: float) -> float:
    """Closed-form value of the generating function w(z, alpha).

    The base polynomial is evaluated at ``z`` and raised to ``alpha``;
    NG2 multiplies by the Newton-Gregory bracket W_0 + W_1 (1 - z).  A
    non-positive polynomial value with non-integer alpha is a domain
    error.  All four families are well defined at z = -1, the point that
    enters the stability bound.
    """
    family = FormulaFamily(family)
    alpha = _check_alpha(alpha)
    z = float(z)
    base = family.base_value(z)
    if base > 0.0:
        value = base**alpha
    elif alpha == int(alpha):
        value = float(base ** int(alpha))
    elif base == 0.0:
        value = 0.0
    else:
        raise ValueError(
            f"generating function base {base} <= 0 at z={z} with non-integer alpha={alpha}"
        )
    if family is FormulaFamily.NG2:
        w0, w1 = newton_gregory_omegas(alpha, 2)
        value *= w0 + w1 * (1.0 - z)
    return float(value)
