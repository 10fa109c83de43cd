"""Discretization weights of the fractional derivative operator.

Each supported formula family is defined by the generating function
w(z, alpha) = sum_k w_k z^k of its weights:

    BDF1:  (1 - z)^alpha                          order 1 (Grunwald-Letnikov)
    BDF2:  (3/2 - 2z + z^2/2)^alpha               order 2
    BDF3:  (11/6 - 3z + 3z^2/2 - z^3/3)^alpha     order 3
    NG2:   (1 - z)^alpha [W_0 + W_1 (1 - z)]      order 2 (Newton-Gregory)

BDF1 weights follow w_k = (1 - (alpha + 1)/k) w_{k-1}, w_0 = 1, taken as
one running product (the same multiplications in the same order).  BDF2/BDF3
are the Taylor coefficients of a polynomial raised to a real power (J.C.P.
Miller recurrence); NG2 composes the BDF1 stream with the linear
Newton-Gregory correction W_0 + W_1 (1 - z) in one elementwise expression.

Tables are append-only: extending the capacity never changes entries that
have already been published, so a completed prefix can be shared
read-only between concurrent solver runs.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

_ALPHA_MIN = 0.0  # alpha = 0 is the classical limit (identity weights)
_ALPHA_MAX = 2.0


class FormulaFamily(str, enum.Enum):
    """Supported discretization formula families."""

    BDF1 = "bdf1"
    BDF2 = "bdf2"
    BDF3 = "bdf3"
    NG2 = "ng2"

    @property
    def order(self) -> int:
        """Accuracy order p of the formula (in the operator step h)."""
        return _ORDERS[self]

    @property
    def base_poly(self) -> tuple[float, ...]:
        """Coefficients (constant term first) of the polynomial under the power."""
        return _BASE_POLYS[self]

    @classmethod
    def parse(cls, text: str) -> "FormulaFamily":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(f"unknown formula family {text!r}; expected one of {valid}")


_ORDERS = {
    FormulaFamily.BDF1: 1,
    FormulaFamily.BDF2: 2,
    FormulaFamily.BDF3: 3,
    FormulaFamily.NG2: 2,
}

_BASE_POLYS = {
    FormulaFamily.BDF1: (1.0, -1.0),
    FormulaFamily.BDF2: (1.5, -2.0, 0.5),
    FormulaFamily.BDF3: (11.0 / 6.0, -3.0, 1.5, -1.0 / 3.0),
    FormulaFamily.NG2: (1.0, -1.0),
}


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < _ALPHA_MIN or alpha >= _ALPHA_MAX:
        raise ValueError(f"alpha must lie in [{_ALPHA_MIN}, {_ALPHA_MAX}), got {alpha}")
    return alpha


def _series_pow(f: Sequence[float], alpha: float, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of f(z)^alpha from those of f.

    Uses the J.C.P. Miller recurrence for g = f^alpha with f_0 != 0:

        g_0 = f_0^alpha,
        g_k = (1 / (k f_0)) * sum_{j=1..k} (j alpha - (k - j)) f_j g_{k-j}.

    Exact to rounding; O(count * deg f) for a polynomial f.
    """
    if count <= 0:
        return np.empty(0)
    f0 = f[0]
    if f0 <= 0.0:
        raise ValueError("series power requires a positive constant term")
    g = np.empty(count)
    g[0] = f0**alpha
    for k in range(1, count):
        jmax = min(k, len(f) - 1)
        acc = 0.0
        for j in range(1, jmax + 1):
            acc += (j * alpha - (k - j)) * f[j] * g[k - j]
        g[k] = acc / (k * f0)
    return g


def newton_gregory_omegas(alpha: float, count: int) -> np.ndarray:
    """Newton-Gregory correction coefficients W_0 .. W_{count-1}.

    These are the coefficients of the expansion of (ln(xi)/(xi - 1))^alpha
    in powers of u = 1 - xi.  The base series is

        ln(1 - u) / (-u) = 1 + u/2 + u^2/3 + u^3/4 + ...

    raised to the power alpha with the Miller recurrence.  W_0 = 1 and
    W_1 = alpha/2 for every alpha.
    """
    alpha = float(alpha)
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = [1.0 / (j + 1) for j in range(count)]
    return _series_pow(base, alpha, count)


class CoefficientTable:
    """Memoized weight sequence w_0 .. w_K for one (family, alpha) pair.

    The table grows on demand and is append-only; extending the capacity
    never changes entries already computed.  A table whose construction is
    finished is safe to share across concurrent readers; extension must
    remain single-writer.
    """

    def __init__(self, family: FormulaFamily, alpha: float, capacity: int = 0):
        self.family = FormulaFamily(family)
        self.alpha = _check_alpha(alpha)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._buf = np.empty(max(16, capacity + 1))
        self._size = 0  # number of published weights
        if self.family is FormulaFamily.NG2:
            w0, w1 = newton_gregory_omegas(self.alpha, 2)
            self._ng = (w0, w1)
        self._extend_to(capacity)

    @property
    def capacity(self) -> int:
        """Largest index k for which w_k is available."""
        return self._size - 1

    @property
    def weights(self) -> np.ndarray:
        """Read-only view of all published weights w_0 .. w_capacity."""
        view = self._buf[: self._size]
        view.flags.writeable = False
        return view

    def weight(self, k: int) -> float:
        if k < 0:
            raise IndexError(f"weight index must be >= 0, got {k}")
        if k > self.capacity:
            self._extend_to(k)
        return float(self._buf[k])

    def ensure_capacity(self, k: int) -> "CoefficientTable":
        """Extend the table (single-writer) so that w_0 .. w_k exist."""
        if k > self.capacity:
            self._extend_to(k)
        return self

    def array(self, upto: int) -> np.ndarray:
        """Read-only view of w_0 .. w_upto; raises if the prefix is missing."""
        if upto > self.capacity:
            raise RuntimeError(
                f"coefficient table capacity {self.capacity} < requested {upto}; "
                "the caller must pre-extend the table"
            )
        view = self._buf[: upto + 1]
        view.flags.writeable = False
        return view

    def _extend_to(self, k: int) -> None:
        needed = k + 1
        if needed > len(self._buf):
            grown = np.empty(max(needed, 2 * len(self._buf)))
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        fam, a = self.family, self.alpha
        if fam is FormulaFamily.BDF1:
            # a running product seeded with the last published weight, so
            # extending leaves the published entries as they are
            top = max(self._size, 1)
            self._buf[0] = 1.0
            self._buf[top - 1 : needed] = _bdf1_product(a, self._buf[top - 1], top, needed)
        elif fam is FormulaFamily.NG2:
            # Cauchy product of the BDF1 stream with W0 + W1 (1 - z)
            #   = (W0 + W1) - W1 z, i.e. w_k = (W0 + W1) b_k - W1 b_{k-1}.
            w0, w1 = self._ng
            b = _bdf1_product(a, 1.0, 1, needed)
            self._buf[0] = (w0 + w1) * b[0]
            self._buf[1:needed] = (w0 + w1) * b[1:] - w1 * b[:-1]
        else:
            # Miller recurrence needs the full prefix anyway; regenerating it
            # reproduces the identical forward recursion, so published
            # entries are rewritten with bit-identical values.
            self._buf[:needed] = _series_pow(fam.base_poly, a, needed)
        self._size = needed


def _bdf1_product(a: float, seed: float, lo: int, hi: int) -> np.ndarray:
    """seed, then seed times the running product of the BDF1 ratios
    1 - (a + 1)/k for k = lo .. hi - 1: one multiplication per entry, in
    the order of the recurrence w_k = (1 - (a + 1)/k) w_{k-1}."""
    return np.cumprod(np.concatenate(([seed], 1.0 - (a + 1.0) / np.arange(lo, hi))))


def build_table(family: FormulaFamily, alpha: float, capacity: int) -> CoefficientTable:
    """Build the weight table w_0 .. w_capacity for one formula family.

    ``alpha`` is the operator exponent; the subdiffusion stepper uses
    alpha = 1 - gamma, so alpha = 0 (classical diffusion) is accepted and
    yields the identity weights (1, 0, 0, ...).
    """
    family = FormulaFamily(family)
    capacity = int(capacity)
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    return CoefficientTable(family, alpha, capacity)


def _poly_eval(coeffs: Sequence[float], z: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


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
    base = _poly_eval(family.base_poly, z)
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
