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
Miller recurrence); NG2 composes the BDF1 stream with the linear
Newton-Gregory correction W_0 + W_1 (1 - z) in one elementwise expression.
A table is built once, at its capacity, and is read-only.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

_ALPHA_MIN = 0.0  # alpha = 0 is the classical limit (identity weights)
_ALPHA_MAX = 2.0

#: Most weights a table holds: 128 MiB.  ``run`` needs steps + 1, which
#: ``MAX_HISTORY_CELLS`` keeps below a third of this.
MAX_WEIGHTS = 1 << 24


class FormulaFamily(str, enum.Enum):
    """Supported discretization formula families."""

    BDF1 = "bdf1"
    BDF2 = "bdf2"
    BDF3 = "bdf3"
    NG2 = "ng2"

    @property
    def order(self) -> int:
        """Order p in h of the discrete operator on smooth functions (tested on
        t^3); not the scheme's order in dt, which the t^gamma start lowers."""
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

    Exact to rounding; O(count * deg f) for a polynomial f, on Python floats.
    """
    if count <= 0:
        return np.empty(0)
    f0 = f[0]
    if f0 <= 0.0:
        raise ValueError("series power requires a positive constant term")
    g = [f0**alpha]
    terms = [(j, j * alpha, f[j]) for j in range(1, len(f))]
    for k in range(1, count):
        acc = 0.0
        for j, j_alpha, f_j in terms[:k]:
            acc += (j_alpha - (k - j)) * f_j * g[-j]  # g[-j] is g_{k-j}
        g.append(acc / (k * f0))
    return np.array(g)


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
    """The weight sequence w_0 .. w_K of one (family, alpha) pair, built once.

    The weights are read-only, so a table can be shared between concurrent
    solver runs.
    """

    def __init__(self, family: FormulaFamily, alpha: float, capacity: int = 0):
        self.family = FormulaFamily(family)
        self.alpha = a = _check_alpha(alpha)
        count = int(capacity) + 1
        if count < 1:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if count > MAX_WEIGHTS:
            raise ValueError(f"a table of {count} weights exceeds MAX_WEIGHTS = {MAX_WEIGHTS}")
        if self.family is FormulaFamily.BDF1:
            w = _bdf1_product(a, count)
        elif self.family is FormulaFamily.NG2:
            # Cauchy product of the BDF1 stream with W0 + W1 (1 - z)
            #   = (W0 + W1) - W1 z, i.e. w_k = (W0 + W1) b_k - W1 b_{k-1}.
            w0, w1 = newton_gregory_omegas(a, 2)
            b = _bdf1_product(a, count)
            w = np.concatenate(([(w0 + w1) * b[0]], (w0 + w1) * b[1:] - w1 * b[:-1]))
        else:
            w = _series_pow(self.family.base_poly, a, count)
        w.flags.writeable = False
        self._w = w

    @property
    def capacity(self) -> int:
        """Largest index k for which w_k is available."""
        return len(self._w) - 1

    @property
    def weights(self) -> np.ndarray:
        """Read-only array of the weights w_0 .. w_capacity."""
        return self._w

    def array(self, upto: int) -> np.ndarray:
        """Read-only view of w_0 .. w_upto; raises if the prefix is missing."""
        if upto > self.capacity:
            raise RuntimeError(
                f"coefficient table capacity {self.capacity} < requested {upto}; "
                "the caller must build a larger table"
            )
        return self._w[: upto + 1]


def _bdf1_product(a: float, count: int) -> np.ndarray:
    """The running product of the BDF1 ratios 1 - (a + 1)/k from w_0 = 1: one
    multiplication per entry, in the order of the recurrence w_k = (1 - (a + 1)/k) w_{k-1}."""
    return np.cumprod(np.concatenate(([1.0], 1.0 - (a + 1.0) / np.arange(1, count))))


def build_table(family: FormulaFamily, alpha: float, capacity: int) -> CoefficientTable:
    """Build the weight table w_0 .. w_capacity for one formula family.

    ``alpha`` is the operator exponent; the subdiffusion stepper uses
    alpha = 1 - gamma, so alpha = 0 (classical diffusion) is accepted and
    yields the identity weights (1, 0, 0, ...).
    """
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
