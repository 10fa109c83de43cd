"""Analytical benchmark solution on the unit interval.

For the subdiffusion equation with absorbing boundaries u(0,t)=u(1,t)=0
and an initial condition given by its Fourier-sine coefficients
u(x,0) = sum_n b_n sin(n pi x), separation of variables gives

    u(x,t) = sum_n b_n sin(n pi x) E_gamma(-k_gamma n^2 pi^2 t^gamma).

The canonical test profile u(x,0) = x(1-x) has b_n = 8/(pi^3 n^3) for odd
n and 0 for even n.

The series is truncated when the remaining-amplitude bound
sum_{tail} |b_n| drops below ``tol``; since |E_gamma| <= 1 and |sin| <= 1
on this domain the bound is valid for every t, including t = 0.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from fracstep.mittag_leffler import ml_eval_neg

__all__ = [
    "SineSeriesIC",
    "MAX_PROFILE_POINTS",
    "check_profile_size",
    "parabola_ic",
    "exact_eval",
    "exact_profile",
]

DEFAULT_TOL = 1e-10
_MODE_BLOCK = 256  # modes per block of the sine table in exact_profile

#: Most grid points ``exact_profile`` takes: its sine table of _MODE_BLOCK
#: rows then stays within 128 MiB.
MAX_PROFILE_POINTS = 1 << 16


def check_profile_size(points: int) -> None:
    """Raise ValueError when a grid of this many points passes ``MAX_PROFILE_POINTS``."""
    if points > MAX_PROFILE_POINTS:
        raise ValueError(
            f"a profile of {points} points exceeds MAX_PROFILE_POINTS = {MAX_PROFILE_POINTS}"
        )


@dataclass(frozen=True)
class SineSeriesIC:
    """Initial condition as a finite list of sine modes (n, b_n), n ascending.

    Each n is an integer >= 1 (an int, or a float with an integral value), so
    that every mode vanishes at both ends.  The mode numbers, amplitudes and
    tail bounds are also kept as read-only arrays, built once.
    """

    coefficients: tuple[tuple[int, float], ...]
    description: str = ""

    def __post_init__(self):
        prev = 0
        for n, b in self.coefficients:
            integral = isinstance(n, numbers.Integral) or (isinstance(n, float) and n.is_integer())
            if not (integral and n >= 1):
                raise ValueError(f"mode number {n!r} is not a finite integer >= 1")
            if n <= prev:
                raise ValueError(f"mode numbers must be strictly increasing, got {n!r} after {prev!r}")
            if not math.isfinite(b):
                raise ValueError(f"amplitude for mode {n} is not finite")
            prev = n
        modes = np.array([n for n, _ in self.coefficients], dtype=float)
        amps = np.array([b for _, b in self.coefficients], dtype=float)
        tails = np.cumsum(np.abs(amps)[::-1])[::-1]
        for name, array in (("_modes", modes), ("_amps", amps), ("_tails", tails)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def tail_bounds(self) -> np.ndarray:
        """tail_bounds[i] = sum of |b_n| from mode index i (inclusive) on."""
        return self._tails


@functools.cache
def parabola_ic(n_modes: int = 2000) -> SineSeriesIC:
    """Sine series of x(1-x): b_n = 8/(pi^3 n^3) for odd n.  Built once per n_modes."""
    coeffs = tuple((n, 8.0 / (math.pi**3 * n**3)) for n in range(1, 2 * n_modes, 2))
    return SineSeriesIC(coeffs, description="x*(1-x)")


def _validate(gamma: float, k_gamma: float, t: float, tol: float) -> None:
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if not (k_gamma > 0.0):
        raise ValueError(f"k_gamma must be > 0, got {k_gamma}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")


def _mode_factors(ic: SineSeriesIC, gamma, k_gamma, t, tol):
    """Retained mode numbers n and amplitudes b_n E_gamma(-k n^2 pi^2 t^gamma)."""
    kept = int(np.count_nonzero(ic.tail_bounds() >= tol))
    modes = ic._modes[:kept]
    with np.errstate(over="ignore"):
        x = k_gamma * (modes * math.pi) ** 2 * t**gamma
    if not np.isfinite(x).all():
        raise ValueError("the decay argument k_gamma (n pi)^2 t^gamma is not finite")
    return modes, ic._amps[:kept] * ml_eval_neg(gamma, x)


def exact_eval(
    ic: SineSeriesIC,
    gamma: float,
    k_gamma: float,
    x: float,
    t: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Benchmark solution value u(x, t) for the given sine-series IC."""
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return float(exact_profile(ic, gamma, k_gamma, [x], t, tol)[0])


def exact_profile(
    ic: SineSeriesIC,
    gamma: float,
    k_gamma: float,
    xs,
    t: float,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """:func:`exact_eval` over the grid ``xs``.

    The modes are summed in blocks of ``_MODE_BLOCK``, so the sine table
    takes O(_MODE_BLOCK * len(xs)) memory whatever the mode count.  A grid
    of more than ``MAX_PROFILE_POINTS`` points is refused.  The absorbing
    boundaries x = 0 and x = 1 are exact zeros.
    """
    _validate(gamma, k_gamma, t, tol)
    xs = np.asarray(xs, dtype=float)
    check_profile_size(xs.size)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):  # NaN fails both
        raise ValueError("grid points must be finite and lie in [0, 1]")
    out = np.zeros_like(xs)
    interior = (xs != 0.0) & (xs != 1.0)
    xi = xs[interior]
    modes, factors = _mode_factors(ic, gamma, k_gamma, t, tol)
    acc = np.zeros_like(xi)
    for start in range(0, modes.size, _MODE_BLOCK):
        block = slice(start, start + _MODE_BLOCK)
        # an explicit product and row sum, not a BLAS call, so the
        # summation order never depends on a thread count
        terms = np.outer(modes[block] * math.pi, xi)
        np.sin(terms, out=terms)
        terms *= factors[block, None]
        acc += terms.sum(axis=0)
    out[interior] = acc
    return out
