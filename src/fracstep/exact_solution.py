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

Each block of modes builds its sine table once for every time asked for,
from two small tables of r < 64 and of the q in use: with n = 64 q + r,
sin(n pi x) = sin(64 q pi x) cos(r pi x) + cos(64 q pi x) sin(r pi x).
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
_SPLIT = 64  # n = _SPLIT q + r in the sine table
_MAX_MODE = 1 << 53  # float64 holds every integer up to 2**53 exactly

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

    Each n is an integer from 1 to 2**53 (an int, or a float with an integral
    value), so that every mode vanishes at both ends and is exact as a float64.
    The mode numbers, amplitudes and tail bounds are kept as read-only arrays.
    """

    coefficients: tuple[tuple[int, float], ...]
    description: str = ""

    def __post_init__(self):
        prev = 0
        for n, b in self.coefficients:
            integral = isinstance(n, numbers.Integral) or (isinstance(n, float) and n.is_integer())
            if not (integral and n >= 1):
                raise ValueError(f"mode number {n!r} is not a finite integer >= 1")
            if n > _MAX_MODE:
                raise ValueError(f"mode number {n!r} exceeds 2**53, the float64 limit of exact integers")
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


def _validate(gamma: float, k_gamma: float, times, tol: float) -> None:
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if not (math.isfinite(k_gamma) and k_gamma > 0.0):
        raise ValueError(f"k_gamma must be finite and > 0 in the decay argument, got {k_gamma}")
    for t in times:
        if not (math.isfinite(t) and t >= 0.0):
            raise ValueError(f"t must be finite and >= 0 in the decay argument, got {t}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")


def _mode_factors(ic: SineSeriesIC, gamma, k_gamma, times, tol):
    """Retained mode numbers n and amplitudes b_n E_gamma(-k n^2 pi^2 t^gamma), a row per t."""
    kept = int(np.count_nonzero(ic.tail_bounds() >= tol))
    modes = ic._modes[:kept]
    with np.errstate(over="ignore"):  # t**gamma as a Python float power
        x = k_gamma * (modes * math.pi) ** 2 * np.array([t**gamma for t in times])[:, None]
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
    t,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """:func:`exact_eval` over the grid ``xs``, at a time ``t`` or a 1-D sequence of times.

    A sequence gives one row per time.  The modes are summed in blocks of
    ``_MODE_BLOCK``, each block's sine table built once for every time, so
    memory is O((_MODE_BLOCK + len(t)) * len(xs)) whatever the mode count,
    and a row equals a one-time call bit for bit.  A grid of more than
    ``MAX_PROFILE_POINTS`` points is refused.  The absorbing boundaries
    x = 0 and x = 1 are exact zeros.
    """
    times = [float(v) for v in np.ravel(t)]
    _validate(gamma, k_gamma, times, tol)
    xs = np.asarray(xs, dtype=float)
    check_profile_size(xs.size)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):  # NaN fails both
        raise ValueError("grid points must be finite and lie in [0, 1]")
    interior = (xs != 0.0) & (xs != 1.0)
    xi = xs[interior]
    modes, factors = _mode_factors(ic, gamma, k_gamma, times, tol)
    q, r = np.divmod(modes.astype(np.int64), _SPLIT)
    first = np.diff(q, prepend=-1) != 0  # the first mode of each q in use
    q_index, q_args = np.cumsum(first) - 1, q[first] * (_SPLIT * math.pi)
    r_args = np.outer(np.arange(_SPLIT) * math.pi, xi)
    cos_r, sin_r = np.cos(r_args), np.sin(r_args, out=r_args)
    acc = np.zeros((len(times), xi.size))
    buffers = np.empty((2, min(_MODE_BLOCK, modes.size), xi.size))
    for start in range(0, modes.size, _MODE_BLOCK):
        block = slice(start, start + _MODE_BLOCK)
        iq, rb = q_index[block] - q_index[start], r[block]
        terms, rest = buffers[:, : rb.size]
        q_table = np.outer(q_args[q_index[start] :][: iq[-1] + 1], xi)
        # sin(n pi x) by the split; mode="clip" makes take skip its buffer
        np.take(np.sin(q_table), iq, axis=0, out=terms, mode="clip")
        terms *= cos_r[rb]
        np.take(np.cos(q_table), iq, axis=0, out=rest, mode="clip")
        rest *= sin_r[rb]
        terms += rest
        for f, a in zip(factors, acc):
            # an explicit product and row sum, not a BLAS call, so the
            # summation order never depends on a thread count
            np.multiply(terms, f[block, None], out=rest)
            a += rest.sum(axis=0)
    out = np.zeros((len(times),) + xs.shape)
    out[:, interior] = acc
    return out if np.ndim(t) else out[0]
