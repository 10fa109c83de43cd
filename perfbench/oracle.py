"""Reference values the benchmark checks fracstep's outputs against.

Nothing here imports fracstep.  The Mittag-Leffler references use closed
forms where they exist (gamma = 1: exp; gamma = 1/2: exp(x^2) erfc(x))
and otherwise the Gorenflo-Loutchko-Luchko integral for z = -x < 0,

    E_g(-x) = (sin g pi / pi) (x / g) int_0^inf exp(-w^(1/g)) dw
                                        / ((w + x cos g pi)^2 + (x sin g pi)^2),

which is the form of the ROADMAP integral after substituting w = x r^g.
Every term of it is positive, so no cancellation enters.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# parabola initial condition x(1-x) as the CLI builds it: 2000 odd sine modes
PARABOLA_MODES = np.arange(1, 4000, 2)
PARABOLA_AMPS = 8.0 / (math.pi**3 * PARABOLA_MODES.astype(float) ** 3)


def ml_reference(gamma: float, z: float, dps: int = 30) -> float:
    """E_gamma(z) for z <= 0 in mpmath at ``dps`` digits."""
    x = -float(z)
    if x == 0.0:
        return 1.0
    if gamma == 1.0:
        return math.exp(-x)
    with mpmath.workdps(dps):
        xx = mpmath.mpf(x)
        if gamma == 0.5:
            return float(mpmath.exp(xx * xx) * mpmath.erfc(xx))
        g = mpmath.mpf(gamma)
        cg, sg = mpmath.cos(g * mpmath.pi), mpmath.sin(g * mpmath.pi)

        def integrand(w):
            return mpmath.exp(-(w ** (1 / g))) / ((w + xx * cg) ** 2 + (xx * sg) ** 2)

        # break the interval at the scale x, at the peak of the denominator
        # (w = -x cos g pi, half-width x sin g pi) and where exp(-w^(1/g)) turns
        points = {mpmath.mpf(0), xx, mpmath.mpf(1)}
        peak = -xx * cg
        if peak > 0:
            points |= {peak, peak + xx * sg, max(peak - xx * sg, mpmath.mpf(0))}
        total = mpmath.quad(integrand, sorted(points) + [mpmath.inf])
        return float(sg / mpmath.pi * xx / g * total)


def ml_reference_array(gamma: float, xs) -> np.ndarray:
    """E_gamma(-x) for each x >= 0 in double precision (abs. error < 1e-12).

    Trapezoidal rule in s = log w, which converges geometrically for an
    integrand analytic in a strip; the strip half-width is the distance
    pi (1 - gamma) of the denominator's poles, or pi gamma / 2 where
    exp(-w^(1/g)) stops decaying, whichever is smaller.
    """
    xs = np.asarray(xs, dtype=float)
    if gamma == 1.0:
        return np.exp(-xs)
    cg, sg = math.cos(gamma * math.pi), math.sin(gamma * math.pi)
    strip = 0.9 * min(math.pi * (1.0 - gamma), math.pi * gamma / 2.0)
    h = 2.0 * math.pi * strip / 40.0  # discretization error ~ exp(-40)
    hi = gamma * math.log(46.0) + 0.5  # exp(-w^(1/g)) < 1e-20 beyond
    out = np.empty_like(xs)
    for i, x in enumerate(xs):
        if x == 0.0:
            out[i] = 1.0
            continue
        w = np.exp(np.arange(math.log(min(x, 1.0)) - 38.0, hi, h))
        f = w * np.exp(-(w ** (1.0 / gamma))) / ((w + x * cg) ** 2 + (x * sg) ** 2)
        out[i] = sg / math.pi * x / gamma * h * float(f.sum())
    return out


def parabola_profile(gamma: float, t: float, xs, tol: float = 1e-10) -> np.ndarray:
    """u(x, t) for u(x, 0) = x(1-x) with absorbing ends, k_gamma = 1.

    Modes are added in chunks until the rest is provably below ``tol``:
    E_gamma(-x) is completely monotone, so every later mode's decay factor
    is at most the last one computed, times the remaining sum of |b_n|.
    """
    xs = np.asarray(xs, dtype=float)
    tails = np.cumsum(PARABOLA_AMPS[::-1])[::-1]
    u = np.zeros_like(xs)
    start, chunk = 0, 64
    while start < PARABOLA_MODES.size:
        n = PARABOLA_MODES[start : start + chunk]
        decay = ml_reference_array(gamma, (n * math.pi) ** 2 * t**gamma)
        u += (PARABOLA_AMPS[start : start + chunk] * decay) @ np.sin(np.outer(n, math.pi * xs))
        start += n.size
        if start >= PARABOLA_MODES.size or decay[-1] * tails[start] < tol:
            break
    u[(xs == 0.0) | (xs == 1.0)] = 0.0
    return u


# generating-function base polynomials w(z, alpha) = p(z)^alpha evaluated at
# z = -1; NG2 adds the Newton-Gregory factor W0 + W1 (1 - z), W0 = 1, W1 = alpha/2
_BASE_AT_MINUS_ONE = {"bdf1": 2.0, "bdf2": 4.0, "bdf3": 20.0 / 3.0, "ng2": 2.0}


def inv_s_cross(family: str, gamma: float, lam: float) -> float:
    """Closed-form 1/S_x = 2 (2 lam - 1) w(-1, 1 - gamma)."""
    alpha = 1.0 - gamma
    w = _BASE_AT_MINUS_ONE[family] ** alpha
    if family == "ng2":
        w *= 1.0 + alpha  # W0 + 2 W1
    return 2.0 * (2.0 * lam - 1.0) * w


def closed_form_verdict(family: str, gamma: float, lam: float, s: float) -> str:
    """'stable' or 'unstable' by the closed-form bound (lam <= 1/2: always stable)."""
    inv = inv_s_cross(family, gamma, lam)
    return "unstable" if inv > 0.0 and s > 1.0 / inv else "stable"
