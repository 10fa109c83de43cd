"""One-parameter Mittag-Leffler function E_gamma(z) for real z <= 0.

E_gamma is the temporal eigenmode decay law of the subdiffusion problem,

    E_gamma(z) = sum_{n>=0} z^n / Gamma(gamma n + 1),

restricted here to 0 < gamma <= 1 and the completely monotone branch
z <= 0, which is all the exact benchmark solution needs.

Evaluation
----------
* gamma == 1 is exactly exp(z) and z == 0 is exactly 1; both are
  returned as such.
* Otherwise E_gamma(-x) is the inverse Laplace transform at t = 1,

      E_gamma(-x) = (1 / 2 pi i) int_C e^s s^(gamma-1) / (s^gamma + x) ds,

  taken by the trapezoidal rule on the Weideman-Trefethen hyperbola
  s(u) = mu (1 + sin(i u - alpha)) (Math. Comp. 76 (2007) 1341-1356;
  see also Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350-1369).  For
  0 < gamma < 1 and x >= 0 the transform has no pole on the principal
  sheet (s^gamma = -x needs |arg s| = pi / gamma > pi), and its branch cut
  on the negative axis lies left of the contour.  The nodes and weights
  therefore depend on neither gamma nor x: the conjugate symmetry of the
  integrand leaves 17 fixed nodes, and an array of x costs O(17) double
  precision operations per entry, however large |z|^(1/gamma) is.

The shape alpha and N = 16 are Weideman and Trefethen's; the step h and
the scale mu were tuned on a sweep against a 30-digit quadrature of the
Gorenflo-Loutchko-Luchko integral over gamma in [0.01, 0.9999] and x in
[1e-12, 1e8].  A smaller mu than theirs lowers the rounding amplification
max |e^s| = e^(mu (1 - sin alpha)) ~ 80, which dominates the error at
t = 1.  The absolute error is below 1e-12 on that range (measured: about
5e-15).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ml_eval", "ml_eval_neg", "ml_decay_profile"]


# hyperbola s(u) = mu (1 + sin(i u - alpha)) at u = k h, k = 0..N; the
# nodes at -u are the conjugates, so k >= 1 carries twice the weight
_N = 16
_ALPHA = 1.1721
_H = 1.15 / _N
_MU = 3.5 * _N
_U = _H * np.arange(_N + 1)
_NODES = _MU * (1.0 + np.sin(1j * _U - _ALPHA))
# (h / 2 pi i) e^s ds/du with ds/du = i mu cos(i u - alpha)
_WEIGHTS = _H / (2.0 * math.pi) * np.exp(_NODES) * _MU * np.cos(1j * _U - _ALPHA)
_WEIGHTS[1:] *= 2.0
_BLOCK = 256  # entries of x per block in ml_eval_neg


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return gamma


def ml_eval_neg(gamma: float, x) -> np.ndarray:
    """E_gamma(-x) for every entry of the array ``x`` (finite, >= 0).

    The entries go through the quadrature in blocks of ``_BLOCK``, so the
    temporaries stay O(_BLOCK * 17) whatever the size of ``x``.
    """
    gamma = _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("arguments x of E_gamma(-x) must be finite and >= 0")
    if gamma == 1.0:
        return np.exp(-x)
    s_gamma = _NODES**gamma
    coef = _WEIGHTS * s_gamma / _NODES
    flat = x.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK, None]
        out[start : start + _BLOCK] = (coef / (s_gamma + block)).real.sum(axis=-1)
    return np.where(x == 0.0, 1.0, out.reshape(x.shape))


def ml_eval(gamma: float, z: float) -> float:
    """Evaluate E_gamma(z) for 0 < gamma <= 1 and z <= 0."""
    gamma = _check_gamma(gamma)
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z > 0.0:
        raise ValueError(f"z must be <= 0, got {z}")
    return float(ml_eval_neg(gamma, -z))


def ml_decay_profile(gamma, rate, times):
    """E_gamma(-rate * t^gamma) for each t in ``times``.

    This is the decay factor of a single spatial eigenmode with
    eigenvalue ``rate``; it is non-increasing in t.
    """
    gamma = _check_gamma(gamma)
    rate = float(rate)
    if rate < 0.0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be ascending")
    if np.any(times < 0.0):
        raise ValueError(f"times must be non-negative, got {times.min()}")
    return ml_eval_neg(gamma, rate * times**gamma).tolist()
