"""Tests of the Mittag-Leffler evaluator against independent identities."""

import functools
import math
import time

import mpmath
import numpy as np
import pytest

from fracstep.mittag_leffler import ml_decay_profile, ml_eval, ml_eval_neg

# z ranges around |z| = cutoff, where earlier versions switched from the
# power series to the asymptotic expansion; kept as a hard test region
OVERLAP_CUTOFF = {0.25: 2.5, 0.5: 5.0, 0.75: 10.0}

# benchmark crossover anchors and points whose multiprecision series used
# to take seconds or exhaust memory, as (gamma, z)
HARD_POINTS = [(0.999, -10.0001), (0.9, -10.5), (0.1, -10.0), (0.25, -5.0), (0.2, -6.0)]

# a private context: the reference never touches mpmath's global precision
_MP = mpmath.MPContext()
_MP.dps = 30


@functools.lru_cache(maxsize=None)
def gll_reference(gamma: float, x: float) -> float:
    """Independent oracle for E_gamma(-x), x >= 0, at 30 digits.

    The Gorenflo-Loutchko-Luchko integral with rho = r^gamma,

        E_gamma(-x) = (sin gamma pi / (gamma pi)) int_0^inf
                      exp(-(x rho)^(1/gamma)) / (rho^2 + 2 rho cos gamma pi + 1) drho,

    by mpmath's tanh-sinh quadrature.  Every term is positive.  The
    interval is split at the near-pole of the denominator (rho = -cos
    gamma pi, half-width sin gamma pi) and where the exponential turns
    (rho ~ 1/x), and cut where the exponential drops below e^-60.
    """
    if x == 0.0:
        return 1.0
    if gamma == 1.0:
        return math.exp(-x)
    mp = _MP
    g, xx = mp.mpf(gamma), mp.mpf(x)
    cos_g, sin_g = mp.cos(mp.pi * g), mp.sin(mp.pi * g)

    def integrand(rho):
        return mp.exp(-((xx * rho) ** (1 / g))) / (rho * rho + 2 * rho * cos_g + 1)

    end = 60**g / xx
    cuts = {mp.mpf(1), 1 / xx, 10**g / xx}
    cuts |= {c for c in (-cos_g - sin_g, -cos_g, -cos_g + sin_g) if c > 0}
    cuts = sorted(c for c in cuts if c < end)
    return float(sin_g / (g * mp.pi) * mp.quad(integrand, [0] + cuts + [end]))


def accuracy_grid():
    """Seeded (gamma, x) points over gamma in [0.01, 0.9999], x in [0, 1e8]."""
    rng = np.random.default_rng(20070613)
    points = [(g, 0.0) for g in (0.01, 0.5, 0.9999)]
    for gamma in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999):
        points += [(gamma, float(10.0**e)) for e in rng.uniform(-12.0, 8.0, 5)]
        points.append((gamma, float(rng.uniform(0.0, 60.0))))
    return points + [(gamma, -z) for gamma, z in HARD_POINTS]


def erfc_times_exp_quadrature(x: float, n_nodes: int = 240) -> float:
    """Independent oracle for E_{1/2}(-x) = e^(x^2) erfc(x).

    Uses the integral form e^(x^2) erfc(x) = (2/sqrt(pi)) int_0^inf
    exp(-u^2 - 2xu) du, evaluated by Gauss-Legendre quadrature on [0, 12]
    (the integrand is below 1e-62 beyond the cut).
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = 6.0  # map [-1, 1] -> [0, 12]
    u = half * (nodes + 1.0)
    integrand = np.exp(-u * u - 2.0 * x * u)
    return float(2.0 / math.sqrt(math.pi) * half * np.sum(weights * integrand))


def test_erfc_oracle_is_converged():
    for x in (0.5, 1.0, 2.0, 4.0):
        a = erfc_times_exp_quadrature(x, 200)
        b = erfc_times_exp_quadrature(x, 300)
        assert abs(a - b) < 1e-13


class TestPointValues:
    def test_value_at_zero_is_one(self):
        for gamma in (0.25, 0.5, 0.75, 1.0):
            assert ml_eval(gamma, 0.0) == 1.0

    def test_classical_exponential_at_minus_one(self):
        assert ml_eval(1.0, -1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_exponential_reduction_on_interval(self):
        zs = np.linspace(-30.0, 0.0, 181)
        worst = max(abs(ml_eval(1.0, z) - math.exp(z)) for z in zs)
        assert worst < 1e-10

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0])
    def test_half_gamma_identity_against_quadrature_oracle(self, x):
        assert ml_eval(0.5, -x) == pytest.approx(erfc_times_exp_quadrature(x), abs=1e-7)

    def test_half_gamma_at_minus_two_frozen(self):
        # oracle value: e^4 erfc(2) (quadrature and 40-digit arithmetic agree)
        assert ml_eval(0.5, -2.0) == pytest.approx(0.25539567631050574, abs=1e-13)

    def test_asymptotic_branch_against_long_series(self):
        # gamma=0.75, z=-50 lay on the former asymptotic branch; the frozen
        # oracle is the defining series summed in high precision (an
        # 800-term, 200-digit evaluation)
        value = ml_eval(0.75, -50.0)
        assert value == pytest.approx(0.0056311878629451302, abs=1e-10)
        assert abs(value - gll_reference(0.75, 50.0)) <= 1e-12


class TestBranches:
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_branch_overlap_agreement(self, gamma):
        # the region around the former series/asymptotic switch, where the
        # two branches agreed to 1e-6; the contour must match the oracle
        cutoff = OVERLAP_CUTOFF[gamma]
        for z in np.linspace(-0.8 * cutoff, -1.2 * cutoff, 20):
            assert abs(ml_eval(gamma, float(z)) - gll_reference(gamma, -float(z))) < 1e-12

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_complete_monotonicity_proxy(self, gamma):
        zs = np.linspace(0.0, -100.0, 201)
        values = [ml_eval(gamma, float(z)) for z in zs]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_default_config_series_handles_heavy_cancellation(self):
        # the power series would cancel ~35 digits here; frozen oracle e^81 erfc(9)
        assert ml_eval(0.5, -9.0) == pytest.approx(0.062307724037774684, rel=1e-12)


class TestAccuracy:
    def test_reference_matches_closed_forms(self):
        for x in (0.5, 2.0, 9.0, 50.0):
            assert gll_reference(0.5, x) == pytest.approx(
                float(_MP.exp(_MP.mpf(x) ** 2) * _MP.erfc(x)), abs=1e-16
            )

    def test_documented_error_bound_on_seeded_grid(self):
        points = accuracy_grid()
        values = [ml_eval(gamma, -x) for gamma, x in points]
        errors = [abs(v - gll_reference(g, x)) for (g, x), v in zip(points, values)]
        worst = max(range(len(points)), key=errors.__getitem__)
        assert errors[worst] <= 1e-12, (points[worst], errors[worst])

    def test_grid_cost_is_bounded(self):
        points = accuracy_grid()
        start = time.perf_counter()
        for gamma, x in points:
            ml_eval(gamma, -x)
        assert time.perf_counter() - start < 0.5

    def test_array_path_matches_scalar_calls(self):
        xs = np.array([0.0, 1e-9, 0.3, 7.0, 40.0, 1e5])
        for gamma in (0.2, 0.6, 1.0):
            scalar = [ml_eval(gamma, -x) for x in xs]
            np.testing.assert_allclose(ml_eval_neg(gamma, xs), scalar, rtol=0.0, atol=1e-15)


class TestDecayProfile:
    def test_zero_rate_gives_ones(self):
        assert ml_decay_profile(0.5, 0.0, [0.0, 0.5, 2.0]) == [1.0, 1.0, 1.0]

    def test_classical_rate_matches_exponential(self):
        times = [0.0, 0.1, 0.7, 2.0]
        got = ml_decay_profile(1.0, 3.0, times)
        assert got == pytest.approx([math.exp(-3.0 * t) for t in times], rel=1e-13)

    def test_half_gamma_profile_value(self):
        # E_{1/2}(-pi^2 sqrt(0.5)); oracle e^(y^2) erfc(y) at y = pi^2 sqrt(0.5)
        (got,) = ml_decay_profile(0.5, math.pi**2, [0.5])
        y = math.pi**2 * math.sqrt(0.5)
        assert got == pytest.approx(erfc_times_exp_quadrature(y), abs=1e-9)
        assert got == pytest.approx(0.080037013875985907, abs=1e-12)

    def test_profile_is_non_increasing(self):
        times = np.linspace(0.0, 3.0, 31)
        values = ml_decay_profile(0.6, 4.0, times)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_times_must_ascend(self):
        with pytest.raises(ValueError):
            ml_decay_profile(0.5, 1.0, [0.5, 0.1])
        with pytest.raises(ValueError):
            ml_decay_profile(0.5, -1.0, [0.1])


class TestValidation:
    def test_gamma_domain(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ml_eval(bad, -1.0)

    def test_array_domain(self):
        for bad in ([-1.0], [math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError):
                ml_eval_neg(0.5, bad)

    def test_z_domain(self):
        with pytest.raises(ValueError):
            ml_eval(0.5, 1.0)
        with pytest.raises(ValueError):
            ml_eval(0.5, math.nan)
        with pytest.raises(ValueError):
            ml_eval(0.5, math.inf)
