"""Tests of the analytical sine-series benchmark solution."""

import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracstep import exact_solution
from fracstep.exact_solution import SineSeriesIC, exact_eval, exact_profile, parabola_ic
from fracstep.mittag_leffler import ml_eval_neg


class TestIC:
    def test_parabola_coefficients(self):
        ic = parabola_ic(5)
        modes = [n for n, _ in ic.coefficients]
        assert modes == [1, 3, 5, 7, 9]
        for n, b in ic.coefficients:
            assert b == pytest.approx(8.0 / (math.pi**3 * n**3), rel=1e-15)

    def test_modes_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing, got 2 after 3"):
            SineSeriesIC(((3, 1.0), (2, 1.0)))
        with pytest.raises(ValueError):
            SineSeriesIC(((1, math.inf),))

    @pytest.mark.parametrize(
        "n", [2.5, 0.5, math.nan, math.inf, -math.inf, np.float64(3.25), "3", 0, -1, 0.0, -2.0]
    )
    def test_modes_must_be_finite_integers_from_one(self, n):
        # sin(n pi x) of a fractional n does not vanish at x = 1; nan and inf are no modes
        with pytest.raises(ValueError, match=f"mode number {re.escape(repr(n))} is not a finite integer >= 1"):
            SineSeriesIC(((n, 1.0),))

    @pytest.mark.parametrize("n", [2**53 + 1, 2**60, float(2**54), np.int64(2**62)])
    def test_modes_past_2_53_are_refused(self, n):
        # float64 would hold 2**53 + 1 as 2**53, the sine of another mode
        with pytest.raises(ValueError, match=f"mode number {re.escape(repr(n))} exceeds 2\\*\\*53"):
            SineSeriesIC(((n, 1.0),))

    def test_mode_2_53_is_exact(self):
        assert SineSeriesIC(((2**53 - 1, 1.0), (2**53, 0.5)))._modes.tolist() == [2.0**53 - 1, 2.0**53]

    def test_integral_floats_are_mode_numbers(self):
        ic = SineSeriesIC(((1.0, 1.0), (np.float64(3.0), 0.5), (np.int64(4), 0.25)))
        assert ic._modes.tolist() == [1.0, 3.0, 4.0]
        assert exact_eval(ic, 0.5, 1.0, 1.0, 0.1) == 0.0


class TestPointwise:
    def test_boundaries_are_exact_zeros(self):
        ic = parabola_ic()
        for gamma, t in [(0.5, 0.0), (0.5, 0.3), (1.0, 0.7), (0.75, 2.0)]:
            assert exact_eval(ic, gamma, 1.0, 0.0, t) == 0.0
            assert exact_eval(ic, gamma, 1.0, 1.0, t) == 0.0

    def test_initial_time_restores_the_profile(self):
        ic = parabola_ic()
        for x in (0.1, 0.25, 0.5, 0.8):
            assert exact_eval(ic, 0.5, 1.0, x, 0.0, tol=1e-10) == pytest.approx(
                x * (1.0 - x), abs=2e-10
            )

    def test_classical_midpoint_value_frozen(self):
        # oracle: direct summation of 8/(pi^3 n^3) sin(n pi/2) e^(-n^2 pi^2/2),
        # odd n (40-digit arithmetic); the series is one-term dominated
        value = exact_eval(parabola_ic(), 1.0, 1.0, 0.5, 0.5, tol=1e-12)
        assert value == pytest.approx(0.0018555941895199066, abs=1e-14)
        first_term = 8.0 / math.pi**3 * math.exp(-math.pi**2 / 2.0)
        assert value == pytest.approx(first_term, rel=1e-3)

    def test_symmetry_about_midpoint(self):
        ic = parabola_ic()
        for x in (0.05, 0.2, 0.35, 0.45):
            a = exact_eval(ic, 0.5, 1.0, x, 0.4)
            b = exact_eval(ic, 0.5, 1.0, 1.0 - x, 0.4)
            assert abs(a - b) < 1e-12

    def test_midpoint_decays_monotonically(self):
        ic = parabola_ic()
        for gamma in (0.5, 0.75, 1.0):
            values = [exact_eval(ic, gamma, 1.0, 0.5, 0.1 * k) for k in range(11)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_tail_bound_honesty(self):
        # doubling the retained mode count changes the value by less than tol
        tol = 1e-8
        coarse_ic = parabola_ic(400)
        fine_ic = parabola_ic(800)
        for t in (0.0, 0.01, 0.5):
            a = exact_eval(coarse_ic, 0.5, 1.0, 0.3, t, tol=tol)
            b = exact_eval(fine_ic, 0.5, 1.0, 0.3, t, tol=tol * 1e-4)
            assert abs(a - b) < tol


class TestProfile:
    def test_profile_matches_pointwise(self):
        ic = parabola_ic()
        xs = np.linspace(0.0, 1.0, 21)
        prof = exact_profile(ic, 0.75, 1.0, xs, 0.5)
        for x, v in zip(xs, prof):
            assert v == pytest.approx(exact_eval(ic, 0.75, 1.0, float(x), 0.5), abs=1e-13)

    def test_profile_boundaries(self):
        prof = exact_profile(parabola_ic(), 0.5, 1.0, [0.0, 1.0], 0.25)
        assert prof.tolist() == [0.0, 0.0]

    def test_profile_symmetry(self):
        xs = np.linspace(0.0, 1.0, 41)
        prof = exact_profile(parabola_ic(), 0.5, 1.0, xs, 0.5)
        assert np.max(np.abs(prof - prof[::-1])) < 1e-12

    def test_single_mode_ic_closed_form(self):
        # one sine mode decays by exactly E_gamma(-k n^2 pi^2 t^gamma);
        # for gamma=1 that is an exponential
        ic = SineSeriesIC(((2, 1.0),))
        xs = np.linspace(0.0, 1.0, 9)
        t, k = 0.15, 1.3
        prof = exact_profile(ic, 1.0, k, xs, t)
        expected = np.sin(2 * math.pi * xs) * math.exp(-k * 4 * math.pi**2 * t)
        assert prof == pytest.approx(expected, abs=1e-12)


    def test_threads_give_bit_identical_profiles(self):
        # no shared mutable state: concurrent profiles equal serial ones bit for bit
        ic, xs = parabola_ic(), np.linspace(0.0, 1.0, 101)
        cases = [(gamma, t) for gamma in (0.2, 0.5, 0.75, 0.95, 1.0) for t in (1e-4, 0.05)]

        def profile(case):
            return exact_profile(ic, case[0], 1.0, xs, case[1]).tobytes()

        serial = [profile(case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(profile, cases * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 3

    def test_times_share_a_table_bit_for_bit(self):
        # one call at many times equals one call per time, also from threads
        ic, xs = parabola_ic(), np.linspace(0.0, 1.0, 101)
        times = [0.0, 1e-4, 0.05, 1e-4, 0.3]
        for gamma in (0.2, 0.5, 0.75, 0.95, 1.0):
            single = np.array([exact_profile(ic, gamma, 1.0, xs, t) for t in times])
            shared = exact_profile(ic, gamma, 1.0, xs, times)
            assert shared.shape == (len(times), xs.size)
            assert shared.tobytes() == single.tobytes()
            assert exact_profile(ic, gamma, 1.0, xs, np.array(times[1:2])).tobytes() == single[1:2].tobytes()
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda _: exact_profile(ic, 0.5, 1.0, xs, times).tobytes(), range(8)))
        assert set(threaded) == {exact_profile(ic, 0.5, 1.0, xs, times).tobytes()}

    def test_scalar_and_sequence_shapes(self):
        ic, xs = parabola_ic(), np.linspace(0.0, 1.0, 11)
        assert exact_profile(ic, 0.5, 1.0, xs, 0.1).shape == (11,)
        assert exact_profile(ic, 0.5, 1.0, xs, [0.1]).shape == (1, 11)
        assert exact_profile(ic, 0.5, 1.0, xs, []).shape == (0, 11)
        assert exact_profile(ic, 0.5, 1.0, xs, (0.0, 0.1, 0.2))[:, [0, -1]].tolist() == [[0.0, 0.0]] * 3

    @pytest.mark.parametrize("points", [11, 21, 101])
    def test_split_table_matches_one_sine_per_cell(self, points):
        # the reference sums b_n E_gamma(-k (n pi)^2 t^gamma) sin(n pi x) with
        # one np.sin per (mode, point), in the same blocks of modes
        ic, xs, times = parabola_ic(), np.linspace(0.0, 1.0, points), [0.0, 1e-4, 0.05]
        kept = int(np.count_nonzero(ic.tail_bounds() >= exact_solution.DEFAULT_TOL))
        modes, amps = ic._modes[:kept], ic._amps[:kept]
        table = np.sin(np.outer(modes * math.pi, xs))
        table[:, [0, -1]] = 0.0
        profiles = exact_profile(ic, 0.5, 1.0, xs, times)
        for t, profile in zip(times, profiles):
            factors = amps * ml_eval_neg(0.5, (modes * math.pi) ** 2 * t**0.5)
            direct = np.zeros_like(xs)
            for start in range(0, kept, exact_solution._MODE_BLOCK):
                block = slice(start, start + exact_solution._MODE_BLOCK)
                direct += (table[block] * factors[block, None]).sum(axis=0)
            assert np.max(np.abs(profile - direct)) <= 1e-15 * np.max(np.abs(direct))

    def test_q_table_holds_only_the_q_in_use(self):
        # n = 10**9 is q = 15,625,000: a table of every q up to it would take
        # gigabytes, one row per q in use a few bytes
        ic, xs = SineSeriesIC(((1, 0.5), (10**9, 1.0))), np.linspace(0.0, 1.0, 5)
        tracemalloc.start()
        try:
            profile = exact_profile(ic, 1.0, 1.0, xs, [0.0, 1e-20])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        expected = 0.5 * np.sin(math.pi * xs[1:-1]) + np.sin(10**9 * math.pi * xs[1:-1])
        assert profile[0, 1:-1] == pytest.approx(expected, abs=1e-6)

    def test_mode_blocks_change_nothing_but_rounding(self, monkeypatch):
        xs = np.linspace(0.0, 1.0, 57)
        whole = exact_profile(parabola_ic(), 0.6, 1.0, xs, 1e-3)
        monkeypatch.setattr(exact_solution, "_MODE_BLOCK", 7)
        blocked = exact_profile(parabola_ic(), 0.6, 1.0, xs, 1e-3)
        assert np.max(np.abs(whole - blocked)) < 1e-15

    def test_sine_table_is_never_modes_by_points(self):
        # 2000 retained modes x 2001 points would be a 32 MB table
        xs = np.linspace(0.0, 1.0, 2001)
        tracemalloc.start()
        try:
            exact_profile(parabola_ic(), 0.5, 1.0, xs, 0.0, tol=1e-300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2001 * 8 / 2


class TestValidation:
    def test_domain_checks(self):
        ic = parabola_ic(4)
        with pytest.raises(ValueError):
            exact_eval(ic, 0.5, 1.0, -0.1, 0.5)
        with pytest.raises(ValueError):
            exact_eval(ic, 0.5, 1.0, 0.5, -1.0)
        with pytest.raises(ValueError):
            exact_eval(ic, 1.5, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            exact_eval(ic, 0.5, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            exact_eval(ic, 0.5, 1.0, 0.5, 0.5, tol=0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1e-300, [0.1, math.nan], (0.0, math.inf)])
    @pytest.mark.parametrize(
        "ic, tol",
        # no mode retained, and a series of zeros: no decay argument is left to catch the time
        [(parabola_ic(4), 1e300), (SineSeriesIC(((1, 0.0),)), 1e-10), (parabola_ic(4), 1e-10)],
    )
    def test_times_must_be_finite_and_non_negative(self, t, ic, tol):
        bad = next(v for v in np.ravel(t) if not v >= 0.0 or math.isinf(v))
        with pytest.raises(ValueError, match=f"t must be finite and >= 0 .*, got {bad}$"):
            exact_profile(ic, 0.5, 1.0, [0.0, 0.5, 1.0], t, tol=tol)

    @pytest.mark.parametrize("k_gamma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_k_gamma_must_be_finite_and_positive(self, recwarn, k_gamma):
        # k_gamma = inf at t = 0 would compute inf * 0
        for ic in (parabola_ic(4), SineSeriesIC(((1, 0.0),))):
            with pytest.raises(ValueError, match=f"k_gamma must be finite and > 0 .*, got {k_gamma}$"):
                exact_profile(ic, 0.5, k_gamma, [0.0, 0.5, 1.0], 0.0)
        assert not recwarn.list

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_points_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            exact_profile(parabola_ic(4), 0.5, 1.0, [0.0, bad, 1.0], 0.5)
        with pytest.raises(ValueError):
            exact_eval(parabola_ic(4), 0.5, 1.0, bad, 0.5)
