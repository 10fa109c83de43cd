"""Tests of the stability bound, probes, thresholds and phase sweeps."""

import math
import re
import time

import numpy as np
import pytest

from fracstep.coeffs import FormulaFamily
from fracstep.stability import (
    UNCONDITIONAL,
    find_empirical_threshold,
    inv_stability_bound,
    phase_diagram,
    probe_stability,
    stability_bound,
)


class TestClosedFormBound:
    def test_explicit_bdf1_at_half_gamma(self):
        s_cross = stability_bound(FormulaFamily.BDF1, 0.5, 1.0)
        assert 1.0 / s_cross == pytest.approx(2.0 ** (2.0 - 0.5), abs=1e-12)
        assert s_cross == pytest.approx(2.0 ** (0.5 - 2.0), abs=1e-12)

    def test_implicit_08_at_half_gamma(self):
        s_cross = stability_bound(FormulaFamily.BDF1, 0.5, 0.8)
        assert 1.0 / s_cross == pytest.approx(1.2 * math.sqrt(2.0), abs=1e-12)

    def test_half_lambda_is_unconditional(self):
        for family in FormulaFamily:
            for gamma in (0.25, 0.5, 1.0):
                assert stability_bound(family, gamma, 0.5) == UNCONDITIONAL
                assert stability_bound(family, gamma, 0.2) == UNCONDITIONAL

    def test_classical_explicit_bound(self):
        assert stability_bound(FormulaFamily.BDF1, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_all_families_meet_at_classical_point(self):
        for family in FormulaFamily:
            assert inv_stability_bound(family, 1.0, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_monotone_in_lambda_beyond_half(self):
        lams = np.linspace(0.55, 1.0, 10)
        for family in FormulaFamily:
            bounds = [stability_bound(family, 0.5, l) for l in lams]
            assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_order_monotonicity_at_explicit_weights(self):
        # numerically verified ordering of the bounds at lambda = 1:
        # bdf1 < bdf2 < ng2 < bdf3 for gamma in (0, 1)
        # (2^a (1+a) > 4^a on 0 < a < 1, so ng2 sits above bdf2)
        for gamma in np.linspace(0.05, 0.95, 19):
            inv = {f: inv_stability_bound(f, gamma, 1.0) for f in FormulaFamily}
            assert inv[FormulaFamily.BDF1] < inv[FormulaFamily.BDF2]
            assert inv[FormulaFamily.BDF2] < inv[FormulaFamily.NG2]
            assert inv[FormulaFamily.NG2] < inv[FormulaFamily.BDF3]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            stability_bound(FormulaFamily.BDF1, 0.0, 1.0)
        with pytest.raises(ValueError):
            stability_bound(FormulaFamily.BDF1, 0.5, 1.5)


class TestProbe:
    @pytest.mark.parametrize(
        "gamma,lam,s,expected",
        [
            (0.5, 1.0, 0.33, "stable"),
            (0.5, 1.0, 0.37, "unstable"),
            (0.5, 0.8, 0.55, "stable"),
            (0.5, 0.8, 0.7, "unstable"),
            (1.0, 1.0, 0.49, "stable"),
            (1.0, 1.0, 0.51, "unstable"),
            (1.0, 0.0, 50.0, "stable"),
        ],
    )
    def test_paper_cases(self, gamma, lam, s, expected):
        report = probe_stability(FormulaFamily.BDF1, gamma, lam, s)
        assert report.empirical_verdict == expected
        assert report.theoretical_verdict in (expected, "unconditionally_stable")
        if expected == "stable":
            assert report.growth_factor < 1.0

    def test_report_fields(self):
        report = probe_stability(FormulaFamily.BDF1, 0.5, 1.0, 0.33)
        assert report.s_value == 0.33
        assert report.s_cross == pytest.approx(2.0 ** (-1.5))
        assert report.probe_steps == 400

    def test_unconditional_region_verdict(self):
        report = probe_stability(FormulaFamily.BDF2, 0.5, 0.25, 10.0)
        assert report.theoretical_verdict == "unconditionally_stable"
        assert report.empirical_verdict == "stable"
        assert report.growth_factor <= 1.0 + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            probe_stability(FormulaFamily.BDF1, 0.5, 1.0, 0.33, nodes=7)
        with pytest.raises(ValueError):
            probe_stability(FormulaFamily.BDF1, 0.5, 1.0, 0.33, nodes=10, steps=10)
        with pytest.raises(ValueError):
            probe_stability(FormulaFamily.BDF1, 0.5, 1.0, -1.0)


class TestEmpiricalThreshold:
    def test_classical_explicit_threshold(self):
        est = find_empirical_threshold(FormulaFamily.BDF1, 1.0, 1.0, (0.3, 0.7))
        assert est == pytest.approx(0.5, abs=0.01)

    def test_bdf1_half_gamma_threshold(self):
        est = find_empirical_threshold(FormulaFamily.BDF1, 0.5, 1.0, (0.2, 0.6))
        assert est == pytest.approx(2.0 ** (0.5 - 2.0), abs=0.01)

    def test_bdf2_half_gamma_threshold(self):
        est = find_empirical_threshold(FormulaFamily.BDF2, 0.5, 1.0, (0.1, 0.5))
        assert est == pytest.approx(0.25, abs=0.01)

    def test_invalid_bracket_raises(self):
        with pytest.raises(ValueError, match="same verdict"):
            find_empirical_threshold(FormulaFamily.BDF1, 0.5, 1.0, (0.05, 0.1))
        with pytest.raises(ValueError):
            find_empirical_threshold(FormulaFamily.BDF1, 0.5, 1.0, (0.5, 0.2))


class TestNonFiniteInputs:
    """Non-finite S and bracket ends fail fast with a ValueError that names them."""

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_probe_rejects_non_finite_s(self, s):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"got {s}"):
            probe_stability(FormulaFamily.BDF1, 0.5, 1.0, s)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "bracket", [(0.1, math.inf), (math.nan, 0.5), (0.1, math.nan), (-math.inf, 0.5)]
    )
    def test_threshold_rejects_non_finite_bracket_ends(self, bracket):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"got {bracket}")):
            find_empirical_threshold(FormulaFamily.BDF1, 0.5, 1.0, bracket)
        assert time.perf_counter() - start < 1.0


class TestPhaseDiagram:
    def test_fig1_line_is_linear_in_lambda(self):
        lams = [0.5, 0.6, 0.75, 0.9, 1.0]
        rows = phase_diagram(FormulaFamily.BDF1, [0.5], lams)
        for (g, l, inv), lam in zip(rows, lams):
            assert g == 0.5 and l == lam
            assert inv == pytest.approx(2.0 * (2.0 * lam - 1.0) * math.sqrt(2.0), rel=1e-13)

    def test_vanishes_at_half_lambda(self):
        ((_, _, inv),) = phase_diagram(FormulaFamily.BDF2, [0.3], [0.5])
        assert inv == 0.0

    def test_negative_in_unconditional_region(self):
        ((_, _, inv),) = phase_diagram(FormulaFamily.BDF1, [0.5], [0.2])
        assert inv < 0.0

    @staticmethod
    def per_point(family, gammas, lams):
        return [(g, l, inv_stability_bound(family, g, l)) for g in gammas for l in lams]

    @pytest.mark.parametrize("family", list(FormulaFamily))
    def test_equals_the_per_point_bound(self, family):
        gammas = [0.05, 0.3, 0.5, 2.0 / 3.0, 0.9, 1.0]
        lams = [0.0, 0.2, 0.49, 0.5, 0.51, 0.8, 1.0 / 3.0, 1.0]
        table = phase_diagram(family, gammas, np.array(lams))
        assert table.dtype == np.float64 and table.shape == (len(gammas) * len(lams), 3)
        assert np.array_equal(table, np.array(self.per_point(family, gammas, lams)))

    @pytest.mark.parametrize(
        "gammas, lams",
        [([0.5, 0.0], [0.5]), ([0.5], [0.5, 1.5]), ([1.5, 0.5], [0.2, -0.1]),
         ([0.5, 1.5], [0.2, -0.1]), ([0.5, math.nan], [0.5]), ([0.5], [math.nan])],
    )
    def test_bad_points_raise_the_per_point_message(self, gammas, lams):
        with pytest.raises(ValueError) as expected:
            self.per_point(FormulaFamily.BDF1, gammas, lams)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            phase_diagram(FormulaFamily.BDF1, gammas, lams)

    def test_grid_must_be_non_empty(self):
        with pytest.raises(ValueError):
            phase_diagram(FormulaFamily.BDF1, [], [0.5])
