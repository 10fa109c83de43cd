"""Tests of the fractional discretization weight generator."""

import math

import numpy as np
import pytest

from fracstep.coeffs import (
    FormulaFamily,
    build_table,
    eval_generating_function,
    newton_gregory_omegas,
)

ALL_FAMILIES = list(FormulaFamily)
ALPHA_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]

# closed-form generating function values at z = -1:
#   bdf1: (1+1)^a; bdf2: (3/2+2+1/2)^a; bdf3: (11/6+3+3/2+1/3)^a;
#   ng2: 2^a (W0 + 2 W1) = 2^a (1+a)
GEN_AT_MINUS_1 = {
    FormulaFamily.BDF1: lambda a: 2.0**a,
    FormulaFamily.BDF2: lambda a: 4.0**a,
    FormulaFamily.BDF3: lambda a: (20.0 / 3.0) ** a,
    FormulaFamily.NG2: lambda a: 2.0**a * (1.0 + a),
}


def binomial_weight(alpha: float, k: int) -> float:
    """Independent BDF1 oracle: (-1)^k Gamma(a+1) / (Gamma(k+1) Gamma(a-k+1))."""
    return (-1.0) ** k * math.gamma(alpha + 1.0) / (math.gamma(k + 1.0) * math.gamma(alpha - k + 1.0))


def euler_accelerated_sum(terms, levels: int = 30) -> float:
    """Euler acceleration of an alternating series: average adjacent partial sums."""
    s = np.cumsum(np.asarray(terms, dtype=float))
    for _ in range(levels):
        if s.size < 2:
            break
        s = 0.5 * (s[:-1] + s[1:])
    return float(s[-1])


class TestBdf1:
    def test_first_weight_is_one(self):
        for a in ALPHA_GRID:
            assert build_table(FormulaFamily.BDF1, a, 0)[0] == 1.0

    def test_classical_alpha_1(self):
        w = build_table(FormulaFamily.BDF1, 1.0, 4)
        assert w.tolist() == [1.0, -1.0, 0.0, 0.0, 0.0]

    def test_alpha_half_exact(self):
        # recurrence factors are exact dyadic rationals for alpha = 1/2
        w = build_table(FormulaFamily.BDF1, 0.5, 3)
        assert w.tolist() == [1.0, -0.5, -0.125, -0.0625]

    def test_identity_weights_at_alpha_zero(self):
        w = build_table(FormulaFamily.BDF1, 0.0, 5)
        assert w.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_recurrence_matches_binomial_closed_form(self, alpha):
        w = build_table(FormulaFamily.BDF1, alpha, 50)
        for k in range(51):
            expected = binomial_weight(alpha, k)
            assert w[k] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_sign_pattern_and_partial_sums(self, alpha):
        w = build_table(FormulaFamily.BDF1, alpha, 400)
        assert w[0] == 1.0
        assert np.all(w[1:] < 0.0)
        partial = np.cumsum(w)
        assert np.all(partial > 0.0)
        assert np.all(np.diff(partial) < 0.0)
        # tail behaves like K^(-alpha)/Gamma(1-alpha): well on its way to 0
        assert partial[-1] < 400.0 ** (-alpha) / math.gamma(1.0 - alpha) * 1.5


class TestNewtonGregory:
    def test_single_coefficient(self):
        for a in ALPHA_GRID:
            assert newton_gregory_omegas(a, 1).tolist() == [1.0]

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_second_coefficient_is_alpha_over_two(self, alpha):
        got = newton_gregory_omegas(alpha, 2)
        assert got[0] == 1.0
        assert got[1] == pytest.approx(alpha / 2.0, rel=1e-15)

    def test_alpha_one_gives_harmonic_like_taylor_coefficients(self):
        # oracle: ln(1-u)/(-u) = sum u^n/(n+1), so alpha=1 returns 1/(n+1)
        got = newton_gregory_omegas(1.0, 5)
        expected = [1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0]
        assert got == pytest.approx(expected, rel=1e-14)

    def test_alpha_half_frozen_from_symbolic_expansion(self):
        # sympy: series((log(xi)/(xi-1))**(1/2), u=1-xi) = 1 + u/4 + 13u^2/96 + 35u^3/384
        got = newton_gregory_omegas(0.5, 4)
        assert got == pytest.approx([1.0, 0.25, 13.0 / 96.0, 35.0 / 384.0], rel=1e-14)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            newton_gregory_omegas(0.5, 0)


class TestOtherFamilies:
    def test_bdf2_leading_weight(self):
        table = build_table(FormulaFamily.BDF2, 0.5, 0)
        assert table[0] == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_family_orders(self):
        assert [f.order for f in ALL_FAMILIES] == [1, 2, 3, 2]

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_operator_converges_at_the_family_order(self, family):
        # h^(-alpha) sum_k w_k f(1 - k h) for f = t^3, whose derivative of
        # order alpha at t = 1 is 6 / Gamma(4 - alpha); measured rates are
        # 1.00 / 2.00 / 3.00 / 2.00
        alpha = 0.5
        exact = 6.0 / math.gamma(4.0 - alpha)
        errors = []
        for n in (32, 64, 128, 256, 512):
            weights = build_table(family, alpha, n)[: n + 1]
            value = n**alpha * np.dot(weights, (1.0 - np.arange(n + 1) / n) ** 3)
            errors.append(abs(value - exact))
        rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(abs(r - family.order) < 0.1 for r in rates), rates

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_ng2_is_cauchy_product_of_bdf1_and_bracket(self, alpha):
        k_max = 60
        ng = build_table(FormulaFamily.NG2, alpha, k_max)
        b = build_table(FormulaFamily.BDF1, alpha, k_max)
        w0, w1 = newton_gregory_omegas(alpha, 2)
        # bracket W0 + W1 (1 - z) = (W0 + W1) - W1 z
        expected = (w0 + w1) * b
        expected[1:] -= w1 * b[:-1]
        assert ng == pytest.approx(expected, rel=1e-12)

    def test_classical_alpha_one_polynomial_truncation(self):
        # alpha = 1 reproduces the base polynomial itself: weights vanish
        # beyond the polynomial degree
        w = build_table(FormulaFamily.BDF2, 1.0, 8)
        assert w[:3] == pytest.approx([1.5, -2.0, 0.5], abs=1e-15)
        assert np.max(np.abs(w[3:])) < 1e-14
        w = build_table(FormulaFamily.BDF1, 1.0, 8)
        assert np.max(np.abs(w[2:])) < 1e-14


class TestGeneratingFunction:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_series_consistency_at_half(self, family, alpha):
        # sum w_k z^k at z = 0.5 must converge to the closed form
        w = build_table(family, alpha, 200)
        z_pow = 0.5 ** np.arange(201)
        partial = float(w @ z_pow)
        assert partial == pytest.approx(
            eval_generating_function(family, alpha, 0.5), abs=1e-10
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_euler_accelerated_sum_at_minus_one(self, family, alpha):
        w = build_table(family, alpha, 200)
        accelerated = euler_accelerated_sum(w * (-1.0) ** np.arange(201))
        closed = eval_generating_function(family, alpha, -1.0)
        assert accelerated == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_closed_forms_at_minus_one(self, alpha):
        for family in ALL_FAMILIES:
            assert eval_generating_function(family, alpha, -1.0) == pytest.approx(
                GEN_AT_MINUS_1[family](alpha), rel=1e-14
            )

    def test_classical_limit(self):
        assert eval_generating_function(FormulaFamily.BDF1, 1.0, -1.0) == 2.0

    def test_domain_error_for_nonpositive_base(self):
        with pytest.raises(ValueError):
            eval_generating_function(FormulaFamily.BDF1, 0.5, 1.5)
        # integer alpha keeps the polynomial branch valid
        assert eval_generating_function(FormulaFamily.BDF1, 1.0, 1.5) == -0.5
        assert eval_generating_function(FormulaFamily.BDF1, 0.5, 1.0) == 0.0


class TestTable:
    def test_weights_view_is_read_only(self):
        table = build_table(FormulaFamily.BDF1, 0.5, 4)
        with pytest.raises(ValueError):
            table[0] = 2.0

    def test_is_a_float64_array_of_capacity_plus_one_weights(self):
        for family in ALL_FAMILIES:
            table = build_table(family, 0.5, 7)
            assert type(table) is np.ndarray and table.dtype == np.float64
            assert table.shape == (8,)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_table(FormulaFamily.BDF1, -0.1, 4)
        with pytest.raises(ValueError):
            build_table(FormulaFamily.BDF1, 2.0, 4)
        with pytest.raises(ValueError):
            build_table(FormulaFamily.BDF1, 0.5, -1)
        with pytest.raises(ValueError):
            FormulaFamily.parse("bdf9")


def scalar_bdf1(alpha: float, count: int) -> list[float]:
    """The BDF1 recurrence w_k = (1 - (alpha + 1)/k) w_{k-1}, one Python float at a time."""
    w = [1.0]
    for k in range(1, count):
        w.append((1.0 - (alpha + 1.0) / k) * w[-1])
    return w


class TestVectorisedRecurrences:
    COUNT = 100_000

    @pytest.mark.parametrize("alpha", [1e-3, 0.25, 0.5, 0.99])
    def test_bdf1_and_ng2_equal_the_scalar_recurrence_bit_for_bit(self, alpha):
        b = scalar_bdf1(alpha, self.COUNT)
        assert build_table(FormulaFamily.BDF1, alpha, self.COUNT - 1).tolist() == b
        w0, w1 = newton_gregory_omegas(alpha, 2)
        ng2 = [(w0 + w1) * b[0]] + [(w0 + w1) * b[k] - w1 * b[k - 1] for k in range(1, self.COUNT)]
        assert build_table(FormulaFamily.NG2, alpha, self.COUNT - 1).tolist() == ng2
