"""The stability bound against the characteristic function of one sine mode.

Each sine mode zeta_k of the scheme obeys a scalar linear recurrence whose
generating function has the denominator

    f(z) = 1 - z + mu w(z) ((1 - lam) + lam z),   mu = -S sigma_k > 0,

with w the weight family's generating function.  The mode stays bounded
iff f has no zero in |z| < 1, so the boundary of the stable mu is where
the locus

    mu(theta) = (e^{i theta} - 1) / (w(e^{i theta}) ((1 - lam) + lam e^{i theta}))

first meets the positive real axis.  For lam > 1/2 that happens at
theta = pi, where mu(pi) = 2 / ((2 lam - 1) w(-1)); the checkerboard mode
has sigma = -4 on a fine grid, so mu(pi) / 4 is the paper's S_x.  For
lam <= 1/2 the locus never meets the positive real axis: every S is
stable.  w is evaluated here from its closed form on the unit circle,
independently of ``coeffs.eval_generating_function``, which is real-only.
fig2's empirical circles, bisected with the default probe grid and its
400 steps, sit above S_x and within 1% of it.  Past the bound, f has a
root z0 in (-1, 0), and the fastest live mode of the unstable fig4, fig6
and fig7 runs grows by 1/|z0| per level.  The probe's verdicts follow the
root test for its grid's fastest live mode, away from that mode's threshold.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from fracstep.coeffs import FormulaFamily, eval_generating_function
from fracstep.harness import figure_specs
from fracstep.solver import mesh_ratio, run
from fracstep.stability import find_empirical_thresholds, probe_batch, stability_bound

GAMMAS = np.linspace(0.05, 1.0, 20)[:, None]
THETA = np.linspace(0.0, np.pi, 8193)[1:]  # (0, pi]; the locus starts at 0
Z = np.exp(1j * THETA)


@functools.cache
def log_base(family):
    """The log of the base polynomial p on Z, on the branch analytic in the
    unit disc and real at z = 0 (p vanishes only at z = 1): the principal
    angle just above z = 1, unwrapped along the circle."""
    base = np.polynomial.polynomial.polyval(Z, family.base_poly)
    return np.log(np.abs(base)) + 1j * np.unwrap(np.angle(base))


def w_on_circle(family, alpha):
    """w(z, alpha) on Z for each alpha (rows): the base polynomial to the power
    alpha, times the Newton-Gregory bracket 1 + (alpha / 2) (1 - z) for NG2."""
    w = np.exp(alpha * log_base(family))
    if family is FormulaFamily.NG2:
        w *= 1.0 + 0.5 * alpha * (1.0 - Z)
    return w


def root_in_disc(f):
    """A root z0 of f in (-1, 0), where f(-1) < 0 < f(0), by 64 bisections."""
    lo, hi = -1.0, 0.0
    assert f(lo) < 0.0 < f(hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def locus(family, lam):
    """mu(theta) on THETA, one row per gamma of GAMMAS."""
    # at lam = 1/2 the locus has a pole at theta = pi
    with np.errstate(divide="ignore", invalid="ignore"):
        return (Z - 1.0) / (w_on_circle(family, 1.0 - GAMMAS) * ((1.0 - lam) + lam * Z))


@pytest.mark.parametrize("family", list(FormulaFamily))
def test_w_on_the_circle_meets_the_real_closed_form_at_minus_one(family):
    w = w_on_circle(family, 1.0 - GAMMAS)[:, -1]
    expected = [eval_generating_function(family, 1.0 - g, -1.0) for g in GAMMAS[:, 0]]
    assert np.all(abs(w - expected) <= 1e-14 * np.array(expected))


@pytest.mark.parametrize("lam", [0.55, 0.6, 0.8, 1.0])
@pytest.mark.parametrize("family", list(FormulaFamily))
def test_the_locus_first_meets_the_positive_axis_at_pi(family, lam):
    mu = locus(family, lam)
    # above the real axis on (0, pi): no crossing before pi
    assert np.all(mu.imag[:, :-1] > 0.0)
    end = mu[:, -1]
    assert np.all(end.real > 0.0) and np.all(abs(end.imag) <= 1e-12 * end.real)
    s_cross = np.array([stability_bound(family, g, lam) for g in GAMMAS[:, 0]])
    assert np.all(abs(end.real / 4.0 - s_cross) <= 1e-12 * s_cross)


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.4, 0.5])
@pytest.mark.parametrize("family", list(FormulaFamily))
def test_no_positive_crossing_at_or_below_one_half(family, lam):
    mu = locus(family, lam)
    if lam == 0.5:
        mu = mu[:, :-1]  # the pole
    else:
        assert np.all(mu[:, -1].real < 0.0)
    rows, turns = np.nonzero(np.sign(mu.imag[:, :-1]) != np.sign(mu.imag[:, 1:]))
    # every change of side (or touch) is on the negative real axis
    assert np.all(mu.real[rows, turns] < 0.0) and np.all(mu.real[rows, turns + 1] < 0.0)


def test_fig2_circles_sit_just_above_the_bound():
    # fig2's bisections: the probe grid's fastest mode has sigma above -4, and the
    # 400-step horizon and the bisection tolerance move each circle up, by under 1%
    gammas = [round(0.1 * k, 1) for k in range(1, 11)]
    bounds = [stability_bound(FormulaFamily.BDF1, g, 1.0) for g in gammas]
    circles = find_empirical_thresholds(
        FormulaFamily.BDF1, [(g, 1.0, (0.5 * s, 1.5 * s)) for g, s in zip(gammas, bounds)]
    )
    for circle, s_cross in zip(circles, bounds):
        assert s_cross < circle <= 1.01 * s_cross


@pytest.mark.parametrize("fig_id, rate", [("fig4", 1.053549), ("fig6", 1.158568), ("fig7", 1.158568)])
def test_unstable_figure_runs_grow_by_the_root_inside_the_disc(fig_id, rate):
    # fig4 (lam = 1, S = 0.37) and fig6/fig7 (lam = 0.8, S = 0.7) are BDF1 runs from
    # x(1 - x) on 21 nodes, past the bound; run here to 400 levels
    spec = replace(figure_specs(fig_id)[0], steps=400, output_times=())
    problem, config = spec.problem(), spec.scheme()
    levels = run(problem, config).values
    n = levels.shape[1]
    # the fastest mode, with the largest mu, is k = N - 2; it is odd, so x(1 - x) holds it
    k = n - 2
    mu = 4.0 * mesh_ratio(problem, config) * np.sin(0.5 * np.pi * k / (n - 1)) ** 2
    alpha, lam = 1.0 - problem.gamma, config.lam

    def f(z):  # on the real axis, with w(z) = (1 - z)^alpha for BDF1
        return 1.0 - z + mu * (1.0 - z) ** alpha * ((1.0 - lam) + lam * z)

    z0 = root_in_disc(f)
    assert round(1.0 / abs(z0), 6) == rate
    # the amplitude of mode k in each level (the Dirichlet data are 0), and its
    # growth per level over the last 60 of the 400
    amplitude = np.abs(levels[:, 1:-1] @ np.sin(np.pi * k * np.arange(1, n - 1) / (n - 1)))
    assert abs((amplitude[400] / amplitude[340]) ** (1.0 / 60.0) - 1.0 / abs(z0)) <= 1e-6


@pytest.mark.parametrize("family", list(FormulaFamily))
def test_probe_verdicts_follow_the_root_test_of_the_fastest_mode(family):
    # the probe grid's 33 nodes: the checkerboard's fastest live mode is k = 31, whose
    # mu = 4 S sin^2(31 pi / 64) reaches mu(pi) at S = S_x / sin^2(31 pi / 64)
    lift = np.sin(0.5 * np.pi * 31 / 32) ** 2
    cases, expected = [], []
    for lam in (0.6, 0.8, 1.0):
        for gamma in (0.2, 0.5, 0.8, 1.0):
            alpha, threshold = 1.0 - gamma, stability_bound(family, gamma, lam) / lift
            for share in (0.5, 0.9, 1.05, 1.2, 2.0):
                mu, s = 4.0 * share * threshold * lift, share * threshold

                def f(z):  # on the real axis
                    return 1.0 - z + mu * eval_generating_function(family, alpha, z) * ((1.0 - lam) + lam * z)

                if share <= 0.9:
                    verdict = "stable"
                elif 1.0 / abs(root_in_disc(f)) >= 1.02:
                    verdict = "unstable"
                else:
                    continue  # too close to the threshold for 400 steps to tell
                cases.append((gamma, lam, s))
                expected.append(verdict)
    # 1.05 times the threshold is too close at lam = 0.6 (1/|z0| about 1.015)
    assert expected.count("stable") == 24 and expected.count("unstable") == 32
    verdicts = [report.empirical_verdict for report in probe_batch(family, cases)]
    assert verdicts == expected
