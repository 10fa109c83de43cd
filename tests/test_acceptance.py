"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <n> ... PASS/FAIL`` line (visible
with ``pytest -s``) and then asserts, so the suite both gates CI and
reads as a checklist.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from fracstep.cli import EXIT_UNSTABLE, main as cli_main
from fracstep.coeffs import FormulaFamily, build_table, eval_generating_function
from fracstep.exact_solution import exact_profile, parabola_ic
from fracstep.harness import ExperimentSpec, convergence_study, reproduce_figure
from fracstep.mittag_leffler import ml_eval
from fracstep.solver import ProblemSpec, SchemeConfig, dt_for_mesh_ratio, run
from fracstep.stability import find_empirical_threshold, probe_stability, stability_bound

from test_mittag_leffler import OVERLAP_CUTOFF, erfc_times_exp_quadrature, gll_reference
from test_coeffs import binomial_weight, euler_accelerated_sum
from test_solver import classical_wa_oracle


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def parabola_problem(gamma: float) -> ProblemSpec:
    return ProblemSpec(gamma=gamma, k_gamma=1.0, initial_condition=lambda x: x * (1.0 - x))


def checkerboard_problem(gamma: float, nodes: int, eps: float = 1e-6) -> ProblemSpec:
    dx = 1.0 / nodes

    def ic(x):
        j = round(x / dx)
        if j == 0 or j == nodes:
            return 0.0
        return eps if j % 2 == 0 else -eps

    return ProblemSpec(gamma=gamma, k_gamma=1.0, initial_condition=ic)


def test_criterion_1_stability_bound_closed_forms():
    inv_explicit = 1.0 / stability_bound(FormulaFamily.BDF1, 0.5, 1.0)
    inv_implicit = 1.0 / stability_bound(FormulaFamily.BDF1, 0.5, 0.8)
    err1 = abs(inv_explicit - 2.0 ** (2.0 - 0.5))
    err2 = abs(inv_implicit - 1.2 * math.sqrt(2.0))
    ok = err1 < 1e-12 and err2 < 1e-12
    report(1, ok, f"1/S_x errors: explicit {err1:.2e}, lambda=0.8 {err2:.2e}")


def test_criterion_2_stable_figure_runs_match_exact():
    cases = [
        ("fig3 triangles (CI scale)", 0.5, 1.0, 0.33, 1 / 10, {"t_end": 0.05}),
        ("fig3 triangles (paper scale)", 0.5, 1.0, 0.33, 1 / 10, {"t_end": 0.5}),
        ("fig3 squares", 0.75, 1.0, 0.4, 1 / 20, {"t_end": 0.5}),
        ("fig3 circles", 1.0, 1.0, 0.5, 1 / 50, {"t_end": 0.5}),
        ("fig5", 0.5, 0.8, 0.55, 1 / 20, {"steps": 500}),
    ]
    ic = parabola_ic()
    details = []
    ok = True
    for label, gamma, lam, s, dx, horizon in cases:
        start = time.perf_counter()
        dt = dt_for_mesh_ratio(s, dx, gamma)
        steps = horizon.get("steps") or round(horizon["t_end"] / dt)
        config = SchemeConfig(lam=lam, dx=dx, dt=dt, steps=steps)
        history = run(parabola_problem(gamma), config)  # raises on overflow
        t_actual = steps * dt
        exact = exact_profile(ic, gamma, 1.0, history.x, t_actual)
        err = float(np.max(np.abs(history.level(steps) - exact)))
        elapsed = time.perf_counter() - start
        details.append(f"{label}: err={err:.2e} ({elapsed:.1f}s)")
        ok = ok and err < 5e-2 and elapsed < 60.0
    report(2, ok, "; ".join(details))


def test_criterion_3_unstable_figure_runs():
    details = []
    ok = True
    for label, lam, s, steps in (("fig4", 1.0, 0.37, 200), ("fig6/7", 0.8, 0.7, 100)):
        rep = probe_stability(FormulaFamily.BDF1, 0.5, lam, s, nodes=20, steps=steps)
        # sawtooth signature on the final level of the probe run
        config = SchemeConfig(
            lam=lam, dx=1 / 20, dt=dt_for_mesh_ratio(s, 1 / 20, 0.5), steps=steps
        )
        history = run(checkerboard_problem(0.5, 20), config)
        inner = history.level(steps)[1:-1]
        flips = sum(1 for a, b in zip(inner, inner[1:]) if a * b < 0)
        details.append(f"{label}: growth={rep.growth_factor:.3g} flips={flips}/18")
        ok = ok and rep.growth_factor > 10.0 and flips >= 15
    report(3, ok, "; ".join(details))


def test_criterion_4_empirical_thresholds_match_bound():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (0.25, 0.5, 0.75):
        for lam in (0.7, 0.85, 1.0):
            s_cross = stability_bound(FormulaFamily.BDF1, gamma, lam)
            est = find_empirical_threshold(
                FormulaFamily.BDF1, gamma, lam, (0.5 * s_cross, 1.5 * s_cross),
                nodes=32, steps=400,
            )
            worst = max(worst, abs(est - s_cross) / s_cross)
    elapsed = time.perf_counter() - start
    ok = worst < 0.05 and elapsed < 300.0
    report(4, ok, f"worst relative deviation {worst:.3%} in {elapsed:.1f}s")


def test_criterion_5_unconditional_stability():
    worst = 0.0
    for family in (FormulaFamily.BDF1, FormulaFamily.BDF2):
        for lam in (0.0, 0.25, 0.5):
            for gamma in (0.25, 0.5, 0.75):
                for s in (1.0, 10.0, 100.0):
                    rep = probe_stability(family, gamma, lam, s, nodes=32, steps=400)
                    worst = max(worst, rep.growth_factor)
    ok = worst <= 1.0 + 1e-6
    report(5, ok, f"max growth factor over 54 probes: {worst:.6f}")


def test_criterion_6_coefficient_identities():
    worst_rec = 0.0
    for alpha in (0.25, 0.5, 0.75):
        weights = build_table(FormulaFamily.BDF1, alpha, 50)
        for k in range(51):
            expected = binomial_weight(alpha, k)
            worst_rec = max(worst_rec, abs(weights[k] - expected) / abs(expected))
    worst_sum = 0.0
    for family in FormulaFamily:
        for alpha in (0.25, 0.5, 0.75):
            w = build_table(family, alpha, 200)
            accelerated = euler_accelerated_sum(w * (-1.0) ** np.arange(201))
            closed = eval_generating_function(family, alpha, -1.0)
            worst_sum = max(worst_sum, abs(accelerated - closed))
    ok = worst_rec < 1e-12 and worst_sum < 1e-6
    report(6, ok, f"recurrence vs binomial {worst_rec:.2e} rel; z=-1 sums {worst_sum:.2e} abs")


def test_criterion_7_mittag_leffler_accuracy():
    worst_exp = max(
        abs(ml_eval(1.0, float(z)) - math.exp(float(z))) for z in np.linspace(-30.0, 0.0, 181)
    )
    worst_erfc = max(
        abs(ml_eval(0.5, -x) - erfc_times_exp_quadrature(x)) for x in (0.5, 1.0, 2.0, 4.0)
    )
    # the region of the former series/asymptotic switch, against the
    # independent 30-digit oracle
    worst_overlap = 0.0
    for gamma, cutoff in OVERLAP_CUTOFF.items():
        for z in np.linspace(-0.8 * cutoff, -1.2 * cutoff, 20):
            worst_overlap = max(
                worst_overlap, abs(ml_eval(gamma, float(z)) - gll_reference(gamma, -float(z)))
            )
    ok = worst_exp < 1e-10 and worst_erfc < 1e-7 and worst_overlap < 1e-6
    report(
        7,
        ok,
        f"exp {worst_exp:.2e}; erfc identity {worst_erfc:.2e}; "
        f"former branch overlap vs oracle {worst_overlap:.2e}",
    )


def test_criterion_8_classical_limit_equivalence():
    worst = 0.0
    s, dx, steps = 0.4, 0.1, 50
    for lam in (0.0, 0.5, 1.0):
        config = SchemeConfig(lam=lam, dx=dx, dt=dt_for_mesh_ratio(s, dx, 1.0), steps=steps)
        history = run(parabola_problem(1.0), config)
        oracle = classical_wa_oracle(history.level(0).copy(), lam, s, steps)
        worst = max(worst, float(np.max(np.abs(history.values - oracle))))
    ok = worst < 1e-12
    report(8, ok, f"max per-level deviation from classical scheme: {worst:.2e}")


def test_criterion_9_convergence_ordering():
    gamma, dx = 0.5, 0.02
    steps = 32

    def spec(lam):
        return ExperimentSpec(
            name="accept9",
            gamma=gamma,
            k_gamma=1.0,
            lam=lam,
            family=FormulaFamily.BDF1,
            dx=dx,
            dt=0.5 / steps,
            steps=steps,
            output_times=(),
            outputs=("profile_csv",),
        )

    implicit = convergence_study(spec(0.0), refinements=2, mode="refine_dt")
    errors = [lv[2] for lv in implicit.refinement_levels]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    cn = convergence_study(spec(0.5), refinements=2, mode="refine_dt")
    cn_not_worse = all(
        e_cn <= e_im
        for (_, _, e_cn), (_, _, e_im) in zip(cn.refinement_levels, implicit.refinement_levels)
    )
    ok = decreasing and cn_not_worse
    report(
        9,
        ok,
        f"implicit errors {['%.3e' % e for e in errors]} decreasing={decreasing}; "
        f"CN<=implicit at all levels: {cn_not_worse}",
    )


def test_criterion_10_figure_determinism(tmp_path, capsys):
    ok = True
    details = []
    for fig_id, extra in (("fig1", []), ("fig4", []), ("fig3", ["--t-end", "0.005"])):
        dirs = [tmp_path / f"{fig_id}_{k}" for k in "ab"]
        codes = []
        for d in dirs:
            codes.append(cli_main(["figure", "--id", fig_id, "--out-dir", str(d)] + extra))
        capsys.readouterr()
        identical = all(
            (dirs[0] / p.name).read_bytes() == p.read_bytes()
            for p in sorted(dirs[1].glob("*.csv"))
        )
        same_names = sorted(p.name for p in dirs[0].glob("*.csv")) == sorted(
            p.name for p in dirs[1].glob("*.csv")
        )
        if fig_id == "fig4":
            ok = ok and codes == [EXIT_UNSTABLE, EXIT_UNSTABLE]
        identical = identical and same_names and codes[0] == codes[1]
        details.append(f"{fig_id}: byte-identical={identical}")
        ok = ok and identical
    with capsys.disabled():
        report(10, ok, "; ".join(details))
