"""Stability probes run as one stacked history against one-by-one runs.

``probe_batch`` steps B checkerboard probes in lockstep through
``solver.run_stacked``; ``probe_stability`` is its batch of one.  Every
problem of a batch must give the verdict, step count and growth of its
own probe, and levels that match the direct-summation stepper of
``test_history_sums``; a problem that overflows is masked without ending
or changing the others.  A stack keeps no nodes: its levels are read from
the modes its stepper holds.  Lockstep bisection must reproduce the
one-case thresholds exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest

from fracstep import solver
from fracstep.coeffs import FormulaFamily, build_table
from fracstep.harness import reproduce_figure
from fracstep.solver import mesh_ratio, run, run_stacked
from fracstep.stability import (
    PROBE_AMPLITUDE,
    find_empirical_threshold,
    find_empirical_thresholds,
    probe_batch,
    probe_stability,
    stability_bound,
)

from test_history_sums import assert_close, boundary_problem, direct_levels
from test_overflow_checks import held_run_stacked
from test_solver import make_config

NODES = 32
STEPS = 400
GROWTH_RTOL = 1e-12


def mixed_cases(family):
    """lam 0, 0.5, 0.8 and 1, S on both sides of the bound, one early overflow."""
    cases = [(0.3, 0.0, 5.0), (0.6, 0.5, 2.0)]
    for gamma, lam in ((0.5, 0.8), (0.7, 1.0), (0.4, 1.0)):
        s_cross = stability_bound(family, gamma, lam)
        cases += [(gamma, lam, 0.9 * s_cross), (gamma, lam, 1.3 * s_cross)]
    cases.append((0.9, 1.0, 50.0 * stability_bound(family, 0.9, 1.0)))  # overflows early
    return cases


def checkerboard():
    row = PROBE_AMPLITUDE * (-1.0) ** np.arange(NODES + 1)
    row[0] = row[-1] = 0.0
    return row


def stacked_levels(family, cases):
    tables = [build_table(family, 1.0 - gamma, STEPS + 1) for gamma, _, _ in cases]
    rows = np.tile(checkerboard(), (len(cases), 1))
    s = [c[2] for c in cases]
    lam = [c[1] for c in cases]
    return held_run_stacked(rows, tables, s, lam, STEPS), tables


@pytest.mark.parametrize("family", list(FormulaFamily))
def test_batch_reports_equal_single_probes(family):
    cases = mixed_cases(family)
    reports = probe_batch(family, cases)
    assert {r.empirical_verdict for r in reports} == {"stable", "unstable"}
    assert reports[-1].probe_steps < 100 and reports[-1].growth_factor == math.inf
    for case, report in zip(cases, reports):
        single = probe_stability(family, *case)
        assert report.empirical_verdict == single.empirical_verdict
        assert report.theoretical_verdict == single.theoretical_verdict
        assert report.probe_steps == single.probe_steps
        assert report.s_value == single.s_value and report.s_cross == single.s_cross
        if math.isinf(single.growth_factor):
            assert report.growth_factor == single.growth_factor
        else:
            assert report.growth_factor == pytest.approx(single.growth_factor, rel=GROWTH_RTOL)


@pytest.mark.parametrize("family", list(FormulaFamily))
def test_batch_levels_match_direct_summation(family):
    cases = mixed_cases(family)
    stack, tables = stacked_levels(family, cases)
    levels = stack.levels
    assert levels.shape == (STEPS + 1, len(cases), NODES + 1)
    for b, ((_, lam, s), table) in enumerate(zip(cases, tables)):
        expected, level = direct_levels([checkerboard()], table.weights, s, lam, STEPS)
        assert stack.overflow[b] == (level or 0)
        if level is None:
            assert_close(levels[:, b], expected)
            assert_close(stack.last[b], expected[-1])
        else:
            # levels up to the overflow are the reference's, each at its own size;
            # from the overflow on only the Dirichlet data remain
            size = np.max(np.abs(expected), axis=1)
            assert np.all(np.max(np.abs(levels[:level, b] - expected), axis=1) <= GROWTH_RTOL * size)
            assert not np.any(stack.modes[level:, b]) and not np.any(stack.last[b])


def test_overflow_neither_ends_nor_changes_the_others():
    family = FormulaFamily.BDF2
    cases = mixed_cases(family)
    stack, _ = stacked_levels(family, cases)
    alone, _ = stacked_levels(family, cases[:-1])
    assert stack.overflow[-1] > 0 and not alone.overflow.any()
    # the others run on to the last level, as they do alone
    assert np.array_equal(stack.modes[:, :-1], alone.modes)
    assert np.array_equal(stack.last[:-1], alone.last)


def test_a_probe_stack_steps_only_the_odd_modes():
    # the checkerboard is symmetric about the centre: its 15 even modes of 31 are 0
    stack, _ = stacked_levels(FormulaFamily.BDF1, mixed_cases(FormulaFamily.BDF1))
    assert stack.memory.modes.shape[2] == 16
    assert np.array_equal(stack.memory.live, np.arange(0, NODES - 1, 2))


@pytest.mark.parametrize("overflowing", [0, 1])
def test_a_checkerboard_beside_an_asymmetric_problem_runs_as_alone(overflowing):
    # the stack steps all 31 modes, the checkerboard alone only its 16 odd ones
    rows = np.array([checkerboard(), np.linspace(0.25, -0.5, NODES + 1)])
    rows[1, 1:-1] += PROBE_AMPLITUDE * np.random.default_rng(5).standard_normal(NODES - 1)
    tables = [build_table(FormulaFamily.BDF2, 1.0 - g, STEPS + 1) for g in (0.5, 0.7)]
    s_cross = [stability_bound(FormulaFamily.BDF2, g, 0.8) for g in (0.5, 0.7)]
    s = [(50.0 if b == overflowing else 0.9) * x for b, x in enumerate(s_cross)]
    stack = held_run_stacked(rows, tables, s, [0.8, 0.8], STEPS)
    assert stack.memory.modes.shape[2] == NODES - 1
    assert stack.overflow[overflowing] > 0 and stack.overflow[1 - overflowing] == 0
    for b in range(2):
        alone = held_run_stacked(rows[b : b + 1], tables[b : b + 1], s[b : b + 1], [0.8], STEPS)
        assert alone.memory.modes.shape[2] == (16 if b == 0 else NODES - 1)
        assert np.array_equal(stack.last[b], alone.last[0])
        assert stack.overflow[b] == alone.overflow[0]


def test_a_stack_on_its_lines_steps_no_mode():
    # first rows on the lines through their ends have no live mode; they stay there
    ends = np.array([[0.25, -0.5], [0.0, 0.0], [1.0, 3.0]])
    rows = ends[:, :1] + (ends[:, 1:] - ends[:, :1]) * np.linspace(0.0, 1.0, NODES + 1)
    tables = [build_table(FormulaFamily.NG2, 0.5, STEPS + 1)] * 3
    stack = held_run_stacked(rows, tables, [0.3, 5.0, 0.3], [1.0, 0.5, 0.0], STEPS)
    assert stack.memory.modes.shape[2] == 0
    assert np.array_equal(stack.last, rows) and not stack.overflow.any()


def test_masked_problem_keeps_only_its_dirichlet_data():
    # unequal Dirichlet data and lam < 1: the masked problem's tridiagonal
    # solve must stop too
    table = build_table(FormulaFamily.BDF1, 0.5, STEPS + 1)
    row = np.linspace(0.25, -0.5, NODES + 1) + 0.1 * checkerboard() / PROBE_AMPLITUDE
    s_cross = stability_bound(FormulaFamily.BDF1, 0.5, 0.8)
    s, lam = [0.5 * s_cross, 50.0 * s_cross], [0.8, 0.8]
    stack = held_run_stacked(np.tile(row, (2, 1)), [table, table], s, lam, STEPS)
    expected, level = direct_levels([row], table.weights, s[1], lam[1], STEPS)
    assert stack.overflow.tolist() == [0, level]
    assert_close(stack.levels[:level, 1], expected)
    assert not np.any(stack.modes[level:, 1])
    assert not np.any(stack.last[1, 1:-1])
    assert np.all(stack.last[1, [0, -1]] == [0.25, -0.5])
    expected, _ = direct_levels([row], table.weights, s[0], lam[0], STEPS)
    assert_close(stack.levels[:, 0], expected)
    assert_close(stack.last[0], expected[-1])


@pytest.mark.parametrize("family", list(FormulaFamily))
def test_last_level_equals_the_last_level_of_run(family):
    # a stack forms its last level from the modes, run from increments on
    # the nodes of each block start: the two agree to rounding
    gammas, lams = (0.5, 0.7, 0.4, 0.6), (0.0, 0.5, 0.8, 1.0)
    problems = [boundary_problem(g) for g in gammas]
    s = [2.0, 1.0] + [0.9 * stability_bound(family, g, lam) for g, lam in zip(gammas[2:], lams[2:])]
    configs = [make_config(g, lam, x, 1.0 / NODES, STEPS, family) for g, lam, x in zip(gammas, lams, s)]
    tables = [build_table(family, 1.0 - g, STEPS + 1) for g in gammas]
    alone = [run(p, c, t).values for p, c, t in zip(problems, configs, tables)]
    ratios = [mesh_ratio(p, c) for p, c in zip(problems, configs)]
    first_rows = [values[0] for values in alone]
    last, overflow = run_stacked(first_rows, tables, ratios, lams, STEPS)
    assert not overflow.any()
    for b, values in enumerate(alone):
        assert np.abs(last[b] - values[-1]).max() <= 1e-13 * np.abs(values[-1]).max()


def test_a_fig2_like_batch_holds_no_node_history():
    # ten explicit probes at the bound, as in one round of fig2's bisections;
    # with its (401, 10, 33) node history a batch peaked above 3.49 MB
    cases = [(0.1 * k, 1.0, stability_bound(FormulaFamily.BDF1, 0.1 * k, 1.0)) for k in range(1, 11)]
    probe_batch(FormulaFamily.BDF1, cases)  # imports and FFT plans, outside the count
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        probe_batch(FormulaFamily.BDF1, cases)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 3.49e6


def test_all_overflowing_batch_stops_at_the_last_overflow(monkeypatch):
    cases = [(0.5, 1.0, 5.0), (0.7, 1.0, 3.0)]
    starts = []
    solve_block = solver._solve_block

    def recorded(memory, m0):
        starts.append(m0)
        return solve_block(memory, m0)

    monkeypatch.setattr(solver, "_solve_block", recorded)
    stack, _ = stacked_levels(FormulaFamily.BDF1, cases)
    assert stack.overflow.min() > 0
    # the last block solved is the one that holds the last overflow
    m0 = starts[-1]
    assert m0 < stack.overflow.max() <= m0 + solver._BLOCK
    assert not np.any(stack.last)


def test_criterion_4_bisections_in_lockstep_equal_one_by_one():
    cases = []
    for gamma in (0.25, 0.5, 0.75):
        for lam in (0.7, 0.85, 1.0):
            s_cross = stability_bound(FormulaFamily.BDF1, gamma, lam)
            cases.append((gamma, lam, (0.5 * s_cross, 1.5 * s_cross)))
    lockstep = find_empirical_thresholds(FormulaFamily.BDF1, cases, nodes=32, steps=400)
    one_by_one = [
        find_empirical_threshold(FormulaFamily.BDF1, *case, nodes=32, steps=400) for case in cases
    ]
    assert lockstep == one_by_one


def test_lockstep_bracket_error_names_the_case():
    cases = [(0.5, 1.0, (0.2, 0.6)), (0.5, 1.0, (0.05, 0.1))]
    with pytest.raises(ValueError, match="stable at both 0.05 and 0.1"):
        find_empirical_thresholds(FormulaFamily.BDF1, cases)


# fig2_circles.csv before the bisections ran in lockstep
FIG2_THRESHOLDS = {
    "0.1": "0.2702983366210915",
    "0.2": "0.28969858415818783",
    "0.3": "0.3104912546350827",
    "0.4": "0.3321319960954234",
    "0.5": "0.35597025947428246",
    "0.6": "0.38151947755669446",
    "0.7": "0.408902451485976",
    "0.8": "0.4374006492342343",
    "0.9": "0.4687944083453979",
    "1.0": "0.50244140625",
}


def test_fig2_thresholds_are_pinned(tmp_path):
    reproduce_figure("fig2", tmp_path)
    lines = (tmp_path / "fig2_circles.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    assert {gamma: s for gamma, s, _ in rows} == FIG2_THRESHOLDS
    for _, s, inv in rows:
        assert inv == repr(1.0 / float(s))
