"""The carried history sums of the stepper against direct summation.

``direct_levels`` is the stepper written the plain way: at every level
it convolves the second differences of the whole history with the
weights, twice when 0 < lam < 1, and solves the tridiagonal system
densely.  ``fracstep.solver`` carries the sums from level to level with
blocked FFT products instead; both must agree to rounding.  Runs of
1,100 steps reach flushes of 256, 512 and 1,024 levels.  ``step``
continues only the stack its first step made: a second table, other
Dirichlet data and a ``run``'s levels are refused.
"""

from dataclasses import replace

import numpy as np
import pytest

from fracstep.coeffs import FormulaFamily, build_table
from fracstep.solver import (
    OVERFLOW_LIMIT,
    OverflowDetected,
    ProblemSpec,
    SchemeConfig,
    SolutionHistory,
    dt_for_mesh_ratio,
    mesh_ratio,
    run,
    step,
)

from test_solver import make_config

REL_TOL = 1e-12
LONG_STEPS = 1100


def direct_levels(rows, weights, s, lam, steps, startup=0):
    """Continue the levels ``rows`` by ``steps`` levels of the scheme.

    Returns (levels, overflow level or None); the levels stop before the
    first one that leaves the representable range.
    """
    rows = [np.asarray(r, dtype=float) for r in rows]
    first = len(rows) - 1
    total = first + steps + 1
    values = np.empty((total, rows[0].size))
    d2 = np.empty((total, rows[0].size - 2))
    for m, row in enumerate(rows):
        values[m] = row
        d2[m] = row[:-2] - 2.0 * row[1:-1] + row[2:]
    left, right = rows[-1][0], rows[-1][-1]
    n = rows[0].size - 2
    second_difference = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    for m in range(first, first + steps):
        lm = 1.0 if m - first < startup else lam
        w = weights[: m + 2]
        explicit = w[m::-1] @ d2[: m + 1]
        implicit = w[m + 1 : 0 : -1] @ d2[: m + 1]
        rhs = values[m, 1:-1] + s * ((1.0 - lm) * implicit + lm * explicit)
        c = (1.0 - lm) * s * w[0]
        rhs[0] += c * left
        rhs[-1] += c * right
        new = np.empty(n + 2)
        new[0], new[-1] = left, right
        new[1:-1] = np.linalg.solve(np.eye(n) - c * second_difference, rhs)
        if not np.max(np.abs(new)) <= OVERFLOW_LIMIT:
            return values[: m + 1], m + 1
        values[m + 1] = new
        d2[m + 1] = new[:-2] - 2.0 * new[1:-1] + new[2:]
    return values, None


def boundary_problem(gamma):
    """Nonzero, unequal Dirichlet data and an asymmetric initial condition."""
    return ProblemSpec(
        gamma=gamma,
        k_gamma=1.0,
        initial_condition=lambda x: 0.25 - 0.75 * x + x * (1.0 - x),
        left_value=0.25,
        right_value=-0.5,
    )


def reference(problem, config, rows):
    weights = build_table(config.family, 1.0 - problem.gamma, config.steps + 1).weights
    return direct_levels(
        rows, weights, mesh_ratio(problem, config), config.lam, config.steps,
        config.startup_explicit_steps,
    )


def assert_close(values, expected):
    assert values.shape == expected.shape
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(values - expected))) <= REL_TOL * scale


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("family", list(FormulaFamily))
def test_long_run_matches_direct_summation(family, lam):
    problem = boundary_problem(0.5)
    config = make_config(0.5, lam, 0.15, 0.1, LONG_STEPS, family)
    history = run(problem, config)
    expected, overflow = reference(problem, config, [history.level(0)])
    assert overflow is None
    assert_close(history.values, expected)


def test_hybrid_startup_matches_direct_summation():
    # a startup of 260 outlasts the first flush, at level 256
    problem = boundary_problem(0.6)
    for startup in (70, 260):
        config = make_config(0.6, 0.5, 0.2, 0.1, LONG_STEPS, FormulaFamily.BDF2, startup=startup)
        history = run(problem, config)
        expected, _ = reference(problem, config, [history.level(0)])
        assert_close(history.values, expected)


@pytest.mark.parametrize(
    "label, gamma, lam, s, dx, horizon",
    [
        ("fig3 triangles (CI scale)", 0.5, 1.0, 0.33, 1 / 10, 0.05),
        ("fig3 squares", 0.75, 1.0, 0.4, 1 / 20, 0.5),
        ("fig3 circles", 1.0, 1.0, 0.5, 1 / 50, 0.5),
        ("fig5", 0.5, 0.8, 0.55, 1 / 20, None),
    ],
)
def test_acceptance_cases_match_direct_summation(label, gamma, lam, s, dx, horizon):
    problem = ProblemSpec(gamma=gamma, k_gamma=1.0, initial_condition=lambda x: x * (1.0 - x))
    dt = dt_for_mesh_ratio(s, dx, gamma)
    steps = 500 if horizon is None else round(horizon / dt)
    config = SchemeConfig(lam=lam, dx=dx, dt=dt, steps=steps)
    history = run(problem, config)
    expected, _ = reference(problem, config, [history.level(0)])
    assert_close(history.values, expected)


def test_unstable_run_overflows_at_the_reference_level():
    problem = ProblemSpec(gamma=0.5, k_gamma=1.0, initial_condition=lambda x: x * (1.0 - x))
    config = make_config(0.5, 1.0, 5.0, 0.05, 4000)
    with pytest.raises(OverflowDetected) as excinfo:
        run(problem, config)
    history = excinfo.value.history
    expected, level = reference(problem, config, [history.level(0)])
    assert level is not None
    assert excinfo.value.level == level
    # the levels grow to 1e148; each is compared at its own size
    size = np.max(np.abs(expected), axis=1)
    assert np.all(np.max(np.abs(history.values - expected), axis=1) <= REL_TOL * size)


def test_level_by_level_stepping_equals_run_bit_for_bit():
    problem = boundary_problem(0.5)
    config = make_config(0.5, 0.5, 0.3, 0.1, LONG_STEPS, FormulaFamily.NG2, startup=5)
    expected = run(problem, config)
    table = build_table(config.family, 0.5, config.steps + 1)
    history = SolutionHistory(expected.level(0), config.dx, config.dt)
    for m in range(config.steps):
        step(history, problem, config, table, lam=1.0 if m < 5 else None)
    assert np.array_equal(history.values, expected.values)


def stepped_history(levels):
    """The boundary problem, a 40-step config and its table, and a history of
    ``levels`` levels past the IC, each made by ``step``."""
    problem = boundary_problem(0.5)
    config = make_config(0.5, 0.5, 0.2, 0.1, 40)
    table = build_table(config.family, 0.5, config.steps + 1)
    history = SolutionHistory(run(problem, config).level(0), config.dx, config.dt)
    for _ in range(levels):
        step(history, problem, config, table)
    return problem, config, table, history


def test_step_refuses_a_second_table():
    problem, config, table, history = stepped_history(20)
    with pytest.raises(ValueError, match="step takes only the table of its first step"):
        step(history, problem, config, build_table(config.family, 0.5, config.steps + 1))
    assert history.top_level == 20
    # the stack goes on as if nothing had been asked
    for _ in range(20):
        step(history, problem, config, table)
    assert np.array_equal(history.values, run(problem, config).values)


def test_step_refuses_other_dirichlet_data():
    problem, config, table, history = stepped_history(20)
    for other in (replace(problem, left_value=0.3), replace(problem, right_value=0.0)):
        with pytest.raises(ValueError, match=r"Dirichlet data of its first step, \[0.25, -0.5\]"):
            step(history, other, config, table)
        assert history.top_level == 20
    for _ in range(20):
        step(history, problem, config, table)
    assert np.array_equal(history.values, run(problem, config).values)


def test_step_refuses_a_runs_history():
    problem, config, table, _ = stepped_history(0)
    finished = run(problem, config)
    unstable = ProblemSpec(gamma=0.5, k_gamma=1.0, initial_condition=lambda x: x * (1.0 - x))
    unstable_config = make_config(0.5, 1.0, 5.0, 0.05, 4000)
    with pytest.raises(OverflowDetected) as excinfo:
        run(unstable, unstable_config)
    overflowed = excinfo.value.history
    unstable_table = build_table(unstable_config.family, 0.5, unstable_config.steps + 1)
    for history, (p, c, t) in (
        (finished, (problem, config, table)),
        (overflowed, (unstable, unstable_config, unstable_table)),
    ):
        top, values = history.top_level, history.values
        with pytest.raises(ValueError, match=rf"step did not make the history's levels 1..{top}"):
            step(history, p, c, t)
        assert history.top_level == top
        assert np.array_equal(history.values, values)


def test_step_starts_from_a_zero_step_runs_level_0():
    problem, config, table, _ = stepped_history(0)
    history = run(problem, replace(config, steps=0))
    for _ in range(config.steps):
        step(history, problem, config, table)
    assert np.array_equal(history.values, run(problem, config).values)
