"""The edges of the 32-level block solve.

The stepper solves 32 levels at a time from a range start and from each
multiple of 32, and takes the nodes and checks overflow once per block.
Each test puts a range start, a run's end or an overflow at or next to
a block edge or the edge of a 256-level leaf: level-by-level ``step``
must equal ``run`` bit for bit, ``run`` must match direct summation, and
``solver._run_stacked`` must report the first level past a lowered overflow
limit.  A table past ``MAX_HISTORY_CELLS`` is refused by ``step`` too.
"""

import numpy as np
import pytest

from fracstep import solver
from fracstep.coeffs import FormulaFamily, build_table
from fracstep.solver import SolutionHistory, run, step

from test_history_sums import assert_close, boundary_problem, reference
from test_overflow_checks import STEPS, first_past, limit_first_passed_at, stacked_run
from test_solver import make_config


@pytest.mark.parametrize("startup", [1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257])
def test_step_equals_run_bit_for_bit_from_any_range_start(startup):
    # 255, 256 and 257 start a range at the edge of the 256-level leaf
    problem = boundary_problem(0.5)
    config = make_config(0.5, 0.5, 0.3, 0.1, 600, FormulaFamily.BDF2, startup=startup)
    expected = run(problem, config)
    table = build_table(config.family, 0.5, config.steps + 1)
    history = SolutionHistory(expected.level(0), config.dx, config.dt)
    for m in range(config.steps):
        step(history, problem, config, table, lam=1.0 if m < startup else None)
    assert np.array_equal(history.values, expected.values)


@pytest.mark.parametrize("steps", [1, 15, 17, 31, 33, 1000])
@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_run_ending_at_any_level_matches_direct_summation(steps, lam):
    problem = boundary_problem(0.5)
    config = make_config(0.5, lam, 0.2, 0.1, steps, FormulaFamily.NG2)
    history = run(problem, config)
    expected, overflow = reference(problem, config, [history.level(0)])
    assert overflow is None
    assert_close(history.values, expected)


@pytest.mark.parametrize("level", [15, 16, 17, 31, 32, 33])
def test_run_stacked_reports_the_first_level_past_the_limit_at_a_block_edge(monkeypatch, level):
    reference = stacked_run(STEPS)
    norms = np.abs(reference.levels).max(axis=2)
    limit = limit_first_passed_at(norms[:, 1], level)
    expected = [first_past(norms[:, b], limit) for b in range(norms.shape[1])]
    assert expected[1] == level
    monkeypatch.setattr(solver, "OVERFLOW_LIMIT", limit)
    stack = stacked_run(STEPS)
    assert stack.overflow.tolist() == expected
    for b, first in enumerate(expected):
        kept = first if first else STEPS + 1
        assert np.array_equal(stack.modes[:kept, b], reference.modes[:kept, b])


def test_block_inverse_is_a_contiguous_lower_triangular_toeplitz_array():
    # matmul hands only a contiguous inverse to BLAS, and runs about twice as fast
    tables = [build_table(FormulaFamily.BDF2, 0.5, 100), build_table(FormulaFamily.NG2, 0.3, 100)]
    # a random first row makes all 10 modes live
    rows = np.random.default_rng(3).standard_normal((2, 12))
    memory = solver._HistorySums(tables, rows, rows[:, ::11])
    memory.begin(0, np.array([[0.75], [0.25 / 0.45]]), np.array([[0.4], [0.45]]))
    inverse = memory.inverse
    assert inverse.shape == (2, 10, solver._BLOCK, solver._BLOCK) and inverse.flags.c_contiguous
    i, l = np.indices((solver._BLOCK, solver._BLOCK))
    assert np.all(inverse[..., i < l] == 0.0)
    assert np.array_equal(inverse[..., i >= l], inverse[..., (i - l)[i >= l], 0])
    assert np.all(inverse[..., 0, 0] == 1.0)


def test_step_refuses_a_table_past_the_budget(monkeypatch):
    problem = boundary_problem(0.5)
    config = make_config(0.5, 1.0, 0.3, 0.1, 100)
    table = build_table(config.family, 0.5, 100)
    history = SolutionHistory(np.linspace(0.25, -0.5, 11), config.dx, config.dt)
    monkeypatch.setattr(solver, "MAX_HISTORY_CELLS", 500)
    with pytest.raises(ValueError, match="101 levels x 1 problems x 11 nodes .* MAX_HISTORY_CELLS"):
        step(history, problem, config, table)
    assert history.top_level == 0

