"""The overflow bound in mode space, the node chunks and the flushes.

Each block is first checked by the bound max|ends| + max_k |zeta_k(r)| >=
max|U(r)|; only a block that fails it takes its nodes for the exact
check, so a limit between max|U| and the bound must leave a run as the
unlimited one, bit for bit.  ``run`` otherwise takes nodes in chunks,
and the chunk size must not change a bit either, nor must flushing a
stack in more or fewer groups of problems.  A stack keeps no nodes; its
levels are read from the modes its stepper holds.  The flushes of 256,
512, ... levels are FFT products; they must agree with the sums they
stand for, taken in long double.  The nodes a check forms, the line
through the ends plus the inverse transform of a level's modes, must stay
within rounding of a history's node rows, far inside the share of the
limit that the bound leaves for their drift.
"""

import numpy as np
import pytest

from fracstep import solver
from fracstep.coeffs import FormulaFamily, build_table
from fracstep.harness import figure_specs
from fracstep.solver import _HistorySums, _modes, run

from test_overflow_checks import STEPS, held_run_stacked, stacked_run, unstable_case
from test_solver import make_config, make_problem


def mode_bound(levels):
    """max|ends| + max_k |zeta_k| of each level of a (levels, N) history."""
    n = levels.shape[1]
    line = levels[:, :1] + (levels[:, -1:] - levels[:, :1]) * np.linspace(0.0, 1.0, n)
    zeta = _modes(levels[:, 1:-1] - line[:, 1:-1])
    return np.abs(levels[:, [0, -1]]).max(axis=1) + np.abs(zeta).max(axis=1)


@pytest.mark.parametrize("lam", [1.0, 0.8])
def test_a_block_failing_only_the_bound_runs_on_bit_for_bit(monkeypatch, lam):
    problem, config, _ = unstable_case(lam)
    reference = run(problem, config).values
    top = np.abs(reference).max()
    limit = 1.01 * top
    # the last block fails the bound, and so takes the exact check
    assert mode_bound(reference)[-1] > 2.0 * limit
    monkeypatch.setattr(solver, "OVERFLOW_LIMIT", limit)
    assert np.array_equal(run(problem, config).values, reference)


def test_a_stack_failing_only_the_bound_runs_on_bit_for_bit(monkeypatch):
    reference = stacked_run(260)
    assert not reference.overflow.any()
    limit = 1.01 * np.abs(reference.levels).max()
    assert mode_bound(reference.levels[:, 1])[-1] > 2.0 * limit
    monkeypatch.setattr(solver, "OVERFLOW_LIMIT", limit)
    stack = stacked_run(260)
    assert not stack.overflow.any()
    assert np.array_equal(stack.modes, reference.modes)
    assert np.array_equal(stack.last, reference.last)


def fig_run(fig_id, t_end=None):
    spec = figure_specs(fig_id, t_end)[0]
    return spec.problem(), spec.scheme()


@pytest.mark.parametrize(
    "case",
    [
        lambda: fig_run("fig3", 0.05),  # triangles, 4,591 levels
        lambda: (make_problem(0.5), make_config(0.5, 1.0, 0.7, 0.05, 200)),  # to 1.9e68
        lambda: fig_run("fig5"),
    ],
    ids=["fig3-triangles", "explicit-blowup", "fig5"],
)
def test_checked_nodes_drift_from_the_node_rows_far_below_the_bound_share(case):
    # _BOUND_SHARE leaves 1e-6 of the limit for this drift; it measures about 1e-15
    problem, config = case()
    history = run(problem, config)
    memory = history._memory
    values = history.values
    nodes = memory.nodes(memory.modes[: history.top_level + 1])[:, 0]
    drift = np.abs(values - nodes).max(axis=1) / np.abs(values).max(axis=1)
    assert drift.max() < 1e-3 * (1.0 - solver._BOUND_SHARE)


@pytest.mark.parametrize("values", [1, 200, 1 << 40])
@pytest.mark.parametrize("startup", [0, 23])
def test_node_chunks_do_not_change_a_bit(monkeypatch, values, startup):
    # chunks of one block, of about 18 levels, and of the whole range;
    # a startup of 23 puts a range start inside a block
    config = make_config(0.5, 0.5, 0.3, 0.1, 700, FormulaFamily.BDF1, startup=startup)
    problem = unstable_case(1.0)[0]
    expected = run(problem, config).values
    monkeypatch.setattr(solver, "_NODE_VALUES", values)
    assert np.array_equal(run(problem, config).values, expected)


def test_chunks_in_a_stack_do_not_change_a_bit(monkeypatch):
    # node chunks of one block, which a stack does not take, and FFT flushes
    # of one column at a time or of the whole stack at once
    expected = stacked_run(STEPS)
    monkeypatch.setattr(solver, "_NODE_VALUES", 1)
    for doubles in (1, 1 << 20):
        monkeypatch.setattr(solver, "_FFT_DOUBLES", doubles)
        stack = stacked_run(STEPS)
        assert not stack.overflow.any()
        assert np.array_equal(stack.modes, expected.modes)
        assert np.array_equal(stack.last, expected.last)


def check_flush(tables, nodes, b, end):
    """The flush of b levels at level count ``end``, of seeded random modes.

    The FFT product is a circular convolution with w_1 .. w_2b, so its
    rounding is relative to sum_{k=1..2b} |w_k| max|zeta|; each row must be
    within 1e-15 times that of the sum it stands for, taken in long double.
    No row outside [end + 1, end + rows] may be touched.
    """
    rows = np.random.default_rng(8).standard_normal((len(tables), nodes))  # every mode live
    memory = _HistorySums(tables, rows, rows[:, :: nodes - 1])
    assert memory.modes.shape[2] == nodes - 2
    memory.modes[:] = np.random.default_rng(7).standard_normal(memory.modes.shape)
    memory.flushed = end - solver._LEAF
    memory.flush()
    far = memory.far
    rows = min(b, len(tables[0]) - 1 - end)
    assert not np.any(far[end + 1 + rows :]) and not np.any(far[: end + 1])
    i, t = np.indices((rows, b))
    for p, table in enumerate(tables):
        levels = memory.modes[end - b : end, p].astype(np.longdouble)
        w = np.zeros(2 * b + 1, dtype=np.longdouble)
        w[: min(2 * b + 1, len(table))] = table[: 2 * b + 1]
        scale = float(np.abs(w[1:]).sum() * np.abs(levels).max())
        exact = w[b + 1 + i - t] @ levels  # row i: w_{b + 1 + i} .. w_{2 + i}, oldest level first
        assert float(np.abs(far[end + 1 : end + 1 + rows, p] - exact).max()) <= 1e-15 * scale


# (b, flush level L, table capacity K): rows = min(b, K - L), so K < L + b cuts them
@pytest.mark.parametrize(
    "b, end, capacity",
    [(256, 256, 400), (256, 768, 1100), (512, 512, 800), (512, 1536, 1800), (1024, 1024, 1500)],
)
def test_fft_flush_matches_the_long_double_sum(b, end, capacity):
    # three stacked tables of one capacity, shorter than 2b where K < 2b
    tables = [
        build_table(FormulaFamily.BDF1, 0.5, capacity),
        build_table(FormulaFamily.BDF3, 0.3, capacity),
        build_table(FormulaFamily.NG2, 0.8, capacity),
    ]
    check_flush(tables, 13, b, end)


@pytest.mark.parametrize("b, end", [(256, 768), (512, 512), (1024, 1024)])
def test_fft_flush_of_a_single_problem_at_101_nodes(b, end):
    # the cn-solve problem's table: BDF3 at gamma 1/2, 1,500 steps
    check_flush([build_table(FormulaFamily.BDF3, 0.5, 1501)], 101, b, end)


def test_stacked_run_through_three_flush_sizes_matches_single_runs():
    # a 1,100-level stack passes flushes of 256, 512 and 1,024 levels
    row = 1e-6 * (-1.0) ** np.arange(17)
    row[0] = row[-1] = 0.0
    tables = [build_table(FormulaFamily.BDF1, 1.0 - g, 1100) for g in (0.4, 0.7)]
    stack = held_run_stacked(np.tile(row, (2, 1)), tables, [0.2, 0.3], [0.5, 1.0], 1100)
    assert not stack.overflow.any()
    for b, (t, s, lam) in enumerate(zip(tables, (0.2, 0.3), (0.5, 1.0))):
        alone = held_run_stacked(row[None], [t], [s], [lam], 1100)
        assert np.array_equal(stack.modes[:, b], alone.modes[:, 0])
        assert np.array_equal(stack.last[b], alone.last[0])
