"""The overflow bound in mode space, the node chunks and the direct flushes.

Each block is first checked by the bound max|ends| + max_k |zeta_k(r)| >=
max|U(r)|; only a block that fails it takes its nodes for the exact
check, so a limit between max|U| and the bound must leave a run as the
unlimited one, bit for bit.  ``run`` otherwise takes nodes in chunks,
and the chunk size must not change a bit either, nor must flushing a
stack in more or fewer groups of problems.  A stack keeps no nodes; its
levels are read from the modes its stepper holds.  Flushes of up to
``_DIRECT_FLUSH`` levels are direct Toeplitz products; they must agree
with the FFT products they replace.
"""

import numpy as np
import pytest

from fracstep import solver
from fracstep.coeffs import FormulaFamily, build_table
from fracstep.solver import _HistorySums, _modes, run

from test_overflow_checks import held_run_stacked, stacked_run, unstable_case
from test_solver import make_config


def mode_bound(levels):
    """max|ends| + max_k |zeta_k| of each level of a (levels, N) history."""
    n = levels.shape[1]
    line = levels[:, :1] + (levels[:, -1:] - levels[:, :1]) * np.linspace(0.0, 1.0, n)
    zeta = _modes(levels[:, 1:-1] - line[:, 1:-1])
    return np.abs(levels[:, [0, -1]]).max(axis=1) + np.abs(zeta).max(axis=1)


@pytest.mark.parametrize("lam", [1.0, 0.8])
def test_a_block_failing_only_the_bound_runs_on_bit_for_bit(monkeypatch, lam):
    problem, config, table = unstable_case(lam)
    reference = run(problem, config, table).values
    top = np.abs(reference).max()
    limit = 1.01 * top
    # the last block fails the bound, and so takes the exact check
    assert mode_bound(reference)[-1] > 2.0 * limit
    monkeypatch.setattr(solver, "OVERFLOW_LIMIT", limit)
    assert np.array_equal(run(problem, config, table).values, reference)


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
    # node chunks of one block, which a stack does not take, and direct
    # flushes of the whole stack at once
    expected = stacked_run(260)
    monkeypatch.setattr(solver, "_NODE_VALUES", 1)
    monkeypatch.setattr(solver, "_DIRECT_VALUES", 1 << 20)
    stack = stacked_run(260)
    assert not stack.overflow.any()
    assert np.array_equal(stack.modes, expected.modes)
    assert np.array_equal(stack.last, expected.last)


def flushed(monkeypatch, tables, nodes, end, direct):
    """The far rows after the flush at level count ``end``, of seeded random modes."""
    monkeypatch.setattr(solver, "_DIRECT_FLUSH", 128 if direct else 0)
    memory = _HistorySums(tables, nodes)
    memory.modes[:] = np.random.default_rng(7).standard_normal(memory.modes.shape)
    memory.flushed = end - 64
    memory.flush()
    return memory.far, memory.modes


def check_flushes(monkeypatch, tables, nodes, b, end):
    """Direct and FFT flushes of b levels agree within 1e-15 relative.

    The FFT product is a circular convolution with w_1 .. w_2b, so its
    rounding is relative to sum_{k=1..2b} |w_k| max|zeta|; the two must
    agree within 1e-15 of that.  The direct product is held to the sum it
    stands for, in long double, within 1e-15 of the row's own scale
    sum_j |w_{r - j}| |zeta(j)|.
    """
    direct, modes = flushed(monkeypatch, tables, nodes, end, direct=True)
    fft, _ = flushed(monkeypatch, tables, nodes, end, direct=False)
    rows = min(b, tables[0].capacity - end)
    assert not np.any(direct[end + 1 + rows :]) and not np.any(direct[: end + 1])
    for p, table in enumerate(tables):
        levels = modes[end - b : end, p]
        w = np.zeros(2 * b + 1, dtype=np.longdouble)
        w[: min(2 * b, table.capacity) + 1] = table.weights[: 2 * b + 1]
        fft_scale = float(np.abs(w[1:]).sum() * np.abs(levels).max())
        got, want = direct[end + 1 : end + 1 + rows, p], fft[end + 1 : end + 1 + rows, p]
        assert np.abs(got - want).max() <= 1e-15 * fft_scale
        for i in range(rows):
            weights = w[b + 1 + i : i + 1 : -1]  # w_{b + 1 + i} .. w_{2 + i}, oldest level first
            scale = float(np.abs(weights) @ np.abs(levels).max(axis=1))
            exact = weights @ levels.astype(np.longdouble)
            assert float(np.abs(got[i] - exact).max()) <= 1e-15 * scale


# (b, flush level L, table capacity K): rows = min(b, K - L), so K < L + b cuts them
@pytest.mark.parametrize(
    "b, end, capacity",
    [(64, 64, 100), (64, 192, 300), (128, 128, 200), (128, 384, 600), (128, 640, 700)],
)
def test_direct_flush_equals_the_fft_flush(monkeypatch, b, end, capacity):
    # three stacked tables of one capacity, shorter than 2b where K < 2b
    tables = [
        build_table(FormulaFamily.BDF1, 0.5, capacity),
        build_table(FormulaFamily.BDF3, 0.3, capacity),
        build_table(FormulaFamily.NG2, 0.8, capacity),
    ]
    check_flushes(monkeypatch, tables, 13, b, end)


@pytest.mark.parametrize("b", [64, 128])
def test_direct_flush_of_a_single_problem_at_101_nodes(monkeypatch, b):
    check_flushes(monkeypatch, [build_table(FormulaFamily.BDF3, 0.5, 1501)], 101, b, 3 * b)


def test_stacked_run_with_direct_flushes_matches_single_runs():
    # a 400-level stack passes flushes of 64, 128 and 256 levels
    row = 1e-6 * (-1.0) ** np.arange(17)
    row[0] = row[-1] = 0.0
    tables = [build_table(FormulaFamily.BDF1, 1.0 - g, 400) for g in (0.4, 0.7)]
    stack = held_run_stacked(np.tile(row, (2, 1)), tables, [0.2, 0.3], [0.5, 1.0], 400)
    assert not stack.overflow.any()
    for b, (t, s, lam) in enumerate(zip(tables, (0.2, 0.3), (0.5, 1.0))):
        alone = held_run_stacked(row[None], [t], [s], [lam], 400)
        assert np.array_equal(stack.modes[:, b], alone.modes[:, 0])
        assert np.array_equal(stack.last[b], alone.last[0])
