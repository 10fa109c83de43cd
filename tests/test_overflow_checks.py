"""Overflow checked once per block of 32 levels against a check after every level.

The stepping loop checks the new levels once per block of 32, before
they enter the far sums: first by a bound on their sine modes, then, for
a block that fails the bound, on its nodes.  Each test lowers the overflow
limit so that a chosen level of an unstable run is the first one past it,
at levels 0, 1 and 255 (mod 256, the leaf), at 0, 1 and 63 (mod 64), and
at a run's last level.  The level reported must be the one a check after
every level finds, the levels before it must be the unlimited run's bit
for bit, and in a stack the other problems must not change at all.  A
stack keeps no nodes, so its levels are read from the modes its stepper
holds.  ``probe_batch`` checks the stack's inputs before the stepper sees
them, and hands it only finite rows and one entry per problem.
"""

from typing import NamedTuple

import numpy as np
import pytest

from fracstep import solver, stability
from fracstep.coeffs import FormulaFamily, build_table
from fracstep.solver import (
    OverflowDetected,
    ProblemSpec,
    SchemeConfig,
    SolutionHistory,
    dt_for_mesh_ratio,
    run,
    step,
)
from fracstep.stability import PROBE_AMPLITUDE, probe_batch, stability_bound

STEPS = 520
# 63, 0 and 1 (mod 64), and 255, 0 and 1 (mod 256): the leaf and the first two flushes
LEVELS = [63, 64, 65, 127, 128, 191, 192, 255, 256, 257, 511, 512]
LAST = 150  # a run of LAST steps overflows at its last level, inside a leaf


def unstable_case(lam):
    """A parabola run at 1.3 times the bound: it grows, but stays below 1e150 for STEPS."""
    problem = ProblemSpec(gamma=0.5, k_gamma=1.0, initial_condition=lambda x: x * (1.0 - x))
    s = 1.3 * stability_bound(FormulaFamily.BDF1, 0.5, lam)
    config = SchemeConfig(lam=lam, dx=0.1, dt=dt_for_mesh_ratio(s, 0.1, 0.5), steps=STEPS)
    return problem, config, build_table(FormulaFamily.BDF1, 0.5, STEPS + 1)


def limit_first_passed_at(norms, level):
    """An overflow limit that ``level`` is the first level to pass."""
    below = norms[:level].max()
    assert norms[level] > below, "the chosen level must set a new maximum"
    return 0.5 * (below + norms[level])


def first_past(norms, limit):
    """The level a check after every level reports, 0 for none."""
    past = ~(norms <= limit)
    return int(np.argmax(past)) if past.any() else 0


def check_overflow(excinfo, level, reference):
    assert excinfo.value.level == level
    history = excinfo.value.history
    assert history.top_level == level - 1
    assert np.all(np.isfinite(history.values))
    assert np.array_equal(history.values, reference[:level])


@pytest.mark.parametrize("lam", [1.0, 0.8])
@pytest.mark.parametrize("level", LEVELS + [LAST])
def test_run_reports_the_first_level_past_the_limit(monkeypatch, lam, level):
    problem, config, _ = unstable_case(lam)
    reference = run(problem, config).values
    limit = limit_first_passed_at(np.abs(reference).max(axis=1), level)
    monkeypatch.setattr(solver, "OVERFLOW_LIMIT", limit)
    steps = LAST if level == LAST else STEPS
    with pytest.raises(OverflowDetected) as excinfo:
        run(problem, SchemeConfig(lam=lam, dx=config.dx, dt=config.dt, steps=steps))
    check_overflow(excinfo, level, reference)


def test_hybrid_startup_reports_the_first_level_past_the_limit(monkeypatch):
    problem, config, _ = unstable_case(0.8)
    hybrid = SchemeConfig(
        lam=0.8, dx=config.dx, dt=config.dt, steps=STEPS, startup_explicit_steps=100
    )
    reference = run(problem, hybrid).values
    # the explicit range ends at level 100, the lam = 0.8 range's first new maximum is 102
    for level in (64, 100, 102, 128):
        limit = limit_first_passed_at(np.abs(reference).max(axis=1), level)
        monkeypatch.setattr(solver, "OVERFLOW_LIMIT", limit)
        with pytest.raises(OverflowDetected) as excinfo:
            run(problem, hybrid)
        check_overflow(excinfo, level, reference)


@pytest.mark.parametrize("lam", [1.0, 0.8])
@pytest.mark.parametrize("level", [64, 65, 127, 255, 256, 257, 511, 512])
def test_step_reports_the_first_level_past_the_limit(monkeypatch, lam, level):
    problem, config, table = unstable_case(lam)
    reference = run(problem, config).values
    limit = limit_first_passed_at(np.abs(reference).max(axis=1), level)
    monkeypatch.setattr(solver, "OVERFLOW_LIMIT", limit)
    history = SolutionHistory(reference[0], config.dx, config.dt)
    with pytest.raises(OverflowDetected) as excinfo:
        for _ in range(STEPS):
            step(history, problem, config, table)
    check_overflow(excinfo, level, reference)


def test_nan_is_found_where_a_check_after_every_level_finds_it(monkeypatch):
    # with an infinite limit only a NaN fails the check; the run goes through
    # inf first, so its levels carry no finite reference
    problem = ProblemSpec(gamma=0.5, k_gamma=1.0, initial_condition=lambda x: x * (1.0 - x))
    config = SchemeConfig(lam=1.0, dx=0.1, dt=dt_for_mesh_ratio(40.0, 0.1, 0.5), steps=400)
    table = build_table(FormulaFamily.BDF1, 0.5, 401)
    monkeypatch.setattr(solver, "OVERFLOW_LIMIT", np.inf)
    with pytest.raises(OverflowDetected) as whole:
        run(problem, config)
    history = SolutionHistory(whole.value.history.level(0), config.dx, config.dt)
    # a step computes only its own level, so from inf it warns like any numpy code
    with pytest.raises(OverflowDetected) as stepped, np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.steps):
            step(history, problem, config, table)
    assert whole.value.level == stepped.value.level
    # the NaN appears inside a leaf
    assert whole.value.level % solver._LEAF not in (0, solver._LEAF - 1)
    assert np.array_equal(whole.value.history.values, stepped.value.history.values)


class Stack(NamedTuple):
    """A ``solver._run_stacked`` call with every level of its stack.

    last, overflow: what ``_run_stacked`` returned.
    modes: the sine modes (steps + 1, B, N - 2) that its stepper held, with
        the modes it did not step (zero) put back.
    levels: the nodes (steps + 1, B, N) formed from them.
    memory: the stepper's ``_HistorySums``.
    """

    last: np.ndarray
    overflow: np.ndarray
    modes: np.ndarray
    levels: np.ndarray
    memory: object


def nodes_from_modes(modes, ends):
    """The nodes of levels (..., B, N - 2) of sine modes: the line through the
    Dirichlet data ``ends`` (B, 2) plus the inverse DST-I of the modes, an
    irfft of the odd extension's spectrum i (0, modes, 0)."""
    n = modes.shape[-1]
    spectrum = np.zeros(modes.shape[:-1] + (n + 2,), complex)
    spectrum.imag[..., 1:-1] = modes
    interior = np.fft.irfft(spectrum, 2 * n + 2)[..., 1 : n + 1]
    line = ends[:, :1] + (ends[:, 1:] - ends[:, :1]) * np.linspace(0.0, 1.0, n + 2)
    levels = np.empty(modes.shape[:-1] + (n + 2,))
    levels[..., 1:-1] = line[:, 1:-1] + interior
    levels[..., :: n + 1] = ends
    return levels


def held_run_stacked(first_rows, tables, s, lam, steps):
    """``solver._run_stacked``, with its levels read from the modes its stepper holds.

    The stepper holds only the live modes; the others, zero at every level,
    are put back, so ``modes`` has every mode.  A masked problem's modes are
    zero from its overflow on; rows past the level where the stack stopped
    were never written and are zero too.
    """
    held = []

    class Held(solver._HistorySums):
        def __init__(self, *args):
            super().__init__(*args)
            held.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_HistorySums", Held)
        last, overflow = solver._run_stacked(first_rows, tables, s, lam, steps)
    (memory,) = held
    modes = np.zeros(memory.modes[: steps + 1].shape[:2] + (memory.n_modes,))
    modes[..., memory.live] = memory.modes[: steps + 1]
    first_rows = np.asarray(first_rows, dtype=float)
    levels = nodes_from_modes(modes, first_rows[:, :: first_rows.shape[1] - 1])
    return Stack(last, overflow, modes, levels, memory)


# checkerboard probes: stable and unstable, explicit and lam = 0.8
STACK = [(0.5, 1.0, 0.5), (0.5, 1.0, 1.3), (0.7, 0.8, 0.5), (0.5, 0.8, 1.3)]
NODES = 32


def stacked_run(steps):
    row = PROBE_AMPLITUDE * (-1.0) ** np.arange(NODES + 1)
    row[0], row[-1] = 0.25, -0.5
    tables = [build_table(FormulaFamily.BDF1, 1.0 - g, STEPS + 1) for g, _, _ in STACK]
    s = [f * stability_bound(FormulaFamily.BDF1, g, lam) for g, lam, f in STACK]
    lam = [lam for _, lam, _ in STACK]
    return held_run_stacked(np.tile(row, (len(STACK), 1)), tables, s, lam, steps)


@pytest.mark.parametrize("level", LEVELS + [LAST])
def test_run_stacked_masks_at_the_first_level_past_the_limit(monkeypatch, level):
    reference = stacked_run(STEPS)
    assert not reference.overflow.any()
    norms = np.abs(reference.levels).max(axis=2)
    limit = limit_first_passed_at(norms[:, 1], level)
    steps = LAST if level == LAST else STEPS
    expected = [first_past(norms[: steps + 1, b], limit) for b in range(len(STACK))]
    assert expected[0] == expected[2] == 0 and expected[1] == level
    monkeypatch.setattr(solver, "OVERFLOW_LIMIT", limit)
    stack = stacked_run(steps)
    assert stack.overflow.tolist() == expected
    for b, first in enumerate(expected):
        if first == 0:
            assert np.array_equal(stack.modes[:, b], reference.modes[: steps + 1, b])
            assert np.array_equal(stack.last[b], reference.levels[steps, b])
        else:
            assert np.array_equal(stack.modes[:first, b], reference.modes[:first, b])
            assert not np.any(stack.modes[first:, b])
            assert not np.any(stack.last[b, 1:-1])
            assert np.all(stack.last[b, [0, -1]] == [0.25, -0.5])


class TestRunStackedValidation:
    """``probe_batch`` is the one gate in front of ``solver._run_stacked``."""

    def inputs(self, **change):
        args = dict(cases=[(0.5, 1.0, 0.3), (0.25, 0.5, 0.3)], nodes=8, steps=50)
        args.update(change)
        return args

    def handed(self, monkeypatch, **change):
        """The reports of a probe batch and the arguments its stepper got."""
        calls = []

        def spy(*args):
            calls.append(args)
            return solver._run_stacked(*args)

        monkeypatch.setattr(stability, "_run_stacked", spy)
        return probe_batch(FormulaFamily.BDF1, **self.inputs(**change)), calls

    def refused(self, monkeypatch, match, **change):
        def unreached(*args):
            raise AssertionError("the stacked stepper was reached")

        monkeypatch.setattr(stability, "_run_stacked", unreached)
        with pytest.raises(ValueError, match=match):
            probe_batch(FormulaFamily.BDF1, **self.inputs(**change))

    def test_valid_inputs_run(self, monkeypatch):
        rows = np.tile(np.linspace(0.0, 1.0, 9), (2, 1))
        tables = [build_table(FormulaFamily.BDF1, 0.5, 10)] * 2
        last, overflow = solver._run_stacked(rows, tables, [0.3, 0.3], [1.0, 0.5], 10)
        assert last.shape == (2, 9) and not overflow.any()
        reports, calls = self.handed(monkeypatch)
        assert len(reports) == 2 and len(calls) == 1

    def test_lam_outside_the_unit_interval(self, monkeypatch):
        match = r"lam must lie in \[0, 1\], got 1.5"
        self.refused(monkeypatch, match, cases=[(0.5, 1.0, 0.3), (0.5, 1.5, 0.3)])

    def test_negative_s(self, monkeypatch):
        match = "s must be finite and > 0, got -1.0"
        self.refused(monkeypatch, match, cases=[(0.5, 1.0, 0.3), (0.5, 1.0, -1.0)])

    def test_nan_s(self, monkeypatch):
        match = "s must be finite and > 0, got nan"
        self.refused(monkeypatch, match, cases=[(0.5, 1.0, np.nan), (0.5, 1.0, 0.3)])

    def test_nan_in_a_first_row(self, monkeypatch):
        # a nan gamma would put nan weights into the first level; the rows are the probe's own
        match = r"gamma must lie in \(0, 1\], got nan"
        self.refused(monkeypatch, match, cases=[(0.5, 1.0, 0.3), (np.nan, 1.0, 0.3)])
        _, [(rows, *_)] = self.handed(monkeypatch)
        assert np.all(np.isfinite(rows)) and not np.any(rows[:, [0, -1]])
        assert np.all(np.abs(rows[:, 1:-1]) == PROBE_AMPLITUDE)

    def test_two_nodes(self, monkeypatch):
        self.refused(monkeypatch, "nodes must be even and >= 8, got 2", nodes=2)
        self.refused(monkeypatch, "nodes must be even and >= 8, got 9", nodes=9)

    def test_mismatched_lengths(self, monkeypatch):
        _, [(rows, tables, s, lam, steps)] = self.handed(monkeypatch)
        assert rows.shape == (2, 9) and len(tables) == len(s) == len(lam) == 2
        assert all(len(table) >= steps + 1 for table in tables)
        reports, calls = self.handed(monkeypatch, cases=[])
        assert reports == [] and calls == []

    def test_negative_steps(self, monkeypatch):
        self.refused(monkeypatch, "steps must be >= 50, got -1", steps=-1)
