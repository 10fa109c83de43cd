"""Tests of the weighted-average fractional time stepper."""

import math

import numpy as np
import pytest

from fracstep import solver
from fracstep.coeffs import FormulaFamily, build_table
from fracstep.solver import (
    MAX_HISTORY_CELLS,
    OverflowDetected,
    ProblemSpec,
    SchemeConfig,
    SolutionHistory,
    dt_for_mesh_ratio,
    memory_term,
    mesh_ratio,
    run,
    run_stacked,
    step,
)


def parabola(x):
    return x * (1.0 - x)


def make_problem(gamma, ic=parabola):
    return ProblemSpec(gamma=gamma, k_gamma=1.0, initial_condition=ic)


def make_config(gamma, lam, s, dx, steps, family=FormulaFamily.BDF1, startup=0):
    return SchemeConfig(
        lam=lam,
        dx=dx,
        dt=dt_for_mesh_ratio(s, dx, gamma),
        family=family,
        steps=steps,
        startup_explicit_steps=startup,
    )


def classical_wa_oracle(u0, lam, s, steps):
    """Independent classical weighted-average scheme (dense solve, no memory).

    (I - (1-lam) S L) u_new = u_old + lam S L u_old, with L the interior
    second-difference matrix and zero Dirichlet data.
    """
    n = u0.size - 2
    L = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    A = np.eye(n) - (1.0 - lam) * s * L
    levels = [u0.copy()]
    u = u0.copy()
    for _ in range(steps):
        rhs = u[1:-1] + lam * s * (L @ u[1:-1])
        u = u.copy()
        u[1:-1] = np.linalg.solve(A, rhs)
        levels.append(u.copy())
    return np.array(levels)


class TestMemoryTerm:
    def test_flat_history_gives_zero(self):
        values = np.full((3, 9), 3.7)
        table = build_table(FormulaFamily.BDF1, 0.5, 4)
        for j in range(1, 8):
            assert memory_term(values, table, 2, j) == 0.0

    def test_single_level_is_plain_second_difference(self):
        values = np.array([[0.0, 1.0, 4.0, 9.0, 0.0]])
        table = build_table(FormulaFamily.BDF1, 0.5, 2)
        assert memory_term(values, table, 0, 1) == pytest.approx(0.0 - 2.0 + 4.0)
        assert memory_term(values, table, 0, 2) == pytest.approx(1.0 - 8.0 + 9.0)

    def test_two_levels_weighted_by_binomials(self):
        # history linear in the level index: U^(m) = (m+1) * base
        base = np.array([0.0, 1.0, 3.0, 2.0, 0.0])
        values = np.array([base, 2.0 * base])
        table = build_table(FormulaFamily.BDF1, 0.5, 2)
        d = base[:-2] - 2.0 * base[1:-1] + base[2:]
        for j in range(1, 4):
            expected = 1.0 * (2.0 * d[j - 1]) + (-0.5) * d[j - 1]
            assert memory_term(values, table, 1, j) == pytest.approx(expected, rel=1e-15)

    def test_validation(self):
        table = build_table(FormulaFamily.BDF1, 0.5, 0)
        with pytest.raises(IndexError):
            memory_term(np.zeros((1, 5)), table, 0, 0)
        with pytest.raises(IndexError):
            memory_term(np.zeros((1, 5)), table, 1, 1)
        with pytest.raises(RuntimeError, match="pre-extend"):
            memory_term(np.zeros((2, 5)), table, 1, 1)

    def test_takes_a_runs_history_values(self):
        problem = make_problem(0.5)
        config = make_config(0.5, 0.5, 0.3, 0.125, 12)
        history = run(problem, config)
        table = build_table(FormulaFamily.BDF1, 0.5, 13)
        values = history.values
        convolved = table.array(12)[::-1] @ values
        expected = convolved[2] - 2.0 * convolved[3] + convolved[4]
        assert memory_term(values, table, 12, 3) == pytest.approx(expected, rel=1e-14)


class TestClassicalLimit:
    def test_hand_computed_explicit_step(self):
        # gamma=1, lam=1, S=1/4, dx=1/4, IC x(1-x):
        # U(m+1) = U(m) + S * second difference of U(m), U(0) = [0, 3/16, 1/4, 3/16, 0]
        history = run(make_problem(1.0), make_config(1.0, 1.0, 0.25, 0.25, 3))
        assert history.level(1).tolist() == [0.0, 0.15625, 0.21875, 0.15625, 0.0]
        assert history.level(2).tolist() == [0.0, 17 / 128, 3 / 16, 17 / 128, 0.0]
        assert history.level(3).tolist() == [0.0, 29 / 256, 41 / 256, 29 / 256, 0.0]

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_matches_independent_classical_scheme(self, lam):
        gamma, s, dx, steps = 1.0, 0.4, 0.1, 50
        history = run(make_problem(gamma), make_config(gamma, lam, s, dx, steps))
        u0 = history.level(0).copy()
        expected = classical_wa_oracle(u0, lam, s, steps)
        assert np.max(np.abs(history.values - expected)) < 1e-12


class TestSchemeProperties:
    def test_zero_steps_returns_only_the_ic(self):
        history = run(make_problem(0.5), make_config(0.5, 1.0, 0.3, 0.25, 0))
        assert history.top_level == 0
        assert history.values.shape == (1, 5)

    def test_boundaries_are_preserved_exactly(self):
        problem = ProblemSpec(
            gamma=0.6,
            k_gamma=1.0,
            initial_condition=lambda x: 0.25 + x * (1 - x) * 0.0 + 0.5 * x,
            left_value=0.25,
            right_value=0.75,
        )
        config = make_config(0.6, 0.4, 0.3, 0.125, 30)
        history = run(problem, config)
        values = history.values
        assert np.all(values[:, 0] == 0.25)
        assert np.all(values[:, -1] == 0.75)

    @pytest.mark.parametrize("lam", [1.0, 0.3])
    def test_symmetric_problem_stays_symmetric(self, lam):
        history = run(make_problem(0.5), make_config(0.5, lam, 0.3, 0.05, 60))
        values = history.values
        assert np.max(np.abs(values - values[:, ::-1])) < 1e-12

    def test_implicit_explicit_consistency(self):
        explicit = run(make_problem(0.5), make_config(0.5, 1.0, 0.3, 0.1, 20))
        nearly = run(make_problem(0.5), make_config(0.5, 0.999999, 0.3, 0.1, 20))
        assert np.max(np.abs(explicit.values - nearly.values)) < 1e-4

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.8])
    def test_scheme_residual_of_implicit_solve(self, lam):
        # verify each level against the scheme equation assembled independently
        gamma, s, dx, steps = 0.5, 0.4, 0.1, 25
        problem, config = make_problem(gamma), make_config(gamma, lam, s, dx, steps)
        history = run(problem, config)
        table = build_table(config.family, 1.0 - gamma, steps + 1)
        w = table.array(steps + 1)
        values = history.values
        d2 = np.array([values[m, :-2] - 2 * values[m, 1:-1] + values[m, 2:] for m in range(steps + 1)])
        for m in range(steps):
            implicit_sum = sum(w[k] * d2[m + 1 - k] for k in range(m + 2))
            explicit_sum = sum(w[k] * d2[m - k] for k in range(m + 1))
            rhs = values[m, 1:-1] + s * ((1 - lam) * implicit_sum + lam * explicit_sum)
            residual = np.max(np.abs(values[m + 1, 1:-1] - rhs))
            assert residual < 1e-11 * max(1.0, float(np.max(np.abs(rhs))))

    def test_linearity_in_the_initial_condition(self):
        gamma, lam, s, dx, steps = 0.5, 0.8, 0.4, 0.125, 20
        a, b = 2.5, -1.3
        ic1 = lambda x: math.sin(math.pi * x)
        ic2 = lambda x: math.sin(2 * math.pi * x)
        combined = lambda x: a * ic1(x) + b * ic2(x)
        h1 = run(make_problem(gamma, ic1), make_config(gamma, lam, s, dx, steps))
        h2 = run(make_problem(gamma, ic2), make_config(gamma, lam, s, dx, steps))
        hc = run(make_problem(gamma, combined), make_config(gamma, lam, s, dx, steps))
        assert np.max(np.abs(hc.values - (a * h1.values + b * h2.values))) < 1e-11

    def test_mesh_ratio_definition(self):
        problem = make_problem(0.5)
        config = make_config(0.5, 1.0, 0.33, 0.1, 1)
        assert mesh_ratio(problem, config) == pytest.approx(0.33, rel=1e-12)
        assert config.dt == pytest.approx((0.33 * 0.01) ** 2, rel=1e-12)


class TestHybridStartup:
    def test_startup_steps_run_explicitly(self):
        gamma, s, dx = 0.5, 0.3, 0.125
        hybrid = run(make_problem(gamma), make_config(gamma, 0.5, s, dx, 10, startup=3))
        explicit = run(make_problem(gamma), make_config(gamma, 1.0, s, dx, 10))
        cn = run(make_problem(gamma), make_config(gamma, 0.5, s, dx, 10))
        # identical to the explicit run while the startup lasts ...
        assert np.max(np.abs(hybrid.values[:4] - explicit.values[:4])) == 0.0
        # ... then the paths part ways
        assert np.max(np.abs(hybrid.values[4] - explicit.values[4])) > 0.0
        assert np.max(np.abs(hybrid.values[4] - cn.values[4])) > 0.0

    @pytest.mark.parametrize("startup, origins", [(0, [0]), (3, [0, 3]), (10, [0])])
    def test_each_range_that_steps_begins_once(self, monkeypatch, startup, origins):
        begun = []
        begin = solver._HistorySums.begin

        def counted(memory, origin, *args):
            begun.append(origin)
            begin(memory, origin, *args)

        monkeypatch.setattr(solver._HistorySums, "begin", counted)
        run(make_problem(0.5), make_config(0.5, 0.5, 0.3, 0.125, 10, startup=startup))
        assert begun == origins


class TestHistoryReading:
    """A history keeps its modes and forms node rows where they are read."""

    def test_level_equals_values_bit_for_bit(self):
        from fracstep.harness import ExperimentSpec

        # 301 levels of 101 nodes are formed in chunks of 40; sin(2 pi x) samples its
        # right end at about -2.4e-16, which row 0 keeps
        spec = ExperimentSpec(
            gamma=0.5, lam=0.5, family=FormulaFamily.BDF1, dx=0.01,
            dt=dt_for_mesh_ratio(0.3, 0.01, 0.5), steps=300, ic="sine:2",
        )
        history = run(spec.problem(), spec.scheme())
        values = history.values
        assert values.shape == (301, 101) and values[0, -1] == math.sin(2.0 * math.pi) != 0.0
        for m in range(301):
            assert np.array_equal(history.level(m), values[m])

    def test_a_paper_scale_run_peaks_near_its_node_bytes(self):
        import tracemalloc

        from fracstep.harness import figure_specs

        # fig3 triangles at t = 0.5: 45,915 levels of 11 nodes, 4.04 MB of nodes.  The
        # traced peak is 2.36x those bytes with nodes formed only when read, and 3.36x
        # with every level's nodes written at the end of the run; 2.8x leaves 19% margin
        spec = figure_specs("fig3")[0]
        tracemalloc.start()
        try:
            history = run(spec.problem(), spec.scheme())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert history.top_level == 45914
        assert peak < 2.8 * 45915 * 11 * 8


class TestStack:
    """``run`` steps a stack of one: its ends are the problem's Dirichlet data and
    it steps only the live modes, those nonzero at level 0."""

    @pytest.mark.parametrize("left, right", [(0.0, 0.0), (0.25, -0.5)])
    def test_levels_past_the_first_end_exactly_on_the_dirichlet_data(self, left, right):
        # sin(2 pi x) samples its right end at about -2.4e-16, inside the endpoint tolerance
        problem = ProblemSpec(
            gamma=0.5,
            k_gamma=1.0,
            initial_condition=lambda x: left + (right - left) * x + math.sin(2.0 * math.pi * x),
            left_value=left,
            right_value=right,
        )
        # 300 levels of 21 nodes are written in two chunks
        history = run(problem, make_config(0.5, 0.5, 0.3, 0.05, 300, startup=3))
        assert history.level(0)[-1] != right
        assert np.all(history.values[1:, 0] == left) and np.all(history.values[1:, -1] == right)

    def stepped_modes(self, problem, config):
        """The live modes of the stack that ``run`` made, and the count of modes it held."""
        held = []

        class Held(solver._HistorySums):
            def __init__(self, *args):
                super().__init__(*args)
                held.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_HistorySums", Held)
            run(problem, config)
        (memory,) = held
        return memory.live.tolist(), memory.modes.shape[2]

    def test_a_centred_spike_steps_its_odd_modes(self):
        # the spike is symmetric about the centre, and its even modes come out exactly 0;
        # x(1 - x) sampled at j / 10 is not exactly symmetric, and steps all 9
        problem = make_problem(0.5, ic=lambda x: 1.0 if round(10 * x) == 5 else 0.0)
        live, stepped = self.stepped_modes(problem, make_config(0.5, 0.5, 0.3, 0.1, 40))
        assert live == [0, 2, 4, 6, 8] and stepped == 5
        live, stepped = self.stepped_modes(make_problem(0.5), make_config(0.5, 0.5, 0.3, 0.1, 40))
        assert live == list(range(9)) and stepped == 9

    def test_an_asymmetric_ic_steps_every_mode(self):
        bump = np.random.default_rng(11).uniform(-1.0, 1.0, 11)
        bump[[0, -1]] = 0.0
        problem = ProblemSpec(
            gamma=0.5,
            k_gamma=1.0,
            initial_condition=lambda x: 0.25 - 0.75 * x + bump[round(10 * x)],
            left_value=0.25,
            right_value=-0.5,
        )
        live, stepped = self.stepped_modes(problem, make_config(0.5, 0.5, 0.3, 0.1, 40))
        assert live == list(range(9)) and stepped == 9


class TestErrorHandling:
    def test_inconsistent_ic_is_rejected(self):
        problem = ProblemSpec(gamma=0.5, k_gamma=1.0, initial_condition=lambda x: x + 1.0)
        with pytest.raises(ValueError, match="endpoints"):
            run(problem, make_config(0.5, 1.0, 0.3, 0.25, 1))

    def test_misfitting_dx_is_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            run(make_problem(0.5), make_config(0.5, 1.0, 0.3, 0.3, 1))

    def test_overflow_signal_carries_level_and_history(self):
        # deep in the unstable region the explicit run overflows quickly
        problem = make_problem(0.5)
        config = make_config(0.5, 1.0, 5.0, 0.05, 4000)
        with pytest.raises(OverflowDetected) as excinfo:
            run(problem, config)
        overflow = excinfo.value
        assert 0 < overflow.level <= 4000
        assert overflow.history.top_level == overflow.level - 1
        assert np.all(np.isfinite(overflow.history.values))

    def test_step_requires_preextended_table(self):
        problem = make_problem(0.5)
        config = make_config(0.5, 1.0, 0.3, 0.25, 5)
        history = run(problem, config)
        short_table = build_table(FormulaFamily.BDF1, 0.5, 2)
        with pytest.raises(RuntimeError, match="pre-extend"):
            step(history, problem, config, short_table)

    def test_run_validates_a_provided_table(self):
        problem = make_problem(0.5)
        config = make_config(0.5, 1.0, 0.3, 0.25, 5)
        with pytest.raises(ValueError, match="capacity"):
            run(problem, config, table=build_table(FormulaFamily.BDF1, 0.5, 2))
        with pytest.raises(ValueError, match="match"):
            run(problem, config, table=build_table(FormulaFamily.BDF2, 0.5, 10))

    def test_shared_table_reproduces_private_table_run(self):
        problem = make_problem(0.5)
        config = make_config(0.5, 0.5, 0.3, 0.125, 12)
        shared = build_table(FormulaFamily.BDF1, 0.5, 13)
        a = run(problem, config, table=shared)
        b = run(problem, config)
        assert np.array_equal(a.values, b.values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(lam=1.5, dx=0.1, dt=0.01)
        with pytest.raises(ValueError):
            SchemeConfig(lam=0.5, dx=-0.1, dt=0.01)
        with pytest.raises(ValueError):
            ProblemSpec(gamma=0.0, k_gamma=1.0)
        with pytest.raises(ValueError):
            ProblemSpec(gamma=0.5, k_gamma=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["left_value", "right_value"])
    def test_non_finite_dirichlet_data_is_rejected(self, field, value):
        # NaN passed run's endpoint check, and the run overflowed at level 1
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            ProblemSpec(gamma=0.5, k_gamma=1.0, **{field: value})

    @pytest.mark.parametrize("lam", [1.5, -0.5, math.nan])
    def test_step_rejects_lam_outside_the_unit_interval(self, lam):
        problem = make_problem(0.5)
        config = make_config(0.5, 1.0, 0.3, 0.25, 5)
        history = SolutionHistory(run(problem, config).level(0), config.dx, config.dt)
        table = build_table(FormulaFamily.BDF1, 0.5, 6)
        with pytest.raises(ValueError, match=rf"lam must lie in \[0, 1\], got {lam}"):
            step(history, problem, config, table, lam=lam)
        assert history.top_level == 0

    def test_infinite_dt_is_rejected(self):
        with pytest.raises(ValueError, match="dt must be finite and > 0, got inf"):
            SchemeConfig(lam=0.5, dx=0.1, dt=math.inf)

    def test_infinite_k_gamma_is_rejected(self):
        with pytest.raises(ValueError, match="k_gamma must be finite and > 0, got inf"):
            ProblemSpec(gamma=0.5, k_gamma=math.inf)

    def test_infinite_domain_length_is_rejected(self):
        with pytest.raises(ValueError, match="domain_length must be finite and > 0, got inf"):
            ProblemSpec(gamma=0.5, k_gamma=1.0, domain_length=math.inf)


class TestHistoryBudget:
    """Histories past MAX_HISTORY_CELLS are refused before anything is allocated."""

    def test_run(self):
        # the budget is checked before the table: without the check this
        # short table fails fast instead of a 10^9-weight table being built
        config = make_config(0.5, 1.0, 0.3, 0.1, 10**9)
        table = build_table(FormulaFamily.BDF1, 0.5, 10)
        with pytest.raises(ValueError, match=f"{10**9 + 1} levels .* exceeds MAX_HISTORY_CELLS"):
            run(make_problem(0.5), config, table)

    def test_run_stacked(self):
        rows = np.zeros((3, 11))
        table = build_table(FormulaFamily.BDF1, 0.5, 10)
        with pytest.raises(ValueError, match="x 3 problems x 11 nodes .* MAX_HISTORY_CELLS"):
            run_stacked(rows, [table] * 3, [0.3] * 3, [1.0] * 3, MAX_HISTORY_CELLS // 33 + 1)

    def test_the_paper_scale_runs_fit_with_room(self):
        from fracstep.harness import figure_specs

        # fig3 at t = 0.5 (45,914 levels at gamma = 1/2), and the 1,500-step CN solve
        sizes = [(spec.steps + 1) * (round(1.0 / spec.dx) + 1) for spec in figure_specs("fig3")]
        assert max(sizes) == 45915 * 11
        assert max(sizes + [1501 * 101]) * 16 < MAX_HISTORY_CELLS


class TestCrossValidationAgainstExact:
    def test_fine_implicit_run_matches_benchmark_midpoint(self):
        # fully implicit, gamma = 1/2: the numerical solution at t = 0.5
        # approaches the tight-tolerance analytical value
        from fracstep.exact_solution import exact_eval, parabola_ic

        gamma, dx = 0.5, 0.02
        steps = 2048
        dt = 0.5 / steps
        problem = make_problem(gamma)
        config = SchemeConfig(lam=0.0, dx=dx, dt=dt, steps=steps)
        history = run(problem, config)
        mid = history.level(steps)[25]  # x = 0.5
        exact = exact_eval(parabola_ic(), gamma, 1.0, 0.5, 0.5, tol=1e-12)
        assert abs(mid - exact) < 5e-3
        # frozen from a 40-digit erfc-identity summation of the mode series
        assert exact == pytest.approx(0.02057040133944749, abs=1e-10)
