"""Tests of the experiment runner, convergence studies and figure datasets."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracstep import harness, solver
from fracstep.coeffs import FormulaFamily
from fracstep.exact_solution import exact_profile
from fracstep.harness import (
    ExperimentSpec,
    _write_csv,
    convergence_study,
    figure_specs,
    format_experiment,
    parse_experiment,
    reproduce_figure,
    run_experiment,
    startup_comparison,
)
from fracstep.solver import dt_for_mesh_ratio
from fracstep.stability import inv_stability_bound

BASE_CONFIG = """
[experiment]
name = demo
gamma = 0.5
kgamma = 1.0
lambda = 1.0
family = bdf1
dx = 0.1
s = 0.33
t_end = 0.01
ic = poly:x*(1-x)
outputs = profile_csv, error_vs_exact
"""


def make_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="unit",
        gamma=0.5,
        k_gamma=1.0,
        lam=0.0,
        family=FormulaFamily.BDF1,
        dx=0.05,
        dt=0.01,
        steps=10,
        ic="poly:x*(1-x)",
        output_times=(0.1,),
        outputs=("profile_csv", "error_vs_exact"),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestConfigFormat:
    def test_parse_derives_dt_from_mesh_ratio(self):
        spec = parse_experiment(BASE_CONFIG)
        assert spec.dt == pytest.approx((0.33 * 0.01) ** 2, rel=1e-12)
        assert spec.steps == round(0.01 / spec.dt)
        assert spec.outputs == ("profile_csv", "error_vs_exact")

    def test_round_trip(self):
        spec = parse_experiment(BASE_CONFIG)
        again = parse_experiment(format_experiment(spec))
        assert again == spec

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, -1.0, 0.0])
    def test_figure_specs_refuse_a_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end must be finite and > 0"):
            figure_specs("fig3", t_end=t_end)

    def test_figure_specs_round_trip(self):
        for fig_id in ("fig3", "fig4", "fig5", "fig6", "fig7"):
            for spec in figure_specs(fig_id, t_end=0.01 if fig_id == "fig3" else None):
                assert parse_experiment(format_experiment(spec)) == spec

    def test_missing_keys_are_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_experiment("[experiment]\ngamma = 0.5\n")
        with pytest.raises(ValueError, match="experiment"):
            parse_experiment("[other]\n")
        with pytest.raises(ValueError, match="dt or s"):
            parse_experiment("[experiment]\ngamma=0.5\nlambda=1\nfamily=bdf1\ndx=0.1\nsteps=5\n")

    def test_conflicting_keys_are_rejected(self):
        text = "[experiment]\ngamma=0.5\nlambda=1\nfamily=bdf1\ndx=0.1\ns=0.3\ndt=0.1\nsteps=5\n"
        with pytest.raises(ValueError, match="not both"):
            parse_experiment(text)

    def test_sine_ic(self):
        spec = make_spec(ic="sine:2")
        assert spec.problem().initial_condition(0.25) == pytest.approx(1.0)
        assert spec.sine_series().coefficients == ((2, 1.0),)
        with pytest.raises(ValueError):
            make_spec(ic="cosine:2")


    def test_sine_ic_past_2_53_is_refused(self):
        with pytest.raises(ValueError, match="9007199254740993 exceeds 2\\*\\*53"):
            make_spec(ic="sine:9007199254740993")


# a config with every key of the table in use, and bad values for each key
GOOD_KEYS = {
    "name": "keys", "gamma": "0.5", "kgamma": "2.0", "lambda": "0.5", "family": "bdf2", "dx": "0.1",
    "dt": "0.001", "steps": "10", "startup_explicit_steps": "2", "ic": "sine:2",
    "output_times": "0.005, 0.01", "outputs": "profile_csv, error_vs_exact",
}
BAD_VALUES = {
    "name": ["a/b"], "gamma": ["abc"], "kgamma": ["abc"], "lambda": ["abc"], "family": ["bdf9"],
    "dx": ["abc"], "dt": ["abc"], "steps": ["5.0", "-1"], "startup_explicit_steps": ["x", "-1"],
    "ic": ["sine:x"], "output_times": ["a"], "outputs": ["bogus"], "s": ["abc"], "t_end": ["abc"],
}


def config_text(keys: dict) -> str:
    return "[experiment]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())


class TestConfigKeys:
    """The key table: an error in a key's value names the key, and unknown keys are refused."""

    def test_every_key_round_trips(self):
        spec = parse_experiment(config_text(GOOD_KEYS))
        assert (spec.k_gamma, spec.startup_explicit_steps, spec.ic) == (2.0, 2, "sine:2")
        assert format_experiment(spec) == config_text(GOOD_KEYS)

    @pytest.mark.parametrize("key", harness._CONFIG_KEYS)
    def test_a_bad_value_names_its_key(self, key):
        keys = dict(GOOD_KEYS)
        for stand_in, replaced in (("s", "dt"), ("t_end", "steps")):
            if key == stand_in:
                del keys[replaced]
        for bad in BAD_VALUES[key]:
            keys[key] = bad
            with pytest.raises(ValueError, match=f"^(config key '{key}': |{key} )"):
                parse_experiment(config_text(keys))

    def test_unknown_keys_are_refused(self):
        text = config_text(GOOD_KEYS) + "startup_explicit_step = 3\nkgama = 2\n"
        with pytest.raises(ValueError, match="^unknown config key startup_explicit_step, kgama; the keys are name,"):
            parse_experiment(text)


class TestRunExperiment:
    def test_exact_profiles_come_from_one_call(self, tmp_path, monkeypatch):
        # every output time shares one exact_profile call, row for row as one call per time
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[4])
            return exact_profile(*args, **kwargs)

        monkeypatch.setattr(harness, "exact_profile", counted)
        spec = make_spec(steps=10, output_times=(0.1, 0.0, 0.05, 0.1), name="times")
        result = run_experiment(spec, tmp_path)
        assert calls == [[10 * spec.dt, 0.0, 5 * spec.dt]]
        for path, t in zip(result.paths, calls[0]):
            u_exact = [float(line.split(",")[2]) for line in path.read_text().splitlines()[2:-1]]
            one = exact_profile(spec.sine_series(), 0.5, 1.0, result.history.x, t, tol=harness.EXACT_TOL)
            assert u_exact == one.tolist()

    def test_a_repeated_output_time_is_written_once(self, tmp_path):
        spec = make_spec(steps=10, output_times=(0.05, 0.1, 0.05), name="twice")
        result = run_experiment(spec, tmp_path)
        assert [path.name for path in result.paths] == ["twice_t5.csv", "twice_t10.csv"]
        assert [t for t, *_ in result.summaries] == [5 * spec.dt, 10 * spec.dt]

    def test_times_that_round_to_one_level_are_written_once(self, tmp_path):
        spec = make_spec(steps=10, output_times=(0.0496, 0.1, 0.0504), name="near")
        result = run_experiment(spec, tmp_path)
        assert [path.name for path in result.paths] == ["near_t5.csv", "near_t10.csv"]
        assert len(result.summaries) == 2

    def test_zero_ic_gives_zero_profile_and_error(self, tmp_path):
        result = run_experiment(make_spec(ic="zero", name="null"), tmp_path)
        assert result.status == "completed"
        assert np.all(result.history.values == 0.0)
        (t, max_err, l2_err) = result.summaries[0]
        assert t == pytest.approx(0.1)
        assert max_err == 0.0 and l2_err == 0.0

    def test_parabola_summary_is_sane(self, tmp_path):
        result = run_experiment(make_spec(output_times=(0.1,)), tmp_path)
        assert result.status == "completed"
        (t, max_err, l2_err) = result.summaries[0]
        assert t == pytest.approx(0.1)
        assert 0.0 < max_err < 0.05
        assert 0.0 < l2_err <= max_err

    def test_profile_file_contents(self, tmp_path):
        spec = make_spec(steps=4, output_times=(0.04,), name="prof")
        result = run_experiment(spec, tmp_path)
        (path,) = result.paths
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# experiment prof")
        assert lines[1] == "x,u_numeric,u_exact,abs_error"
        assert len(lines) == 2 + 21 + 1  # header, columns, nodes, summary
        assert lines[-1].startswith("# summary")
        x0 = float(lines[2].split(",")[0])
        assert x0 == 0.0

    def test_history_dump(self, tmp_path):
        spec = make_spec(steps=3, output_times=(0.03,), outputs=("profile_csv", "history_csv"))
        result = run_experiment(spec, tmp_path)
        history_path = [p for p in result.paths if p.name.endswith("history.csv")][0]
        lines = history_path.read_text().splitlines()
        assert lines[1].split(",")[:2] == ["level", "u0"]
        assert len(lines) == 2 + 4  # header + columns + 4 levels

    def test_unstable_run_is_reported_not_raised(self, tmp_path):
        gamma, dx, s = 0.5, 0.05, 5.0
        spec = make_spec(
            lam=1.0,
            dx=dx,
            dt=dt_for_mesh_ratio(s, dx, gamma),
            steps=4000,
            output_times=(),
            name="blowup",
        )
        spec = make_spec(
            lam=1.0,
            dx=dx,
            dt=dt_for_mesh_ratio(s, dx, gamma),
            steps=4000,
            output_times=(4000 * dt_for_mesh_ratio(s, dx, gamma),),
            name="blowup",
        )
        result = run_experiment(spec, tmp_path)
        assert result.status == "unstable"
        assert result.unstable_level is not None
        text = result.paths[0].read_text()
        assert f"UNSTABLE at step {result.unstable_level}" in text

    def test_stability_report_output(self, tmp_path):
        spec = make_spec(
            lam=1.0,
            dx=0.1,
            dt=dt_for_mesh_ratio(0.33, 0.1, 0.5),
            steps=60,
            output_times=(),
            outputs=("stability_report",),
            name="rep",
        )
        result = run_experiment(spec, tmp_path)
        (path,) = result.paths
        body = path.read_text()
        assert "theoretical_verdict" in body
        assert "stable" in body


class TestConvergence:
    def test_classical_cn_second_order_in_dx(self):
        # gamma=1, lambda=1/2, S fixed: halving dx (and adjusting dt)
        # shows second-order decay of the error
        gamma, s, dx = 1.0, 0.4, 0.1
        dt = dt_for_mesh_ratio(s, dx, gamma)
        spec = make_spec(
            gamma=gamma,
            lam=0.5,
            dx=dx,
            dt=dt,
            steps=round(0.1 / dt),
            output_times=(),
            outputs=("profile_csv",),
        )
        report = convergence_study(spec, refinements=2, mode="refine_both")
        assert report.estimated_order_dx == pytest.approx(2.0, abs=0.4)
        errors = [lv[2] for lv in report.refinement_levels]
        assert errors[0] > errors[1] > errors[2]

    def test_fractional_implicit_order_in_dt(self):
        # gamma=1/2, fully implicit, refining dt at fixed fine dx.  The
        # solution behaves like t^gamma near t = 0 and the scheme carries
        # no starting corrections, so the measured global rate is
        # order ~ gamma (0.50 observed over four levels), not the formal
        # O(dt) of the smooth-solution truncation analysis.
        gamma, dx = 0.5, 0.01
        steps = 32
        spec = make_spec(
            gamma=gamma,
            lam=0.0,
            dx=dx,
            dt=0.5 / steps,
            steps=steps,
            output_times=(),
            outputs=("profile_csv",),
        )
        report = convergence_study(spec, refinements=3, mode="refine_dt")
        errors = [lv[2] for lv in report.refinement_levels]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert 0.35 <= report.estimated_order_dt <= 0.75

    def test_cn_beats_fully_implicit(self):
        gamma, dx = 0.5, 0.02
        steps = 64
        base = dict(
            gamma=gamma,
            dx=dx,
            dt=0.5 / steps,
            steps=steps,
            output_times=(),
            outputs=("profile_csv",),
        )
        cn = convergence_study(make_spec(lam=0.5, **base), refinements=2, mode="refine_dt")
        implicit = convergence_study(make_spec(lam=0.0, **base), refinements=2, mode="refine_dt")
        for (_, _, e_cn), (_, _, e_im) in zip(cn.refinement_levels, implicit.refinement_levels):
            assert e_cn <= e_im

    def test_unstable_refinement_is_rejected(self):
        # refining dx at fixed dt pushes S past the explicit bound
        gamma, dx = 0.5, 0.1
        dt = dt_for_mesh_ratio(0.3, dx, gamma)
        spec = make_spec(
            gamma=gamma, lam=1.0, dx=dx, dt=dt, steps=20, output_times=(), outputs=("profile_csv",)
        )
        with pytest.raises(ValueError, match="level"):
            convergence_study(spec, refinements=2, mode="refine_dx")

    def test_a_level_that_overflows_is_named_with_its_step(self, monkeypatch):
        # the stability check passes every level (lam = 0); a limit between level 0's
        # largest computed value and level 1's first level makes only level 1 overflow
        spec = make_spec(output_times=(), outputs=("profile_csv",))
        levels = [spec, replace(spec, dt=spec.dt / 2.0, steps=2 * spec.steps)]
        tops = [np.abs(solver.run(s.problem(), s.scheme()).values[1:]).max(axis=1) for s in levels]
        assert tops[0].max() < tops[1][0]
        monkeypatch.setattr(solver, "OVERFLOW_LIMIT", 0.5 * (tops[0].max() + tops[1][0]))
        with pytest.raises(ValueError, match=r"^refinement level 1 went unstable at step 1$"):
            convergence_study(spec, refinements=2, mode="refine_dt")

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            convergence_study(make_spec(), refinements=1, mode="refine_everything")
        with pytest.raises(ValueError):
            convergence_study(make_spec(), refinements=0)


class TestOversizedExactGrids:
    """A grid the exact oracle refuses is refused before the scheme runs."""

    @pytest.fixture(autouse=True)
    def no_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scheme ran before the grid was checked")

        monkeypatch.setattr(harness, "run", refuse)

    def test_run_experiment_with_the_error_output(self, tmp_path):
        spec = make_spec(dx=1.0 / 70000, dt=1e-12, steps=1, output_times=())
        with pytest.raises(ValueError, match="70001 points exceeds MAX_PROFILE_POINTS"):
            run_experiment(spec, tmp_path)

    def test_convergence_study_before_its_first_level(self):
        # the base grid passes, the refined one (80,001 nodes, 2 levels) does not
        spec = make_spec(dx=1.0 / 40000, dt=1e-12, steps=1, output_times=())
        with pytest.raises(ValueError, match="80001 points exceeds MAX_PROFILE_POINTS"):
            convergence_study(spec, refinements=1, mode="refine_dx")


class TestStartupComparison:
    def _cn_spec(self):
        gamma, dx, s = 0.5, 0.05, 0.3
        dt = dt_for_mesh_ratio(s, dx, gamma)
        return make_spec(
            gamma=gamma,
            lam=0.5,
            dx=dx,
            dt=dt,
            steps=80,
            output_times=(),
            outputs=("profile_csv",),
        )

    def test_grid_produces_error_table(self):
        rows = startup_comparison(self._cn_spec(), [0, 2, 5, 10])
        assert [count for count, _ in rows] == [0, 2, 5, 10]
        assert all(err > 0.0 for _, err in rows)

    def test_requires_crank_nicholson(self):
        with pytest.raises(ValueError, match="lam"):
            startup_comparison(make_spec(lam=0.0), [0, 2])

    def test_rejects_startup_beyond_explicit_bound(self):
        gamma, dx, s = 0.5, 0.05, 2.0  # far above the explicit bound
        dt = dt_for_mesh_ratio(s, dx, gamma)
        spec = make_spec(
            gamma=gamma, lam=0.5, dx=dx, dt=dt, steps=30, output_times=(), outputs=("profile_csv",)
        )
        with pytest.raises(ValueError, match="explicit bound"):
            startup_comparison(spec, [0, 2])

    def test_a_run_that_overflows_is_refused(self, monkeypatch):
        # the nodes decay from 0.25: level 1 is the first past a limit below its largest
        spec = self._cn_spec()
        level_1 = solver.run(spec.problem(), spec.scheme()).level(1)
        monkeypatch.setattr(solver, "OVERFLOW_LIMIT", 0.5 * np.abs(level_1).max())
        with pytest.raises(ValueError, match=r"^the run with 0 startup steps went unstable at step 1$"):
            startup_comparison(spec, [0, 2])

    def test_classical_limit_insensitive_to_startup(self):
        # at gamma = 1 the fractional startup term is absent; swapping a
        # few leading steps to the explicit scheme only perturbs the error
        # at the classical O(dt^2)-per-step level
        gamma, dx, s = 1.0, 0.05, 0.2
        dt = dt_for_mesh_ratio(s, dx, gamma)
        spec = make_spec(
            gamma=gamma,
            lam=0.5,
            dx=dx,
            dt=dt,
            steps=200,
            output_times=(),
            outputs=("profile_csv",),
        )
        rows = startup_comparison(spec, [0, 2, 5, 10])
        errors = [err for _, err in rows]
        assert max(errors) <= 1.1 * min(errors)

    def test_subdiffusive_startup_reduces_error(self):
        # gamma = 1/2 table is exploratory output; at this resolution the
        # explicit start happens to help markedly (measured, not asserted
        # as a general ordering)
        rows = startup_comparison(self._cn_spec(), [0, 10])
        assert rows[1][1] < rows[0][1]


def per_cell_fmt(value) -> str:
    """The CSV cell format of the per-cell formatter that whole-row formatting replaced."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class TestCsvRows:
    def test_whole_rows_match_the_per_cell_format(self, tmp_path):
        rng = np.random.default_rng(7)
        floats = rng.standard_normal(6) * 10.0 ** rng.integers(-30, 30, 6)
        rows = [
            ("label", 3, np.int64(-12), np.float64(0.1), -0.0, math.inf),
            (-math.inf, math.nan, np.float64(math.nan), 5e-324, np.float64(-5e-324), 1e16),
            (0, np.int64(2**62), 1e-4, np.float64(9.999999999999999e-05), "x", 1 / 3),
            tuple(floats.tolist()),
            tuple(floats),
        ]
        columns = ("a", "b", "c", "d", "e", "f")
        path = _write_csv(tmp_path / "mixed.csv", "mixed", columns, zip(*rows), "end")
        expected = ["# mixed | columns: a,b,c,d,e,f", "a,b,c,d,e,f"]
        expected += [",".join(per_cell_fmt(v) for v in row) for row in rows]
        assert path.read_text() == "\n".join(expected + ["# end"]) + "\n"

    def test_a_mixed_table_over_several_chunks_matches_the_per_cell_format(self, tmp_path):
        # text columns between float columns, over more than two chunks of rows
        rng = np.random.default_rng(11)
        n = 2 * harness._CHUNK_CELLS // 9 + 100
        floats = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, (n, 4))
        floats[:6, 0] = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16)
        labels = [f"case{i % 7}" for i in range(n)]
        levels = np.arange(n) * 3 - 50
        columns = ("label", "a", "level", "t", "b0", "b1", "b2", "name", "c")
        a, block, c = floats[:, 0], floats[:, 1:] / 3.0, floats[:, 0] * 7  # a is strided
        table = (labels, a, levels, [0.1] * n, block, labels, c)
        path = _write_csv(tmp_path / "mixed.csv", "mixed", columns, table)
        lines = path.read_text().splitlines()[2:]
        assert len(lines) == n
        for i, line in enumerate(lines):
            cells = (labels[i], a[i], levels[i], 0.1, *block[i], labels[i], c[i])
            assert line == ",".join(per_cell_fmt(v) for v in cells)

    def test_a_row_wider_than_a_chunk_matches_the_per_cell_format(self, tmp_path):
        # more float columns than cells in a chunk: one row is formatted at a time
        rng = np.random.default_rng(13)
        width = harness._CHUNK_CELLS + 37
        block = rng.standard_normal((3, width)) * 10.0 ** rng.integers(-320, 300, (3, width))
        block[0, :8] = (math.nan, -math.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e16, 1e-5)
        columns = ("level",) + tuple(f"u{j}" for j in range(width))
        path = _write_csv(tmp_path / "wide.csv", "wide", columns, (np.arange(3), block), "end")
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 3 + 1 and lines[-1] == "# end"
        for i, line in enumerate(lines[2:-1]):
            assert line == ",".join(per_cell_fmt(v) for v in (i, *block[i]))

    def test_rows_an_exact_multiple_of_the_step_match_the_per_cell_format(self, tmp_path):
        # three whole chunks of rows and no partial one
        columns = ("level", "label", "a", "b", "c", "d", "e", "f", "g")
        step = harness._CHUNK_CELLS // len(columns)
        n = 3 * step
        rng = np.random.default_rng(17)
        block = rng.standard_normal((n, 7)) * 10.0 ** rng.integers(-12, 20, (n, 7))
        labels = [f"row{i}" for i in range(n)]
        path = _write_csv(tmp_path / "whole.csv", "whole", columns, (np.arange(n), labels, block), "end")
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + n + 1 and lines[-1] == "# end"
        for i, line in enumerate(lines[2:-1]):
            assert line == ",".join(per_cell_fmt(v) for v in (i, labels[i], *block[i]))

    # (spec overrides, whether the last level is in exponent form)
    HISTORIES = (
        (dict(lam=0.5, steps=70), False),
        # the cn-solve benchmark's run: BDF3, lambda 1/2, 101 nodes, 1,500 steps
        (dict(lam=0.5, family=FormulaFamily.BDF3, dx=0.01, dt=1e-8, steps=1500, output_times=()), False),
        # an unstable explicit run (S = 0.7): it grows to 1e68
        (dict(lam=1.0, dt=dt_for_mesh_ratio(0.7, 0.05, 0.5), steps=200, output_times=()), True),
    )

    def test_history_csv_matches_the_per_cell_format(self, tmp_path):
        for i, (overrides, exponent_form) in enumerate(self.HISTORIES):
            spec = make_spec(outputs=("history_csv",), **overrides)
            result = run_experiment(spec, tmp_path / str(i))
            values = result.history.values
            lines = (tmp_path / str(i) / "unit_history.csv").read_text().splitlines()[2:]
            assert len(lines) == len(values) == spec.steps + 1
            for m, line in enumerate(lines):
                assert line == ",".join(per_cell_fmt(v) for v in (m, *values[m]))
            assert ("e+" in lines[-1]) == exponent_form

    def test_writing_a_history_holds_little_memory(self, tmp_path):
        # a 1,501 x 102 history CSV is 3 MB; it is written in chunks, not held whole
        values = np.random.default_rng(3).random((1501, 101)) * 0.25
        table = (np.arange(1501), values)
        columns = ("level",) + tuple(f"u{j}" for j in range(101))
        tracemalloc.start()
        try:
            path = _write_csv(tmp_path / "history.csv", "history", columns, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2_500_000
        assert peak <= 3 * 2**20


class TestFigures:
    def test_fig1_line_values(self, tmp_path):
        result = reproduce_figure("fig1", tmp_path)
        assert result.status == "completed"
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[27].split(",")))  # lambda = 0.25
        assert float(row["inv_s_cross"]) == pytest.approx(
            2.0 * (2.0 * 0.25 - 1.0) * math.sqrt(2.0), rel=1e-12
        )
        mid = [l for l in lines if l.startswith("0.5,0.5,")]
        assert len(mid) == 1 and float(mid[0].split(",")[2]) == 0.0

    def test_fig4_emits_requested_levels_and_flags_instability(self, tmp_path):
        result = reproduce_figure("fig4", tmp_path)
        assert result.status == "unstable"
        lines = (tmp_path / "fig4.csv").read_text().splitlines()
        levels = {line.split(",")[0] for line in lines[2:]}
        assert levels == {"150", "200"}

    def test_fig3_shortened_profiles_match_exact(self, tmp_path):
        result = reproduce_figure("fig3", tmp_path, t_end=0.01)
        assert result.status == "completed"
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        for line in lines[2:]:
            parts = line.split(",")
            u_num, u_exact = float(parts[-2]), float(parts[-1])
            assert abs(u_num - u_exact) < 5e-2

    # fig3 (shortened) .. fig7: the header, the column line, the data rows and the status
    PROFILE_FIGURES = [
        ("fig3", "stable explicit profiles vs analytical solution (bdf1, lambda=1)",
         "case,gamma,s,dx,t,x,u_numeric,u_exact", 11 + 21 + 51, "completed"),
        ("fig4", "fig4: gamma=0.5 lambda=1.0 S=0.36999999999999994 dx=0.05 steps=200 "
         "probe_verdict=unstable probe_growth=29263.178531224083",
         "level,x,u_numeric", 2 * 21, "unstable"),
        ("fig5", "fig5: gamma=0.5 lambda=0.8 S=0.55 dx=0.05 steps=500 "
         "probe_verdict=stable probe_growth=0.029372598783864976",
         "x,u_numeric,u_exact", 21, "completed"),
        ("fig6", "fig6: gamma=0.5 lambda=0.8 S=0.6999999999999998 dx=0.05 steps=50 "
         "probe_verdict=unstable probe_growth=1364.3538027762197",
         "x,u_numeric", 21, "unstable"),
        ("fig7", "fig7: gamma=0.5 lambda=0.8 S=0.6999999999999998 dx=0.05 steps=100 "
         "probe_verdict=unstable probe_growth=2216735.280859682",
         "x,u_numeric", 21, "unstable"),
    ]

    @pytest.mark.parametrize("fig_id, header, columns, rows, status", PROFILE_FIGURES)
    def test_profile_figure_layout(self, tmp_path, fig_id, header, columns, rows, status):
        result = reproduce_figure(fig_id, tmp_path, t_end=0.01)  # fig4..fig7 ignore t_end
        assert result.status == status
        lines = (tmp_path / f"{fig_id}.csv").read_text().splitlines()
        assert lines[:2] == [f"# {header} | columns: {columns}", columns]
        assert len(lines) == 2 + rows

    def test_fig2_bounds_equal_the_per_point_bound(self, tmp_path):
        reproduce_figure("fig2", tmp_path)
        rows = [
            f"{family.value},{float(g)!r},{inv_stability_bound(family, g, 1.0)!r}"
            for family in FormulaFamily
            for g in np.linspace(0.05, 1.0, 39)
        ]
        assert (tmp_path / "fig2_bounds.csv").read_text().splitlines()[2:] == rows

    def test_figure_determinism(self, tmp_path):
        for fig_id, kwargs in (("fig1", {}), ("fig6", {}), ("fig3", {"t_end": 0.005})):
            d1, d2 = tmp_path / f"{fig_id}_a", tmp_path / f"{fig_id}_b"
            r1 = reproduce_figure(fig_id, d1, **kwargs)
            r2 = reproduce_figure(fig_id, d2, **kwargs)
            for p1, p2 in zip(r1.paths, r2.paths):
                assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_figure_id(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_figure("fig9", tmp_path)

    def test_fig1_line_equals_public_phase_sweep(self, tmp_path):
        # the sweep figures have no hidden code paths: the same line comes
        # out of the public phase-diagram CLI for the same grid
        from fracstep.cli import main as cli_main

        reproduce_figure("fig1", tmp_path)
        out = tmp_path / "phase.csv"
        code = cli_main(
            ["stability", "phase", "--family", "bdf1",
             "--gamma-grid", "0.5:0.5:1", "--lambda-grid", "0:1:101",
             "--out", str(out)]
        )
        assert code == 0
        fig_rows = (tmp_path / "fig1.csv").read_text().splitlines()[2:]
        cli_rows = out.read_text().splitlines()[2:]
        assert fig_rows == cli_rows
