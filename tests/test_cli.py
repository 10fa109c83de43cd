"""End-to-end tests of the fracstep command line."""

import math
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import fracstep
from fracstep import cli
from fracstep.cli import EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, main

from test_mittag_leffler import gll_reference

STABLE_CONFIG = """
[experiment]
name = cli_demo
gamma = 0.5
lambda = 1.0
family = bdf1
dx = 0.1
s = 0.33
t_end = 0.005
outputs = profile_csv, error_vs_exact
"""

UNSTABLE_CONFIG = """
[experiment]
name = cli_blowup
gamma = 0.5
lambda = 1.0
family = bdf1
dx = 0.05
s = 5.0
steps = 4000
outputs = profile_csv
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_prints_one_weight_per_line_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "bdf1", "--alpha", "0.5", "--count", "4")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines == ["1", "-0.5", "-0.125", "-0.0625"]

    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "bdf2", "--alpha", "0.5", "--count", "1")
        assert code == EXIT_OK
        assert out.strip() == f"{math.sqrt(1.5):.17g}"

    def test_bad_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--family", "bdf7", "--alpha", "0.5", "--count", "2")
        assert code == EXIT_USAGE


class TestMl:
    def test_value_15_digits(self, capsys):
        code, out, _ = run_cli(capsys, "ml", "--gamma", "1.0", "--z", "-1.0")
        assert code == EXIT_OK
        assert out.strip() == f"{math.exp(-1.0):.15g}"

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "ml", "--gamma", "1.5", "--z", "-1.0")
        assert code == EXIT_USAGE
        assert "gamma" in err

    @pytest.mark.parametrize(
        "gamma,z", [(0.1, -10.0), (0.25, -5.0), (0.2, -6.0), (0.05, -1e6), (0.9999, -1e6)]
    )
    def test_fast_and_accurate_far_from_origin(self, capsys, gamma, z):
        # large |z|^(1/gamma): the cost must not grow with it
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, "ml", "--gamma", str(gamma), "--z", str(z))
            best = min(best, time.perf_counter() - start)
        assert code == EXIT_OK
        assert abs(float(out) - gll_reference(gamma, -z)) <= 1e-12
        assert best < 0.05

    def test_legacy_flags_are_validated_only(self, capsys):
        code, plain, _ = run_cli(capsys, "ml", "--gamma", "0.3", "--z", "-20")
        code2, legacy, _ = run_cli(
            capsys, "ml", "--gamma", "0.3", "--z", "-20",
            "--series-cutoff", "1", "--series-tol", "0.1", "--asymptotic-terms", "1",
        )
        assert code == code2 == EXIT_OK and plain == legacy
        for flag, bad in (("--series-cutoff", "0"), ("--series-tol", "-1"), ("--asymptotic-terms", "0")):
            code, _, err = run_cli(capsys, "ml", "--gamma", "0.3", "--z", "-20", flag, bad)
            assert code == EXIT_USAGE and flag.strip("-").replace("-", "_") in err


class TestExact:
    def test_csv_boundaries(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--gamma", "0.5", "--kgamma", "1", "--t", "0.5", "--nx", "4"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "x,u_exact"
        assert lines[1] == "0.0,0.0"
        assert lines[-1] == "1.0,0.0"
        assert len(lines) == 6

    @pytest.mark.parametrize("nx", ["0", "-1"])
    def test_grids_of_no_intervals_are_refused(self, capsys, nx):
        code, out, err = run_cli(
            capsys, "exact", "--gamma", "0.5", "--kgamma", "1", "--t", "0.5", "--nx", nx
        )
        assert code == EXIT_USAGE and out == "" and "--nx" in err


class TestSolve:
    def test_stable_run(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(STABLE_CONFIG)
        code, out, _ = run_cli(
            capsys, "solve", "--config", str(config), "--out-dir", str(tmp_path)
        )
        assert code == EXIT_OK
        assert "max_error=" in out
        produced = list(tmp_path.glob("cli_demo_t*.csv"))
        assert len(produced) == 1

    def test_unstable_run_exit_code(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(UNSTABLE_CONFIG)
        code, out, _ = run_cli(
            capsys, "solve", "--config", str(config), "--out-dir", str(tmp_path)
        )
        assert code == EXIT_UNSTABLE
        assert "UNSTABLE at step" in out

    def test_dump_history(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(STABLE_CONFIG.replace("t_end = 0.005", "steps = 3"))
        target = tmp_path / "hist.csv"
        code, _, _ = run_cli(
            capsys,
            "solve", "--config", str(config), "--out-dir", str(tmp_path),
            "--dump-history", str(target),
        )
        assert code == EXIT_OK
        lines = target.read_text().splitlines()
        assert len(lines) == 2 + 4  # header, columns, levels 0..3

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)
        )
        assert code == EXIT_USAGE


class TestStability:
    def test_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability", "bound", "--family", "bdf1", "--gamma", "0.5", "--lambda", "1.0"
        )
        assert code == EXIT_OK
        assert f"inv_s_cross={2.0**1.5!r}" in out

    def test_probe_exit_codes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "stability", "probe", "--family", "bdf1",
            "--gamma", "0.5", "--lambda", "1.0", "--s", "0.33",
        )
        assert code == EXIT_OK and "empirical_verdict=stable" in out
        code, out, _ = run_cli(
            capsys,
            "stability", "probe", "--family", "bdf1",
            "--gamma", "0.5", "--lambda", "1.0", "--s", "0.37",
        )
        assert code == EXIT_UNSTABLE and "empirical_verdict=unstable" in out

    @pytest.mark.parametrize("s", ["inf", "nan"])
    def test_probe_non_finite_s_is_usage_error(self, capsys, s):
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys,
            "stability", "probe", "--family", "bdf1",
            "--gamma", "0.5", "--lambda", "1.0", "--s", s,
        )
        assert code == EXIT_USAGE and f"got {s}" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("family", ["bdf1", "bdf2", "bdf3", "ng2"])
    def test_printed_bounds_are_plain_floats(self, capsys, family):
        common = ("--family", family, "--gamma", "0.5", "--lambda", "1.0")
        _, bound, _ = run_cli(capsys, "stability", "bound", *common)
        _, probe, _ = run_cli(capsys, "stability", "probe", *common, "--s", "0.1", "--steps", "50")
        # numpy 2 scalars would print as np.float64(...), which float() rejects
        for out, keys in ((bound, ("s_cross", "inv_s_cross")), (probe, ("s_cross",))):
            values = dict(line.split("=", 1) for line in out.splitlines())
            for key in keys:
                assert float(values[key]) > 0.0

    def test_phase_sweep_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "phase.csv"
        code, _, _ = run_cli(
            capsys,
            "stability", "phase", "--family", "bdf1",
            "--gamma-grid", "0.5:0.5:1", "--lambda-grid", "0:1:5",
            "--out", str(out_csv),
        )
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[1] == "gamma,lambda,inv_s_cross"
        assert len(lines) == 2 + 5
        # lambda = 0.5 row vanishes
        assert lines[4].split(",")[2] == "0.0"

    def test_bad_grid_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "stability", "phase", "--family", "bdf1",
            "--gamma-grid", "zzz", "--lambda-grid", "0:1:5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE


class TestConverge:
    def test_refine_dt_report(self, capsys, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "[experiment]\nname=c\ngamma=1.0\nlambda=0.5\nfamily=bdf1\n"
            "dx=0.1\ns=0.4\nsteps=25\n"
        )
        code, out, _ = run_cli(
            capsys, "converge", "--config", str(config), "--mode", "refine_dt", "--levels", "2"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "dt,dx,max_error"
        assert "estimated_order_dt=" in out


class TestFigure:
    def test_fig5_completes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "figure", "--id", "fig5", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert (tmp_path / "fig5.csv").exists()

    def test_fig7_flags_instability(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "--id", "fig7", "--out-dir", str(tmp_path))
        assert code == EXIT_UNSTABLE
        assert (tmp_path / "fig7.csv").exists()

    def test_unknown_id_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "--id", "fig9", "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE


class TestBadTimes:
    """A time that cannot run exits 1 with an error line naming its flag or key,
    before anything runs or is written."""

    @pytest.mark.parametrize("t_end", ["inf", "nan", "-1", "0"])
    def test_figure_t_end(self, capsys, tmp_path, t_end):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "figure", "--id", "fig3", "--t-end", t_end, "--out-dir", str(out))
        assert code == EXIT_USAGE
        assert err.startswith(f"error: --t-end: t_end must be finite and > 0, got {float(t_end)}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "times, key",
        [("s = 0.33\nt_end = inf", "t_end"), ("s = 0.33\nt_end = nan", "t_end"),
         ("s = 0.33\nt_end = 0", "t_end"), ("s = 0.33\nsteps = 10\noutput_times = nan", "output time"),
         ("dt = 0\nt_end = 1", "dt")],
    )
    def test_solve_config(self, capsys, tmp_path, times, key):
        config = tmp_path / "exp.cfg"
        config.write_text(STABLE_CONFIG.replace("s = 0.33\nt_end = 0.005", times))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "solve", "--config", str(config), "--out-dir", str(out))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and key in err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["solve", "converge"])
    @pytest.mark.parametrize(
        "params, key",
        [("gamma = 0\ns = 0.33", "gamma"), ("gamma = 0.5\nkgamma = 0\ns = 0.33", "k_gamma"),
         ("gamma = 1e-4\ns = 200", "dt")],
    )
    def test_mesh_ratio_config(self, capsys, tmp_path, command, params, key):
        # dt = (S dx^2 / k_gamma)^(1/gamma) divides by zero, or overflows
        config = tmp_path / "exp.cfg"
        config.write_text(STABLE_CONFIG.replace("gamma = 0.5", "").replace("s = 0.33", params))
        out = tmp_path / "out"
        argv = ["--config", str(config)] + ["--out-dir", str(out)] * (command == "solve")
        code, stdout, err = run_cli(capsys, command, *argv)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {key} ") and stdout == ""
        assert not out.exists()


class TestBadConfig:
    """A config not in the format, with a key given twice, an unknown key or section,
    or a value out of range exits 1 with one error line, before anything runs or is
    written."""

    @pytest.mark.parametrize("command", ["solve", "converge"])
    @pytest.mark.parametrize(
        "text, words",
        [(STABLE_CONFIG + "s = 0.5\n", "option 's' in section 'experiment' already exists"),
         (STABLE_CONFIG.replace("[experiment]", ""), "File contains no section headers"),
         (STABLE_CONFIG + "startup_explicit_step = 3\n", "unknown config key startup_explicit_step;"),
         (STABLE_CONFIG + "[experiments]\nstartup_explicit_steps = 3\n", "['experiment', 'experiments']")],
        ids=["key_twice", "no_section", "unknown_key", "second_section"],
    )
    def test_error_line(self, capsys, tmp_path, command, text, words):
        config = tmp_path / "exp.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        argv = ["--config", str(config)] + ["--out-dir", str(out)] * (command == "solve")
        code, stdout, err = run_cli(capsys, command, *argv)
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith("error: ") and words in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [("lambda = 2", "lam must lie in [0, 1], got 2.0"), ("dx = -0.1", "dx must be finite and > 0"),
         ("name = a/b", "name 'a/b' holds a path separator"),
         ("dx = 0.3", "dx=0.3 does not evenly divide domain_length=1.0")],
    )
    def test_value_out_of_range(self, capsys, tmp_path, line, message):
        # refused when the config is read, before the output directory is made
        key = line.split()[0]
        config = tmp_path / "exp.cfg"
        config.write_text("\n".join(line if old.startswith(f"{key} =") else old for old in STABLE_CONFIG.splitlines()))
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "solve", "--config", str(config), "--out-dir", str(out))
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith(f"error: {message}")
        assert not out.exists()


class TestNumericFlags:
    """Negative numbers in every form argparse can meet are values, and a
    number out of a command's domain exits 1 naming its flags, with no warning."""

    @pytest.mark.parametrize("z", ["-1e3", "-1E+03", "-1000", "-.1e4"])
    def test_ml_takes_exponent_form_negatives(self, capsys, z):
        code, out, err = run_cli(capsys, "ml", "--gamma", "0.5", "--z", z)
        assert (code, out, err) == (EXIT_OK, "0.000564189301453392\n", "")

    @pytest.mark.parametrize("z", ["-inf", "-Infinity"])
    def test_ml_negative_infinity(self, capsys, z):
        code, out, err = run_cli(capsys, "ml", "--gamma", "0.5", "--z", z)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "--z -inf" in err

    @pytest.mark.parametrize("kgamma, t", [("1e308", "1"), ("inf", "1"), ("1", "inf"), ("1", "nan")])
    def test_exact_decay_argument_past_the_floats(self, capsys, recwarn, kgamma, t):
        code, out, err = run_cli(capsys, "exact", "--gamma", "0.5", "--kgamma", kgamma, "--t", t, "--nx", "10")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "--kgamma" in err and "--t" in err
        assert "decay argument" in err and not recwarn.list


class TestOversizedRuns:
    """Runs past MAX_HISTORY_CELLS fail fast, in a child process under an address-space cap.

    The child times only the command, so interpreter start-up does not count.
    """

    CAP = 1536 << 20
    CHILD = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); from fracstep.cli import main; "
        "start = time.perf_counter(); code = main(sys.argv[2:]); "
        "print(time.perf_counter() - start); sys.exit(code)"
    )

    def run_capped(self, *argv):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.CAP, self.CAP))

        src = str(Path(fracstep.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        return subprocess.run(
            [sys.executable, "-c", self.CHILD, src, *argv],
            capture_output=True, text=True, timeout=60, preexec_fn=cap, env=env,
        )

    def check(self, child, limit="MAX_HISTORY_CELLS"):
        assert child.returncode == EXIT_USAGE, child.stderr
        assert f"exceeds {limit}" in child.stderr
        assert "Traceback" not in child.stderr
        assert float(child.stdout) < 1.0

    def test_solve(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(STABLE_CONFIG.replace("t_end = 0.005", "steps = 200000000"))
        self.check(self.run_capped("solve", "--config", str(config), "--out-dir", str(tmp_path)))

    def test_solve_makes_no_out_dir(self, tmp_path):
        # 200,001 levels x 101 nodes: refused when the config is read, before --out-dir is made
        config, out = tmp_path / "exp.cfg", tmp_path / "new"
        config.write_text(STABLE_CONFIG.replace("dx = 0.1", "dx = 0.01").replace("t_end = 0.005", "steps = 200000"))
        self.check(self.run_capped("solve", "--config", str(config), "--out-dir", str(out)))
        assert not out.exists()

    def test_figure_makes_no_out_dir(self, tmp_path):
        out = tmp_path / "new"
        self.check(self.run_capped("figure", "--id", "fig3", "--t-end", "20", "--out-dir", str(out)))
        assert not out.exists()

    def test_stability_probe(self):
        self.check(
            self.run_capped(
                "stability", "probe", "--family", "bdf1", "--gamma", "0.5", "--lambda", "1",
                "--s", "0.3", "--nodes", "8", "--steps", "3000000",
            )
        )


    def test_coeffs(self):
        child = self.run_capped("coeffs", "--family", "bdf3", "--alpha", "0.5", "--count", "300000000")
        self.check(child, "MAX_WEIGHTS")

    def test_exact(self):
        child = self.run_capped(
            "exact", "--gamma", "0.5", "--kgamma", "1", "--t", "0.1", "--nx", "300000000"
        )
        self.check(child, "MAX_PROFILE_POINTS")

    def test_stability_phase(self, tmp_path):
        out = tmp_path / "phase.csv"
        child = self.run_capped(
            "stability", "phase", "--family", "bdf1", "--gamma-grid", "0.1:1:30000",
            "--lambda-grid", "0:1:30000", "--out", str(out),
        )
        self.check(child, "MAX_PHASE_POINTS")
        assert not out.exists()

    def test_converge_checks_its_last_level_first(self, tmp_path):
        # level 0 is 26 steps; level 16 doubles them past the budget at 11 nodes
        config = tmp_path / "exp.cfg"
        config.write_text(
            "[experiment]\nname=c\ngamma=1.0\nlambda=0.5\nfamily=bdf1\n"
            "dx=0.1\ns=0.4\nsteps=25\n"
        )
        self.check(self.run_capped("converge", "--config", str(config), "--levels", "16"))


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE


class _ThreadStreams:
    """A stand-in for sys.stdout and sys.stderr that keeps each thread's text apart."""

    def __init__(self):
        self._local = threading.local()

    def write(self, text):
        if not hasattr(self._local, "parts"):
            self._local.parts = []
        self._local.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def take(self):
        text = "".join(getattr(self._local, "parts", []))
        self._local.parts = []
        return text


# cheap commands, two of them usage errors
PARSER_CALLS = [
    ("coeffs", "--family", "bdf2", "--alpha", "0.3", "--count", "5"),
    ("ml", "--gamma", "0.5", "--z", "-2.0"),
    ("stability", "bound", "--family", "ng2", "--gamma", "0.4", "--lambda", "0.9"),
    ("coeffs", "--family", "bdf7", "--alpha", "0.5", "--count", "2"),
    ("ml", "--gamma", "0.5"),
    ("exact", "--gamma", "0.5", "--kgamma", "1", "--t", "0.1", "--nx", "4"),
]


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_leaves_the_next_call_alone(self, capsys):
        good = ("stability", "bound", "--family", "bdf1", "--gamma", "0.5", "--lambda", "1.0")
        before = run_cli(capsys, *good)
        bad = ("stability", "bound", "--family", "bdf1", "--gamma", "x")
        assert run_cli(capsys, *bad)[0] == EXIT_USAGE
        assert run_cli(capsys, "stability", "probe", "--family", "bdf1")[0] == EXIT_USAGE
        assert run_cli(capsys, *good) == before

    def test_threads_see_the_serial_results(self, monkeypatch):
        out, err = _ThreadStreams(), _ThreadStreams()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)

        def calls(order):
            results = []
            for i in order:
                code = main(list(PARSER_CALLS[i]))
                results.append((i, code, out.take(), err.take()))
            return results

        expected = {i: rest for i, *rest in calls(range(len(PARSER_CALLS)))}
        assert [code for code, _, _ in expected.values()] == [0, 0, 0, 1, 1, 0]
        got = [None] * 4

        def worker(k):
            order = [(k + j) % len(PARSER_CALLS) for j in range(5 * len(PARSER_CALLS))]
            got[k] = calls(order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for results in got:
            assert len(results) == 5 * len(PARSER_CALLS)
            for i, *rest in results:
                assert rest == expected[i]
