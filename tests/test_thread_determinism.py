"""Figure and solve CSVs and probe reports do not depend on the BLAS thread count.

The stepper's products are numpy matmuls, which may go through BLAS, and
``exact_profile`` sums its sine table without BLAS, so one or two
OpenBLAS threads must give the same bytes and the same exit code.  Each
command runs in a child process, because OpenBLAS reads its thread count
when numpy loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracstep

CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); from fracstep.cli import main; "
    "sys.exit(main(sys.argv[2:]))"
)

# the figures whose runs go unstable, and exit with code 2
UNSTABLE_FIGURES = ("fig4", "fig6", "fig7")

# the cn-solve benchmark's run, with its 1,501-level history
SOLVE_CONFIG = """[experiment]
name = cn
gamma = 0.5
lambda = 0.5
family = bdf3
dx = 0.01
s = 1.0
steps = 1500
output_times = 1.5e-05
outputs = profile_csv, error_vs_exact, history_csv
"""


def cli(threads, *argv):
    """The exit code and stdout of one CLI command at this OpenBLAS thread count."""
    src = str(Path(fracstep.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, src, *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode in (0, 2), child.stderr
    return child.returncode, child.stdout


def figure_csvs(tmp_path, threads, fig_id, *extra):
    out = tmp_path / f"{fig_id}_{threads}"
    code, _ = cli(threads, "figure", "--id", fig_id, "--out-dir", str(out), *extra)
    return code, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize(
    "fig_id, extra",
    [("fig3", ("--t-end", "0.05")), ("fig2", ())] + [(f"fig{k}", ()) for k in range(4, 8)],
)
def test_one_and_two_blas_threads_give_identical_csvs(tmp_path, fig_id, extra):
    one = figure_csvs(tmp_path, 1, fig_id, *extra)
    two = figure_csvs(tmp_path, 2, fig_id, *extra)
    assert one[0] == (2 if fig_id in UNSTABLE_FIGURES else 0)
    assert one[1] and one == two


@pytest.mark.parametrize(
    "family, gamma, lam, s",
    # unstable, overflowing at level 83, and stable
    [("bdf3", "0.7", "0.8", "0.9"), ("bdf1", "0.9", "1.0", "20.0"), ("ng2", "0.3", "0.5", "5.0")],
)
def test_one_and_two_blas_threads_give_identical_probes(family, gamma, lam, s):
    argv = ("stability", "probe", "--family", family, "--gamma", gamma, "--lambda", lam, "--s", s)
    one, two = cli(1, *argv), cli(2, *argv)
    assert "growth_factor=" in one[1]
    assert one == two


def test_one_and_two_blas_threads_give_identical_solve_csvs(tmp_path):
    config = tmp_path / "cn.cfg"
    config.write_text(SOLVE_CONFIG)
    csvs = []
    for threads in (1, 2):
        out = tmp_path / f"solve_{threads}"
        code, _ = cli(threads, "solve", "--config", str(config), "--out-dir", str(out))
        assert code == 0
        csvs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert sorted(csvs[0]) == ["cn_history.csv", "cn_t1500.csv"]
    assert csvs[0] == csvs[1]
