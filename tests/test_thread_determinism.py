"""Figure CSVs do not depend on the BLAS thread count.

The stepper's products are numpy matmuls on strided views, and
``exact_profile`` sums its sine table without BLAS, so one or two
OpenBLAS threads must give the same bytes.  Each figure runs in a child
process, because OpenBLAS reads its thread count when numpy loads.
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


def figure_csvs(tmp_path, threads, fig_id, *extra):
    out = tmp_path / f"{fig_id}_{threads}"
    src = str(Path(fracstep.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, src, "figure", "--id", fig_id, "--out-dir", str(out), *extra],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert child.returncode == 0, child.stderr
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("fig_id, extra", [("fig3", ("--t-end", "0.05")), ("fig2", ())])
def test_one_and_two_blas_threads_give_identical_csvs(tmp_path, fig_id, extra):
    one = figure_csvs(tmp_path, 1, fig_id, *extra)
    two = figure_csvs(tmp_path, 2, fig_id, *extra)
    assert one and one == two
