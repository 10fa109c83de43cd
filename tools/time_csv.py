"""Time fracstep's CSV writer and its float formatting kernel in-process.

Usage::

    PYTHONPATH=src python tools/time_csv.py [--rounds N]

It runs the cn-solve benchmark's solve once (gamma 1/2, BDF3, lambda 1/2,
101 nodes, 1,500 steps) and then, in N interleaved rounds (default 25),
times three things:

* ``harness._write_csv`` of that run's 1,501 x 102 history (a 3.0 MB file);
* the median of 300 ``shortest.repr_cells`` calls on 63 cells of it;
* one ``repr_cells`` call on a full chunk (``harness._CHUNK_CELLS`` cells).

It prints one JSON line: the best time of each over the rounds, in ms, and
the minor page faults (``getrusage``) of the first history write and the
median and the most of the later ones.  The solve comes first, as in
``fracstep solve``; a process that has freed no large buffer yet trims
its heap more eagerly and faults more.  It needs only the standard
library and numpy.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from fracstep import harness
from fracstep.coeffs import FormulaFamily
from fracstep.shortest import repr_cells
from fracstep.solver import run

SMALL_CELLS, SMALL_CALLS = 63, 300


def cn_history():
    """The cn-solve run's history."""
    spec = harness.ExperimentSpec(
        name="cn", gamma=0.5, lam=0.5, family=FormulaFamily.BDF3, dx=0.01,
        dt=(0.01 * 0.01) ** 2.0, steps=1500,
    )
    return run(spec.problem(), spec.scheme())


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args(argv)

    history = cn_history()
    columns = ("level",) + tuple(f"u{j}" for j in range(history.n_nodes))
    values = history.values  # each read forms every row
    table = (np.arange(history.top_level + 1), values)
    cells = values.ravel()
    small = cells[1000 : 1000 + SMALL_CELLS].copy()
    chunk = cells[: harness._CHUNK_CELLS].copy()

    write_ms, small_ms, chunk_ms, faults = [], [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cn_history.csv"
        for _ in range(args.rounds):
            f0 = minor_faults()
            t0 = time.perf_counter()
            harness._write_csv(path, "cn full history", columns, table)
            write_ms.append(1e3 * (time.perf_counter() - t0))
            faults.append(minor_faults() - f0)

            calls = []
            for _ in range(SMALL_CALLS):
                t0 = time.perf_counter()
                repr_cells(small)
                calls.append(1e3 * (time.perf_counter() - t0))
            small_ms.append(statistics.median(calls))

            t0 = time.perf_counter()
            repr_cells(chunk)
            chunk_ms.append(1e3 * (time.perf_counter() - t0))
        csv_bytes = path.stat().st_size

    print(json.dumps({
        "history_write_ms": round(min(write_ms), 2),
        "small_call_ms": round(min(small_ms), 4),
        "chunk_call_ms": round(min(chunk_ms), 3),
        "chunk_cells": harness._CHUNK_CELLS,
        "minor_faults_first_write": faults[0],
        "minor_faults_later_write_median": statistics.median(faults[1:] or [0]),
        "minor_faults_later_write_max": max(faults[1:], default=0),
        "csv_bytes": csv_bytes,
        "rounds": args.rounds,
    }))


if __name__ == "__main__":
    main()
