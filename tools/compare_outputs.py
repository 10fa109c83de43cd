"""Write fracstep's standard CSV output set with two source trees and compare it.

Usage::

    python tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout holding ``src/fracstep``.  The set is written once
per tree, each in its own subprocess (``PYTHONPATH=<tree>/src``,
``OPENBLAS_NUM_THREADS=1``), from the same config files:

* ``figure`` fig1-fig7, with fig3 also at ``--t-end 0.05`` and ``0.12``, and
  fig4 also at ``--t-end 0.05``, which fig4-fig7 ignore;
* ``solve`` of the cn-solve benchmark config (BDF3, lambda 1/2, 101 nodes,
  1,500 steps): four profiles, the history and the stability report;
* ``solve`` of an unstable explicit run (S = 0.7, 200 steps) with its history;
* ``solve`` of a config that gives every key in its non-default form: dt in
  place of s, t_end in place of steps, kgamma 2, three explicit startup
  steps, ``ic = sine:2`` and all four outputs (NG2, lambda 3/4, S = 0.19,
  stable), so that its headers carry every label;
* ``stability phase`` on a 64 x 64 grid for each family;
* ``stability probe`` for each family at gamma 1/2 and lambda 0, 1/2, 0.8
  and 1, with S on both sides of the bound (0.5 and 5 where it does not
  bind), and one probe that overflows early.  Their standard output is
  written as one row per probe of ``stability_probes.csv``;
* ``exact`` at gamma 0.5 and 0.9, t 1e-4 and 0.3, on 101 nodes, and a
  ``converge`` (refine_dt, 2 levels) of a small BDF2 run.  The standard
  output of each is written as a CSV file, ``exact_g<gamma>_t<t>.csv`` and
  ``converge.csv``, with the estimated orders as ``#`` lines.

For each file it prints ``identical``, or the largest absolute difference
between the float cells of the two versions and the largest difference
relative to its row's largest |value| (and whether other cells differ).
The absolute figure says little of an unstable run, whose values grow past
1e50; the relative one shows rounding there too.  A row's scale leaves out
cells written as integers, such as level numbers and step counts.  In the
``#`` header and trailer lines, the value of each ``key=<float>`` token
(``probe_growth``, ``max_error``, ``l2_error``, ``S``, ...) and each number
standing alone is a float cell too, relative to its own |value|; the other
words are text.  It
exits 1 if any file or exit code differs.  It needs only the standard
library and numpy.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CN_DT = (0.01 * 0.01) ** 2.0  # gamma = 1/2, S = 1, dx = 0.01
CN_CONFIG = (
    "[experiment]\nname = cn\ngamma = 0.5\nkgamma = 1.0\nlambda = 0.5\nfamily = bdf3\n"
    "dx = 0.01\ns = 1.0\nsteps = 1500\nic = poly:x*(1-x)\noutput_times = "
    + ", ".join(repr(level * CN_DT) for level in (250, 500, 1000, 1500))
    + "\noutputs = profile_csv, error_vs_exact, history_csv, stability_report\n"
)
CONVERGE_CONFIG = (
    "[experiment]\nname = conv\ngamma = 0.5\nlambda = 0.5\nfamily = bdf2\ndx = 0.05\ns = 1.0\n"
    "steps = 100\n"
)
UNSTABLE_CONFIG = (
    "[experiment]\nname = blowup\ngamma = 0.5\nlambda = 1.0\nfamily = bdf1\ndx = 0.05\n"
    "s = 0.7\nsteps = 200\noutputs = profile_csv, history_csv\n"
)
# every key away from its default; S = kgamma dt^gamma / dx^2 = 0.19, below the explicit bound 0.34
FULL_CONFIG = (
    "[experiment]\nname = full\ngamma = 0.75\nkgamma = 2.0\nlambda = 0.75\nfamily = ng2\ndx = 0.05\n"
    "dt = 1.5e-05\nt_end = 0.0015\nstartup_explicit_steps = 3\nic = sine:2\noutput_times = 0.00075, 0.0015\n"
    "outputs = profile_csv, error_vs_exact, history_csv, stability_report\n"
)
FAMILIES = ("bdf1", "bdf2", "bdf3", "ng2")
# the polynomial under the power at z = -1 of each family's generating function
BASES = {"bdf1": 2.0, "bdf2": 4.0, "bdf3": 11.0 / 6.0 + 3.0 + 1.5 + 1.0 / 3.0, "ng2": 2.0}
PROBE_FIELDS = ("s", "s_cross", "theoretical_verdict", "growth_factor", "empirical_verdict", "probe_steps")

# runs the commands in one interpreter and prints their exit codes and standard
# output as its last line
CHILD = """
import contextlib, io, json, sys
from fracstep.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = main(argv)
    results.append([code, text.getvalue()])
print(json.dumps(results))
"""


def s_cross(family: str, gamma: float, lam: float) -> float:
    """The bound S_x = 1 / (2 (2 lam - 1) w(-1, 1 - gamma)), for lam > 1/2."""
    alpha = 1.0 - gamma
    w = BASES[family] ** alpha * (1.0 + alpha if family == "ng2" else 1.0)
    return 1.0 / (2.0 * (2.0 * lam - 1.0) * w)


def probes() -> list[list[str]]:
    """The ``stability probe`` argument lists of the set."""
    cases = []
    for family in FAMILIES:
        for lam in (0.0, 0.5, 0.8, 1.0):
            ratios = (0.5, 5.0) if lam <= 0.5 else [f * s_cross(family, 0.5, lam) for f in (0.9, 1.3)]
            cases += [(family, 0.5, lam, s) for s in ratios]
    cases.append(("bdf1", 0.9, 1.0, 50.0 * s_cross("bdf1", 0.9, 1.0)))  # overflows early
    return [
        ["stability", "probe", "--family", family, "--gamma", repr(gamma), "--lambda", repr(lam),
         "--s", repr(s)]
        for family, gamma, lam, s in cases
    ]


def commands(configs: Path, out: Path) -> list[list[str]]:
    """The CLI argument lists that write the output set under ``out``."""
    argvs = [
        ["figure", "--id", fig, "--out-dir", str(out / fig)]
        for fig in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
    ]
    argvs += [
        ["figure", "--id", fig, "--t-end", t, "--out-dir", str(out / f"{fig}_t{t}")]
        for fig, t in (("fig3", "0.05"), ("fig3", "0.12"), ("fig4", "0.05"))
    ]
    argvs += [
        ["solve", "--config", str(configs / f"{name}.cfg"), "--out-dir", str(out / name)]
        for name in ("cn", "blowup", "full")
    ]
    argvs += [
        ["stability", "phase", "--family", family, "--gamma-grid", "0.05:1:64",
         "--lambda-grid", "0:1:64", "--out", str(out / f"phase_{family}.csv")]
        for family in FAMILIES
    ]
    argvs += [
        ["exact", "--gamma", gamma, "--kgamma", "1", "--t", t, "--nx", "100"]
        for gamma in ("0.5", "0.9") for t in ("1e-4", "0.3")
    ]
    argvs.append(["converge", "--config", str(configs / "conv.cfg"), "--mode", "refine_dt", "--levels", "2"])
    return argvs + probes()


def stdout_csv(argv: list[str]) -> str | None:
    """The CSV file that holds a command's standard output, or None if it writes its own files."""
    if argv[0] == "exact":
        return f"exact_g{argv[2]}_t{argv[6]}.csv"
    return "converge.csv" if argv[0] == "converge" else None


def write_set(tree: Path, configs: Path, out: Path) -> list[int]:
    """Write the set with ``tree``'s fracstep; the exit code of each command.

    The probes' standard output goes to ``out/stability_probes.csv``, and
    that of the other commands without files of their own to ``stdout_csv``.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    argvs = commands(configs, out)
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)], capture_output=True, text=True, env=env,
        check=False,
    )
    if child.returncode != 0:
        sys.exit(f"{tree}: the output set could not be written:\n{child.stderr}")
    results = json.loads(child.stdout.splitlines()[-1])
    rows = [",".join(("family", "gamma", "lambda", "exit") + PROBE_FIELDS)]
    for argv, (code, stdout) in zip(argvs, results):
        if argv[:2] == ["stability", "probe"]:
            fields = dict(line.split("=", 1) for line in stdout.splitlines())
            rows.append(",".join([argv[3], argv[5], argv[7], str(code)] + [fields[k] for k in PROBE_FIELDS]))
        elif name := stdout_csv(argv):  # key=value lines become "#" lines, whose values compare as floats
            lines = stdout.splitlines(keepends=True)
            (out / name).write_text("".join("# " + line if "=" in line else line for line in lines))
    (out / "stability_probes.csv").write_text("\n".join(rows) + "\n")
    return [code for code, _ in results]


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _scale(cells: list[str]) -> float:
    """The largest |value| of a row's float cells, leaving out those written as integers."""
    values = [abs(x) for cell in cells if not cell.lstrip("-").isdigit() and (x := _float(cell)) is not None]
    return max((x for x in values if not math.isnan(x)), default=0.0)


def compare(old: Path, new: Path) -> str:
    """``identical``, or the largest absolute and row-relative differences between float cells."""
    if old.read_bytes() == new.read_bytes():
        return "identical"
    old_lines, new_lines = old.read_text().splitlines(), new.read_text().splitlines()
    worst, relative, other = 0.0, 0.0, len(old_lines) != len(new_lines)
    for old_line, new_line in zip(old_lines, new_lines):
        if old_line.startswith("#"):
            # words and key=<float> values; a value is its own scale
            old_cells, new_cells = re.split(r"[\s=]+", old_line), re.split(r"[\s=]+", new_line)
            scale = 0.0
        else:
            old_cells, new_cells = old_line.split(","), new_line.split(",")
            scale = max(_scale(old_cells), _scale(new_cells))
        other |= len(old_cells) != len(new_cells)
        for a, b in zip(old_cells, new_cells):
            x, y = _float(a), _float(b)
            if x is None or y is None:
                other |= a != b
            elif not (x == y or (math.isnan(x) and math.isnan(y))):
                diff = abs(x - y) if math.isfinite(x - y) else math.inf
                worst = max(worst, diff)
                top = max(scale, abs(x), abs(y))  # an integer cell is its own scale
                relative = max(relative, diff / top if math.isfinite(diff) else math.inf)
    return (
        f"differs: max abs float diff {worst!r}, relative to its row's max|value| {relative!r}"
        + (", other cells differ" if other else "")
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_tree, new_tree = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cn.cfg").write_text(CN_CONFIG)
        (tmp / "blowup.cfg").write_text(UNSTABLE_CONFIG)
        (tmp / "conv.cfg").write_text(CONVERGE_CONFIG)
        (tmp / "full.cfg").write_text(FULL_CONFIG)
        old_codes = write_set(old_tree, tmp, tmp / "old")
        new_codes = write_set(new_tree, tmp, tmp / "new")
        failed = False
        for argv_, a, b in zip(commands(tmp, tmp / "out"), old_codes, new_codes):
            if a != b:
                print(f"exit codes differ ({a} -> {b}): fracstep {' '.join(argv_[:3])}")
                failed = True
        old_files = {p.relative_to(tmp / "old") for p in (tmp / "old").rglob("*.csv")}
        new_files = {p.relative_to(tmp / "new") for p in (tmp / "new").rglob("*.csv")}
        for name in sorted(old_files | new_files):
            if name not in old_files or name not in new_files:
                verdict = f"only in {'new' if name in new_files else 'old'}"
            else:
                verdict = compare(tmp / "old" / name, tmp / "new" / name)
            print(f"{name}: {verdict}")
            failed |= verdict != "identical"
    print(f"{len(old_files | new_files)} files, {'some differ' if failed else 'all identical'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
