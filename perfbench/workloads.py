"""The four workloads: their inputs, as CLI argument lists, and their checks.

A workload is a list of ops; one op is one ``fracstep`` command.  Inputs
that are drawn come from the workload seed; the CLI only ever sees the
generated arguments and config files.  Every check compares the
command's output with :mod:`oracle`, which shares no code with fracstep.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("fig3-long", "cn-solve", "stability-sweep", "oracle")

FIG3_T_END = 0.12  # the gamma = 1/2 case then passes 1e4 history levels (11,019)
FIG3_MIN_LEVELS = 10_000
FIG3_MAX_ERROR = 5e-2  # acceptance criterion 2
# paper presets (label, gamma, S, dx) of fig3; lambda = 1, BDF1
FIG3_CASES = (("triangles", 0.5, 0.33, 0.1), ("squares", 0.75, 0.4, 0.05), ("circles", 1.0, 0.5, 0.02))
# fig5 preset: gamma = 1/2, lambda = 0.8, S = 0.55, dx = 1/20, 500 steps
FIG5 = (0.5, 0.8, 0.55, 1.0 / 20.0, 500)

CN_STEPS = 1500
CN_DT = (1.0 * 0.01 * 0.01) ** 2.0  # gamma = 1/2, S = 1, dx = 0.01: dt = (S dx^2)^(1/gamma)
CN_OUTPUT_LEVELS = (250, 500, 1000, 1500)
CN_MAX_ERROR = 1e-3  # about 7x the CN error measured on the seed code (1.3e-4)

EXACT_TOL = 1e-8  # exact profiles: deviation from the reference sine series
ML_TOL = 1e-4  # ml queries: catches wrong answers; accuracy is max_abs_error
THRESHOLD_REL_TOL = 0.05  # fig2 bisection vs closed form (acceptance criterion 4)

HARD_DEADLINE_S = 1.5
HARD_MEMORY_BYTES = 1 << 30

# Crossover anchors, the same for every seed: just past the series/asymptotic
# switch at |z| = 10, where the default evaluator is least accurate as
# gamma -> 1 (error up to exp(-10) ~ 4.5e-5).  They pin max_abs_error.
ML_ANCHORS = ((0.999, -10.0001), (0.9, -10.5))


@dataclass
class Outcome:
    """What one op did.  ``kind`` is "ok" or "rejected" (a named ValueError,
    which ROADMAP item 1 accepts) when it passed; "wrong" (a check miss or an
    unexpected exit code), "overrun" (deadline) or "killed" (a signal, or a
    MemoryError under the address-space cap) when it failed."""

    ok: bool
    error: float | None = None  # deviation from the oracle, when one applies
    detail: str = ""
    kind: str = ""

    def __post_init__(self):
        if not self.kind:
            self.kind = "ok" if self.ok else "wrong"


@dataclass
class Op:
    """One CLI command with its expected exit code and output check."""

    label: str  # stratum, e.g. "probe" or "ml:m-40-300"
    argv: list
    expect_exit: int
    check: Callable[[str, Path], Outcome]
    child: bool = False  # run in its own process under a deadline and memory cap
    uses_solver: bool = False
    prepare: Callable[[], object] | None = None  # computes the reference ahead of timing
    out_dir: Path | None = None


def _cells(rng: np.random.Generator, shape: tuple, width: float = 0.2) -> np.ndarray:
    """One point in the middle ``width`` of every cell of a grid on [0, 1)^d.

    Returns an array (cells, d).  The seed moves every input, but each
    seed draws the same mix of cells, so the workload's cost does not hinge
    on where a few draws land.  Where cost is steep in the inputs (the
    Mittag-Leffler series), the points stay near the cell middles.
    """
    index = np.indices(shape).reshape(len(shape), -1).T
    offset = 0.5 - width / 2.0 + width * rng.random(index.shape)
    return (index + offset) / np.array(shape)


def _num(value: float) -> str:
    return repr(float(value))


def _read_csv(path: Path) -> tuple[list, str]:
    """(data rows as string fields, header comment) of a fracstep CSV file."""
    lines = path.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[2:] if ln and not ln.startswith("#")]
    return rows, lines[0]


def _floats(rows, col: int) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


@functools.lru_cache(maxsize=None)
def _profile_ref(gamma: float, t: float, xs: tuple) -> np.ndarray:
    return oracle.parabola_profile(gamma, t, np.array(xs))


@functools.lru_cache(maxsize=None)
def _ml_ref(gamma: float, z: float) -> float:
    return oracle.ml_reference(gamma, z)


def _profile_check(xs, u_numeric, u_exact, gamma, t, max_error) -> Outcome:
    ref = _profile_ref(gamma, t, tuple(xs))
    exact_dev = float(np.max(np.abs(u_exact - ref)))
    err = float(np.max(np.abs(u_numeric - ref)))
    if exact_dev > EXACT_TOL:
        return Outcome(False, err, f"u_exact off the reference by {exact_dev:.2e}")
    if err > max_error:
        return Outcome(False, err, f"max error {err:.2e} > {max_error:g}")
    return Outcome(True, err)


# ---------------------------------------------------------------------------
# fig3-long


def _check_fig3(stdout: str, out_dir: Path) -> Outcome:
    rows, _ = _read_csv(out_dir / "fig3.csv")
    worst = 0.0
    for label, gamma, s, dx in FIG3_CASES:
        case = [r for r in rows if r[0] == label]
        dt = (s * dx * dx) ** (1.0 / gamma)
        levels = max(1, round(FIG3_T_END / dt))
        t = levels * dt
        if gamma == 0.5 and levels < FIG3_MIN_LEVELS:
            return Outcome(False, None, f"only {levels} history levels")
        t_out = float(case[0][4])
        if abs(t_out - t) > 1e-12 * t:
            return Outcome(False, None, f"{label}: t={t_out!r}, expected {t!r}")
        got = _profile_check(
            _floats(case, 5), _floats(case, 6), _floats(case, 7), gamma, t, FIG3_MAX_ERROR
        )
        if not got.ok:
            return Outcome(False, got.error, f"{label}: {got.detail}")
        worst = max(worst, got.error)
    return Outcome(True, worst)


def _grid(dx: float) -> tuple:
    return tuple(np.arange(round(1.0 / dx) + 1) * dx)


def _fig3_refs():
    for _, gamma, s, dx in FIG3_CASES:
        dt = (s * dx * dx) ** (1.0 / gamma)
        _profile_ref(gamma, max(1, round(FIG3_T_END / dt)) * dt, _grid(dx))


def _fig3_long(rng, work: Path) -> list[Op]:
    argv = ["figure", "--id", "fig3", "--t-end", _num(FIG3_T_END)]
    return [Op("fig3", argv, 0, _check_fig3, uses_solver=True, prepare=_fig3_refs)]


# ---------------------------------------------------------------------------
# cn-solve

_SUMMARY = re.compile(r"^t=(\S+) max_error=(\S+) l2_error=(\S+)$", re.M)


def _check_cn(stdout: str, out_dir: Path) -> Outcome:
    summaries = [tuple(map(float, m)) for m in _SUMMARY.findall(stdout)]
    if len(summaries) != len(CN_OUTPUT_LEVELS):
        return Outcome(False, None, f"{len(summaries)} error summaries")
    worst = 0.0
    for level, (t_out, max_err, _) in zip(CN_OUTPUT_LEVELS, summaries):
        t = level * CN_DT
        if abs(t_out - t) > 1e-12 * t:
            return Outcome(False, None, f"summary t={t_out!r} for level {level}")
        rows, _ = _read_csv(out_dir / f"cn_t{level}.csv")
        xs, u, exact = _floats(rows, 0), _floats(rows, 1), _floats(rows, 2)
        if abs(max_err - float(np.max(np.abs(u - exact)))) > 1e-15:
            return Outcome(False, None, f"summary max_error {max_err!r} disagrees with its CSV")
        got = _profile_check(xs, u, exact, 0.5, t, CN_MAX_ERROR)
        if not got.ok:
            return Outcome(False, got.error, f"t={t!r}: {got.detail}")
        worst = max(worst, got.error)
    history = (out_dir / "cn_history.csv").read_text().splitlines()
    data = [ln for ln in history if ln and not ln.startswith("#")][1:]
    last = np.array([float(v) for v in data[-1].split(",")[1:]])
    if len(data) != CN_STEPS + 1 or not np.array_equal(last, u):
        return Outcome(False, worst, "history CSV does not end at the final profile")
    return Outcome(True, worst)


def _cn_solve(rng, work: Path) -> list[Op]:
    config = work / "cn.cfg"
    times = ", ".join(_num(level * CN_DT) for level in CN_OUTPUT_LEVELS)
    config.write_text(
        "[experiment]\nname = cn\ngamma = 0.5\nkgamma = 1.0\nlambda = 0.5\n"
        f"family = bdf3\ndx = 0.01\ns = 1.0\nsteps = {CN_STEPS}\nic = poly:x*(1-x)\n"
        f"output_times = {times}\noutputs = profile_csv, error_vs_exact, history_csv\n"
    )
    def refs():
        for level in CN_OUTPUT_LEVELS:
            _profile_ref(0.5, level * CN_DT, _grid(0.01))

    return [Op("solve", ["solve", "--config", str(config)], 0, _check_cn, uses_solver=True, prepare=refs)]


# ---------------------------------------------------------------------------
# stability-sweep

FAMILIES = ("bdf1", "bdf2", "bdf3", "ng2")
PROBES_PER_FAMILY = 10


def _check_fig2(stdout: str, out_dir: Path) -> Outcome:
    rows, _ = _read_csv(out_dir / "fig2_bounds.csv")
    for family, gamma, inv in rows:
        if abs(float(inv) - oracle.inv_s_cross(family, float(gamma), 1.0)) > 1e-12:
            return Outcome(False, None, f"{family} bound at gamma={gamma} is {inv}")
    rows, _ = _read_csv(out_dir / "fig2_circles.csv")
    for gamma, s_emp, _ in rows:
        s_cross = 1.0 / oracle.inv_s_cross("bdf1", float(gamma), 1.0)
        if abs(float(s_emp) - s_cross) > THRESHOLD_REL_TOL * s_cross:
            return Outcome(False, None, f"threshold {s_emp} at gamma={gamma}, S_x={s_cross!r}")
    return Outcome(True)


def _check_unstable_figure(fig_id: str):
    def check(stdout: str, out_dir: Path) -> Outcome:
        _, header = _read_csv(out_dir / f"{fig_id}.csv")
        ok = "probe_verdict=unstable" in header
        return Outcome(ok, None, "" if ok else f"{fig_id} header lacks the unstable verdict")

    return check


def _fig5_t() -> float:
    gamma, _, s, dx, steps = FIG5
    return steps * (s * dx * dx) ** (1.0 / gamma)


def _check_fig5(stdout: str, out_dir: Path) -> Outcome:
    rows, _ = _read_csv(out_dir / "fig5.csv")
    return _profile_check(
        _floats(rows, 0), _floats(rows, 1), _floats(rows, 2), FIG5[0], _fig5_t(), FIG3_MAX_ERROR
    )


def _figure_exit(gamma, lam, s) -> int:
    return 2 if oracle.closed_form_verdict("bdf1", gamma, lam, s) == "unstable" else 0


def _check_probe(family: str, gamma: float, lam: float, s: float):
    verdict = oracle.closed_form_verdict(family, gamma, lam, s)

    def check(stdout: str, out_dir: Path) -> Outcome:
        fields = dict(line.split("=", 1) for line in stdout.split())
        if fields["empirical_verdict"] != verdict:
            return Outcome(False, None, f"empirical {fields['empirical_verdict']} vs closed form {verdict}")
        return Outcome(True)

    return check


def _stability_sweep(rng, work: Path) -> list[Op]:
    ops = [Op("figure", ["figure", "--id", "fig2"], 0, _check_fig2, uses_solver=True)]
    for fig_id, lam, s in (("fig4", 1.0, 0.37), ("fig5", 0.8, 0.55), ("fig6", 0.8, 0.7), ("fig7", 0.8, 0.7)):
        check, prepare = _check_unstable_figure(fig_id), None
        if fig_id == "fig5":
            check, prepare = _check_fig5, lambda: _profile_ref(FIG5[0], _fig5_t(), _grid(FIG5[3]))
        exit_code = _figure_exit(0.5, lam, s)
        ops.append(Op("figure", ["figure", "--id", fig_id], exit_code, check, uses_solver=True, prepare=prepare))
    # probes: per family one per cell of 5 gamma bands in [0.1, 1] x 2 lambda
    # bands, [0, 1/2] where the bound does not bind and S is log-uniform in
    # [0.1, 10], and [0.55, 1] where S straddles the bound by a factor
    # 1 +- delta, alternating sides.  Closer to lambda = 1/2 the unstable mode
    # grows too slowly for a 400-step probe to see (growth 2.3 at lambda =
    # 0.503, S = 1.37 S_x), a limit of the finite probe, not of the bound.
    for family in FAMILIES:
        for i, (g, v) in enumerate(_cells(rng, (PROBES_PER_FAMILY // 2, 2), width=1.0)):
            gamma = 0.1 + 0.9 * g
            lam = v if v < 0.5 else 0.55 + 0.9 * (v - 0.5)
            inv = oracle.inv_s_cross(family, gamma, lam)
            if inv > 0.0:
                delta = rng.uniform(0.1, 0.5)
                s = (1.0 + delta if (i // 2) % 2 else 1.0 - delta) / inv
            else:
                s = 10.0 ** rng.uniform(-1.0, 1.0)
            expect = 2 if oracle.closed_form_verdict(family, gamma, lam, s) == "unstable" else 0
            argv = ["stability", "probe", "--family", family, "--gamma", _num(gamma),
                    "--lambda", _num(lam), "--s", _num(s)]
            ops.append(Op("probe", argv, expect, _check_probe(family, gamma, lam, s), uses_solver=True))
    return ops


# ---------------------------------------------------------------------------
# oracle

# ml strata by m = |z|^(1/gamma): (label, grid of (log m, gamma) cells, m range,
# series side only).  "Series side" keeps |z| <= 10, the multiprecision branch
# whose cost grows with m; the cheap asymptotic side is in the first stratum.
ML_STRATA = (
    ("m-le-40", (8, 4), (0.5, 40.0), False),
    ("m-40-300", (4, 2), (40.0, 300.0), True),
    ("m-gt-300", (1, 1), (300.0, 350.0), True),
)
HARD_CELLS = (2, 1)  # m in [2e3, 1e4], |z| in [3, 10]: the series branch explodes
EXACT_CELLS = (4, 2)  # gamma in [0.2, 1] x log10 t in [-5, 0]
EXACT_NX = 20


def _check_ml(gamma: float, z: float):
    def check(stdout: str, out_dir: Path) -> Outcome:
        err = abs(float(stdout) - _ml_ref(gamma, z))
        ok = err <= ML_TOL
        return Outcome(ok, err, "" if ok else f"E_{gamma!r}({z!r}) off by {err:.2e}")

    return check


def _check_exact(gamma: float, t: float):
    def check(stdout: str, out_dir: Path) -> Outcome:
        lines = stdout.split()
        if lines[0] != "x,u_exact":
            return Outcome(False, None, f"unexpected header {lines[0]!r}")
        pairs = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        ref = _profile_ref(gamma, t, tuple(pairs[:, 0]))
        err = float(np.max(np.abs(pairs[:, 1] - ref)))
        ok = err <= EXACT_TOL
        return Outcome(ok, err, "" if ok else f"profile off by {err:.2e}")

    return check


def _ml_op(label: str, gamma: float, z: float, child: bool = False) -> Op:
    argv = ["ml", "--gamma", _num(gamma), "--z", _num(z)]
    return Op(label, argv, 0, _check_ml(gamma, z), child=child, prepare=lambda: _ml_ref(gamma, z))


def _oracle(rng, work: Path) -> list[Op]:
    ops = []
    for label, shape, (m_lo, m_hi), series_side in ML_STRATA:
        for u, v in _cells(rng, shape):
            m = m_lo * (m_hi / m_lo) ** u
            g_hi = min(1.0, math.log(10.0) / math.log(m)) if series_side else 1.0
            gamma = 0.1 + (g_hi - 0.1) * v
            ops.append(_ml_op(f"ml:{label}", gamma, -(m**gamma)))
    ops += [_ml_op("ml:crossover", gamma, z) for gamma, z in ML_ANCHORS]
    for u, v in _cells(rng, HARD_CELLS):
        m, x = 2e3 * 5.0**u, 3.0 + 7.0 * v
        ops.append(_ml_op("ml:hard", math.log(x) / math.log(m), -x, child=True))
    # exact profiles: gamma is given to two decimals and t to three digits,
    # as a user would type them
    xs = tuple(np.arange(EXACT_NX + 1) / EXACT_NX)
    for u, v in _cells(rng, EXACT_CELLS):
        gamma = round(0.2 + 0.8 * u, 2)
        t = float(f"{10.0 ** (-5.0 + 5.0 * v):.3g}")
        argv = ["exact", "--gamma", _num(gamma), "--kgamma", "1", "--t", _num(t), "--nx", str(EXACT_NX)]
        ops.append(Op("exact", argv, 0, _check_exact(gamma, t),
                      prepare=lambda gamma=gamma, t=t: _profile_ref(gamma, t, xs)))
    return ops


_BUILDERS = {
    "fig3-long": _fig3_long,
    "cn-solve": _cn_solve,
    "stability-sweep": _stability_sweep,
    "oracle": _oracle,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Generate the ops of one workload.  fig3-long and cn-solve ignore the seed."""
    work.mkdir(parents=True, exist_ok=True)
    ops = _BUILDERS[workload](np.random.default_rng(seed), work)
    for i, op in enumerate(ops):
        op.out_dir = work / f"op{i:03d}"
        op.out_dir.mkdir(parents=True, exist_ok=True)
        if op.argv[0] in ("figure", "solve"):
            op.argv = op.argv + ["--out-dir", str(op.out_dir)]
    return ops
