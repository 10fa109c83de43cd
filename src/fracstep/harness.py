"""Config-driven experiment runner and bundled figure datasets.

Experiments are described by flat ``key = value`` text files with a single
``[experiment]`` section (see :func:`parse_experiment`); the runner writes
CSV profiles, optional error columns against the analytical benchmark,
and full history dumps.  ``reproduce_figure`` regenerates the package's
bundled demonstration datasets (stability phase line, explicit-method
bound curves with empirical circles, stable and unstable profile runs) as
CSV files; each profile dataset also carries the checkerboard-probe
stability verdict at its parameters.

All file output is atomic (temp file + rename), written in chunks of
rows, and every float is written as its shortest round-trip decimal,
exactly as ``repr`` gives it, so identical specs produce byte-identical
files.  Every table is a sequence of columns.  A float64 array column is
formatted a chunk at a time by ``shortest.repr_cells``, a numpy version
of Giulietti's Schubfach ("The Schubfach way to render doubles", 2020);
only non-finite and subnormal cells fall back to ``float.__repr__``, one
at a time.  Any other column is a sequence of cells written by ``str``
(labels, levels, and scalar floats, for which ``str`` is ``repr``).
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from fracstep.coeffs import FormulaFamily
from fracstep.exact_solution import SineSeriesIC, check_profile_size, exact_profile, parabola_ic
from fracstep.shortest import repr_cells
from fracstep.solver import (
    OverflowDetected,
    ProblemSpec,
    SchemeConfig,
    SolutionHistory,
    check_history_size,
    dt_for_mesh_ratio,
    mesh_ratio,
    run,
)
from fracstep.stability import (
    find_empirical_thresholds,
    inv_stability_bound,
    phase_diagram,
    probe_stability,
    stability_bound,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "ConvergenceReport",
    "parse_experiment",
    "parse_experiment_file",
    "format_experiment",
    "run_experiment",
    "convergence_study",
    "startup_comparison",
    "reproduce_figure",
    "FIGURE_IDS",
]

EXACT_TOL = 1e-10
OUTPUT_FLAGS = ("profile_csv", "history_csv", "error_vs_exact", "stability_report")


@dataclass(frozen=True)
class ExperimentSpec:
    """One solver experiment: a PDE instance plus a scheme and outputs."""

    name: str
    gamma: float
    k_gamma: float
    lam: float
    family: FormulaFamily
    dx: float
    dt: float
    steps: int
    startup_explicit_steps: int = 0
    ic: str = "poly:x*(1-x)"
    output_times: tuple[float, ...] = ()
    outputs: tuple[str, ...] = ("profile_csv",)

    def __post_init__(self):
        for flag in self.outputs:
            if flag not in OUTPUT_FLAGS:
                raise ValueError(f"unknown output flag {flag!r}")
        t_end = self.steps * self.dt
        for t in self.output_times:
            if not 0.0 <= t <= t_end + 0.5 * self.dt:
                raise ValueError(f"output time {t} outside [0, t_end={t_end}]")
        _parse_ic(self.ic)  # validate early

    @property
    def t_end(self) -> float:
        return self.steps * self.dt

    def problem(self) -> ProblemSpec:
        return ProblemSpec(
            gamma=self.gamma, k_gamma=self.k_gamma, initial_condition=_parse_ic(self.ic)[0]
        )

    def scheme(self) -> SchemeConfig:
        return SchemeConfig(
            lam=self.lam,
            dx=self.dx,
            dt=self.dt,
            family=self.family,
            steps=self.steps,
            startup_explicit_steps=self.startup_explicit_steps,
        )

    def sine_series(self) -> SineSeriesIC:
        return _parse_ic(self.ic)[1]

    def exact_at_end(self, xs) -> np.ndarray:
        """The analytical solution at the nodes ``xs`` at t_end."""
        series, t = self.sine_series(), self.t_end
        return exact_profile(series, self.gamma, self.k_gamma, xs, t, tol=EXACT_TOL)


def end_time(t: float) -> float:
    """``t`` as a run's end time; a ValueError unless it is finite and > 0."""
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t_end must be finite and > 0, got {t}")
    return t


def _parse_ic(ic: str):
    """The initial condition named by ``ic``: a callable u(x, 0) and its sine series."""
    if ic == "poly:x*(1-x)":
        return (lambda x: x * (1.0 - x)), parabola_ic()
    if ic == "zero":
        return (lambda x: 0.0), SineSeriesIC(((1, 0.0),), description=ic)
    if ic.startswith("sine:"):
        n = int(ic.split(":", 1)[1])
        if n < 1:
            raise ValueError(f"sine mode must be >= 1, got {n}")
        return (lambda x: math.sin(n * math.pi * x)), SineSeriesIC(((n, 1.0),), description=ic)
    raise ValueError(f"unsupported ic {ic!r}; expected 'poly:x*(1-x)', 'sine:<n>' or 'zero'")


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse the flat ``[experiment]`` config format.

    Required keys: gamma, lambda, family, dx, one of {s, dt}, one of
    {steps, t_end}.  Optional: name, kgamma (default 1), ic,
    startup_explicit_steps, output_times (comma separated), outputs
    (comma separated flags).
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(text)
    if "experiment" not in cp:
        raise ValueError("config must contain an [experiment] section")
    sec = cp["experiment"]

    def need(key: str) -> str:
        if key not in sec:
            raise ValueError(f"config is missing required key {key!r}")
        return sec[key]

    gamma = float(need("gamma"))
    k_gamma = float(sec.get("kgamma", "1.0"))
    lam = float(need("lambda"))
    family = FormulaFamily.parse(need("family"))
    dx = float(need("dx"))

    if "dt" in sec and "s" in sec:
        raise ValueError("give either dt or s, not both")
    if "dt" in sec:
        dt = float(sec["dt"])
    elif "s" in sec:
        dt = dt_for_mesh_ratio(float(sec["s"]), dx, gamma, k_gamma)
    else:
        raise ValueError("config needs dt or s")

    if "steps" in sec and "t_end" in sec:
        raise ValueError("give either steps or t_end, not both")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if "steps" in sec:
        steps = int(sec["steps"])
    elif "t_end" in sec:
        steps = round(end_time(float(sec["t_end"])) / dt)
        if steps < 1:
            raise ValueError(f"t_end {sec['t_end']} is below one time step (dt={dt})")
    else:
        raise ValueError("config needs steps or t_end")

    output_times = tuple(
        float(tok) for tok in sec.get("output_times", "").split(",") if tok.strip()
    )
    if not output_times:
        output_times = (steps * dt,)
    outputs = tuple(
        tok.strip() for tok in sec.get("outputs", "profile_csv").split(",") if tok.strip()
    )
    return ExperimentSpec(
        name=sec.get("name", "experiment"),
        gamma=gamma,
        k_gamma=k_gamma,
        lam=lam,
        family=family,
        dx=dx,
        dt=dt,
        steps=steps,
        startup_explicit_steps=int(sec.get("startup_explicit_steps", "0")),
        ic=sec.get("ic", "poly:x*(1-x)"),
        output_times=output_times,
        outputs=outputs,
    )


def parse_experiment_file(path) -> ExperimentSpec:
    return parse_experiment(Path(path).read_text())


def format_experiment(spec: ExperimentSpec) -> str:
    """Serialize a spec back to the config format (round-trips)."""
    lines = [
        "[experiment]",
        f"name = {spec.name}",
        f"gamma = {spec.gamma!r}",
        f"kgamma = {spec.k_gamma!r}",
        f"lambda = {spec.lam!r}",
        f"family = {spec.family.value}",
        f"dx = {spec.dx!r}",
        f"dt = {spec.dt!r}",
        f"steps = {spec.steps}",
        f"startup_explicit_steps = {spec.startup_explicit_steps}",
        f"ic = {spec.ic}",
        "output_times = " + ", ".join(repr(t) for t in spec.output_times),
        "outputs = " + ", ".join(spec.outputs),
    ]
    return "\n".join(lines) + "\n"


# The cells formatted at a time, in one repr_cells call.  On a 2-core Xeon VM a
# 1,501 x 102 history is written in 67 ms at 2,048 and 88 ms at 4,096 (best of 25
# interleaved rounds), with tracemalloc peaks of 0.8 and 1.5 MB; 8,192 peaks at 3.1 MB.
_CHUNK_CELLS = 2048


def _write_csv(path: Path, header: str, columns, table, trailer: str | None = None) -> Path:
    """Write a CSV atomically (temp file + rename), a chunk of rows at a time.

    ``table`` is a sequence of equal-length columns.  A float64 array is one
    column (1-D) or a run of float columns (2-D) and is written by
    ``shortest.repr_cells``; any other column is a sequence of cells written
    by ``str``, which gives ``repr``'s bytes for a float.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    table = [
        col if isinstance(col, np.ndarray) and col.dtype == np.float64 else _text(col)
        for col in table
    ]
    step = max(1, _CHUNK_CELLS // len(columns))
    try:
        with open(tmp, "wb") as out:
            out.write(f"# {header} | columns: {','.join(columns)}\n{','.join(columns)}\n".encode())
            for a in range(0, len(table[0]) if table else 0, step):
                out.write(_format_rows([col[a : a + step] for col in table]))
            if trailer:
                out.write(f"# {trailer}\n".encode())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return path


def _text(cells) -> np.ndarray:
    """Rows of NUL-padded str() bytes plus a separator, one per cell (of an array, its value)."""
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    text = np.array([str(c).encode() for c in cells], dtype=bytes)
    out = np.zeros((len(text), text.itemsize + 1), np.uint8)
    out[:, :-1] = text.view(np.uint8).reshape(len(text), text.itemsize)
    out[:, -1] = ord(",")
    return out


def _format_rows(table) -> bytes:
    """The CSV lines of a chunk of rows, given as columns; its float cells are
    formatted in one repr_cells call.

    Every cell is laid out with NUL holes and a last byte for its separator
    (the last byte of a repr_cells cell is always NUL); the NULs are dropped
    at the end.
    """
    floats = [col for col in table if col.dtype == np.float64]
    if floats:
        float_cells = repr_cells(np.concatenate([col.ravel() for col in floats]))
        float_cells[:, -1] = ord(",")
        float_cells = iter(np.split(float_cells, np.cumsum([col.size for col in floats[:-1]])))
    r = len(table[0])
    parts = [
        next(float_cells).reshape(r, -1) if col.dtype == np.float64 else col
        for col in table
    ]
    lines = np.concatenate(parts, axis=1)
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0")


@dataclass
class ExperimentResult:
    """Files and error summaries produced by one experiment run."""

    spec: ExperimentSpec
    paths: list
    status: str  # "completed" or "unstable"
    unstable_level: int | None
    summaries: list  # (t, max_error, l2_error) when error_vs_exact is set
    history: SolutionHistory | None


def _nearest_level(t: float, dt: float, top: int) -> int:
    m = round(t / dt)
    if abs(m * dt - t) > 0.5 * dt + 1e-12:
        raise ValueError(f"output time {t} is not within half a step of the grid")
    return min(max(m, 0), top)


def run_experiment(spec: ExperimentSpec, out_dir, dump_history: str | None = None) -> ExperimentResult:
    """Execute the experiment and emit the requested CSV files.

    An overflow signal from the solver is recorded as ``UNSTABLE at step
    <m>`` in the summary of whatever levels were reached; the result
    status distinguishes it from successful completion.
    """
    want_error = "error_vs_exact" in spec.outputs
    if want_error:  # the exact profile's grid, checked before the run; it is the unit interval
        check_profile_size(round(1.0 / spec.dx) + 1)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    status, unstable_level = "completed", None
    try:
        history = run(spec.problem(), spec.scheme())
    except OverflowDetected as overflow:
        history = overflow.history
        status, unstable_level = "unstable", overflow.level

    s = mesh_ratio(spec.problem(), spec.scheme())
    spec_desc = (
        f"experiment {spec.name} gamma={spec.gamma!r} kgamma={spec.k_gamma!r} "
        f"lambda={spec.lam!r} family={spec.family.value} dx={spec.dx!r} dt={spec.dt!r} "
        f"S={s!r} steps={spec.steps} startup={spec.startup_explicit_steps} ic={spec.ic}"
    )
    series = spec.sine_series() if want_error else None
    xs = history.x

    paths, summaries = [], []
    for t in spec.output_times:
        level = _nearest_level(t, spec.dt, history.top_level)
        t_level = level * spec.dt
        u = history.level(level)
        if want_error:
            exact = exact_profile(series, spec.gamma, spec.k_gamma, xs, t_level, tol=EXACT_TOL)
            err = np.abs(u - exact)
            columns = ("x", "u_numeric", "u_exact", "abs_error")
            table = (xs, u, exact, err)
            max_err = float(np.max(err))
            l2_err = float(math.sqrt(spec.dx * float(np.sum(err * err))))
            summaries.append((t_level, max_err, l2_err))
            trailer = f"summary t={t_level!r} max_error={max_err!r} l2_error={l2_err!r}"
        else:
            columns = ("x", "u_numeric")
            table = (xs, u)
            trailer = f"summary t={t_level!r}"
        if status == "unstable":
            trailer += f" UNSTABLE at step {unstable_level}"
        if "profile_csv" in spec.outputs or want_error:
            paths.append(
                _write_csv(
                    out_dir / f"{spec.name}_t{level}.csv", spec_desc, columns, table, trailer
                )
            )

    if "history_csv" in spec.outputs or dump_history:
        target = Path(dump_history) if dump_history else out_dir / f"{spec.name}_history.csv"
        columns = ("level",) + tuple(f"u{j}" for j in range(history.n_nodes))
        table = (np.arange(history.top_level + 1), history.values)
        paths.append(_write_csv(target, spec_desc + " full history", columns, table))

    if "stability_report" in spec.outputs:
        report = _probe(spec, s)
        paths.append(
            _write_csv(
                out_dir / f"{spec.name}_stability.csv",
                spec_desc,
                ("s", "s_cross", "theoretical_verdict", "growth_factor", "empirical_verdict"),
                zip(astuple(report)[:5]),
            )
        )
    return ExperimentResult(spec, paths, status, unstable_level, summaries, history)


def _probe(spec: ExperimentSpec, s: float):
    """The checkerboard probe at a spec's parameters, on an even node count near 1/dx."""
    n, steps = round(1.0 / spec.dx), max(50, min(spec.steps, 400))
    return probe_stability(spec.family, spec.gamma, spec.lam, s, max(8, n + n % 2), steps)


@dataclass(frozen=True)
class ConvergenceReport:
    """Refinement levels (dt, dx, max_error) and fitted observed orders."""

    refinement_levels: tuple[tuple[float, float, float], ...]
    estimated_order_dt: float
    estimated_order_dx: float


def _max_error_at_end(spec: ExperimentSpec) -> float:
    history = run(spec.problem(), spec.scheme())
    return float(np.max(np.abs(history.level(history.top_level) - spec.exact_at_end(history.x))))


def _require_stable(spec: ExperimentSpec, level: int) -> None:
    s = mesh_ratio(spec.problem(), spec.scheme())
    s_cross = stability_bound(spec.family, spec.gamma, spec.lam)
    if s > s_cross:
        raise ValueError(
            f"refinement level {level} is outside the stable region "
            f"(S={s:.4g} > S_x={s_cross:.4g})"
        )


def convergence_study(
    base: ExperimentSpec, refinements: int, mode: str = "refine_dt"
) -> ConvergenceReport:
    """Measure observed convergence orders by successive halving.

    ``mode`` selects what is halved per level: ``refine_dt`` (dx fixed),
    ``refine_dx`` (dt fixed), or ``refine_both`` (dx halved, dt adjusted
    to hold the mesh ratio S fixed).  The error is the max-norm distance
    to the analytical benchmark at the final time of each run.  Each
    level must be stable; instability aborts with an error naming the
    level.
    """
    if mode not in ("refine_dt", "refine_dx", "refine_both"):
        raise ValueError(f"unknown refinement mode {mode!r}")
    if refinements < 1:
        raise ValueError("need at least one refinement")

    t_end = base.steps * base.dt
    s = mesh_ratio(base.problem(), base.scheme())
    specs = [base]
    for _ in range(refinements):
        spec = specs[-1]
        if mode == "refine_dt":
            spec = replace(spec, dt=spec.dt / 2.0, steps=spec.steps * 2)
        elif mode == "refine_dx":
            spec = replace(spec, dx=spec.dx / 2.0)
        else:  # refine_both: keep S fixed
            dx = spec.dx / 2.0
            dt = dt_for_mesh_ratio(s, dx, base.gamma, base.k_gamma)
            spec = replace(spec, dx=dx, dt=dt, steps=max(1, round(t_end / dt)))
        # every level's size is checked before the first one runs; the grid is the unit interval
        check_history_size(spec.steps + 1, round(1.0 / spec.dx) + 1)
        check_profile_size(round(1.0 / spec.dx) + 1)
        specs.append(spec)

    levels = []
    for i, spec in enumerate(specs):
        _require_stable(spec, i)
        try:
            err = _max_error_at_end(spec)
        except OverflowDetected as overflow:
            raise ValueError(
                f"refinement level {i} went unstable at step {overflow.level}"
            ) from overflow
        levels.append((spec.dt, spec.dx, err))

    def fitted_order(index: int) -> float:
        rates = [
            math.log(a[2] / b[2]) / math.log(a[index] / b[index])
            for a, b in zip(levels, levels[1:])
            if a[index] != b[index] and b[2] != 0.0
        ]
        return sum(rates) / len(rates) if rates else math.nan

    return ConvergenceReport(tuple(levels), fitted_order(0), fitted_order(1))


def startup_comparison(base: ExperimentSpec, startup_steps_grid) -> list[tuple[int, float]]:
    """Error at t_end of hybrid runs over a grid of explicit startup counts.

    The base experiment must use lam = 1/2 (the startup trick targets the
    Crank-Nicholson scheme); any positive startup count must itself be
    stable under the explicit bound at the experiment's mesh ratio.
    """
    if base.lam != 0.5:
        raise ValueError("startup comparison requires lam = 1/2")
    s = mesh_ratio(base.problem(), base.scheme())
    explicit_cross = stability_bound(base.family, base.gamma, 1.0)
    rows = []
    for count in startup_steps_grid:
        count = int(count)
        if count < 0:
            raise ValueError("startup step counts must be >= 0")
        if count > 0 and s > explicit_cross:
            raise ValueError(
                f"explicit startup violates the explicit bound (S={s:.4g} > {explicit_cross:.4g})"
            )
        spec = replace(base, startup_explicit_steps=count)
        rows.append((count, _max_error_at_end(spec)))
    return rows


# ---------------------------------------------------------------------------
# bundled figure datasets

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

# fig3's cases: (label, gamma, lam, S, dx), each run to _FIG3_T_END
_FIG3_CASES = (
    ("triangles", 0.5, 1.0, 0.33, 1.0 / 10.0),
    ("squares", 0.75, 1.0, 0.4, 1.0 / 20.0),
    ("circles", 1.0, 1.0, 0.5, 1.0 / 50.0),
)
_FIG3_T_END = 0.5
# the single-run figures: (gamma, lam, S, dx, steps), the levels written in a
# "level" column (else only the last, without one) and whether u_exact is written
_FIG_RUNS = {
    "fig4": ((0.5, 1.0, 0.37, 1.0 / 20.0, 200), (150, 200), False),
    "fig5": ((0.5, 0.8, 0.55, 1.0 / 20.0, 500), (), True),
    "fig6": ((0.5, 0.8, 0.7, 1.0 / 20.0, 50), (), False),
    "fig7": ((0.5, 0.8, 0.7, 1.0 / 20.0, 100), (), False),
}

# the marked cases of the bound diagrams: header, columns, rows
_FIG_MARKERS = {
    "fig1": (
        "marked implicit cases on the fig1 diagram",
        ("label", "gamma", "lambda", "s", "inv_s"),
        [("square_stable", 0.5, 0.8, 0.55, 1.0 / 0.55), ("star_unstable", 0.5, 0.8, 0.7, 1.0 / 0.7)],
    ),
    "fig2": (
        "marked explicit cases on the fig2 diagram",
        ("label", "gamma", "s"),
        [("square_fig3", 0.5, 0.33), ("square_fig3", 0.75, 0.4), ("square_fig3", 1.0, 0.5),
         ("star_fig4", 0.5, 0.37)],
    ),
}


def _profile_spec(name, gamma, lam, s, dx, steps, outputs=("profile_csv",)) -> ExperimentSpec:
    dt = dt_for_mesh_ratio(s, dx, gamma)
    return ExperimentSpec(
        name=name,
        gamma=gamma,
        k_gamma=1.0,
        lam=lam,
        family=FormulaFamily.BDF1,
        dx=dx,
        dt=dt,
        steps=steps,
        ic="poly:x*(1-x)",
        output_times=(steps * dt,),
        outputs=outputs,
    )


def figure_specs(fig_id: str, t_end: float | None = None) -> list[ExperimentSpec]:
    """The experiment specs behind a profile figure (fig3..fig7).

    Every figure maps to specs expressible in the public config format;
    ``reproduce_figure`` runs exactly these.
    """
    if fig_id == "fig3":
        t = _FIG3_T_END if t_end is None else end_time(t_end)
        specs = []
        for label, gamma, lam, s, dx in _FIG3_CASES:
            dt = dt_for_mesh_ratio(s, dx, gamma)
            steps = max(1, round(t / dt))
            specs.append(_profile_spec(f"fig3_{label}", gamma, lam, s, dx, steps))
        return specs
    if fig_id not in _FIG_RUNS:
        raise ValueError(f"{fig_id!r} has no profile specs")
    return [_profile_spec(fig_id, *_FIG_RUNS[fig_id][0])]


@dataclass
class FigureResult:
    paths: list
    status: str  # "completed" or "unstable"


def reproduce_figure(fig_id: str, out_dir, t_end: float | None = None) -> FigureResult:
    """Emit the dataset behind one bundled figure id as CSV file(s).

    fig1: bound line 1/S_x versus lambda at gamma = 1/2 (BDF1) with the
          two marked implicit cases; fig2: bound curves of the explicit
          method versus gamma for all four families, empirical BDF1
          thresholds, and the marked explicit cases; fig3: three stable
          explicit profiles against the analytical solution (``t_end``
          shortens the runs for constrained environments); fig4: levels
          150 and 200 of the unstable explicit run; fig5: stable implicit
          profile; fig6/fig7: growing oscillation of the unstable
          implicit run.  Unstable presets report status "unstable".
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {fig_id!r}; expected one of {FIGURE_IDS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if fig_id == "fig1":
        header = (
            "stability bound line: family=bdf1 gamma=0.5, "
            "inv_s_cross = 2(2*lambda-1)*w(-1,1-gamma)"
        )
        line = phase_diagram(FormulaFamily.BDF1, [0.5], np.linspace(0.0, 1.0, 101))
        columns = ("gamma", "lambda", "inv_s_cross")
        paths = [_write_csv(out_dir / "fig1.csv", header, columns, [line])]
    if fig_id == "fig2":
        header = "explicit-method stability bounds: inv_s_cross = 2*w(-1,1-gamma), lambda=1"
        rows = [
            (family.value, float(g), inv_stability_bound(family, g, 1.0))
            for family in FormulaFamily
            for g in np.linspace(0.05, 1.0, 39)
        ]
        columns = ("family", "gamma", "inv_s_cross")
        paths = [_write_csv(out_dir / "fig2_bounds.csv", header, columns, zip(*rows))]
        gammas = [round(0.1 * k, 1) for k in range(1, 11)]
        bounds = [stability_bound(FormulaFamily.BDF1, g, 1.0) for g in gammas]
        # the ten bisections run in lockstep: one stacked probe run per round
        thresholds = find_empirical_thresholds(
            FormulaFamily.BDF1, [(g, 1.0, (0.5 * s, 1.5 * s)) for g, s in zip(gammas, bounds)]
        )
        header = "empirical explicit-method thresholds: family=bdf1 lambda=1 (bisection probe)"
        columns = ("gamma", "s_cross_empirical", "inv_s_cross_empirical")
        rows = [(g, est, 1.0 / est) for g, est in zip(gammas, thresholds)]
        paths.append(_write_csv(out_dir / "fig2_circles.csv", header, columns, zip(*rows)))
    if fig_id in _FIG_MARKERS:
        header, columns, rows = _FIG_MARKERS[fig_id]
        paths.append(_write_csv(out_dir / f"{fig_id}_markers.csv", header, columns, zip(*rows)))
        return FigureResult(paths, "completed")

    if fig_id == "fig3":
        rows, profiles = [], []
        for spec in figure_specs("fig3", t_end=t_end):
            history = run(spec.problem(), spec.scheme())
            x, u = history.x, history.level(history.top_level)
            s = mesh_ratio(spec.problem(), spec.scheme())
            rows += [(spec.name.removeprefix("fig3_"), spec.gamma, s, spec.dx, spec.t_end)] * len(x)
            profiles.append(np.column_stack((x, u, spec.exact_at_end(x))))
        path = _write_csv(
            out_dir / "fig3.csv",
            "stable explicit profiles vs analytical solution (bdf1, lambda=1)",
            ("case", "gamma", "s", "dx", "t", "x", "u_numeric", "u_exact"),
            (*zip(*rows), np.concatenate(profiles)),
        )
        return FigureResult([path], "completed")

    # fig4..fig7: single-run profile figures with a probe verdict
    (spec,) = figure_specs(fig_id)
    status = "completed"
    try:
        history = run(spec.problem(), spec.scheme())
    except OverflowDetected as overflow:
        history = overflow.history
        status = "unstable"
    s = mesh_ratio(spec.problem(), spec.scheme())
    report = _probe(spec, s)
    if report.empirical_verdict == "unstable":
        status = "unstable"
    desc = (
        f"{fig_id}: gamma={spec.gamma!r} lambda={spec.lam!r} S={s!r} dx={spec.dx!r} "
        f"steps={spec.steps} probe_verdict={report.empirical_verdict} "
        f"probe_growth={report.growth_factor!r}"
    )
    _, levels, with_exact = _FIG_RUNS[fig_id]
    x = history.x
    exact = (spec.exact_at_end(x),) if with_exact else ()
    columns = ("level",) * bool(levels) + ("x", "u_numeric") + ("u_exact",) * with_exact
    profiles = [
        np.column_stack((x, history.level(min(level, history.top_level)), *exact))
        for level in levels or (history.top_level,)
    ]
    table = ([level for level in levels for _ in x],) * bool(levels) + (np.concatenate(profiles),)
    return FigureResult([_write_csv(out_dir / f"{fig_id}.csv", desc, columns, table)], status)
