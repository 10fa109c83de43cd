"""Spans around the calls into fracstep's public functions.

A traced function is replaced, in every fracstep module that binds it
(``from fracstep.solver import run`` makes a second binding), by a wrapper
that appends ``[name, start_ns, end_ns, parent, info, raised]`` to an
in-memory list.  Self time is a span's duration minus its children's.
The per-layer metrics of BENCHMARK.json are computed from those spans.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc

# public functions per module; solver.mesh_ratio and dt_for_mesh_ratio are
# left out: they are one line of arithmetic called inside every step
TRACED = {
    "fracstep.cli": ("main",),
    "fracstep.harness": (
        "parse_experiment", "parse_experiment_file", "format_experiment", "run_experiment",
        "convergence_study", "startup_comparison", "figure_specs", "reproduce_figure",
    ),
    "fracstep.solver": ("run", "step", "memory_term"),
    "fracstep.coeffs": ("build_table", "eval_generating_function", "newton_gregory_omegas"),
    "fracstep.mittag_leffler": ("ml_eval", "ml_decay_profile"),
    "fracstep.exact_solution": ("exact_profile", "exact_eval"),
    "fracstep.stability": (
        "inv_stability_bound", "stability_bound", "probe_stability",
        "find_empirical_threshold", "phase_diagram",
    ),
}

# what a span records besides its times, taken from the call's arguments
_INFO = {
    "solver.step": lambda args, kw: (args[0].top_level, args[0].n_nodes),
    "mittag_leffler.ml_eval": lambda args, kw: (float(args[0]), float(args[1])),
    "coeffs.build_table": lambda args, kw: str(getattr(args[0], "value", args[0])),
}

STEP_BANDS = (("us_m1k", 0, 1_000), ("us_m10k", 1_000, 10_000), ("us_m40k", 10_000, 40_000))
ML_M_BANDS = (("m-le-40", float("-inf"), 40.0), ("m-40-300", 40.0, 300.0), ("m-gt-300", 300.0, float("inf")))


def _fracstep_modules():
    return [m for n, m in list(sys.modules.items()) if n == "fracstep" or n.startswith("fracstep.")]


def _patch(replacements: dict) -> list:
    """Rebind every fracstep name bound to a key of ``replacements`` (by id)."""
    undo = []
    for module in _fracstep_modules():
        for attr, value in list(vars(module).items()):
            new = replacements.get(id(value))
            if new is not None:
                setattr(module, attr, new)
                undo.append((module, attr, value))
    return undo


def _unpatch(undo: list) -> None:
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


class Tracer:
    """Records spans while installed; ``spans`` keeps them all."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        info = _INFO.get(name)
        probe = name == "stability.probe_stability"

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, info(args, kwargs) if info else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if probe:
                rec[4] = (result.empirical_verdict, result.theoretical_verdict)
            return result

        return traced

    def install(self) -> None:
        replacements = {}
        for module_name, names in TRACED.items():
            module = sys.modules[module_name]
            short = module_name.rsplit(".", 1)[-1]
            for fn_name in names:
                fn = getattr(module, fn_name)
                replacements[id(fn)] = self._wrap(f"{short}.{fn_name}", fn)
        self._undo = _patch(replacements)

    def uninstall(self) -> None:
        _unpatch(self._undo)
        self._undo = []

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("index,name,start_ns,end_ns,parent,info,raised\n")
            for i, (name, t0, t1, parent, info, raised) in enumerate(self.spans):
                out.write(f'{i},{name},{t0},{t1},{parent},"{info if info is not None else ""}",{raised or ""}\n')


class RunAllocations:
    """Peak bytes allocated inside each solver.run call, via tracemalloc."""

    def __init__(self):
        self.peaks: list = []
        self._undo: list = []

    def install(self) -> None:
        solver = sys.modules["fracstep.solver"]
        run, peaks = solver.run, self.peaks

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return run(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

        tracemalloc.start()
        self._undo = _patch({id(run): measured})

    def uninstall(self) -> None:
        _unpatch(self._undo)
        tracemalloc.stop()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list, passes: int, csv_bytes: float, run_peaks: list, overhead_s: float):
    """Per-layer metrics as {name: (value, unit, note)}; counts and times are per pass."""
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name)) / passes

    def total(name, keep=lambda i: True):
        return sum(dur[i] for i in idx(name) if keep(i)) / passes

    def self_time(names):
        return sum(dur[i] - child[i] for n in names for i in idx(n)) / passes

    m = {}
    steps = idx("solver.step")
    m["solver.step.calls"] = (calls("solver.step"), "count", "")
    m["solver.step.total_s"] = (total("solver.step"), "s", "")
    for band, lo, hi in STEP_BANDS:
        sample = [dur[i] * 1e6 for i in steps if lo <= spans[i][4][0] < hi]
        m[f"solver.step.{band}"] = (_median(sample), "us", f"median, history levels M in [{lo}, {hi}), n={len(sample)}")
    level_nodes = sum((spans[i][4][0] + 1) * (spans[i][4][1] - 2) for i in steps)
    step_time = sum(dur[i] for i in steps)
    m["solver.step.level_nodes_per_s"] = (
        level_nodes / step_time if step_time else 0.0, "1/s",
        "computed for direct summation: sum of (M+1)(N-2) over steps / step time",
    )
    m["solver.run.calls"] = (calls("solver.run"), "count", "")
    m["solver.run.self_s"] = (self_time(["solver.run"]), "s", "IC sampling and allocation; step and table time excluded")
    overflows = sum(1 for i in steps if spans[i][5] == "OverflowDetected") / passes
    m["solver.overflow.count"] = (overflows, "count", "")
    m["solver.run.peak_alloc_mb"] = (max(run_peaks, default=0) / 1e6, "MB", f"tracemalloc, largest of {len(run_peaks)} runs")

    m["coeffs.build_table.calls"] = (calls("coeffs.build_table"), "count", "")
    for family in ("bdf1", "bdf2", "bdf3", "ng2"):
        m[f"coeffs.build_table.{family}.total_s"] = (
            total("coeffs.build_table", lambda i: spans[i][4] == family), "s", "")

    ml = idx("mittag_leffler.ml_eval")
    m["mittag_leffler.ml_eval.calls"] = (calls("mittag_leffler.ml_eval"), "count", "")

    def ml_m(i):
        gamma, z = spans[i][4]
        return abs(z) ** (1.0 / gamma)

    for band, lo, hi in ML_M_BANDS:
        sample = [dur[i] * 1e6 for i in ml if lo < ml_m(i) <= hi]
        m[f"mittag_leffler.ml_eval.p50_us.{band}"] = (_median(sample), "us", f"m = |z|^(1/gamma) in ({max(lo, 0.0)}, {hi}], n={len(sample)}")
    for band, keep in (("gamma-lo", lambda g: g < 0.5), ("gamma-hi", lambda g: g >= 0.5)):
        sample = [dur[i] * 1e6 for i in ml if keep(spans[i][4][0])]
        m[f"mittag_leffler.ml_eval.p50_us.{band}"] = (_median(sample), "us", f"n={len(sample)}")

    profiles = idx("exact_solution.exact_profile")
    m["exact_solution.exact_profile.calls"] = (calls("exact_solution.exact_profile"), "count", "")
    m["exact_solution.exact_profile.self_s"] = (
        self_time(["exact_solution.exact_profile"]), "s", "sine accumulation; ml_eval excluded")
    in_profiles = sum(1 for i in ml if spans[i][3] >= 0 and spans[spans[i][3]][0] == "exact_solution.exact_profile")
    m["exact_solution.ml_calls_per_profile"] = (in_profiles / len(profiles) if profiles else 0.0, "count", "")

    probes = idx("stability.probe_stability")
    m["stability.probe_stability.calls"] = (calls("stability.probe_stability"), "count", "")
    m["stability.probe_stability.self_s"] = (self_time(["stability.probe_stability"]), "s", "")
    thresholds = idx("stability.find_empirical_threshold")
    in_thresholds = sum(1 for i in probes if spans[i][3] >= 0 and spans[spans[i][3]][0] == "stability.find_empirical_threshold")
    m["stability.probes_per_threshold"] = (in_thresholds / len(thresholds) if thresholds else 0.0, "count", f"n={len(thresholds)} bisections")
    verdicts = [spans[i][4] for i in probes if spans[i][4] is not None]
    agree = sum(1 for emp, theo in verdicts if emp == ("stable" if theo == "unconditionally_stable" else theo))
    m["stability.verdict_agreement"] = (agree / len(verdicts) if verdicts else 0.0, "ratio", f"over n={len(verdicts)} probes")

    harness_names = [f"harness.{n}" for n in TRACED["fracstep.harness"]]
    harness_self = self_time(harness_names)
    m["harness.self_s"] = (harness_self, "s", "")
    m["harness.csv_bytes"] = (csv_bytes, "B", "CSV bytes written per pass")
    m["harness.csv_mb_per_s"] = (csv_bytes / 1e6 / harness_self if harness_self else 0.0, "MB/s", "computed: csv_bytes / harness.self_s")
    m["cli.main.calls"] = (calls("cli.main"), "count", "")
    m["cli.main.self_s"] = (self_time(["cli.main"]), "s", "argument parsing, dispatch and printing")
    m["trace.overhead_s"] = (overhead_s, "s", "sum of each op's fastest traced run minus the same untraced")
    return m
