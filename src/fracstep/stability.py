"""Stability analysis of the weighted-average schemes.

A von-Neumann-style analysis of a single subdiffusive mode
U_j^(m) = zeta_m exp(i q j dx) gives the closed-form bound: the scheme is
stable as long as 1/S >= 1/S_x with

    1/S_x = 2 (2 lam - 1) w(-1, 1 - gamma),

where w(z, alpha) is the generating function of the weight family.  The
right-hand side is non-positive for lam <= 1/2, so those schemes are
stable for every S.  The bound is the exact asymptotic threshold of the
q dx = pi mode; finite grids and horizons sit above it, since a grid's
fastest mode is slower and growth just past the bound needs many steps to
show.  This module exposes the bound, an empirical probe that drives the
worst-case checkerboard mode (q dx = pi) through the actual stepper, a
bisection estimator of the empirical threshold, and grid sweeps for
phase diagrams.  Probes sharing the family, node count
and step count run as one stack that keeps only their sine modes and
last level (``probe_batch``); a single probe is the batch of one.
Bisections run in lockstep, one stack per round (``find_empirical_thresholds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracstep.coeffs import FormulaFamily, build_table, eval_generating_function
from fracstep.solver import check_history_size, run_stacked

__all__ = [
    "StabilityReport",
    "UNCONDITIONAL",
    "inv_stability_bound",
    "stability_bound",
    "probe_stability",
    "probe_batch",
    "find_empirical_threshold",
    "find_empirical_thresholds",
    "phase_diagram",
    "MAX_PHASE_POINTS",
]

#: Marker returned by :func:`stability_bound` when lam <= 1/2.
UNCONDITIONAL = math.inf

INSTABILITY_THRESHOLD = 10.0
PROBE_AMPLITUDE = 1e-6
BISECTION_TOL = 1e-3

#: Most (gamma, lam) points a phase sweep takes: a 1024 x 1024 grid, a 24 MB table.
MAX_PHASE_POINTS = 1 << 20


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one empirical stability probe.

    s_value: the probed mesh ratio S.
    s_cross: critical ratio S_x (math.inf when the bound is non-binding).
    theoretical_verdict: one of "stable", "unstable", "unconditionally_stable".
    growth_factor: max-norm(final level) / probe amplitude.
    empirical_verdict: "stable" or "unstable".
    probe_steps: number of levels actually computed.
    """

    s_value: float
    s_cross: float
    theoretical_verdict: str
    growth_factor: float
    empirical_verdict: str
    probe_steps: int


def _check_params(gamma: float, lam: float) -> None:
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must lie in [0, 1], got {lam}")


def inv_stability_bound(family: FormulaFamily, gamma: float, lam: float) -> float:
    """Raw bound value 1/S_x = 2 (2 lam - 1) w(-1, 1 - gamma).

    Negative or zero means the scheme is stable for every S.
    """
    _check_params(gamma, lam)
    return 2.0 * (2.0 * lam - 1.0) * eval_generating_function(family, 1.0 - gamma, -1.0)


def stability_bound(family: FormulaFamily, gamma: float, lam: float) -> float:
    """Critical mesh ratio S_x; ``UNCONDITIONAL`` (inf) when lam <= 1/2."""
    inv = inv_stability_bound(family, gamma, lam)
    if inv <= 0.0:
        return UNCONDITIONAL
    return 1.0 / inv


def _theoretical_verdict(s: float, lam: float, s_cross: float) -> str:
    if lam <= 0.5:
        return "unconditionally_stable"
    return "stable" if s <= s_cross else "unstable"


def probe_stability(
    family: FormulaFamily,
    gamma: float,
    lam: float,
    s: float,
    nodes: int = 32,
    steps: int = 400,
) -> StabilityReport:
    """Drive the checkerboard mode through the stepper and measure growth.

    The probe problem lives on [0, 1] with zero Dirichlet data and the
    interior seeded with U_j(0) = (-1)^j * amplitude -- the discrete mode
    with q dx = pi, which maximizes the second-difference amplification.
    The node count must be even so the mode is compatible with the
    boundaries.  Growth beyond ``INSTABILITY_THRESHOLD`` (or an overflow
    signal) is classified unstable.  This is :func:`probe_batch` of one.
    """
    return probe_batch(family, [(gamma, lam, s)], nodes=nodes, steps=steps)[0]


def probe_batch(family: FormulaFamily, cases, nodes=32, steps=400) -> list[StabilityReport]:
    """Run the probe of :func:`probe_stability` for (gamma, lam, S) cases in lockstep.

    The probes share the family, node count and step count and run as one
    stack (``solver.run_stacked``), each with its own weights, S and lam;
    one that overflows is masked and leaves the others as they are.
    """
    if nodes < 8 or nodes % 2 != 0:
        raise ValueError(f"nodes must be even and >= 8, got {nodes}")
    if steps < 50:
        raise ValueError(f"steps must be >= 50, got {steps}")
    for gamma, lam, s in cases:
        _check_params(gamma, lam)
        if not (0.0 < s < math.inf):
            raise ValueError(f"s must be finite and > 0, got {s}")
    check_history_size(steps + 1, nodes + 1, len(cases))

    eps = PROBE_AMPLITUDE
    row = eps * (-1.0) ** np.arange(nodes + 1)
    row[0] = row[-1] = 0.0
    gammas, lams, ss = zip(*cases)
    tables = [build_table(family, 1.0 - g, steps + 1) for g in gammas]
    last, overflow = run_stacked(np.tile(row, (len(cases), 1)), tables, ss, lams, steps)
    growth = np.where(overflow > 0, math.inf, np.abs(last).max(axis=1) / eps)

    reports = []
    for (gamma, lam, s), g, level in zip(cases, growth.tolist(), overflow.tolist()):
        s_cross = stability_bound(family, gamma, lam)
        reports.append(
            StabilityReport(
                s_value=s,
                s_cross=s_cross,
                theoretical_verdict=_theoretical_verdict(s, lam, s_cross),
                growth_factor=g,
                empirical_verdict="unstable" if g > INSTABILITY_THRESHOLD else "stable",
                probe_steps=level or steps,
            )
        )
    return reports


def find_empirical_threshold(
    family: FormulaFamily,
    gamma: float,
    lam: float,
    bracket: tuple[float, float],
    nodes: int = 32,
    steps: int = 400,
) -> float:
    """Bisect on S between a stable and an unstable probe verdict.

    The bracket endpoints must produce different verdicts.  Bisection
    stops when the bracket is narrower than ``BISECTION_TOL``; the
    midpoint is the empirical S_x.  :func:`find_empirical_thresholds` of one.
    """
    return find_empirical_thresholds(family, [(gamma, lam, bracket)], nodes=nodes, steps=steps)[0]


def find_empirical_thresholds(family: FormulaFamily, cases, nodes=32, steps=400) -> list[float]:
    """Run :func:`find_empirical_threshold` for (gamma, lam, bracket) cases in lockstep.

    Each round probes the midpoints of all open brackets in one
    :func:`probe_batch`.  The midpoints and the stop rule are those of one
    case at a time, and so are the thresholds.
    """
    brackets = [[float(lo), float(hi)] for _, _, (lo, hi) in cases]
    for (_, _, bracket), (s_lo, s_hi) in zip(cases, brackets):
        if not (0.0 < s_lo < s_hi < math.inf):
            raise ValueError(f"bracket must satisfy 0 < s_lo < s_hi < inf, got {bracket}")

    def unstable(picks, points):
        batch = [(*cases[i][:2], s) for i, s in zip(picks, points)]
        return [r.empirical_verdict == "unstable" for r in probe_batch(family, batch, nodes, steps)]

    every = range(len(cases))
    lo_unstable = unstable(every, [lo for lo, _ in brackets])
    hi_unstable = unstable(every, [hi for _, hi in brackets])
    for (s_lo, s_hi), lo, hi in zip(brackets, lo_unstable, hi_unstable):
        if lo == hi:
            raise ValueError(
                f"bracket endpoints give the same verdict "
                f"({'unstable' if lo else 'stable'} at both {s_lo} and {s_hi})"
            )
    picks = [i for i in every if brackets[i][1] - brackets[i][0] > BISECTION_TOL]
    while picks:
        mids = [0.5 * (brackets[i][0] + brackets[i][1]) for i in picks]
        for i, mid, verdict in zip(picks, mids, unstable(picks, mids)):
            brackets[i][1 if verdict == hi_unstable[i] else 0] = mid
        picks = [i for i in picks if brackets[i][1] - brackets[i][0] > BISECTION_TOL]
    return [0.5 * (s_lo + s_hi) for s_lo, s_hi in brackets]


def phase_diagram(family: FormulaFamily, gamma_grid, lambda_grid) -> np.ndarray:
    """Tabulate (gamma, lam, 1/S_x) over the grid as a (points, 3) float64 array.

    lam runs fastest.  1/S_x is the raw bound value, equal to
    :func:`inv_stability_bound` at each point, so it crosses zero at
    lam = 1/2 and is negative in the unconditionally stable region.  A grid
    of more than ``MAX_PHASE_POINTS`` points is refused.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if not gamma_grid.size or not lambda_grid.size:
        raise ValueError("grids must be non-empty")
    points = gamma_grid.size * lambda_grid.size
    if points > MAX_PHASE_POINTS:
        raise ValueError(
            f"a phase grid of {gamma_grid.size} x {lambda_grid.size} = {points} points "
            f"exceeds MAX_PHASE_POINTS = {MAX_PHASE_POINTS}"
        )
    # the first bad point in row order: the first gamma with every lambda, then the rest
    bad_lam = np.flatnonzero(~((0.0 <= lambda_grid) & (lambda_grid <= 1.0)))
    bad_gamma = np.flatnonzero(~((0.0 < gamma_grid) & (gamma_grid <= 1.0)))
    _check_params(float(gamma_grid[0]), float(lambda_grid[bad_lam[0] if bad_lam.size else 0]))
    _check_params(float(gamma_grid[bad_gamma[0] if bad_gamma.size else 0]), float(lambda_grid[0]))
    # w(-1, alpha) as eval_generating_function gives it, one Python pow per gamma: numpy's
    # power rounds some of them differently.  NG2's bracket W_0 + 2 W_1 is 1 + alpha
    # exactly, as W_0 = 1 and W_1 = alpha / 2
    family = FormulaFamily(family)
    base = family.base_value(-1.0)
    alphas = 1.0 - gamma_grid
    w = np.array([base**alpha for alpha in alphas.tolist()])
    if family is FormulaFamily.NG2:
        w *= 1.0 + alphas
    gammas, lams = np.meshgrid(gamma_grid, lambda_grid, indexing="ij")
    inv = 2.0 * (2.0 * lams - 1.0) * w[:, None]
    return np.stack((gammas, lams, inv), axis=-1).reshape(points, 3)
