"""Finite-difference solvers for the time-fractional subdiffusion equation.

The package is organized around six pieces:

* :mod:`fracstep.coeffs` -- discretization weights of the fractional
  derivative operator (BDF1/BDF2/BDF3/NG2 families) and their generating
  functions.
* :mod:`fracstep.mittag_leffler` -- the one-parameter Mittag-Leffler
  function E_gamma(z) on the non-positive real axis.
* :mod:`fracstep.exact_solution` -- analytical sine-series benchmark
  solution for the unit interval with absorbing boundaries.
* :mod:`fracstep.solver` -- the weighted-average time stepper (explicit,
  implicit and hybrid-startup paths) with the full-history memory term.
* :mod:`fracstep.stability` -- closed-form stability bound, empirical
  probing and phase-diagram sweeps.
* :mod:`fracstep.harness` -- config-driven experiment runner, convergence
  studies and bundled figure datasets, wired into the ``fracstep`` CLI
  (:mod:`fracstep.cli`).
"""

from fracstep.coeffs import (
    CoefficientTable,
    FormulaFamily,
    build_table,
    eval_generating_function,
    newton_gregory_omegas,
)
from fracstep.exact_solution import SineSeriesIC, exact_eval, exact_profile, parabola_ic
from fracstep.mittag_leffler import ml_decay_profile, ml_eval, ml_eval_neg
from fracstep.solver import (
    OverflowDetected,
    ProblemSpec,
    SchemeConfig,
    SolutionHistory,
    dt_for_mesh_ratio,
    memory_term,
    mesh_ratio,
    run,
    step,
)
from fracstep.stability import (
    StabilityReport,
    find_empirical_threshold,
    inv_stability_bound,
    phase_diagram,
    probe_stability,
    stability_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable",
    "FormulaFamily",
    "OverflowDetected",
    "ProblemSpec",
    "SchemeConfig",
    "SineSeriesIC",
    "SolutionHistory",
    "StabilityReport",
    "build_table",
    "dt_for_mesh_ratio",
    "eval_generating_function",
    "exact_eval",
    "exact_profile",
    "find_empirical_threshold",
    "inv_stability_bound",
    "memory_term",
    "mesh_ratio",
    "ml_decay_profile",
    "ml_eval",
    "ml_eval_neg",
    "newton_gregory_omegas",
    "parabola_ic",
    "phase_diagram",
    "probe_stability",
    "run",
    "stability_bound",
    "step",
]
