"""The stepper against a direct-summation reference in long double.

``long_double_levels`` is the scheme written the plain way in
``np.longdouble``: at every level it convolves the second differences of
the whole history with the weights and solves the tridiagonal system by
Thomas elimination, all in long double.  Its rounding is far below the
double stepper's, so every level of ``run`` must be within 1e-13 of that
level's own max|U|: in stable runs with unequal, non-zero Dirichlet data,
and in an unstable run whose levels grow to 1e150, where the rounding of
the fastest-growing mode is amplified at every level.  Where long double
is double no such reference can be built, and the tests skip.
"""

import numpy as np
import pytest

from fracstep.coeffs import FormulaFamily, build_table
from fracstep.solver import OVERFLOW_LIMIT, OverflowDetected, ProblemSpec, mesh_ratio, run

from test_history_sums import boundary_problem
from test_solver import make_config

LD = np.longdouble
REL_TOL = 1e-13

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps >= 1e-18, reason="long double is double: no extended reference"
)


def long_double_levels(row0, weights, lam, s, steps):
    """Levels 0 .. steps of the scheme from row0, in long double.

    The coefficients (1 - lam) S and lam S are the double ones the stepper
    uses.  Returns (levels, overflow level or None); the levels stop before
    the first one past the overflow limit.
    """
    u = np.asarray(row0, dtype=LD)
    w = np.asarray(weights, dtype=LD)
    implicit, explicit = LD((1.0 - lam) * s), LD(lam * s)
    n = u.size - 2
    c = implicit * w[0]
    # Thomas factors of the matrix diag(1 + 2c), off-diagonals -c
    pivots, ratios = [LD(1) + 2 * c], []
    for _ in range(1, n):
        ratios.append(-c / pivots[-1])
        pivots.append(LD(1) + 2 * c + c * ratios[-1])
    levels = [u]
    d2 = np.empty((steps + 1, n), dtype=LD)
    d2[0] = u[:-2] - 2 * u[1:-1] + u[2:]
    for m in range(steps):
        explicit_sum = w[m::-1] @ d2[: m + 1]
        implicit_sum = w[m + 1 : 0 : -1] @ d2[: m + 1]
        rhs = u[1:-1] + implicit * implicit_sum + explicit * explicit_sum
        rhs[0] += c * u[0]
        rhs[-1] += c * u[-1]
        for i in range(1, n):
            rhs[i] -= ratios[i - 1] * rhs[i - 1]
        rhs[-1] /= pivots[-1]
        for i in range(n - 2, -1, -1):
            rhs[i] = (rhs[i] + c * rhs[i + 1]) / pivots[i]
        u = np.concatenate((u[:1], rhs, u[-1:]))
        if not np.max(np.abs(u)) <= OVERFLOW_LIMIT:
            return np.array(levels), m + 1
        levels.append(u)
        d2[m + 1] = u[:-2] - 2 * u[1:-1] + u[2:]
    return np.array(levels), None


def assert_levels_close(values, expected):
    assert values.shape == expected.shape
    size = np.max(np.abs(expected), axis=1)
    error = np.max(np.abs(values.astype(LD) - expected), axis=1)
    assert np.all(error <= REL_TOL * size), float(np.max(error / size))


def reference(problem, config, history):
    weights = build_table(config.family, 1.0 - problem.gamma, config.steps + 1)
    s = mesh_ratio(problem, config)
    return long_double_levels(history.level(0), weights, config.lam, s, config.steps)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("family", list(FormulaFamily))
def test_stable_run_matches_the_long_double_reference(family, lam):
    problem = boundary_problem(0.5)
    config = make_config(0.5, lam, 0.15, 0.05, 300, family)
    history = run(problem, config)
    expected, overflow = reference(problem, config, history)
    assert overflow is None
    assert_levels_close(history.values, expected)


def test_unstable_run_matches_the_long_double_reference():
    problem = ProblemSpec(gamma=0.5, k_gamma=1.0, initial_condition=lambda x: x * (1.0 - x))
    config = make_config(0.5, 1.0, 5.0, 0.05, 4000)
    with pytest.raises(OverflowDetected) as excinfo:
        run(problem, config)
    history = excinfo.value.history
    expected, level = reference(problem, config, history)
    assert excinfo.value.level == level
    assert_levels_close(history.values, expected)
