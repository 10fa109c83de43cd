"""The scheme's order in dt, as the ``coeffs`` and ``solver`` docstrings state it.

The weights approximate the fractional operator to the family's order on
smooth functions, but the solution from the parabola start behaves like
t^gamma near t = 0, and the observed order in dt of the whole scheme is
gamma for every family.  Halving dt from 16 to 256 steps to t = 0.5 at
dx = 0.005 (fine enough that the dx error stays well below the dt error)
must show an order within 0.15 of gamma, for the implicit and the
Crank-Nicholson weighting.
"""

import pytest

from fracstep.coeffs import FormulaFamily
from fracstep.harness import ExperimentSpec, convergence_study

ORDER_TOL = 0.15


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("gamma", [0.5, 0.8])
@pytest.mark.parametrize("family", list(FormulaFamily))
def test_observed_order_in_dt_is_gamma(family, gamma, lam):
    spec = ExperimentSpec(
        name="order",
        gamma=gamma,
        k_gamma=1.0,
        lam=lam,
        family=family,
        dx=0.005,
        dt=0.5 / 16,
        steps=16,
    )
    report = convergence_study(spec, refinements=4, mode="refine_dt")
    assert [level[0] for level in report.refinement_levels] == [0.5 / 2**k for k in range(4, 9)]
    assert report.estimated_order_dt == pytest.approx(gamma, abs=ORDER_TOL)
