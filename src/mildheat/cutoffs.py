"""A differential-inequality threshold bound and its ODE witness.

``differential_inequality_bound`` evaluates the closed-form threshold for
the constant m in  m + xi(r) <= c * w(r) * xi'(r)^(1/alpha),  w a positive
weight, and produces an ODE witness: the largest m for which the
equality ODE still has a finite solution, located by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .quadrature import integrate_time

__all__ = [
    "InequalityWitnessReport",
    "differential_inequality_bound",
]


@dataclass(frozen=True)
class InequalityWitnessReport:
    """Closed-form threshold and its ODE witness.

    ``bound`` is the largest constant m compatible with
    m + xi(r) <= c_star * w(r) * xi'(r)^(1/alpha) on (a, b) for a
    nondecreasing nonnegative xi.  ``witness`` is the largest m (up to
    the bracket width, at most 1e-9 relative) for which the equality ODE
    stays finite on [a, b]; mathematically witness = bound - xi0, so
    witness <= bound always."""

    bound: float
    witness: float
    bracket: tuple


def differential_inequality_bound(
    a: float,
    b: float,
    weight_fn: Callable[[float], float],
    c_star: float,
    alpha: float,
    xi0: float = 0.0,
) -> InequalityWitnessReport:
    """Threshold for m in  m + xi(r) <= c_star * w(r) * xi'(r)^(1/alpha).

    The weight must be positive on [a, b].  The blow-up ceiling is
    calibrated so the witness sits about 1e-5 relatively below the
    analytic threshold bound - xi0; that keeps the solver's own error
    (orders of magnitude smaller) from ever pushing it past the bound.
    The witness is bisected in [0, bound - xi0]; should the ODE stay
    finite at the upper end, that end is reported as an open bracket.
    """
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    if not alpha > 1:
        raise ValueError("alpha must exceed 1")
    if not c_star > 0:
        raise ValueError("c_star must be positive")
    if xi0 < 0:
        raise ValueError("xi0 must be nonnegative")

    quad = integrate_time(
        lambda s: np.array([weight_fn(v) ** -alpha for v in np.atleast_1d(s)]), a, b, 1e-12
    )
    bound = (
        c_star ** (alpha / (alpha - 1.0))
        * (1.0 / (alpha - 1.0)) ** (1.0 / (alpha - 1.0))
        * quad.value ** (-1.0 / (alpha - 1.0))
    )

    ceiling = bound * (1e-5 * (alpha - 1.0)) ** (-1.0 / (alpha - 1.0))
    ceiling = max(ceiling, 10.0 * xi0 + 1.0)

    def stays_finite(m: float) -> bool:
        def rhs(r, xi):
            return ((m + xi[0]) / (c_star * weight_fn(r))) ** alpha

        def hit(r, xi):
            return xi[0] - ceiling

        hit.terminal = True
        sol = solve_ivp(rhs, (a, b), [xi0], events=hit, rtol=1e-10, atol=1e-12)
        return sol.status == 0 and sol.y[0, -1] < ceiling

    lo, hi = 0.0, max(bound - xi0, 0.0)
    if stays_finite(hi):
        return InequalityWitnessReport(bound=bound, witness=hi, bracket=(hi, math.inf))
    if not stays_finite(lo):
        return InequalityWitnessReport(bound=bound, witness=0.0, bracket=(0.0, 0.0))
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if stays_finite(mid):
            lo = mid
        else:
            hi = mid
    return InequalityWitnessReport(bound=bound, witness=lo, bracket=(lo, hi))
