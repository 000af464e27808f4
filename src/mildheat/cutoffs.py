"""A differential-inequality threshold bound and its ODE witness.

``differential_inequality_bound`` evaluates the closed-form threshold for
the constant m in  m + xi(r) <= c * w(r) * xi'(r)^(1/alpha),  w a positive
weight, and produces an ODE witness: the largest m for which the
equality ODE still has a finite solution.  One predicate decides
finiteness: the ODE in r, stopped when xi reaches a ceiling.  Brent's
method on a continuous form of the same question (the radius at which
xi reaches the ceiling, with xi as the variable) proposes where the
transition lies; the predicate then checks both ends of a narrow bracket
about that root, widening it until they straddle the transition, and
bisects it to 1e-9 relative.  Where the radius does not change sign on
its search interval the witness is bisected by the predicate alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

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
    witness <= bound always.  ``bound_error`` is the relative error of
    ``bound`` propagated from the quadrature's error estimate, and
    ``solves`` the number of ODE solves the witness took."""

    bound: float
    witness: float
    bracket: tuple
    bound_error: float
    solves: int


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

    ``stays_finite(m)`` (the equality ODE in r, stopped at the ceiling)
    decides every end of the reported bracket.  Should it hold at
    bound - xi0, that end is reported as an open bracket.  Otherwise
    Brent's method finds the root of the blow-up radius r(ceiling; m) - b
    on [0.5, 1] (bound - xi0), integrating dr/dxi = (c_star w(r)/(m + xi))^alpha
    from xi0 to the ceiling with w held at w(b) beyond b; this radius is
    continuous and decreasing in m, and positive exactly where the ODE
    stays finite.  The predicate checks root -+ 4e-10 root, steps a wrong
    end outward geometrically until the two straddle the transition, and
    bisects to 1e-9 relative.  Where the radius does not change sign on
    that interval, the predicate bisects [0, bound - xi0] alone.
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
    # bound is proportional to quad.value^(-1/(alpha - 1))
    bound_error = quad.error_estimate / ((alpha - 1.0) * quad.value)

    ceiling = bound * (1e-5 * (alpha - 1.0)) ** (-1.0 / (alpha - 1.0))
    ceiling = max(ceiling, 10.0 * xi0 + 1.0)
    solves = 0

    def ivp(*args, **kwargs):
        nonlocal solves
        solves += 1
        return solve_ivp(*args, **kwargs, rtol=1e-10, atol=1e-12)

    def slope(r, xi, m):
        return ((m + xi[0]) / (c_star * weight_fn(r))) ** alpha

    def hit(r, xi, m):
        return xi[0] - ceiling

    hit.terminal = True

    def stays_finite(m: float) -> bool:
        sol = ivp(slope, (a, b), [xi0], events=hit, args=(m,))
        return sol.status == 0 and sol.y[0, -1] < ceiling

    def radius_slope(xi, r, m):
        return (c_star * weight_fn(min(r[0], b)) / (m + xi)) ** alpha

    def blowup_radius(m: float) -> float:
        return ivp(radius_slope, (xi0, ceiling), [a], args=(m,)).y[0, -1] - b

    def report(witness, bracket):
        return InequalityWitnessReport(bound, witness, bracket, bound_error, solves)

    lo, hi = 0.0, max(bound - xi0, 0.0)
    if stays_finite(hi):
        return report(hi, (hi, math.inf))
    try:
        root = brentq(blowup_radius, 0.5 * hi, hi, xtol=1e-12 * hi) if hi > 0 else None
    except ValueError:  # no sign change on [0.5, 1] hi
        root = None
    if root is not None:
        # root -+ 4e-10 root brackets to 8e-10 relative: at -+ 5e-10 rounding
        # would decide whether the bracket needs one more bisection
        step = 4e-10 * root
        lo = root - step
        while lo > 0.0 and not stays_finite(lo):
            hi, step = lo, 2.0 * step
            lo = max(root - step, 0.0)
        step = 4e-10 * root
        while root + step < hi and stays_finite(root + step):
            lo, step = root + step, 2.0 * step
        hi = min(root + step, hi)
    if lo == 0.0 and not stays_finite(lo):
        return report(0.0, (0.0, 0.0))
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if stays_finite(mid):
            lo = mid
        else:
            hi = mid
    return report(lo, (lo, hi))
