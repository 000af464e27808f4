"""A differential-inequality threshold bound and its ODE witness.

``differential_inequality_bound`` evaluates the closed-form threshold for
the constant m in  m + xi(r) <= c * w(r) * xi'(r)^(1/alpha),  w a positive
weight, and produces an ODE witness: the largest m for which the
equality ODE still has a finite solution.  One predicate decides
finiteness: the ODE in r, stopped when xi reaches a ceiling.  Brent's
method on a continuous form of the same question (the radius at which
xi reaches the ceiling, integrated in the variable s = ln(m + xi))
proposes where the transition lies; the predicate then checks both ends
of a narrow bracket about that root, widening it until they straddle the
transition, and bisects it to 1e-9 relative.  Where the radius does not
change sign on its search interval the witness is bisected by the
predicate alone.

Both ODEs have one unknown, so they are integrated by ``solve_ivp``, a
scalar Dormand-Prince 5(4) stepper in plain floats (J. R. Dormand and
P. J. Prince, J. Comput. Appl. Math. 6, 1980; step control as in Hairer,
Norsett and Wanner, Solving ODEs I, Sec. II.4).  It follows the rules of
scipy's ``RK45`` step for step, so it takes the steps scipy's
``solve_ivp`` would, without its per-step array overhead.  The name is
kept because it is the module's one integration seam: wrapping
``cutoffs.solve_ivp`` sees every solve and its right-hand-side count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import integrate_time

__all__ = [
    "InequalityWitnessReport",
    "differential_inequality_bound",
]

# The Dormand-Prince 5(4) tableau as scipy's RK45 writes it: stage nodes,
# stage coefficients, the fifth-order weights (the second weight is 0) and
# the error weights of the embedded fourth-order pair, the last one for the
# right-hand side at the new point (first same as last).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
)
# step control: safety factor, bounds on the step ratio, error exponent
# -1/(order of the error estimator + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1 / 5


class _Solution(NamedTuple):
    """``status`` 0: reached t1; 1: stopped at the ceiling; -1: the step
    fell below 10 ulp(t).  ``t`` and ``y`` are the last accepted point,
    ``nfev`` the right-hand sides evaluated."""

    status: int
    t: float
    y: float
    nfev: int


def _rhs(fun, t, y, args):
    """fun(t, y, *args), an overflow read as inf, as float64 arithmetic gives it."""
    try:
        return fun(t, y, *args)
    except OverflowError:
        return math.inf


def solve_ivp(fun, t0, t1, y0, *, rtol, atol, args=(), ceiling=math.inf) -> _Solution:
    """Integrate the scalar ODE y' = fun(t, y, *args) from y(t0) = y0 to t1 > t0.

    The steps are those of scipy's ``RK45`` at the same tolerances:
    Hairer's initial step, the error scale atol + rtol max(|y|, |y_new|)
    (scipy's RMS norm of one component is its absolute value),
    a step accepted when the error norm is below 1 and resized by
    0.9 err^(-1/5) within [0.2, 10], never grown after a rejection of the
    same step, the last step clipped to t1, and failure (status -1) once
    the step falls below 10 ulp(t).  The integration stops with status 1
    after the first accepted step across ``ceiling``, where g = y - ceiling
    goes from g <= 0 to g >= 0 (scipy's terminal event of direction 0; the
    point returned is that step's end, not the crossing).  The stage sums
    run left to right, where numpy's dot fuses multiply and add, so values
    agree with scipy's to rounding, and a step decision could differ only
    where the error norm sits within rounding of 1."""
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    t, y = float(t0), float(y0)
    k1 = _rhs(fun, t, y, args)
    # Hairer's initial step, order 4 error estimator
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y / scale), abs(k1 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t)
    d2 = abs((_rhs(fun, t + h0, y + h0 * k1, args) - k1) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t1 - t)

    g = y - ceiling
    attempts = 0  # each attempt evaluates stages 2..7; stage 1 is the last step's 7
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return _Solution(-1, t, y, 2 + 6 * attempts)
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = h
            attempts += 1
            k2 = _rhs(fun, t + _C2 * h, y + (_A21 * k1) * h, args)
            k3 = _rhs(fun, t + _C3 * h, y + (_A31 * k1 + _A32 * k2) * h, args)
            k4 = _rhs(fun, t + _C4 * h, y + (_A41 * k1 + _A42 * k2 + _A43 * k3) * h, args)
            k5 = _rhs(fun, t + _C5 * h,
                      y + (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4) * h, args)
            k6 = _rhs(fun, t + h,
                      y + (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5) * h,
                      args)
            y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k7 = _rhs(fun, t + h, y_new, args)
            err = (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7) * h
            err_norm = abs(err / (atol + max(abs(y), abs(y_new)) * rtol))
            if err_norm < 1:
                factor = (_MAX_FACTOR if err_norm == 0
                          else min(_MAX_FACTOR, _SAFETY * err_norm ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err_norm ** _EXPONENT)
            rejected = True
        t, y, k1 = t_new, y_new, k7
        g_new = y - ceiling
        if g <= 0 <= g_new or g_new <= 0 <= g:
            return _Solution(1, t, y, 2 + 6 * attempts)
        if t >= t1:
            return _Solution(0, t, y, 2 + 6 * attempts)
        g = g_new


def brentq(f, a: float, b: float, **options) -> float:
    """scipy's ``brentq``, imported on first use; the module's one root
    finder, kept as a module attribute so that a caller can replace it."""
    from scipy.optimize import brentq as root

    return root(f, a, b, **options)


@dataclass(frozen=True)
class InequalityWitnessReport:
    """Closed-form threshold and its ODE witness.

    ``bound`` is the largest constant m compatible with
    m + xi(r) <= c_star * w(r) * xi'(r)^(1/alpha) on (a, b) for a
    nondecreasing nonnegative xi.  ``witness`` is the largest m (up to
    the bracket width, at most 1e-9 relative) for which the equality ODE
    stays finite on [a, b]; mathematically witness = bound - xi0, so
    witness <= bound always.  ``bound_error`` is the relative error of
    ``bound`` propagated from the quadrature's error estimate,
    ``solves`` the number of ODE solves the witness took and
    ``rhs_evals`` the right-hand sides those solves evaluated."""

    bound: float
    witness: float
    bracket: tuple
    bound_error: float
    solves: int
    rhs_evals: int


def differential_inequality_bound(
    a: float,
    b: float,
    weight_fn: Callable[[float], float],
    c_star: float,
    alpha: float,
    xi0: float = 0.0,
) -> InequalityWitnessReport:
    """Threshold for m in  m + xi(r) <= c_star * w(r) * xi'(r)^(1/alpha).

    The weight must be positive on [a, b], and the integral of w^-alpha
    over it must meet its tolerance, or ValueError is raised.  The
    blow-up ceiling is calibrated so the witness sits about 1e-5
    relatively below the analytic threshold bound - xi0; that keeps the
    solver's own error (orders of magnitude smaller) from ever pushing
    it past the bound.

    ``stays_finite(m)`` (the equality ODE in r, stopped at the ceiling)
    decides every end of the reported bracket.  Should it hold at
    bound - xi0, that end is reported as an open bracket.  Otherwise
    Brent's method finds the root of the blow-up radius r(ceiling; m) - b
    on [0.5, 1] (bound - xi0).  The radius is integrated in s = ln(m + xi),
    dr/ds = (c_star w(min(r, b)))^alpha e^((1 - alpha) s) from ln(m + xi0)
    to ln(m + ceiling), w held at w(b) beyond b.  In s the slope decays
    geometrically; in xi the same solve spans up to 60 decades near
    alpha = 1, and at alpha = 1.1 its root sat 5e-8 relative off the
    predicate's transition, which cost 20 solves instead of 10.  The
    radius is continuous and decreasing in m, and positive exactly where
    the ODE stays finite.  The predicate checks root -+ 4e-10 root, steps
    a wrong end outward geometrically until the two straddle the
    transition, and bisects to 1e-9 relative.  Where the radius does not
    change sign on that interval, the predicate bisects [0, bound - xi0]
    alone.  Both ODEs go through the module's scalar stepper ``solve_ivp``
    at rtol 1e-10, atol 1e-12.
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
    if not quad.converged:
        raise ValueError(f"the integral of w^-alpha on [{a:.6g}, {b:.6g}] missed its tolerance "
                         f"(estimate {quad.error_estimate:.3g})")
    bound = (
        c_star ** (alpha / (alpha - 1.0))
        * (1.0 / (alpha - 1.0)) ** (1.0 / (alpha - 1.0))
        * quad.value ** (-1.0 / (alpha - 1.0))
    )
    # bound is proportional to quad.value^(-1/(alpha - 1))
    bound_error = quad.error_estimate / ((alpha - 1.0) * quad.value)

    ceiling = bound * (1e-5 * (alpha - 1.0)) ** (-1.0 / (alpha - 1.0))
    ceiling = max(ceiling, 10.0 * xi0 + 1.0)
    solves = rhs_evals = 0

    def ivp(*args, **kwargs):
        nonlocal solves, rhs_evals
        sol = solve_ivp(*args, **kwargs, rtol=1e-10, atol=1e-12)
        solves += 1
        rhs_evals += sol.nfev
        return sol

    def slope(r, xi, m):
        return ((m + xi) / (c_star * weight_fn(r))) ** alpha

    def stays_finite(m: float) -> bool:
        sol = ivp(slope, a, b, xi0, args=(m,), ceiling=ceiling)
        return sol.status == 0 and sol.y < ceiling

    def radius_slope(s, r):
        return (c_star * weight_fn(min(r, b))) ** alpha * math.exp((1.0 - alpha) * s)

    def blowup_radius(m: float) -> float:
        return ivp(radius_slope, math.log(m + xi0), math.log(m + ceiling), a).y - b

    def report(witness, bracket):
        return InequalityWitnessReport(bound, witness, bracket, bound_error, solves, rhs_evals)

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
