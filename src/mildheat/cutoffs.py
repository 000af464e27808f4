"""Smooth cut-off machinery and a differential-inequality threshold bound.

The building block is the classical smooth step built from f(s) = e^(-1/s):
eta(s) = f(2-s) / (f(2-s) + f(s-1)) equals 1 on [0,1], vanishes on [2,oo)
and decreases smoothly in between.  Its tail variant eta_star is zero
below s=1 and equals eta from there on; the point of the pair is that
eta's derivatives are controlled by a power of eta_star, which is what
lets localized space-time test functions absorb derivative losses.

From the step we build a space-time bump: a function of
(2|x-z|^2 + 2t)/scale, equal to 1 near (z, 0) and supported where
|x-z|^2 + t < scale.  Closed-form first and second derivatives are
implemented by hand (quotient rule on the f-expressions); finite
differences are useless here because everything vanishes to infinite
order at the support edges.

`verify_derivative_bounds` measures the smallest constants bounding the
time derivative, gradient and Laplacian of the bump against
tail^(1/p), in the scalings that make them scale-free.  `
differential_inequality_bound` evaluates the closed-form threshold for
the constant m in  m + xi(r) <= c * eta(r) * xi'(r)^(1/alpha)  and
produces an ODE witness: the largest m for which the equality ODE still
has a finite solution, located by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .quadrature import integrate_time

__all__ = [
    "smooth_step",
    "smooth_step_tail",
    "smooth_step_derivatives",
    "CutoffParams",
    "BumpJet",
    "bump_value",
    "bump_tail",
    "bump_jet",
    "DerivativeBoundReport",
    "verify_derivative_bounds",
    "InequalityWitnessReport",
    "differential_inequality_bound",
]

# e^(-1/s) underflows double precision near s = 1/700; both sides of the
# derivative bounds vanish there, so values clamp to exact zero
_CLAMP = 1.0 / 700.0


def _f(u: float) -> float:
    if u <= _CLAMP:
        return 0.0
    return math.exp(-1.0 / u)


def _f1(u: float) -> float:
    if u <= _CLAMP:
        return 0.0
    return math.exp(-1.0 / u) / (u * u)


def _f2(u: float) -> float:
    if u <= _CLAMP:
        return 0.0
    return math.exp(-1.0 / u) * (1.0 / u**4 - 2.0 / u**3)


def smooth_step(s: float) -> float:
    """1 on (-oo, 1], 0 on [2, oo), smooth and decreasing in between."""
    if s <= 1.0:
        return 1.0
    if s >= 2.0:
        return 0.0
    a = _f(2.0 - s)
    b = _f(s - 1.0)
    if a == 0.0:
        return 0.0
    return a / (a + b)


def smooth_step_tail(s: float) -> float:
    """0 below s=1, the step value from there on."""
    if s < 1.0:
        return 0.0
    return smooth_step(s)


def smooth_step_derivatives(s: float):
    """(value, first, second) of the step at s, by closed-form quotient
    rule; exact zeros outside (1, 2)."""
    if s <= 1.0:
        return 1.0, 0.0, 0.0
    if s >= 2.0:
        return 0.0, 0.0, 0.0
    a, b = _f(2.0 - s), _f(s - 1.0)
    if a == 0.0 and b == 0.0:
        return 0.0, 0.0, 0.0
    a1, b1 = -_f1(2.0 - s), _f1(s - 1.0)
    a2, b2 = _f2(2.0 - s), _f2(s - 1.0)
    den = a + b
    num = a1 * b - a * b1
    d1 = num / den**2
    d2 = (a2 * b - a * b2) / den**2 - 2.0 * num * (a1 + b1) / den**3
    return a / den, d1, d2


@dataclass(frozen=True)
class CutoffParams:
    """Scale, comparison exponent and center of a space-time bump."""

    scale: float
    exponent: float
    center: tuple = (0.0,)

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if not self.exponent > 1:
            raise ValueError("exponent must exceed 1")


@dataclass(frozen=True)
class BumpJet:
    value: float
    time_deriv: float
    gradient: tuple
    laplacian: float


def _bump_arg(params: CutoffParams, x, t: float):
    x = np.asarray(x, dtype=float).reshape(-1)
    z = np.asarray(params.center, dtype=float).reshape(-1)
    if x.size != z.size:
        raise ValueError("point dimension does not match the bump center")
    dx = x - z
    q = float(np.dot(dx, dx))
    return dx, q, (2.0 * q + 2.0 * t) / params.scale


def bump_value(params: CutoffParams, x, t: float) -> float:
    if t < 0:
        raise ValueError("t must be nonnegative")
    return smooth_step(_bump_arg(params, x, t)[2])


def bump_tail(params: CutoffParams, x, t: float) -> float:
    if t < 0:
        raise ValueError("t must be nonnegative")
    return smooth_step_tail(_bump_arg(params, x, t)[2])


def bump_jet(params: CutoffParams, x, t: float) -> BumpJet:
    """Value, time derivative, spatial gradient and Laplacian at (x, t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    dx, q, s = _bump_arg(params, x, t)
    n = dx.size
    r = params.scale
    if q + t >= r:  # outside the support: everything is exactly zero
        return BumpJet(0.0, 0.0, tuple(0.0 for _ in range(n)), 0.0)
    val, d1, d2 = smooth_step_derivatives(s)
    return BumpJet(
        value=val,
        time_deriv=d1 * 2.0 / r,
        gradient=tuple(d1 * 4.0 * c / r for c in dx),
        laplacian=d2 * 16.0 * q / r**2 + d1 * 4.0 * n / r,
    )


@dataclass(frozen=True)
class DerivativeBoundReport:
    """Smallest empirical constants C with, on the sampled support annulus,

        |d/dt bump|      <= C / scale            * tail^(1/p)
        |grad bump|      <= C |x-z| / scale      * tail^(1/p)
        |Laplacian bump| <= C / scale            * tail^(1/p)

    These normalizations are the scale-free ones, so the constants are
    invariant under rescaling by construction of the bump."""

    time_constant: float
    gradient_constant: float
    laplacian_constant: float
    exponent: float
    scale: float
    samples: int


def verify_derivative_bounds(
    params: CutoffParams, n_arg: int = 80, n_mix: int = 21, dim: int = 1
) -> DerivativeBoundReport:
    """Maximize the three bound ratios over a deterministic grid of the
    support annulus (step argument in (1, 2), all space/time mixes)."""
    r = params.scale
    p = params.exponent
    z = np.asarray(params.center, dtype=float).reshape(-1)
    if z.size != dim:
        z = np.zeros(dim)
        params = CutoffParams(scale=r, exponent=p, center=tuple(z))
    ct = cg = cl = 0.0
    count = 0
    for s in np.linspace(1.0 + 1e-9, 2.0 - 1e-9, n_arg):
        for frac in np.linspace(0.0, 1.0, n_mix):
            # s = (2q + 2t)/r split between space (frac) and time
            q = 0.5 * s * r * frac
            t = 0.5 * s * r * (1.0 - frac)
            x = z.copy()
            x[0] += math.sqrt(q)
            jet = bump_jet(params, x, t)
            tail = bump_tail(params, x, t)
            count += 1
            if tail == 0.0:
                # clamp region: the bounds hold as 0 <= 0 by construction
                assert jet.time_deriv == 0.0 and jet.laplacian == 0.0
                continue
            w = tail ** (1.0 / p)
            ct = max(ct, abs(jet.time_deriv) * r / w)
            gnorm = math.sqrt(sum(g * g for g in jet.gradient))
            if q > 0:
                cg = max(cg, gnorm * r / (math.sqrt(q) * w))
            cl = max(cl, abs(jet.laplacian) * r / w)
    return DerivativeBoundReport(
        time_constant=ct,
        gradient_constant=cg,
        laplacian_constant=cl,
        exponent=p,
        scale=r,
        samples=count,
    )


@dataclass(frozen=True)
class InequalityWitnessReport:
    """Closed-form threshold and its ODE witness.

    ``bound`` is the largest constant m compatible with
    m + xi(r) <= c_star * eta(r) * xi'(r)^(1/alpha) on (a, b) for a
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
        lambda s, _ds: np.array([weight_fn(v) ** -alpha for v in np.atleast_1d(s)]),
        a,
        b,
        1e-12,
        relative=True,
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
