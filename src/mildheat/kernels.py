"""Heat kernels with absorbing boundary on explicit domains.

Three domains are supported: all of R^N, the half-space {x_N > 0}, and a
finite interval (0, L).  Every kernel sum runs over one list of signed
image sources, ``images``: the kernel at y is the sum of sign * g_t(pos - y)
with g_t the free Gaussian.  The half-space has the source and its mirror
image; its point formula is their closed form, the Gaussian times a
reflection factor written with expm1, which does not cancel near the
wall.  The interval has the images of source and mirror under the shifts
2kL for k = -m..m, with the single truncation rule

    m = max(1, ceil((L + sqrt(4 t ln 1e16)) / (2L))),

so every image left out carries a Gaussian factor below 1e-16.  The
tests check every image sum against an independent eigenfunction series
(``tests/oracles.py``).  On top of the plain kernel sits the
boundary-weighted kernel, the kernel divided by the boundary distance of
its second argument, which extends continuously up to the boundary where
it becomes the inward normal derivative.  That closed form is re-derived here and validated in
the tests against the defining limit.

Also provided: total surviving mass (the kernel integrated in its second
argument, which is strictly below 1 once absorption is felt), a semigroup
composition check driven by the quadrature module, and a sampled
certification that the kernel obeys two-sided Gaussian-profile bounds
with distance factors.  The ``kernel-check`` command reports the last
two.

All evaluations are pure functions; t below 1e-12 is rejected everywhere
because the exponentials are no longer resolvable in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .quadrature import HalfSpaceBox, integrate

__all__ = [
    "WholeSpace",
    "HalfSpace",
    "Interval",
    "Domain",
    "SemigroupReport",
    "KernelBoundsCert",
    "space_dim",
    "boundary_distance",
    "tail_radius",
    "images",
    "heat_kernel",
    "weighted_kernel",
    "normal_derivative",
    "kernel_values",
    "survival_mass",
    "verify_semigroup",
    "certify_gaussian_bounds",
]

T_FLOOR = 1e-12
# truncation target for the image series (and the eigenfunction series
# of the test oracles); remainders
# beyond this are below double-precision noise of the leading term
_SERIES_TAU = 1e-16
_LOG_TAU = math.log(1.0 / _SERIES_TAU)


@dataclass(frozen=True)
class WholeSpace:
    dim: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")


@dataclass(frozen=True)
class HalfSpace:
    """{x in R^N : x_N >= 0} with absorbing boundary {x_N = 0}."""

    dim: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")


@dataclass(frozen=True)
class Interval:
    """(0, L) with absorbing endpoints."""

    length: float

    def __post_init__(self):
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError("interval length must be positive and finite")


Domain = Union[WholeSpace, HalfSpace, Interval]


def space_dim(domain: Domain) -> int:
    return 1 if isinstance(domain, Interval) else domain.dim


def boundary_distance(domain: Domain, y):
    """Distance to the absorbing boundary; +inf when there is none.

    Accepts a single point (shape (N,)) or a stack of points (m, N).
    """
    y = np.asarray(y, dtype=float)
    if isinstance(domain, WholeSpace):
        shape = y.shape[:-1] if y.ndim > 1 else ()
        out = np.full(shape, np.inf)
        return out if shape else float("inf")
    if isinstance(domain, HalfSpace):
        d = y[..., -1]
        return float(d) if np.ndim(d) == 0 else d
    d = np.minimum(y[..., 0], domain.length - y[..., 0])
    return float(d) if np.ndim(d) == 0 else d


def _require_time(t: float) -> float:
    t = float(t)
    if not t >= T_FLOOR:
        raise ValueError(f"t must be >= {T_FLOOR}, got {t}")
    return t


def _check_point(domain: Domain, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    n = space_dim(domain)
    if x.size != n:
        raise ValueError(f"point has {x.size} coordinates, domain needs {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    if boundary_distance(domain, x) < 0:
        raise ValueError("point lies outside the closed domain")
    return x


def tail_radius(t: float, tol: float) -> float:
    """Radius beyond which the Gaussian factor is below tol * 1e-2.

    Spatial integrals of kernel expressions may be truncated at this
    distance from the relevant centers.
    """
    if not (t > 0 and tol > 0):
        raise ValueError("t and tol must be positive")
    tau = tol * 1e-2
    return math.sqrt(4.0 * t * max(math.log(1.0 / tau), 1.0))


def images(domain: Domain, x, t: float) -> list:
    """Signed image sources of the kernel from x: (sign, pos) pairs with

        G(x, y, t) = sum of sign * g_t(pos - y),

    g_t the free Gaussian.  ``x`` is one point (N,) or a stack (..., N),
    and on the interval also a number.  There the pairs run over
    k = -m..m, source image x - 2kL before mirror image 2kL - x, with the
    truncation rule of the module docstring."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    if isinstance(domain, WholeSpace):
        return [(1.0, x)]
    if isinstance(domain, HalfSpace):
        mirror = x.copy()
        mirror[..., -1] = -mirror[..., -1]
        return [(1.0, x), (-1.0, mirror)]
    L = domain.length
    m = max(1, math.ceil((L + math.sqrt(4.0 * t * _LOG_TAU)) / (2.0 * L)))
    out = []
    for k in range(-m, m + 1):
        out += [(1.0, x - 2.0 * k * L), (-1.0, 2.0 * k * L - x)]
    return out


# ---------------------------------------------------------------------------
# plain kernel


def heat_kernel(domain: Domain, x, y, t: float) -> float:
    """Kernel value at a single pair of points.

    Exactly zero (short-circuit, no series evaluation) when either
    argument lies on the absorbing boundary.
    """
    t = _require_time(t)
    x = _check_point(domain, x)
    y = _check_point(domain, y)
    if boundary_distance(domain, x) == 0.0 or boundary_distance(domain, y) == 0.0:
        return 0.0
    c = (4.0 * math.pi * t) ** (-space_dim(domain) / 2.0)
    if not isinstance(domain, Interval):
        q = float(np.dot(x - y, x - y))
        g = c * math.exp(-q / (4.0 * t))
        if isinstance(domain, WholeSpace):
            return g
        return g * -math.expm1(-x[-1] * y[-1] / t)
    # images of the smaller point, so swapping x and y is exactly symmetric;
    # fsum rounds the whole series once, whatever its cancellation
    lo, hi = sorted((float(x[0]), float(y[0])))
    return math.fsum(
        sign * c * math.exp(-((pos - hi) ** 2) / (4.0 * t))
        for sign, pos in images(domain, lo, t)
    )


def kernel_values(domain: Domain, x, ys, t: float) -> np.ndarray:
    """Kernel between one point x and a stack of points ys, shape (m, N)."""
    t = _require_time(t)
    x = _check_point(domain, x)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    c = (4.0 * math.pi * t) ** (-space_dim(domain) / 2.0)
    if isinstance(domain, HalfSpace):
        diff = ys - x
        q = np.einsum("ij,ij->i", diff, diff)
        return c * np.exp(-q / (4.0 * t)) * -np.expm1(-x[-1] * ys[:, -1] / t)
    out = np.zeros(ys.shape[0])
    for sign, pos in images(domain, x, t):
        diff = ys - pos
        out += sign * np.exp(-np.einsum("ij,ij->i", diff, diff) / (4.0 * t))
    out *= c
    np.maximum(out, 0.0, out=out)  # clear series round-off below zero
    out[boundary_distance(domain, ys) == 0.0] = 0.0
    return out


# ---------------------------------------------------------------------------
# boundary-weighted kernel


def _project_boundary(domain: Domain, y):
    y = np.array(y, dtype=float).reshape(-1)
    if isinstance(domain, HalfSpace):
        y[-1] = 0.0
        return y
    L = domain.length
    y[0] = 0.0 if y[0] <= L - y[0] else L
    return y


def normal_derivative(domain: Domain, xs, y, t: float) -> np.ndarray:
    """Inward normal derivative in y of the kernel G(x, y, t) at the
    boundary point nearest y, for a stack of points xs (m, N): the value
    of the weighted kernel at boundary y.  Differentiates every image
    term, d/dy g_t(pos - y) = g_t(pos - y) (pos - y) / (2t)."""
    if isinstance(domain, WholeSpace):
        raise ValueError("weighted kernel needs a domain with boundary")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    yb = _project_boundary(domain, y)
    normal = np.zeros(yb.size)
    normal[-1] = 1.0 if isinstance(domain, HalfSpace) or yb[0] == 0.0 else -1.0
    out = np.zeros(xs.shape[0])
    for sign, pos in images(domain, xs, t):
        diff = pos - yb
        q = np.einsum("ij,ij->i", diff, diff)
        out += sign * (diff @ normal) * np.exp(-q / (4.0 * t))
    return out * ((4.0 * math.pi * t) ** (-space_dim(domain) / 2.0) / (2.0 * t))


def weighted_kernel(domain: Domain, x, y, t: float) -> float:
    """Kernel divided by the boundary distance of y, extended continuously
    to boundary y by the inward normal derivative.

    For y so close to the boundary that the ratio would cancel
    catastrophically (d(y) below 1e-6 of d(y)+sqrt(t)) the boundary closed
    form at the projection of y is used instead.
    """
    t = _require_time(t)
    if isinstance(domain, WholeSpace):
        raise ValueError("weighted kernel needs a domain with boundary")
    x = _check_point(domain, x)
    y = _check_point(domain, y)
    if boundary_distance(domain, x) == 0.0:
        return 0.0
    d = boundary_distance(domain, y)
    if d >= 1e-6 * (d + math.sqrt(t)):
        return heat_kernel(domain, x, y, t) / d
    return float(normal_derivative(domain, x[None, :], y, t)[0])


# ---------------------------------------------------------------------------
# structural identities


def survival_mass(domain: Domain, x, t: float) -> float:
    """Integral of the kernel in its second argument: the mass of a unit
    point source that has not yet been absorbed.  Always in [0, 1], and
    exactly 0 on the absorbing boundary."""
    t = _require_time(t)
    x = _check_point(domain, x)
    if isinstance(domain, WholeSpace):
        return 1.0
    if boundary_distance(domain, x) == 0.0:
        return 0.0
    if isinstance(domain, HalfSpace):
        return math.erf(x[-1] / (2.0 * math.sqrt(t)))
    # every image's Gaussian integrated over (0, L)
    L, r = domain.length, 2.0 * math.sqrt(t)
    mass = math.fsum(
        sign * 0.5 * (math.erf(pos / r) - math.erf((pos - L) / r))
        for sign, pos in images(domain, float(x[0]), t)
    )
    return min(max(mass, 0.0), 1.0)


@dataclass(frozen=True)
class SemigroupReport:
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    quad_error: float
    evaluations: int


def verify_semigroup(
    domain: Domain,
    x,
    y,
    t: float,
    s: float,
    tol: float = 1e-8,
    weighted: bool = False,
) -> SemigroupReport:
    """Check the composition identity: the kernel at time t+s must equal
    the kernel at time t integrated against the kernel at time s.

    With ``weighted=True`` the second factor is the boundary-weighted
    kernel (y may then be a boundary point).
    """
    t = _require_time(t)
    s = _require_time(s)
    x = _check_point(domain, x)
    y = _check_point(domain, y)
    if weighted:
        lhs = weighted_kernel(domain, x, y, t + s)
    else:
        lhs = heat_kernel(domain, x, y, t + s)

    if weighted:
        dy = boundary_distance(domain, y)

        def second(zs):
            if dy >= 1e-6 * (dy + math.sqrt(s)):
                return kernel_values(domain, y, zs, s) / dy
            # boundary y: normal-derivative form, first slot running
            return normal_derivative(domain, zs, y, s)

    else:

        def second(zs):
            return kernel_values(domain, y, zs, s)

    def integrand(zs, _off):
        return kernel_values(domain, x, zs, t) * second(zs)

    r = max(tail_radius(t, tol), tail_radius(s, tol))
    if isinstance(domain, Interval):
        lo, hi = (0.0,), (domain.length,)
    else:
        lo = tuple(min(x[k], y[k]) - r for k in range(space_dim(domain)))
        hi = tuple(max(x[k], y[k]) + r for k in range(space_dim(domain)))
        if isinstance(domain, HalfSpace):
            lo = lo[:-1] + (0.0,)
            hi = hi[:-1] + (max(hi[-1], 1e-8),)
    quad_tol = tol * max(abs(lhs), 1e-12)
    res = integrate(integrand, HalfSpaceBox(lo, hi), quad_tol)
    abs_res = abs(lhs - res.value)
    rel_res = abs_res / abs(lhs) if lhs != 0 else abs_res
    return SemigroupReport(
        lhs=lhs,
        rhs=res.value,
        abs_residual=abs_res,
        rel_residual=rel_res,
        quad_error=res.error_estimate,
        evaluations=res.evaluations,
    )


@dataclass(frozen=True)
class KernelBoundsCert:
    """Sampled certificate that the kernel sits between two Gaussian
    profiles with boundary-distance factors:

        amplitude^-1 * P(rate) <= G <= amplitude * P_upper(rate)

    where P carries t^(-N/2), the factors d/(d+sqrt(t)) in both
    arguments, and exp(-|x-y|^2 * rate/16 / t) below versus
    exp(-|x-y|^2 / (rate*t)) above.  rate = 4 makes both profiles the
    exact free Gaussian decay."""

    amplitude: float
    rate: float
    sample_count: int
    max_violation: float


def certify_gaussian_bounds(
    domain: Domain, samples: Iterable, horizon: float
) -> KernelBoundsCert:
    """Fit the smallest sampled two-sided bound constants.

    ``samples`` yields (x, y, t) triples with 0 < t < horizon.  Constants
    come from per-sample ratio extremes (deterministic, no optimization).
    Samples where either point is on the boundary constrain nothing (both
    sides vanish) and are skipped.
    """
    if isinstance(domain, WholeSpace):
        raise ValueError("certification needs a domain with boundary")
    n = space_dim(domain)
    rows = []
    count = 0
    for x, y, t in samples:
        t = float(t)
        if not 0 < t < horizon:
            raise ValueError(f"sample time {t} outside (0, {horizon})")
        t = _require_time(t)
        x = _check_point(domain, x)
        y = _check_point(domain, y)
        count += 1
        dx = boundary_distance(domain, x)
        dy = boundary_distance(domain, y)
        if dx == 0.0 or dy == 0.0:
            continue
        g = heat_kernel(domain, x, y, t)
        rt = math.sqrt(t)
        dfac = (dx / (dx + rt)) * (dy / (dy + rt))
        q = float(np.dot(x - y, x - y))
        rows.append((g, t ** (-n / 2.0) * dfac, q / t))
    if not rows:
        raise ValueError("no interior samples to certify")

    arr = np.array(rows)
    g, prof, qt = arr[:, 0], arr[:, 1], arr[:, 2]
    best = None
    for rate in (4.0, 5.0, 6.0, 8.0, 12.0, 16.0):
        up = prof * np.exp(-qt / rate)
        low = prof * np.exp(-qt * rate / 16.0)
        # samples where kernel and profiles all underflow constrain nothing
        ok = (g > 0) & (up > 0) & (low > 0)
        if not np.any(ok):
            continue
        r_up = g[ok] / up[ok]
        r_low = g[ok] / low[ok]
        c1 = max(1.0, float(np.max(r_up)), 1.0 / float(np.min(r_low)))
        c1 *= 1.0 + 1e-12  # keep the extremal samples strictly inside
        if best is None or c1 < best[0]:
            best = (c1, rate, up, low, ok)
        if c1 <= 1e6:
            best = (c1, rate, up, low, ok)
            break
    if best is None:
        raise ValueError("all samples underflow double precision")
    c1, rate, up, low, ok = best
    viol = np.maximum(g[ok] - c1 * up[ok], low[ok] / c1 - g[ok])
    return KernelBoundsCert(
        amplitude=c1,
        rate=rate,
        sample_count=count,
        max_violation=float(np.max(viol)),
    )
