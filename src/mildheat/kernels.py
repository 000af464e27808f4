"""Heat kernels with absorbing boundary on explicit domains.

Three domains are supported: all of R^N, the half-space {x_N > 0}, and a
finite interval (0, L).  Every kernel sum in this module runs over one
list of signed image sources, ``images``: the kernel at y is the sum of
sign * g_t(pos - y) with g_t the free Gaussian.  The half-space has the
source and its mirror, summed in closed form as the Gaussian times a
reflection factor written with expm1, which does not cancel near the
wall; the interval has the images of both under the shifts 2kL, k =
-m..m, which ``kernel_values`` sums a source and mirror pair at a time
in the same closed form, so that a point next to either wall keeps its
digits.  The solver's transport matrices are these image sums at every
time, and its kernel sums use them too, except on its sine interval
[0, L] at t >= tau_s L^2, the switch of ``solver._mode_count``: there
the data's evolution, the memory integral and the restart check apply
the eigenfunction series (2/L) sum_k sin(omega x) sin(omega y)
exp(-omega^2 t), omega = k pi / L, in mode space, on the interval
itself or on the half-line on an interval that ends at a virtual wall
beyond the reach of the nodes (``solver._sine_interval``).
One reach, ``_reach(t) = sqrt(4 t ln 1e16)``, beyond which g_t is below
1e-16 of its peak, sets every truncation: m = max(1, ceil((L +
_reach(t)) / (2L))), the mode count K = ceil(L _reach(t) / (2 pi t)) +
1 (exp(-omega_K^2 t) <= 1e-16), the solver's cell windows and the
semigroup check's box.  The tests check every image sum against an
eigenfunction series (``tests/oracles.py``).

Each domain states where its walls are once: ``bounds``, the extent of
the last axis, is (-inf, inf), (0, inf) or (0, L), and its finite ends
are the walls, ``walls(domain)``.  Every module asks these where the
walls are; only formulas that differ by kind test the kind.
``boundary_distance`` keeps a form per kind: in the quadrature's
integrands the half-space's slice x_N beats the smaller of two
differences from ``bounds`` by about 10% of a borderline moment check.

Each kernel has one evaluator, on a stack of points: ``kernel_values``
(G), ``normal_derivative`` (G's inward normal derivative in y at the wall)
and ``_over_distance`` (G / d(y), switching to the normal derivative
below d(y) = 1e-6 (d(y) + sqrt t)).  ``heat_kernel`` and
``weighted_kernel`` are one-point views of them, exactly zero on the wall.
Also provided: surviving mass, a semigroup composition check driven by
the quadrature module, and sampled two-sided Gaussian bounds.

The ``kernel-check`` rows compare: ``symmetry``, ``kernel_values`` from x
at y against from y at x (different image lists; on the interval the
same pairs, set by the point nearer a wall); ``boundary_zero``,
``kernel_values`` from a wall source through its whole image series;
``semigroup`` and ``weighted_semigroup``, ``verify_semigroup``;
``survival_mass`` (one dimension with a wall), its closed form against
quadrature of ``kernel_values`` up to the reach; ``gaussian_bounds``, the
fitted amplitude.  t below 1e-12 is rejected everywhere because the
exponentials are no longer resolvable in double precision.
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
    "walls",
    "boundary_distance",
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
# the image series (and the test oracles' eigenfunction series) stop where
# every term left out is below 1e-16 of the leading one
_LOG_TAU = math.log(1.0 / 1e-16)


def _reach(t: float) -> float:
    """Distance beyond which the free Gaussian g_t is below 1e-16 of its
    peak: the one truncation rule of every kernel sum and integral."""
    return math.sqrt(4.0 * t * _LOG_TAU)


@dataclass(frozen=True)
class WholeSpace:
    dim: int
    bounds = (-math.inf, math.inf)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")


@dataclass(frozen=True)
class HalfSpace:
    """{x in R^N : x_N >= 0} with absorbing boundary {x_N = 0}."""

    dim: int
    bounds = (0.0, math.inf)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")


@dataclass(frozen=True)
class Interval:
    """(0, L) with absorbing endpoints."""

    length: float
    dim = 1

    def __post_init__(self):
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError("interval length must be positive and finite")
        object.__setattr__(self, "bounds", (0.0, self.length))  # not a field


Domain = Union[WholeSpace, HalfSpace, Interval]


def space_dim(domain: Domain) -> int:
    return domain.dim


def walls(domain: Domain) -> tuple:
    """The finite ends of ``domain.bounds``: where the walls are."""
    return tuple(b for b in domain.bounds if math.isfinite(b))


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


def images(domain: Domain, x, t: float) -> list:
    """Signed image sources of the kernel from x: (sign, pos) pairs with

        G(x, y, t) = sum of sign * g_t(pos - y),

    g_t the free Gaussian.  ``x`` is one point (N,) or a stack (..., N).
    On the interval the pairs run over k = -m..m, source image x - 2kL
    before mirror image 2kL - x, with the truncation rule of the module
    docstring."""
    x = np.asarray(x, dtype=float)
    if isinstance(domain, WholeSpace):
        return [(1.0, x)]
    if isinstance(domain, HalfSpace):
        mirror = x.copy()
        mirror[..., -1] = -mirror[..., -1]
        return [(1.0, x), (-1.0, mirror)]
    L = domain.length
    m = max(1, math.ceil((L + _reach(t)) / (2.0 * L)))
    out = []
    for k in range(-m, m + 1):
        out += [(1.0, x - 2.0 * k * L), (-1.0, 2.0 * k * L - x)]
    return out


# ---------------------------------------------------------------------------
# plain kernel


def heat_kernel(domain: Domain, x, y, t: float) -> float:
    """Kernel value at a single pair of points: ``kernel_values`` at one
    point.  Exactly zero when either argument lies on the absorbing
    boundary.  On the interval the smaller point is the source, so
    swapping x and y is exactly symmetric."""
    t = _require_time(t)
    x = _check_point(domain, x)
    y = _check_point(domain, y)
    if boundary_distance(domain, x) == 0.0 or boundary_distance(domain, y) == 0.0:
        return 0.0
    if isinstance(domain, Interval) and y[0] < x[0]:
        x, y = y, x
    return float(kernel_values(domain, x, y[None, :], t)[0])


def kernel_values(domain: Domain, x, ys, t: float) -> np.ndarray:
    """Kernel between one point x and a stack of points ys, shape (m, N)."""
    t = _require_time(t)
    x = _check_point(domain, x)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    c = (4.0 * math.pi * t) ** (-space_dim(domain) / 2.0)
    diff = ys - x
    if isinstance(domain, WholeSpace):
        return c * np.exp(-np.einsum("ij,ij->i", diff, diff) / (4.0 * t))

    def pair(d2, ab):
        # a source and its mirror, d2 the squared distance to the nearer
        # one and ab the product of the two points' wall distances: closed
        # form with expm1, which does not cancel next to a wall
        return c * np.exp(-d2 / (4.0 * t)) * -np.expm1(-ab / t)

    if isinstance(domain, HalfSpace):
        return pair(np.einsum("ij,ij->i", diff, diff), x[-1] * ys[:, -1])
    # q is the point nearer a wall, reflected about L/2 to sit near 0, and
    # u = p - 2kL runs over the other point's source images: the pair
    # g(u - q) - g(u + q) is sign(u) g(|u| - q) (-expm1(-|u| q / t))
    L = domain.length
    y = ys[:, 0]
    swap = min(x[0], L - x[0]) < np.minimum(y, L - y)
    p, q = np.where(swap, y, x[0]), np.where(swap, x[0], y)
    flip = q > 0.5 * L
    p, q = np.where(flip, L - p, p), np.where(flip, L - q, q)
    out = sum(np.sign(u) * pair((np.abs(u) - q) ** 2, np.abs(u) * q)
              for _, u in images(domain, p, t)[::2])
    np.maximum(out, 0.0, out=out)  # clear series round-off below zero
    out[boundary_distance(domain, ys) == 0.0] = 0.0
    return out


# ---------------------------------------------------------------------------
# boundary-weighted kernel


def _project_boundary(domain: Domain, y):
    y = np.array(y, dtype=float).reshape(-1)
    lo, hi = domain.bounds
    y[-1] = lo if y[-1] - lo <= hi - y[-1] else hi
    return y


def normal_derivative(domain: Domain, xs, y, t: float) -> np.ndarray:
    """Inward normal derivative in y of the kernel G(x, y, t) at the
    boundary point nearest y, for a stack of points xs (m, N): the value
    of the weighted kernel at boundary y.  Differentiates every image
    term, d/dy g_t(pos - y) = g_t(pos - y) (pos - y) / (2t)."""
    if not walls(domain):
        raise ValueError("weighted kernel needs a domain with boundary")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    yb = _project_boundary(domain, y)
    inward = 1.0 if yb[-1] == domain.bounds[0] else -1.0
    out = np.zeros(xs.shape[0])
    for sign, pos in images(domain, xs, t):
        diff = pos - yb
        q = np.einsum("ij,ij->i", diff, diff)
        out += sign * diff[:, -1] * np.exp(-q / (4.0 * t))
    return inward * out * ((4.0 * math.pi * t) ** (-space_dim(domain) / 2.0) / (2.0 * t))


def _over_distance(domain: Domain, xs, y, t: float) -> np.ndarray:
    """Kernel divided by the boundary distance of y, for a stack of points
    xs (m, N), extended continuously to boundary y by the inward normal
    derivative.  For y so close to the boundary that the ratio would
    cancel (d(y) below 1e-6 of d(y) + sqrt(t)) the normal derivative at
    the projection of y is used instead."""
    d = boundary_distance(domain, y)
    if d >= 1e-6 * (d + math.sqrt(t)):
        return kernel_values(domain, y, xs, t) / d
    return normal_derivative(domain, xs, y, t)


def weighted_kernel(domain: Domain, x, y, t: float) -> float:
    """``_over_distance`` at a single point x; exactly zero when x lies on
    the absorbing boundary."""
    t = _require_time(t)
    if not walls(domain):
        raise ValueError("weighted kernel needs a domain with boundary")
    x = _check_point(domain, x)
    y = _check_point(domain, y)
    if boundary_distance(domain, x) == 0.0:
        return 0.0
    return float(_over_distance(domain, x[None, :], y, t)[0])


# ---------------------------------------------------------------------------
# structural identities


def survival_mass(domain: Domain, x, t: float) -> float:
    """Integral of the kernel in its second argument: the mass of a unit
    point source that has not yet been absorbed.  Always in [0, 1], and
    exactly 0 on the absorbing boundary."""
    t = _require_time(t)
    x = _check_point(domain, x)
    if not walls(domain):
        return 1.0
    if boundary_distance(domain, x) == 0.0:
        return 0.0
    if isinstance(domain, HalfSpace):
        return math.erf(x[-1] / (2.0 * math.sqrt(t)))
    # every image's Gaussian integrated over (0, L)
    L, r = domain.length, 2.0 * math.sqrt(t)
    mass = math.fsum(
        sign * 0.5 * (math.erf(pos[0] / r) - math.erf((pos[0] - L) / r))
        for sign, pos in images(domain, x, t)
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
    converged: bool  # the quadrature of rhs met its tolerance


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

    def integrand(zs, _off):
        if weighted:
            return kernel_values(domain, x, zs, t) * _over_distance(domain, zs, y, s)
        return kernel_values(domain, x, zs, t) * kernel_values(domain, y, zs, s)

    # the reach about both points; a wall ends the box on the last axis
    r = _reach(max(t, s))
    lo, hi = np.minimum(x, y) - r, np.maximum(x, y) + r
    lo[-1], hi[-1] = np.where(np.isfinite(domain.bounds), domain.bounds, (lo[-1], hi[-1]))
    quad_tol = tol * max(abs(lhs), 1e-12)
    res = integrate(integrand, HalfSpaceBox(tuple(lo), tuple(hi)), quad_tol)
    abs_res = abs(lhs - res.value)
    rel_res = abs_res / abs(lhs) if lhs != 0 else abs_res
    return SemigroupReport(
        lhs=lhs,
        rhs=res.value,
        abs_residual=abs_res,
        rel_residual=rel_res,
        quad_error=res.error_estimate,
        evaluations=res.evaluations,
        converged=res.converged,
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
    if not walls(domain):
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
