"""Adaptive integration over balls, boxes, boundary patches and time intervals.

Time intervals go to QUADPACK (``scipy.integrate.quad``).  Everything
else goes to a cell-based adaptive cubature on axis-aligned boxes in a
parameter space.  Every supported region is mapped onto such a box by a
smooth transform whose Jacobian is folded into the integrand.  There is
one map per region shape, chosen in ``_region_map``:

- a translated box, for boxes, 1-D balls and 2-D boundary patches;
- a polar map (rho, theta), for 2-D balls and 3-D boundary patches;
- a spherical map (rho, cos of the polar angle, azimuth), for 3-D balls;
- a slice map along the last axis, for 2-D and 3-D balls whose clip
  bounds cut them.  A clip that cuts nothing leaves the ball uncut.

Each cell carries a nested pair of open Chebyshev-root rules (5 and 15
points per axis; the 5-point nodes are a subset of the 15-point nodes),
so one batch of evaluations yields both the value and an embedded error
estimate.  The pair is built once per dimension as one flat rule (unit
nodes and a two-column weight matrix, fine and coarse), so a cell's two
estimates are one matrix product.  Open rules matter here: integrands
with algebraic or logarithmic endpoint singularities are never evaluated
at the singular point itself.

Cells are split along their longest axis relative to the root box; cells
that contain a declared singularity are split geometrically toward it
with ratio 1/4.  The greedy loop always splits the cell of largest
error estimate, and evaluates the two children of a split in one
integrand call.  Transforms recentre the singular point at parameter 0,
where doubles are dense, so subdivision is not limited by the absolute
coordinate's ulp.

Every integrand is called as ``f(pts, off)``: ``pts`` is an (m, N) array
of points and ``off`` holds the exact offsets of those points from the
declared singular location, or None when no hint is active (or, in the
polar and spherical maps, when the hint is not the centre).  Distance
factors like ``|x - z|^(-a)`` must be computed from ``off`` when it is
given, to avoid catastrophic cancellation.  Rows are independent: the
value of a row may depend on that row of ``pts`` and ``off`` alone, since
one call may hold the points of two cells.

Node placement is deterministic and results are reduced in a canonical
order, so repeated calls are bit-identical.  Unbounded domains are not
handled: callers truncate first (the kernel module's reach bounds the
Gaussian tails) and pass bounded regions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = [
    "Ball",
    "HalfSpaceBox",
    "BoundaryPatch",
    "QuadResult",
    "integrate",
    "integrate_time",
]


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Ball:
    """Euclidean ball, optionally cut by bounds on the last coordinate.

    ``clip_lo``/``clip_hi`` intersect the ball with ``{x_last >= clip_lo}``
    and ``{x_last <= clip_hi}``; this is how balls are restricted to a
    half-space or to a finite 1-D interval.
    """

    center: tuple
    radius: float
    clip_lo: Optional[float] = None
    clip_hi: Optional[float] = None

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    def span(self) -> tuple:
        """Extent along the last axis after the clip bounds."""
        lo = self.center[-1] - self.radius
        hi = self.center[-1] + self.radius
        if self.clip_lo is not None:
            lo = max(lo, self.clip_lo)
        if self.clip_hi is not None:
            hi = min(hi, self.clip_hi)
        return lo, hi


@dataclass(frozen=True)
class HalfSpaceBox:
    """Axis-aligned box.  For half-space work the last axis starts at 0;
    the same variant serves whole-space integrals after caller truncation."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("bound dimension mismatch")
        if any(not lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("box bounds must be strictly ordered")


@dataclass(frozen=True)
class BoundaryPatch:
    """Ball on the hyperplane {x_last = 0}, i.e. a surface patch of the
    half-space boundary.  ``center`` is a full-dimension point with last
    coordinate 0, in ambient dimension 2 or 3."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("patch radius must be positive")
        if self.center[-1] != 0.0:
            raise ValueError("patch center must lie on {x_last = 0}")


@dataclass(frozen=True)
class QuadResult:
    """An integral, its error estimate and the integrand evaluations
    spent.  ``converged`` is False when the estimate missed the tolerance
    asked for: the evaluation budget ran out first, or, in
    ``integrate_time``, QUADPACK reported a failure."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True


# ---------------------------------------------------------------------------
# nested open rule (Chebyshev roots, 5 and 15 points)

_N_COARSE = 5
_N_FINE = 15


def _fejer1(n: int):
    """Open quadrature rule at the n Chebyshev roots on [-1, 1].

    Classical closed-form weights; exact for polynomials of degree <= n-1,
    and the n-point nodes are a subset of the 3n-point nodes.
    """
    j = np.arange(n)
    theta = (2 * j + 1) * np.pi / (2 * n)
    nodes = np.cos(theta)
    m = np.arange(1, n // 2 + 1)
    corr = np.cos(2.0 * np.outer(theta, m)) / (4.0 * m**2 - 1.0)
    weights = (2.0 / n) * (1.0 - 2.0 * corr.sum(axis=1))
    return nodes, weights


# coarse node j sits at fine index 3j+1
_COARSE_IDX = 3 * np.arange(_N_COARSE) + 1


@lru_cache(maxsize=None)
def _flat_rule(ndim: int):
    """The nested pair on [-1, 1]^ndim as one flat rule: the unit nodes,
    (ndim, 15^ndim) axis by axis in C order, and a (15^ndim, 2) matrix of
    the fine and the coarse tensor weights, the coarse weights zero off
    the coarse nodes.  ``vals @ weights`` then gives a cell's two sums."""
    nodes, w_fine = _fejer1(_N_FINE)
    w_coarse = np.zeros(_N_FINE)
    w_coarse[_COARSE_IDX] = _fejer1(_N_COARSE)[1]
    grids = np.meshgrid(*([nodes] * ndim), indexing="ij")
    unit = np.stack([gr.ravel() for gr in grids])
    fine = coarse = np.ones(())
    for _ in range(ndim):
        fine = np.multiply.outer(fine, w_fine)
        coarse = np.multiply.outer(coarse, w_coarse)
    return unit, np.column_stack([fine.ravel(), coarse.ravel()])


class _Cell:
    __slots__ = ("lo", "hi", "value", "error")

    def __init__(self, lo, hi, value, error):
        self.lo = lo
        self.hi = hi
        self.value = value
        self.error = error


def _eval_cells(g, lo, hi, rule) -> list:
    """The cells with corners lo, hi (k, ndim) under the flat rule, from
    one call of g on all k * 15^ndim nodes."""
    unit, weights = rule
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # built axis by axis, so that each coordinate is one contiguous run;
    # the (k 15^ndim, ndim) points are a transposed view
    pts = (mid.T[:, :, None] + half.T[:, :, None] * unit[:, None, :]).reshape(len(unit), -1).T
    vals = np.asarray(g(pts), dtype=float).reshape(len(lo), -1)
    if not np.isfinite(vals).all():
        # a node collided with a singular point at float resolution; the
        # collision set has measure zero so dropping it is harmless
        vals = np.where(np.isfinite(vals), vals, 0.0)
    sums = (vals @ weights).tolist()
    scales = half.prod(axis=1).tolist()
    return [
        _Cell(lo[k], hi[k], fine * scale, abs(fine - coarse) * scale)
        for k, ((fine, coarse), scale) in enumerate(zip(sums, scales))
    ]


def _contains(cell: _Cell, point) -> bool:
    return bool((point >= cell.lo).all() and (point <= cell.hi).all())


def _split_cell(cell: _Cell, hint, root_extent):
    """Corners (lo, hi), each (2, ndim), of the two children of a cell,
    split along the axis that is longest relative to the root box;
    geometric 1/4 splits toward a contained hint."""
    axis = int(((cell.hi - cell.lo) / root_extent).argmax())
    lo, hi = cell.lo[axis], cell.hi[axis]
    width = hi - lo
    cut = 0.5 * (lo + hi)
    if hint is not None and _contains(cell, hint):
        h = hint[axis]
        if h <= lo + 1e-9 * width:
            cut = lo + 0.25 * width
        elif h >= hi - 1e-9 * width:
            cut = hi - 0.25 * width
        else:
            # isolate the singular point on a cell corner
            cut = min(max(h, lo + 1e-3 * width), hi - 1e-3 * width)
    los = np.array([cell.lo, cell.lo])
    his = np.array([cell.hi, cell.hi])
    his[0, axis] = cut
    los[1, axis] = cut
    return los, his


def _adaptive_box(
    g,
    lo,
    hi,
    tol: float,
    hint=None,
    relative: bool = False,
    max_evals: int = 2_000_000,
) -> QuadResult:
    """Greedy adaptive cubature of g over the box [lo, hi]: the cell of
    largest error estimate is split until the total estimate meets the
    target or the next split would pass ``max_evals``.  The two children
    of a split are evaluated in one call of g."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rule = _flat_rule(lo.size)
    per_cell = len(rule[1])
    root_extent = np.maximum(hi - lo, 1e-300)
    if hint is not None:
        hint = np.asarray(hint, dtype=float)

    (root,) = _eval_cells(g, lo[None], hi[None], rule)
    evals = per_cell
    heap = []
    counter = 0
    heapq.heappush(heap, (-root.error, counter, root))
    done: list[_Cell] = []
    total_val = root.value
    total_err = root.error

    while True:
        target = tol if not relative else tol * max(abs(total_val), 1e-300)
        if total_err <= target:
            break
        if evals + 2 * per_cell > max_evals or not heap:
            break
        _, _, worst = heapq.heappop(heap)
        total_val -= worst.value
        total_err -= worst.error
        evals += 2 * per_cell
        for child in _eval_cells(g, *_split_cell(worst, hint, root_extent), rule):
            counter += 1
            if child.error > 0.0:
                heapq.heappush(heap, (-child.error, counter, child))
            else:
                done.append(child)
            total_val += child.value
            total_err += child.error

    cells = done + [c for _, _, c in heap]
    cells.sort(key=lambda c: (tuple(c.lo), tuple(c.hi)))
    value = math.fsum(c.value for c in cells)
    error = math.fsum(c.error for c in cells)
    return QuadResult(value, error, evals, converged=total_err <= target)


# ---------------------------------------------------------------------------
# region -> parameter-box maps
#
# Each map returns (lo, hi, g, hint_param) where g maps parameter points
# to Jacobian-weighted integrand values, calling the integrand with
# absolute points and (when a hint is active) exact offsets from the
# singular location.  Degenerate regions return a QuadResult directly.


def _translated(f, lo, hi, h=None):
    """The box [lo, hi]; with a hint h the parameter is the offset from h,
    so h sits at parameter 0."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if h is None:
        return lo, hi, (lambda p: f(p, None)), None
    h = np.array(h, float)
    return lo - h, hi - h, (lambda p: f(p + h, p)), np.zeros_like(h)


def _disc(rho, th):
    """Offsets at radius rho and angle th in the first two axes."""
    return np.stack([rho * np.cos(th), rho * np.sin(th)], axis=-1)


def _angle(d):
    """Radius and angle of the offset d in the first two axes; the angle
    is pi at the origin."""
    rho = math.hypot(d[0], d[1])
    th = float(np.arctan2(d[1], d[0]) % (2 * np.pi))
    return rho, th if rho > 0 else np.pi


def _polar(f, c, r, h):
    """Disc of radius r around c: parameters (rho, theta).  Offsets are
    passed only when the hint is the centre, where they are exact."""
    at_center = h is not None and np.array_equal(h, c)

    def g(p):
        off = _disc(p[:, 0], p[:, 1])
        return f(c + off, off if at_center else None) * p[:, 0]

    hp = None
    if h is not None:
        rho0, th0 = _angle(h - c)
        if rho0 <= r:
            hp = np.array([rho0, th0])
    return np.zeros(2), np.array([r, 2 * np.pi]), g, hp


def _spherical(f, c, r, h):
    """3-D ball of radius r around c: parameters (rho, mu, theta), mu the
    cosine of the polar angle.  Offsets as in the polar map."""
    at_center = h is not None and np.array_equal(h, c)

    def g(p):
        rho, mu, th = p[:, 0], p[:, 1], p[:, 2]
        s = np.sqrt(np.maximum(1.0 - mu**2, 0.0))
        off = np.stack([rho * s * np.cos(th), rho * s * np.sin(th), rho * mu], axis=-1)
        return f(c + off, off if at_center else None) * rho**2

    hp = None
    if h is not None:
        d = h - c
        rho0 = float(np.linalg.norm(d))
        if rho0 <= r:
            mu0 = 0.0 if rho0 == 0 else d[2] / rho0
            th0 = float(np.arctan2(d[1], d[0]) % (2 * np.pi))
            hp = np.array([rho0, mu0, th0 if rho0 > 0 else np.pi])
    return np.array([0.0, -1.0, 0.0]), np.array([r, 1.0, 2 * np.pi]), g, hp


def _slice(f, c, r, lo, hi, h):
    """Ball of radius r around c cut to lo <= x_last <= hi, as slices of
    constant x_last.  A slice of half-width w is a chord (2-D, parameter
    u in [-1, 1]) or a disc (3-D, parameters v in [0, 1] and theta); with
    a hint inside the span the first parameter is the height above it."""
    shift = 0.0
    hp = None
    if h is not None and lo <= h[-1] <= hi:
        shift = h[-1]
        w0 = math.sqrt(max(r**2 - (h[-1] - c[-1]) ** 2, 0.0))
        if c.size == 2:
            u0 = 0.0 if w0 == 0 else min(max((h[0] - c[0]) / w0, -1.0), 1.0)
            hp = np.array([0.0, u0])
        else:
            rr, th0 = _angle(h - c)
            hp = np.array([0.0, 0.0 if w0 == 0 else min(rr / w0, 1.0), th0])
    else:
        h = None

    def g(p):
        x = p[:, 0] + shift
        w = np.sqrt(np.maximum(r**2 - (x - c[-1]) ** 2, 0.0))
        if c.size == 2:
            lat, jac = (p[:, 1] * w)[:, None], 1.0
        else:
            jac = p[:, 1] * w
            lat = _disc(jac, p[:, 2])
        pts = np.column_stack([c[:-1] + lat, x])
        off = None if h is None else np.column_stack([pts[:, :-1] - h[:-1], p[:, 0]])
        return f(pts, off) * jac * w

    if c.size == 2:
        return np.array([lo - shift, -1.0]), np.array([hi - shift, 1.0]), g, hp
    return np.array([lo - shift, 0.0, 0.0]), np.array([hi - shift, 1.0, 2 * np.pi]), g, hp


def _on_wall(f):
    """f on the hyperplane {x_last = 0}, called with the other coordinates."""

    def pad(a):
        return np.column_stack([a, np.zeros(len(a))])

    return lambda q, off: f(pad(q), None if off is None else pad(off))


def _region_map(region, f, h):
    """The one place a region picks its map; h is the hint location or None."""
    if isinstance(region, HalfSpaceBox):
        lo = np.asarray(region.lower, float)
        hi = np.asarray(region.upper, float)
        if h is not None and not (np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)):
            h = None
        return _translated(f, lo, hi, h)

    if isinstance(region, Ball):
        c = np.asarray(region.center, float)
        r = region.radius
        if c.size > 3:
            raise ValueError(f"unsupported ball dimension {c.size}")
        lo, hi = region.span()
        if c.size > 1 and (lo, hi) == (c[-1] - r, c[-1] + r):  # a clip that cuts nothing
            return (_polar if c.size == 2 else _spherical)(f, c, r, h)
        if not lo < hi:
            return QuadResult(0.0, 0.0, 1)
        if c.size == 1:
            # a hint outside stays the origin: offsets near it stay exact
            return _translated(f, [lo], [hi], h)
        return _slice(f, c, r, lo, hi, h)

    if isinstance(region, BoundaryPatch):
        c = np.asarray(region.center, float)
        r = region.radius
        if c.size == 2:
            inside = h is not None and abs(h[0] - c[0]) <= r
            return _translated(_on_wall(f), c[:1] - r, c[:1] + r, h[:1] if inside else None)
        if c.size == 3:
            return _polar(_on_wall(f), c[:2], r, None if h is None else h[:2])
        raise ValueError(f"unsupported patch dimension {c.size}")

    raise TypeError(f"unknown region type {type(region).__name__}")


# ---------------------------------------------------------------------------
# public operations


def integrate(
    f,
    region,
    tol: float,
    singularity_hint: Optional[tuple] = None,
    relative: bool = False,
) -> QuadResult:
    """Integrate ``f`` over ``region`` to absolute tolerance ``tol``
    (relative when ``relative=True``).

    ``f(pts, off)`` receives an (m, N) array of points and returns (m,)
    values; ``off`` holds the exact offsets of the points from the
    declared singular location, or None when the map has none (see the
    module docstring), and distance factors should be computed from it.
    Rows are independent: a value may depend on its own row of ``pts``
    and ``off`` alone, as one call may hold the points of two cells.
    ``singularity_hint`` is a ``(location, exponent)`` pair; the location
    steers geometric cell splitting, the exponent is informational.  When
    the budget of 2,000,000 evaluations runs out, the partial result is
    returned with its (then > tol) error estimate and ``converged``
    False.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    h = None
    if singularity_hint is not None:
        h = np.atleast_1d(np.asarray(singularity_hint[0], float))
    out = _region_map(region, f, h)
    if isinstance(out, QuadResult):
        return out
    lo, hi, g, hp = out
    return _adaptive_box(g, lo, hi, tol, hint=hp, relative=relative)


def integrate_time(g, t0: float, t1: float, tol: float) -> QuadResult:
    """Integrate a smooth scalar function of time over (t0, t1) to
    relative tolerance ``tol`` with QUADPACK's adaptive Gauss-Kronrod
    rule (``scipy.integrate.quad``); ``g(ts)`` receives a 1-D array of
    times.  QUADPACK refuses, with ValueError, a ``tol`` below 50 machine
    epsilons; ``converged`` is False when it reports any other failure."""
    if not t0 < t1:
        raise ValueError("time interval must have t0 < t1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    from scipy.integrate import quad

    out = quad(
        lambda t: float(g(np.array([t]))[0]), t0, t1, epsabs=0.0, epsrel=tol, full_output=1
    )
    # a fourth item, the message, is returned exactly when QUADPACK's ier != 0
    value, error, info = out[:3]
    return QuadResult(value, error, info["neval"], converged=len(out) == 3)
