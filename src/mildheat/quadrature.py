"""Adaptive integration over balls, boxes, boundary patches and time intervals.

The engine is a cell-based adaptive cubature on axis-aligned boxes in a
parameter space.  Every supported region is mapped onto such a box by a
smooth transform whose Jacobian is folded into the integrand.  Each cell
carries a nested pair of open Chebyshev-root rules (5 and 15 points per
axis; the 5-point nodes are a subset of the 15-point nodes), so one batch
of evaluations yields both the value and an embedded error estimate.
Open rules matter here: integrands with algebraic or logarithmic endpoint
singularities are never evaluated at the singular point itself.

Cells are split along their longest axis relative to the root box; cells
that contain a declared singularity are split geometrically toward it
with ratio 1/4.  Transforms recentre the singular point at parameter 0,
where doubles are dense, so subdivision is not limited by the absolute
coordinate's ulp.  An integrand that takes a second positional argument
additionally receives the exact offsets from the singular location
(or None when no hint is active); distance factors like ``|x - z|^(-a)``
must be computed from these offsets to avoid catastrophic cancellation.

Node placement is deterministic and results are reduced in a canonical
order, so repeated calls are bit-identical.  Unbounded domains are not
handled: callers truncate first (the kernel module supplies Gaussian tail
radii) and pass bounded regions.
"""

from __future__ import annotations

import heapq
import inspect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Ball",
    "HalfSpaceBox",
    "BoundaryPatch",
    "TimeInterval",
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
    coordinate 0.  In ambient dimension 1 the boundary is a single point
    and the "integral" is a point evaluation against counting measure."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("patch radius must be positive")
        if self.center[-1] != 0.0:
            raise ValueError("patch center must lie on {x_last = 0}")


@dataclass(frozen=True)
class TimeInterval:
    """Interval of times with optional singular-endpoint flags."""

    t0: float
    t1: float
    singular_start: bool = False
    singular_end: bool = False

    def __post_init__(self):
        if not self.t0 < self.t1:
            raise ValueError("time interval must have t0 < t1")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


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


_NODES_F, _WEIGHTS_F = _fejer1(_N_FINE)
_WEIGHTS_C = _fejer1(_N_COARSE)[1]
# coarse node j sits at fine index 3j+1
_COARSE_IDX = 3 * np.arange(_N_COARSE) + 1


def _accepts_offsets(f) -> bool:
    try:
        sig = inspect.signature(f)
    except (TypeError, ValueError):
        return False
    pos = [
        p
        for p in sig.parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    var = any(p.kind == p.VAR_POSITIONAL for p in sig.parameters.values())
    return var or len(pos) >= 2


class _Cell:
    __slots__ = ("lo", "hi", "value", "error")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi
        self.value = 0.0
        self.error = 0.0


def _eval_cell(g, cell: _Cell, ndim: int) -> int:
    """Fill cell.value/cell.error with the nested-rule pair; return eval count."""
    mid = 0.5 * (cell.lo + cell.hi)
    half = 0.5 * (cell.hi - cell.lo)
    axes = [mid[k] + half[k] * _NODES_F for k in range(ndim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gr.ravel() for gr in grids], axis=-1)
    vals = np.asarray(g(pts), dtype=float).reshape((_N_FINE,) * ndim)
    if not np.all(np.isfinite(vals)):
        # a node collided with a singular point at float resolution; the
        # collision set has measure zero so dropping it is harmless
        vals = np.where(np.isfinite(vals), vals, 0.0)
    scale = float(np.prod(half))

    fine = vals
    for _ in range(ndim):
        fine = np.tensordot(_WEIGHTS_F, fine, axes=(0, 0))
    coarse = vals[np.ix_(*([_COARSE_IDX] * ndim))]
    for _ in range(ndim):
        coarse = np.tensordot(_WEIGHTS_C, coarse, axes=(0, 0))

    cell.value = float(fine) * scale
    cell.error = abs(float(fine) - float(coarse)) * scale
    return _N_FINE**ndim


def _contains(cell: _Cell, point) -> bool:
    return bool(np.all(point >= cell.lo) and np.all(point <= cell.hi))


def _split_cell(cell: _Cell, hint, root_extent):
    """Split into two children along the axis that is longest relative to
    the root box; geometric 1/4 splits toward a contained hint."""
    extent = cell.hi - cell.lo
    axis = int(np.argmax(extent / root_extent))
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
    lo_child = _Cell(cell.lo.copy(), cell.hi.copy())
    hi_child = _Cell(cell.lo.copy(), cell.hi.copy())
    lo_child.hi[axis] = cut
    hi_child.lo[axis] = cut
    return lo_child, hi_child


def _adaptive_box(
    g,
    lo,
    hi,
    tol: float,
    hint=None,
    relative: bool = False,
    max_evals: int = 2_000_000,
) -> QuadResult:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ndim = lo.size
    root_extent = np.maximum(hi - lo, 1e-300)
    if hint is not None:
        hint = np.asarray(hint, dtype=float)

    root = _Cell(lo, hi)
    evals = _eval_cell(g, root, ndim)
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
        if evals + 2 * _N_FINE**ndim > max_evals or not heap:
            break
        _, _, worst = heapq.heappop(heap)
        total_val -= worst.value
        total_err -= worst.error
        for child in _split_cell(worst, hint, root_extent):
            evals += _eval_cell(g, child, ndim)
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
    return QuadResult(value=value, error_estimate=error, evaluations=evals)


# ---------------------------------------------------------------------------
# region -> parameter-box transforms
#
# Each transform returns (lo, hi, g, hint_param) where g maps parameter
# points to jacobian-weighted integrand values, calling the user integrand
# with absolute points and (when a hint is active) exact offsets from the
# singular location.  Degenerate regions return a QuadResult directly.


def _transform(region, f2, hint_loc):
    if isinstance(region, HalfSpaceBox):
        lo = np.asarray(region.lower, float)
        hi = np.asarray(region.upper, float)
        hp = None
        if hint_loc is not None:
            hp = np.asarray(hint_loc, float)
            if not (np.all(hp >= lo - 1e-12) and np.all(hp <= hi + 1e-12)):
                hp = None
        if hp is None:
            return lo, hi, (lambda p: f2(p, None)), None
        h = hp.copy()

        def g(p):
            return f2(p + h, p)

        return lo - h, hi - h, g, np.zeros_like(h)

    if isinstance(region, TimeInterval):
        # recentre the singular endpoint at parameter 0
        t0, t1 = region.t0, region.t1
        h = None
        if region.singular_start:
            h = t0
        elif region.singular_end:
            h = t1
        if hint_loc is not None:
            h = float(np.atleast_1d(hint_loc)[0])
        if h is None:
            return np.array([t0]), np.array([t1]), (lambda p: f2(p, None)), None
        if h >= t1:  # reverse: parameter u = t1 - s
            def g(p):
                return f2(t1 - p, p)

            return np.array([0.0]), np.array([t1 - t0]), g, np.array([0.0])

        def g(p):
            return f2(p + h, p)

        return np.array([t0 - h]), np.array([t1 - h]), g, np.array([0.0])

    if isinstance(region, Ball):
        ndim = len(region.center)
        c = np.asarray(region.center, float)
        r = region.radius

        if ndim == 1:
            lo1 = c[0] - r if region.clip_lo is None else max(c[0] - r, region.clip_lo)
            hi1 = c[0] + r if region.clip_hi is None else min(c[0] + r, region.clip_hi)
            if not lo1 < hi1:
                return QuadResult(0.0, 0.0, 1)
            if hint_loc is not None:
                h = float(np.atleast_1d(np.asarray(hint_loc, float))[0])
                if lo1 <= h <= hi1:
                    def g(p):
                        return f2(p + h, p)

                    return np.array([lo1 - h]), np.array([hi1 - h]), g, np.array([0.0])
            return np.array([lo1]), np.array([hi1]), (lambda p: f2(p, None)), None

        clipped = region.clip_lo is not None or region.clip_hi is not None
        if ndim == 2 and not clipped:
            # polar (rho, theta); offsets are exact when the hint is the center
            hint_is_center = hint_loc is not None and np.allclose(
                np.asarray(hint_loc, float), c, rtol=0, atol=0
            )

            def g(p):
                rho, th = p[:, 0], p[:, 1]
                off = np.stack([rho * np.cos(th), rho * np.sin(th)], axis=-1)
                return f2(c + off, off if hint_is_center else None) * rho

            hp = None
            if hint_loc is not None:
                d = np.asarray(hint_loc, float) - c
                rho0 = float(np.hypot(d[0], d[1]))
                if rho0 <= r:
                    th0 = float(np.arctan2(d[1], d[0]) % (2 * np.pi))
                    hp = np.array([rho0, th0 if rho0 > 0 else np.pi])
            return np.array([0.0, 0.0]), np.array([r, 2 * np.pi]), g, hp

        if ndim == 2 and clipped:
            # slices along the last axis; each slice is a chord
            lo2 = c[1] - r if region.clip_lo is None else max(c[1] - r, region.clip_lo)
            hi2 = c[1] + r if region.clip_hi is None else min(c[1] + r, region.clip_hi)
            if not lo2 < hi2:
                return QuadResult(0.0, 0.0, 1)

            shift = 0.0
            hx = None
            hp = None
            if hint_loc is not None:
                hcand = np.asarray(hint_loc, float)
                if lo2 <= hcand[1] <= hi2 and abs(hcand[0] - c[0]) <= r:
                    hx = hcand
                    shift = hx[1]
                    w0 = math.sqrt(max(r**2 - (hx[1] - c[1]) ** 2, 0.0))
                    u0 = 0.0 if w0 == 0 else min(max((hx[0] - c[0]) / w0, -1.0), 1.0)
                    hp = np.array([0.0, u0])

            def g(p):
                x2 = p[:, 0] + shift
                u = p[:, 1]
                w = np.sqrt(np.maximum(r**2 - (x2 - c[1]) ** 2, 0.0))
                x1 = c[0] + u * w
                pts = np.stack([x1, x2], axis=-1)
                if hx is None:
                    return f2(pts, None) * w
                off = np.stack([x1 - hx[0], p[:, 0]], axis=-1)
                return f2(pts, off) * w

            return np.array([lo2 - shift, -1.0]), np.array([hi2 - shift, 1.0]), g, hp

        if ndim == 3 and not clipped:
            hint_is_center = hint_loc is not None and np.allclose(
                np.asarray(hint_loc, float), c, rtol=0, atol=0
            )

            def g(p):
                rho, mu, th = p[:, 0], p[:, 1], p[:, 2]
                s = np.sqrt(np.maximum(1.0 - mu**2, 0.0))
                off = np.stack(
                    [rho * s * np.cos(th), rho * s * np.sin(th), rho * mu], axis=-1
                )
                return f2(c + off, off if hint_is_center else None) * rho**2

            hp = None
            if hint_loc is not None:
                d = np.asarray(hint_loc, float) - c
                rho0 = float(np.linalg.norm(d))
                if rho0 <= r:
                    mu0 = 0.0 if rho0 == 0 else d[2] / rho0
                    th0 = float(np.arctan2(d[1], d[0]) % (2 * np.pi))
                    hp = np.array([rho0, mu0, th0 if rho0 > 0 else np.pi])
            return np.array([0.0, -1.0, 0.0]), np.array([r, 1.0, 2 * np.pi]), g, hp

        if ndim == 3 and clipped:
            lo3 = c[2] - r if region.clip_lo is None else max(c[2] - r, region.clip_lo)
            hi3 = c[2] + r if region.clip_hi is None else min(c[2] + r, region.clip_hi)
            if not lo3 < hi3:
                return QuadResult(0.0, 0.0, 1)

            shift = 0.0
            hx = None
            hp = None
            if hint_loc is not None:
                hcand = np.asarray(hint_loc, float)
                if lo3 <= hcand[2] <= hi3:
                    hx = hcand
                    shift = hx[2]
                    w0 = math.sqrt(max(r**2 - (hx[2] - c[2]) ** 2, 0.0))
                    rr = math.hypot(hx[0] - c[0], hx[1] - c[1])
                    v0 = 0.0 if w0 == 0 else min(rr / w0, 1.0)
                    th0 = float(np.arctan2(hx[1] - c[1], hx[0] - c[0]) % (2 * np.pi))
                    hp = np.array([0.0, v0, th0 if rr > 0 else np.pi])

            def g(p):
                x3 = p[:, 0] + shift
                v, th = p[:, 1], p[:, 2]
                w = np.sqrt(np.maximum(r**2 - (x3 - c[2]) ** 2, 0.0))
                rho = v * w
                x1 = c[0] + rho * np.cos(th)
                x2 = c[1] + rho * np.sin(th)
                pts = np.stack([x1, x2, x3], axis=-1)
                if hx is None:
                    return f2(pts, None) * rho * w
                off = np.stack([x1 - hx[0], x2 - hx[1], p[:, 0]], axis=-1)
                return f2(pts, off) * rho * w

            return (
                np.array([lo3 - shift, 0.0, 0.0]),
                np.array([hi3 - shift, 1.0, 2 * np.pi]),
                g,
                hp,
            )

        raise ValueError(f"unsupported ball dimension {ndim}")

    if isinstance(region, BoundaryPatch):
        ndim = len(region.center)
        c = np.asarray(region.center, float)
        r = region.radius
        if ndim == 1:
            # boundary of the half-line is one point; counting measure
            val = float(np.asarray(f2(c.reshape(1, 1), None))[0])
            return QuadResult(val, 0.0, 1)
        if ndim == 2:
            shift = 0.0
            hx = None
            hp = None
            if hint_loc is not None:
                h = np.asarray(hint_loc, float)
                if abs(h[0] - c[0]) <= r:
                    hx = h
                    shift = h[0]
                    hp = np.array([0.0])

            def g(p):
                y1 = p[:, 0] + shift
                pts = np.stack([y1, np.zeros_like(y1)], axis=-1)
                if hx is None:
                    return f2(pts, None)
                off = np.stack([p[:, 0], np.zeros_like(y1)], axis=-1)
                return f2(pts, off)

            return np.array([c[0] - r - shift]), np.array([c[0] + r - shift]), g, hp
        if ndim == 3:
            hint_is_center = hint_loc is not None and np.allclose(
                np.asarray(hint_loc, float)[:2], c[:2], rtol=0, atol=0
            )

            def g(p):
                rho, th = p[:, 0], p[:, 1]
                o1 = rho * np.cos(th)
                o2 = rho * np.sin(th)
                pts = np.stack([c[0] + o1, c[1] + o2, np.zeros_like(rho)], axis=-1)
                if hint_is_center:
                    off = np.stack([o1, o2, np.zeros_like(rho)], axis=-1)
                    return f2(pts, off) * rho
                return f2(pts, None) * rho

            hp = None
            if hint_loc is not None:
                h = np.asarray(hint_loc, float)
                rho0 = math.hypot(h[0] - c[0], h[1] - c[1])
                if rho0 <= r:
                    th0 = float(np.arctan2(h[1] - c[1], h[0] - c[0]) % (2 * np.pi))
                    hp = np.array([rho0, th0 if rho0 > 0 else np.pi])
            return np.array([0.0, 0.0]), np.array([r, 2 * np.pi]), g, hp
        raise ValueError(f"unsupported patch dimension {ndim}")

    raise TypeError(f"unknown region type {type(region).__name__}")


# ---------------------------------------------------------------------------
# public operations


def integrate(
    f,
    region,
    tol: float,
    singularity_hint: Optional[tuple] = None,
    relative: bool = False,
    max_evals: int = 2_000_000,
) -> QuadResult:
    """Integrate ``f`` over ``region`` to absolute tolerance ``tol``
    (relative when ``relative=True``).

    ``f`` receives an (m, N) array of points and returns (m,) values; an
    integrand accepting a second positional argument also receives the
    exact offsets from the declared singular location (None when no hint
    is active) and should compute distance factors from them.
    ``singularity_hint`` is a ``(location, exponent)`` pair; the location
    steers geometric cell splitting, the exponent is informational.  On
    budget exhaustion the partial result is returned with its (then
    > tol) error estimate.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    hint_loc = singularity_hint[0] if singularity_hint is not None else None
    if _accepts_offsets(f):
        f2 = f
    else:
        def f2(p, _off):
            return f(p)

    out = _transform(region, f2, hint_loc)
    if isinstance(out, QuadResult):
        return out
    lo, hi, g, hp = out
    return _adaptive_box(g, lo, hi, tol, hint=hp, relative=relative, max_evals=max_evals)


def integrate_time(
    g,
    t0: float,
    t1: float,
    tol: float,
    endpoint_singularity: Optional[float] = None,
    singular_start: bool = True,
    relative: bool = False,
    max_evals: int = 2_000_000,
) -> QuadResult:
    """Integrate a scalar function of time over (t0, t1).

    ``g`` receives a 1-D array of times; a two-argument ``g`` also
    receives the exact distances to the singular endpoint (None if none).
    ``endpoint_singularity`` is the (informational) algebraic exponent at
    the singular endpoint; ``singular_start`` selects which endpoint is
    graded toward.
    """
    region = TimeInterval(
        t0,
        t1,
        singular_start=endpoint_singularity is not None and singular_start,
        singular_end=endpoint_singularity is not None and not singular_start,
    )
    if _accepts_offsets(g):
        def f2(p, off):
            return g(p[:, 0], None if off is None else off[:, 0])
    else:
        def f2(p, off):
            return g(p[:, 0])

    out = _transform(region, f2, None)
    if isinstance(out, QuadResult):
        return out
    lo, hi, gg, hp = out
    return _adaptive_box(gg, lo, hi, tol, hint=hp, relative=relative, max_evals=max_evals)
