"""Initial-trace recovery from solved fields.

The weighted field d(.)u(.,t) paired against compactly supported test
functions tends, as t -> 0, to the measure the solve started from.  This
module computes those pairings on grid functions and extrapolates them
to t = 0.  The grid carries the domain, so no function here takes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .solver import GridFunction

__all__ = [
    "TraceEstimate",
    "bump_test_function",
    "trace_pairing",
    "recover_trace",
]


def _radial(pts, center):
    c = np.asarray(center, dtype=float)
    return np.sqrt(np.sum((pts - c[None, :]) ** 2, axis=1))


def bump_test_function(center, radius: float) -> Callable:
    """Smooth bump with peak value 1 at the center, vanishing at the
    support edge to all orders; a function of (m, N) points."""
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("support radius must be positive and finite")
    center = tuple(float(c) for c in np.atleast_1d(center))

    def fn(pts):
        r = _radial(pts, center) / radius
        out = np.zeros(r.shape)
        m = r < 1.0
        out[m] = np.exp(1.0 - 1.0 / (1.0 - r[m] ** 2))
        return out

    return fn


def trace_pairing(u: GridFunction, psi: Callable, t_index: int) -> float:
    """Integral of psi * d * u(., t_k) over the domain; psi maps the
    (m, N) grid nodes to m values."""
    grid = u.grid
    if not -grid.times.size <= t_index < grid.times.size:
        raise ValueError("time level out of range")
    w = grid.boundary_weights * psi(grid.nodes)
    return float(np.sum(w * u.values[t_index]))


@dataclass(frozen=True)
class TraceEstimate:
    """Pairing samples and their extrapolated t -> 0 limit."""

    times: np.ndarray
    pairings: np.ndarray
    limit: float
    error: float
    status: str  # ok | inconclusive

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error estimate must be nonnegative")


def _extrapolate(s, v, degree):
    deg = min(degree, s.size - 1)
    return float(np.polyval(np.polyfit(s, v, deg), 0.0))


def recover_trace(
    u: GridFunction, psi: Callable, t_indices: Sequence[int]
) -> TraceEstimate:
    """Extrapolate the pairing to t = 0.

    Quadratic extrapolation in sqrt(t) over the four smallest levels;
    the spread against shifted and lower-order fits is the error bar."""
    idx = sorted(set(int(i) % u.grid.times.size for i in t_indices))
    if len(idx) < 3:
        raise ValueError("need at least three distinct time levels")
    times = u.grid.times[idx]
    vals = np.array([trace_pairing(u, psi, i) for i in idx])
    s = np.sqrt(times)

    main = _extrapolate(s[:4], vals[:4], 2)
    alts = [_extrapolate(s[:3], vals[:3], 1)]
    if len(idx) >= 5:
        alts.append(_extrapolate(s[1:5], vals[1:5], 2))
    err = max(abs(main - a) for a in alts)
    err += 1e-14 * max(abs(main), float(np.max(np.abs(vals))))
    status = "ok"
    if err > 0.25 * max(abs(main), 1e-300):
        status = "inconclusive"
    return TraceEstimate(times, vals, main, err, status)

