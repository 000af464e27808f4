"""Mild solutions on graded space-time grids by monotone iteration.

The iteration scheme: start from the linear evolution of the data and
repeatedly add the memory integral of the p-th power, in two phases that
share one iteration budget.  The discrete system is block lower
triangular in time and level 0 reads only itself and the slivers below
it, so phase 1 iterates level 0 alone to its fixed point, and phase 2
iterates all levels from that fixed point and the linear part above it.
All iterates are nonnegative and pointwise nondecreasing, so each phase
either converges, or grows past a ceiling and is reported as divergent
at this resolution; in phase 1 that reads "no fixed point at level 0",
the grid's smallest time scale, where the data's fate is decided.
``dichotomy_sweep`` bisects the data scale between the two outcomes,
every probe solved by one ``PicardRunner`` on one shared grid; a split
that ends Inconclusive goes on from its last iterate, in its phase,
instead of starting again.  The grid, ``SpaceTimeGrid``, is every
solver object's one source of the domain, the nodes and the space
dimension, which it alone checks.

Discretization choices, in one place:

* time levels are geometric from ``horizon * first_time_fraction``;
  spatial nodes are graded toward the absorbing boundary and toward the
  data's singular anchors (one spatial dimension only);
* every kernel sum, in the memory integral, the restart check and the
  data's linear evolution, has two regimes, switched by ``_mode_count``
  alone: on the grid's sine interval [0, L] (``_sine_interval``) at t >=
  tau_s L^2 (tau_s = 1e-4) it runs over the sine modes (2/L) sin(omega x)
  sin(omega y) exp(-omega^2 t), omega = k pi / L for k = 1..K, K =
  ceil(L R(t) / (2 pi t)) + 1, applied in mode space, S diag(decay)
  (P^T v), and never formed as an n x n matrix; everywhere else over
  the signed image sources of ``kernels.images``, on the interval
  the shifts 2kL for k = -m..m, m = max(1, ceil((L + R(t)) / (2L))).
  The sine interval is the interval itself, and on the half-line the
  virtual wall L = X + R(T), X the farthest node or source and T the
  horizon: between points of [0, X] the half-line's kernel is that
  interval's up to images at distance 2L - 2X >= 2 R(T), below 1e-16 of
  the peak up to t = 4T.  The whole line keeps its images.  One reach,
  R(t) = sqrt(4 t ln 1e16) (``kernels._reach``), sets the image count,
  the mode count and the virtual wall;
* the memory integral uses exact kernel integrals, never interpolated
  kernels, on a geometric ladder of time offsets to which every
  quadrature node snaps; image-sum ladder entries are cached as
  matrices (stored as below), sine-series ones as their modes' decay.
  The ladder ratio is sqrt(g), g = max(t_1 / t_0, 1.2) from the first
  two levels, widened when the ladder would exceed 140 entries;
* matrix entries and the data's evolution are exact kernel integrals
  against hat functions, closed forms per cell; the image sums take
  only the cells within the reach R(t) of each target, the truncation
  of ``kernels.images``, and for each target only the images within
  R(t) of its cells, all as flat (target, edge) runs, one pass per time
  in chunks of whole targets; an image-sum matrix zeros the entries of
  hats beyond the reach (no rescaling: a matrix row sums to the kernel
  mass in the node window), while the sine modes keep them; the sine
  modes' node values S and hat projections P are built once per node
  set, at the largest mode count, and every sine-series time takes
  their first K columns;
* the data's linear evolution has one entry, ``_InitialEvaluator.at_times``;
  its sources are the density linearized per cell, point masses
  (interior atoms, cells at a singular anchor) and wall masses.  Each
  end of the data is a wall or an end node, and data past an end node
  that is not a wall is refused;
* an image-sum matrix is cached in float32 as row blocks of 32 targets
  over their reach band (``_Band``): each block spans the hats its rows
  keep, all blocks as wide as the widest, and a matrix whose blocks
  would hold more than n^2 / 2 entries is kept whole;
* an apply transports all source rows u(s)^p of a cached matrix at
  once, one batched float32 product over its blocks (one GEMM for a
  whole matrix), then weights the products in float64; the sine-series
  entries share one float64 projection of their source rows onto the
  hats' sine modes, are weighted per entry in mode space, and take one
  product with the nodes' sine values, clipped at 0 per level;
* below the first time level the iterate follows the shape of the
  linear evolution of the data (the ratio to its first-level values),
  which is exact for the first correction and conservative afterwards;
  that window is cut into geometric slivers of ratio g down to
  1e-3 * t_0 (the sliver floor);
* the integral tail below the tau floor, 1e-2 * t_0, uses the identity
  approximation of the short-time kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import erf as _erf

from .kernels import (
    _reach,
    Domain,
    HalfSpace,
    Interval,
    boundary_distance,
    images,
    kernel_values,
    normal_derivative,
    space_dim,
    walls,
)
from .measures import (
    MeasureSpec,
    SingularFamily,
    _touches,
    _weight,
    _weighted_density,
    make_family,
)
from .quadrature import integrate, Ball

__all__ = [
    "SpaceTimeGrid",
    "GridFunction",
    "SolveOutcome",
    "RestartReport",
    "make_grid",
    "measure_grid",
    "PicardRunner",
    "picard_solve",
    "DichotomyResult",
    "RATIO_TARGET",
    "dichotomy_sweep",
    "restart_residual",
]

_INTERIOR_CUT = 1e-3  # sup norms ignore nodes closer to the boundary
_TAU_FLOOR = 1e-2  # memory-integral tau floor, in units of the first level
_SLIVER_FLOOR = 1e-3  # lowest sliver edge, in units of the first level
_SOURCE_BLOCK = 128  # memory-integral source rows interpolated at once
_TARGET_BLOCK = 32  # rows of a banded matrix block; cells or nodes of a sine-mode sum at once
_RUN_CHUNK = 1 << 13  # (image, target, edge) triples of the hat weights evaluated at once
RATIO_TARGET = 1.2  # dichotomy sweeps stop below this kappa_high / kappa_low
_RESTART_MARGIN = 0.05  # restart checks skip nodes this near a wall, per unit of node span
_TIME_RATIO = 1.3  # ratio of consecutive grid time levels
_MIN_SPACING = 1e-4  # finest node spacing of a grid cluster
_CONV_TOL = 1e-7  # a solve converges once its sup and weighted-L1 steps fall below
_BLOWUP_CEILING = 1e8  # a solve diverges once its interior sup passes this
# tau_s: on the sine interval, kernels at t >= tau_s L^2 are summed over
# sine modes (at most 195 of them), below it over images
_SPECTRAL_FROM = 1e-4
# the positive half of the 8-point Gauss-Legendre rule on [-1, 1] (nodes,
# weights; Abramowitz & Stegun 25.4), as literals because computing the
# rule at import runs LAPACK and adds 0.9 MB to a process's peak memory
_GL_X = (0.183434642495649805, 0.525532409916328986,
         0.796666477413626740, 0.960289856497536232)
_GL_W = (0.362683783378361983, 0.313706645877887287,
         0.222381034453374471, 0.101228536290376259)


# ---------------------------------------------------------------------------
# grid and field types


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    """Spatial nodes plus geometric time levels on one domain, the
    solver's one source for both; the domain has one space dimension."""

    domain: Domain
    nodes: np.ndarray  # (n, 1)
    times: np.ndarray  # (M,) strictly increasing, 0 < t <= horizon
    horizon: float

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        times = np.asarray(self.times, dtype=float).reshape(-1)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "times", times)
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if times.size < 2:
            raise ValueError("need at least two time levels")
        if not (np.all(np.diff(times) > 0) and times[0] > 0):
            raise ValueError("time levels must be positive and increasing")
        if times[-1] > self.horizon * (1 + 1e-12):
            raise ValueError("time levels exceed the horizon")
        if space_dim(self.domain) != 1:
            raise NotImplementedError("grids are built in one space dimension")
        if nodes.shape[1] != 1:
            raise ValueError("node dimension does not match the domain")
        d = np.asarray(boundary_distance(self.domain, nodes), dtype=float).reshape(-1)
        if np.any(d < -1e-12):
            raise ValueError("grid nodes must lie in the closed domain")
        x = nodes[:, 0]
        if np.any(np.diff(x) <= 0):
            raise ValueError("one-dimensional nodes must be sorted unique")
        w = np.empty_like(x)
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
        w[0] = 0.5 * (x[1] - x[0])
        w[-1] = 0.5 * (x[-1] - x[-2])
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_bdist", d)
        object.__setattr__(self, "_bweights", w * _weight(self.domain, nodes))

    @property
    def node_weights(self) -> np.ndarray:
        return self._weights

    @property
    def boundary_weights(self) -> np.ndarray:
        """Node weights times the weight w (d with a wall, 1 on the whole
        space), the quadrature of w(x) dx."""
        return self._bweights

    @property
    def node_boundary_distance(self) -> np.ndarray:
        return self._bdist

    @property
    def boundary_mask(self) -> np.ndarray:
        return self._bdist == 0.0

    @property
    def interior_mask(self) -> np.ndarray:
        return self._bdist > _INTERIOR_CUT

    def grid_id(self) -> str:
        """Short name of the grid: domain kind, node and level counts,
        horizon."""
        return (
            f"{type(self.domain).__name__.lower()}"
            f"-n{self.nodes.shape[0]}-t{self.times.size}-h{self.times[-1]:.6g}"
        )


@dataclass(eq=False)
class GridFunction:
    """Nonnegative field sampled on a grid; zero at boundary nodes."""

    grid: SpaceTimeGrid
    values: np.ndarray  # (M, n)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        m, n = self.grid.times.size, self.grid.nodes.shape[0]
        if vals.shape != (m, n):
            raise ValueError(f"values must have shape {(m, n)}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        if np.any(vals < -1e-12):
            raise ValueError("field values must be nonnegative")
        vals = np.maximum(vals, 0.0)
        bad = self.grid.boundary_mask & (np.max(vals, axis=0) > 0)
        if np.any(bad):
            raise ValueError("boundary nodes must carry value zero")
        self.values = vals

    def weighted_l1(self, level: int = -1) -> float:
        """Mass of the field at one time level against the boundary
        weight (plain Lebesgue weight when there is no boundary)."""
        return float(np.sum(self.grid.boundary_weights * self.values[level]))


@dataclass
class SolveOutcome:
    status: str  # Converged | Diverged | Inconclusive
    iterations: int
    final: GridFunction
    history: list
    diagnostics: str = ""


@dataclass(frozen=True)
class RestartReport:
    """``restart_residual``'s max |lhs - rhs| over its ``node_count``
    nodes, relative to the max of lhs there, from t_start to t_end."""

    max_rel_residual: float
    node_count: int
    t_start: float
    t_end: float


# ---------------------------------------------------------------------------
# grid construction


def _domain_span(domain: Domain, anchors, horizon, extent):
    """The nodes' ends: each wall, else -+extent or the padded anchors."""
    pad = 1.0 + 6.0 * math.sqrt(horizon)
    vals = anchors + [0.0]
    free = (-extent, extent) if extent is not None else (min(vals) - pad, max(vals) + pad)
    return tuple(float(v) for v in np.where(np.isfinite(domain.bounds), domain.bounds, free))


def make_grid(
    domain: Domain,
    horizon: float,
    anchors: Sequence = (),
    *,
    target_nodes: int = 400,
    first_time_fraction: float = 1e-3,
    extent: Optional[float] = None,
) -> SpaceTimeGrid:
    """Graded grid: geometric node clusters at the boundary and at each
    anchor, uniform background, geometric time levels."""
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if not (0 < first_time_fraction < 1 and (extent is None or 0 < extent < math.inf)):
        raise ValueError("need 0 < first_time_fraction < 1 and 0 < extent < inf")
    anc = [float(np.asarray(a, dtype=float).reshape(-1)[0]) for a in anchors]
    lo, hi = _domain_span(domain, anc, horizon, extent)
    span = hi - lo
    h_bg = span / max(40.0, 0.55 * target_nodes)

    specials = [lo, hi] + [a for a in anc if lo < a < hi]
    pts = list(np.arange(lo, hi, h_bg)) + [hi]
    for c in specials:
        w = _MIN_SPACING
        while w < h_bg:
            for cand in (c - w, c + w):
                if lo < cand < hi:
                    pts.append(cand)
            w *= 1.35
    pts = np.unique(np.asarray(pts, dtype=float))
    # drop generic points that crowd a special one, then merge greedily
    for c in specials:
        pts = pts[(np.abs(pts - c) > 0.3 * _MIN_SPACING) | (pts == c)]
    pts = np.unique(np.concatenate([pts, np.asarray(specials)]))
    keep = [pts[0]]
    for x in pts[1:]:
        if x - keep[-1] >= 0.2 * _MIN_SPACING:
            keep.append(x)
    keep[-1] = hi
    nodes = np.asarray(keep)[:, None]

    t = horizon * first_time_fraction
    times = []
    while t < horizon * (1.0 - 1e-9):
        times.append(t)
        t *= _TIME_RATIO
    times.append(horizon)
    return SpaceTimeGrid(domain, nodes, np.asarray(times), horizon)


def measure_grid(domain: Domain, mu: MeasureSpec, horizon: float, **grid_options):
    """``make_grid`` with the measure's singular point and atoms as anchors."""
    anchors = [a for a, _ in mu.atoms]
    if mu.singularity is not None:
        anchors.append(mu.singularity[0])
    return make_grid(domain, horizon, anchors, **grid_options)


# ---------------------------------------------------------------------------
# the kernel against linear cells: transport matrices and the data's
# linear evolution on the grid nodes
#
# Both keep the cells of ``_window``, within the reach R(t) = sqrt(4 t ln
# 1e16): every image is at least as far from a cell beyond it, so each term
# left out carries the Gaussian factor below 1e-16 that ``kernels.images``
# drops; for the same reason a target leaves out whole each image beyond
# the reach of its cells.  The matrices take per-cell hat weights from
# ``_hat_weights`` at every time, the data's evolution below the switch of
# ``_mode_count``; from it on the evolution takes sine-mode ones from
# ``_sine_cell_weights``, and nodal values move in mode space through the
# nodes' ``_sine_basis`` (``_transport``), all on the grid's
# ``_sine_interval``.


def _interval_moments(pos, edges, t):
    """(∫ g, ∫ y g) between consecutive ``edges`` for the 1-d heat kernel
    g centred at ``pos``, one centre per edge, an array of the shape of
    ``edges`` (..., k): arrays (..., k - 1), the moments over each pair of
    neighbours about the left one's centre; erf and exp are evaluated
    once per edge."""
    z = (edges - pos) / (2.0 * math.sqrt(t))
    e = _erf(z)
    g = (4.0 * math.pi * t) ** -0.5 * np.exp(-z * z)
    p = 0.5 * (e[..., 1:] - e[..., :-1])
    m1 = pos[..., :-1] * p + 2.0 * t * (g[..., :-1] - g[..., 1:])
    return p, m1


def _window(x: np.ndarray, y: np.ndarray, t: float):
    """``(c_lo, c_hi, reach)``: the cells between sorted edges ``y``
    within the reach R(t) of target x[i] are c_lo[i]..c_hi[i]."""
    reach = _reach(t)
    c_lo = np.searchsorted(y[1:], x - reach, side="left")
    c_hi = np.searchsorted(y[:-1], x + reach, side="right") - 1
    return c_lo, c_hi, reach


def _hat_weights(domain: Domain, x: np.ndarray, y: np.ndarray, t: float, pad: int = 0):
    """Hat weights of the kernel from targets ``x`` against the cells
    between sorted edges ``y``, over flat reach runs: ``(c_lo, c_hi,
    chunks)``, c_lo and c_hi from ``_window``.  Target i keeps the run of
    cells c_lo[i] - pad .. c_hi[i] + pad (within the edges; pad 1 keeps
    each hat on an in-reach cell whole), once per image within the reach
    of that run: the others add only Gaussian tails below 1e-16.  The
    runs are evaluated a chunk of whole targets at a time, about
    ``_RUN_CHUNK`` edges (so the chunk size changes no target's sum),
    each edge's erf and exp once; ``chunks`` yields per chunk ``(rows,
    target, cell, left, right)``: the slice of targets it covers and,
    flat over its (image, target, cell) triples, image by image, the
    target, the cell and the signed weights ∫ g (y1 - y) / h and
    ∫ g (y - y0) / h over the cell [y0, y1]."""
    h = np.diff(y)
    if y.size < 2 or np.any(h <= 0):
        raise ValueError("need at least two strictly increasing nodes")
    c_lo, c_hi, reach = _window(x, y, t)
    first = np.maximum(c_lo - pad, 0)
    count = np.maximum(np.minimum(c_hi + pad, h.size - 1) - first + 1, 0)
    lo, hi = y[first] - reach, y[first + count] + reach
    signs, pos = zip(*((s, p[:, 0]) for s, p in images(domain, x[:, None], t)))
    signs, pos = np.array(signs), np.array(pos)
    near = (pos >= lo) & (pos <= hi) & (count > 0)  # (images, targets)
    size = near.sum(axis=0) * (count + 1)
    heads = np.flatnonzero(np.diff((np.cumsum(size) - size) // _RUN_CHUNK)) + 1
    bounds = [0, *heads.tolist(), x.size]

    def chunks():
        for a, b in zip(bounds[:-1], bounds[1:]):
            image, target = np.nonzero(near[:, a:b])
            if not target.size:
                continue
            target += a
            cells = count[target]
            ends = np.cumsum(cells + 1)  # one past each run's last edge
            edge = np.arange(ends[-1]) + np.repeat(first[target] - (ends - cells - 1), cells + 1)
            p, m1 = _interval_moments(np.repeat(pos[image, target], cells + 1), y[edge], t)
            inner = np.ones(p.size, bool)
            inner[ends[:-1] - 1] = False  # the pairs of edges from two runs
            cell, p, m1 = edge[:-1][inner], p[inner], m1[inner]
            sign = np.repeat(signs[image], cells)
            yield (slice(a, b), np.repeat(target, cells), cell,
                   sign * (y[cell + 1] * p - m1) / h[cell], sign * (m1 - y[cell] * p) / h[cell])

    return c_lo, c_hi, chunks()


def _sine_interval(grid: SpaceTimeGrid, sources=()) -> Optional[Interval]:
    """The interval [0, L] whose sine modes carry the grid's wide
    kernels: the domain itself on the interval, on the half-line
    Interval(X + R(T)) with X the largest of the last node and the
    positions ``sources`` and T the horizon (the virtual wall, which
    carries no mass), and None on the whole line.  Every sine helper
    takes this interval, never the domain."""
    domain = grid.domain
    if isinstance(domain, Interval):
        return domain
    if isinstance(domain, HalfSpace):
        return Interval(max([float(grid.nodes[-1, 0]), *sources]) + _reach(grid.horizon))
    return None


def _mode_count(sine: Optional[Interval], t: Optional[float] = None) -> int:
    """Number of sine modes sin(k pi y / L), k = 1..K, that carry the
    kernel at time t on the sine interval ``sine`` of ``_sine_interval``,
    or 0 where the image sum serves instead: below tau_s L^2, and where
    there is no sine interval.  K is the reach's truncation, the first
    mode with exp(-omega^2 t) below 1e-16: omega_K >= sqrt(ln 1e16 / t) =
    R(t) / (2t).  Without t, the count at tau_s L^2, the largest (195 for
    every L)."""
    if sine is None:
        return 0
    start = _SPECTRAL_FROM * sine.length**2
    if t is None:
        t = start
    elif t < start:
        return 0
    return math.ceil(sine.length * _reach(t) / (2.0 * t * math.pi)) + 1


def _sine_phases(z: np.ndarray, k: int):
    """sin and cos of pi j z for j = 1..k, arrays (z.size, k), z = y / L
    in [0, 1].  The product j z is split so that it is reduced exactly to
    n + r with n an integer and |r| <= 1/2 (j * hi is exact for j <
    2**12): each value keeps its relative accuracy next to the zeros at
    the walls, up to the top mode."""
    hi = np.round(z * 2.0**40) * 2.0**-40
    j = np.arange(1, k + 1)
    whole = np.fmod(np.outer(hi, j), 2.0)
    n = np.round(whole)
    phase = np.pi * ((whole - n) + np.outer(z - hi, j))
    sign = 1.0 - 2.0 * (n == 1.0)
    return sign * np.sin(phase), sign * np.cos(phase)


def _sine_cell_weights(edges: np.ndarray, length: float, k: int):
    """Sine-mode weights of the cells between sorted ``edges``, a block
    of cells at a time: yields ``(cells, left, right)``, the block's
    slice and its weights ∫ sin(omega y) (y1 - y) / h and ∫ sin(omega y)
    (y - y0) / h over each cell [y0, y1], omega = j pi / L for j = 1..k,
    arrays (block, k).  About the midpoint m, with phi = omega h / 2,
    they are (h / 2) (sin(omega m) sin(phi) / phi -+ cos(omega m)
    j1(phi)), the closed form of sin b - sin a = 2 cos((a + b) / 2)
    sin((b - a) / 2).  j1(phi) = (sin phi - phi cos phi) / phi^2 cancels
    for small phi, so cells with omega h < 1 take it from 8-point
    Gauss-Legendre."""
    omega = np.arange(1, k + 1) * (math.pi / length)
    for a in range(0, edges.size - 1, _TARGET_BLOCK):
        y = edges[a:a + _TARGET_BLOCK + 1]
        h = np.diff(y)
        s, c = _sine_phases(0.5 * (y[:-1] + y[1:]) / length, k)
        phi = np.outer(0.5 * h, omega)
        even = np.sin(phi) / phi
        odd = (even - np.cos(phi)) / phi
        small = phi < 0.5
        odd[small] = sum(w * x * np.sin(phi[small] * x) for x, w in zip(_GL_X, _GL_W))
        s *= even
        c *= odd
        half = 0.5 * h[:, None]
        yield slice(a, a + h.size), half * (s - c), half * (s + c)


@functools.lru_cache(maxsize=1)
def _sine_basis(sine: Interval, nodes: bytes):
    """``(S, P)`` of the float64 nodes y packed in ``nodes``, read-only
    arrays (y.size, K) at the largest mode count K = ``_mode_count``:
    S[i, j] = sin(omega_j y_i) and P[i, j] the projection of hat i,
    ∫ sin(omega_j y) hat_i(y) dy.  Mode j's values do not depend on K,
    so a time with fewer modes takes the first columns.  The memo keeps
    the last node set asked, the one grid a solve works on."""
    y = np.frombuffer(nodes)
    length, k = sine.length, _mode_count(sine)
    hats = np.zeros((y.size, k))
    for cells, left, right in _sine_cell_weights(y, length, k):
        hats[cells] += left  # hat j: left weight of cell j, right of cell j - 1
        hats[cells.start + 1:cells.stop + 1] += right
    # a block of nodes at a time, so the phases' temporaries stay small
    phases = np.empty((y.size, k))
    for a in range(0, y.size, _TARGET_BLOCK):
        phases[a:a + _TARGET_BLOCK] = _sine_phases(y[a:a + _TARGET_BLOCK] / length, k)[0]
    phases.flags.writeable = hats.flags.writeable = False
    return phases, hats


def _sine_decay(sine: Interval, tau: float) -> np.ndarray:
    """The sine series' diagonal at time tau, (2/L) exp(-omega_j^2 tau)
    for the K = ``_mode_count(sine, tau)`` modes that carry it and 0
    after them, up to the basis's largest mode count."""
    k = _mode_count(sine, tau)
    omega = np.arange(1, k + 1) * (math.pi / sine.length)
    out = np.zeros(_mode_count(sine))
    out[:k] = (2.0 / sine.length) * np.exp(-omega * omega * tau)
    return out


@dataclass(frozen=True, eq=False)
class _Band:
    """A transport matrix (n, n) kept as blocks of target rows: block b
    holds rows b B .. b B + B - 1 (the last block padded with zero rows)
    over the W columns ``cols[b]``, consecutive, and every entry of those
    rows outside them is 0.  A banded matrix takes B = ``_TARGET_BLOCK``
    rows a block, a whole one a single block of all n rows over all n
    columns.  ``a @ v`` transports a vector (n,), or each row of a stack
    (r, n), that is v A^T; ``size`` counts the stored entries."""

    blocks: np.ndarray  # (blocks, B, W)
    cols: np.ndarray  # (blocks, W)
    n: int

    @property
    def size(self) -> int:
        return self.blocks.size

    @property
    def whole(self) -> bool:
        return self.blocks.shape == (1, self.n, self.n)

    def astype(self, dtype) -> "_Band":
        return _Band(self.blocks.astype(dtype), self.cols, self.n)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if self.whole:
            return v @ self.blocks[0].T
        # each block's columns of every source row, (blocks, W, rows), in
        # one batched product with the blocks
        stack = v.reshape(-1, self.n)
        out = np.matmul(self.blocks, stack.T[self.cols])
        return out.reshape(-1, stack.shape[0])[:self.n].T.reshape(v.shape)


def _hat_transport_matrix(grid: SpaceTimeGrid, tau: float) -> _Band:
    """Transport matrix for a piecewise-linear field on sorted nodes.

    Entry (i, j) is the exact integral of the kernel from node i against
    the hat function of node j, so applying the matrix to nodal values
    transports the interpolant with no quadrature error at all.  Row
    sums equal the kernel mass inside the node window, which keeps edge
    rows honest and makes sharp kernels on coarse cells exact instead of
    aliased.

    The entries are the image sum over the reach runs of ``_hat_weights``
    at every tau.  A hat is kept whole when one of its two cells is within
    the reach of ``_window`` (hat j touches cells j - 1 and j): each run
    takes one cell more on each side and keeps only the inner half of
    those two; every other entry is 0, and all are clipped at 0.

    The result is a ``_Band`` in float64, the weights of each chunk of
    rows added straight into its blocks by one ``np.bincount``: each
    block of ``_TARGET_BLOCK`` rows spans the kept hats of its rows, W is
    the widest such span and a block starts at its first kept hat, moved
    left to n - W at most.  If those blocks would hold more than n^2 / 2
    entries, the matrix is kept whole, one block of n rows over all n
    columns."""
    y = grid.nodes[:, 0]
    n = y.size
    c_lo, c_hi, chunks = _hat_weights(grid.domain, y, y, tau, pad=1)
    # the kept hats of row i are c_lo[i] .. c_hi[i] + 1
    heads = np.arange(0, n, _TARGET_BLOCK)
    lo = np.minimum.reduceat(c_lo, heads)
    width = int(np.max(np.maximum.reduceat(c_hi + 1, heads) - lo)) + 1
    if heads.size * _TARGET_BLOCK * width > 0.5 * n * n:
        per_block, width, starts = n, n, np.zeros(1, int)
    else:
        per_block, starts = _TARGET_BLOCK, np.minimum(lo, n - width)
    blocks = np.zeros((starts.size, per_block, width))
    flat = blocks.reshape(-1)
    for rows, target, cell, left, right in chunks:
        # hat j takes the left weight of cell j and the right one of cell
        # j - 1: a pad cell gives only the half of the kept hat
        at = (target - rows.start) * width + cell - starts[target // per_block]
        lk, rk = cell >= c_lo[target], cell <= c_hi[target]
        flat[rows.start * width:rows.stop * width] = np.bincount(
            np.concatenate([at[lk], at[rk] + 1]), np.concatenate([left[lk], right[rk]]),
            minlength=(rows.stop - rows.start) * width)
    np.maximum(blocks, 0.0, out=blocks)
    return _Band(blocks, starts[:, None] + np.arange(width), n)


def _transport(grid: SpaceTimeGrid, tau: float, v: np.ndarray) -> np.ndarray:
    """The kernel at time tau applied to nodal values ``v`` (n,) or (r, n)
    as ``_Band`` applies it: below the switch of ``_mode_count`` through
    ``_hat_transport_matrix``, from it in mode space, S (decay (P^T v))
    clipped at 0, from the first K columns of the nodes' ``_sine_basis``,
    which keeps the entries beyond the reach like the modes past K."""
    sine = _sine_interval(grid)
    k = _mode_count(sine, tau)
    if not k:
        return _hat_transport_matrix(grid, tau) @ v
    s, p = _sine_basis(sine, grid.nodes.tobytes())
    out = ((v @ p[:, :k]) * _sine_decay(sine, tau)[:k]) @ s[:, :k].T
    return np.maximum(out, 0.0, out=out)


class _InitialEvaluator:
    """Evaluates the linear evolution of a measure on a grid's nodes for
    arbitrary times, scale factor removed (multiply by it afterwards),
    through its one entry ``at_times``.  The measure is reduced once to
    three source lists: ``_cells`` (edges and the endpoint values vL, vR
    of each linearized cell, zero elsewhere), ``_points`` (position,
    plain mass) for ``kernel_values``, among them the exact mass of each
    cell at a singular anchor at its exact centroid, and ``_walls`` (wall
    position, mass) for ``normal_derivative``.  The data act through the
    boundary-weighted kernel G/w, so the plain kernel G takes the density
    against w(y) dy, ``measures._weighted_density``, and an interior atom
    m at a the mass m / w(a).  Each end of the cells is a wall or an end
    node.  The evaluator refuses a plain-mode density that is positive on
    a wall, and data past an end node that is not a wall: a stated
    support past it, or a density without one that is positive at it.

    The two regimes of ``_mode_count`` on ``sine_interval``, the grid's
    ``_sine_interval`` as far as every point source: below tau_s L^2,
    and on the whole line, ``_image_sum`` sums the cells' images over the
    reach runs of ``_hat_weights``, each target over its own cells within
    reach and the images within reach of them, in one flat pass per time
    summed per target by ``np.bincount``, and adds the point and wall
    masses through ``kernel_values`` and ``normal_derivative``.  From
    tau_s L^2 on, ``_mode_sum`` projects the sources once per call onto
    the sine modes of [0, L]: the cells by ``_sine_cell_weights``, a
    point mass m at a as m sin(omega a), a wall mass m as m omega at 0
    and -m omega cos(omega L) at L (on the half-line the virtual wall at
    L carries none).  It reads the nodes' sin(omega x) from the grid's
    ``_sine_basis``, which the memory integral and ``_transport`` share,
    and evaluates all such times in one product."""

    def __init__(self, mu: MeasureSpec, grid: SpaceTimeGrid):
        domain = self.domain = grid.domain
        self.mu = mu
        self.x = grid.nodes[:, 0]
        self._wall_nodes = grid.boundary_mask
        sing = mu.singularity
        self._anchor = None if sing is None else float(np.reshape(sing[0], -1)[0])
        self._cells, self._points, self._walls = None, [], []
        self._build_cells()
        for a, m in mu.atoms:
            pa = np.asarray(a, dtype=float).reshape(-1)
            w = _weight(domain, pa)
            # atoms on a wall are wall masses; any other pairs with w(a)
            if w == 0.0:
                self._walls.append((pa, m))
            else:
                self._points.append((pa, m / w))
        ends = np.array(walls(domain))[:, None]
        if mu.boundary_density is not None and ends.size:
            dens = np.asarray(mu.boundary_density(ends, None), float).reshape(-1)
            self._walls += [(b, w) for b, w in zip(ends, dens) if w > 0]
        self.sine_interval = _sine_interval(grid, [float(pos[0]) for pos, _ in self._points])

    # -- mesh over the measure support

    def _build_cells(self):
        domain, mu = self.domain, self.mu
        bounds = domain.bounds
        # each end is a wall or, where there is none, the end node
        lo, hi = (float(v) for v in np.where(np.isfinite(bounds), bounds, self.x[[0, -1]]))
        node_lo, node_hi = lo > bounds[0], hi < bounds[1]
        stated = mu.support_center is not None and mu.support_radius is not None
        if stated:
            c = float(np.asarray(mu.support_center).reshape(-1)[0])
            start, end = c - mu.support_radius, c + mu.support_radius
            # an end node cuts the support only where no wall does
            past = (start < lo and node_lo) or (end > hi and node_hi)
            if mu.interior_density is not None and past:
                raise ValueError(f"the density's support [{start:.6g}, {end:.6g}] reaches "
                                 f"past the nodes [{lo:.6g}, {hi:.6g}]: extend the grid over it")
            lo, hi = max(lo, start), min(hi, end)
        if mu.interior_density is None or not hi > lo:
            return
        self._density = _weighted_density(mu, domain)
        anchor = self._anchor
        specials = sorted({lo, hi} | ({anchor} if anchor is not None else set()))
        span = hi - lo

        breaks = [lo]
        pos = lo
        while pos < hi:
            dist = min(abs(pos - s) for s in specials)
            near_anchor = anchor is not None and abs(pos - anchor) <= dist + 1e-300
            floor = (1e-7 if near_anchor else 1e-5) * span
            step = max(floor, 0.06 * dist)
            # never step across a special point
            ahead = [s for s in specials if s > pos + 1e-12 * span]
            if ahead and pos + step > ahead[0]:
                step = ahead[0] - pos
            pos = min(pos + step, hi)
            breaks.append(pos)
        edges = np.asarray(breaks)
        edges[-1] = hi

        c0, c1 = edges[:-1], edges[1:]
        touches = _touches(mu, 0.5 * (c0 + c1), 0.5 * (c1 - c0))
        vL = self._density(c0[:, None])
        vR = self._density(c1[:, None])
        wall = np.asarray(boundary_distance(domain, edges[:, None])) == 0.0
        if mu.interior_mode == "dx" and np.any(wall & (np.append(vL, vR[-1]) > 0)):
            raise ValueError("plain-mode density must vanish at the absorbing boundary")
        # a density with no stated support must vanish at an end node that is no wall
        cut = [e for e, node, v in ((lo, node_lo, vL[0]), (hi, node_hi, vR[-1])) if node and v > 0]
        if cut and not stated:
            raise ValueError(f"the density is positive at the end node {cut[0]:.6g}, where no "
                             "wall ends it: extend the grid over it")
        with np.errstate(invalid="ignore"):
            singular = touches | ~np.isfinite(vL) | ~np.isfinite(vR)
            ratio = np.maximum(vL, vR) / np.maximum(np.minimum(vL, vR), 1e-300)
        singular |= ratio > 4.0

        smooth = ~singular & ((vL > 0) | (vR > 0))
        if np.any(smooth):
            self._cells = (edges, np.where(smooth, vL, 0.0), np.where(smooth, vR, 0.0))

        for i in np.nonzero(singular)[0]:
            mass, cen = self._cell_mass_centroid(float(c0[i]), float(c1[i]), touches[i])
            if mass > 0:
                self._points.append((np.array([cen]), mass))

    def _cell_mass_centroid(self, c0, c1, touches):
        """Equivalent plain point mass of one mesh cell; touches says
        whether it touches the singular point (``measures._touches``).

        Cells reaching the absorbing wall are reduced in weighted form
        (mass of d * density, then divided by the weight at the
        centroid): their plain effective density need not be integrable
        there.  Family cells touching the anchor use the closed-form
        radial primitives, one per side of the anchor, the only way to
        capture the borderline profiles whose mass tail is invisible to
        quadrature; at a wall anchor they carry the weight d = r as one
        more power of the offset r.  Every other
        cell is integrated with the anchor as the quadrature's origin, so
        its offsets stay exact next to the anchor, and is refused when
        either integral misses its tolerance."""
        mu = self.mu
        prof = mu.radial_profile
        domain = self.domain

        if prof is not None and prof.dim == 1 and touches and mu.interior_mode == "d_dx":
            z = self._anchor
            eps = 1e-12 * max(abs(c0), abs(c1), 1.0)
            # at a wall anchor the mass is of d * density, d = r: one power more
            wall = 1.0 if _weight(domain, [z]) == 0.0 else 0.0
            mass = m1 = 0.0
            for side, r in ((1.0, c1 - z), (-1.0, z - c0)):
                if r > eps:
                    m = prof.primitive(wall, r)
                    mass += m
                    m1 += m * z + side * prof.primitive(wall + 1.0, r)
            if mass <= 0:
                return 0.0, 0.5 * (c0 + c1)
            cen = min(max(m1 / mass, c0), c1)
            return (mass / _weight(domain, [cen]) if wall else mass), cen

        wall = _weight(domain, [c0]) == 0.0 or _weight(domain, [c1]) == 0.0

        def f(pts, off=None):
            vals = self._density(pts, off)
            return vals * _weight(domain, pts) if wall else vals

        def fm(pts, off=None):
            return f(pts, off) * pts[:, 0]

        region = Ball(center=(0.5 * (c0 + c1),), radius=0.5 * (c1 - c0))

        def moment(g):
            res = integrate(g, region, 1e-10, singularity_hint=mu.singularity)
            if not res.converged:
                raise ValueError(f"the data's moments on the cell [{c0:.6g}, {c1:.6g}] "
                                 "missed their tolerance")
            return res.value

        mass = moment(f)
        if mass <= 0:
            return 0.0, 0.5 * (c0 + c1)
        m1 = moment(fm)
        cen = min(max(m1 / mass, c0), c1)
        if wall:
            return mass / _weight(domain, [cen]), cen
        return mass, cen

    # -- evaluation

    def _image_sum(self, t: float) -> np.ndarray:
        """The evolution at time t, each source summed over its images."""
        x = self.x
        out = np.zeros(x.size)
        if self._cells is not None:
            edges, vL, vR = self._cells
            for _, target, cell, left, right in _hat_weights(self.domain, x, edges, t)[2]:
                out += np.bincount(target, left * vL[cell] + right * vR[cell], minlength=x.size)
        for pos, m in self._points:
            out += m * kernel_values(self.domain, pos, x[:, None], t)
        for pos, m in self._walls:
            out += m * normal_derivative(self.domain, x[:, None], pos, t)
        return out

    def _mode_sum(self, times: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The evolution at each time from its ``counts`` sine modes: the
        sources projected once onto the most modes asked, then one
        product with the nodes' sine values."""
        k = int(np.max(counts))
        sine = self.sine_interval
        length = sine.length
        omega = np.arange(1, k + 1) * (math.pi / length)
        q = np.zeros(k)
        if self._cells is not None:
            edges, vL, vR = self._cells
            for cells, left, right in _sine_cell_weights(edges, length, k):
                q += vL[cells] @ left + vR[cells] @ right
        for pos, m in self._points:
            q += m * _sine_phases(pos / length, k)[0][0]
        for pos, m in self._walls:
            inward = 1.0 if pos[0] == 0.0 else -1.0
            q += inward * m * omega * _sine_phases(pos / length, k)[1][0]
        decay = np.array([_sine_decay(sine, t)[:k] for t in times]) * q
        return decay @ _sine_basis(sine, self.x.tobytes())[0][:, :k].T

    def at_times(self, times) -> np.ndarray:
        """The evolution (times, nodes), 0 on wall nodes and clipped at 0."""
        times = np.asarray(times, dtype=float).reshape(-1)
        counts = np.array([_mode_count(self.sine_interval, t) for t in times], dtype=int)
        out = np.empty((times.size, self.x.size))
        for i in np.nonzero(counts == 0)[0]:
            out[i] = self._image_sum(float(times[i]))
        wide = counts > 0
        if np.any(wide):
            out[wide] = self._mode_sum(times[wide], counts[wide])
        out[:, self._wall_nodes] = 0.0
        return np.maximum(out, 0.0, out=out)


# ---------------------------------------------------------------------------
# discrete memory integral


def _indexed(groups):
    """The source rows of the sine ``groups`` (rows, levels, w, decay),
    projected once per apply, and each group with its rows as indices
    into them."""
    rows = np.unique(np.concatenate([g[0] for g in groups])) if groups else None
    return rows, [(np.searchsorted(rows, r), lv, w, decay) for r, lv, w, decay in groups]


class DuhamelOperator:
    """Precomputed quadrature plan and kernel matrices for the memory
    integral on one grid.  The kernels transport the piecewise-linear
    interpolant exactly.  The plan is kept as index arrays: the source
    times (slivers, then level interpolations) and, per ladder entry,
    the sources it transports, the levels it feeds and their weights.
    Only the image-sum entries keep a float32 matrix (``_matrix``, shared
    across iterations and data); the sine-series ones, from tau_s L^2 on
    the grid's ``_sine_interval`` (``sine_interval``), keep their modes'
    decay and act through the nodes' sine basis (``_sine_part``).  An
    image-sum matrix is a ``_Band`` from ``_hat_transport_matrix``: row
    blocks over their reach band where the band is narrow, the whole
    matrix where it is not.  Level 0 reads only the sliver sources, and
    ``_level0`` keeps each group that feeds it cut to those rows and its
    weight row, for ``apply`` on level 0 alone.  ``apply`` zeroes every
    wall node of its output.  ``stats`` counts what the operator built
    and did."""

    def __init__(self, grid: SpaceTimeGrid):
        self.grid = grid
        times = grid.times
        self.tau_floor = _TAU_FLOOR * times[0]
        g = max(float(times[1] / times[0]), 1.2)
        self._g = g

        top = float(times[-1])
        rho = math.sqrt(g)
        count = int(math.ceil(math.log(top / self.tau_floor) / math.log(rho))) + 1
        if count > 140:
            rho = (top / self.tau_floor) ** (1.0 / 139)
            count = 140
        self._ladder = top * rho ** -np.arange(count)
        self._log_rho = math.log(rho)
        self._mat = {}
        self._applies = 0
        self.sine_interval = _sine_interval(grid)

        # standard subdivision of the window below the first level
        n_sliver = int(math.ceil(-math.log(_SLIVER_FLOOR) / math.log(g)))
        t1 = float(times[0])
        self._sliver_edges = t1 * g ** -np.arange(n_sliver + 1)

        plan = [(ki, *e) for ki in range(times.size) for e in self._build_plan(ki)]
        level, ladder, weight, s = (np.asarray(c) for c in zip(*plan))
        s, source = np.unique(s, return_inverse=True)
        self.sliver_times, s = s[s < times[0]], s[s >= times[0]]
        j = np.clip(np.searchsorted(times, s, side="right") - 1, 0, times.size - 2)
        self._interp = (j, (s - times[j]) / (times[j + 1] - times[j]))

        self._groups, sine = [], []
        for m in np.unique(ladder):
            sel = ladder == m
            rows, r_idx = np.unique(source[sel], return_inverse=True)
            levels, l_idx = np.unique(level[sel], return_inverse=True)
            w = np.zeros((levels.size, rows.size))
            np.add.at(w, (l_idx, r_idx), weight[sel])
            tau = float(self._ladder[m])
            if _mode_count(self.sine_interval, tau):
                sine.append((rows, levels, w, _sine_decay(self.sine_interval, tau)))
            else:
                self._groups.append((int(m), rows, levels, w))
        self._sine_rows, self._sine = _indexed(sine)

        # level 0 reads only the sliver rows, which come first: each group
        # that feeds it, cut to its weight row 0 and the rows that row
        # weighs, as (image groups, sine rows, sine groups)
        def cut(rows, levels, w):
            keep = w[0] != 0
            return rows[keep], levels[:1], w[:1, keep]

        self._level0 = ([(m, *cut(r, lv, w)) for m, r, lv, w in self._groups if lv[0] == 0],
                        *_indexed([(*cut(r, lv, w), d) for r, lv, w, d in sine if lv[0] == 0]))

    # -- plan construction

    def _snap(self, tau: float) -> int:
        idx = round(math.log(self._ladder[0] / tau) / self._log_rho)
        return int(min(max(idx, 0), self._ladder.size - 1))

    def _kernel_layer(self, target, gap):
        """Geometric refinement of the newest time window, where the
        kernel sharpens toward the identity."""
        pieces = []
        hi = gap
        while hi > self.tau_floor * (1 + 1e-12):
            lo = max(hi / self._g, self.tau_floor)
            tau = math.sqrt(lo * hi)
            pieces.append((self._snap(tau), hi - lo, target - tau))
            hi = lo
        return pieces

    def _build_plan(self, ki):
        """Entries (ladder index, weight, source time s) of level ki."""
        times = self.grid.times
        t_k = float(times[ki])
        lo_gap = float(times[ki - 1]) if ki > 0 else self._sliver_edges[1]
        plan = self._kernel_layer(t_k, t_k - lo_gap)

        # full history windows at their geometric midpoints
        for j in range(1, ki):
            s = math.sqrt(times[j - 1] * times[j])
            plan.append((self._snap(t_k - s), float(times[j] - times[j - 1]), s))

        # data window below the first level
        edges = self._sliver_edges
        start = 1 if ki == 0 else 0
        for i in range(start, edges.size - 1):
            s = math.sqrt(edges[i] * edges[i + 1])
            plan.append((self._snap(t_k - s), float(edges[i] - edges[i + 1]), s))
        return plan

    # -- matrices

    def _matrix(self, idx: int) -> _Band:
        mat = self._mat.get(idx)
        if mat is None:
            a = _hat_transport_matrix(self.grid, float(self._ladder[idx]))
            mat = self._mat[idx] = a.astype(np.float32)
        return mat

    def stats(self) -> dict:
        """The image-sum matrices built, banded and kept whole, their
        stored float32 megabytes, the sine-series groups and the length L
        of their sine interval (None without one; they start at tau_s
        L^2), and the applies made."""
        mats = self._mat.values()
        whole = sum(a.whole for a in mats)
        sine = self.sine_interval
        return {
            "image_matrices": len(mats),
            "banded": len(mats) - whole,
            "whole": whole,
            "stored_mb": 4e-6 * sum(a.size for a in mats),
            "sine_groups": len(self._sine),
            "sine_length": None if sine is None else sine.length,
            "applies": self._applies,
        }

    # -- application

    def _sources(self, u_levels: np.ndarray, p: float, sliver_ratio: np.ndarray) -> np.ndarray:
        """The float32 sources u(s)^p, one row per source time: the
        slivers, then the level interpolations.  Powers below float32's
        smallest normal, tiny, are zeroed, since subnormal sources slow
        the GEMMs; so a base below (tiny / 2)^(1/p) is zeroed before the
        power, where float64 subnormals among such bases slow pow.  An
        integral p from 2 to 8 is taken by repeated products, cheaper
        than pow and equal to it within the float32 rounding of the
        result."""
        j, theta = self._interp
        if u_levels.shape[0] == 1:  # level 0 alone reads the slivers alone
            j = j[:0]
        k = self.sliver_times.size
        tiny = np.finfo(np.float32).tiny
        cut = (0.5 * tiny) ** (1.0 / p)
        whole = int(p) if p == int(p) and 2 <= p <= 8 else 0

        def power(base):
            base[base < cut] = 0.0
            if not whole:
                return base ** p
            out = base * base
            for _ in range(whole - 2):
                out *= base
            return out

        v = np.empty((k + j.size, u_levels.shape[1]), np.float32)
        v[:k] = power(u_levels[0] * sliver_ratio)
        # level sources a block at a time: a float64 copy of all of them
        # raised the peak memory of a 333-node solve by 8 MB
        for a in range(0, j.size, _SOURCE_BLOCK):
            jb, th = j[a:a + _SOURCE_BLOCK], theta[a:a + _SOURCE_BLOCK, None]
            v[k + a:k + a + jb.size] = power((1.0 - th) * u_levels[jb] + th * u_levels[jb + 1])
        v[v < tiny] = 0.0
        return v

    def _sine_part(self, v: np.ndarray, first: bool = False) -> np.ndarray:
        """The sine groups' share of the memory integral of the sources
        ``v`` at every level, or with ``first`` at level 0 alone through
        ``_level0``, by the nodes' basis (S, P): the groups' rows
        projected once, Q = v P in float64, then Z[levels] += w (Q[rows] *
        decay) per group and one product Z S^T.  The series
        drops no entry beyond the reach, where the terms fall below 1e-16
        of a row's mass like the modes past K, and it is clipped at 0 per
        level and node: it sums nonnegative terms, so the clip removes
        rounding alone and u^p never sees a negative base."""
        sine_rows, groups = self._level0[1:] if first else (self._sine_rows, self._sine)
        out = np.zeros((1 if first else self.grid.times.size, v.shape[1]))
        if not groups:
            return out
        s, p = _sine_basis(self.sine_interval, self.grid.nodes.tobytes())
        q = v[sine_rows].astype(np.float64) @ p
        z = np.zeros((out.shape[0], q.shape[1]))
        for rows, lv, w, decay in groups:
            z[lv] += w @ (q[rows] * decay)
        return np.maximum(np.matmul(z, s.T, out=out), 0.0, out=out)

    def apply(self, u_levels: np.ndarray, p: float, sliver_ratio: np.ndarray) -> np.ndarray:
        """Memory integral of the p-th power of the interpolated field.

        ``sliver_ratio`` holds the field shape below the first level as
        multiples of the first-level values, one row per sliver time.  A
        single row ``u_levels`` is level 0 alone, which reads only the
        slivers and itself: its sources are the sliver rows and it takes
        the plan's level-0 restriction (``_level0``).
        """
        self._applies += 1
        first = u_levels.shape[0] == 1
        v = self._sources(u_levels, p, sliver_ratio)
        out = self._sine_part(v, first)
        for m, rows, levels, w in self._level0[0] if first else self._groups:
            out[levels] += w @ (self._matrix(m) @ v[rows])
        # identity tail of the memory integral
        out += self.tau_floor * u_levels ** p
        out[:, self.grid.boundary_mask] = 0.0
        return out


# ---------------------------------------------------------------------------
# public operations


def _settled(row: dict) -> bool:
    """Whether an iteration's history row meets the convergence rule."""
    return row["sup_diff"] < _CONV_TOL and row["l1_diff"] < _CONV_TOL


class PicardRunner:
    """Shared state for repeated solves on one grid: kernel matrices,
    the data's linear evolution (linear in the scale factor), and the
    below-first-level shape.  Built once, solved for many scalings.

    ``initial_field`` is the data's linear evolution on the grid and
    ``step`` one iteration, the two pieces ``solve`` repeats."""

    def __init__(self, mu: MeasureSpec, p: float, grid: SpaceTimeGrid):
        if not p > 1:
            raise ValueError("exponent must exceed 1")
        self.mu = mu
        self.p = p
        self.grid = grid
        self.op = DuhamelOperator(grid)
        self._ev = _InitialEvaluator(mu, grid)
        self._base = self._ev.at_times(grid.times)  # scale factor 1
        if not np.all(np.isfinite(self._base)):
            raise ValueError("initial field is not finite; data too singular")
        # the field below the first level as multiples of its first-level values
        first = self._base[0]
        u1s = self._ev.at_times(self.op.sliver_times)
        with np.errstate(invalid="ignore", divide="ignore"):
            self._rat = np.where(first > 0, u1s / np.maximum(first, 1e-300), 0.0)

    def initial_field(self, kappa: Optional[float] = None) -> GridFunction:
        k = self.mu.scale_factor if kappa is None else float(kappa)
        return GridFunction(self.grid, k * self._base)

    def step(self, u: np.ndarray, u1: np.ndarray) -> np.ndarray:
        """One iteration on (levels, nodes) arrays: the linear part ``u1``
        plus the memory integral of ``u**p``.  Overflow of the power term
        shows as non-finite entries."""
        with np.errstate(over="ignore", invalid="ignore"):
            return u1 + self.op.apply(u, self.p, self._rat)

    def solve(self, kappa: Optional[float] = None, *, max_iter: int = 30,
              resume: Optional[SolveOutcome] = None) -> SolveOutcome:
        """Iterate at scale ``kappa`` (default the data's own) in two
        phases that share one budget of ``max_iter`` iterations.  Level 0
        reads only itself and the slivers below it, so phase 1 iterates it
        alone (``DuhamelOperator.apply`` on one row) to its fixed point
        u0*; a zero linear part at level 0 is its own fixed point and
        skips it.  Phase 2 iterates all levels from (u0*, linear part),
        still a subsolution, so its iterates rise to the minimal solution
        as from the linear part.

        Both phases stop by the same rules: settled when the step's
        interior sup and weighted L1 norm (at the last level iterated)
        are both below ``_CONV_TOL`` = 1e-7, Diverged when the interior
        sup passes ``_BLOWUP_CEILING`` = 1e8, doubles after iteration 3 or
        overflows, Inconclusive once the budget is spent.  Phase 1's
        divergence by growth reads "no fixed point at level 0 (t = t_0)":
        the data are too singular at the grid's smallest time scale; an
        Inconclusive phase 1 names level 0 too.  Every history row names
        its ``level``: 0 in phase 1, None in phase 2.

        Given ``resume``, an Inconclusive outcome of this runner at the
        same scale, the solve goes on from its final field, history and
        iteration count, in the phase where it stopped, as if its budget
        had been ``max_iter`` from the start."""
        if max_iter < 2:
            raise ValueError("max_iter must be at least 2")
        if resume is not None and resume.status != "Inconclusive":
            raise ValueError("only an Inconclusive outcome can be resumed")
        k = self.mu.scale_factor if kappa is None else float(kappa)
        u1 = k * self._base
        if resume is None:
            u, history = u1, []
            level0 = np.any(u1[0])
        else:
            u, history = resume.final.values, list(resume.history)
            level0 = history[-1]["level"] == 0 and not _settled(history[-1])
        if level0:
            out = self._iterate(u[:1], u1, history, max_iter)
            if out.status != "Converged":
                return out
            u = out.final.values
        return self._iterate(u, u1, history, max_iter)

    def _iterate(self, u, u1, history, max_iter) -> SolveOutcome:
        """One phase of ``solve``: the iteration on the levels of ``u``,
        level 0 alone or all of them, appending to ``history``; the
        outcome's field takes the linear part ``u1`` above those levels."""
        grid = self.grid
        r = u.shape[0]
        level = 0 if r == 1 else None
        where = f" at level 0 (t = {grid.times[0]:.6g})" if level == 0 else ""
        interior, wl1 = grid.interior_mask, grid.boundary_weights

        def sup(a):
            return float(np.max(a[:, interior])) if np.any(interior) else 0.0

        def field(rows):
            return np.concatenate([rows, u1[r:]])

        prev_sup = history[-1]["sup"] if history and history[-1]["level"] == level else sup(u)
        for it in range(len(history) + 1, max_iter + 1):
            if prev_sup > _BLOWUP_CEILING:
                return self._diverged(field(u), history, it, "ceiling exceeded")
            new = self.step(u, u1[:r])
            if not np.all(np.isfinite(new)):
                return self._diverged(field(u), history, it, "overflow in the power term")
            sup_now = sup(new)
            diff = new - u
            history.append(
                {
                    "iteration": it,
                    "level": level,
                    "sup": sup_now,
                    "weighted_l1": float(np.sum(wl1 * new[-1])),
                    "sup_diff": sup(np.abs(diff)),
                    "l1_diff": float(np.sum(wl1 * np.abs(diff[-1]))),
                }
            )
            if sup_now > _BLOWUP_CEILING or (it > 3 and sup_now > 2.0 * prev_sup):
                why = "growth past the ceiling" if sup_now > _BLOWUP_CEILING else "sup doubling"
                if level == 0:
                    why = f"no fixed point{where}: {why}"
                return self._diverged(field(new), history, it, why)
            if _settled(history[-1]):
                return SolveOutcome("Converged", it, GridFunction(grid, field(new)), history)
            u = new
            prev_sup = sup_now
        return SolveOutcome(
            "Inconclusive", max_iter, GridFunction(grid, field(u)), history,
            "iteration budget exhausted" + where,
        )

    def _diverged(self, u, history, it, why) -> SolveOutcome:
        # the final field keeps the last finite snapshot of the run
        ceiling = np.float64(1e300)
        safe = np.where(np.isfinite(u), np.minimum(u, ceiling), 0.0)
        return SolveOutcome("Diverged", it, GridFunction(self.grid, safe), history, why)


def picard_solve(
    mu: MeasureSpec, p: float, horizon: float, domain: Domain, **grid_options
) -> SolveOutcome:
    """Monotone iteration from the data's linear evolution on its
    ``measure_grid``."""
    grid = measure_grid(domain, mu, horizon, **grid_options)
    return PicardRunner(mu, p, grid).solve()


# ---------------------------------------------------------------------------
# scale dichotomy


@dataclass(frozen=True)
class DichotomyResult:
    """Certified scale bracket: below kappa_low the iteration converges,
    above kappa_high it diverges, both on one shared grid."""

    family: SingularFamily
    kappa_low: float
    kappa_high: float
    grid_id: str
    history: tuple  # (kappa, status, iterations) in evaluation order

    def __post_init__(self):
        if not self.kappa_low < self.kappa_high:
            raise ValueError("bracket must satisfy kappa_low < kappa_high")


def dichotomy_sweep(
    family_kind: str,
    z,
    p: float,
    domain: Domain,
    T: float,
    kappa_bracket0,
    *,
    max_bisection: int = 24,
    solver_options: Optional[dict] = None,
    **grid_options,
) -> DichotomyResult:
    """Bisect the data scale between convergence and divergence.

    Starts from ``kappa_bracket0``, widens geometrically until the low
    end converges and the high end diverges (up to 8 widenings each
    way), then bisects in log kappa until the bracket ratio drops under
    ``RATIO_TARGET`` or the budget runs out.  A split that ends
    Inconclusive is continued from its last iterate up to three times
    its budget, in the phase where it stopped, and recorded twice, open
    and continued.  Every solve reuses one PicardRunner, so all outcomes
    live on the same grid.  A probe's iteration count sums its level-0
    phase and its global one (``PicardRunner.solve``); a probe with no
    fixed point at level 0 stops there and never iterates the later
    levels.
    """
    lo, hi = (float(v) for v in kappa_bracket0)
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < low < high")
    fam = SingularFamily(family_kind, tuple(np.atleast_1d(z).astype(float)), float(p))
    mu = make_family(fam, domain)
    grid = measure_grid(domain, mu, T, **grid_options)
    runner = PicardRunner(mu, float(p), grid)
    opts = solver_options or {}

    history = []

    def probe(k: float):
        outcome = runner.solve(kappa=k, **opts)
        history.append((float(k), outcome.status, outcome.iterations))
        return outcome

    s_lo, s_hi = probe(lo).status, probe(hi).status
    for _ in range(8):
        if s_lo == "Converged":
            break
        lo /= 4.0
        s_lo = probe(lo).status
    for _ in range(8):
        if s_hi == "Diverged":
            break
        hi *= 4.0
        s_hi = probe(hi).status
    if s_lo != "Converged" or s_hi != "Diverged":
        raise ValueError(
            f"no dichotomy bracket: low end {s_lo} at {lo:.3g}, high end {s_hi} at {hi:.3g}"
        )

    steps = 0
    stall = 0
    weights = (0.5, 0.62, 0.41)  # nudge the split point when a probe stays open
    while hi / lo >= RATIO_TARGET and steps < max_bisection and stall < 3:
        w = weights[stall]
        mid = math.exp((1.0 - w) * math.log(lo) + w * math.log(hi))
        outcome = probe(mid)
        if outcome.status == "Inconclusive":
            # the probe used up its whole budget: continue it up to three
            # times that budget
            outcome = runner.solve(mid, max_iter=3 * outcome.iterations, resume=outcome)
            history.append((mid, outcome.status, outcome.iterations))
        status = outcome.status
        steps += 1
        if status == "Converged":
            lo, stall = mid, 0
        elif status == "Diverged":
            hi, stall = mid, 0
        else:
            stall += 1
    return DichotomyResult(
        family=fam,
        kappa_low=lo,
        kappa_high=hi,
        grid_id=grid.grid_id(),
        history=tuple(history),
    )


def restart_residual(
    u: Union[SolveOutcome, GridFunction],
    t1_index: int,
    t2_index: int,
    domain: Domain,
    p: Optional[float] = None,
) -> RestartReport:
    """Consistency of the field with its own evolution on its own domain
    between two levels: value at the later level vs kernel transport
    from the earlier one plus the memory integral in between.  Each
    kernel moves a field in float64 through ``_transport`` on the
    field's grid: in mode space from the switch of ``_mode_count`` on,
    through the band of an image-sum matrix below it.  The residual is
    max |lhs - rhs| over the checked nodes relative to the max of lhs
    there, so that nodes where the field is negligible do not set it."""
    if isinstance(u, SolveOutcome):
        if u.status != "Converged":
            raise ValueError("restart check needs a converged solve")
        u = u.final
    grid = u.grid
    if domain != grid.domain:
        raise ValueError(f"the field lives on {grid.domain}, not on {domain}")
    times = grid.times
    if not 0 <= t1_index < t2_index < times.size:
        raise ValueError("need valid level indices t1 < t2")
    t1, t2 = float(times[t1_index]), float(times[t2_index])
    nodes = grid.nodes
    rhs = _transport(grid, t2 - t1, u.values[t1_index])

    if p is not None:
        tau_floor = 1e-3 * (t2 - t1)

        def interp(s):
            j = int(np.searchsorted(times, s, side="right") - 1)
            j = min(max(j, 0), times.size - 2)
            th = (s - times[j]) / (times[j + 1] - times[j])
            return ((1 - th) * u.values[j] + th * u.values[j + 1]) ** p

        for j in range(t1_index + 1, t2_index):
            s = math.sqrt(times[j - 1] * times[j]) if j > t1_index + 1 else 0.5 * (
                times[t1_index] + times[t1_index + 1]
            )
            w = float(times[j] - times[j - 1])
            rhs += w * _transport(grid, t2 - s, interp(s))
        hi = float(times[t2_index] - times[t2_index - 1])
        g = 1.5
        while hi > tau_floor:
            lo = max(hi / g, tau_floor)
            tau = math.sqrt(lo * hi)
            rhs += (hi - lo) * _transport(grid, tau, interp(t2 - tau))
            hi = lo
        rhs += tau_floor * u.values[t2_index] ** p

    mask = grid.node_boundary_distance > _RESTART_MARGIN * float(nodes[-1, 0] - nodes[0, 0])
    if isinstance(domain, HalfSpace):
        mask &= nodes[:, 0] < 0.7 * nodes[-1, 0]
    if not np.any(mask):
        raise ValueError("no interior check nodes at this margin")
    lhs = u.values[t2_index][mask]
    res = float(np.max(np.abs(lhs - rhs[mask]))) / max(float(np.max(lhs)), 1e-300)
    return RestartReport(res, int(mask.sum()), t1, t2)

