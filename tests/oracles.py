"""Independent references that the property tests check the lab against.

The interval kernel is summed over eigenfunctions instead of images, and
the reference solve marches a finite-difference scheme instead of
iterating the mild form.  The transport matrix is also assembled densely,
with every entry kept, the data's evolution summed over every cell and
image, and the memory integral applied one plan entry at a time, as
references for the reach cut and the grouped apply.  The solver never
forms the sine series as a matrix; here it is formed densely, S
diag(decay) P^T from the solver's sine basis with the reach cut, as the
reference for the mode-space sine part of the apply and for the restart
check's mode-space transport.  The reach-cut references
share the solver's cell moments, which lose digits on narrow cells at
wide times; where the solver sums wide kernels over sine modes (the
interval, and the half-line up to its virtual wall), the references are
instead composite Gauss-Legendre over every cell of an image sum paired
at the walls, which uses neither.

The adaptive cubature is checked against its one-cell form: the same
greedy loop with one integrand call and one tensor contraction per cell.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import erf, erfc

from mildheat.kernels import (
    _LOG_TAU,
    Domain,
    HalfSpace,
    Interval,
    _reach,
    _require_time,
    images,
    kernel_values,
    normal_derivative,
    space_dim,
)
from mildheat.measures import MeasureSpec
from mildheat.quadrature import QuadResult, _fejer1
from mildheat.solver import (
    DuhamelOperator,
    GridFunction,
    SpaceTimeGrid,
    _domain_span,
    _InitialEvaluator,
    _interval_moments,
    _mode_count,
    _sine_basis,
    _sine_decay,
    _sine_interval,
    _window,
)


def interval_eigen_kernel(domain: Interval, x, y, t: float) -> float:
    """Eigenfunction-series evaluation, the cross-check oracle for the
    image sum.  Slow for small t; intended for t >= 0.01 or so."""
    t = _require_time(t)
    L = domain.length
    xs, ys = float(np.reshape(x, -1)[0]), float(np.reshape(y, -1)[0])
    m_max = int(math.ceil(L / math.pi * math.sqrt(_LOG_TAU / t))) + 1
    m = np.arange(1, m_max + 1)
    lam = (m * math.pi / L) ** 2
    vals = (2.0 / L) * np.sin(m * math.pi * xs / L) * np.sin(m * math.pi * ys / L)
    return float(np.dot(vals, np.exp(-lam * t)))


def interval_eigen_weighted(domain: Interval, x, at_left: bool, t: float) -> float:
    """Eigenfunction series for the weighted kernel at an endpoint."""
    t = _require_time(t)
    L = domain.length
    xs = float(np.reshape(x, -1)[0])
    m_max = int(math.ceil(L / math.pi * math.sqrt(_LOG_TAU / t))) + 1
    m = np.arange(1, m_max + 1)
    lam = (m * math.pi / L) ** 2
    sign = np.ones(m_max) if at_left else np.where(m % 2 == 1, 1.0, -1.0)
    vals = (2.0 / L) * (m * math.pi / L) * np.sin(m * math.pi * xs / L) * sign
    return float(np.dot(vals, np.exp(-lam * t)))


def fd_reference_solve(
    mu_smooth: MeasureSpec,
    p: float,
    horizon: float,
    domain: Domain,
    resolution=(400, 4000),
    *,
    nonlinearity: bool = True,
    extent: Optional[float] = None,
    saved_levels: int = 50,
) -> GridFunction:
    """Implicit-diffusion, explicit-reaction marching scheme; second
    order in space, first order in time.  Used only to cross-check the
    iteration on smooth bounded data."""
    if space_dim(domain) != 1:
        raise ValueError("reference scheme is one-dimensional")
    if mu_smooth.interior_density is None or mu_smooth.singularity is not None:
        raise ValueError("reference scheme needs a bounded density")
    if mu_smooth.atoms or mu_smooth.boundary_density is not None:
        raise ValueError("reference scheme needs a plain density")
    nx, nt = resolution
    if nx < 10 or nt < 10:
        raise ValueError("invalid resolution")
    lo, hi = _domain_span(domain, [], horizon, extent)
    xs = np.linspace(lo, hi, nx + 1)
    h = xs[1] - xs[0]
    dt = horizon / nt

    u0 = mu_smooth.scale_factor * np.asarray(
        mu_smooth.interior_density(xs[:, None], None), dtype=float
    ).reshape(-1)
    if not np.all(np.isfinite(u0)):
        raise ValueError("reference scheme needs a bounded density")
    w = u0.copy()
    w[0] = w[-1] = 0.0

    n_in = nx - 1
    band = np.zeros((3, n_in))
    band[0, 1:] = -dt / h**2
    band[1, :] = 1.0 + 2.0 * dt / h**2
    band[2, :-1] = -dt / h**2

    every = max(1, nt // saved_levels)
    saved_t, saved_u = [], []
    for m in range(1, nt + 1):
        inner = w[1:-1]
        if nonlinearity:
            if p * dt * float(np.max(inner)) ** (p - 1.0) > 1.0:
                raise ValueError(
                    "invalid resolution: reaction term violates the step limit"
                )
            rhs = inner + dt * inner**p
        else:
            rhs = inner.copy()
        w = np.concatenate([[0.0], solve_banded((1, 1), band, rhs), [0.0]])
        if m % every == 0 or m == nt:
            saved_t.append(m * dt)
            saved_u.append(w.copy())
    if len(saved_t) >= 2 and saved_t[-1] == saved_t[-2]:
        saved_t.pop()
        saved_u.pop()
    grid = SpaceTimeGrid(domain, xs[:, None], np.asarray(saved_t), horizon)
    return GridFunction(grid, np.maximum(np.asarray(saved_u), 0.0))


def dense_hat_transport_matrix(
    domain: Domain, targets: np.ndarray, nodes: np.ndarray, tau: float
) -> np.ndarray:
    """Hat transport matrix with every entry evaluated over all cells and
    images, the reference for the reach cut of ``_hat_transport_matrix``."""
    x = np.asarray(targets, dtype=float).reshape(-1)
    y = np.asarray(nodes, dtype=float).reshape(-1)
    h = np.diff(y)
    out = np.zeros((x.size, y.size))
    for sign, pos in images(domain, x[:, None], tau):
        p, m1 = _interval_moments(*np.broadcast_arrays(pos, y[None, :]), tau)
        out[:, :-1] += sign * (y[None, 1:] * p - m1) / h[None, :]
        out[:, 1:] += sign * (m1 - y[None, :-1] * p) / h[None, :]
    return np.maximum(out, 0.0)


def _tail_moments(pos, edges, t):
    """(∫ g, ∫ y g) over each cell as ``_interval_moments`` gives them,
    but with every erf difference taken between erfc values on the far
    side of the centre: a cell far out keeps its tiny Gaussian mass
    instead of the rounding of erf near ±1."""
    z = (edges - pos) / (2.0 * math.sqrt(t))
    z0, z1 = z[..., :-1], z[..., 1:]
    far_right = erfc(z0) - erfc(z1)
    far_left = erfc(-z1) - erfc(-z0)
    p = 0.5 * np.where(z0 >= 0, far_right, np.where(z1 <= 0, far_left, erf(z1) - erf(z0)))
    g = (4.0 * math.pi * t) ** -0.5 * np.exp(-z * z)
    return p, pos * p + 2.0 * t * (g[..., :-1] - g[..., 1:])


def dense_initial_evolution(ev: _InitialEvaluator, t: float) -> np.ndarray:
    """The data's linear evolution with every cell and every image kept:
    the hat weights of each cell times its endpoint values (vL, vR), plus
    the point and wall sources, the reference for the reach cut of
    ``_InitialEvaluator._image_sum``.  Cells within the reach of a target
    take their weights from ``_interval_moments``, as ``_image_sum`` does;
    cells beyond it from ``_tail_moments``, since there the plain erf
    differences are rounding only (next to a singular anchor, up to 1e-5
    of the field at a far node, whose true share is below 1e-14)."""
    x = ev.x
    out = np.zeros(x.size)
    if ev._cells is not None:
        y, vL, vR = ev._cells
        h = np.diff(y)
        reach = math.sqrt(4.0 * t * _LOG_TAU)
        beyond = (y[None, 1:] < x[:, None] - reach) | (y[None, :-1] > x[:, None] + reach)
    for sign, pos in images(ev.domain, x[:, None], t):
        if ev._cells is not None:
            p, m1 = _interval_moments(*np.broadcast_arrays(pos, y[None, :]), t)
            p_far, m1_far = _tail_moments(pos, y[None, :], t)
            p, m1 = np.where(beyond, p_far, p), np.where(beyond, m1_far, m1)
            out += sign * np.sum((y[None, 1:] * p - m1) / h * vL, axis=1)
            out += sign * np.sum((m1 - y[None, :-1] * p) / h * vR, axis=1)
    for a, m in ev._points:
        out += m * kernel_values(ev.domain, a, x[:, None], t)
    for b, m in ev._walls:
        out += m * normal_derivative(ev.domain, x[:, None], b, t)
    out[ev._wall_nodes] = 0.0
    return np.maximum(out, 0.0)


def _plan_sources(op: DuhamelOperator, u_levels, p: float, sliver_ratio, ki: int):
    """Level ki's plan entries (ladder index, weight, float32 source row
    u(s)^p), each row built from its own time s."""
    times = op.grid.times
    for tau_idx, weight, s in op._build_plan(ki):
        if s >= times[0]:
            j = int(np.searchsorted(times, s, side="right") - 1)
            j = min(max(j, 0), times.size - 2)
            theta = float((s - times[j]) / (times[j + 1] - times[j]))
            u_s = (1.0 - theta) * u_levels[j] + theta * u_levels[j + 1]
        else:
            u_s = u_levels[0] * sliver_ratio[np.searchsorted(op.sliver_times, s)]
        yield tau_idx, weight, (u_s**p).astype(np.float32)


def reference_apply(
    op: DuhamelOperator, u_levels: np.ndarray, p: float, sliver_ratio: np.ndarray
) -> np.ndarray:
    """The memory integral one plan entry at a time: one product of the
    dense float32 matrix, the operator's applied to the unit vectors, with
    a vector per entry, each source row built from its own time s, the
    reference for the grouped ``DuhamelOperator.apply``."""
    eye = np.eye(u_levels.shape[1], dtype=np.float32)
    mats = {}
    out = np.zeros_like(u_levels)
    for ki in range(op.grid.times.size):
        acc = np.zeros(u_levels.shape[1])
        for tau_idx, weight, src in _plan_sources(op, u_levels, p, sliver_ratio, ki):
            if tau_idx not in mats:
                mats[tau_idx] = (op._matrix(tau_idx) @ eye).T
            acc += weight * (mats[tau_idx] @ src)
        acc += op.tau_floor * u_levels[ki] ** p
        acc[op.grid.boundary_mask] = 0.0
        out[ki] = acc
    return out


def dense_sine_matrix(grid: SpaceTimeGrid, tau: float) -> np.ndarray:
    """The sine series at a time tau from the switch of ``_mode_count``
    on, as the dense float64 matrix S diag(decay) P^T from the first K
    columns of the nodes' ``_sine_basis`` and ``_sine_decay``, the
    entries of hats beyond the reach of ``_window`` zeroed and the rest
    clipped at 0."""
    y = grid.nodes[:, 0]
    sine = _sine_interval(grid)
    k = _mode_count(sine, tau)
    s, p = _sine_basis(sine, y.tobytes())
    out = (s[:, :k] * _sine_decay(sine, tau)[:k]) @ p[:, :k].T
    c_lo, c_hi, _ = _window(y, y, tau)
    j = np.arange(y.size)
    out[(j < c_lo[:, None]) | (j > c_hi[:, None] + 1)] = 0.0
    return np.maximum(out, 0.0)


def dense_sine_part(
    op: DuhamelOperator, u_levels: np.ndarray, p: float, sliver_ratio: np.ndarray
) -> np.ndarray:
    """The sine-series share of the memory integral one plan entry at a
    time: every entry whose ladder time the sine series carries applies
    its ``dense_sine_matrix`` to its source row; the reference for the
    factored ``DuhamelOperator._sine_part``."""
    mats = {}
    out = np.zeros_like(u_levels)
    for ki in range(op.grid.times.size):
        for tau_idx, weight, src in _plan_sources(op, u_levels, p, sliver_ratio, ki):
            tau = float(op._ladder[tau_idx])
            if _mode_count(op.sine_interval, tau):
                if tau_idx not in mats:
                    mats[tau_idx] = dense_sine_matrix(op.grid, tau)
                out[ki] += weight * (mats[tau_idx] @ src.astype(np.float64))
    return out


def paired_kernel(domain: Domain, x, y, t: float) -> np.ndarray:
    """The kernel G(x, y) (arrays that broadcast) of the interval or the
    half-line as an image sum whose pairs straddling a wall are summed in
    closed form.  On the half-line G = g(x - y) (-expm1(-x y / t)).  On
    the interval, with q the one of x, y nearer a wall, reflected about
    L/2 to sit near 0, p the other and u = p - 2kL, each pair g(u - q) -
    g(u + q) is sign(u) g(|u| - q) (-expm1(-|u| q / t)).  A point next to
    a wall keeps its digits, where the plain image sum of
    ``kernel_values`` cancels."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if isinstance(domain, HalfSpace):
        g = np.exp(-((x - y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        return g * -np.expm1(-x * y / t)
    L = domain.length
    swap = np.minimum(x, L - x) < np.minimum(y, L - y)
    p, q = np.where(swap, y, x), np.where(swap, x, y)
    flip = q > 0.5 * L
    p, q = np.where(flip, L - p, p), np.where(flip, L - q, q)
    m = math.ceil((L + _reach(t)) / (2.0 * L)) + 1
    out = np.zeros(p.shape)
    for k in range(-m, m + 1):
        u = p - 2.0 * k * L
        a = np.abs(u)
        out += np.sign(u) * np.exp(-((a - q) ** 2) / (4.0 * t)) * -np.expm1(-a * q / t)
    return out / math.sqrt(4.0 * math.pi * t)


def gauss_hat_weights(domain: Domain, x, edges, t: float):
    """Hat weights (left, right), arrays (targets, cells), of the kernel
    from every target x against the cells between ``edges``: ∫ G (y1 -
    y) / h and ∫ G (y - y0) / h, each cell cut into 4 equal parts with 8
    Gauss-Legendre points per part, G from ``paired_kernel``."""
    pieces = 4
    xi, wq = np.polynomial.legendre.leggauss(8)
    frac = ((np.arange(pieces)[:, None] + 0.5 * (xi + 1.0)) / pieces).reshape(-1)
    wts = np.tile(wq, pieces) / (2.0 * pieces)
    y0, h = edges[:-1], np.diff(edges)
    ys = (y0[:, None] + h[:, None] * frac).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    left = np.empty((x.size, h.size))
    right = np.empty((x.size, h.size))
    for i, target in enumerate(x):
        g = paired_kernel(domain, target, ys, t).reshape(h.size, -1) * wts
        left[i] = h * (g @ (1.0 - frac))
        right[i] = h * (g @ frac)
    return left, right


def gauss_hat_transport_matrix(domain: Domain, targets, nodes, tau: float) -> np.ndarray:
    """Hat transport matrix from ``gauss_hat_weights``, the reference for
    the mode-space transport of ``solver._transport``."""
    y = np.asarray(nodes, dtype=float).reshape(-1)
    left, right = gauss_hat_weights(domain, targets, y, tau)
    out = np.zeros((left.shape[0], y.size))
    out[:, :-1] += left
    out[:, 1:] += right
    return out


def gauss_initial_evolution(ev: _InitialEvaluator, t: float) -> np.ndarray:
    """The data's linear evolution on the interval or the half-line with
    the cells from ``gauss_hat_weights`` and the point masses from
    ``paired_kernel``, the reference for the sine-mode sum of
    ``_InitialEvaluator``; the wall masses take ``normal_derivative``,
    whose image terms all have one sign."""
    x = ev.x
    out = np.zeros(x.size)
    if ev._cells is not None:
        y, vL, vR = ev._cells
        left, right = gauss_hat_weights(ev.domain, x, y, t)
        out += left @ vL + right @ vR
    for a, m in ev._points:
        out += m * paired_kernel(ev.domain, x, a[0], t)
    for b, m in ev._walls:
        out += m * normal_derivative(ev.domain, x[:, None], b, t)
    out[ev._wall_nodes] = 0.0
    return np.maximum(out, 0.0)


class _OneCell:
    __slots__ = ("lo", "hi", "value", "error")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi
        self.value = 0.0
        self.error = 0.0


_NODES_15, _WEIGHTS_15 = _fejer1(15)
_WEIGHTS_5 = _fejer1(5)[1]


def _eval_one_cell(g, cell: _OneCell, ndim: int) -> int:
    """Fill cell.value/cell.error with the nested 5/15-point pair, the
    coarse nodes at fine indices 3j+1; return the evaluation count."""
    mid = 0.5 * (cell.lo + cell.hi)
    half = 0.5 * (cell.hi - cell.lo)
    axes = [mid[k] + half[k] * _NODES_15 for k in range(ndim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gr.ravel() for gr in grids], axis=-1)
    vals = np.asarray(g(pts), dtype=float).reshape((15,) * ndim)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    scale = float(np.prod(half))
    fine = vals
    for _ in range(ndim):
        fine = np.tensordot(_WEIGHTS_15, fine, axes=(0, 0))
    coarse = vals[np.ix_(*([3 * np.arange(5) + 1] * ndim))]
    for _ in range(ndim):
        coarse = np.tensordot(_WEIGHTS_5, coarse, axes=(0, 0))
    cell.value = float(fine) * scale
    cell.error = abs(float(fine) - float(coarse)) * scale
    return 15**ndim


def _split_one_cell(cell: _OneCell, hint, root_extent):
    extent = cell.hi - cell.lo
    axis = int(np.argmax(extent / root_extent))
    lo, hi = cell.lo[axis], cell.hi[axis]
    width = hi - lo
    cut = 0.5 * (lo + hi)
    if hint is not None and np.all(hint >= cell.lo) and np.all(hint <= cell.hi):
        h = hint[axis]
        if h <= lo + 1e-9 * width:
            cut = lo + 0.25 * width
        elif h >= hi - 1e-9 * width:
            cut = hi - 0.25 * width
        else:
            cut = min(max(h, lo + 1e-3 * width), hi - 1e-3 * width)
    lo_child = _OneCell(cell.lo.copy(), cell.hi.copy())
    hi_child = _OneCell(cell.lo.copy(), cell.hi.copy())
    lo_child.hi[axis] = cut
    hi_child.lo[axis] = cut
    return lo_child, hi_child


def one_cell_adaptive_box(
    g, lo, hi, tol: float, hint=None, relative: bool = False, max_evals: int = 2_000_000
) -> QuadResult:
    """The greedy cubature of ``quadrature._adaptive_box`` with one call of
    g per cell: the same cells, splits and stopping rule, the reference
    for the engine that evaluates both children of a split at once."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ndim = lo.size
    root_extent = np.maximum(hi - lo, 1e-300)
    if hint is not None:
        hint = np.asarray(hint, dtype=float)

    root = _OneCell(lo, hi)
    evals = _eval_one_cell(g, root, ndim)
    heap = [(-root.error, 0, root)]
    counter = 0
    done = []
    total_val = root.value
    total_err = root.error
    while True:
        target = tol if not relative else tol * max(abs(total_val), 1e-300)
        if total_err <= target or evals + 2 * 15**ndim > max_evals or not heap:
            break
        _, _, worst = heapq.heappop(heap)
        total_val -= worst.value
        total_err -= worst.error
        for child in _split_one_cell(worst, hint, root_extent):
            evals += _eval_one_cell(g, child, ndim)
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
