"""Numerical checks of the growth conditions that decide solvability.

Each check compares a measured quantity (ball masses, weighted moments,
boundary-strip integrals) against the growth rate that separates data
admitting a solution from data that cannot.  Since the sharp constants
are not available in closed form, every report states computed values,
fitted exponents, and a verdict based on boundedness or exponent
agreement rather than absolute thresholds.

Every check takes a measure and integrates it through measures.py:
ball masses, strip integrals, and density moments by _density_moment.

Suprema over centers are discretized on a small structured lattice
(anchors, boundary projections, a geometric depth ladder); infima over
scales use a geometric ladder.  Both are documented in the report
parameters, and identical inputs always produce identical reports.

Every check but boundary_mass_check reduces its table to a series of
(scale, value) pairs and reads its verdict off one ladder.  With s the
largest value, a the fitted exponent, r the reference exponent and
e = w (a - r) the excess in the direction w in which a worse trend
moves, the first matching rung decides:

1. s <= 0: consistent, the data vanishes on every scale;
2. s is not finite: violated;
3. no trend can be fitted: the check's no-fit verdict;
4. e > bad: violated;
5. e <= ok: consistent;
6. otherwise inconclusive, a borderline trend.

    check                      fit         r     ok     bad   w   no fit
    necessary_ball_bound       power       0     0.08   0.15  -1  inconclusive
    necessary_log_bound        log         0     0.2    0.35  +1  inconclusive
    uniform_mass_check         window      0     0.1    0.25  +1  consistent
    sufficient_integral_check  small-time  -1    -0.05  0.05  -1  inconclusive
    power_moment_check         power       rate  0.08   0.15  -1  inconclusive
    orlicz_moment_check        log         rate  0.1    0.25  +1  inconclusive
    orlicz_boundary_check      log         rate  0.1    0.25  +1  inconclusive
    weighted_strip_bound       power       0     0.08   0.15  -1  consistent
    boundary_strip_rate, p>2   power       rate  0.08   0.15  -1  inconclusive
    boundary_strip_rate, p=2   log         rate  0.1    0.25  +1  inconclusive

"power" is the slope of log(value) against log(scale), "log" the slope
against log log(e + sqrt(T)/scale); "window" is the power slope over
the widest half of the center windows, "small-time" the power slope
over the first 1.5 decades of s; "rate" is the check's predicted
exponent.  A sufficient condition cannot rule data out, so
sufficient_integral_check reads a violated rung as inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .kernels import (
    Domain,
    HalfSpace,
    Interval,
    boundary_distance,
    space_dim,
    walls,
)
from .measures import (
    MeasureSpec,
    ball_mass,
    critical_exponent,
    weighted_ball_integral,
    _ball_region,
    _density_moment,
    _half_ball_moment,
    _hint_for,
    _interior_integral,
    _is_critical,
    _sphere_area,
    _surface_part,
)

__all__ = [
    "CriterionReport",
    "fit_exponent",
    "fit_log_exponent",
    "sigma_ladder",
    "probe_points",
    "necessary_ball_bound",
    "necessary_log_bound",
    "boundary_mass_check",
    "uniform_mass_check",
    "sufficient_integral_check",
    "power_moment_check",
    "orlicz_moment_check",
    "orlicz_boundary_check",
    "weighted_strip_bound",
    "boundary_strip_rate",
]

VERDICTS = ("consistent", "violated", "inconclusive")

# (ok, bad) margins on the excess of a fitted exponent.  A log-log slope
# this far past the expected one counts as genuine excess growth; half
# of it is still accepted as flat.  The gap leaves room for the slow
# logarithmic drift of the borderline families.
_SLOPE = (0.08, 0.15)
# The log-form ball bounds, where power drifts compress to almost nothing.
_LOG = (0.2, 0.35)
# Window and log-rate trends.
_RATE = (0.1, 0.25)
# The small-time exponent of the sufficiency integrand against -1.
_SMALL_TIME = (-0.05, 0.05)
# Points on the geometric s-ladders of necessary_ball_bound (the
# infimum over s) and sufficient_integral_check (the time integral, from
# _S_FLOOR * T up to T).
_S_COUNT = 48
_S_FLOOR = 1e-8


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one growth-condition check.

    samples holds the raw table (rows of floats, see columns); params
    records every knob that shaped the run, as sorted (name, value)
    pairs, so equal inputs give equal reports.
    """

    criterion: str
    params: tuple
    columns: Tuple[str, ...]
    samples: tuple
    verdict: str
    fitted_exponent: Optional[float] = None
    fit_band: Optional[float] = None
    predicted_exponent: Optional[float] = None
    empirical_constant: Optional[float] = None
    detail: str = ""

    def __post_init__(self):
        if not self.samples:
            raise ValueError("sample table is empty")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        for row in self.samples:
            if len(row) != len(self.columns):
                raise ValueError("sample row does not match the columns")

    def column(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([row[j] for row in self.samples], dtype=float)


def _params(d: dict) -> tuple:
    out = []
    for k in sorted(d):
        v = d[k]
        if isinstance(v, (np.floating, np.integer)):
            v = float(v)
        out.append((k, v))
    return tuple(out)


def _row(*vals) -> tuple:
    return tuple(float(v) for v in vals)


def _columns(n: int, *names: str) -> Tuple[str, ...]:
    return tuple(f"z{i}" for i in range(n)) + names


class _Trend(NamedTuple):
    """One row of the verdict table in the module docstring."""

    what: str  # the swept quantity, named in the detail
    ok: float
    bad: float
    worse: int  # +1: a larger exponent is worse, -1: a smaller one
    unfit: str = "inconclusive"
    past: str = "violated"  # the verdict of rungs 2 and 4


def _trend_report(
    criterion: str,
    params: tuple,
    columns: Tuple[str, ...],
    rows,
    series,
    fit: Callable,
    predicted: Optional[float],
    rule: _Trend,
    reference: Optional[float] = None,
    constant: Optional[float] = None,
) -> CriterionReport:
    """Report of a check whose verdict is the trend of a per-scale series.

    series holds (scale, value) pairs; fit maps it to (exponent, band)
    and raises ValueError when it can read no trend.  The trend is
    judged against reference, by default the predicted exponent;
    constant is the empirical constant, by default the largest value
    when that is finite.
    """
    if reference is None:
        reference = predicted
    what = rule.what
    sup = max(v for _, v in series)
    fitted = band = None
    if sup <= 0.0:
        verdict, detail = "consistent", f"{what} vanishes on every scale"
    elif not math.isfinite(sup):
        verdict, detail = rule.past, f"{what} is unbounded"
    else:
        try:
            fitted, band = fit(series)
        except ValueError as exc:
            verdict, detail = rule.unfit, f"{what} has no usable trend ({exc})"
        else:
            excess = rule.worse * (fitted - reference)
            trend = f"{what} exponent {fitted:.4g} against {reference:.4g}"
            if excess > rule.bad:
                verdict, detail = rule.past, f"{trend}: past the admissible rate"
            elif excess <= rule.ok:
                verdict, detail = "consistent", f"{trend}: within the admissible rate"
            else:
                verdict, detail = "inconclusive", f"{trend}: borderline"
    if constant is None and math.isfinite(sup):
        constant = sup
    return CriterionReport(
        criterion=criterion,
        params=params,
        columns=columns,
        samples=tuple(rows),
        verdict=verdict,
        fitted_exponent=fitted,
        fit_band=band,
        predicted_exponent=predicted,
        empirical_constant=constant,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# exponent fitting


def fit_exponent(samples: Sequence[Tuple[float, float]]):
    """Least-squares slope of log(value) against log(scale).

    Returns (slope, band) where the band combines twice the standard
    error of the slope with the residual spread.  Needs at least five
    positive samples spanning 1.5 decades of scale.
    """
    pts = _fit_points(samples)
    lx = np.log([s for s, _ in pts])
    ly = np.log([v for _, v in pts])
    span = (lx.max() - lx.min()) / math.log(10.0)
    if span < 1.5:
        raise ValueError("exponent fits need 1.5 decades of scale")
    return _fit_loglog(lx, ly)


def fit_log_exponent(samples: Sequence[Tuple[float, float]], T: float):
    """Slope of log(value) against log log(e + sqrt(T)/scale).

    The natural variable for the borderline bounds, whose decay is a
    power of the logarithm rather than of the scale itself.
    """
    pts = _fit_points(samples)
    rt = math.sqrt(T)
    lx = np.log([math.log(math.e + rt / s) for s, _ in pts])
    ly = np.log([v for _, v in pts])
    if lx.max() - lx.min() < 0.5:
        raise ValueError("log-exponent fits need a wider scale sweep")
    return _fit_loglog(lx, ly)


def _fit_points(samples) -> list:
    pts = [(float(s), float(v)) for s, v in samples]
    if len(pts) < 5:
        raise ValueError("exponent fits need at least 5 samples")
    if any(s <= 0 or v <= 0 for s, v in pts):
        raise ValueError("exponent fits need positive scales and values")
    return pts


def _fit_loglog(lx: np.ndarray, ly: np.ndarray):
    n = lx.size
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    denom = float(np.sum((lx - lx.mean()) ** 2))
    se = math.sqrt(max(float(np.sum(resid**2)), 0.0) / max(n - 2, 1) / denom)
    band = 2.0 * se + float(np.max(np.abs(resid))) / max(
        float(lx.max() - lx.min()), 1e-300
    )
    return float(slope), float(band)


# ---------------------------------------------------------------------------
# sample lattices


def sigma_ladder(T: float, count: int = 12, lo: float = 1e-3) -> Tuple[float, ...]:
    """Geometric radius sweep from lo up to sqrt(T)/2."""
    if not T > 0:
        raise ValueError("horizon must be positive")
    hi = 0.5 * math.sqrt(T)
    if not 0 < lo < hi:
        raise ValueError("ladder bounds are out of order")
    return tuple(float(s) for s in np.geomspace(lo, hi, count))


def probe_points(
    mu: Optional[MeasureSpec],
    domain: Domain,
    depths: Sequence[float] = (0.05, 0.25, 1.0),
) -> Tuple[tuple, ...]:
    """Deterministic center lattice for discretized suprema.

    Contains the measure's anchors (singular point, atoms, support
    center), their boundary projections, and a depth ladder along the
    inward normal.  Sorted and deduplicated.
    """
    n = space_dim(domain)
    pts = []

    def add(q):
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.size == n and boundary_distance(domain, q) >= 0:
            pts.append(tuple(float(v) for v in q))

    anchors = []
    if mu is not None:
        if mu.singularity is not None:
            anchors.append(np.asarray(mu.singularity[0], dtype=float))
        if mu.support_center is not None:
            anchors.append(np.asarray(mu.support_center, dtype=float))
        for a, _ in mu.atoms:
            anchors.append(np.asarray(a, dtype=float).reshape(-1))
    if not anchors:
        anchors.append(np.zeros(n))

    for a in anchors:
        add(a)
        if isinstance(domain, HalfSpace):
            proj = a.copy()
            proj[-1] = 0.0
            add(proj)
            for h in depths:
                q = proj.copy()
                q[-1] = h
                add(q)
        elif isinstance(domain, Interval):
            L = domain.length
            add([0.0])
            add([L])
            add([0.5 * L])
            for h in depths:
                if h < 0.5 * L:
                    add([h])
                    add([L - h])
        else:
            for h in depths:
                q = a.copy()
                q[0] += h
                add(q)

    uniq = sorted(set(pts))
    return tuple(uniq)


def _centers(mu, domain: Domain, z_points=None, boundary: bool = False, **probe):
    """Sweep centers as float tuples, the probe lattice by default.

    boundary keeps only the centers on the boundary.
    """
    if z_points is None:
        z_points = probe_points(mu, domain, **probe)
    z_points = tuple(tuple(float(v) for v in z) for z in z_points)
    if boundary:
        z_points = tuple(z for z in z_points if boundary_distance(domain, z) == 0.0)
        if not z_points:
            raise ValueError("no boundary centers in the lattice")
    if not z_points:
        raise ValueError("empty sample sets")
    return z_points


def _radii(T: float, sigmas) -> Tuple[float, ...]:
    """Sweep radii as floats, sigma_ladder(T) by default."""
    if not T > 0:
        raise ValueError("horizon must be positive")
    sigmas = tuple(float(s) for s in (sigma_ladder(T) if sigmas is None else sigmas))
    if not sigmas:
        raise ValueError("empty sample sets")
    return sigmas


def _side_centers(anchor: np.ndarray, domain: Domain, sig_max: float) -> list:
    """Two centers beside the anchor along the first axis, clear of its balls."""
    step = max(2.5 * sig_max, 0.6)
    out = []
    for k in (1, 2):
        q = anchor.copy()
        q[0] += k * step
        if boundary_distance(domain, q) >= 0:
            out.append(tuple(float(v) for v in q))
    return out


def _sup_sweep(z_points, sigmas, cells):
    """Rows of a radius-by-center sweep and its per-radius supremum.

    cells(z, sigma) gives the row entries after the center, the swept
    value last; returns the rows and the (sigma, sup over z) series.
    Every sweep table is built here, one over scales alone at center ().
    """
    rows = []
    series = []
    for sg in sigmas:
        top = 0.0
        for z in z_points:
            row = _row(*z, *cells(z, sg))
            rows.append(row)
            top = max(top, row[-1])
        series.append((sg, top))
    return rows, series


def _rate_constant(series, rate, predicted: float) -> float:
    """Largest value over rate(scale)^predicted, 0 when nothing is positive."""
    return max((v / rate(s) ** predicted for s, v in series if v > 0), default=0.0)


def _borderline(mu: MeasureSpec, k: int) -> float:
    """The borderline exponent 1 + 2/k, which the measure's own must be."""
    if mu.p is not None and not _is_critical(mu.p, k):
        raise ValueError("measure exponent does not sit at the borderline value")
    return critical_exponent(k)


def _exponent(mu: MeasureSpec, p: Optional[float]) -> float:
    """The exponent p, by default the measure's; it must exceed 1."""
    p = mu.p if p is None else float(p)
    if p is None or not p > 1:
        raise ValueError("exponent p must exceed 1")
    return p


def _orlicz(x, beta: float):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return x * np.log(np.e + x) ** beta


# ---------------------------------------------------------------------------
# necessary growth bounds on ball masses


def _ball_ratio_report(criterion, extra, mu, domain, T, z_points, sigmas, bound, fit, rule,
                       boundary=False) -> CriterionReport:
    """Report of the ball masses over bound(d, sigma), d the center's
    distance to the wall (0 without one); extra holds the check's
    parameters besides T and the center count."""
    sigmas = _radii(T, sigmas)
    z_points = _centers(mu, domain, z_points, boundary=boundary)

    def cells(z, sg):
        d = boundary_distance(domain, z) if walls(domain) else 0.0
        mass, b = ball_mass(mu, domain, z, sg), bound(d, sg)
        return d, sg, mass, b, mass / b if b > 0 else math.inf

    rows, series = _sup_sweep(z_points, sigmas, cells)
    return _trend_report(
        criterion,
        _params({"T": T, "z_count": len(z_points), **extra}),
        _columns(space_dim(domain), "d", "sigma", "mass", "bound", "ratio"),
        rows,
        series,
        fit,
        0.0,
        rule,
    )


def necessary_ball_bound(
    mu: MeasureSpec,
    domain: Domain,
    p: Optional[float] = None,
    T: float = 1.0,
    z_points=None,
    sigmas=None,
) -> CriterionReport:
    """Ball masses against the power-form necessary growth bound.

    For every center z and radius sigma the admissible mass is at most
    a constant times the infimum over s in [sigma, sqrt(T)) of
    (d(z)+s) * s^(N - 2/(p-1)), taken here over a geometric s-ladder.
    A ratio that keeps growing as sigma shrinks rules the data out.
    """
    p = _exponent(mu, p)
    n = space_dim(domain)
    if _is_critical(p, n):
        raise ValueError("the power form does not apply at the critical exponent")
    expo = n - 2.0 / (p - 1.0)

    def bound(d, sg):
        s_lad = np.geomspace(sg, math.sqrt(T) * (1.0 - 1e-12), _S_COUNT)
        # no wall: the distance weight degenerates and drops out
        wfac = d + s_lad if walls(domain) else 1.0
        return float(np.min(wfac * s_lad**expo))

    return _ball_ratio_report(
        "necessary_ball_bound", {"p": p, "s_count": _S_COUNT}, mu, domain, T, z_points,
        sigmas, bound, fit_exponent, _Trend("mass ratio", *_SLOPE, -1),
    )


def necessary_log_bound(
    mu: MeasureSpec,
    domain: Domain,
    variant: str = "interior",
    T: float = 1.0,
    z_points=None,
    sigmas=None,
) -> CriterionReport:
    """Ball masses against the borderline logarithmic bounds.

    variant "interior" applies at the critical exponent of the ambient
    dimension: mass(B(z, sigma)) is at most a constant times
    (d(z)+sigma) * log(e + min(d(z), sqrt(T))/sigma)^(-N/2).
    variant "boundary" applies one dimension up, for centers on the
    boundary, with bound log(e + sqrt(T)/sigma)^(-(N+1)/2).  On the
    whole space the distance weight drops out of the interior variant,
    leaving log(e + sqrt(T)/sigma)^(-N/2).
    The trend is fitted in the doubly logarithmic variable; growth
    there means the data beats the borderline rate and is ruled out.
    """
    n = space_dim(domain)
    if variant not in ("interior", "boundary"):
        raise ValueError(f"unknown variant {variant!r}")
    whole = not walls(domain)
    if whole and variant == "boundary":
        raise ValueError("the boundary variant needs a domain with boundary")
    k = n if variant == "interior" else n + 1
    _borderline(mu, k)

    def bound(d, sg):
        rt, half = math.sqrt(T), k / 2.0
        if variant == "interior" and not whole:
            return (d + sg) * math.log(math.e + min(d, rt) / sg) ** -half
        return math.log(math.e + rt / sg) ** -half

    return _ball_ratio_report(
        "necessary_log_bound", {"variant": variant}, mu, domain, T, z_points, sigmas, bound,
        lambda ser: fit_log_exponent(ser, T), _Trend("mass ratio", *_LOG, 1),
        boundary=variant == "boundary",
    )


def boundary_mass_check(
    mu: MeasureSpec, domain: Domain, p: Optional[float] = None
) -> CriterionReport:
    """Total mass sitting on the boundary, which must vanish for p >= 2.

    Solvable data cannot charge the boundary once the exponent reaches
    two, so any positive boundary mass rules the pair out.
    """
    p = _exponent(mu, p)
    if not p >= 2:
        raise ValueError("the boundary part is unconstrained below p = 2")
    if not walls(domain):
        raise ValueError("boundary mass needs a domain with boundary")

    m_surface = 0.0
    if mu.boundary_density is not None:
        center = mu.support_center
        if center is None:
            raise ValueError("surface measure without a support ball")
        radius = (mu.support_radius or 1.0) * 1.01 + 0.01
        hint = _hint_for(mu, center, radius)
        m_surface = mu.scale_factor * _surface_part(mu, domain, center, radius, 1e-10, hint, None)

    m_atoms = 0.0
    for a, m in mu.atoms:
        if boundary_distance(domain, a) == 0.0:
            m_atoms += mu.scale_factor * m

    total = m_surface + m_atoms
    rows = tuple(_row(m) for m in (m_surface, m_atoms, total))
    verdict = "violated" if total > 1e-10 else "consistent"
    detail = (
        "positive boundary mass is incompatible with this exponent"
        if verdict == "violated"
        else "no boundary mass detected"
    )
    return CriterionReport(
        criterion="boundary_mass_check",
        params=_params({"p": p}),
        columns=("mass",),
        samples=rows,
        verdict=verdict,
        empirical_constant=total,
        detail=detail,
    )


def _window_fit(samples):
    # bounded data saturates, so only the widest windows carry the
    # trend; fit on the geometric top half when it has enough points
    pos = sorted((x, v) for x, v in samples if v > 0)
    if len(pos) < 5:
        raise ValueError("window fits need at least 5 positive samples")
    mid = math.sqrt(pos[0][0] * pos[-1][0])
    tail = [(x, v) for x, v in pos if x >= mid]
    use = tail if len(tail) >= 4 else pos
    lx = np.log([x for x, _ in use])
    ly = np.log([v for _, v in use])
    if not lx.max() - lx.min() > 0.5:
        raise ValueError("window fits need a wider window sweep")
    return _fit_loglog(lx, ly)


def uniform_mass_check(
    mu: MeasureSpec,
    domain: Domain,
    z_points=None,
    radius: float = 1.0,
) -> CriterionReport:
    """Unit-ball masses relative to 1 + d(z), which must stay bounded.

    Below the boundary critical exponent this single quantity decides
    solvability, so the check widens the center window geometrically
    and watches whether the normalized mass keeps climbing.
    """
    if not walls(domain):
        raise ValueError("the normalized mass needs a domain with boundary")
    z_points = _centers(
        mu,
        domain,
        z_points,
        depths=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
    )

    def cells(z, r):
        d = boundary_distance(domain, z)
        mass = ball_mass(mu, domain, z, r)
        return d, mass, mass / (1.0 + d)

    rows, _ = _sup_sweep(z_points, (radius,), cells)
    return _trend_report(
        "uniform_mass_check",
        _params({"radius": radius, "z_count": len(z_points)}),
        _columns(space_dim(domain), "d", "mass", "normalized"),
        rows,
        [(1.0 + row[-3], row[-1]) for row in rows],
        _window_fit,
        0.0,
        _Trend("normalized mass", *_RATE, 1, unfit="consistent"),
    )


def _small_time_fit(series):
    # integrability shows in the small-s slope of log(integrand); the
    # report carries no band for it
    s0 = series[0][0]
    small = [(s, g) for s, g in series if s <= s0 * 10.0**1.5]
    if len(small) < 3 or not all(g > 0 for _, g in small):
        raise ValueError("the integrand vanishes at small times")
    eta, _ = _fit_loglog(np.log([s for s, _ in small]), np.log([g for _, g in small]))
    return eta, None


def sufficient_integral_check(
    mu: MeasureSpec,
    domain: Domain,
    p: Optional[float] = None,
    T: float = 1.0,
    z_points=None,
) -> CriterionReport:
    """Time integral of the weighted-ball supremum that grants existence.

    The integrand is s^(-N(p-1)/2) times the (p-1) power of the largest
    weighted ball integral at radius sqrt(s).  A finite value (small
    enough, with a non-explicit margin) guarantees a solution up to T;
    divergence at s -> 0 leaves existence undecided, never disproved.
    """
    p = _exponent(mu, p)
    if not T > 0:
        raise ValueError("horizon must be positive")
    if not walls(domain):
        raise ValueError("weighted ball integrals need a domain with boundary")
    z_points = _centers(mu, domain, z_points)

    n = space_dim(domain)
    s_grid = np.geomspace(T * _S_FLOOR, T, _S_COUNT)

    def cells(_, s):
        w = max(weighted_ball_integral(mu, domain, z, float(s)) for z in z_points)
        return s, w, s ** (-0.5 * n * (p - 1.0)) * w ** (p - 1.0)

    rows, series = _sup_sweep(((),), s_grid, cells)
    gs = np.array([row[-1] for row in rows])
    # trapezoid in log s; the integrand is power-like on the ladder
    value = float(np.trapezoid(gs * s_grid, np.log(s_grid)))
    return _trend_report(
        "sufficient_integral_check",
        _params({"p": p, "T": T, "s_count": _S_COUNT}),
        ("s", "weighted_sup", "integrand"),
        rows,
        series,
        _small_time_fit,
        # zero data has no small-time exponent to predict
        -0.5 * (n + 1) * (p - 1.0) if gs.any() else None,
        _Trend("integrand", *_SMALL_TIME, -1, past="inconclusive"),
        reference=-1.0,
        constant=value,
    )


# ---------------------------------------------------------------------------
# moment bounds saturated by the borderline families


def power_moment_check(
    mu: MeasureSpec,
    domain: Domain,
    alpha: float,
    p: Optional[float] = None,
    T: float = 1.0,
    part: Optional[str] = None,
    z_points=None,
    sigmas=None,
) -> CriterionReport:
    """Power moments of the density against their admissible scaling.

    Interior part: sup over z of the integral of (d/(d+sigma)) f^alpha
    (the factor is 1 without a wall) over the ball, where f is the
    density relative to w(y) dy; the admissible rate is
    sigma^(N - 2 alpha/(p-1)).  Boundary part: the
    surface integral of h^alpha with rate sigma^(N-1-2 alpha (2-p)/(p-1));
    once p reaches 2 the surface density must vanish outright.
    """
    if not alpha > 1:
        raise ValueError("the moment order must exceed 1")
    p = _exponent(mu, p)
    n = space_dim(domain)
    if part is None:
        part = "interior" if mu.interior_density is not None else "boundary"
    if part not in ("interior", "boundary"):
        raise ValueError(f"unknown part {part!r}")
    if part == "boundary" and p >= 2:
        raise ValueError("the surface profile must vanish once p reaches 2")
    sigmas = _radii(T, sigmas)
    z_points = _centers(mu, domain, z_points, boundary=part == "boundary")

    surf_dim = n if part == "interior" else n - 1
    if mu.singularity is not None:
        anchor, base_expo = mu.singularity
        # the distance factor restores one power near a wall anchor
        wall = boundary_distance(domain, np.asarray(anchor, float)) == 0.0
        bonus = 1.0 if part == "interior" and wall else 0.0
        if alpha * -float(base_expo) >= surf_dim + bonus:
            raise ValueError("the power moment diverges at this order")
    if part == "interior":
        predicted = n - 2.0 * alpha / (p - 1.0)
    else:
        predicted = (n - 1.0) - 2.0 * alpha * (2.0 - p) / (p - 1.0)
    # the factor d/(d + sigma) weighs the interior part where there is a wall
    flat = part == "boundary" or not walls(domain)

    def cells(z, sg):
        def phi(pts, v):
            if flat:
                return v**alpha
            d = np.asarray(boundary_distance(domain, pts), float).reshape(-1)
            return (d / (d + sg)) * v**alpha

        return sg, _density_moment(mu, domain, z, sg, phi, part, 1e-10)

    rows, series = _sup_sweep(z_points, sigmas, cells)
    return _trend_report(
        "power_moment_check",
        _params({"alpha": alpha, "p": p, "T": T, "part": part}),
        _columns(n, "sigma", "moment"),
        rows,
        series,
        fit_exponent,
        predicted,
        _Trend("moment", *_SLOPE, -1),
        constant=_rate_constant(series, lambda s: s, predicted),
    )


def _orlicz_radial(c: float, A: float, B: float, beta: float, sigma: float) -> float:
    """Radial integral of r^(A-1) Psi(c r^-A log(e+1/r)^-B) up to sigma.

    Every borderline family reduces to this shape at its anchor, with
    the power of r cancelling exactly; what remains decays only like a
    power of the logarithm, so the integral runs in the variable
    v = log(1/r) with an analytic tail beyond the quadrature window.
    The moment converges only for beta < B - 1.
    """
    if sigma <= 0:
        return 0.0
    if not beta < B - 1.0:
        raise ValueError("the weighted moment diverges at this log exponent")
    c_log = math.log(c)

    def bigL(v: float) -> float:
        if v > 40.0:
            return v + math.log1p(math.e * math.exp(-v))
        return math.log(math.e + math.exp(v))

    def log_arg(v: float) -> float:
        lx = c_log + A * v - B * math.log(bigL(v))
        if lx > 35.0:
            return lx + math.log1p(math.e * math.exp(-lx))
        return math.log(math.e + math.exp(lx))

    def G(v: float) -> float:
        return bigL(v) ** -B * log_arg(v) ** beta

    v0 = math.log(1.0 / min(sigma, 1.0))
    total = 0.0
    edges = [v0, v0 + 2.0, v0 + 20.0, v0 + 200.0, v0 + 4000.0]
    from scipy.integrate import quad

    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(G, a, b, limit=200, epsabs=0.0, epsrel=1e-11)
        total += val
    V = edges[-1]
    q = (math.log(G(1.05 * V)) - math.log(G(V))) / math.log(1.05)
    if q >= -1.0:
        raise ValueError("the weighted moment diverges at this log exponent")
    total += G(V) * V / (-1.0 - q)
    return c * total


def _log_sweep(criterion, extra, mu, domain, part, ell, k, beta, T, z_points, sigmas, radial):
    """Report of an Orlicz moment of the data at the borderline p = 1 + 2/k.

    Each cell integrates d^ell Psi(T^(1/(p-1)) v) over part ("interior"
    or "boundary", as in measures._density_moment) of the ball about a
    center of z_points.  radial = (anchor, angular constant) first gives
    each radius the row of the anchor-centered ball: that constant times
    the closed-form radial reduction of the measure's profile.  The
    moment converges for 0 < beta < k/2; its admissible decay,
    log(e + sqrt(T)/sigma)^(beta - k/2), is read in the log variable.
    extra holds the check's parameters besides beta, T and p.
    """
    if not beta > 0:
        raise ValueError("the log weight must be positive")
    p_req = _borderline(mu, k)
    if not beta < 0.5 * k:
        raise ValueError("the weighted moment diverges at this log exponent")
    horizon_scale = T ** (1.0 / (p_req - 1.0))
    predicted = beta - 0.5 * k
    prof = mu.radial_profile
    c = mu.scale_factor * horizon_scale
    apex = None
    if radial is not None:
        # a fresh tuple: the identity test never matches a caller's center
        apex = tuple(float(v) for v in radial[0])
        z_points = (apex,) + z_points

    def phi(pts, v):
        d = np.asarray(boundary_distance(domain, pts), float).reshape(-1)
        return d**ell * _orlicz(horizon_scale * v, beta)

    def cells(z, sg):
        if z is apex:
            return sg, radial[1] * _orlicz_radial(c, prof.power, prof.log_power, beta, sg)
        return sg, _density_moment(mu, domain, z, sg, phi, part, 1e-9)

    rows, series = _sup_sweep(z_points, sigmas, cells)
    rt = math.sqrt(T)
    return _trend_report(
        criterion,
        _params({"beta": beta, "T": T, "p": p_req, **extra}),
        _columns(space_dim(domain), "sigma", "moment"),
        rows,
        series,
        lambda ser: fit_log_exponent(ser, T),
        predicted,
        _Trend("log moment", *_RATE, 1),
        constant=_rate_constant(series, lambda s: math.log(math.e + rt / s), predicted),
    )


def orlicz_moment_check(
    mu: MeasureSpec,
    domain: Domain,
    beta: float,
    T: float = 1.0,
    z_points=None,
    sigmas=None,
) -> CriterionReport:
    """Log-weighted moments of an interior density at a borderline exponent.

    Integrates d^ell * Psi(T^(1/(p-1)) f) over shrinking balls, where
    Psi(r) = r log(e+r)^beta, f the density relative to w(y) dy, and
    ell is 0 for an interior anchor, 1 for a boundary anchor.  The
    admissible decay is log(e + sqrt(T)/sigma)^(beta - (N+ell)/2), and
    the borderline families saturate it exactly; their anchor integrals
    run through the closed-form radial reduction, everything else
    through adaptive quadrature.
    """
    n = space_dim(domain)
    anchor = None
    if mu.singularity is not None:
        anchor = np.asarray(mu.singularity[0], dtype=float)
    ell = 1 if anchor is not None and boundary_distance(domain, anchor) == 0.0 else 0
    sigmas = _radii(T, sigmas)
    prof = mu.radial_profile
    radial = (
        prof is not None
        and prof.log_power > 0
        and prof.dim == n
        and anchor is not None
    )
    sig_max = max(sigmas)
    if radial and ell == 0 and sig_max >= boundary_distance(domain, anchor):
        raise ValueError("radius sweep reaches the wall from an interior anchor")
    if z_points is None:
        if anchor is not None:
            z_points = _side_centers(anchor, domain, sig_max)
        else:
            z_points = probe_points(mu, domain)
    z_points = tuple(tuple(float(v) for v in z) for z in z_points)
    angular = _sphere_area(n) if ell == 0 else _half_ball_moment(n)
    return _log_sweep(
        "orlicz_moment_check",
        {"ell": float(ell)},
        mu,
        domain,
        "interior",
        ell,
        n + ell,
        beta,
        T,
        z_points,
        sigmas,
        (anchor, angular) if radial else None,
    )


def orlicz_boundary_check(
    mu: MeasureSpec,
    domain: Domain,
    beta: float,
    T: float = 1.0,
    z_points=None,
    sigmas=None,
) -> CriterionReport:
    """Log-weighted moments of a surface density at the borderline exponent.

    The surface version of the interior check: integrates
    Psi(T^(1/(p-1)) h) over boundary patches, with admissible decay
    log(e + sqrt(T)/sigma)^(beta - (N+1)/2).  Borderline surface
    families go through the closed-form radial reduction at their
    anchor, generic densities through patch quadrature.
    """
    n = space_dim(domain)
    if n < 2:
        raise ValueError("surface moments need a boundary of dimension >= 1")
    if mu.boundary_density is None:
        raise ValueError("measure has no surface density")
    sigmas = _radii(T, sigmas)
    prof = mu.radial_profile
    radial = prof is not None and prof.log_power > 0 and prof.dim == n - 1
    anchor = np.zeros(n)
    if mu.singularity is not None:
        anchor = np.array(mu.singularity[0], dtype=float)
    elif mu.support_center is not None:
        anchor = np.array(mu.support_center, dtype=float)
    anchor[-1] = 0.0
    if z_points is None:
        z_points = [] if radial else [tuple(float(v) for v in anchor)]
        z_points += _side_centers(anchor, domain, max(sigmas))
    z_points = tuple(tuple(float(v) for v in z) for z in z_points)
    for z in z_points:
        if boundary_distance(domain, z) != 0.0:
            raise ValueError("surface moments need boundary centers")
    return _log_sweep(
        "orlicz_boundary_check",
        {},
        mu,
        domain,
        "boundary",
        0,
        n + 1,
        beta,
        T,
        z_points,
        sigmas,
        (anchor, _sphere_area(n - 1)) if radial else None,
    )


# ---------------------------------------------------------------------------
# eigenfunction-weighted strip bounds on an interval


def _eigen_strip(L: float, s: float) -> float:
    """Integral of the first Dirichlet eigenfunction over the strip d < s."""
    s = min(s, 0.5 * L)
    return 2.0 * (L / math.pi) * (1.0 - math.cos(math.pi * s / L))


def _measure_strip_weighted(mu: MeasureSpec, domain: Interval, sigma: float) -> float:
    """Integral of phi/d over the strip d < sigma, against the measure.

    Takes the interior part only: the strip is open, so surface mass
    and boundary atoms do not enter.
    """
    L = domain.length

    def f(pts):
        # sin(pi y / L)/min(y, L-y), continuous up to the endpoints
        y = np.asarray(pts, float)[:, 0]
        return (math.pi / L) * np.sinc(np.minimum(y, L - y) / L)

    total = 0.0
    if mu.interior_density is not None:
        halves = [(0.5 * sigma, 0.5 * sigma)]
        if sigma < 0.5 * L:
            halves.append((L - 0.5 * sigma, 0.5 * sigma))
        else:
            halves = [(0.5 * L, 0.5 * L)]
        for cx, r in halves:
            region = _ball_region(domain, (cx,), r)
            hint = _hint_for(mu, (cx,), r)
            total += _interior_integral(mu, domain, region, 1e-10, hint, f)
        total *= mu.scale_factor
    for a, m in mu.atoms:
        d = boundary_distance(domain, a)
        if 0.0 < d < sigma:
            arr = np.asarray(a, float)[None, :]
            total += mu.scale_factor * m * float(f(arr)[0])
    return total


def _strip_depths(domain: Interval, T: float, sigmas) -> Tuple[float, ...]:
    if not isinstance(domain, Interval):
        raise ValueError("strip bounds are defined on an interval")
    if sigmas is None and T > 0:
        sigmas = np.geomspace(1e-3, min(0.5 * math.sqrt(T), 0.45 * domain.length), 12)
    return _radii(T, sigmas)


def weighted_strip_bound(
    mu: MeasureSpec,
    domain: Interval,
    p: float,
    T: float = 1.0,
    sigmas=None,
) -> CriterionReport:
    """Eigenfunction-weighted strip mass against its admissible ceiling.

    On an interval, the integral of phi/d over the strip of depth sigma
    against the measure is bounded by the reciprocal time integral
    (int_{2 sigma^2}^T (int_{d < sqrt(r)} phi)^{-(p-1)} dr)^(-1/(p-1)),
    with phi the first Dirichlet eigenfunction.  The check reports the
    empirical ratio across sigma; a ratio that keeps climbing as the
    strip thins means the ceiling fails.
    """
    if not p > 1:
        raise ValueError("exponent p must exceed 1")
    sigmas = _strip_depths(domain, T, sigmas)
    L = domain.length
    if max(sigmas) >= math.sqrt(0.5 * T):
        raise ValueError("strip depth must stay below sqrt(T/2)")

    def rhs(sigma: float) -> float:
        def integrand(r: float) -> float:
            return _eigen_strip(L, math.sqrt(r)) ** -(p - 1.0)

        pieces = [2.0 * sigma**2, T]
        knee = min(0.25 * L * L, T)
        if pieces[0] < knee < T:
            pieces = [pieces[0], knee, T]
        from scipy.integrate import quad

        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            val, _ = quad(integrand, a, b, limit=200)
            total += val
        return total ** (-1.0 / (p - 1.0))

    def cells(_, sg):
        lhs, bound = _measure_strip_weighted(mu, domain, sg), rhs(sg)
        return sg, lhs, bound, lhs / bound

    rows, ratios = _sup_sweep(((),), sigmas, cells)

    def fit(series):
        # the ceiling degenerates as 2 sigma^2 approaches T, collapsing the
        # ratio; the trend is meaningful only well below that
        return fit_exponent([(s, r) for s, r in series if 2.0 * s * s <= 0.25 * T])

    return _trend_report(
        "weighted_strip_bound",
        _params({"p": p, "T": T, "length": L}),
        ("sigma", "strip_weighted", "bound", "ratio"),
        rows,
        ratios,
        fit,
        0.0,
        _Trend("strip ratio", *_SLOPE, -1, unfit="consistent"),
    )


def boundary_strip_rate(
    mu: MeasureSpec,
    domain: Interval,
    p: float,
    T: float = 1.0,
    sigmas=None,
) -> CriterionReport:
    """Decay rate of the mass near the boundary, for exponents >= 2.

    The mass of the strip d < sigma must vanish like sigma^(2(p-2)/(p-1))
    for p > 2, and like 1/log(e + sqrt(T)/sigma) at p = 2, critical for
    a wall anchor on the line (k = 2 in ``measures._is_critical``).  Fits the
    observed rate of the measure's full boundary-strip mass and compares.
    """
    if not p >= 2:
        raise ValueError("the strip rate applies from p = 2 upward")
    sigmas = _strip_depths(domain, T, sigmas)
    L = domain.length

    def cells(_, sg):
        # the strip d <= sigma is the interval's part of the end balls
        m = ball_mass(mu, domain, (0.0,), sg)
        if sg < 0.5 * L:
            m += ball_mass(mu, domain, (L,), sg)
        return sg, m

    rows, masses = _sup_sweep(((),), sigmas, cells)

    if _is_critical(p, 2):  # k = N + 1 = 2, the strip's mass sits at a wall
        predicted, rule = -1.0, _Trend("strip mass", *_RATE, 1)
        trend = lambda pos: fit_log_exponent(pos, T)
    else:
        predicted, rule = 2.0 * (p - 2.0) / (p - 1.0), _Trend("strip mass", *_SLOPE, -1)
        trend = fit_exponent
    return _trend_report(
        "boundary_strip_rate",
        _params({"p": p, "T": T, "length": L}),
        ("sigma", "strip_mass"),
        rows,
        masses,
        lambda series: trend([(s, m) for s, m in series if m > 0]),
        predicted,
        rule,
    )
