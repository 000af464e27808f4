"""Nonnegative measures on the closed domain: densities, surface parts, atoms.

A measure is described by up to three pieces: an interior density
(against Lebesgue measure directly, or against the boundary-distance
weight d(x)dx), a density on the boundary against surface measure, and a
list of point masses.  Ball masses and weighted ball integrals are
computed with the adaptive quadrature engine; densities are always
called as ``(pts, off)`` (see ``MeasureSpec``) so that distance factors
near a declared singular point are evaluated from exact offsets.

The module ships three built-in singular families, each anchored at a
point z, cut off outside the unit ball around z, and carrying a scale
factor kappa.  One rule makes all three; ``FAMILIES`` holds one row per
kind.  Let k = N for an anchor inside the domain and k = N + 1 for an
anchor on the wall.  A family is admissible from p = 1 + 2/k on, and its
density is |x-z|^(-power) with power 2/(p-1) - shift; at p = 1 + 2/k the
power is k - shift and the density gains the factor
[log(e + 1/|x-z|)]^(-(k/2 + 1)).

    kind              anchor  shift  support
    interior_point    inside  0      density against d(x)dx
    boundary_point    wall    0      density against d(x)dx
    boundary_surface  wall    2      density on the boundary (N >= 2, p < 2)

These are the strongest admissible local singularities at their
respective exponent ranges; the criteria module measures their ball-mass
growth exponents.

The critical rule: p is 1 + 2/k when within 1e-9 of it (``_is_critical``,
which the criteria ask too), so a p written to ten decimals builds the
borderline family.

Scaling by kappa multiplies the final integrals, never the density
callables, so scaled measures reproduce exactly linear ball masses.

Two decisions shape every integral of a measure, and both are made here
only.  The weight w(y) of the boundary-weighted kernel (``_weight``) is
the boundary distance d(y) on a domain with a wall and 1 on the whole
space: a "d_dx" density is taken against w(y) dy, and
``_weighted_density`` gives either mode's density relative to w(y) dy.
The anchor rule (``_touches``, and ``_hint_for`` for one ball): a ball
of radius r about c holds the measure's singular point a, and carries it
as its quadrature hint, when |a - c| <= r + 1e-12 (1 + max|a|); radius 0
asks whether c is a.

``_density_moment`` owns the integrals of a function of the density
itself, the power and Orlicz moments that the criteria check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .kernels import Domain, boundary_distance, space_dim, walls
from .quadrature import Ball, BoundaryPatch, integrate

__all__ = [
    "FAMILIES",
    "MeasureSpec",
    "SingularFamily",
    "RadialProfile",
    "critical_exponent",
    "make_family",
    "ball_mass",
    "weighted_ball_integral",
    "pairing",
    "scale",
]

_BALL_TOL = 1e-10  # relative tolerance of ball masses and weighted ball integrals
_PAIRING_TOL = 1e-9  # relative tolerance of pairings with the whole measure


def critical_exponent(k: int) -> float:
    """The threshold exponent 1 + 2/k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return 1.0 + 2.0 / k


def _profile_integral(sigma: float, q: float, beta: float) -> float:
    """Integral of s^q * (log(e + 1/s))^(-beta) over s in (0, sigma].

    Needs sigma <= 1.  Exact for beta = 0; otherwise evaluated through
    substitutions that keep every digit of the logarithmic tail.  That
    tail is why this exists: at q = -1 a fixed fraction of the integral
    sits below any radius representable in floating point, so no direct
    quadrature of the density can ever see it.
    """
    if sigma <= 0.0:
        return 0.0
    if sigma > 1.0 + 1e-12:
        raise ValueError("profile integrals are defined up to radius 1")
    sigma = min(sigma, 1.0)
    if beta == 0.0:
        if q <= -1.0:
            raise ValueError("power profile is not integrable at this exponent")
        return sigma ** (q + 1.0) / (q + 1.0)
    if abs(q + 1.0) < 1e-12:
        if beta <= 1.0:
            raise ValueError("borderline profile needs a log exponent above 1")
        # s = e^-v turns the integrand into (log(e + e^v))^-beta on
        # [log(1/sigma), inf); beyond v = 50 the argument is v to within
        # e^-49 and the tail integrates in closed form.
        v0 = math.log(1.0 / sigma)
        vt = max(v0, 50.0)
        val = 0.0
        if vt > v0:
            from scipy.integrate import quad

            val, _ = quad(
                lambda v: math.log(math.e + math.exp(v)) ** -beta,
                v0,
                vt,
                limit=200,
                epsabs=0.0,
                epsrel=1e-13,
            )
        return val + vt ** (1.0 - beta) / (beta - 1.0)
    if q < -1.0:
        raise ValueError("profile is not integrable against this power")
    # s = sigma * u^(1/(q+1)) flattens the power factor exactly, leaving
    # a bounded monotone integrand on (0, 1].
    c = 1.0 / (q + 1.0)
    ls = math.log(sigma)

    def g(u):
        if u <= 0.0:
            return 0.0
        t = -c * math.log(u) - ls
        if t > 30.0:
            return t**-beta
        return math.log(math.e + math.exp(t)) ** -beta

    from scipy.integrate import quad

    val, _ = quad(g, 0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-13)
    return sigma ** (q + 1.0) * c * val


@dataclass(frozen=True)
class RadialProfile:
    """Closed-form radial structure of a built-in family density.

    The density (``density``) equals r^(-power) * (log(e + 1/r))^(-log_power)
    for r = |y - anchor| up to 1, zero beyond, carried by a surface of the
    stated dimension (the ambient space for interior densities, the
    boundary for surface ones).  ``primitive`` integrates the density
    against r^q_extra over a radial segment [0, sigma], including the
    r^(dim-1) area factor, per unit angular measure.
    """

    anchor: tuple
    dim: int
    power: float
    log_power: float = 0.0

    def primitive(self, q_extra: float, sigma: float) -> float:
        q = self.dim - 1 + q_extra - self.power
        return _profile_integral(min(sigma, 1.0), q, self.log_power)

    def density(self, pts, off=None):
        """The density at pts, offsets off from the anchor (see ``MeasureSpec``)."""
        r = _offset_norm(np.asarray(pts, float), off, self.anchor)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = r**-self.power
            if self.log_power:
                v = v * np.log(np.e + 1.0 / r) ** -self.log_power
        return np.where(r <= 1.0, v, 0.0)


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """Immutable measure description.

    ``interior_density`` and ``boundary_density`` are always called as
    ``density(pts, off)``: an (m, N) point array and either the exact
    offsets ``pts - z`` from the declared singularity z, or None (compute
    them from ``pts``).  They return (m,) nonnegative values (before
    ``scale_factor``).  One-argument densities are not accepted.
    ``interior_mode`` is "dx" or "d_dx"; in the latter the measure is
    density(x) * d(x) dx, the natural form for boundary-weighted data.
    Atoms are ((point, mass), ...) pairs, masses before scaling.
    """

    interior_density: Optional[Callable] = None
    interior_mode: str = "dx"
    boundary_density: Optional[Callable] = None
    atoms: tuple = ()
    support_center: Optional[tuple] = None
    support_radius: Optional[float] = None
    singularity: Optional[tuple] = None  # (location, algebraic exponent)
    scale_factor: float = 1.0
    p: Optional[float] = None
    radial_profile: Optional[RadialProfile] = None

    def __post_init__(self):
        if self.interior_mode not in ("dx", "d_dx"):
            raise ValueError("interior_mode must be 'dx' or 'd_dx'")
        if self.scale_factor < 0:
            raise ValueError("scale_factor must be nonnegative")
        for _, m in self.atoms:
            if not m > 0:
                raise ValueError("atom masses must be positive")


class _Rule(NamedTuple):
    """One family kind's row of the family rule (module docstring)."""

    wall: bool  # the anchor sits on the wall (k = N + 1), else inside (k = N)
    shift: float  # how far the power falls below 2/(p-1)
    surface: bool  # a density on the boundary, else one against d(x)dx


FAMILIES = {
    "interior_point": _Rule(wall=False, shift=0.0, surface=False),
    "boundary_point": _Rule(wall=True, shift=0.0, surface=False),
    "boundary_surface": _Rule(wall=True, shift=2.0, surface=True),
}


@dataclass(frozen=True)
class SingularFamily:
    """Parameters of a built-in singular measure family."""

    kind: str  # a key of FAMILIES
    anchor: tuple
    p: float
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not 1 < self.p < math.inf:
            raise ValueError("exponent p must be finite and exceed 1")
        if not self.kappa >= 0:
            raise ValueError("kappa must be nonnegative")


_CRIT_MATCH = 1e-9  # the critical rule's tolerance (module docstring)


def _is_critical(p: float, k: int) -> bool:
    """Whether p is the threshold exponent 1 + 2/k, by the critical rule."""
    return abs(p - critical_exponent(k)) <= _CRIT_MATCH


def _offset_norm(pts, off, anchor):
    if off is not None:
        d = off
    else:
        d = pts - anchor
    if d.ndim == 1:
        return np.abs(d)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def make_family(family: SingularFamily, domain: Domain) -> MeasureSpec:
    """Build the measure for a singular family on the given domain by the
    family rule (module docstring)."""
    rule = FAMILIES[family.kind]
    n = space_dim(domain)
    anchor = np.asarray(family.anchor, dtype=float)
    if anchor.size != n:
        raise ValueError("anchor dimension does not match the domain")
    d_anchor = boundary_distance(domain, anchor)
    if not (d_anchor == 0 if rule.wall else d_anchor > 0):
        where = "on the boundary" if rule.wall else "interior"
        raise ValueError(f"{family.kind} anchor must be {where}")
    p, k = family.p, n + rule.wall
    p_min, critical = critical_exponent(k), _is_critical(p, k)
    if p < p_min and not critical:
        raise ValueError(f"{family.kind} needs p >= {p_min}")
    if rule.surface and not (n >= 2 and p < 2.0):
        # the boundary of a line is points, and from p = 2 on solvable
        # data cannot charge the boundary at all
        raise ValueError(f"{family.kind} needs N >= 2 and p < 2")
    if critical:
        power, log_power = k - rule.shift, k / 2.0 + 1.0
    else:
        # 2/(p-1) - shift, rounded once: exactly 2(2-p)/(p-1) at shift 2
        power, log_power = (2.0 - rule.shift * (p - 1.0)) / (p - 1.0), 0.0
    z = tuple(anchor)
    prof = RadialProfile(z, n - rule.surface, power, log_power)
    if rule.surface:
        pieces = {"boundary_density": prof.density}
    else:
        pieces = {"interior_density": prof.density, "interior_mode": "d_dx"}
    return MeasureSpec(
        **pieces,
        support_center=z,
        support_radius=1.0,
        singularity=(z, -power),
        scale_factor=family.kappa,
        p=p,
        radial_profile=prof,
    )


def scale(mu: MeasureSpec, kappa: float) -> MeasureSpec:
    """Multiply the measure by kappa; exact on every computed mass."""
    if not kappa >= 0:
        raise ValueError("kappa must be nonnegative")
    return replace(mu, scale_factor=mu.scale_factor * kappa)


# ---------------------------------------------------------------------------
# integration helpers


def _ball_region(domain: Domain, center, radius: float) -> Ball:
    lo, hi = domain.bounds
    return Ball(tuple(float(c) for c in np.atleast_1d(center)), radius, clip_lo=lo, clip_hi=hi)


def _weight(domain: Domain, pts):
    """The weight w(y): d(y) with a wall, 1 on the whole space; shaped
    like ``boundary_distance``."""
    d = boundary_distance(domain, pts)
    if walls(domain):
        return d
    return np.ones_like(d) if np.ndim(d) else 1.0


def _weighted_density(mu: MeasureSpec, domain: Domain) -> Callable:
    """The interior density against w(y) dy, before the scale factor.

    A plain-mode density is divided by the weight (0 where it vanishes),
    a "d_dx" density is returned as it is.  Offsets from the singular
    point default to pts - location.
    """
    if mu.interior_density is None:
        raise ValueError("measure has no interior density")
    dens = mu.interior_density
    plain = mu.interior_mode == "dx"
    loc = None
    if mu.singularity is not None:
        loc = np.asarray(mu.singularity[0], float).reshape(-1)

    def f(pts, off=None):
        if off is None and loc is not None:
            off = pts - loc[None, :]
        vals = np.asarray(dens(pts, off), dtype=float).reshape(-1)
        if plain:
            w = np.asarray(_weight(domain, pts), float).reshape(-1)
            vals = np.where(vals > 0, vals / np.maximum(w, 1e-300), 0.0)
        return vals

    return f


def _touches(mu: MeasureSpec, centers, radii) -> np.ndarray:
    """Which of the balls (centers (m, N), radii (m,)) hold the measure's
    singular point by the anchor rule above; none when it has none."""
    radii = np.asarray(radii, float).reshape(-1)
    if mu.singularity is None:
        return np.zeros(radii.size, dtype=bool)
    loc = np.asarray(mu.singularity[0], float).reshape(-1)
    gap = np.linalg.norm(np.asarray(centers, float).reshape(radii.size, -1) - loc, axis=1)
    return gap <= radii + 1e-12 * (1.0 + float(np.max(np.abs(loc))))


def _hint_for(mu: MeasureSpec, center, radius: float):
    """The measure's singularity when the ball of the given radius about
    center holds it (``_touches``), else None."""
    return mu.singularity if _touches(mu, [center], [radius])[0] else None


def _boundary_patch(domain: Domain, center, radius: float):
    """Intersection of the ball with the boundary, or None if empty.

    Returns either a BoundaryPatch region or a list of boundary points
    (Interval endpoints, the half-line origin) to evaluate directly.
    """
    center = np.atleast_1d(np.asarray(center, float))
    if domain.dim == 1:
        return [(e,) for e in walls(domain) if abs(center[0] - e) <= radius] or None
    # in N >= 2 the one wall is the half-space's x_N = 0
    zn = center[-1]
    rb = math.sqrt(max(radius**2 - zn**2, 0.0)) if walls(domain) and zn <= radius else 0.0
    return BoundaryPatch(tuple(center[:-1]) + (0.0,), rb) if rb > 0.0 else None


def _point_value(fn, pt) -> float:
    return float(np.asarray(fn(np.asarray(pt, float)[None, :])).reshape(-1)[0])


def _split_radial_1d(mu: MeasureSpec, domain: Domain, lo: float, hi: float, f, tol) -> float:
    """Integral of f * density over [lo, hi] through the anchor, against
    w(y) dy in "d_dx" mode and dy in plain mode.

    The segment within eps of the anchor is integrated in closed form
    with f frozen there and the piecewise-linear weight expanded
    exactly; the remainder is adaptive with the density masked below
    eps.  The closed form is essential for the borderline profiles,
    whose mass below any representable radius is not negligible.  The
    weight is taken from the exact offsets from the anchor: L - y next
    to a right wall at L would lose the digits the offset keeps.
    """
    prof = mu.radial_profile
    dens = mu.interior_density
    anchor = np.asarray(prof.anchor, float)
    z = float(anchor[0])
    if mu.interior_mode == "dx" or not walls(domain):
        weight = lambda off: 1.0
    else:
        right = domain.bounds[1] - z
        weight = lambda off: np.minimum(z + off, right - off)
    fz = 1.0 if f is None else _point_value(f, anchor)
    dz = float(weight(0.0))

    total = 0.0
    for direction in (1.0, -1.0):
        length = (hi - z) if direction > 0 else (z - lo)
        if length <= 0.0:
            continue
        eps = min(1e-8 * length, 0.5 * length)
        slope = (float(weight(direction * eps)) - dz) / eps
        inner = slope * prof.primitive(1.0, eps)
        if dz > 0.0:
            inner += dz * prof.primitive(0.0, eps)
        total += fz * inner

        def outer(pts, off):
            r = _offset_norm(np.asarray(pts, float), off, anchor)
            v = dens(pts, off)
            if f is not None:
                v = v * np.asarray(f(pts), float).reshape(-1)
            v = v * weight(off[:, 0])
            return np.where(r >= eps, v, 0.0)

        a = z if direction > 0 else z - length
        b = z + length if direction > 0 else z
        res = integrate(
            outer,
            Ball((0.5 * (a + b),), 0.5 * length),
            tol,
            singularity_hint=mu.singularity,
            relative=True,
        )
        total += res.value
    return total


def _sphere_area(k: int) -> float:
    """Surface measure of the unit sphere in R^k (two points for k=1)."""
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def _half_ball_moment(k: int) -> float:
    """Integral of the last coordinate over the upper half unit sphere
    in R^k; equals the volume of the unit ball in R^(k-1)."""
    return math.pi ** ((k - 1) / 2.0) / math.gamma((k + 1) / 2.0)


def _interior_integral(mu: MeasureSpec, domain: Domain, region, tol, hint, f) -> float:
    """Integral of f * interior density over a ball region, against
    w(y) dy in "d_dx" mode and dy in plain mode.

    Routes 1-d family measures through the exact anchor split whenever
    the singular anchor lies inside; otherwise falls back to plain
    adaptive quadrature.
    """
    if mu.radial_profile is not None and hint is not None and space_dim(domain) == 1:
        z = mu.radial_profile.anchor[0]
        # an edge at the anchor by the anchor rule is the anchor
        lo, hi = (z if _hint_for(mu, (e,), 0.0) else e for e in region.span())
        if lo < hi and lo <= z <= hi:
            return _split_radial_1d(mu, domain, lo, hi, f, tol)
    dens = mu.interior_density
    if mu.interior_mode == "d_dx":
        weight = lambda pts: _weight(domain, pts)
    else:
        weight = lambda pts: 1.0

    def g(pts, off):
        extra = 1.0 if f is None else np.asarray(f(pts), float).reshape(-1)
        return dens(pts, off) * (extra * weight(pts))

    return integrate(g, region, tol, singularity_hint=hint, relative=True).value


def _centered_ball_exact(mu: MeasureSpec, domain: Domain, center, sigma: float):
    """Closed-form mass of an anchor-centered ball in dimension >= 2,
    or None when the geometry falls outside the exact cases."""
    prof = mu.radial_profile
    n = space_dim(domain)
    if prof is None or n < 2 or mu.interior_density is None:
        return None
    if _hint_for(mu, center, 0.0) is None:
        return None
    anchor = np.asarray(prof.anchor, float)
    if not walls(domain):
        return _sphere_area(n) * prof.primitive(0.0, sigma)
    dz = float(boundary_distance(domain, anchor))
    if dz == 0.0:
        # anchor on the wall: the weight integrates to the half-ball moment
        return _half_ball_moment(n) * prof.primitive(1.0, sigma)
    if min(sigma, 1.0) < dz:
        # fully interior: the odd part of the weight cancels exactly
        return dz * _sphere_area(n) * prof.primitive(0.0, sigma)
    return None


def _atom_sum(mu: MeasureSpec, center, radius, weight=None):
    total = 0.0
    c = np.atleast_1d(np.asarray(center, float))
    for pt, m in mu.atoms:
        a = np.atleast_1d(np.asarray(pt, float))
        if np.linalg.norm(a - c) <= radius:
            total += m if weight is None else m * weight(a)
    return total


def _surface_part(mu: MeasureSpec, domain: Domain, center, radius: float, tol, hint, g) -> float:
    """Integral of g * boundary density over the ball's part of the
    boundary; g = None integrates the density alone, the mass.

    The mass of a built-in surface family's anchor-centered patch is
    integrated in closed form, any other patch by quadrature; on
    one-dimensional domains the boundary is the endpoints, whose density
    values count as point masses.
    """
    dens = mu.boundary_density
    patch = _boundary_patch(domain, center, radius)
    if patch is None:
        return 0.0
    if not isinstance(patch, BoundaryPatch):
        points = (np.asarray(pt, float)[None, :] for pt in patch)
        return sum(
            float(dens(arr, None)[0]) * (1.0 if g is None else float(g(arr)[0]))
            for arr in points
        )
    prof = mu.radial_profile
    n = space_dim(domain)
    if g is None and prof is not None and prof.dim == n - 1 and _hint_for(mu, patch.center, 0.0):
        return _sphere_area(n - 1) * prof.primitive(0.0, patch.radius)
    part = dens if g is None else (lambda pts, off=None: dens(pts, off) * g(pts))
    return integrate(part, patch, tol, singularity_hint=hint, relative=True).value


def _density_moment(
    mu: MeasureSpec, domain: Domain, center, radius: float, phi, part, tol
) -> float:
    """Integral of phi(pts, v) over a part of the ball of the given radius
    about center, v the density there times the scale factor.

    part "interior" integrates phi(pts, v) dy over the ball, v the
    interior density relative to w(y) dy, to absolute tolerance tol;
    part "boundary" over its boundary patch, v the surface density, to
    relative tolerance tol.  Any weight, such as d^ell or d / (d +
    sigma), is phi's to carry.  The quadrature hint is the anchor rule's.
    """
    if part == "interior":
        dens, region = _weighted_density(mu, domain), _ball_region(domain, center, radius)
    elif mu.boundary_density is None:
        raise ValueError("measure has no boundary density")
    else:
        dens, region = mu.boundary_density, _boundary_patch(domain, center, radius)
        if not isinstance(region, BoundaryPatch):
            raise ValueError("surface moments need a boundary of dimension >= 1")
    scale, hint = mu.scale_factor, _hint_for(mu, center, radius)
    g = lambda pts, off=None: phi(pts, scale * np.asarray(dens(pts, off), float).reshape(-1))
    return integrate(g, region, tol, singularity_hint=hint, relative=part == "boundary").value


def ball_mass(mu: MeasureSpec, domain: Domain, center, sigma: float) -> float:
    """Measure of the closed ball of radius sigma around center,
    intersected with the closed domain, to relative tolerance 1e-10."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    total = 0.0
    hint = _hint_for(mu, center, sigma)

    if mu.interior_density is not None:
        exact = _centered_ball_exact(mu, domain, center, sigma)
        if exact is not None:
            total += exact
        else:
            total += _interior_integral(
                mu, domain, _ball_region(domain, center, sigma), _BALL_TOL, hint, None
            )

    if mu.boundary_density is not None:
        total += _surface_part(mu, domain, center, sigma, _BALL_TOL, hint, None)

    total += _atom_sum(mu, center, sigma)
    return mu.scale_factor * total


def weighted_ball_integral(mu: MeasureSpec, domain: Domain, center, s: float) -> float:
    """Integral of 1/(d(y) + sqrt(s)) over the ball of radius sqrt(s),
    against the measure, to relative tolerance 1e-10."""
    if not s > 0:
        raise ValueError("s must be positive")
    if not walls(domain):
        raise ValueError("weighted ball integrals need a domain with boundary")
    rs = math.sqrt(s)
    total = 0.0
    hint = _hint_for(mu, center, rs)
    f = lambda pts: 1.0 / (boundary_distance(domain, pts) + rs)

    if mu.interior_density is not None:
        total += _interior_integral(
            mu, domain, _ball_region(domain, center, rs), _BALL_TOL, hint, f
        )

    if mu.boundary_density is not None:
        # d = 0 on the boundary: the weight there is the constant 1/sqrt(s)
        total += _surface_part(mu, domain, center, rs, _BALL_TOL, hint, None) / rs

    total += _atom_sum(mu, center, rs, weight=f)
    return mu.scale_factor * total


def pairing(mu: MeasureSpec, domain: Domain, f: Callable) -> float:
    """Integral of a (smooth, plain-signature) function against the whole
    measure: its densities over its support ball, to relative tolerance
    1e-9, and every atom.

    A measure with a density needs a support ball.
    """
    total = 0.0
    if mu.interior_density is not None or mu.boundary_density is not None:
        if mu.support_center is None:
            raise ValueError("measure has no support ball")
        center, radius = mu.support_center, mu.support_radius
        hint = _hint_for(mu, center, radius)
        if mu.interior_density is not None:
            region = _ball_region(domain, center, radius)
            total += _interior_integral(mu, domain, region, _PAIRING_TOL, hint, f)
        if mu.boundary_density is not None:
            total += _surface_part(mu, domain, center, radius, _PAIRING_TOL, hint, f)

    for pt, m in mu.atoms:
        total += m * _point_value(f, pt)
    return mu.scale_factor * total
