"""Measure construction, ball masses and the singular-family exponents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildheat import quadrature
from mildheat.kernels import HalfSpace, Interval, WholeSpace
from mildheat.measures import (
    MeasureSpec,
    SingularFamily,
    ball_mass,
    critical_exponent,
    make_family,
    pairing,
    scale,
    weighted_ball_integral,
)

HS1 = HalfSpace(1)
HS2 = HalfSpace(2)
IV1 = Interval(1.0)


def test_critical_exponent():
    assert critical_exponent(1) == 3.0
    assert critical_exponent(2) == 2.0
    assert critical_exponent(4) == 1.5
    with pytest.raises(ValueError):
        critical_exponent(0)


def test_family_validation():
    with pytest.raises(ValueError):
        make_family(SingularFamily("interior_point", (0.0,), 4.0), HS1)  # on boundary
    with pytest.raises(ValueError):
        make_family(SingularFamily("interior_point", (1.0,), 2.0), HS1)  # p < 3
    with pytest.raises(ValueError):
        make_family(SingularFamily("boundary_point", (1.0,), 4.0), HS1)  # interior
    with pytest.raises(ValueError):
        make_family(SingularFamily("boundary_surface", (0.0,), 1.8), HS1)  # N=1
    with pytest.raises(ValueError):
        make_family(SingularFamily("boundary_surface", (0.0, 0.0), 2.0), HS2)  # p=2
    with pytest.raises(ValueError):
        SingularFamily("no_such_family", (0.0,), 4.0)
    with pytest.raises(ValueError):
        SingularFamily("interior_point", (1.0,), 0.5)
    with pytest.raises(ValueError):
        SingularFamily("interior_point", (1.0,), math.inf)


def test_interior_point_exact_mass():
    # int_{0.9}^{1.1} y |y-1|^(-2/3) dy = 6 * 0.1^(1/3): the linear part of
    # the weight cancels by symmetry around the anchor
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    v = ball_mass(mu, HS1, (1.0,), 0.1)
    assert v == pytest.approx(6.0 * 0.1 ** (1.0 / 3.0), rel=1e-8)


def test_interior_point_dense_oracle():
    # independent dense midpoint-rule evaluation in the cube-root variable
    # r = u^3, which absorbs the r^(-2/3) singularity exactly:
    # int (1+-r) r^(-2/3) dr = 3 int (1 + u^3) du + 3 int (1 - u^3) du
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    m = 100_000
    du = 0.1 ** (1.0 / 3.0) / m
    u = (np.arange(m) + 0.5) * du
    oracle = float(np.sum(3.0 * ((1.0 + u**3) + (1.0 - u**3))) * du)
    v = ball_mass(mu, HS1, (1.0,), 0.1)
    assert v == pytest.approx(oracle, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(log_h=st.floats(-8.0, math.log10(0.5)))
def test_ball_from_the_anchor_matches_radial_primitives(log_h):
    # the ball [z, z + h] as floats: rounding the centre may move the
    # anchor an ulp off the ball's edge, which the anchor rule absorbs
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    prof = mu.radial_profile
    h = 10.0**log_h
    c, r = 1.0 + 0.5 * h, 0.5 * h
    hh = (c + r) - 1.0  # the ball's right edge, exactly
    dz = 1.0
    exact = dz * prof.primitive(0.0, hh) + prof.primitive(1.0, hh)
    assert ball_mass(mu, HS1, (c,), r) == pytest.approx(exact, rel=1e-9)


def test_scaling_is_exactly_linear():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    a = ball_mass(mu, HS1, (1.0,), 0.1)
    b = ball_mass(scale(mu, 2.0), HS1, (1.0,), 0.1)
    assert b == 2.0 * a
    c = ball_mass(scale(scale(mu, 3.0), 0.5), HS1, (1.0,), 0.1)
    assert c == 1.5 * a
    assert ball_mass(scale(mu, 1.0), HS1, (1.0,), 0.1) == a


def test_zero_scale_gives_zero_measure():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0, kappa=0.0), HS1)
    assert ball_mass(mu, HS1, (1.0,), 0.5) == 0.0


def test_atoms():
    mu = MeasureSpec(atoms=(((1.0,), 3.0),))
    assert ball_mass(mu, HS1, (1.0,), 0.01) == 3.0
    assert ball_mass(mu, HS1, (1.0,), 10.0) == 3.0
    assert ball_mass(mu, HS1, (2.0,), 0.5) == 0.0
    # atom exactly on the sphere counts (closed ball)
    assert ball_mass(mu, HS1, (0.5,), 0.5) == 3.0


def test_atom_weighted_integral():
    mu = MeasureSpec(atoms=(((1.0,), 5.0),))
    # weight 1/(d+sqrt(s)) = 1/2 at d=1, s=1
    assert weighted_ball_integral(mu, HS1, (1.0,), 1.0) == 2.5


def test_boundary_surface_disjoint_ball():
    mu = make_family(SingularFamily("boundary_surface", (0.0, 0.0), 1.8), HS2)
    assert ball_mass(mu, HS2, (0.0, 0.5), 0.2) == 0.0


@pytest.mark.parametrize(
    "kind,domain,anchor,p,expected",
    [
        ("interior_point", HS1, (1.0,), 4.0, 1.0 / 3.0),
        ("boundary_point", HS1, (0.0,), 4.0, 4.0 / 3.0),
        ("boundary_surface", HS2, (0.0, 0.0), 1.8, 0.5),
    ],
)
def test_family_mass_exponents(kind, domain, anchor, p, expected):
    mu = make_family(SingularFamily(kind, anchor, p), domain)
    sigmas = np.geomspace(1e-3, 1e-1, 12)
    masses = [ball_mass(mu, domain, anchor, s) for s in sigmas]
    slope = np.polyfit(np.log(sigmas), np.log(masses), 1)[0]
    assert abs(slope - expected) < 0.05


def test_critical_family_log_sandwich():
    # at the critical exponent the mass carries an inverse log power; the
    # compensated quantity stays sandwiched over the sweep
    mu = make_family(SingularFamily("interior_point", (1.0,), 3.0), HS1)
    sigmas = np.geomspace(1e-3, 1e-1, 12)
    comp = [
        ball_mass(mu, HS1, (1.0,), s) * math.log(math.e + 1.0 / s) ** 0.5
        for s in sigmas
    ]
    assert max(comp) / min(comp) < 2.0


def test_weighted_integral_interior_regime():
    # with the anchor interior and s << d(z)^2 the weight is ~1/d(z), so
    # the integral scales like the ball mass of radius sqrt(s)
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    ss = np.geomspace(1e-6, 1e-4, 6)
    ws = [weighted_ball_integral(mu, HS1, (1.0,), s) for s in ss]
    slope = np.polyfit(np.log(ss), np.log(ws), 1)[0]
    assert abs(slope - 1.0 / 6.0) < 0.01


def test_weighted_integral_boundary_regime():
    # boundary anchor: the weight contributes a genuine 1/sqrt(s)
    mu = make_family(SingularFamily("boundary_point", (0.0,), 4.0), HS1)
    ss = np.geomspace(1e-6, 1e-4, 6)
    ws = [weighted_ball_integral(mu, HS1, (0.0,), s) for s in ss]
    slope = np.polyfit(np.log(ss), np.log(ws), 1)[0]
    assert abs(slope - 1.0 / 6.0) < 0.01


def test_weighted_integral_pure_surface():
    # d = 0 on the boundary, so the weight is exactly 1/sqrt(s); the
    # cases cover the closed-form anchor patch, patch quadrature off the
    # anchor and for a constant density, and interval endpoint points
    family = make_family(SingularFamily("boundary_surface", (0.0, 0.0), 1.8), HS2)
    const = MeasureSpec(
        boundary_density=lambda pts, off=None: np.full(len(np.atleast_2d(pts)), 0.8),
        support_center=(0.0, 0.0),
        support_radius=1.0,
    )
    ends = MeasureSpec(boundary_density=lambda pts, off=None: np.full(pts.shape[0], 2.5))
    cases = [
        (family, HS2, (0.0, 0.0)),
        (family, HS2, (0.15, 0.0)),
        (const, HS2, (0.0, 0.0)),
        (ends, IV1, (0.0,)),
    ]
    for mu, domain, center in cases:
        for s in (0.01, 0.04):
            w = weighted_ball_integral(mu, domain, center, s)
            m = ball_mass(mu, domain, center, math.sqrt(s))
            assert m > 0
            assert w * math.sqrt(s) == pytest.approx(m, rel=1e-9)


def test_ball_mass_monotone_in_sigma():
    mu = make_family(SingularFamily("boundary_point", (0.0,), 4.0), HS1)
    sigmas = np.geomspace(1e-3, 0.5, 10)
    masses = [ball_mass(mu, HS1, (0.0,), s) for s in sigmas]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(masses, masses[1:]))


def test_two_atom_additivity():
    mu = MeasureSpec(atoms=(((0.5,), 1.0), ((2.0,), 4.0)))
    assert ball_mass(mu, HS1, (0.5,), 0.1) == 1.0
    assert ball_mass(mu, HS1, (2.0,), 0.1) == 4.0
    assert ball_mass(mu, HS1, (1.0,), 5.0) == 5.0


@settings(max_examples=20, deadline=None)
@given(kappa=st.floats(0.01, 100.0), sigma=st.floats(0.01, 0.5))
def test_scaling_property(kappa, sigma):
    mu = make_family(SingularFamily("boundary_point", (0.0,), 4.0), HS1)
    a = ball_mass(mu, HS1, (0.0,), sigma)
    b = ball_mass(scale(mu, kappa), HS1, (0.0,), sigma)
    assert b == kappa * a


def test_table_measure():
    # density 2 on [0, 0.5), 3 on [0.5, inf); ball [0.2, 0.6]
    mu = MeasureSpec(
        interior_density=lambda pts, off: np.where(pts[:, 0] < 0.5, 2.0, 3.0)
    )
    v = ball_mass(mu, IV1, (0.4,), 0.2)
    assert v == pytest.approx(2.0 * 0.3 + 3.0 * 0.1, abs=1e-8)


def test_pairing():
    mu_atom = MeasureSpec(atoms=(((1.0,), 5.0),))
    f = lambda p: np.cos(p[:, 0])
    v = pairing(mu_atom, HS1, f)
    assert v == pytest.approx(5.0 * math.cos(1.0), rel=1e-12)
    # the pairing is with the whole measure, every atom included
    two = MeasureSpec(atoms=(((1.0,), 5.0), ((3.0,), 7.0)))
    assert pairing(two, HS1, lambda p: np.ones(p.shape[0])) == 12.0

    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    got = pairing(mu, HS1, f)
    # dense midpoint oracle in the cube-root variable r = u^3 over the
    # full support: int cos(y) y |y-1|^(-2/3) dy on [0, 2]
    m = 200_000
    du = 1.0 / m
    u = (np.arange(m) + 0.5) * du
    g = lambda y: np.cos(y) * y
    oracle = float(np.sum(3.0 * (g(1.0 + u**3) + g(1.0 - u**3))) * du)
    assert got == pytest.approx(oracle, rel=1e-7)


def test_pairing_needs_a_support_ball():
    for mu in (
        MeasureSpec(interior_density=lambda pts, off: np.ones(pts.shape[0])),
        MeasureSpec(boundary_density=lambda pts, off: np.ones(pts.shape[0])),
    ):
        with pytest.raises(ValueError):
            pairing(mu, IV1, lambda p: np.ones(p.shape[0]))


def test_invalid_arguments():
    mu = MeasureSpec(atoms=(((1.0,), 1.0),))
    with pytest.raises(ValueError):
        ball_mass(mu, HS1, (1.0,), 0.0)
    with pytest.raises(ValueError):
        weighted_ball_integral(mu, HS1, (1.0,), -1.0)
    with pytest.raises(ValueError):
        MeasureSpec(atoms=(((1.0,), 0.0),))
    with pytest.raises(ValueError):
        MeasureSpec(interior_mode="dS")
    with pytest.raises(ValueError):
        make_family(
            SingularFamily("interior_point", (0.5, 0.5), 4.0), HS1
        )  # dim mismatch
    with pytest.raises(ValueError):
        make_family(SingularFamily("boundary_point", (0.0,), 4.0), WholeSpace(1))


def test_boundary_point_critical_log_power():
    # at p = critical_exponent(N+1) = 2 the boundary-anchored density is
    # |x|^-(N+1) with log power -(N+1)/2 - 1 = -2 at N=1
    mu = make_family(SingularFamily("boundary_point", (0.0,), 2.0), HS1)
    x = np.array([[0.01]])
    expected = 0.01**-2.0 * math.log(math.e + 100.0) ** -2.0
    assert mu.interior_density(x)[0] == pytest.approx(expected, rel=1e-12)
    assert mu.interior_mode == "d_dx"


def test_interval_endpoint_boundary_measure():
    # generic boundary density on an interval: endpoint point masses
    mu = MeasureSpec(boundary_density=lambda pts, off=None: np.full(pts.shape[0], 2.5))
    assert ball_mass(mu, IV1, (0.1,), 0.2) == 2.5  # only endpoint 0
    assert ball_mass(mu, IV1, (0.5,), 0.7) == 5.0  # both endpoints
    assert ball_mass(mu, IV1, (0.5,), 0.3) == 0.0


# every domain each kind allows, with an anchor where its rule puts it:
# (k - N, shift) of the family rule, the density's support, and the cases
_CONTRACT = {
    "interior_point": (0, 0.0, "interior", [
        (HalfSpace(1), (0.7,)), (HalfSpace(2), (0.3, 0.7)), (HalfSpace(3), (0.3, -0.2, 0.7)),
        (IV1, (0.4,)), (WholeSpace(1), (0.2,)), (WholeSpace(2), (0.2, -0.1)),
        (WholeSpace(3), (0.2, -0.1, 0.3)),
    ]),
    "boundary_point": (1, 0.0, "interior", [
        (HalfSpace(1), (0.0,)), (HalfSpace(2), (0.3, 0.0)), (HalfSpace(3), (0.3, -0.2, 0.0)),
        (IV1, (0.0,)), (IV1, (1.0,)),
    ]),
    "boundary_surface": (1, 2.0, "boundary", [
        (HalfSpace(2), (0.3, 0.0)), (HalfSpace(3), (0.3, -0.2, 0.0)),
    ]),
}


@pytest.mark.parametrize("critical", [True, False], ids=["critical", "off-critical"])
@pytest.mark.parametrize(
    "kind,domain,anchor",
    [(kind, d, a) for kind, (_, _, _, cases) in _CONTRACT.items() for d, a in cases],
    ids=lambda v: v if isinstance(v, str) else repr(v).replace(" ", ""),
)
def test_family_density_follows_its_radial_profile(kind, domain, anchor, critical):
    # the closed forms integrate the profile, so the density must be it
    extra, shift, support, _ = _CONTRACT[kind]
    n = len(anchor)
    k = n + extra
    p_min = critical_exponent(k)
    p = p_min if critical else (p_min + 2.0) / 2.0 if shift else p_min + 0.7
    mu = make_family(SingularFamily(kind, anchor, p), domain)
    prof = mu.radial_profile
    if critical:
        assert (prof.power, prof.log_power) == (k - shift, k / 2.0 + 1.0)
    else:
        assert prof.power == pytest.approx(2.0 / (p - 1.0) - shift, rel=1e-14)
        assert prof.log_power == 0.0
    assert mu.singularity == (anchor, -prof.power)
    assert mu.support_center == anchor
    dens = mu.interior_density if support == "interior" else mu.boundary_density
    assert (mu.interior_density, mu.boundary_density).count(None) == 1

    rng = np.random.default_rng(n + 10 * extra)
    u = rng.normal(size=(64, n))
    r = np.concatenate([10.0 ** rng.uniform(-8.0, 0.0, 48), rng.uniform(1.0 + 1e-9, 3.0, 16)])
    off = u / np.linalg.norm(u, axis=1)[:, None] * r[:, None]
    pts = np.asarray(anchor) + off
    want = np.where(r <= 1.0, r**-prof.power * np.log(math.e + 1.0 / r) ** -prof.log_power, 0.0)
    np.testing.assert_allclose(dens(pts, off), want, rtol=1e-12)
    # without offsets the distance is taken from the points
    ra = np.linalg.norm(pts - np.asarray(anchor), axis=1)
    want = np.where(ra <= 1.0, ra**-prof.power * np.log(math.e + 1.0 / ra) ** -prof.log_power, 0.0)
    np.testing.assert_allclose(dens(pts, None), want, rtol=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_right_wall_masses_mirror_the_left_wall(p, monkeypatch):
    # the weight next to the right wall is taken from the anchor offsets,
    # not from 1 - y, which rounds away the digits of a small offset
    evaluations = []
    real = quadrature._adaptive_box

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    left = make_family(SingularFamily("boundary_point", (0.0,), p), IV1)
    right = make_family(SingularFamily("boundary_point", (1.0,), p), IV1)
    for sigma in (1e-3, 1e-2, 0.1, 0.5):
        mirror = ball_mass(left, IV1, (0.0,), sigma)
        monkeypatch.setattr(quadrature, "_adaptive_box", counted)
        evaluations.clear()
        got = ball_mass(right, IV1, (1.0,), sigma)
        monkeypatch.undo()
        assert sum(evaluations) <= 20_000
        assert got == pytest.approx(mirror, rel=1e-12)
