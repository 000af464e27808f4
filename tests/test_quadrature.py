"""Closed-form checks for the adaptive cubature engine and the time integral,
and the engine against its one-cell form in oracles.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildheat import quadrature
from mildheat.quadrature import (
    Ball,
    BoundaryPatch,
    HalfSpaceBox,
    QuadResult,
    integrate,
    integrate_time,
)
from oracles import one_cell_adaptive_box


def test_polynomial_box_exact():
    # degree (2,3) is inside the exactness range of both rules
    f = lambda p, off: 3.0 * p[:, 0] ** 2 * 4.0 * p[:, 1] ** 3
    res = integrate(f, HalfSpaceBox((0.0, 0.0), (1.0, 1.0)), 1e-12)
    assert abs(res.value - 1.0) < 1e-13
    assert res.evaluations == 15**2
    assert res.converged


def test_gaussian_box():
    f = lambda p, off: np.exp(-p[:, 0] ** 2 - p[:, 1] ** 2)
    res = integrate(f, HalfSpaceBox((-8.0, 0.0), (8.0, 8.0)), 1e-10)
    exact = 0.5 * math.pi * math.erf(8.0)
    assert abs(res.value - exact) < 1e-10
    assert res.error_estimate < 1e-9
    assert res.converged


def test_disc_area():
    f = lambda p, off: np.ones(p.shape[0])
    res = integrate(f, Ball((0.3, -1.2), 2.0), 1e-12)
    assert abs(res.value - 4.0 * math.pi) < 1e-11
    assert res.converged


def test_ball_volume_3d():
    f = lambda p, off: np.ones(p.shape[0])
    res = integrate(f, Ball((0.0, 1.0, 2.0), 0.7), 1e-10)
    assert abs(res.value - 4.0 / 3.0 * math.pi * 0.7**3) < 1e-9
    assert res.converged


@pytest.mark.parametrize("a", [0.5, 2.0 / 3.0])
def test_singular_origin_1d(a):
    # int_{-1}^{1} |s|^{-a} ds = 2/(1-a)
    f = lambda p, off: np.abs(off[:, 0]) ** (-a)
    res = integrate(f, Ball((0.0,), 1.0), 1e-9, singularity_hint=((0.0,), -a))
    exact = 2.0 / (1.0 - a)
    assert abs(res.value - exact) < 5e-9
    assert res.error_estimate < 1e-8
    assert res.converged


def test_singular_shifted_anchor():
    # the offsets argument avoids cancellation at an anchor far from 0
    f = lambda p, off: np.abs(off[:, 0]) ** (-2.0 / 3.0)
    res = integrate(f, Ball((1.0,), 0.1), 1e-9, singularity_hint=((1.0,), -2.0 / 3.0))
    exact = 6.0 * 0.1 ** (1.0 / 3.0)
    assert abs(res.value - exact) < 5e-9


def test_weighted_singular_with_linear_factor():
    # int_{0.9}^{1.1} y |y-1|^{-2/3} dy: the linear part integrates to zero
    # by symmetry, leaving exactly 6 * 0.1^(1/3)
    f = lambda p, off: p[:, 0] * np.abs(off[:, 0]) ** (-2.0 / 3.0)
    res = integrate(f, Ball((1.0,), 0.1), 1e-9, singularity_hint=((1.0,), -2.0 / 3.0))
    assert abs(res.value - 6.0 * 0.1 ** (1.0 / 3.0)) < 5e-9


def test_clipped_ball_1d():
    f = lambda p, off: np.ones(p.shape[0])
    res = integrate(f, Ball((0.1,), 1.0, clip_lo=0.0), 1e-12)
    assert abs(res.value - 1.1) < 1e-12


def test_clip_to_empty():
    f = lambda p, off: np.ones(p.shape[0])
    res = integrate(f, Ball((5.0,), 1.0, clip_hi=0.0), 1e-12)
    assert res == QuadResult(0.0, 0.0, 1)


def test_polar_singular_center():
    # int_{B(0,1)} |x|^{-1} dx = 2 pi in two dimensions
    f = lambda p, off: np.hypot(off[:, 0], off[:, 1]) ** (-1.0)
    res = integrate(f, Ball((0.0, 0.0), 1.0), 1e-8, singularity_hint=((0.0, 0.0), -1.0))
    assert abs(res.value - 2.0 * math.pi) < 1e-7
    assert res.converged


def test_clipped_ball_singular_on_cut():
    # upper half disc of x2 / |x|: polar gives int sin * 1/2 * 2 = 1
    f = lambda p, off: p[:, 1] * (off[:, 0] ** 2 + off[:, 1] ** 2) ** (-0.5)
    res = integrate(
        f,
        Ball((0.0, 0.0), 1.0, clip_lo=0.0),
        1e-7,
        singularity_hint=((0.0, 0.0), -1.0),
    )
    assert abs(res.value - 1.0) < 1e-6


def test_ball_3d_singularities():
    f = lambda p, off: (off[:, 0] ** 2 + off[:, 1] ** 2 + off[:, 2] ** 2) ** (-1.0)
    res = integrate(
        f, Ball((0.0, 0.0, 0.0), 1.0), 1e-6, singularity_hint=((0.0, 0.0, 0.0), -2.0)
    )
    assert abs(res.value - 4.0 * math.pi) < 1e-5

    g = lambda p, off: (off[:, 0] ** 2 + off[:, 1] ** 2 + off[:, 2] ** 2) ** (-0.5)
    res = integrate(
        g,
        Ball((0.0, 0.0, 0.0), 1.0, clip_lo=0.0),
        1e-6,
        singularity_hint=((0.0, 0.0, 0.0), -1.0),
    )
    assert abs(res.value - math.pi) < 1e-5


def test_boundary_patch_line():
    f = lambda p, off: np.abs(off[:, 0]) ** (-0.5)
    res = integrate(
        f, BoundaryPatch((0.5, 0.0), 1.5), 1e-9, singularity_hint=((0.5, 0.0), -0.5)
    )
    assert abs(res.value - 4.0 * math.sqrt(1.5)) < 1e-8
    assert res.converged


def test_boundary_patch_disc():
    # int over the unit disc on {x3 = 0} of |y|^{-1} dS = 2 pi
    f = lambda p, off: np.hypot(off[:, 0], off[:, 1]) ** (-1.0)
    res = integrate(
        f,
        BoundaryPatch((0.0, 0.0, 0.0), 1.0),
        1e-8,
        singularity_hint=((0.0, 0.0, 0.0), -1.0),
    )
    assert abs(res.value - 2.0 * math.pi) < 1e-7


def test_time_integral_smooth():
    seen = []

    def g(ts):
        seen.append(np.shape(ts))
        return np.cos(ts)

    res = integrate_time(g, 0.0, 1.5, 1e-12)
    assert abs(res.value - math.sin(1.5)) < 1e-12
    assert res.converged and res.error_estimate <= 1e-12 * res.value
    # one 21-point Gauss-Kronrod panel is enough; g sees 1-D arrays
    assert res.evaluations == len(seen) == 21
    assert set(seen) == {(1,)}


def test_time_integral_flags_a_missed_tolerance():
    # sin(1/t) oscillates faster than QUADPACK's 50 subintervals resolve
    res = integrate_time(lambda ts: np.sin(1.0 / ts), 1e-3, 1.0, 1e-12)
    assert not res.converged
    assert res.error_estimate > 1e-12 * abs(res.value)


def test_determinism():
    f = lambda p, off: np.abs(off[:, 0]) ** (-0.5) * np.exp(p[:, 0])
    a = integrate(f, Ball((2.0,), 0.5), 1e-9, singularity_hint=((2.0,), -0.5))
    b = integrate(f, Ball((2.0,), 0.5), 1e-9, singularity_hint=((2.0,), -0.5))
    assert a == b


def test_relative_mode_scale_equivariance():
    f1 = lambda p, off: np.abs(off[:, 0]) ** (-0.5)
    f2 = lambda p, off: 7.3e5 * np.abs(off[:, 0]) ** (-0.5)
    a = integrate(f1, Ball((2.0,), 0.5), 1e-10, singularity_hint=((2.0,), -0.5), relative=True)
    b = integrate(f2, Ball((2.0,), 0.5), 1e-10, singularity_hint=((2.0,), -0.5), relative=True)
    assert abs(b.value / a.value - 7.3e5) < 7.3e5 * 1e-13


def test_budget_exhaustion_reports_error():
    g = lambda p: np.abs(p[:, 0]) ** (-0.9)
    res = quadrature._adaptive_box(g, [-1.0], [1.0], 1e-14, hint=[0.0], max_evals=20_000)
    assert res.error_estimate > 1e-14
    assert res.evaluations <= 20_000
    assert not res.converged


def test_cut_disc_spends_the_budget_and_says_so():
    # the slice map's chord Jacobian has square-root ends at the cut disc's
    # rim, so relative 1e-10 is out of reach within the budget
    region = Ball((0.0, 0.2), 0.5, clip_lo=0.0)
    res = integrate(lambda p, off: np.ones(p.shape[0]), region, 1e-10, relative=True)
    assert res.evaluations == 1_999_575
    assert 1e-10 * res.value < res.error_estimate < 1e-8
    assert not res.converged


def test_each_split_is_one_integrand_call():
    # the root cell alone, then both children of every split in one call
    calls = []

    def g(p):
        calls.append(len(p))
        return np.hypot(p[:, 0], p[:, 1]) ** -1.0 * np.exp(p[:, 1])

    res = quadrature._adaptive_box(g, [-1.0, 0.0], [1.0, 1.0], 1e-6, hint=[0.0, 0.0])
    splits = (res.evaluations - 15**2) // (2 * 15**2)
    assert splits > 10 and res.converged
    assert calls == [15**2] + [2 * 15**2] * splits


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Ball((0.0,), -1.0),
        lambda: BoundaryPatch((0.0, 1.0), 1.0),
        lambda: HalfSpaceBox((0.0, 0.0), (1.0,)),
        lambda: HalfSpaceBox((0.0, 1.0), (1.0, 1.0)),
    ],
)
def test_invalid_regions(bad):
    with pytest.raises(ValueError):
        bad()


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        integrate(lambda p, off: np.ones(p.shape[0]), Ball((0.0,), 1.0), 0.0)
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError):
            integrate_time(np.cos, 0.0, 1.0, tol)


@pytest.mark.parametrize(
    "center, f",
    [
        ((0.1, 0.8), lambda p, off: np.exp(-np.sum(p**2, axis=1)) * (1.0 + p[:, 0])),
        ((0.1, 0.2, 0.8), lambda p, off: np.exp(p[:, 2])),
    ],
)
def test_clip_that_cuts_nothing_is_no_clip(center, f):
    # a half-space ball clear of the wall is integrated as an uncut ball
    clipped = integrate(f, Ball(center, 0.5, clip_lo=0.0), 1e-8, relative=True)
    assert clipped == integrate(f, Ball(center, 0.5), 1e-8, relative=True)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    center=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    r=st.floats(0.2, 2.0),
    t=st.floats(-0.9, 0.9),
    gap=st.floats(0.0, 1.0),
)
def test_ball_maps_against_closed_forms(dim, center, r, t, gap):
    c = tuple(center[:dim])
    full = math.pi * r**2 if dim == 2 else 4.0 / 3.0 * math.pi * r**3
    cases = [
        (Ball(c, r, clip_lo=c[-1] - r - gap), full),  # the clip cuts nothing
        (Ball(c, r, clip_hi=c[-1] - r - gap), 0.0),  # the clip cuts everything
    ]
    if dim == 3:
        # the cap above height c + t r
        cap = math.pi * r**3 * (1.0 - t) ** 2 * (2.0 + t) / 3.0
        cases.append((Ball(c, r, clip_lo=c[-1] + t * r), cap))
    for region, exact in cases:
        res = integrate(lambda p, off: np.ones(p.shape[0]), region, 1e-10, relative=True)
        assert abs(res.value - exact) <= 1e-12 * exact
        assert res.evaluations <= 15**3


@settings(max_examples=25, deadline=None)
@given(
    coefs=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    a=st.floats(-2, 1),
    width=st.floats(0.5, 3),
)
def test_quadratic_exactness_property(coefs, a, width):
    c0, c1, c2 = coefs
    b = a + width
    f = lambda p, off: c0 + c1 * p[:, 0] + c2 * p[:, 0] ** 2
    res = integrate(f, HalfSpaceBox((a,), (b,)), 1e-12)
    exact = c0 * (b - a) + c1 * (b**2 - a**2) / 2 + c2 * (b**3 - a**3) / 3
    assert abs(res.value - exact) < 1e-10 * max(1.0, abs(exact))


def _integrand(kind: str, z, a: float):
    if kind == "polynomial":
        return lambda p: 1.0 + p[:, 0] ** 2 + 2.0 * p[:, -1] ** 4 + (p[:, 0] * p[:, -1]) ** 2
    r2 = lambda p: np.sum((p - z) ** 2, axis=1)
    if kind == "gaussian":
        return lambda p: np.exp(-4.0 * r2(p))

    def power(p):
        with np.errstate(divide="ignore"):  # a node on z reads inf, then 0
            return r2(p) ** (-0.5 * a)

    return power


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    corner=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    widths=st.lists(st.floats(0.1, 2), min_size=3, max_size=3),
    at=st.lists(st.floats(-0.5, 1.5), min_size=3, max_size=3),
    hinted=st.booleans(),
    kind=st.sampled_from(["polynomial", "gaussian", "power"]),
    a=st.floats(0.1, 0.8),
    tol_exp=st.integers(-11, -3),
    relative=st.booleans(),
)
def test_two_child_calls_match_the_one_cell_engine(
    dim, corner, widths, at, hinted, kind, a, tol_exp, relative
):
    # the same cells, splits and counts as one call per cell; the sums
    # differ by rounding only.  z, the Gaussian's centre and the power's
    # singular point, lies inside the box or outside it (at < 0 or > 1).
    # Every integrand is positive, so the value bounds the rounding, and
    # an estimate at the rounding floor is compared on the value's scale
    lo = np.array(corner[:dim])
    hi = lo + np.array(widths[:dim])
    z = lo + np.array(at[:dim]) * (hi - lo)
    g = _integrand(kind, z, a)
    tol = 10.0**tol_exp
    args = (g, lo, hi, tol)
    kwargs = dict(hint=z if hinted else None, relative=relative, max_evals=30_000)
    got = quadrature._adaptive_box(*args, **kwargs)
    ref = one_cell_adaptive_box(*args, **kwargs)
    assert got.evaluations == ref.evaluations
    assert got.converged == ref.converged
    assert abs(got.value - ref.value) <= 1e-13 * max(abs(ref.value), tol)
    floor = 1e-13 * abs(ref.value)
    assert abs(got.error_estimate - ref.error_estimate) <= 1e-10 * ref.error_estimate + floor
