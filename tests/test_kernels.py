"""Kernel evaluations against closed forms, series cross-oracles and the
defining structural identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mildheat.kernels import (
    HalfSpace,
    Interval,
    KernelBoundsCert,
    WholeSpace,
    _over_distance,
    _reach,
    boundary_distance,
    certify_gaussian_bounds,
    heat_kernel,
    kernel_values,
    survival_mass,
    verify_semigroup,
    weighted_kernel,
)
from mildheat.quadrature import HalfSpaceBox, integrate
from oracles import interval_eigen_kernel, interval_eigen_weighted

HS1 = HalfSpace(1)
HS2 = HalfSpace(2)
IV1 = Interval(1.0)


def eigen_survival(x, t, L=1.0):
    # surviving mass on the interval by its eigenfunction series
    m = np.arange(1, 3001)
    lam = (m * math.pi / L) ** 2
    coef = np.where(m % 2 == 1, 4.0 / (m * math.pi), 0.0)
    return float(np.dot(coef * np.sin(m * math.pi * x / L), np.exp(-lam * t)))


def test_whole_space_normalization_spot():
    t = 1.0 / (4.0 * math.pi)
    assert heat_kernel(WholeSpace(1), (0.0,), (0.0,), t) == pytest.approx(1.0, abs=1e-14)


def test_half_space_closed_form_spot():
    # (pi)^(-1/2) * (1 - e^(-4)), frozen at high precision
    v = heat_kernel(HS1, (1.0,), (1.0,), 0.25)
    assert abs(v - 0.5538560908707103) < 1e-14


def test_boundary_vanishing_exact():
    assert heat_kernel(HS2, (0.3, 0.0), (0.2, 0.5), 0.1) == 0.0
    assert heat_kernel(HS2, (0.3, 0.5), (0.2, 0.0), 0.1) == 0.0
    assert heat_kernel(IV1, (0.0,), (0.5,), 0.1) == 0.0
    assert heat_kernel(IV1, (0.4,), (1.0,), 0.1) == 0.0
    assert weighted_kernel(HS1, (0.0,), (0.5,), 0.1) == 0.0
    assert weighted_kernel(IV1, (1.0,), (0.5,), 0.1) == 0.0


@settings(max_examples=80, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
    t=st.floats(0.01, 2.0),
)
def test_interval_cross_oracle(x, y, t):
    # every image sum against its eigenfunction series, an independent
    # evaluation
    ref = interval_eigen_kernel(IV1, (x,), (y,), t)
    assert abs(heat_kernel(IV1, (x,), (y,), t) - ref) < 1e-10
    assert abs(kernel_values(IV1, (x,), [[y]], t)[0] - ref) < 1e-10
    assert abs(survival_mass(IV1, (x,), t) - eigen_survival(x, t)) < 1e-10
    for left, yb in ((True, (0.0,)), (False, (1.0,))):
        ref = interval_eigen_weighted(IV1, (x,), left, t)
        assert abs(weighted_kernel(IV1, (x,), yb, t) - ref) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(0.01, 3.0),
    y=st.floats(0.01, 3.0),
    t=st.floats(1e-3, 2.0),
)
def test_half_space_symmetry(x, y, t):
    a = heat_kernel(HS1, (x,), (y,), t)
    b = heat_kernel(HS1, (y,), (x,), t)
    assert a == pytest.approx(b, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(0.01, 0.99),
    y=st.floats(0.01, 0.99),
    t=st.floats(1e-3, 2.0),
)
def test_interval_symmetry_and_positivity(x, y, t):
    a = heat_kernel(IV1, (x,), (y,), t)
    b = heat_kernel(IV1, (y,), (x,), t)
    assert a == b
    assert a > 0.0


def _mp_interval_kernel(length, x, y, t):
    """The interval kernel at 50 digits: every image pair, with three
    more shifts each way than the reach asks."""
    with mpmath.workdps(50):
        L, x, y, t = (mpmath.mpf(v) for v in (length, x, y, t))
        m = math.ceil((length + _reach(float(t))) / (2.0 * length)) + 3
        total = mpmath.mpf(0)
        for k in range(-m, m + 1):
            total += mpmath.exp(-((x - 2 * k * L - y) ** 2) / (4 * t))
            total -= mpmath.exp(-((2 * k * L - x - y) ** 2) / (4 * t))
        return float(total / mpmath.sqrt(4 * mpmath.pi * t))


def test_interval_kernel_keeps_its_digits_next_to_a_wall():
    # point sources 1e-9 from either wall, as a source and as a target,
    # against 50-digit image sums: the mirror pairs summed apart lose about
    # log10(t / (y 1e-9)) digits at a target y.  Targets next to a wall are
    # left out: there pairs of different shifts still cancel each other
    L = 1.0
    ys = np.array([0.003, 0.05, 0.3, 0.5, 0.77, 0.997])
    for x in (1e-9, L - 1e-9):
        for t in (1e-6, 1e-3, 0.02, 0.3):
            got = kernel_values(IV1, (x,), ys[:, None], t)
            back = np.array([kernel_values(IV1, (y,), [[x]], t)[0] for y in ys])
            for y, g, b in zip(ys, got, back):
                ref = _mp_interval_kernel(L, x, y, t)
                if ref < 1e-290:  # below float64's normal range
                    continue
                assert abs(g - ref) <= 1e-12 * ref
                assert abs(b - ref) <= 1e-12 * ref


@st.composite
def interior_pairs(draw):
    """A domain, two points off its wall and a time."""
    kinds = [HalfSpace(1), HalfSpace(2), HalfSpace(3), IV1]
    domain = draw(st.sampled_from(kinds + [WholeSpace(1), WholeSpace(2), WholeSpace(3)]))

    def point():
        if isinstance(domain, Interval):
            return np.array([draw(st.floats(1e-6, 1.0 - 1e-6))])
        q = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(domain.dim)])
        if isinstance(domain, HalfSpace):
            q[-1] = draw(st.floats(1e-6, 2.0))
        return q

    return domain, point(), point(), draw(st.floats(1e-3, 2.0))


@settings(max_examples=150, deadline=None)
@given(case=interior_pairs())
def test_scalar_kernels_are_one_point_views(case):
    # the scalar names evaluate the stacked kernels, bit for bit: on the
    # interval at the ordered pair, smaller point as the source
    domain, x, y, t = case
    lo, hi = sorted((x, y), key=lambda p: p[0]) if isinstance(domain, Interval) else (x, y)
    assert heat_kernel(domain, x, y, t) == kernel_values(domain, lo, [hi], t)[0]
    if isinstance(domain, WholeSpace):
        return
    yb = y.copy()
    yb[-1] = 0.0
    for b in (y, yb):
        assert weighted_kernel(domain, x, b, t) == _over_distance(domain, x[None, :], b, t)[0]


def test_weighted_interior_is_exact_ratio():
    g = heat_kernel(HS1, (1.0,), (0.5,), 0.25)
    assert weighted_kernel(HS1, (1.0,), (0.5,), 0.25) == g / 0.5


def test_weighted_boundary_spot():
    # (4 pi t)^(-1/2) * (x/t) * exp(-x^2/(4t)) at x=1, t=0.25
    v = weighted_kernel(HS1, (1.0,), (0.0,), 0.25)
    assert abs(v - 0.830213) < 1e-5
    assert abs(v - 4.0 * math.exp(-1.0) / math.sqrt(math.pi)) < 1e-14


def test_weighted_boundary_limit_order():
    # the ratio G/y_N approaches the boundary form no slower than first
    # order; reflection symmetry makes the kernel odd in y_N, so the even
    # ratio actually converges at second order on these domains
    kb = weighted_kernel(HS1, (1.0,), (0.0,), 0.25)
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    errs = np.array(
        [abs(heat_kernel(HS1, (1.0,), (e,), 0.25) / e - kb) for e in eps]
    )
    assert np.all(errs[1:] < errs[:-1])
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert slope > 0.8
    assert abs(slope - 2.0) < 0.2


def test_weighted_boundary_limit_interval():
    for left in (True, False):
        yb = (0.0,) if left else (1.0,)
        kb = weighted_kernel(IV1, (0.4,), yb, 0.05)
        eps = 1e-8
        ye = (eps,) if left else (1.0 - eps,)
        lim = heat_kernel(IV1, (0.4,), ye, 0.05) / eps
        assert abs(kb - lim) < 1e-6
        assert abs(kb - interval_eigen_weighted(IV1, (0.4,), left, 0.05)) < 1e-12


def test_near_boundary_switch_is_continuous():
    t = 0.25
    d = 1e-6 * math.sqrt(t)  # just around the switch threshold
    above = weighted_kernel(HS1, (1.0,), (2.0 * d,), t)
    below = weighted_kernel(HS1, (1.0,), (0.5 * d,), t)
    bdry = weighted_kernel(HS1, (1.0,), (0.0,), t)
    assert abs(above - bdry) < 1e-5 * bdry
    assert abs(below - bdry) < 1e-5 * bdry


def test_weighted_positive_interior():
    assert weighted_kernel(HS2, (0.3, 0.5), (0.1, 0.0), 0.1) > 0.0
    assert weighted_kernel(IV1, (0.5,), (0.0,), 0.1) > 0.0


@pytest.mark.parametrize(
    "domain,x,y",
    [
        (HS1, (0.7,), (0.4,)),
        (HS2, (0.3, 0.7), (0.1, 0.4)),
        (IV1, (0.3,), (0.6,)),
    ],
)
def test_semigroup_identity(domain, x, y):
    rep = verify_semigroup(domain, x, y, 0.05, 0.1, tol=1e-8)
    assert rep.rel_residual < 1e-6
    assert rep.abs_residual <= 10.0 * rep.quad_error + 1e-13 * abs(rep.lhs)


def test_semigroup_weighted_boundary():
    rep = verify_semigroup(HS1, (0.7,), (0.0,), 0.05, 0.1, tol=1e-8, weighted=True)
    assert rep.rel_residual < 1e-5
    rep = verify_semigroup(IV1, (0.3,), (0.0,), 0.05, 0.1, tol=1e-8, weighted=True)
    assert rep.rel_residual < 1e-5
    rep = verify_semigroup(HS1, (0.7,), (0.4,), 0.05, 0.1, tol=1e-8, weighted=True)
    assert rep.rel_residual < 1e-5


def test_semigroup_whole_space():
    rep = verify_semigroup(WholeSpace(1), (0.1,), (0.4,), 0.1, 0.1, tol=1e-10)
    assert rep.rel_residual < 1e-8


def test_survival_whole_space():
    assert survival_mass(WholeSpace(2), (0.4, -1.0), 0.3) == 1.0


def test_survival_half_space_spot():
    # erf(1), frozen from an independent high-precision evaluation
    v = survival_mass(HS1, (1.0,), 0.25)
    assert abs(v - 0.8427007929497149) < 1e-12


def test_survival_against_quadrature():
    # independent oracle: integrate the kernel directly
    t = 0.25
    r = _reach(t)
    f = lambda p, off: kernel_values(HS1, (1.0,), p, t)
    q = integrate(f, HalfSpaceBox((0.0,), (1.0 + r,)), 1e-10)
    assert abs(q.value - survival_mass(HS1, (1.0,), t)) < 1e-8


def test_survival_interval_eigen_oracle():
    for t in (0.01, 0.1, 0.5):
        for x in (0.1, 0.3, 0.5):
            assert abs(survival_mass(IV1, (x,), t) - eigen_survival(x, t)) < 1e-10


@settings(max_examples=80, deadline=None)
@given(x=st.floats(0.0, 1.0), t=st.floats(1e-6, 4.0))
# the image series cancels to round-off at these two
@example(x=0.0, t=2.0)
@example(x=1e-12, t=2.0)
def test_survival_interval_is_a_fraction(x, t):
    v = survival_mass(IV1, (x,), t)
    assert 0.0 <= v <= 1.0
    if x in (0.0, 1.0):
        assert v == 0.0


def test_survival_vanishes_at_boundary_monotonically():
    xs = [0.5, 0.2, 0.05, 0.01, 0.0]
    vals = [survival_mass(HS1, (x,), 0.1) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0


def test_survival_below_one():
    for t in (0.01, 0.1, 1.0):
        assert survival_mass(HS1, (0.5,), t) < 1.0
        assert survival_mass(IV1, (0.5,), t) < 1.0


def test_vectorized_matches_scalar():
    ys = np.array([[0.2], [0.5], [0.0], [1e-9], [3.0]])
    kv = kernel_values(HS1, (1.0,), ys, 0.25)
    for i, y in enumerate(ys):
        assert kv[i] == pytest.approx(heat_kernel(HS1, (1.0,), y, 0.25), rel=1e-14, abs=0)
    ys = ys % 0.99 + 0.005
    for x in ((0.3,), (0.7,)):
        kv = kernel_values(IV1, x, ys, 0.05)
        for i, y in enumerate(ys):
            assert kv[i] == pytest.approx(heat_kernel(IV1, x, y, 0.05), rel=1e-12)


def test_certification_finite_and_valid():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.001, 4.0, 2000)
    ts = 10 ** rng.uniform(-4, -1e-4, 2000)
    samples = [((a,), (b,), t) for a, b, t in zip(xs, np.roll(xs, 1), ts)]
    cert = certify_gaussian_bounds(HS1, samples, 1.0)
    assert isinstance(cert, KernelBoundsCert)
    assert math.isfinite(cert.amplitude) and cert.amplitude >= 1.0
    assert cert.rate >= 4.0
    assert cert.max_violation <= 0.0
    assert cert.sample_count == 2000


def test_certification_single_sample():
    x, t = 1.0, 0.25
    g = heat_kernel(HS1, (x,), (x,), t)
    prof = t**-0.5 * (x / (x + math.sqrt(t))) ** 2
    cert = certify_gaussian_bounds(HS1, [((x,), (x,), t)], 1.0)
    # one constraint: amplitude is the exact ratio (here the lower side binds)
    assert cert.amplitude == pytest.approx(prof / g, rel=1e-9)


def test_certification_rejects_bad_time():
    with pytest.raises(ValueError):
        certify_gaussian_bounds(HS1, [((1.0,), (1.0,), 1.5)], 1.0)
    with pytest.raises(ValueError):
        certify_gaussian_bounds(WholeSpace(1), [((1.0,), (1.0,), 0.5)], 1.0)


def test_small_time_floor():
    with pytest.raises(ValueError):
        heat_kernel(HS1, (1.0,), (1.0,), 1e-13)
    with pytest.raises(ValueError):
        weighted_kernel(HS1, (1.0,), (1.0,), 0.0)
    with pytest.raises(ValueError):
        survival_mass(HS1, (1.0,), -1.0)


def test_point_validation():
    with pytest.raises(ValueError):
        heat_kernel(HS1, (-0.1,), (1.0,), 0.1)
    with pytest.raises(ValueError):
        heat_kernel(IV1, (1.2,), (0.5,), 0.1)
    with pytest.raises(ValueError):
        heat_kernel(HS2, (0.1,), (0.2, 0.3), 0.1)
    with pytest.raises(ValueError):
        weighted_kernel(WholeSpace(1), (0.0,), (1.0,), 0.1)


def test_boundary_distance():
    assert boundary_distance(HS2, (3.0, 0.7)) == 0.7
    assert boundary_distance(IV1, (0.8,)) == pytest.approx(0.2)
    assert boundary_distance(WholeSpace(1), (5.0,)) == math.inf
    d = boundary_distance(IV1, np.array([[0.1], [0.9], [0.5]]))
    assert np.allclose(d, [0.1, 0.1, 0.5])
