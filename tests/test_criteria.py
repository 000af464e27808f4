"""Admissibility checks: ball bounds, moment rates and strip diagnostics."""

import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from mildheat.criteria import (
    CriterionReport,
    boundary_mass_check,
    boundary_strip_rate,
    fit_exponent,
    fit_log_exponent,
    necessary_ball_bound,
    necessary_log_bound,
    orlicz_boundary_check,
    orlicz_moment_check,
    power_moment_check,
    probe_points,
    sigma_ladder,
    sufficient_integral_check,
    uniform_mass_check,
    weighted_strip_bound,
)
from mildheat.kernels import HalfSpace, Interval, WholeSpace
from mildheat.measures import (
    MeasureSpec,
    RadialProfile,
    SingularFamily,
    critical_exponent,
    make_family,
    pairing,
    scale,
)
from mildheat.solver import _InitialEvaluator, measure_grid

HS1 = HalfSpace(1)
HS2 = HalfSpace(2)
HS3 = HalfSpace(3)
IV1 = Interval(1.0)


def zero_measure():
    return MeasureSpec(
        interior_density=lambda pts, off=None: np.zeros(len(np.atleast_2d(pts)))
    )


@pytest.fixture(scope="module")
def wall_family():
    return make_family(SingularFamily("boundary_point", (0.0,), 4.0), HS1)


@pytest.fixture(scope="module")
def interval_family():
    mu = make_family(SingularFamily("boundary_point", (0.0,), 3.0), IV1)
    return scale(mu, 0.05)


# ---------------------------------------------------------------------------
# fitting helpers


def test_fit_exponent_recovers_exact_power():
    s = np.geomspace(1e-3, 1.0, 9)
    slope, band = fit_exponent(list(zip(s, s**2)))
    assert abs(slope - 2.0) < 1e-10
    assert band < 1e-9


def test_fit_exponent_tolerates_small_noise():
    s = np.geomspace(1e-3, 1.0, 24)
    wiggle = 1.0 + 0.01 * np.sin(17.3 * np.arange(24))
    slope, band = fit_exponent(list(zip(s, s ** (1.0 / 3.0) * wiggle)))
    assert abs(slope - 1.0 / 3.0) < 0.02
    assert band < 0.05


def test_fit_exponent_flat_data():
    s = np.geomspace(1e-2, 1.0, 8)
    slope, _ = fit_exponent([(x, 0.7) for x in s])
    assert abs(slope) < 1e-12


def test_fit_exponent_input_validation():
    with pytest.raises(ValueError):
        fit_exponent([(0.1, 1.0), (0.2, 1.1)])
    with pytest.raises(ValueError):
        fit_exponent([(0.1 * k, 1.0) for k in range(1, 7)])  # span too narrow
    with pytest.raises(ValueError):
        fit_exponent([(s, -1.0) for s in np.geomspace(1e-3, 1, 6)])


def test_fit_log_exponent_recovers_log_power():
    T = 1.0
    s = np.geomspace(1e-8, 0.3, 10)
    vals = [(x, math.log(math.e + math.sqrt(T) / x) ** -1.5) for x in s]
    slope, band = fit_log_exponent(vals, T)
    assert abs(slope + 1.5) < 1e-10
    assert band < 1e-9


def test_report_rejects_bad_rows():
    with pytest.raises(ValueError):
        CriterionReport("x", (), ("a",), (), "consistent")
    with pytest.raises(ValueError):
        CriterionReport("x", (), ("a",), ((1.0, 2.0),), "consistent")
    with pytest.raises(ValueError):
        CriterionReport("x", (), ("a",), ((1.0,),), "maybe")


def test_report_column_lookup():
    rep = CriterionReport(
        "x", (), ("sigma", "value"), ((0.1, 1.0), (0.2, 2.0)), "consistent"
    )
    assert np.allclose(rep.column("value"), [1.0, 2.0])
    with pytest.raises(ValueError):
        rep.column("missing")


def test_sigma_ladder_geometry():
    lad = sigma_ladder(0.64, count=10)
    assert len(lad) == 10
    assert lad[0] == pytest.approx(1e-3)
    assert lad[-1] == pytest.approx(0.4)  # sqrt(T)/2
    ratios = np.diff(np.log(lad))
    assert np.allclose(ratios, ratios[0])


def test_probe_points_cover_anchors(wall_family):
    pts = probe_points(wall_family, HS1)
    assert (0.0,) in pts
    assert all(q[0] >= 0.0 for q in pts)
    assert any(q[0] >= 1.0 for q in pts)
    assert pts == probe_points(wall_family, HS1)


# ---------------------------------------------------------------------------
# pointwise ball bounds


def test_subcritical_family_within_ball_bound(wall_family):
    rep = necessary_ball_bound(wall_family, HS1, p=4.0)
    assert rep.verdict == "consistent"
    assert rep.fitted_exponent > -0.08
    assert 0.0 < rep.empirical_constant < 1.5


def test_interior_atom_breaks_ball_bound():
    mu = MeasureSpec(atoms=(((0.5,), 1.0),))
    rep = necessary_ball_bound(mu, HS1, p=4.0)
    assert rep.verdict == "violated"
    # atom mass is flat while the ceiling shrinks like sigma^(1/3)
    assert rep.fitted_exponent == pytest.approx(-1.0 / 3.0, abs=0.1)


def test_zero_measure_ball_bound_trivial():
    rep = necessary_ball_bound(zero_measure(), HS1, p=4.0)
    assert rep.verdict == "consistent"
    assert rep.empirical_constant == 0.0


def test_ball_bound_rejects_critical_exponent(wall_family):
    with pytest.raises(ValueError):
        necessary_ball_bound(wall_family, HS1, p=critical_exponent(1))


@settings(max_examples=5, deadline=None)
@given(st.floats(min_value=1.5, max_value=80.0))
def test_scaling_preserves_violation(kappa):
    mu = MeasureSpec(atoms=(((0.5,), 1.0),))
    base = necessary_ball_bound(mu, HS1, p=4.0)
    rep = necessary_ball_bound(scale(mu, kappa), HS1, p=4.0)
    assert base.verdict == rep.verdict == "violated"
    assert rep.empirical_constant == pytest.approx(
        kappa * base.empirical_constant, rel=1e-9
    )


# ---------------------------------------------------------------------------
# borderline logarithmic bounds


def test_interior_borderline_family_bounded():
    mu = make_family(SingularFamily("interior_point", (1.0,), critical_exponent(1)), HS1)
    rep = necessary_log_bound(mu, HS1, "interior", T=1.0)
    assert rep.verdict == "consistent"
    assert abs(rep.fitted_exponent) < 0.2


def test_boundary_borderline_family_bounded():
    mu = make_family(SingularFamily("boundary_point", (0.0,), critical_exponent(2)), HS1)
    rep = necessary_log_bound(mu, HS1, "boundary", T=1.0)
    assert rep.verdict == "consistent"
    assert abs(rep.fitted_exponent) < 0.2


def test_heavier_log_tail_is_flagged():
    # log exponent 1.5 sits below the admissible 2.0, so ball masses
    # outgrow the borderline ceiling
    def heavy(pts, off=None):
        r = np.abs(np.atleast_2d(pts)[:, 0])
        L = np.log(np.e + 1.0 / np.maximum(r, 1e-300))
        return np.where(r <= 1.0, np.maximum(r, 1e-300) ** -2.0 * L**-1.5, 0.0)

    mu = MeasureSpec(
        interior_density=heavy,
        interior_mode="d_dx",
        support_center=(0.0,),
        support_radius=1.0,
        singularity=((0.0,), -2.0),
        p=critical_exponent(2),
        radial_profile=RadialProfile((0.0,), 1, 2.0, 1.5),
    )
    rep = necessary_log_bound(mu, HS1, "boundary", T=1.0)
    assert rep.verdict == "violated"
    assert rep.fitted_exponent > 0.35


def test_whole_space_log_bound_flags_an_atom():
    # no wall, so the distance weight drops out instead of making the bound infinite
    mu = MeasureSpec(atoms=(((0.5,), 1.0),))
    rep = necessary_log_bound(mu, WholeSpace(1), "interior", T=1.0)
    assert np.all(np.isfinite(rep.column("bound")))
    assert rep.verdict != "consistent"


def test_log_bound_requires_borderline_exponent(wall_family):
    with pytest.raises(ValueError):
        necessary_log_bound(wall_family, HS1, "interior", T=1.0)
    mu = make_family(SingularFamily("interior_point", (1.0,), critical_exponent(1)), HS1)
    with pytest.raises(ValueError):
        necessary_log_bound(mu, HS1, "sideways", T=1.0)


@pytest.mark.parametrize("p, critical", [(1.6666666667, True), (5.0 / 3.0 + 1e-6, False)])
def test_family_and_log_bound_share_the_critical_rule(p, critical):
    # 5/3 is critical for a wall anchor in two dimensions: ten decimals of
    # it build the family with the log factor, which the log bound accepts,
    # and an exponent 1e-6 past it builds the power law, which it refuses
    mu = make_family(SingularFamily("boundary_point", (0.0, 0.0), p), HS2)
    assert (mu.radial_profile.log_power > 0) == critical
    try:
        necessary_log_bound(mu, HS2, "boundary", sigmas=(0.01, 0.02))
    except ValueError as exc:
        assert not critical and "borderline" in str(exc)
    else:
        assert critical


# ---------------------------------------------------------------------------
# boundary mass


def test_surface_family_mass_flagged():
    mu = make_family(SingularFamily("boundary_surface", (0.0, 0.0), 1.8), HS2)
    rep = boundary_mass_check(mu, HS2, p=2.5)
    assert rep.verdict == "violated"
    assert rep.empirical_constant == pytest.approx(4.0, rel=1e-9)


def test_interior_measure_keeps_clean_boundary():
    mu = make_family(SingularFamily("interior_point", (1.0,), critical_exponent(1)), HS1)
    rep = boundary_mass_check(mu, HS1, p=2.5)
    assert rep.verdict == "consistent"
    assert rep.empirical_constant == 0.0


def test_boundary_atom_detected():
    rep = boundary_mass_check(MeasureSpec(atoms=(((0.0,), 0.3),)), HS1, p=2.5)
    assert rep.verdict == "violated"
    assert rep.empirical_constant == pytest.approx(0.3)


@pytest.mark.parametrize("a", [0.0, 1e-13])
def test_boundary_atoms_are_the_data_evolution_wall_masses(a):
    # one wall rule: an atom is boundary mass exactly when it sits at
    # distance 0, as the data's evolution on the grid decides it too
    mu = MeasureSpec(atoms=(((a,), 0.3),))
    rep = boundary_mass_check(mu, HS1, p=2.5)
    ev = _InitialEvaluator(mu, measure_grid(HS1, mu, 0.25, target_nodes=40))
    assert (rep.verdict == "violated") == bool(ev._walls) == (a == 0.0)


def test_boundary_mass_needs_p_at_least_two(wall_family):
    with pytest.raises(ValueError):
        boundary_mass_check(wall_family, HS1, p=1.5)


# ---------------------------------------------------------------------------
# uniform ball masses


def test_lebesgue_density_uniformly_bounded():
    ones = MeasureSpec(
        interior_density=lambda pts, off=None: np.ones(len(np.atleast_2d(pts)))
    )
    rep = uniform_mass_check(ones, HS1)
    assert rep.verdict == "consistent"
    assert rep.empirical_constant == pytest.approx(1.0, rel=1e-6)


def test_growing_density_flagged():
    mu = MeasureSpec(interior_density=lambda pts, off=None: np.atleast_2d(pts)[:, 0] ** 2)
    rep = uniform_mass_check(mu, HS1)
    assert rep.verdict == "violated"
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.1)


def test_compact_bump_uniformly_bounded():
    def bump(pts, off=None):
        r = np.abs(np.atleast_2d(pts)[:, 0] - 1.0)
        out = np.zeros(r.shape)
        m = r < 0.5
        out[m] = np.exp(-1.0 / (1.0 - (r[m] / 0.5) ** 2))
        return out

    mu = MeasureSpec(interior_density=bump, support_center=(1.0,), support_radius=0.5)
    assert uniform_mass_check(mu, HS1).verdict == "consistent"


# ---------------------------------------------------------------------------
# sufficiency integral


def test_zero_measure_sufficient():
    rep = sufficient_integral_check(zero_measure(), HS1, p=2.0)
    assert rep.verdict == "consistent"
    assert rep.empirical_constant == 0.0


def test_interior_atom_integral_matches_quadrature():
    mu = MeasureSpec(atoms=(((1.0,), 0.7),))
    rep = sufficient_integral_check(mu, HS1, p=1.5, T=1.0)
    assert rep.verdict == "consistent"
    # the sup ball integral has the closed form 0.7 / (1 + sqrt(s))
    oracle = si.quad(lambda s: s**-0.25 * (0.7 / (1.0 + math.sqrt(s))) ** 0.5, 0, 1.0)[0]
    assert rep.empirical_constant == pytest.approx(oracle, rel=0.01)
    assert rep.fitted_exponent == pytest.approx(-0.25, abs=0.02)


def test_boundary_atom_supercritical_integral_diverges():
    mu = MeasureSpec(atoms=(((0.0,), 0.7),))
    rep = sufficient_integral_check(mu, HS1, p=3.0, T=1.0)
    assert rep.verdict == "inconclusive"
    assert rep.fitted_exponent == pytest.approx(-2.0, abs=0.05)


# ---------------------------------------------------------------------------
# power moments


def test_interior_family_saturates_moment_rate():
    mu = make_family(SingularFamily("interior_point", (2.0,), 4.0), HS1)
    rep = power_moment_check(mu, HS1, alpha=1.2, sigmas=np.geomspace(1e-3, 0.1, 12))
    assert rep.verdict == "consistent"
    assert rep.predicted_exponent == pytest.approx(0.2)
    assert rep.fitted_exponent == pytest.approx(rep.predicted_exponent, abs=0.05)


def test_wall_family_moment_consistent(wall_family):
    rep = power_moment_check(wall_family, HS1, alpha=1.2)
    assert rep.verdict == "consistent"
    assert rep.fitted_exponent > rep.predicted_exponent - 0.08


def test_boundary_family_moment_saturates_exactly():
    mu = make_family(SingularFamily("boundary_surface", (0.0, 0.0), 1.8), HS2)
    rep = power_moment_check(mu, HS2, alpha=1.2, part="boundary")
    assert rep.verdict == "consistent"
    assert rep.predicted_exponent == pytest.approx(0.4)
    assert rep.fitted_exponent == pytest.approx(0.4, abs=1e-6)


def test_moment_order_validation(wall_family):
    with pytest.raises(ValueError):
        power_moment_check(wall_family, HS1, alpha=1.0)
    with pytest.raises(ValueError):
        power_moment_check(wall_family, HS1, alpha=1.2, part="boundary")
    mu = make_family(SingularFamily("interior_point", (2.0,), 4.0), HS1)
    with pytest.raises(ValueError):
        # alpha large enough to push the anchor integral past divergence
        power_moment_check(mu, HS1, alpha=1.6)


# ---------------------------------------------------------------------------
# log-weighted moments


def test_borderline_interior_log_moment():
    mu = make_family(
        SingularFamily("interior_point", (0.0, 1.0), critical_exponent(2)), HS2
    )
    rep = orlicz_moment_check(mu, HS2, beta=0.3, sigmas=np.geomspace(1e-3, 0.2, 12))
    assert rep.verdict == "consistent"
    assert rep.predicted_exponent == pytest.approx(-0.7)
    assert rep.fitted_exponent == pytest.approx(rep.predicted_exponent, abs=0.1)


def test_borderline_boundary_log_moment():
    mu = make_family(
        SingularFamily("boundary_point", (0.0, 0.0), critical_exponent(3)), HS2
    )
    rep = orlicz_moment_check(mu, HS2, beta=0.6, sigmas=np.geomspace(1e-3, 0.2, 12))
    assert rep.verdict == "consistent"
    assert rep.predicted_exponent == pytest.approx(-0.9)
    assert rep.fitted_exponent == pytest.approx(rep.predicted_exponent, abs=0.1)


def test_borderline_surface_log_moment():
    mu = make_family(
        SingularFamily("boundary_surface", (0.0, 0.0, 0.0), critical_exponent(4)), HS3
    )
    rep = orlicz_boundary_check(mu, HS3, beta=0.6, sigmas=np.geomspace(1e-44, 1e-22, 12))
    assert rep.verdict == "consistent"
    assert rep.predicted_exponent == pytest.approx(-1.4)
    assert rep.fitted_exponent == pytest.approx(rep.predicted_exponent, abs=0.1)
    assert rep.fit_band < 0.01


def test_zero_density_log_moment_trivial():
    rep = orlicz_moment_check(zero_measure(), HS2, beta=0.4)
    assert rep.verdict == "consistent"
    assert rep.empirical_constant == 0.0


def test_constant_patch_scales_like_area():
    mu = MeasureSpec(
        boundary_density=lambda pts, off=None: np.full(len(np.atleast_2d(pts)), 0.8),
        support_center=(0.0, 0.0),
        support_radius=1.0,
    )
    rep = orlicz_boundary_check(mu, HS2, beta=0.5, sigmas=np.geomspace(1e-3, 0.2, 10))
    assert rep.verdict == "consistent"
    sig = rep.column("sigma")
    mom = rep.column("moment")
    best = {}
    for s, m in zip(sig, mom):
        best[s] = max(best.get(s, 0.0), m)
    ratios = np.array([best[s] / s for s in sorted(best)])
    expected = 2.0 * 0.8 * math.log(math.e + 0.8) ** 0.5
    assert np.allclose(ratios, expected, rtol=1e-9)


def test_boundary_log_moment_leaves_the_support_center_alone():
    center = np.array([0.3, 0.7])
    mu = MeasureSpec(
        boundary_density=lambda pts, off=None: np.full(len(np.atleast_2d(pts)), 0.8),
        support_center=center,
        support_radius=1.0,
    )
    orlicz_boundary_check(mu, HS2, beta=0.5, sigmas=np.geomspace(1e-3, 0.2, 4))
    assert np.array_equal(center, [0.3, 0.7])


def test_two_argument_densities_are_accepted():
    # no default for the offsets: every caller must pass them
    def half(pts, off):
        return np.full(len(pts), 0.5)

    mu = MeasureSpec(
        interior_density=half,
        interior_mode="d_dx",
        boundary_density=half,
        support_center=(0.0, 0.0),
        support_radius=1.0,
    )
    one = lambda pts: np.ones(len(pts))
    # 0.5 * d over the half unit disk plus 0.5 over the segment [-1, 1]
    assert pairing(mu, HS2, one) == pytest.approx(0.5 * 2.0 / 3.0 + 1.0, rel=1e-6)
    sigmas = np.geomspace(1e-4, 5e-3, 5)
    for part in ("interior", "boundary"):
        rep = power_moment_check(mu, HS2, alpha=1.2, p=1.8, part=part, sigmas=sigmas)
        assert rep.verdict == "consistent"
    # balls clear of the wall up to radius 0.2 take the polar map
    wide = np.append(sigmas, [0.07, 0.2])
    rep = power_moment_check(mu, HS2, alpha=1.2, p=1.8, z_points=[(0.0, 0.5)], sigmas=wide)
    assert rep.verdict == "consistent"
    assert orlicz_moment_check(mu, HS2, beta=0.3, sigmas=sigmas).verdict == "consistent"


def test_whole_space_plain_density_is_its_weighted_twin():
    # no wall, so the weight is 1: a "dx" density equals its "d_dx" twin,
    # and the moment factor d/(d + sigma) is 1 instead of inf/inf
    def bump(pts, off=None):
        return np.maximum(1.0 - np.atleast_2d(pts)[:, 0] ** 2, 0.0) ** 2

    line = WholeSpace(1)
    sigmas = np.geomspace(1e-3, 0.1, 5)
    reports = []
    for mode in ("dx", "d_dx"):
        mu = MeasureSpec(
            interior_density=bump, interior_mode=mode, support_center=(0.0,), support_radius=1.0
        )
        power = power_moment_check(mu, line, alpha=1.5, p=3.0, sigmas=sigmas)
        orlicz = orlicz_moment_check(mu, line, beta=0.3, z_points=[(0.0,)], sigmas=sigmas)
        reports.append((power, orlicz))
    assert reports[0] == reports[1]
    power = reports[0][0]
    assert power.empirical_constant > 0 and power.fitted_exponent > 0.5
    assert all(row[-1] > 0 for row in reports[0][1].samples)


def test_log_moments_without_a_fittable_trend_are_inconclusive():
    # four radii are too few for a trend fit, which must not raise
    sigmas = np.geomspace(1e-3, 0.2, 4)
    mu = make_family(
        SingularFamily("interior_point", (0.0, 1.0), critical_exponent(2)), HS2
    )
    patch = MeasureSpec(
        boundary_density=lambda pts, off=None: np.full(len(np.atleast_2d(pts)), 0.8),
        support_center=(0.0, 0.0),
        support_radius=1.0,
    )
    for rep in (
        orlicz_moment_check(mu, HS2, beta=0.3, sigmas=sigmas),
        orlicz_boundary_check(patch, HS2, beta=0.5, sigmas=sigmas),
    ):
        assert rep.verdict == "inconclusive"
        assert rep.fitted_exponent is None
        assert rep.fit_band is None
        assert len(rep.column("sigma")) > 0


def test_log_moment_exponent_guards(wall_family):
    mu = make_family(
        SingularFamily("boundary_point", (0.0, 0.0), critical_exponent(3)), HS2
    )
    with pytest.raises(ValueError):
        orlicz_moment_check(mu, HS2, beta=1.5)  # at (N+ell)/2 the moment diverges
    with pytest.raises(ValueError):
        orlicz_moment_check(mu, HS2, beta=0.0)
    with pytest.raises(ValueError):
        orlicz_moment_check(wall_family, HS1, beta=0.3)  # p sits off the borderline


# ---------------------------------------------------------------------------
# strip bounds on the interval


def test_midpoint_atom_has_no_strip_mass():
    mu = MeasureSpec(atoms=(((0.5,), 1.0),))
    rep = weighted_strip_bound(mu, IV1, p=3.0, T=0.2, sigmas=np.geomspace(0.002, 0.3, 12))
    assert rep.verdict == "consistent"
    assert rep.empirical_constant == 0.0


def test_boundary_family_strip_ratio_stable(interval_family):
    rep = weighted_strip_bound(
        interval_family, IV1, p=3.0, T=0.2, sigmas=np.geomspace(0.002, 0.3, 12)
    )
    assert rep.verdict == "consistent"
    assert abs(rep.fitted_exponent) < 0.05
    assert rep.empirical_constant == pytest.approx(0.03665, abs=0.002)


def test_strip_rate_matches_prediction(interval_family):
    rep = boundary_strip_rate(
        interval_family, IV1, p=3.0, T=0.2, sigmas=np.geomspace(0.002, 0.3, 12)
    )
    assert rep.verdict == "consistent"
    assert rep.predicted_exponent == pytest.approx(1.0)
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.05)


def test_strip_rate_log_decay_at_p_two():
    mu = scale(make_family(SingularFamily("boundary_point", (0.0,), 2.0), IV1), 0.05)
    rep = boundary_strip_rate(mu, IV1, p=2.0, T=0.2, sigmas=np.geomspace(0.002, 0.3, 12))
    assert rep.verdict == "consistent"
    assert rep.predicted_exponent == pytest.approx(-1.0)
    assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.15)


def test_strip_rate_takes_p_critical_from_the_critical_rule():
    # p = 2 + 1e-12 is critical by measures._is_critical, so make_family
    # builds the log-factor family, and the strip rate fits the log form
    # to it as at p = 2
    p = 2.0 + 1e-12
    mu = scale(make_family(SingularFamily("boundary_point", (0.0,), p), IV1), 0.05)
    rep = boundary_strip_rate(mu, IV1, p=p, T=0.2, sigmas=np.geomspace(0.002, 0.3, 12))
    assert rep.verdict == "consistent"
    assert rep.predicted_exponent == pytest.approx(-1.0)
    assert rep.fitted_exponent == pytest.approx(-1.0, abs=0.15)


def test_strip_guards(interval_family):
    with pytest.raises(ValueError):
        boundary_strip_rate(interval_family, IV1, p=1.5)
    with pytest.raises(ValueError):
        weighted_strip_bound(interval_family, IV1, p=3.0, T=0.2, sigmas=[0.4])
    with pytest.raises(ValueError):
        weighted_strip_bound(interval_family, HS1, p=3.0)


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_deterministic(wall_family, interval_family):
    a = necessary_ball_bound(wall_family, HS1, p=4.0)
    b = necessary_ball_bound(wall_family, HS1, p=4.0)
    assert a == b
    a = weighted_strip_bound(interval_family, IV1, p=3.0, T=0.2)
    b = weighted_strip_bound(interval_family, IV1, p=3.0, T=0.2)
    assert a == b
