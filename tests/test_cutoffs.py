import math

import numpy as np
import pytest

import mildheat.cutoffs as cutoffs
from mildheat.cutoffs import (
    BumpJet,
    CutoffParams,
    bump_jet,
    bump_tail,
    bump_value,
    differential_inequality_bound,
    smooth_step,
    smooth_step_derivatives,
    smooth_step_tail,
    verify_derivative_bounds,
)


class TestSmoothStep:
    def test_plateau_and_tail_values_exact(self):
        assert smooth_step(0.5) == 1.0
        assert smooth_step(1.0) == 1.0
        assert smooth_step(2.0) == 0.0
        assert smooth_step(3.0) == 0.0
        assert smooth_step_tail(0.5) == 0.0
        assert smooth_step_tail(0.999999) == 0.0
        assert smooth_step_tail(1.5) == smooth_step(1.5)

    def test_midpoint_symmetry(self):
        # f(2-s) and f(s-1) coincide at s=1.5, so the quotient is exactly half
        assert smooth_step(1.5) == 0.5

    def test_monotone_decreasing(self):
        s = np.linspace(0.0, 2.5, 4001)
        vals = np.array([smooth_step(v) for v in s])
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_derivatives_match_finite_differences(self):
        h = 1e-5
        for s in [1.2, 1.4, 1.5, 1.65, 1.8]:
            val, d1, d2 = smooth_step_derivatives(s)
            assert val == smooth_step(s)
            fd1 = (smooth_step(s + h) - smooth_step(s - h)) / (2 * h)
            assert abs(fd1 - d1) < 1e-6 * max(abs(d1), 1.0)
            g = lambda v: smooth_step_derivatives(v)[1]
            fd2 = (g(s + h) - g(s - h)) / (2 * h)
            assert abs(fd2 - d2) < 1e-5 * max(abs(d2), 1.0)

    def test_derivatives_vanish_off_transition(self):
        for s in [0.0, 0.5, 1.0, 2.0, 5.0]:
            _, d1, d2 = smooth_step_derivatives(s)
            assert d1 == 0.0 and d2 == 0.0

    def test_clamp_region_is_exactly_zero(self):
        # within ~1/700 of s=2 the exponential underflows by design
        val, d1, d2 = smooth_step_derivatives(2.0 - 1e-9)
        assert val == 0.0 and d1 == 0.0 and d2 == 0.0


class TestBump:
    def params(self, scale=1.0, p=2.0, center=(0.3, -0.2)):
        return CutoffParams(scale=scale, exponent=p, center=center)

    def test_plateau_near_center(self):
        pr = self.params()
        assert bump_value(pr, (0.3, -0.2), 0.0) == 1.0
        assert bump_value(pr, (0.4, -0.1), 0.05) == 1.0

    def test_support_is_exact(self):
        pr = self.params(scale=1.0, center=(0.0,))
        # |x|^2 + t >= scale puts the bump at hard zero
        for x, t in [((1.0,), 0.0), ((0.8,), 0.36), ((0.0,), 1.0), ((2.0,), 3.0)]:
            jet = bump_jet(pr, x, t)
            assert jet == BumpJet(0.0, 0.0, (0.0,), 0.0)
            assert bump_value(pr, x, t) == 0.0
            assert bump_tail(pr, x, t) == 0.0

    def test_values_in_unit_interval(self):
        pr = self.params()
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-1.5, 1.5, size=2)
            t = rng.uniform(0.0, 1.5)
            v = bump_value(pr, x, t)
            assert 0.0 <= v <= 1.0
            assert bump_tail(pr, x, t) <= v

    def test_jet_matches_finite_differences(self):
        pr = self.params()
        x = np.array([1.0, 0.2])
        t = 0.1  # bump argument lands mid transition
        jet = bump_jet(pr, x, t)
        assert 0.0 < jet.value < 1.0

        h = 1e-4
        fd_t = (bump_value(pr, x, t + h) - bump_value(pr, x, t - h)) / (2 * h)
        assert abs(fd_t - jet.time_deriv) < 1e-4 * abs(jet.time_deriv)

        lap = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd_g = (bump_value(pr, x + e, t) - bump_value(pr, x - e, t)) / (2 * h)
            assert abs(fd_g - jet.gradient[i]) < 1e-4 * max(abs(jet.gradient[i]), 1e-3)
            gp = bump_jet(pr, x + e, t).gradient[i]
            gm = bump_jet(pr, x - e, t).gradient[i]
            lap += (gp - gm) / (2 * h)
        assert abs(lap - jet.laplacian) < 1e-3 * max(abs(jet.laplacian), 1e-3)

    def test_time_rescaling_invariance(self):
        # bump(x, t; scale) depends only on (|x-z|^2/scale, t/scale)
        base = self.params(scale=1.0, center=(0.0, 0.0))
        big = self.params(scale=9.0, center=(0.0, 0.0))
        for x, t in [((0.5, 0.4), 0.2), ((0.9, 0.0), 0.05)]:
            xs = tuple(3.0 * c for c in x)
            assert bump_value(big, xs, 9.0 * t) == pytest.approx(
                bump_value(base, x, t), rel=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bump_value(self.params(), (1.0,), 0.1)
        with pytest.raises(ValueError):
            bump_value(self.params(), (1.0, 0.0), -0.1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CutoffParams(scale=0.0, exponent=2.0)
        with pytest.raises(ValueError):
            CutoffParams(scale=1.0, exponent=1.0)


class TestDerivativeBounds:
    def test_constants_finite_and_positive(self):
        rep = verify_derivative_bounds(CutoffParams(scale=1.0, exponent=2.0))
        assert 0.0 < rep.time_constant < 1e3
        assert 0.0 < rep.gradient_constant < 1e3
        assert 0.0 < rep.laplacian_constant < 1e4
        assert rep.samples == 80 * 21

    def test_scale_stability(self):
        # the normalized ratios depend only on the step argument, so the
        # fitted constants must agree across scales to high accuracy
        reps = [
            verify_derivative_bounds(CutoffParams(scale=r, exponent=2.0))
            for r in (0.01, 0.1, 1.0)
        ]
        for field in ("time_constant", "gradient_constant", "laplacian_constant"):
            vals = [getattr(rep, field) for rep in reps]
            assert max(vals) <= 1.05 * min(vals)

    def test_larger_exponent_needs_no_larger_constant(self):
        # tail^(1/p) grows with p on (0,1), so the ratios shrink
        c2 = verify_derivative_bounds(CutoffParams(scale=1.0, exponent=2.0))
        c4 = verify_derivative_bounds(CutoffParams(scale=1.0, exponent=4.0))
        assert c4.time_constant <= c2.time_constant
        assert c4.laplacian_constant <= c2.laplacian_constant

    def test_higher_dimension_constants(self):
        # time and gradient ratios carry no dimension factor; the
        # laplacian picks up a small n * first-derivative term that may
        # cancel against the dominant second-derivative one
        c1 = verify_derivative_bounds(CutoffParams(scale=1.0, exponent=2.0), dim=1)
        c3 = verify_derivative_bounds(CutoffParams(scale=1.0, exponent=2.0), dim=3)
        assert c3.time_constant == pytest.approx(c1.time_constant, rel=1e-12)
        assert c3.gradient_constant == pytest.approx(c1.gradient_constant, rel=1e-12)
        assert c3.laplacian_constant == pytest.approx(c1.laplacian_constant, rel=0.1)


class TestInequalityBound:
    def test_unit_weight_closed_form(self):
        rep = differential_inequality_bound(1.0, 2.0, lambda r: 1.0, 1.0, 2.0)
        assert rep.bound == pytest.approx(1.0, rel=1e-10)
        assert rep.witness <= rep.bound
        assert rep.witness == pytest.approx(1.0, rel=1e-4)

    def test_constant_weight_general_parameters(self):
        a, b, c, alpha = 0.5, 1.7, 2.0, 3.0
        rep = differential_inequality_bound(a, b, lambda r: 1.0, c, alpha)
        exact = c ** (alpha / (alpha - 1)) * ((alpha - 1) * (b - a)) ** (
            -1.0 / (alpha - 1)
        )
        assert rep.bound == pytest.approx(exact, rel=1e-10)
        assert rep.witness <= rep.bound
        assert rep.witness == pytest.approx(exact, rel=1e-4)

    def test_initial_value_shifts_witness(self):
        kw = dict(a=1.0, b=2.0, weight_fn=lambda r: 1.0, c_star=1.0, alpha=2.0)
        plain = differential_inequality_bound(**kw)
        shifted = differential_inequality_bound(xi0=0.4, **kw)
        assert shifted.bound == pytest.approx(plain.bound, rel=1e-12)
        assert shifted.witness == pytest.approx(plain.witness - 0.4, abs=2e-4)

    def test_large_initial_value_kills_witness(self):
        rep = differential_inequality_bound(
            1.0, 2.0, lambda r: 1.0, 1.0, 2.0, xi0=5.0
        )
        assert rep.witness == 0.0

    def test_seeded_configs_witness_below_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.uniform(0.2, 1.5)
            b = a + rng.uniform(0.4, 2.0)
            alpha = rng.uniform(1.6, 3.5)
            c = rng.uniform(0.6, 4.0)
            amp = rng.uniform(0.0, 2.0)
            freq = rng.uniform(0.5, 3.0)
            w = lambda r, A=amp, o=freq: 1.0 + A * math.sin(o * r) ** 2
            rep = differential_inequality_bound(a, b, w, c, alpha)
            assert rep.witness <= rep.bound
            assert rep.witness >= 0.999 * rep.bound
            assert rep.bracket[0] <= rep.witness <= rep.bracket[1]

    def test_witness_bisects_from_the_closed_form(self, monkeypatch):
        calls = []
        original = cutoffs.solve_ivp

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cutoffs, "solve_ivp", counted)
        rep = differential_inequality_bound(
            0.5, 1.7, lambda r: 1.0 + math.sin(r) ** 2, 2.0, 3.0, xi0=0.2
        )
        lo, hi = rep.bracket
        assert rep.witness == lo < hi <= rep.bound - 0.2
        assert hi - lo <= 1e-9 * hi
        assert len(calls) <= 40

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            differential_inequality_bound(2.0, 1.0, lambda r: 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            differential_inequality_bound(1.0, 2.0, lambda r: 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            differential_inequality_bound(1.0, 2.0, lambda r: 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            differential_inequality_bound(1.0, 2.0, lambda r: 1.0, 1.0, 2.0, xi0=-1.0)
