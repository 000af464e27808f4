import math

import numpy as np
import pytest

import mildheat.cutoffs as cutoffs
from mildheat.cutoffs import differential_inequality_bound


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
