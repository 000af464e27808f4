import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mildheat.cutoffs as cutoffs
from mildheat.cutoffs import differential_inequality_bound


# the witnesses of the seeded configs below as the predicate's bisection
# of [0, bound - xi0] found them, before Brent's method proposed the bracket
SEEDED_WITNESSES = (
    1.0889994408138501,
    2.7128160128610546,
    6.046981331824219,
    2.404543628857035,
    15.478483233638748,
    41.703074574438105,
    1.6755886571544323,
    3.5132448147289823,
    3.191453886245193,
    8.176467481143288,
)


def seeded_configs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(0.2, 1.5)
        b = a + rng.uniform(0.4, 2.0)
        alpha = rng.uniform(1.6, 3.5)
        c = rng.uniform(0.6, 4.0)
        amp = rng.uniform(0.0, 2.0)
        freq = rng.uniform(0.5, 3.0)
        yield a, b, (lambda r, A=amp, o=freq: 1.0 + A * math.sin(o * r) ** 2), c, alpha


@contextmanager
def predicate_verdicts():
    """Record each finiteness verdict the witness search makes, {m: finite},
    judged as the predicate judges: the ODE in r reached b with its
    ceiling event below zero."""
    verdicts = {}
    original = cutoffs.solve_ivp

    def recorded(fun, span, y0, **kwargs):
        sol = original(fun, span, y0, **kwargs)
        if "events" in kwargs:
            (m,) = kwargs["args"]
            hit = kwargs["events"]
            verdicts[m] = bool(sol.status == 0 and hit(sol.t[-1], sol.y[:, -1], m) < 0)
        return sol

    with mock.patch.object(cutoffs, "solve_ivp", recorded):
        yield verdicts


def assert_bracket_contract(rep, verdicts, xi0=0.0):
    """witness = lo < hi <= bound - xi0, hi - lo <= 1e-9 hi, and the
    predicate found the ODE finite at lo and not at hi."""
    lo, hi = rep.bracket
    assert rep.witness == lo < hi <= rep.bound - xi0
    assert hi - lo <= 1e-9 * hi
    assert verdicts[lo] is True
    assert verdicts[hi] is False


def closed_form_bound(a, b, w, c, alpha):
    integral = quad(lambda r: w(r) ** -alpha, a, b, epsabs=0, epsrel=1e-13)[0]
    return (c ** alpha / ((alpha - 1.0) * integral)) ** (1.0 / (alpha - 1.0))


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
        for (a, b, w, c, alpha), pinned in zip(seeded_configs(), SEEDED_WITNESSES):
            rep = differential_inequality_bound(a, b, w, c, alpha)
            assert rep.witness <= rep.bound
            assert rep.witness >= 0.999 * rep.bound
            assert rep.bracket[0] <= rep.witness <= rep.bracket[1]
            assert rep.witness == pytest.approx(pinned, rel=1e-9, abs=0)

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
        assert rep.solves == len(calls) <= 16

    @pytest.mark.parametrize("offset", [1e-7, -1e-7, None])
    def test_the_root_only_proposes_the_bracket(self, monkeypatch, offset):
        # a root-finder that misplaces the transition either way, or finds
        # no sign change (None), costs solves but moves neither the
        # witness nor the contract
        a, b, w, c, alpha = next(seeded_configs())

        def misplaced(f, lo, hi, **kwargs):
            if offset is None:
                raise ValueError("f(a) and f(b) must have different signs")
            return SEEDED_WITNESSES[0] * (1.0 + offset)

        monkeypatch.setattr(cutoffs, "brentq", misplaced)
        with predicate_verdicts() as verdicts:
            rep = differential_inequality_bound(a, b, w, c, alpha)
        assert rep.witness == pytest.approx(SEEDED_WITNESSES[0], rel=1e-9, abs=0)
        assert_bracket_contract(rep, verdicts)

    def test_bound_error_follows_the_quadrature_estimate(self, monkeypatch):
        estimates = []
        original = cutoffs.integrate_time

        def recorded(*args, **kwargs):
            estimates.append(original(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(cutoffs, "integrate_time", recorded)
        rep = differential_inequality_bound(0.5, 1.7, lambda r: 1.0 + math.sin(r) ** 2, 2.0, 3.0)
        (result,) = estimates
        assert rep.bound_error == result.error_estimate / (2.0 * result.value)
        assert 0.0 <= rep.bound_error <= 1e-10

    @settings(max_examples=8, deadline=None)
    @given(
        a=st.floats(0.2, 1.5),
        width=st.floats(0.4, 2.0),
        alpha=st.floats(1.1, 4.0),
        c=st.floats(0.6, 4.0),
        amp=st.floats(0.0, 2.0),
        freq=st.floats(0.5, 3.0),
        xi0_fraction=st.floats(0.0, 0.95),
    )
    def test_witness_meets_the_bracket_contract(self, a, width, alpha, c, amp, freq,
                                                xi0_fraction):
        b = a + width
        w = lambda r: 1.0 + amp * math.sin(freq * r) ** 2
        bound = closed_form_bound(a, b, w, c, alpha)
        xi0 = xi0_fraction * bound
        with predicate_verdicts() as verdicts:
            rep = differential_inequality_bound(a, b, w, c, alpha, xi0=xi0)
        assert rep.bound == pytest.approx(bound, rel=1e-10)
        assert rep.bound_error <= 1e-10
        assert_bracket_contract(rep, verdicts, xi0)
        if xi0 <= 0.9 * bound:
            assert rep.witness >= 0.999 * (bound - xi0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            differential_inequality_bound(2.0, 1.0, lambda r: 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            differential_inequality_bound(1.0, 2.0, lambda r: 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            differential_inequality_bound(1.0, 2.0, lambda r: 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            differential_inequality_bound(1.0, 2.0, lambda r: 1.0, 1.0, 2.0, xi0=-1.0)
