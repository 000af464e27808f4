import itertools
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.integrate import solve_ivp as scipy_solve_ivp

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
    judged as the predicate judges: the ODE in r reached b below its
    ceiling.  The predicate is the solve that passes a ceiling."""
    verdicts = {}
    original = cutoffs.solve_ivp

    def recorded(fun, t0, t1, y0, **kwargs):
        sol = original(fun, t0, t1, y0, **kwargs)
        if "ceiling" in kwargs:
            (m,) = kwargs["args"]
            verdicts[m] = bool(sol.status == 0 and sol.y < kwargs["ceiling"])
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


def scipy_reference(fun, t0, t1, y0, *, rtol, atol, args=(), ceiling=math.inf):
    """The stepper's problem through scipy's RK45, with the ceiling as a
    terminal event and the dense output kept."""

    def hit(t, y):
        return y[0] - ceiling

    hit.terminal = True
    return scipy_solve_ivp(lambda t, y: fun(t, y[0], *args), (t0, t1), [y0],
                           events=hit if ceiling < math.inf else None,
                           dense_output=True, rtol=rtol, atol=atol)


def assert_matches_scipy(fun, t0, t1, y0, ceiling=math.inf):
    """Same status as scipy's RK45, and the same end point: at the ceiling
    scipy ends at the crossing, so its last step's interpolant is read at
    the step's end, where the stepper stops."""
    sol = cutoffs.solve_ivp(fun, t0, t1, y0, rtol=1e-10, atol=1e-12, ceiling=ceiling)
    ref = scipy_reference(fun, t0, t1, y0, rtol=1e-10, atol=1e-12, ceiling=ceiling)
    assert sol.status == ref.status
    assert sol.y == pytest.approx(ref.sol(sol.t)[0], rel=1e-9, abs=0)


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

    def test_alpha_near_one_takes_ten_solves(self):
        # the radius in xi sat 5e-8 off the predicate's transition here,
        # which cost 20 solves; in ln(m + xi) it lands within the bracket
        w = lambda r: 1.0 + 0.7 * math.sin(1.3 * r) ** 2
        with predicate_verdicts() as verdicts:
            rep = differential_inequality_bound(0.6, 1.8, w, 2.0, 1.1)
        assert rep.solves <= 10
        assert_bracket_contract(rep, verdicts)

    def test_rhs_evals_sums_the_solves(self, monkeypatch):
        counts = []
        original = cutoffs.solve_ivp

        def counted(*args, **kwargs):
            sol = original(*args, **kwargs)
            counts.append(sol.nfev)
            return sol

        monkeypatch.setattr(cutoffs, "solve_ivp", counted)
        rep = differential_inequality_bound(*next(seeded_configs()))
        assert rep.solves == len(counts)
        assert rep.rhs_evals == sum(counts) > 0

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


class TestStepper:
    """``cutoffs.solve_ivp`` against scipy's RK45 at the witness tolerances."""

    @settings(max_examples=30, deadline=None)
    @given(
        amp=st.floats(-3.0, 3.0),
        omega=st.floats(0.2, 5.0),
        growth=st.floats(-1.0, 1.0),
        wave=st.floats(-2.0, 2.0),
        y0=st.floats(-2.0, 2.0),
        t0=st.floats(-1.0, 1.0),
        length=st.floats(0.01, 3.0),
    )
    def test_smooth_right_hand_sides_match_scipy(self, amp, omega, growth, wave, y0, t0,
                                                 length):
        fun = lambda t, y: amp * math.sin(omega * t) + growth * y + wave * math.cos(y)
        assert_matches_scipy(fun, t0, t0 + length, y0)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.2, 1.5),
        width=st.floats(0.4, 2.0),
        alpha=st.floats(1.1, 4.0),
        c=st.floats(0.6, 4.0),
        amp=st.floats(0.0, 2.0),
        freq=st.floats(0.5, 3.0),
        factor=st.floats(0.5, 1.5),
    )
    def test_witness_slopes_match_scipy(self, a, width, alpha, c, amp, freq, factor):
        # the predicate's slope in r, stopped at a ceiling, on either side
        # of the threshold, and the radius's slope in s = ln(m + xi).  A
        # relative error grows like (m + xi)^(alpha - 1) toward blow-up, so
        # the ceiling stays at 10 m, where that growth is at most about
        # 1e3; the witness's own ceilings, up to 1e60 m, are replayed step
        # for step in test_witness_solves_take_scipys_steps
        b = a + width
        w = lambda r: 1.0 + amp * math.sin(freq * r) ** 2
        m = factor * closed_form_bound(a, b, w, c, alpha)
        ceiling = 10.0 * m
        slope = lambda r, xi: ((m + xi) / (c * w(r))) ** alpha
        assert_matches_scipy(slope, a, b, 0.0, ceiling)
        radius = lambda s, r: (c * w(min(r, b))) ** alpha * math.exp((1.0 - alpha) * s)
        assert_matches_scipy(radius, math.log(m), math.log(m + ceiling), a)

    def test_witness_solves_take_scipys_steps(self, monkeypatch):
        calls = []
        original = cutoffs.solve_ivp

        def recorded(fun, t0, t1, y0, **kwargs):
            calls.append((fun, t0, t1, y0, kwargs, original(fun, t0, t1, y0, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(cutoffs, "solve_ivp", recorded)
        # the first three seeded configs are the benchmark's W4 inputs at seed 0
        for config in itertools.islice(seeded_configs(), 3):
            differential_inequality_bound(*config)
        assert len(calls) == 27
        for fun, t0, t1, y0, kwargs, sol in calls:
            ref = scipy_reference(fun, t0, t1, y0, **kwargs)
            assert (sol.status, sol.nfev) == (ref.status, ref.nfev)

    def test_an_overflowing_stage_reads_as_inf(self):
        # the first trial steps of xi' = (1000 + xi)^4 overflow a stage:
        # numpy's float64 gives inf and a rejected step, where Python's **
        # raises
        fun = lambda r, xi: (1000.0 + xi) ** 4
        sol = cutoffs.solve_ivp(fun, 0.0, 1.0, 0.0, rtol=1e-10, atol=1e-12, ceiling=32.0)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = scipy_reference(fun, 0.0, 1.0, 0.0, rtol=1e-10, atol=1e-12, ceiling=32.0)
        assert (sol.status, sol.nfev) == (ref.status, ref.nfev)

    def test_blow_up_without_a_ceiling_fails_on_both(self):
        # y' = y^2, y(0) = 1 blows up at t = 1: both steppers end when the
        # step falls below 10 ulp(t)
        fun = lambda t, y: y * y
        sol = cutoffs.solve_ivp(fun, 0.0, 2.0, 1.0, rtol=1e-10, atol=1e-12)
        ref = scipy_reference(fun, 0.0, 2.0, 1.0, rtol=1e-10, atol=1e-12)
        assert sol.status == ref.status == -1
        assert 1.0 - 1e-9 < sol.t < 1.0
