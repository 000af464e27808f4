"""Pairing and extrapolated trace limits."""

import numpy as np
import pytest

from mildheat.kernels import HalfSpace, Interval
from mildheat.measures import MeasureSpec, SingularFamily, make_family
from mildheat.measures import pairing as measure_pairing
from mildheat.solver import (
    GridFunction,
    PicardRunner,
    make_grid,
    picard_solve,
)
from mildheat.trace import (
    TraceEstimate,
    bump_test_function,
    recover_trace,
    trace_pairing,
)

HS1 = HalfSpace(1)
IV1 = Interval(1.0)


def smooth_bump_measure(center=1.0, width=0.5, factor=1.0):
    def dens(pts, off=None):
        r = np.abs(pts[:, 0] - center)
        out = np.zeros(r.shape)
        m = r < width
        out[m] = np.exp(-1.0 / (1.0 - (r[m] / width) ** 2))
        return out

    return MeasureSpec(
        interior_density=dens,
        interior_mode="d_dx",
        support_center=(center,),
        support_radius=width,
        scale_factor=factor,
    )


@pytest.fixture(scope="module")
def smooth_solve():
    mu = smooth_bump_measure()
    out = picard_solve(mu, 2.0, 0.25, HS1, target_nodes=400)
    assert out.status == "Converged"
    return mu, out


def test_pairing_zero_field():
    g = make_grid(HS1, 0.1, target_nodes=60)
    u = GridFunction(g, np.zeros((g.times.size, g.nodes.shape[0])))
    psi = bump_test_function((1.0,), 0.5)
    assert trace_pairing(u, psi, 0) == 0.0


def test_pairing_disjoint_supports(smooth_solve):
    _, out = smooth_solve
    psi = bump_test_function((30.0,), 1.0)
    assert abs(trace_pairing(out.final, psi, 0)) < 1e-12


def test_pairing_is_bilinear(smooth_solve):
    _, out = smooth_solve
    u = out.final
    psi = bump_test_function((1.0,), 0.5)
    two = GridFunction(u.grid, 2.0 * u.values)
    assert trace_pairing(two, psi, 3) == pytest.approx(
        2.0 * trace_pairing(u, psi, 3), rel=1e-12
    )
    half = lambda pts: 0.5 * psi(pts)
    assert trace_pairing(u, half, 3) == pytest.approx(
        0.5 * trace_pairing(u, psi, 3), rel=1e-12
    )


def test_pairing_atom_short_time_limit():
    a, m = (1.2,), 0.7
    mu = MeasureSpec(atoms=((a, m),))
    g = make_grid(HS1, 0.1, anchors=[a], target_nodes=300)
    u1 = PicardRunner(mu, 2.0, g).initial_field()
    psi = bump_test_function((1.0,), 0.8)
    # small but resolvable time: the field must span a few mesh cells
    k = int(np.argmin(np.abs(g.times - 1e-3)))
    got = trace_pairing(u1, psi, k)
    assert got == pytest.approx(m * float(psi(np.array([a]))[0]), rel=0.02)


def test_recover_constant_sequence():
    g = make_grid(HS1, 0.1, target_nodes=80)
    vals = np.ones((g.times.size, g.nodes.shape[0]))
    vals[:, g.boundary_mask] = 0.0
    u = GridFunction(g, vals)
    psi = bump_test_function((1.0,), 0.5)
    est = recover_trace(u, psi, range(6))
    base = trace_pairing(u, psi, 0)
    assert est.limit == pytest.approx(base, rel=1e-9)
    assert est.error <= 1e-9 * abs(base)
    assert est.status == "ok"


def test_recover_trace_matches_measure(smooth_solve):
    mu, out = smooth_solve
    psi = bump_test_function((1.0,), 0.7)
    est = recover_trace(out.final, psi, range(6))
    ref = measure_pairing(mu, HS1, psi)
    assert est.status == "ok"
    assert abs(est.limit - ref) <= max(0.02 * abs(ref), est.error)


def test_recover_trace_validation(smooth_solve):
    _, out = smooth_solve
    psi = bump_test_function((1.0,), 0.5)
    with pytest.raises(ValueError):
        recover_trace(out.final, psi, [0, 1])
    with pytest.raises(ValueError):
        TraceEstimate(np.ones(3), np.ones(3), 1.0, -1.0, "ok")
    with pytest.raises(ValueError):
        bump_test_function((0.0,), 0.0)


def test_two_subsequences_agree(smooth_solve):
    # different decreasing level subsequences give one limit within bars
    _, out = smooth_solve
    psi = bump_test_function((1.0,), 0.7)
    a = recover_trace(out.final, psi, range(0, 10, 2))
    b = recover_trace(out.final, psi, range(1, 11, 2))
    tol = a.error + b.error + 1e-3 * abs(a.limit)
    assert abs(a.limit - b.limit) <= tol


def test_boundary_localized_pairings_shrink():
    # data piling up at the wall still leaves no trace mass on it
    mu = make_family(SingularFamily("boundary_point", (0.0,), 3.0, kappa=0.2), IV1)
    grid = make_grid(IV1, 0.05, anchors=[(0.0,)], target_nodes=300)
    out = PicardRunner(mu, p=3.0, grid=grid).solve()
    assert out.status == "Converged"
    vals = []
    for radius in (0.4, 0.2, 0.1):
        psi = bump_test_function((0.0,), radius)
        vals.append(trace_pairing(out.final, psi, 0))
    assert vals[0] > vals[1] > vals[2] > 0

