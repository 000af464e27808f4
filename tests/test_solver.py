"""Grid construction, the monotone iteration and its cross-checks."""

import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildheat.kernels import (
    _LOG_TAU,
    HalfSpace,
    Interval,
    WholeSpace,
    boundary_distance,
    kernel_values,
    weighted_kernel,
)
from mildheat import quadrature, solver
from mildheat.measures import MeasureSpec, SingularFamily, make_family, scale
from mildheat.solver import (
    DuhamelOperator,
    GridFunction,
    PicardRunner,
    SpaceTimeGrid,
    _hat_transport_matrix,
    _hat_weights,
    _InitialEvaluator,
    _mode_count,
    _sine_basis,
    _sine_interval,
    _transport,
    dichotomy_sweep,
    make_grid,
    measure_grid,
    picard_solve,
    restart_residual,
)
from oracles import (
    dense_hat_transport_matrix,
    dense_initial_evolution,
    dense_sine_matrix,
    dense_sine_part,
    fd_reference_solve,
    gauss_hat_transport_matrix,
    gauss_initial_evolution,
    reference_apply,
)

HS1 = HalfSpace(1)
IV1 = Interval(1.0)


def smooth_bump(center=1.0, width=0.5):
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
    )


ZERO = MeasureSpec()


# ---------------------------------------------------------------------------
# grids


def test_make_grid_shape():
    g = make_grid(HS1, horizon=0.25, anchors=[(1.0,)], target_nodes=300)
    x = g.nodes[:, 0]
    assert x[0] == 0.0  # the wall is a node
    assert np.all(np.diff(x) > 0)
    assert np.all(np.diff(g.times) > 0)
    assert g.times[0] == pytest.approx(0.25e-3)
    assert g.times[-1] == pytest.approx(0.25)
    # geometric grading: consecutive ratios never exceed the declared one
    r = g.times[1:] / g.times[:-1]
    assert np.all(r <= 1.3 + 1e-9)
    # anchors become nodes
    assert np.min(np.abs(x - 1.0)) < 1e-12


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(HS1, horizon=0.0)
    with pytest.raises(NotImplementedError):
        make_grid(HalfSpace(2), horizon=0.1)
    # a first level at or below 0 would append time levels without end
    for fraction in (0.0, -1e-3, 1.0):
        with pytest.raises(ValueError):
            make_grid(HS1, horizon=0.1, first_time_fraction=fraction)
    with pytest.raises(ValueError):
        make_grid(HS1, horizon=0.1, extent=0.0)


@settings(max_examples=20, deadline=None)
@given(
    horizon=st.floats(0.01, 1.0),
    nodes=st.integers(60, 240),
    anchor=st.floats(0.1, 3.0),
)
def test_grid_invariants(horizon, nodes, anchor):
    g = make_grid(HS1, horizon, anchors=[(anchor,)], target_nodes=nodes)
    x = g.nodes[:, 0]
    assert np.all(np.diff(x) > 0) and x[0] == 0.0
    assert g.times.size >= 2
    assert g.times[0] > 0 and abs(g.times[-1] - horizon) < 1e-12 * horizon
    assert np.all(boundary_distance(HS1, g.nodes) >= 0)


def test_spacetime_grid_rejects_bad_inputs():
    nodes = np.linspace(0.0, 2.0, 11)[:, None]
    with pytest.raises(ValueError):
        SpaceTimeGrid(HS1, nodes, [0.2, 0.1], 0.25)  # not increasing
    with pytest.raises(ValueError):
        SpaceTimeGrid(HS1, nodes, [0.1], 0.25)  # single level
    with pytest.raises(ValueError):
        SpaceTimeGrid(HS1, nodes, [0.1, 0.3], 0.25)  # past the horizon
    with pytest.raises(ValueError):
        SpaceTimeGrid(HS1, -nodes[::-1], [0.1, 0.2], 0.25)  # outside domain


def test_grid_function_rejects_bad_fields():
    g = make_grid(HS1, 0.1, target_nodes=60)
    m, n = g.times.size, g.nodes.shape[0]
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros((m, n + 1)))
    with pytest.raises(ValueError):
        GridFunction(g, -np.ones((m, n)))
    bad = np.zeros((m, n))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, bad)
    leak = np.ones((m, n))  # nonzero on the wall node
    with pytest.raises(ValueError):
        GridFunction(g, leak)


def test_weighted_l1_matches_manual_sum():
    g = make_grid(HS1, 0.1, target_nodes=60)
    vals = np.ones((g.times.size, g.nodes.shape[0]))
    vals[:, g.boundary_mask] = 0.0
    f = GridFunction(g, vals)
    manual = float(np.sum(g.node_weights * g.node_boundary_distance * vals[-1]))
    assert f.weighted_l1() == pytest.approx(manual)


# ---------------------------------------------------------------------------
# first iterate


def test_initial_kernel_zero_measure():
    g = make_grid(HS1, 0.1, target_nodes=60)
    u1 = PicardRunner(ZERO, 2.0, g).initial_field()
    assert np.all(u1.values == 0.0)


@pytest.mark.parametrize(
    "domain,a,weight",
    [(HS1, 0.7, 0.7), (IV1, 0.4, 0.4), (WholeSpace(1), 0.7, 1.0)],
    ids=["halfspace", "interval", "wholespace"],
)
def test_initial_kernel_atom_is_exact(domain, a, weight):
    # a unit point mass evolves as the kernel itself, divided by the
    # boundary weight at the atom for the weighted pairing (none on the line);
    # a sine-mode sum is exact to rounding of its largest terms, not down to
    # values of 1e-173, so there the floor is absolute
    mu = MeasureSpec(atoms=(((a,), 1.0),))
    g = make_grid(domain, 0.1, anchors=[(a,)], target_nodes=80)
    u1 = PicardRunner(mu, 2.0, g).initial_field()
    for k, t in enumerate(g.times):
        ref = kernel_values(domain, np.array([a]), g.nodes, float(t)) / weight
        ref[g.boundary_mask] = 0.0
        floor = 1e-14 * np.max(ref) if _mode_count(_sine_interval(g), t) else 1e-300
        assert u1.values[k] == pytest.approx(ref, rel=1e-10, abs=floor)


@pytest.mark.parametrize(
    "domain,mu",
    [
        (IV1, MeasureSpec(atoms=(((0.0,), 1.0), ((1.0,), 0.5)))),
        (IV1, MeasureSpec(atoms=(((0.0,), 1.0), ((0.4,), 2.0), ((1.0,), 0.5)))),
        (HS1, MeasureSpec(atoms=(((0.0,), 1.0),))),
        (IV1, MeasureSpec(boundary_density=lambda pts, off=None: np.full(len(pts), 0.5))),
        (HS1, MeasureSpec(boundary_density=lambda pts, off=None: np.full(len(pts), 0.5))),
    ],
)
def test_initial_kernel_boundary_atoms(domain, mu):
    # boundary mass evolves as the weighted kernel from the wall: the
    # vectorized normal derivative against the scalar kernel at every node
    g = make_grid(domain, 0.1, target_nodes=80)
    u1 = PicardRunner(mu, 2.0, g).initial_field()
    walls = [(0.0,)] + ([(1.0,)] if isinstance(domain, Interval) else [])
    sources = mu.atoms or [(b, 0.5) for b in walls]
    for k in (0, g.times.size // 2, g.times.size - 1):
        t = float(g.times[k])
        ref = np.array(
            [sum(m * weighted_kernel(domain, x, a, t) for a, m in sources) for x in g.nodes]
        )
        floor = 1e-14 * np.max(ref) if _mode_count(_sine_interval(g), t) else 1e-300
        assert u1.values[k] == pytest.approx(ref, rel=1e-12, abs=floor)
    assert np.all(u1.values[:, g.boundary_mask] == 0.0)


EVOLUTION_CASES = {
    "interior-halfspace": (HS1, SingularFamily("interior_point", (0.5,), 4.0)),
    "interior-critical-halfspace": (HS1, SingularFamily("interior_point", (0.5,), 3.0)),
    "interior-interval": (IV1, SingularFamily("interior_point", (0.4,), 5.0)),
    "interior-critical-interval": (IV1, SingularFamily("interior_point", (0.4,), 3.0)),
    "interior-line": (WholeSpace(1), SingularFamily("interior_point", (0.0,), 4.0)),
    "interior-critical-line": (WholeSpace(1), SingularFamily("interior_point", (0.0,), 3.0)),
    "boundary-halfspace": (HS1, SingularFamily("boundary_point", (0.0,), 3.0)),
    "boundary-critical-halfspace": (HS1, SingularFamily("boundary_point", (0.0,), 2.0)),
    "boundary-interval": (IV1, SingularFamily("boundary_point", (0.0,), 3.0)),
    "boundary-critical-interval": (IV1, SingularFamily("boundary_point", (0.0,), 2.0)),
    "boundary-right-interval": (IV1, SingularFamily("boundary_point", (1.0,), 3.0)),
    "bump-halfspace": (HS1, None),
    "bump-interval": (IV1, None),
    "bump-line": (WholeSpace(1), None),
}
_evaluators = {}


def _evaluator(case):
    if case not in _evaluators:
        domain, fam = EVOLUTION_CASES[case]
        mu = smooth_bump(0.5, 0.3) if fam is None else make_family(fam, domain)
        grid = measure_grid(domain, mu, 1.0, target_nodes=100)
        _evaluators[case] = _InitialEvaluator(mu, grid)
    return _evaluators[case]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(EVOLUTION_CASES)), log_t=st.floats(-9.0, 0.0))
def test_evolution_matches_dense_oracle(case, log_t):
    # the reach cut drops no cell that matters: every cell and every image
    # kept give the same field, which is nonnegative and zero on the wall;
    # the sine-mode sum is checked against Gauss-Legendre cells
    ev = _evaluator(case)
    t = 10.0**log_t
    got = ev.at_times([t])[0]
    spectral = _mode_count(ev.sine_interval, t)
    ref = (gauss_initial_evolution if spectral else dense_initial_evolution)(ev, t)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(ref)
    assert np.all(got >= 0.0) and np.all(got[ev._wall_nodes] == 0.0)


BENCHMARK_PROBLEMS = {
    # the first two benchmark workloads: critical data at the wall on the
    # interval, and the dichotomy sweep's data on the half-line
    "w1": (IV1, SingularFamily("boundary_point", (0.0,), 3.0), 0.2,
           {"target_nodes": 560, "first_time_fraction": 1e-5}),
    "w2": (HS1, SingularFamily("interior_point", (1.0,), 4.0), 0.25, {"target_nodes": 80}),
}


def _image_path_problem(case):
    """Evaluator, grid and image-path times (the slivers, then the levels
    below the sine switch) of one of ``BENCHMARK_PROBLEMS``."""
    domain, fam, horizon, options = BENCHMARK_PROBLEMS[case]
    mu = make_family(fam, domain)
    grid = measure_grid(domain, mu, horizon, **options)
    ev = _InitialEvaluator(mu, grid)
    times = np.concatenate([DuhamelOperator(grid).sliver_times, grid.times])
    return ev, grid, times[[_mode_count(ev.sine_interval, t) == 0 for t in times]]


@pytest.mark.parametrize("case", sorted(BENCHMARK_PROBLEMS))
def test_benchmark_evolutions_match_dense_oracle(case):
    # at every image-path time of the two solves.  Next to W1's singular
    # anchor the two images of the wall cancel each other to a field far
    # below the cells' terms, which sum in another order here than in the
    # oracle: they agree to 3e-13 of the sup
    ev, grid, times = _image_path_problem(case)
    assert (grid.nodes.shape[0], times.size) == {"w1": (333, 54), "w2": (142, 54)}[case]
    for t, got in zip(times, ev.at_times(times)):
        ref = dense_initial_evolution(ev, t)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


@pytest.mark.parametrize("case", sorted(BENCHMARK_PROBLEMS))
def test_run_chunks_leave_every_sum_unchanged(monkeypatch, case):
    # a chunk holds whole targets, so its size changes no sum: the data's
    # evolution and the image-path matrices (W1's all banded, W2's banded
    # and whole) are bit for bit the same with one target a chunk and with
    # a few
    ev, grid, times = _image_path_problem(case)
    op = DuhamelOperator(grid)
    taus = [float(tau) for tau in op._ladder[::6] if not _mode_count(op.sine_interval, tau)]

    def sums():
        mats = [_hat_transport_matrix(grid, tau) for tau in taus]
        return ev.at_times(times[::4]), [(a.blocks, a.cols) for a in mats]

    evolution, mats = sums()
    whole = {b.shape[1] == grid.nodes.shape[0] for b, _ in mats}
    assert whole == ({False, True} if case == "w2" else {False})
    for chunk in (1, 700):
        monkeypatch.setattr(solver, "_RUN_CHUNK", chunk)
        chunks = _hat_weights(grid.domain, ev.x, ev._cells[0], float(times[-1]))[2]
        assert len(list(chunks)) > 1
        other, other_mats = sums()
        assert np.array_equal(evolution, other)
        for (b, c), (ob, oc) in zip(mats, other_mats):
            assert np.array_equal(b, ob) and np.array_equal(c, oc)


@pytest.mark.parametrize("domain, span, centers", [
    (HS1, "[0, 3]", (3.0,)),
    (WholeSpace(1), "[-3, 3]", (3.0, -3.0)),
], ids=["half_line", "whole_line"])
def test_density_past_the_end_nodes_is_refused(domain, span, centers):
    # a density on [2.5, 3.5] on a grid ending at 3, and on the whole line
    # one on [-3.5, -2.5] on a grid starting at -3: the cells past the end
    # node were dropped without a flag, which halved the field at that
    # node; on [1.5, 2.5] the same density evolves to the midpoint sum of
    # its kernel
    grid = make_grid(domain, 0.25, extent=3.0)

    def unit(center):
        return MeasureSpec(interior_density=lambda pts, off=None: np.ones(len(pts)),
                           interior_mode="d_dx", support_center=(center,), support_radius=0.5)

    for c in centers:
        past = f"support [{c - 0.5:g}, {c + 0.5:g}] reaches past the nodes {span}"
        with pytest.raises(ValueError, match=re.escape(past)):
            _InitialEvaluator(unit(c), grid)
    y = np.linspace(1.5, 2.5, 20_001)
    mid = np.sum(kernel_values(domain, np.array([3.0]), 0.5 * (y[1:] + y[:-1])[:, None], 0.25))
    u = _InitialEvaluator(unit(2.0), grid).at_times([0.25])[0]
    assert u[-1] == pytest.approx(mid * (y[1] - y[0]), rel=1e-9)


@pytest.mark.parametrize("miss", [1, 2])
def test_unconverged_cell_moments_are_refused(monkeypatch, miss):
    # the cells next to a right-wall anchor take their mass (call 1) and
    # first moment (call 2) from adaptive quadrature: when either misses
    # its tolerance, the cell is refused by name
    mu = make_family(SingularFamily("boundary_point", (1.0,), 2.0), IV1)
    grid = measure_grid(IV1, mu, 1.0, target_nodes=100)
    ev = _InitialEvaluator(mu, grid)
    c0, c1 = (float(c) for c in ev._cells[0][-6:-4])
    real, calls = solver.integrate, []

    def integrate(*args, **kwargs):
        calls.append(None)
        return replace(real(*args, **kwargs), converged=len(calls) != miss)

    monkeypatch.setattr(solver, "integrate", integrate)
    with pytest.raises(ValueError, match=re.escape(f"cell [{c0:.6g}, {c1:.6g}] missed")):
        ev._cell_mass_centroid(c0, c1, False)
    calls.clear()
    with pytest.raises(ValueError, match="missed their tolerance"):
        _InitialEvaluator(mu, grid)


def test_right_wall_cells_integrate_from_the_anchor(monkeypatch):
    # critical boundary_point data at the right wall: the cells next to the
    # anchor cell are integrated in offsets from the anchor; in absolute
    # coordinates near 1 they take about 1.7M evaluations
    evaluations = []
    real = quadrature._adaptive_box

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(quadrature, "_adaptive_box", counted)
    ev = {}
    for z in (0.0, 1.0):
        mu = make_family(SingularFamily("boundary_point", (z,), 2.0), IV1)
        ev[z] = _InitialEvaluator(mu, measure_grid(IV1, mu, 1.0, target_nodes=100))
    assert sum(evaluations) <= 20_000
    # the meshes are stepped from the left, so compare cell by cell: each
    # right-wall cell holds its mirror image's mass, to the rounding of the
    # weight 1 - x next to x = 1 (ulp(1) over offsets of 1e-7)
    edges = ev[1.0]._cells[0]
    for c0, c1 in zip(edges[-6:-1], edges[-5:]):
        right = ev[1.0]._cell_mass_centroid(c0, c1, c1 == 1.0)
        left = ev[0.0]._cell_mass_centroid(1.0 - c1, 1.0 - c0, c1 == 1.0)
        assert right[0] == pytest.approx(left[0], rel=1e-7)
        assert abs((1.0 - right[1]) - left[1]) <= 1e-8 * (c1 - c0)


def test_whole_space_plain_density_evolves_like_its_weighted_twin():
    # the weight is 1 without a wall, so "dx" and "d_dx" are one measure
    line = WholeSpace(1)
    twin = smooth_bump(0.5, 0.3)
    grid = measure_grid(line, twin, 0.1, target_nodes=60)
    fields = [
        PicardRunner(mu, 2.0, grid).initial_field().values
        for mu in (replace(twin, interior_mode="dx"), twin)
    ]
    assert np.array_equal(fields[0], fields[1])
    assert np.max(fields[0]) > 0.1


def test_initial_kernel_density_dense_oracle():
    # midpoint-rule convolution at high resolution over the support
    mu = smooth_bump()
    g = make_grid(HS1, 0.25, anchors=[(1.0,)], target_nodes=400)
    u1 = PicardRunner(mu, 2.0, g).initial_field()
    ys = np.linspace(0.5, 1.5, 20_000, endpoint=False) + 0.5 / 20_000
    dens = mu.interior_density(ys[:, None])
    dy = ys[1] - ys[0]
    sel = np.nonzero(g.interior_mask)[0][::12]
    for k in (0, g.times.size // 2, g.times.size - 1):
        t = float(g.times[k])
        ref = np.array(
            [float(np.sum(kernel_values(HS1, g.nodes[i], ys[:, None], t) * dens)) * dy
             for i in sel]
        )
        err = np.max(np.abs(u1.values[k, sel] - ref)) / np.max(ref)
        assert err < 0.01


# ---------------------------------------------------------------------------
# one iteration step


def test_duhamel_step_zero_iterate_returns_linear_part():
    mu = smooth_bump()
    g = make_grid(HS1, 0.1, anchors=[(1.0,)], target_nodes=120)
    runner = PicardRunner(mu, 2.0, g)
    u1 = runner.initial_field().values
    out = runner.step(np.zeros_like(u1), u1)
    assert out == pytest.approx(u1)


def test_duhamel_step_dominates_linear_part():
    mu = smooth_bump()
    g = make_grid(HS1, 0.1, anchors=[(1.0,)], target_nodes=120)
    runner = PicardRunner(mu, 2.0, g)
    u1 = runner.initial_field().values
    out = runner.step(u1, u1)
    assert np.all(out >= u1 - 1e-15)


def _second_iterate_oracle(a, m, p, x, t, domain):
    # brute-force space-time tensor quadrature of the memory integral;
    # s = q*q flattens the short-time concentration of the inner field
    qs = np.linspace(0.0, math.sqrt(t), 240, endpoint=False)
    qs += qs[1] / 2.0
    ys = np.linspace(0.0, 6.0, 4000, endpoint=False)
    ys += ys[1] / 2.0
    dy = ys[1] - ys[0]
    total = 0.0
    for q in qs:
        s = q * q
        u1y = kernel_values(domain, np.array([a]), ys[:, None], s) * (m / a)
        gy = kernel_values(domain, np.array([x]), ys[:, None], t - s)
        total += 2.0 * q * float(np.sum(gy * u1y**p)) * dy
    total *= qs[1] - qs[0] if qs.size > 1 else 0.0
    lin = float(kernel_values(domain, np.array([a]), np.array([[x]]), t)[0]) * m / a
    return lin + total


def test_second_iterate_matches_tensor_oracle():
    a, m, p = 1.0, 0.1, 2.0
    mu = MeasureSpec(atoms=(((a,), m),))
    g = make_grid(HS1, 0.1, anchors=[(a,)], target_nodes=240)
    runner = PicardRunner(mu, p, g)
    u1 = runner.initial_field().values
    u2 = runner.step(u1, u1)
    k = g.times.size - 1
    t = float(g.times[k])
    idx = np.nonzero(g.interior_mask & (g.nodes[:, 0] < 3.0))[0][::20]
    ref = np.array(
        [_second_iterate_oracle(a, m, p, float(g.nodes[i, 0]), t, HS1) for i in idx]
    )
    err = np.max(np.abs(u2[k, idx] - ref)) / np.max(ref)
    assert err < 0.02


# ---------------------------------------------------------------------------
# the memory integral: reach-cut matrices and the grouped apply


@settings(max_examples=40, deadline=None)
@given(
    domain=st.sampled_from([HS1, IV1, WholeSpace(1)]),
    log_tau=st.floats(-9.0, 0.0),
    nodes=st.integers(20, 120),
    first=st.floats(1e-5, 0.1),
    anchor=st.floats(0.1, 0.9),
)
def test_reach_cut_matrix_matches_dense_oracle(domain, log_tau, nodes, first, anchor):
    tau = 10.0**log_tau
    g = make_grid(domain, 0.25, [(anchor,)], target_nodes=nodes, first_time_fraction=first)
    y = g.nodes[:, 0]
    cut = (_hat_transport_matrix(g, tau) @ np.eye(y.size)).T
    # distance from each target to the support [y_j-1, y_j+1] of each hat
    left = np.concatenate([y[:1], y[:-1]])
    right = np.concatenate([y[1:], y[-1:]])
    dist = np.maximum(np.maximum(left[None, :] - y[:, None], y[:, None] - right[None, :]), 0.0)
    beyond = dist > math.sqrt(4.0 * tau * _LOG_TAU)
    assert np.all(cut[beyond] == 0.0)
    assert np.all(cut >= 0.0)
    dense = dense_hat_transport_matrix(domain, y, y, tau)
    assert np.all(np.abs(cut - dense)[~beyond] <= 1e-15)
    assert np.all(np.abs(cut.sum(axis=1) - dense.sum(axis=1)) <= 1e-15)
    if _mode_count(_sine_interval(g), tau):
        # the mode-space transport of the unit vectors against
        # Gauss-Legendre cells, row by row: near tau = 1 the reference's
        # own image sum cancels to 1e-13
        modes = _transport(g, tau, np.eye(y.size)).T
        ref = gauss_hat_transport_matrix(domain, y, y, tau)
        assert np.all(np.abs(modes - ref) <= 1e-11 * np.max(ref, axis=1, keepdims=True))
        assert np.all(np.abs(modes.sum(axis=1) - ref.sum(axis=1)) <= 1e-11 * ref.sum(axis=1))


def test_sine_basis_memo_keys_on_nodes_and_length():
    # grids A, B (as many nodes, other places), one on Interval(2), A's
    # nodes on Interval(2) and A again: every transport of the unit
    # vectors equals one from an empty memo, which keeps one node set
    iv2 = Interval(2.0)
    a = make_grid(IV1, 0.25, [(0.3,)], target_nodes=60).nodes
    b = make_grid(IV1, 0.25, [(0.7,)], target_nodes=60).nodes
    c = make_grid(iv2, 0.25, [(0.6,)], target_nodes=60).nodes
    assert a.shape == b.shape

    def matrices(domain, nodes):
        taus = [3e-5 * domain.length**2] + list(np.geomspace(1e-4, 0.5, 6) * domain.length**2)
        grid = SpaceTimeGrid(domain, nodes, np.array(taus[-2:]), taus[-1])
        return [_transport(grid, tau, np.eye(nodes.shape[0])) for tau in taus]

    for domain, nodes in ((IV1, a), (IV1, b), (iv2, c), (iv2, a), (IV1, a)):
        got = matrices(domain, nodes)
        assert _sine_basis.cache_info().currsize <= 1
        _sine_basis.cache_clear()
        for one, fresh in zip(got, matrices(domain, nodes)):
            assert np.array_equal(one, fresh)


def test_sine_basis_is_built_once_per_node_set(monkeypatch):
    # the factored apply, the data's evolution and the restart check's
    # mode-space transport on one grid read the nodes' hat projections
    # from one basis
    calls = []
    real = solver._sine_cell_weights

    def counted(edges, length, k):
        calls.append(edges)
        return real(edges, length, k)

    monkeypatch.setattr(solver, "_sine_cell_weights", counted)
    _sine_basis.cache_clear()
    mu = make_family(SingularFamily("boundary_point", (0.0,), 3.0), IV1)
    grid = measure_grid(IV1, mu, 0.2, target_nodes=120, first_time_fraction=1e-5)
    runner = PicardRunner(mu, 3.0, grid)
    runner.step(runner._base, runner._base)
    nt = grid.times.size
    restart_residual(runner.initial_field(), nt - 6, nt - 1, IV1)
    nodes = grid.nodes[:, 0]
    assert sum(1 for e in calls if np.array_equal(e, nodes)) == 1
    tau = float(grid.times[nt - 1] - grid.times[nt - 6])
    assert runner.op._sine and _mode_count(runner.op.sine_interval, tau)


def test_image_sum_skips_images_out_of_reach(monkeypatch):
    # at tau = 1e-6 on the unit interval each target takes the images that
    # come within reach of its own run of cells: x itself, and next to a
    # wall -x or 2 - x as well; its other images are not evaluated
    calls = []
    real = solver._interval_moments

    def counted(pos, edges, t):
        calls.append(pos.size)
        return real(pos, edges, t)

    monkeypatch.setattr(solver, "_interval_moments", counted)
    y = make_grid(IV1, 0.25, [(0.5,)], target_nodes=100).nodes[:, 0]
    tau = 1e-6
    c_lo, c_hi, chunks = _hat_weights(IV1, y, y, tau)
    cells = sum(target.size for _, target, _, _, _ in chunks)
    reach = math.sqrt(4.0 * tau * _LOG_TAU)
    lo, hi = y[c_lo] - reach, y[c_hi + 1] + reach
    shifts = np.array([-2.0, 0.0, 2.0])
    near = [int(np.sum((lo[i] <= u) & (u <= hi[i])))
            for i in range(y.size) for u in [np.concatenate([y[i] + shifts, shifts - y[i]])]]
    runs = c_hi - c_lo + 1
    assert set(near) == {1, 2} and near[0] == near[-1] == 2
    assert cells == np.dot(near, runs) and sum(calls) == np.dot(near, runs + 1)


def _plain_sources(op, u, p, sliver_ratio):
    """The float32 sources u(s)^p in one piece, the powers below float32's
    smallest normal zeroed."""
    j, theta = op._interp
    th = theta[:, None]
    v = np.vstack([(u[0] * sliver_ratio) ** p, ((1.0 - th) * u[j] + th * u[j + 1]) ** p])
    v = v.astype(np.float32)
    v[v < np.finfo(np.float32).tiny] = 0.0
    return v


@pytest.mark.parametrize("domain", [HS1, IV1], ids=["halfspace", "interval"])
def test_grouped_apply_matches_per_entry_loop(domain):
    mu = make_family(SingularFamily("interior_point", (0.4,), 3.0, kappa=0.3), domain)
    grid = make_grid(domain, 0.1, anchors=[(0.4,)], target_nodes=100)
    runner = PicardRunner(mu, 3.0, grid)
    u = runner.initial_field().values
    # a second iterate that decays away from the anchor until its cube is
    # subnormal in float32, then below 1e-40: apply drops those sources
    tail = u * np.exp(-(((grid.nodes[:, 0] - 0.4) / 0.1) ** 2))
    cube = (tail**3).astype(np.float32)
    assert np.any((cube > 0) & (cube < np.finfo(np.float32).tiny))
    assert np.any((tail > 0) & (tail**3 < 1e-40))
    for it in (u, tail):
        got = runner.op.apply(it, 3.0, runner._rat)
        ref = reference_apply(runner.op, it, 3.0, runner._rat)
        assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(ref)
        assert np.array_equal(runner.op._sources(it, 3.0, runner._rat),
                              _plain_sources(runner.op, it, 3.0, runner._rat))


def test_sources_zero_underflowing_bases_before_the_power():
    # W2's grid at kappa = 0.16: many interpolated sources lie below the
    # cut (1/2 float32 tiny)^(1/4), some of them float64 subnormals; the
    # sources equal the plain formula, and an overflowing field still
    # gives non-finite ones
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    grid = measure_grid(HS1, mu, 0.25, target_nodes=80)
    runner = PicardRunner(mu, 4.0, grid)
    u = runner.solve(kappa=0.16, max_iter=6).final.values
    op = runner.op
    j, theta = op._interp
    base = (1.0 - theta[:, None]) * u[j] + theta[:, None] * u[j + 1]
    cut = (0.5 * np.finfo(np.float32).tiny) ** 0.25
    assert np.mean((base > 0) & (base < cut)) > 0.1
    assert np.any((base > 0) & (base < np.finfo(np.float64).tiny))
    assert np.array_equal(op._sources(u, 4.0, runner._rat), _plain_sources(op, u, 4.0, runner._rat))
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(op._sources(1e12 * u, 4.0, runner._rat)))


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0, 8.0])
def test_integral_source_powers_match_pow(p):
    # integral exponents from 2 to 8 take repeated products: every float32
    # source is within one ulp of pow's, and zero exactly where pow's is
    mu, grid = _w2_grid()
    runner = PicardRunner(mu, p, grid)
    u = runner.initial_field(kappa=0.16).values
    got = runner.op._sources(u, p, runner._rat)
    ref = _plain_sources(runner.op, u, p, runner._rat)
    assert np.array_equal(got == 0, ref == 0) and np.any(ref > 0)
    assert np.all(np.abs(got - ref) <= np.spacing(ref))


@pytest.mark.parametrize("case", ["w1", "p2.5"])
def test_sine_part_matches_dense_products_of_the_plan(case):
    # the factored sine part, no reach cut and one clip per level, against
    # the float64 dense sine-series matrices of the same plan entries
    if case == "w1":
        p, mu = 3.0, scale(make_family(SingularFamily("boundary_point", (0.0,), 3.0), IV1), 0.05)
        grid = measure_grid(IV1, mu, 0.2, target_nodes=560, first_time_fraction=1e-5)
    else:
        p = 2.5
        mu = make_family(SingularFamily("boundary_point", (0.0,), p, kappa=0.3), IV1)
        grid = measure_grid(IV1, mu, 0.1, target_nodes=100)
    runner = PicardRunner(mu, p, grid)
    op = runner.op
    u = runner.initial_field().values
    got = op._sine_part(op._sources(u, p, runner._rat))
    ref = dense_sine_part(op, u, p, runner._rat)
    assert op._sine and np.max(ref) > 0 and np.all(got >= 0.0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_overflowing_iterate_reports_overflow():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    grid = make_grid(HS1, 0.25, anchors=[(1.0,)], target_nodes=80)
    out = PicardRunner(mu, p=4.0, grid=grid).solve(kappa=1e12)
    assert (out.status, out.iterations) == ("Diverged", 1)
    assert out.diagnostics == "ceiling exceeded"
    # under the ceiling, an interior sup of 1e6 to the eighth power
    # overflows float32
    runner = PicardRunner(mu, p=8.0, grid=grid)
    kappa = 1e6 / np.max(runner.initial_field(kappa=1.0).values[:, grid.interior_mask])
    u = runner.initial_field(kappa=kappa).values
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(runner.op.apply(u, 8.0, runner._rat)))
    out = runner.solve(kappa=kappa)
    assert (out.status, out.iterations) == ("Diverged", 1)
    assert out.diagnostics == "overflow in the power term"


def _would_be_blocks(y, tau):
    """Entries of ``_TARGET_BLOCK``-row blocks as wide as the widest span
    of kept hats, c_lo .. c_hi + 1 per row, from the reach window."""
    c_lo, c_hi, _ = solver._window(y, y, tau)
    heads = np.arange(0, y.size, solver._TARGET_BLOCK)
    span = np.maximum.reduceat(c_hi + 1, heads) - np.minimum.reduceat(c_lo, heads) + 1
    return heads.size * solver._TARGET_BLOCK * int(np.max(span))


@pytest.mark.parametrize(
    "domain, mu, p, horizon, options",
    [(HS1, make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1), 4.0, 0.25,
      {"target_nodes": 80}),
     (IV1, MeasureSpec(atoms=(((0.4,), 0.1),)), 2.5, 0.25, {"target_nodes": 80}),
     (IV1, make_family(SingularFamily("boundary_point", (0.0,), 3.0), IV1), 3.0, 0.2,
      {"target_nodes": 560, "first_time_fraction": 1e-5})],
    ids=["halfspace", "interval", "w1"],
)
def test_operator_keeps_one_float32_copy_per_matrix(domain, mu, p, horizon, options):
    # only image-sum ladder indices form a matrix, one float32 band each,
    # kept whole exactly when its blocks would hold more than n^2 / 2
    # entries.  On the interval the atom's evolution underflows to 0 far
    # from it, where the factored sine part's rounding falls below 0: its
    # clip keeps the solve with a non-integer power finite and nonnegative
    grid = measure_grid(domain, mu, horizon, **options)
    runner = PicardRunner(mu, p=p, grid=grid)
    out = runner.solve(kappa=0.05)
    assert out.status == "Converged"
    assert np.all(np.isfinite(out.final.values)) and np.all(out.final.values >= 0.0)
    y = grid.nodes[:, 0]
    n = y.size
    op = runner.op
    assert op._sine
    assert not any(_mode_count(op.sine_interval, float(op._ladder[m])) for m in op._mat)

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from arrays(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                yield from arrays(item)
        elif isinstance(obj, solver._Band):
            yield obj.blocks

    mats = op._mat
    assert len(mats) == len(op._groups)  # one per ladder index the plan uses
    for m, a in mats.items():
        assert a.blocks.dtype == np.float32 and a.blocks.flags.c_contiguous
        assert a.blocks.base is None
        assert a.whole == (_would_be_blocks(y, float(op._ladder[m])) > n * n / 2)
    held = [a for v in vars(op).values() for a in arrays(v) if a.size >= n * n]
    assert sorted(map(id, held)) == sorted(id(a.blocks) for a in mats.values() if a.whole)
    stats = op.stats()
    stored = sum(a.size for a in mats.values())
    assert stats["image_matrices"] == len(mats)
    assert stats["stored_mb"] == pytest.approx(4e-6 * stored)
    assert stats["sine_groups"] == len(op._sine)
    assert stats["sine_length"] == op.sine_interval.length
    assert stats["applies"] == out.iterations
    if options.get("first_time_fraction"):
        # W1: its 65 matrices are all banded, in at most 20% of 65 n^2
        assert (len(mats), stats["banded"], held) == (65, 65, [])
        assert stored <= 0.2 * 65 * n * n
    elif isinstance(domain, HalfSpace):
        # W2's grid keeps some of its matrices whole and bands the others;
        # its 23 widest ladder times take the virtual wall's sine modes
        assert stats["banded"] and stats["whole"]
        assert (len(mats), stats["sine_groups"]) == (65, 23)


@settings(max_examples=40, deadline=None)
@given(
    domain=st.sampled_from([HS1, IV1, WholeSpace(1)]),
    log_tau=st.floats(-9.0, 0.0),
    nodes=st.integers(20, 200),
    first=st.floats(1e-5, 0.1),
    anchor=st.floats(0.1, 0.9),
)
def test_band_matches_the_dense_window_fill(domain, log_tau, nodes, first, anchor):
    # the row blocks hold the kept hats of the dense matrix over every cell
    # and image, and zeros elsewhere, where the dense entries are rounding
    # (up to 1e-15 of the matrix max); their products agree with the dense
    # ones to float32 rounding.  The interval's times move below tau_s L^2,
    # where the image sums do not cancel
    tau = 10.0**log_tau
    g = make_grid(domain, 0.25, [(anchor,)], target_nodes=nodes, first_time_fraction=first)
    if _mode_count(_sine_interval(g), tau):
        tau *= 0.99 * solver._SPECTRAL_FROM
    y = g.nodes[:, 0]
    band = _hat_transport_matrix(g, tau)
    filled = (band @ np.eye(y.size)).T
    dense = dense_hat_transport_matrix(domain, y, y, tau)
    c_lo, c_hi, _ = solver._window(y, y, tau)
    j = np.arange(y.size)
    kept = (j >= c_lo[:, None]) & (j <= c_hi[:, None] + 1)
    assert np.all(np.abs(filled - dense)[kept] <= 1e-15 * np.max(dense))
    assert np.all(filled[~kept] == 0.0)
    assert band.whole == (_would_be_blocks(y, tau) > y.size**2 / 2)
    if not band.whole:
        assert band.size <= y.size**2 / 2
    rng = np.random.default_rng(nodes)
    v = rng.random((5, y.size)).astype(np.float32)
    a32, d32 = band.astype(np.float32), dense.astype(np.float32)
    ref = v @ d32.T
    assert np.max(np.abs((a32 @ v) - ref)) <= 1e-6 * np.max(ref)
    assert np.max(np.abs((a32 @ v[0]) - ref[0])) <= 1e-6 * np.max(ref[0])
    assert np.allclose(band @ v[1].astype(float), dense @ v[1].astype(float),
                       rtol=0.0, atol=1e-14 * np.max(dense @ v[1].astype(float)))


def _assert_same_outcome(a, b):
    assert (a.status, a.iterations, a.diagnostics) == (b.status, b.iterations, b.diagnostics)
    assert a.history == b.history
    assert np.array_equal(a.final.values, b.final.values)


@pytest.mark.parametrize("kappa, first, budget, status", [
    (0.16817928305074292, 40, 120, "Diverged"),  # the reference sweep's open probe
    (0.1414213562373095, 10, 30, "Converged"),
])
def test_continued_probe_equals_a_fresh_solve(kappa, first, budget, status):
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    runner = PicardRunner(mu, 4.0, measure_grid(HS1, mu, 0.25, target_nodes=80))
    open_probe = runner.solve(kappa=kappa, max_iter=first)
    assert (open_probe.status, open_probe.iterations) == ("Inconclusive", first)
    continued = runner.solve(kappa=kappa, max_iter=budget, resume=open_probe)
    assert continued.status == status and len(open_probe.history) == first
    _assert_same_outcome(continued, runner.solve(kappa=kappa, max_iter=budget))
    with pytest.raises(ValueError, match="Inconclusive"):
        runner.solve(kappa=kappa, max_iter=2 * budget, resume=continued)


@pytest.fixture(scope="module")
def small_runner():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    return PicardRunner(mu, 4.0, measure_grid(HS1, mu, 0.25, target_nodes=40,
                                              first_time_fraction=1e-2))


@settings(max_examples=12, deadline=None)
@given(kappa=st.floats(0.05, 0.4), first=st.integers(2, 12), more=st.integers(1, 24))
def test_continuing_an_open_solve_is_a_larger_budget(small_runner, kappa, first, more):
    open_probe = small_runner.solve(kappa=kappa, max_iter=first)
    fresh = small_runner.solve(kappa=kappa, max_iter=first + more)
    if open_probe.status != "Inconclusive":
        _assert_same_outcome(open_probe, fresh)
        return
    continued = small_runner.solve(kappa=kappa, max_iter=first + more, resume=open_probe)
    _assert_same_outcome(continued, fresh)


def test_sweep_continues_its_open_probe(monkeypatch):
    # the reference sweep's open probe goes on from iteration 41 instead of
    # repeating its first 40: 4 + 5 + 7 + 15 + 40 + 7 applies
    calls = []
    real = DuhamelOperator.apply

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(DuhamelOperator, "apply", counted)
    r = dichotomy_sweep(
        "interior_point", (1.0,), 4.0, HS1, 0.25, (0.05, 0.2),
        max_bisection=16, solver_options={"max_iter": 40}, target_nodes=80,
    )
    assert [h[1:] for h in r.history[-2:]] == [("Inconclusive", 40), ("Diverged", 47)]
    assert len(calls) == 78


def test_reference_sweep_history_is_pinned():
    # the benchmark's dichotomy sweep: every probe's status and iteration count
    r = dichotomy_sweep(
        "interior_point", (1.0,), 4.0, HS1, 0.25, (0.05, 0.2),
        max_bisection=16, solver_options={"max_iter": 40}, target_nodes=80,
    )
    kappas, statuses, iterations = zip(*r.history)
    assert kappas == pytest.approx(
        [0.05, 0.2, 0.1, 0.1414213562373095, 0.16817928305074292, 0.16817928305074292],
        rel=1e-12,
    )
    assert statuses == ("Converged", "Diverged", "Converged", "Converged",
                        "Inconclusive", "Diverged")
    assert iterations == (4, 5, 7, 15, 40, 47)
    assert (r.kappa_low, r.kappa_high) == pytest.approx(
        (0.1414213562373095, 0.16817928305074292), rel=1e-12
    )
    assert r.grid_id == "halfspace-n142-t28-h0.25"


# ---------------------------------------------------------------------------
# the interval's wide kernels against high-precision sums


def _mp_hat_entry(length, x, nodes, j, tau):
    """Entry (x, j) of the hat transport matrix of the interval [0,
    length], or of the half-line where length is None, at 50 digits:
    every image of the kernel against both halves of hat j, each in
    closed form (erf and exp), on the interval with two images more than
    the reach asks."""
    with mpmath.workdps(50):
        t = mpmath.mpf(tau)
        s = 2 * mpmath.sqrt(t)
        c = 1 / mpmath.sqrt(4 * mpmath.pi * t)
        halves = []
        if j > 0:  # rising half on [y_j-1, y_j]
            halves.append((mpmath.mpf(nodes[j - 1]), mpmath.mpf(nodes[j]), True))
        if j < len(nodes) - 1:  # falling half on [y_j, y_j+1]
            halves.append((mpmath.mpf(nodes[j]), mpmath.mpf(nodes[j + 1]), False))
        if length is None:
            shifts = [0]
        else:
            m = math.ceil((length + math.sqrt(4.0 * tau * _LOG_TAU)) / (2.0 * length)) + 2
            shifts = [2 * k * mpmath.mpf(length) for k in range(-m, m + 1)]
        total = mpmath.mpf(0)
        for shift in shifts:
            for sign, pos in ((1, x - shift), (-1, shift - x)):
                for a, b, rising in halves:
                    za, zb = (a - pos) / s, (b - pos) / s
                    p = (mpmath.erf(zb) - mpmath.erf(za)) / 2
                    m1 = pos * p + 2 * t * c * (mpmath.exp(-za * za) - mpmath.exp(-zb * zb))
                    total += sign * ((m1 - a * p) if rising else (b * p - m1)) / (b - a)
        return float(total)


def test_wide_interval_matrix_entries_match_mpmath():
    # W1's grid, whose narrowest hats (3.5e-5 wide) sit at the walls: the
    # mode-space transport of the unit vectors, whose results are the
    # kernel matrix's columns, in the targets' rows next to both walls and
    # in the middle
    mu = make_family(SingularFamily("boundary_point", (0.0,), 3.0), IV1)
    grid = measure_grid(IV1, mu, 0.2, target_nodes=560, first_time_fraction=1e-5)
    y = grid.nodes[:, 0]
    n = y.size
    width = y[2:] - y[:-2]
    narrow = [1 + int(np.argmin(width[: n // 2])), n // 2 + 1 + int(np.argmin(width[n // 2:]))]
    rows = [1, n // 2, n - 2]
    cols = sorted({1, 2, n // 3, n // 2, 2 * n // 3, n - 3, n - 2, *narrow})
    for tau in (1e-4, 1e-3, 0.02, 0.2):
        a = _transport(grid, tau, np.eye(n)).T
        for i in rows:
            top = np.max(a[i])
            for j in cols:
                ref = _mp_hat_entry(1.0, mpmath.mpf(y[i]), y, j, tau)
                err = abs(a[i, j] - ref)
                assert err <= 1e-14 * top
                if ref > 1e-6 * top:
                    assert err <= 1e-9 * ref


def test_wide_interval_evolution_matches_mpmath():
    # critical boundary_point data, whose cells next to the anchor are 1e-7
    # wide: the field against a 40-digit sine sum over the same three source
    # lists, each projected in closed form
    mu = make_family(SingularFamily("boundary_point", (0.0,), 2.0), IV1)
    ev = _InitialEvaluator(mu, measure_grid(IV1, mu, 1.0, target_nodes=100))
    edges, vL, vR = ev._cells
    with mpmath.workdps(40):
        pi = mpmath.pi
        for t in (0.2, 1.0):
            k_top = math.ceil(math.sqrt(math.log(1e40) / t) / math.pi) + 1
            q = []
            for k in range(1, k_top + 1):
                w = k * pi
                total = mpmath.mpf(0)
                for a, b, l, r in zip(edges[:-1], edges[1:], vL, vR):
                    a, b = mpmath.mpf(a), mpmath.mpf(b)
                    jump = (mpmath.sin(w * b) - mpmath.sin(w * a)) / (w * w * (b - a))
                    total += l * (mpmath.cos(w * a) / w - jump)
                    total += r * (jump - mpmath.cos(w * b) / w)
                for pos, m in ev._points:
                    total += m * mpmath.sin(w * mpmath.mpf(pos[0]))
                for pos, m in ev._walls:
                    total += m * w * (1 if pos[0] == 0.0 else -mpmath.cos(w))
                q.append(total)
            ref = np.array([
                float(2 * sum(
                    mpmath.sin(k * pi * mpmath.mpf(x)) * mpmath.exp(-((k * pi) ** 2) * t) * qk
                    for k, qk in enumerate(q, start=1)
                ))
                for x in ev.x
            ])
            ref[ev._wall_nodes] = 0.0
            assert np.max(np.abs(ev.at_times([t])[0] - ref)) <= 1e-12 * np.max(ref)


def _w2_grid():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    return mu, measure_grid(HS1, mu, 0.25, target_nodes=80)


def test_wide_half_line_matrix_entries_match_mpmath():
    # W2's grid, whose sine interval ends at the virtual wall L = 5 + R(0.25),
    # from the switch tau_s L^2 = 0.0123 to the horizon, the mode-space
    # transport of the unit vectors as the kernel matrix: 40 random entries
    # above 1e-6 of their row max and the 9 wall-corner entries at x, y <=
    # 1.8e-4, where the image path's pair cancels, against the paired
    # half-line images at 50 digits
    _, grid = _w2_grid()
    y = grid.nodes[:, 0]
    sine = _sine_interval(grid)
    assert sine.length == pytest.approx(5.0 + math.sqrt(_LOG_TAU))
    corner = [(i, j) for i in (1, 2) for j in range(3)]  # row 0 is the wall's
    assert y[2] <= 1.8e-4
    rng = np.random.default_rng(10)
    for tau in (solver._SPECTRAL_FROM * sine.length**2, 0.02, 0.05, 0.25):
        assert _mode_count(sine, tau)
        a = _transport(grid, tau, np.eye(y.size)).T
        rows, cols = np.nonzero(a > 1e-6 * np.max(a, axis=1, keepdims=True))
        pick = rng.choice(rows.size, 40, replace=False)
        assert not np.any(a[0])  # the wall row, where the reference is 0 to 50 digits
        for i, j in corner + list(zip(rows[pick], cols[pick])):
            ref = _mp_hat_entry(None, mpmath.mpf(y[i]), y, j, tau)
            assert abs(a[i, j] - ref) <= 1e-9 * ref



@pytest.mark.parametrize("case", ["w1", "w2"])
def test_mode_space_transport_matches_the_dense_sine_matrix(case):
    # the restart check's wide kernels, from the switch tau_s L^2 to the
    # horizon, move three random nonnegative rows in mode space: no reach
    # cut, one clip, and within 1e-14 of each row's max of the products
    # with the dense reach-cut sine matrix
    if case == "w1":
        mu = make_family(SingularFamily("boundary_point", (0.0,), 3.0), IV1)
        grid = measure_grid(IV1, mu, 0.2, target_nodes=560, first_time_fraction=1e-5)
    else:
        _, grid = _w2_grid()
    sine = _sine_interval(grid)
    v = np.random.default_rng(3).random((3, grid.nodes.shape[0]))
    for tau in np.geomspace(solver._SPECTRAL_FROM * sine.length**2, grid.horizon, 5):
        assert _mode_count(sine, tau)
        ref = v @ dense_sine_matrix(grid, tau).T
        got = _transport(grid, tau, v)
        assert np.all(got >= 0.0) and np.all(np.max(ref, axis=1) > 0)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.max(ref, axis=1, keepdims=True))

@pytest.mark.parametrize(
    "case", sorted(c for c in EVOLUTION_CASES if c.endswith("-halfspace")) + ["w2"]
)
def test_wide_half_line_evolution_matches_gauss_oracle(case):
    # from the switch tau_s L^2 to the horizon the half-line's data evolve
    # over the virtual wall's sine modes, within the interval's tolerance
    # of the paired Gauss-Legendre oracle
    if case == "w2":
        mu, grid = _w2_grid()
        ev, horizon = _InitialEvaluator(mu, grid), 0.25
    else:
        ev, horizon = _evaluator(case), 1.0
    sine = ev.sine_interval
    for t in np.geomspace(solver._SPECTRAL_FROM * sine.length**2, horizon, 4):
        assert _mode_count(sine, t)
        ref = gauss_initial_evolution(ev, t)
        assert np.max(np.abs(ev.at_times([t])[0] - ref)) <= 1e-10 * np.max(ref)


def test_sine_interval_of_each_domain():
    # the interval is its own sine interval; the half-line's ends at the
    # virtual wall, R(T) beyond the farthest node or point source; the
    # line has none
    grid = make_grid(IV1, 0.25, target_nodes=60)
    assert _sine_interval(grid) is IV1
    assert _sine_interval(make_grid(WholeSpace(1), 0.25, target_nodes=60)) is None
    grid = make_grid(HS1, 0.25, target_nodes=60, extent=3.0)
    reach = math.sqrt(_LOG_TAU)  # R(0.25)
    assert _sine_interval(grid).length == pytest.approx(3.0 + reach, rel=1e-15)
    far = MeasureSpec(atoms=(((1.0,), 1.0), ((4.0,), 1.0)))
    ev = _InitialEvaluator(far, grid)
    assert ev.sine_interval.length == pytest.approx(4.0 + reach, rel=1e-15)
    # beyond the last node the far atom is still evolved exactly
    t = float(grid.times[-1])
    assert _mode_count(ev.sine_interval, t)
    ref = gauss_initial_evolution(ev, t)
    assert np.max(np.abs(ev.at_times([t])[0] - ref)) <= 1e-10 * np.max(ref)


def test_mixed_times_evaluate_as_single_times():
    # one call over narrow and wide times gives each time's own field: the
    # image sums bit for bit, the mode sums up to the batched product's
    # reordering; wall nodes read exactly 0 and nothing is negative
    mu = make_family(SingularFamily("boundary_point", (0.0,), 2.0), IV1)
    ev = _InitialEvaluator(mu, measure_grid(IV1, mu, 1.0, target_nodes=100))
    ts = np.array([3e-7, 0.2, 1e-5, 1e-4, 5e-5, 1.0, 2e-3, 9.99e-5, 0.03])
    got = ev.at_times(ts)
    for t, row in zip(ts, got):
        alone = ev.at_times([t])[0]
        if _mode_count(ev.sine_interval, t):
            assert np.max(np.abs(row - alone)) <= 1e-14 * np.max(alone)
        else:
            assert np.array_equal(row, alone)
    assert np.all(got[:, ev._wall_nodes] == 0.0) and np.all(got >= 0.0)


# ---------------------------------------------------------------------------
# the full iteration


def test_zero_measure_converges_immediately():
    out = picard_solve(ZERO, 2.0, 0.1, HS1, target_nodes=60)
    assert out.status == "Converged"
    assert out.iterations == 1
    assert np.all(out.final.values == 0.0)


def test_small_scale_converges_with_monotone_history():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    grid = make_grid(HS1, 0.25, anchors=[(1.0,)], target_nodes=200)
    runner = PicardRunner(mu, p=4.0, grid=grid)
    out = runner.solve(kappa=0.05)
    assert out.status == "Converged"
    sups = [h["sup"] for h in out.history]
    assert all(b >= a - 1e-12 for a, b in zip(sups, sups[1:]))
    diffs = [h["sup_diff"] for h in out.history]
    assert diffs[-1] < 1e-7


def test_large_scale_diverges():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    grid = make_grid(HS1, 0.25, anchors=[(1.0,)], target_nodes=200)
    runner = PicardRunner(mu, p=4.0, grid=grid)
    out = runner.solve(kappa=50.0)
    assert out.status == "Diverged"
    assert np.all(np.isfinite(out.final.values))


def test_iteration_budget_reports_inconclusive():
    mu = smooth_bump()
    grid = measure_grid(HS1, mu, 0.1, target_nodes=80)
    out = PicardRunner(mu, 2.0, grid).solve(max_iter=2)
    assert out.status == "Inconclusive"
    assert out.iterations == 2


def test_solver_validation():
    mu = smooth_bump()
    g = make_grid(HS1, 0.1, target_nodes=60)
    with pytest.raises(ValueError):
        PicardRunner(mu, p=1.0, grid=g)
    with pytest.raises(ValueError):
        PicardRunner(mu, 2.0, g).solve(max_iter=1)


def test_picard_solve_raises_what_the_runner_raises():
    # bad input is an error, not an Inconclusive outcome with a zero field
    with pytest.raises(ValueError, match="exponent must exceed 1"):
        picard_solve(smooth_bump(), 1.0, 0.1, HS1, target_nodes=60)
    flat = MeasureSpec(interior_density=lambda pts, off=None: np.ones(len(pts)))
    with pytest.raises(ValueError, match="must vanish at the absorbing boundary"):
        picard_solve(flat, 2.0, 0.1, HS1, target_nodes=60)


@pytest.mark.parametrize("start", [1e-13, 0.0], ids=["inside", "on-wall"])
def test_plain_density_is_refused_only_on_the_wall(start):
    # the data mesh puts an edge on the wall at distance exactly 0, as the
    # measures and the criteria do: a constant plain density whose support
    # starts 1e-13 inside the half-line evolves, one starting on the wall
    # is refused
    flat = MeasureSpec(interior_density=lambda pts, off=None: np.ones(len(pts)),
                       support_center=(0.5 + start,), support_radius=0.5)
    grid = make_grid(HS1, 0.1, target_nodes=60)
    if start == 0.0:
        with pytest.raises(ValueError, match="must vanish at the absorbing boundary"):
            _InitialEvaluator(flat, grid)
        return
    u = _InitialEvaluator(flat, grid).at_times(grid.times)
    assert np.all(np.isfinite(u)) and np.max(u) > 0.5


def test_iterates_are_pointwise_monotone():
    mu = smooth_bump()
    g = make_grid(HS1, 0.1, anchors=[(1.0,)], target_nodes=120)
    runner = PicardRunner(mu, 2.0, g)
    u1 = runner.initial_field().values
    u2 = runner.step(u1, u1)
    u3 = runner.step(u2, u1)
    assert np.all(u2 >= u1 - 1e-12)
    assert np.all(u3 >= u2 - 1e-12)


def test_scale_comparison_is_pointwise():
    # same grid and exponent: the smaller datum stays below at every
    # common iteration count
    g = make_grid(HS1, 0.1, anchors=[(1.0,)], target_nodes=120)
    runner = PicardRunner(smooth_bump(), 2.0, g)
    lo = runner.initial_field(0.4).values
    hi = runner.initial_field(1.0).values
    for _ in range(2):
        lo = runner.step(lo, lo)
        hi = runner.step(hi, hi)
        assert np.all(lo <= hi + 1e-12)


def test_converged_field_vanishes_on_the_wall():
    mu = smooth_bump()
    out = picard_solve(mu, 2.0, 0.1, HS1, target_nodes=120)
    assert out.status == "Converged"
    assert np.all(out.final.values[:, out.final.grid.boundary_mask] == 0.0)


def linear_field(mu, horizon, **grid_options):
    """The data's linear evolution on the measure's own half-line grid."""
    grid = measure_grid(HS1, mu, horizon, **grid_options)
    return PicardRunner(mu, 2.0, grid).initial_field()


def test_heat_only_weighted_mass_dissipates():
    f = linear_field(smooth_bump(), 0.25, target_nodes=300)
    masses = [f.weighted_l1(level=k) for k in range(f.grid.times.size)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(masses, masses[1:]))


# ---------------------------------------------------------------------------
# restart identity


def test_restart_residual_linear_mode():
    f = linear_field(smooth_bump(), 0.25, target_nodes=1600)
    nt = f.grid.times.size
    rep = restart_residual(f, nt - 6, nt - 1, HS1)
    assert rep.max_rel_residual < 1e-4
    assert rep.t_start < rep.t_end


def test_restart_residual_converged_nonlinear():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    grid = make_grid(HS1, 0.25, anchors=[(1.0,)], target_nodes=400)
    runner = PicardRunner(mu, p=4.0, grid=grid)
    out = runner.solve(kappa=0.05)
    assert out.status == "Converged"
    nt = grid.times.size
    rep = restart_residual(out, nt - 6, nt - 1, HS1, p=4.0)
    assert rep.max_rel_residual < 0.05


def test_restart_refuses_diverged_run():
    mu = make_family(SingularFamily("interior_point", (1.0,), 4.0), HS1)
    grid = make_grid(HS1, 0.25, anchors=[(1.0,)], target_nodes=200)
    out = PicardRunner(mu, p=4.0, grid=grid).solve(kappa=50.0)
    assert out.status == "Diverged"
    with pytest.raises(ValueError):
        restart_residual(out, 0, 5, HS1, p=4.0)


def test_restart_rejects_bad_levels():
    f = linear_field(smooth_bump(), 0.1, target_nodes=80)
    with pytest.raises(ValueError):
        restart_residual(f, 5, 5, HS1)
    with pytest.raises(ValueError):
        restart_residual(f, -1, 5, HS1)


def test_restart_checks_the_field_on_its_own_domain():
    # the domain argument must equal the grid's: another domain's kernel
    # would transport the field with the wrong walls
    f = linear_field(smooth_bump(), 0.1, target_nodes=80)
    nt = f.grid.times.size
    with pytest.raises(ValueError):
        restart_residual(f, nt - 6, nt - 1, Interval(50.0))
    rep = restart_residual(f, nt - 6, nt - 1, HalfSpace(1))
    assert rep == restart_residual(f, nt - 6, nt - 1, f.grid.domain)


# ---------------------------------------------------------------------------
# independent marching reference


def test_fd_zero_density():
    zero = MeasureSpec(interior_density=lambda pts, off=None: np.zeros(pts.shape[0]))
    fd = fd_reference_solve(zero, 2.0, 0.1, HS1)
    assert np.all(fd.values == 0.0)


def test_fd_heat_only_refinement_slope():
    mu = smooth_bump()
    ys = np.linspace(0.5, 1.5, 20_000, endpoint=False) + 0.5 / 20_000
    dens = mu.interior_density(ys[:, None])
    dy = ys[1] - ys[0]
    T = 0.1

    def exact(x):
        return float(np.sum(kernel_values(HS1, np.array([x]), ys[:, None], T) * dens)) * dy

    errs = []
    for nx, nt in ((100, 500), (200, 2000), (400, 8000)):
        fd = fd_reference_solve(mu, 2.0, T, HS1, resolution=(nx, nt),
                                nonlinearity=False, extent=8.0)
        xs = fd.grid.nodes[:, 0]
        sel = (xs > 0.2) & (xs < 4.0)
        ref = np.array([exact(x) for x in xs[sel]])
        errs.append(np.max(np.abs(fd.values[-1, sel] - ref)))
    slope = math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
    assert slope[0] == pytest.approx(2.0, abs=0.3)
    assert slope[1] == pytest.approx(2.0, abs=0.3)


def test_fd_matches_picard_on_smooth_data():
    mu = smooth_bump()
    out = picard_solve(mu, 2.0, 0.25, HS1, target_nodes=400)
    assert out.status == "Converged"
    fd = fd_reference_solve(mu, 2.0, 0.25, HS1)
    g = out.final.grid
    j = int(np.argmin(np.abs(g.times - 0.125)))
    jf = int(np.argmin(np.abs(fd.grid.times - g.times[j])))
    # marching levels are dense; the nearest ones sit within half a step
    assert abs(float(fd.grid.times[jf] - g.times[j])) < 0.25 / 40
    ref = np.interp(g.nodes[:, 0], fd.grid.nodes[:, 0], fd.values[jf])
    num = out.final.values[j]
    err = np.max(np.abs(num - ref)) / np.max(ref)
    assert err < 0.03


def test_fd_rejects_unstable_resolution():
    mu = scale(smooth_bump(), 50.0)
    with pytest.raises(ValueError):
        fd_reference_solve(mu, 3.0, 0.1, HS1, resolution=(50, 10))
    with pytest.raises(ValueError):
        fd_reference_solve(smooth_bump(), 2.0, 0.1, HS1, resolution=(5, 4000))


# ---------------------------------------------------------------------------
# singular families end to end


def test_critical_family_mass_reaches_the_solver():
    # two fully independent paths: closed-form radial primitives on the
    # measure side, cell reduction plus transport on the solver side
    from mildheat.measures import ball_mass

    mu = make_family(SingularFamily("interior_point", (0.4,), 3.0, kappa=0.3), IV1)
    grid = make_grid(IV1, 0.05, anchors=[(0.4,)], target_nodes=800)
    runner = PicardRunner(mu, p=3.0, grid=grid)
    u1 = runner.initial_field()
    d = boundary_distance(IV1, grid.nodes)
    wm = float(np.trapezoid(u1.values[0] * d, grid.nodes[:, 0]))
    ref = ball_mass(mu, IV1, (0.4,), 1.0)
    assert wm == pytest.approx(ref, rel=5e-3)


def test_boundary_family_solves_on_interval():
    mu = make_family(SingularFamily("boundary_point", (0.0,), 3.0, kappa=0.2), IV1)
    grid = make_grid(IV1, 0.05, anchors=[(0.0,)], target_nodes=400)
    runner = PicardRunner(mu, p=3.0, grid=grid)
    out = runner.solve()
    assert out.status == "Converged"
    assert np.all(np.isfinite(out.final.values))
    f = out.final
    masses = [f.weighted_l1(level=k) for k in range(0, f.grid.times.size, 5)]
    assert masses[0] > 0
