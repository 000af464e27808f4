"""Tests of the benchmark itself.  They run full passes, about three minutes in all:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from run import run_pass  # noqa: E402
from tracing import PER_LAYER, Hook, Tracer, installed, layer_hooks, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# counts a traced seed-0 pass must repeat exactly
EXPECTED_COUNTS = {
    "w1_interval_solve": {"solver.matrices_built": 123, "solver.picard_iterations": 4},
    "w2_dichotomy_sweep": {"solver.picard_iterations": 118, "cli.sweep_probes": 6},
    "w3_log_moment_check": {"quadrature.calls": 12, "quadrature.over_budget": 2},
    "w4_cutoff_witness": {"cutoffs.ivp_calls": 186},
}
# a seed other than 0 perturbs the inputs; counts may move this much
OTHER_SEED = 31
SEED_COUNT_TOLERANCE = 0.02
# layers each workload must bypass entirely
BYPASSED = {
    "w1_interval_solve": ("quadrature.calls",),
    "w2_dichotomy_sweep": ("quadrature.calls",),
    "w3_log_moment_check": ("solver.evolve_calls", "solver.matrices_built",
                            "solver.apply_calls", "solver.solves"),
    "w4_cutoff_witness": ("solver.evolve_calls", "solver.matrices_built",
                          "solver.apply_calls", "solver.solves"),
}
# layers that must account for at least 90% of a traced pass
MAIN_LAYERS = {
    "w1_interval_solve": ("solver.evolve_s", "solver.assemble_s", "solver.apply_s"),
    "w2_dichotomy_sweep": ("solver.evolve_s", "solver.assemble_s", "solver.apply_s",
                           "solver.picard_s", "cli.sweep_s"),
    "w3_log_moment_check": ("quadrature.box_s", "criteria.check_s"),
    "w4_cutoff_witness": ("cutoffs.ivp_s", "cutoffs.witness_s", "quadrature.box_s"),
}
COUNT_METRICS = [k for k, spec in PER_LAYER.items() if spec[0] == "count"]


def _targets():
    """Current objects behind every hook target, by hook name."""
    out = {}
    for hook in layer_hooks(Tracer()) + [tracing.setup_hook(tracing.SetupClock())]:
        owner, attr = tracing._owner(hook.module, hook.path)
        out[hook.name] = vars(owner)[attr]
    return out


def _traced(name, seed=0):
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    before = _targets()
    p = run_pass(workload, inputs, traced=True)
    after = _targets()
    assert all(after[k] is before[k] for k in before), "a hook was not restored"
    assert not p.missing
    assert workload.check(inputs, p.result) == []
    metrics, notes = layer_metrics(p.tracer, p.missing, p.wall, 0.0)
    assert notes == []
    assert metrics["solver.matrix_mb"]["unit"] == "MB-computed"
    assert metrics["solver.apply_gflop"]["unit"] == "GFLOP-computed"
    return p, metrics


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def two_passes(request):
    return request.param, _traced(request.param), _traced(request.param)


def test_counts_repeat_exactly(two_passes):
    name, (_, first), (_, second) = two_passes
    for key in COUNT_METRICS:
        assert first[key]["value"] == second[key]["value"], key
    for key, value in EXPECTED_COUNTS[name].items():
        assert first[key]["value"] == value, key


def test_other_seed_does_the_same_work(two_passes):
    name, (_, base), _ = two_passes
    other = _traced(name, OTHER_SEED)[1]
    for key in EXPECTED_COUNTS[name]:
        assert other[key]["value"] == base[key]["value"], key
    for key in COUNT_METRICS:
        assert other[key]["value"] == pytest.approx(base[key]["value"],
                                                    rel=SEED_COUNT_TOLERANCE), key


def test_bypassed_layers_read_zero(two_passes):
    name, (_, metrics), _ = two_passes
    for key in BYPASSED[name]:
        assert metrics[key]["value"] == 0, key


def test_wall_splits_into_layer_self_times(two_passes):
    name, (p, m), _ = two_passes
    assert 0 <= m["trace.unattributed_s"]["value"] <= 0.05 * p.wall
    main = sum(m[k]["value"] for k in MAIN_LAYERS[name])
    assert main >= 0.9 * p.wall, (main, p.wall)


def test_missing_target_reads_null_and_original_is_restored():
    import mildheat.cutoffs as cutoffs

    tr = Tracer()
    hooks = layer_hooks(tr)
    hooks = [h if h.name != "ivp" else Hook("ivp", h.module, "renamed_solve_ivp", h.make)
             for h in hooks]
    original = cutoffs.differential_inequality_bound
    with installed(hooks) as missing:
        assert cutoffs.differential_inequality_bound is not original
        rep = cutoffs.differential_inequality_bound(1.0, 2.0, lambda r: 1.0, 1.0, 2.0)
    assert cutoffs.differential_inequality_bound is original
    assert rep.witness <= rep.bound
    metrics, notes = layer_metrics(tr, missing, 1.0, 0.0)
    assert metrics["cutoffs.ivp_calls"]["value"] is None
    assert metrics["cutoffs.ivp_s"]["value"] is None
    assert any("renamed_solve_ivp" in n for n in notes)
    assert metrics["cutoffs.witness_s"]["value"] > 0
    assert math.isfinite(metrics["cutoffs.time_quad_evals"]["value"])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for m in spec["per_layer"]:
        unit, better, _, _ = PER_LAYER[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "w4_cutoff_witness", "--seed", "0", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
