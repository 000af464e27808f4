"""Config loading, command artifacts and the dichotomy sweep."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from mildheat import cli
from mildheat.cli import (
    build_domain,
    build_measure,
    dichotomy_sweep,  # the solver's sweep, which the benchmark calls by this name
    load_config,
    main,
    run,
    write_csv,
)
from mildheat.kernels import HalfSpace
from mildheat.solver import DichotomyResult, make_grid


def write_ini(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


KERNEL_INI = """
[run]
command = kernel-check
out = {out}
seed = 3

[domain]
kind = halfspace
dim = 1

[kernel]
samples = 8
semigroup_samples = 2
"""


def manifest_events(out_dir, kind):
    rows = []
    for line in (out_dir / "manifest.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["event"] == kind:
            rows.append(rec)
    return rows


# ---------------------------------------------------------------------------
# configuration


def test_load_config_defaults(tmp_path):
    path = write_ini(
        tmp_path / "run.ini",
        "[run]\ncommand = solve\n\n[measure]\nkind = zero\n\n[solve]\np = 2.0\n",
    )
    cfg = load_config(path)
    assert cfg.command == "solve"
    assert cfg.seed == 0
    assert cfg.domain_kind == "halfspace"
    assert cfg.solve["horizon"] == 1.0
    assert cfg.solve["target_nodes"] == 400
    assert cfg.tolerances["max_iter"] == 30
    assert isinstance(build_domain(cfg), HalfSpace)


def test_load_config_collects_all_errors(tmp_path):
    path = write_ini(
        tmp_path / "bad.ini",
        "[run]\ncommand = explode\n\n[measure]\nkind = family\n"
        "family = boundary_point\np = 3.0\nkappa = -1\n\n[solve]\nhorizon = -2\n",
    )
    with pytest.raises(ValueError) as err:
        load_config(path)
    text = str(err.value)
    assert "[run] command" in text
    assert "[measure] kappa" in text
    assert "[solve] horizon" in text


def test_command_and_out_overrides(tmp_path):
    path = write_ini(
        tmp_path / "run.ini",
        "[run]\ncommand = solve\nout = nowhere\n\n[measure]\nkind = zero\n\n"
        "[solve]\np = 2.0\n",
    )
    cfg = load_config(path, command="kernel-check", out=str(tmp_path / "o"))
    assert cfg.command == "kernel-check"
    assert cfg.out == str(tmp_path / "o")


def test_build_measure_variants(tmp_path):
    path = write_ini(
        tmp_path / "run.ini",
        "[run]\ncommand = solve\n\n[measure]\nkind = atoms\n"
        "atoms = 0.5:1.0; 1.5:2.0\n\n[solve]\np = 2.0\n",
    )
    cfg = load_config(path)
    mu = build_measure(cfg, HalfSpace(1))
    assert mu.atoms == (((0.5,), 1.0), ((1.5,), 2.0))

    cfg.measure.update(kind="bump", center=(1.0, 1.0), width=0.5, factor=1.0)
    with pytest.raises(ValueError):
        build_measure(cfg, HalfSpace(1))


def test_write_csv_is_plain_and_stable(tmp_path):
    path = tmp_path / "t.csv"
    n = write_csv(path, ("a", "b"), [(1.0 / 3.0, True), (2, False)])
    assert n == 2
    body = path.read_bytes()
    assert body == b"a,b\n0.33333333333333331,1\n2,0\n"


# ---------------------------------------------------------------------------
# commands end to end


def test_kernel_check_command(tmp_path):
    out = tmp_path / "kc"
    path = write_ini(tmp_path / "k.ini", KERNEL_INI.format(out=out))
    assert run(load_config(path)) == 0
    rows = (out / "kernel_check.csv").read_text().splitlines()
    assert rows[0] == "check,sample,value,threshold,ok"
    assert all(line.endswith(",1") for line in rows[1:])
    assert manifest_events(out, "result")[0]["ok"] is True


def test_kernel_check_rows_fail_on_a_broken_kernel(tmp_path, monkeypatch):
    # symmetry and survival_mass compare two different evaluations, so a
    # kernel 1e-9 off in one direction and a mass 1e-3 off each fail theirs
    values, mass = cli.kernel_values, cli.survival_mass

    def skewed(domain, x, ys, t):
        up = np.asarray(ys, float)[:, 0] > np.asarray(x, float)[0]
        return values(domain, x, ys, t) * np.where(up, 1.0 + 1e-9, 1.0)

    monkeypatch.setattr(cli, "kernel_values", skewed)
    monkeypatch.setattr(cli, "survival_mass", lambda domain, x, t: mass(domain, x, t) + 1e-3)
    out = tmp_path / "kc"
    path = write_ini(tmp_path / "k.ini", KERNEL_INI.format(out=out))
    assert CliRunner().invoke(main, ["--config", path]).exit_code == 1
    rows = [r.split(",") for r in (out / "kernel_check.csv").read_text().splitlines()[1:]]
    failed = {check for check, _, _, _, ok in rows if ok == "0"}
    assert failed == {"symmetry", "survival_mass"}
    assert all(ok == "0" for check, _, _, _, ok in rows if check in failed)
    assert manifest_events(out, "result")[0]["ok"] is False


def test_kernel_check_reports_gaussian_bounds(tmp_path):
    # one two-sided Gaussian estimate row on domains with a boundary
    domains = {
        "halfspace": "kind = halfspace\ndim = 1",
        "interval": "kind = interval\nlength = 1.0",
        "wholespace": "kind = wholespace\ndim = 1",
    }
    for tag, domain in domains.items():
        out = tmp_path / tag
        ini = KERNEL_INI.format(out=out).replace("kind = halfspace\ndim = 1", domain)
        assert run(load_config(write_ini(tmp_path / f"{tag}.ini", ini))) == 0
        rows = (out / "kernel_check.csv").read_text().splitlines()[1:]
        bounds = [r.split(",") for r in rows if r.startswith("gaussian_bounds,")]
        if tag == "wholespace":
            assert bounds == []
            continue
        assert len(bounds) == 1
        _, _, amplitude, threshold, ok = bounds[0]
        assert 1.0 <= float(amplitude) <= float(threshold) == 1e6
        assert ok == "1"


def test_zero_measure_solve_trivial(tmp_path):
    out = tmp_path / "zero"
    path = write_ini(
        tmp_path / "z.ini",
        f"[run]\ncommand = solve\nout = {out}\n\n[measure]\nkind = zero\n\n"
        "[solve]\np = 2.0\nhorizon = 0.5\ntarget_nodes = 160\n",
    )
    assert run(load_config(path)) == 0
    result = manifest_events(out, "result")[0]
    assert result["status"] == "Converged"
    assert (out / "history.csv").exists()
    assert (out / "profile.csv").exists()


def test_whole_space_bump_solve_is_not_zero(tmp_path):
    # a plain density on the line pairs with the weight 1, not with d = inf
    out = tmp_path / "line"
    path = write_ini(
        tmp_path / "l.ini",
        f"[run]\ncommand = solve\nout = {out}\n\n[domain]\nkind = wholespace\ndim = 1\n\n"
        "[measure]\nkind = bump\ncenter = 0.0\nwidth = 0.5\nfactor = 1.0\n\n"
        "[solve]\np = 2.0\nhorizon = 0.25\ntarget_nodes = 80\n",
    )
    assert run(load_config(path)) == 0
    rows = (out / "profile.csv").read_text().splitlines()[1:]
    assert max(float(row.split(",")[-1]) for row in rows) > 0.1
    # the solve's stats: matrices built, banded or whole, no sine groups
    # (the line keeps its images), and one apply per iteration
    (stats,) = manifest_events(out, "stats")
    result = manifest_events(out, "result")[0]
    assert (stats["sine_groups"], stats["sine_length"]) == (0, None)
    assert stats["image_matrices"] == stats["banded"] + stats["whole"] > 0
    assert stats["banded"] > 0 and 0.0 < stats["stored_mb"]
    assert stats["applies"] == result["iterations"]


def test_criteria_command_reports_consistent(tmp_path):
    out = tmp_path / "crit"
    path = write_ini(
        tmp_path / "c.ini",
        f"[run]\ncommand = criteria\nout = {out}\n\n[domain]\nkind = halfspace\n"
        "dim = 1\n\n[measure]\nkind = uniform\n\n[criteria]\n"
        "check = uniform_mass_check\n",
    )
    assert run(load_config(path)) == 0
    result = manifest_events(out, "result")[0]
    assert result["verdict"] == "consistent"
    assert (out / "criteria_uniform_mass_check.csv").exists()


TRACE_INI = (
    "[run]\ncommand = trace\nout = {out}\n\n[domain]\nkind = halfspace\ndim = 1\n\n"
    "[measure]\nkind = bump\ncenter = 1.0\nwidth = 0.5\nfactor = 0.3\n\n"
    "[solve]\np = 2.0\nhorizon = 0.25\ntarget_nodes = 240\n\n"
    "[trace]\ncenters = {centers}\nwidth = 0.6\nlevels = 4\n"
)


def trace_rows(out):
    """The (status, ok) cells of each row of trace.csv."""
    header, *rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()]
    assert header[-2:] == ["status", "ok"]
    return [tuple(row[-2:]) for row in rows]


def test_trace_command_matches_pairings(tmp_path):
    out = tmp_path / "trace"
    path = write_ini(tmp_path / "t.ini", TRACE_INI.format(out=out, centers="1.0"))
    assert run(load_config(path)) == 0
    assert trace_rows(out) == [("ok", "1")]


def test_inconclusive_trace_row_fails(tmp_path):
    # at the edge of the data the extrapolation's error bar exceeds its
    # value: the row fails on its status, not passes on its error bar
    out = tmp_path / "trace"
    path = write_ini(tmp_path / "t.ini", TRACE_INI.format(out=out, centers="1.0; 2.0"))
    assert run(load_config(path)) == 1
    assert trace_rows(out) == [("ok", "1"), ("inconclusive", "0")]
    assert manifest_events(out, "result")[0]["ok"] is False


def test_repeated_runs_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        path = write_ini(tmp_path / f"{tag}.ini", KERNEL_INI.format(out=out))
        assert run(load_config(path)) == 0
        outs.append((out / "kernel_check.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_entry_and_validation_exit_codes(tmp_path):
    runner = CliRunner()
    out = tmp_path / "cli"
    path = write_ini(tmp_path / "k.ini", KERNEL_INI.format(out=out))
    res = runner.invoke(main, ["--config", path])
    assert res.exit_code == 0
    bad = write_ini(
        tmp_path / "bad.ini", "[run]\ncommand = bogus\n\n[measure]\nkind = zero\n"
    )
    res = runner.invoke(main, ["--config", bad])
    assert res.exit_code == 2
    assert "[run] command" in res.output


CRITERIA_INI = """
[run]
command = criteria
out = {out}

[domain]
kind = halfspace
dim = 1

[measure]
kind = uniform

[criteria]
"""

SOLVE_INI = """
[run]
command = {command}
out = {out}

[measure]
kind = family
family = interior_point
anchor = 1.0
p = 4.0

[solve]
p = 4.0
horizon = 0.25
"""

# each invalid config, with every error its listing must name
BAD_CONFIGS = {
    "criteria_typos": (
        CRITERIA_INI + "check = necessary_ball_bound\npp = 3.0\ntee = 0.5\n",
        ["[criteria] pp: unknown key", "[criteria] tee: unknown key"],
    ),
    "solve_typos": (
        SOLVE_INI.format(command="solve", out="{out}")
        + "target_node = 900\n\n[tolerances]\nconv_tl = 1e-9\n",
        ["[solve] target_node: unknown key", "[tolerances] conv_tl: unknown key"],
    ),
    "dichotomy_typo": (
        SOLVE_INI.format(command="dichotomy", out="{out}") + "\n[dichotomy]\nbracket_lo = 0.1\n",
        ["[dichotomy] bracket_lo: unknown key"],
    ),
    "dichotomy_kappa": (
        SOLVE_INI.format(command="dichotomy", out="{out}").replace(
            "p = 4.0\n", "p = 4.0\nkappa = 0.05\n", 1),
        ["[measure] kappa: not read by command = dichotomy, whose sweep chooses it"],
    ),
    "key_of_another_check": (
        CRITERIA_INI + "check = necessary_ball_bound\nalpha = 1.5\n",
        ["[criteria] alpha: not read by check = necessary_ball_bound"],
    ),
    "key_of_another_kind": (
        CRITERIA_INI.replace("kind = uniform", "kind = uniform\nkappa = 2.0")
        + "check = uniform_mass_check\n",
        ["[measure] kappa: not read by kind = uniform"],
    ),
    "fractional_counts": (
        SOLVE_INI.format(command="dichotomy", out="{out}")
        + "target_nodes = 60.9\n\n[dichotomy]\nmax_bisection = 2.5\n",
        ["[solve] target_nodes = 60.9: not a whole number",
         "[dichotomy] max_bisection = 2.5: not a whole number"],
    ),
    "unknown_check": (
        CRITERIA_INI + "check = necessary_ball_bund\n",
        ["[criteria] check = necessary_ball_bund: not a check"],
    ),
    "four_dimensions": (
        CRITERIA_INI.replace("dim = 1", "dim = 4") + "check = uniform_mass_check\n",
        ["[domain] dim = 4: must be 1, 2 or 3"],
    ),
    "strip_check_without_p": (
        CRITERIA_INI + "check = weighted_strip_bound\n[extra]\n",
        ["[criteria] p: required", "[extra]: unknown section"],
    ),
    "grid_settings": (
        CRITERIA_INI + "check = uniform_mass_check\n\n[solve]\nfirst_time_fraction = 0\n"
        "extent = 0\n",
        ["[solve] first_time_fraction = 0: must lie in (0, 1)",
         "[solve] extent = 0: must be positive, finite"],
    ),
}


@pytest.mark.parametrize("name", BAD_CONFIGS)
def test_invalid_configs_exit_2_listing_every_error(tmp_path, name):
    text, expected = BAD_CONFIGS[name]
    out = tmp_path / "out"
    path = write_ini(tmp_path / "bad.ini", text.format(out=out))
    res = CliRunner().invoke(main, ["--config", path])
    assert res.exit_code == 2
    errors = res.output.splitlines()[1:]
    assert sorted(errors) == sorted(expected)
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "trace"])
def test_solve_in_two_dimensions_exits_2(tmp_path, command):
    # grids have one space dimension; the refusal is an error event
    out = tmp_path / "out"
    path = write_ini(
        tmp_path / "plane.ini",
        f"[run]\ncommand = {command}\nout = {out}\n\n[domain]\nkind = halfspace\ndim = 2\n\n"
        "[measure]\nkind = zero\n\n[solve]\np = 2.0\n",
    )
    assert run(load_config(path)) == 2
    (error,) = manifest_events(out, "error")
    assert "one space dimension" in error["message"]


def test_dichotomy_refuses_another_measure_exponent(tmp_path):
    # the sweep solves the family of [solve] p; a different [measure] p
    # would be silently ignored
    out = tmp_path / "out"
    text = SOLVE_INI.format(command="dichotomy", out=out).replace("p = 4.0\n", "p = 3.0\n", 1)
    path = write_ini(
        tmp_path / "d.ini", text + "target_nodes = 60\n\n[dichotomy]\nmax_bisection = 0\n"
    )
    assert run(load_config(path)) == 2
    (error,) = manifest_events(out, "error")
    assert "[measure] p" in error["message"]


def test_criteria_start_event_echoes_resolved_options(tmp_path):
    # the check's options as the run used them, the defaults included
    out = tmp_path / "crit"
    path = write_ini(
        tmp_path / "c.ini",
        CRITERIA_INI.format(out=out) + "check = power_moment_check\np = 4.0\n",
    )
    run(load_config(path))
    config = manifest_events(out, "start")[0]["config"]
    assert config["extra"] == {
        "check": "power_moment_check", "alpha": 1.2, "p": 4.0, "t": 1.0, "part": None,
    }
    assert config["measure"] == {"kind": "uniform", "factor": 1.0}
    assert config["solve"] == config["tolerances"] == {}


# ---------------------------------------------------------------------------
# dichotomy


@pytest.fixture(scope="module")
def reference_sweep():
    return dichotomy_sweep(
        "interior_point",
        (1.0,),
        4.0,
        HalfSpace(1),
        0.25,
        (0.05, 0.2),
        max_bisection=16,
        solver_options={"max_iter": 40},
        target_nodes=320,
    )


def test_sweep_produces_tight_bracket(reference_sweep):
    r = reference_sweep
    assert r.kappa_low < r.kappa_high
    assert r.kappa_high / r.kappa_low < 1.2
    assert r.grid_id.startswith("halfspace-")
    assert len(r.history) >= 3


def test_sweep_history_is_monotone_valid(reference_sweep):
    r = reference_sweep
    final = {}
    for kappa, status, _ in r.history:
        final[kappa] = status  # retries with a larger budget supersede
    for kappa, status in final.items():
        if kappa <= r.kappa_low:
            assert status == "Converged"
        if kappa >= r.kappa_high:
            assert status == "Diverged"


def test_dichotomy_command_uses_the_solve_grid(tmp_path):
    # [solve] extent shapes the grid of the dichotomy sweep as it does
    # the grid of a single solve; the sweep chooses kappa itself
    body = (
        "[domain]\nkind = halfspace\ndim = 1\n\n"
        "[measure]\nkind = family\nfamily = interior_point\nanchor = 1.0\n"
        "p = 4.0\n{kappa}\n"
        "[solve]\np = 4.0\nhorizon = 0.25\ntarget_nodes = 60\nextent = 3.0\n\n"
        "[dichotomy]\nbracket_low = 0.05\nbracket_high = 50.0\nmax_bisection = 0\n"
    )
    ids = {}
    for command, kappa in (("solve", "kappa = 0.05\n"), ("dichotomy", "")):
        out = tmp_path / command
        head = f"[run]\ncommand = {command}\nout = {out}\n\n"
        text = head + body.format(kappa=kappa)
        run(load_config(write_ini(tmp_path / f"{command}.ini", text)))
        ids[command] = manifest_events(out, "result")[0]["grid_id"]
    assert ids["dichotomy"] == ids["solve"]
    narrow = make_grid(HalfSpace(1), 0.25, [(1.0,)], target_nodes=60, extent=3.0)
    wide = make_grid(HalfSpace(1), 0.25, [(1.0,)], target_nodes=60)
    assert narrow.nodes.shape[0] != wide.nodes.shape[0]
    assert f"-n{narrow.nodes.shape[0]}-" in ids["solve"]


def test_sweep_rejects_bad_bracket():
    with pytest.raises(ValueError):
        dichotomy_sweep("interior_point", (1.0,), 4.0, HalfSpace(1), 0.25, (0.0, 0.0))
    with pytest.raises(ValueError):
        dichotomy_sweep("interior_point", (1.0,), 4.0, HalfSpace(1), 0.25, (0.2, 0.05))


def test_dichotomy_result_validates_bracket():
    with pytest.raises(ValueError):
        DichotomyResult(None, 2.0, 1.0, "g", ())
