"""Config-driven experiment runner.

Commands are described by a flat INI file with one section per concern
(run, domain, measure, solve, tolerances, plus one section named after
the command).  Every run writes a ``manifest.jsonl`` with the full
config echo, library versions and timings, and one or more CSV data
files whose bytes depend only on the config.
"""

import configparser
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import click
import numpy as np
import scipy

from . import __version__
from . import criteria as crit
from .kernels import (
    Domain,
    HalfSpace,
    Interval,
    WholeSpace,
    certify_gaussian_bounds,
    heat_kernel,
    space_dim,
    survival_mass,
    verify_semigroup,
)
from .measures import FAMILIES, MeasureSpec, SingularFamily, make_family, pairing
from .solver import (
    RATIO_TARGET,
    PicardRunner,
    dichotomy_sweep,
    measure_grid,
    restart_residual,
)
from .trace import bump_test_function, recover_trace

SCHEMA_VERSION = 1
COMMANDS = ("kernel-check", "solve", "trace", "criteria", "dichotomy")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    command: str
    out: str
    seed: int
    domain_kind: str
    domain_size: float
    measure: dict
    solve: dict
    tolerances: dict
    extra: dict


_SOLVE_DEFAULTS = {
    "p": None,
    "horizon": 1.0,
    "target_nodes": 400.0,
    "time_ratio": 1.3,
    "first_time_fraction": 1e-3,
    "min_spacing": 1e-4,
    "extent": None,
}

_TOL_DEFAULTS = {
    "conv_tol": 1e-7,
    "blowup_ceiling": 1e8,
    "max_iter": 30.0,
}


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_atoms(text: str) -> tuple:
    atoms = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pos, _, mass = part.rpartition(":")
        atoms.append((_floats(pos), float(mass)))
    return tuple(atoms)


def load_config(path, command: Optional[str] = None, out: Optional[str] = None) -> RunConfig:
    """Parse and validate an INI run description.

    Validation is collective: every violated field is listed in the
    single raised error, not just the first one found.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(path)
    errors = []
    if not read:
        raise ValueError(f"config file {path} is unreadable")

    def get(section, key, cast=str, default=None, required=False):
        if not cp.has_option(section, key):
            if required:
                errors.append(f"[{section}] {key}: required")
            return default
        raw = cp.get(section, key).strip()
        try:
            return cast(raw)
        except (TypeError, ValueError):
            errors.append(f"[{section}] {key}: cannot parse {raw!r}")
            return default

    command = command or get("run", "command", required=True)
    if command is not None and command not in COMMANDS:
        errors.append(f"[run] command: {command!r} not one of {COMMANDS}")
    out = out or get("run", "out", default="runs/out")
    seed = get("run", "seed", int, default=0)

    domain_kind = get("domain", "kind", default="halfspace")
    if domain_kind not in ("halfspace", "interval", "wholespace"):
        errors.append(f"[domain] kind: unknown {domain_kind!r}")
        domain_kind = "halfspace"
    if domain_kind == "interval":
        domain_size = get("domain", "length", float, default=1.0)
        if domain_size is not None and not domain_size > 0:
            errors.append("[domain] length: must be positive")
    else:
        domain_size = get("domain", "dim", float, default=1.0)
        if domain_size is not None and (domain_size < 1 or domain_size != int(domain_size)):
            errors.append("[domain] dim: must be a positive integer")

    measure = {"kind": get("measure", "kind", default="zero")}
    kind = measure["kind"]
    if kind == "family":
        measure["family"] = get("measure", "family", required=True)
        if measure["family"] not in FAMILIES:
            errors.append(f"[measure] family: unknown {measure['family']!r}")
        measure["anchor"] = get("measure", "anchor", _floats, default=(0.0,))
        measure["p"] = get("measure", "p", float, required=True)
        measure["kappa"] = get("measure", "kappa", float, default=1.0)
        if measure["kappa"] is not None and not measure["kappa"] > 0:
            errors.append("[measure] kappa: must be positive")
    elif kind == "atoms":
        measure["atoms"] = get("measure", "atoms", _parse_atoms, required=True)
        if measure["atoms"] is not None and not measure["atoms"]:
            errors.append("[measure] atoms: empty list")
    elif kind == "uniform":
        measure["factor"] = get("measure", "factor", float, default=1.0)
    elif kind == "bump":
        measure["center"] = get("measure", "center", _floats, default=(1.0,))
        measure["width"] = get("measure", "width", float, default=0.5)
        measure["factor"] = get("measure", "factor", float, default=1.0)
        if measure["width"] is not None and not measure["width"] > 0:
            errors.append("[measure] width: must be positive")
    elif kind != "zero":
        errors.append(f"[measure] kind: unknown {kind!r}")

    solve = {}
    for key, dv in _SOLVE_DEFAULTS.items():
        solve[key] = get("solve", key, float, default=dv)
    if solve["p"] is not None and not solve["p"] > 1:
        errors.append("[solve] p: must exceed 1")
    if solve["horizon"] is not None and not solve["horizon"] > 0:
        errors.append("[solve] horizon: must be positive")

    tolerances = {}
    for key, dv in _TOL_DEFAULTS.items():
        tolerances[key] = get("tolerances", key, float, default=dv)
        if tolerances[key] is not None and not tolerances[key] > 0:
            errors.append(f"[tolerances] {key}: must be positive")

    section = {
        "kernel-check": "kernel",
        "solve": "solve",
        "trace": "trace",
        "criteria": "criteria",
        "dichotomy": "dichotomy",
    }.get(command or "", "")
    extra = dict(cp[section]) if section and cp.has_section(section) else {}

    if errors:
        raise ValueError("invalid config:\n" + "\n".join(errors))
    return RunConfig(
        command=command,
        out=str(out),
        seed=int(seed),
        domain_kind=domain_kind,
        domain_size=float(domain_size),
        measure=measure,
        solve=solve,
        tolerances=tolerances,
        extra=extra,
    )


def build_domain(cfg: RunConfig) -> Domain:
    if cfg.domain_kind == "interval":
        return Interval(cfg.domain_size)
    if cfg.domain_kind == "wholespace":
        return WholeSpace(int(cfg.domain_size))
    return HalfSpace(int(cfg.domain_size))


def build_measure(cfg: RunConfig, domain: Domain) -> MeasureSpec:
    spec = cfg.measure
    kind = spec["kind"]
    n = space_dim(domain)
    if kind == "family":
        fam = SingularFamily(spec["family"], spec["anchor"], spec["p"], spec["kappa"])
        return make_family(fam, domain)
    if kind == "atoms":
        return MeasureSpec(atoms=spec["atoms"])
    if kind == "uniform":
        f = float(spec["factor"])
        return MeasureSpec(
            interior_density=lambda pts, off=None: np.full(len(np.atleast_2d(pts)), f)
        )
    if kind == "bump":
        center = np.asarray(spec["center"], float)
        width = float(spec["width"])
        factor = float(spec["factor"])
        if center.size != n:
            raise ValueError("bump center does not match the domain dimension")

        def dens(pts, off=None):
            r = np.linalg.norm(np.atleast_2d(pts) - center, axis=1) / width
            out = np.zeros(r.shape)
            m = r < 1.0
            out[m] = factor * np.exp(-1.0 / (1.0 - r[m] ** 2))
            return out

        return MeasureSpec(
            interior_density=dens,
            support_center=tuple(center),
            support_radius=width,
        )
    return MeasureSpec(
        interior_density=lambda pts, off=None: np.zeros(len(np.atleast_2d(pts)))
    )


# ---------------------------------------------------------------------------
# artifacts


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path: Path, columns, rows) -> int:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return len(lines) - 1


class Manifest:
    """Append-only JSON-lines run record."""

    def __init__(self, path: Path):
        self.path = path
        self._t0 = time.monotonic()
        path.write_text("", encoding="ascii")

    def event(self, kind: str, **payload):
        rec = {"schema_version": SCHEMA_VERSION, "event": kind}
        rec.update(payload)
        with self.path.open("a", encoding="ascii") as fh:
            fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")

    def timing(self, step: str):
        self.event("timing", step=step, seconds=round(time.monotonic() - self._t0, 3))


# ---------------------------------------------------------------------------
# commands


def _draw_point(domain: Domain, rng) -> np.ndarray:
    n = space_dim(domain)
    if isinstance(domain, Interval):
        return np.array([rng.uniform(0.05, 0.95) * domain.length])
    q = rng.uniform(-1.5, 1.5, size=n)
    if isinstance(domain, HalfSpace):
        q[-1] = rng.uniform(0.1, 2.0)
    return q


def _cmd_kernel_check(cfg: RunConfig, domain: Domain, man: Manifest, out_dir: Path) -> int:
    rng = np.random.default_rng(cfg.seed)
    ns = int(float(cfg.extra.get("samples", 50)))
    n_semigroup = int(float(cfg.extra.get("semigroup_samples", 8)))
    sym_tol = float(cfg.extra.get("symmetry_tol", 1e-12))
    semi_tol = float(cfg.extra.get("semigroup_tol", 1e-6))
    weighted_tol = float(cfg.extra.get("weighted_tol", 1e-5))

    rows = []
    triples = []
    for i in range(ns):
        x = _draw_point(domain, rng)
        y = _draw_point(domain, rng)
        t = rng.uniform(0.05, 0.4)
        triples.append((x, y, t))
        g1 = heat_kernel(domain, x, y, t)
        g2 = heat_kernel(domain, y, x, t)
        rel = abs(g1 - g2) / max(g1, g2, 1e-300)
        rows.append(("symmetry", i, rel, sym_tol, rel <= sym_tol))
        if not isinstance(domain, WholeSpace):
            yb = y.copy()
            if isinstance(domain, Interval):
                yb[0] = 0.0 if y[0] < 0.5 * domain.length else domain.length
            else:
                yb[-1] = 0.0
            gb = heat_kernel(domain, x, yb, t)
            rows.append(("boundary_zero", i, gb, 0.0, gb == 0.0))
    if triples and not isinstance(domain, WholeSpace):
        # the symmetry samples against the two-sided Gaussian estimate; the
        # fit stops at the first rate whose amplitude is at most 1e6
        cert = certify_gaussian_bounds(domain, triples, 0.5)
        rows.append(("gaussian_bounds", 0, cert.amplitude, 1e6, cert.amplitude <= 1e6))
    for i in range(n_semigroup):
        x = _draw_point(domain, rng)
        y = _draw_point(domain, rng)
        t, s = rng.uniform(0.05, 0.3, size=2)
        rep = verify_semigroup(domain, x, y, t, s)
        rows.append(("semigroup", i, rep.rel_residual, semi_tol, rep.rel_residual <= semi_tol))
        if not isinstance(domain, WholeSpace):
            rep = verify_semigroup(domain, x, y, t, s, weighted=True)
            rows.append(
                ("weighted_semigroup", i, rep.rel_residual, weighted_tol,
                 rep.rel_residual <= weighted_tol)
            )
    if isinstance(domain, HalfSpace) and domain.dim == 1:
        val = survival_mass(domain, (1.0,), 0.25)
        ref = math.erf(1.0)
        err = abs(val - ref)
        rows.append(("survival_mass", 0, err, 1e-6, err <= 1e-6))

    count = write_csv(out_dir / "kernel_check.csv",
                      ("check", "sample", "value", "threshold", "ok"), rows)
    man.event("artifact", path="kernel_check.csv", rows=count)
    ok = all(r[4] for r in rows)
    man.event("result", ok=ok, checks=len(rows))
    return 0 if ok else 1


def _solve_options(cfg: RunConfig):
    """Grid and solver options of the [solve] and [tolerances] sections,
    shared by every command that solves."""
    sv = cfg.solve
    if sv["p"] is None:
        raise ValueError("[solve] p: required for this command")
    grid_options = dict(
        target_nodes=int(sv["target_nodes"]),
        time_ratio=sv["time_ratio"],
        first_time_fraction=sv["first_time_fraction"],
        min_spacing=sv["min_spacing"],
        extent=sv["extent"],
    )
    solver_options = dict(
        max_iter=int(cfg.tolerances["max_iter"]),
        conv_tol=cfg.tolerances["conv_tol"],
        blowup_ceiling=cfg.tolerances["blowup_ceiling"],
    )
    return grid_options, solver_options


def _solve_measure(cfg: RunConfig, domain: Domain, man: Manifest):
    """The configured measure and its solve on the grid anchored at it."""
    mu = build_measure(cfg, domain)
    grid_options, solver_options = _solve_options(cfg)
    grid = measure_grid(domain, mu, cfg.solve["horizon"], **grid_options)
    outcome = PicardRunner(domain, mu, cfg.solve["p"], grid).solve(**solver_options)
    man.timing("solve")
    return mu, outcome


def _cmd_solve(cfg: RunConfig, domain: Domain, man: Manifest, out_dir: Path) -> int:
    _, outcome = _solve_measure(cfg, domain, man)
    grid = outcome.final.grid

    hist_rows = [
        (h["iteration"], h["sup"], h["weighted_l1"], h["sup_diff"], h["l1_diff"])
        for h in outcome.history
    ]
    count = write_csv(out_dir / "history.csv",
                      ("iteration", "sup", "weighted_l1", "sup_diff", "l1_diff"),
                      hist_rows)
    man.event("artifact", path="history.csv", rows=count)

    nt = grid.times.size
    levels = sorted(set(np.linspace(0, nt - 1, min(nt, 9)).astype(int).tolist()))
    prof_rows = []
    for j in levels:
        t = grid.times[j]
        for k, xq in enumerate(grid.nodes):
            prof_rows.append((t, *xq, outcome.final.values[j, k]))
    xcols = tuple(f"x{i}" for i in range(grid.nodes.shape[1]))
    count = write_csv(out_dir / "profile.csv", ("t",) + xcols + ("u",), prof_rows)
    man.event("artifact", path="profile.csv", rows=count)

    result = {
        "status": outcome.status,
        "iterations": outcome.iterations,
        "grid_id": grid.grid_id(),
        "diagnostics": outcome.diagnostics,
    }
    if outcome.status == "Converged" and nt >= 4:
        rep = restart_residual(outcome.final, nt // 3, 2 * nt // 3, domain, p=cfg.solve["p"])
        result["restart_residual"] = rep.max_rel_residual
    man.event("result", **result)
    return 0 if outcome.status == "Converged" else 1


def _cmd_trace(cfg: RunConfig, domain: Domain, man: Manifest, out_dir: Path) -> int:
    mu, outcome = _solve_measure(cfg, domain, man)
    if outcome.status != "Converged":
        man.event("result", status=outcome.status, detail="no converged field to trace")
        return 1

    centers = cfg.extra.get("centers", "1.0")
    width = float(cfg.extra.get("width", 0.5))
    levels = int(float(cfg.extra.get("levels", 4)))
    rows = []
    ok = True
    for center_text in centers.split(";"):
        center = _floats(center_text)
        psi = bump_test_function(center, width)
        est = recover_trace(outcome.final, psi, range(levels))
        ref = pairing(mu, domain, lambda pts, off=None: psi.fn(np.atleast_2d(pts)))
        gap = abs(est.limit - ref)
        tol = max(0.02 * abs(ref), est.error)
        good = gap <= tol or (ref == 0.0 and gap <= 1e-12)
        ok = ok and good
        rows.append((center[0], width, est.limit, est.error, ref, gap, good))
    count = write_csv(
        out_dir / "trace.csv",
        ("center", "width", "recovered", "error", "reference", "gap", "ok"),
        rows,
    )
    man.event("artifact", path="trace.csv", rows=count)
    man.event("result", ok=ok, measures=len(rows))
    return 0 if ok else 1


def _run_criterion(name: str, mu: MeasureSpec, domain: Domain, opts: dict):
    fget = lambda key, dv=None: float(opts[key]) if key in opts else dv
    T = fget("t", 1.0)
    p = fget("p")
    if name in ("weighted_strip_bound", "boundary_strip_rate") and p is None:
        raise ValueError("[criteria] p: required for strip checks")
    if name == "necessary_ball_bound":
        return crit.necessary_ball_bound(mu, domain, p=p, T=T)
    if name == "necessary_log_bound":
        return crit.necessary_log_bound(mu, domain, opts.get("variant", "interior"), T=T)
    if name == "boundary_mass_check":
        return crit.boundary_mass_check(mu, domain, p=p)
    if name == "uniform_mass_check":
        return crit.uniform_mass_check(mu, domain, radius=fget("radius", 1.0))
    if name == "sufficient_integral_check":
        return crit.sufficient_integral_check(mu, domain, p=p, T=T)
    if name == "power_moment_check":
        return crit.power_moment_check(
            mu, domain, alpha=fget("alpha", 1.2), p=p, T=T, part=opts.get("part")
        )
    if name == "orlicz_moment_check":
        return crit.orlicz_moment_check(mu, domain, beta=fget("beta", 0.5), T=T)
    if name == "orlicz_boundary_check":
        return crit.orlicz_boundary_check(mu, domain, beta=fget("beta", 0.5), T=T)
    if name == "weighted_strip_bound":
        return crit.weighted_strip_bound(mu, domain, p=p, T=T)
    if name == "boundary_strip_rate":
        return crit.boundary_strip_rate(mu, domain, p=p, T=T)
    raise ValueError(f"unknown criterion {name!r}")


def _cmd_criteria(cfg: RunConfig, domain: Domain, man: Manifest, out_dir: Path) -> int:
    name = cfg.extra.get("check")
    if not name:
        raise ValueError("[criteria] check: required")
    mu = build_measure(cfg, domain)
    report = _run_criterion(name, mu, domain, cfg.extra)
    man.timing("criterion")
    count = write_csv(out_dir / f"criteria_{name}.csv", report.columns, report.samples)
    man.event("artifact", path=f"criteria_{name}.csv", rows=count)
    man.event(
        "result",
        criterion=report.criterion,
        verdict=report.verdict,
        fitted_exponent=report.fitted_exponent,
        fit_band=report.fit_band,
        predicted_exponent=report.predicted_exponent,
        empirical_constant=report.empirical_constant,
        detail=report.detail,
        params=dict(report.params),
    )
    return 0


def _cmd_dichotomy(cfg: RunConfig, domain: Domain, man: Manifest, out_dir: Path) -> int:
    spec = cfg.measure
    if spec["kind"] != "family":
        raise ValueError("[measure] kind: dichotomy sweeps a singular family")
    grid_options, solver_options = _solve_options(cfg)
    z = _floats(cfg.extra.get("z", " ".join(map(str, spec["anchor"]))))
    lo = float(cfg.extra.get("bracket_low", 0.5))
    hi = float(cfg.extra.get("bracket_high", 2.0))
    max_bisection = int(float(cfg.extra.get("max_bisection", 24)))
    result = dichotomy_sweep(
        spec["family"],
        z,
        cfg.solve["p"],
        domain,
        cfg.solve["horizon"],
        (lo, hi),
        max_bisection=max_bisection,
        solver_options=solver_options,
        **grid_options,
    )
    man.timing("sweep")
    rows = [(i, k, status, its) for i, (k, status, its) in enumerate(result.history)]
    count = write_csv(out_dir / "dichotomy.csv",
                      ("order", "kappa", "status", "iterations"), rows)
    man.event("artifact", path="dichotomy.csv", rows=count)
    man.event(
        "result",
        kappa_low=result.kappa_low,
        kappa_high=result.kappa_high,
        ratio=result.kappa_high / result.kappa_low,
        grid_id=result.grid_id,
        solves=len(result.history),
    )
    return 0 if result.kappa_high / result.kappa_low < RATIO_TARGET else 1


def run(cfg: RunConfig, verbose: bool = False) -> int:
    """Execute one configured command, writing artifacts under cfg.out."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    man = Manifest(out_dir / "manifest.jsonl")
    man.event(
        "start",
        command=cfg.command,
        config=asdict(cfg),
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "mildheat": __version__,
        },
    )
    domain = build_domain(cfg)
    command = {
        "kernel-check": _cmd_kernel_check,
        "solve": _cmd_solve,
        "trace": _cmd_trace,
        "criteria": _cmd_criteria,
        "dichotomy": _cmd_dichotomy,
    }[cfg.command]
    try:
        code = command(cfg, domain, man, out_dir)
    except ValueError as exc:
        man.event("error", message=str(exc))
        if verbose:
            click.echo(f"error: {exc}", err=True)
        return 2
    man.timing("total")
    man.event("exit", code=code)
    return code


@click.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None, type=click.Path(file_okay=False),
              help="override the output directory")
@click.option("--command", "command_override", default=None,
              type=click.Choice(COMMANDS), help="override the configured command")
@click.option("--verbose", is_flag=True)
def main(config_path, out, command_override, verbose):
    """Run one configured experiment and write its artifacts."""
    try:
        cfg = load_config(config_path, command=command_override, out=out)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        raise SystemExit(2)
    if verbose:
        click.echo(f"{cfg.command} -> {cfg.out}")
    raise SystemExit(run(cfg, verbose=verbose))


if __name__ == "__main__":
    main()
