"""Config-driven experiment runner.

Commands are described by a flat INI file with one section per concern
(run, domain, measure, solve, tolerances, plus the command's own: kernel
for kernel-check, trace, criteria or dichotomy).  ``OPTIONS`` is the
reference for the config keys; unknown sections and keys are errors.
Every run writes a ``manifest.jsonl`` with the full config echo, defaults
included, library versions and timings, and one or more CSV data files
whose bytes depend only on the config.
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
    _project_boundary,
    _reach,
    certify_gaussian_bounds,
    kernel_values,
    space_dim,
    survival_mass,
    verify_semigroup,
    walls,
)
from .measures import FAMILIES, MeasureSpec, SingularFamily, make_family, pairing
from .quadrature import HalfSpaceBox, integrate
from .solver import (
    RATIO_TARGET,
    PicardRunner,
    dichotomy_sweep,
    measure_grid,
    restart_residual,
)
from .trace import bump_test_function, recover_trace

SCHEMA_VERSION = 1

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


def _floats(text: str) -> tuple:
    values = tuple(float(v) for v in text.replace(",", " ").split())
    if not values:
        raise ValueError("no numbers")
    return values


def _count(text: str) -> int:
    value = float(text)
    if not (value.is_integer() and value >= 0):
        raise ValueError("not a whole number")
    return int(value)


def _parse_atoms(text: str) -> tuple:
    parts = [part.rpartition(":") for part in text.split(";") if part.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple((_floats(pos), float(mass)) for pos, _, mass in parts)


def _points(text: str) -> tuple:
    return tuple(_floats(part) for part in text.split(";"))


REQUIRED = "required"
_POSITIVE = (lambda v: v > 0, "must be positive")
_FINITE = (lambda v: 0 < v < math.inf, "must be positive, finite")

# every config key: its parser, its default or REQUIRED, and None or the
# (condition, message) its value must meet.  A REQUIRED key must be given
# in each section the command reads.
OPTIONS = {
    ("run", "command"): (str, REQUIRED, (lambda v: v in COMMANDS, "unknown command")),
    ("run", "out"): (str, "runs/out", None),
    ("run", "seed"): (_count, 0, None),
    ("domain", "kind"): (str, "halfspace", (lambda v: ("domain", v) in CHOICES, "not a kind")),
    ("domain", "length"): (float, 1.0, _FINITE),
    ("domain", "dim"): (_count, 1, (lambda v: v in (1, 2, 3), "must be 1, 2 or 3")),
    ("measure", "kind"): (str, "zero", (lambda v: ("measure", v) in CHOICES, "not a kind")),
    ("measure", "family"): (str, REQUIRED, (lambda v: v in FAMILIES, "unknown family")),
    ("measure", "anchor"): (_floats, (0.0,), None),
    ("measure", "p"): (float, REQUIRED, None),
    ("measure", "kappa"): (float, 1.0, _POSITIVE),
    ("measure", "atoms"): (_parse_atoms, REQUIRED, None),
    ("measure", "factor"): (float, 1.0, None),
    ("measure", "center"): (_floats, (1.0,), None),
    ("measure", "width"): (float, 0.5, _POSITIVE),
    ("solve", "p"): (float, REQUIRED, (lambda v: v > 1, "must exceed 1")),
    ("solve", "horizon"): (float, 1.0, _POSITIVE),
    ("solve", "target_nodes"): (_count, 400, None),
    ("solve", "first_time_fraction"): (float, 1e-3, (lambda v: 0 < v < 1, "must lie in (0, 1)")),
    ("solve", "extent"): (float, None, _FINITE),
    ("tolerances", "max_iter"): (_count, 30, _POSITIVE),
    ("kernel", "samples"): (_count, 50, None),
    ("kernel", "semigroup_samples"): (_count, 8, None),
    ("trace", "centers"): (_points, ((1.0,),), None),
    ("trace", "width"): (float, 0.5, None),
    ("trace", "levels"): (_count, 4, None),
    ("criteria", "check"): (str, REQUIRED, (lambda v: ("criteria", v) in CHOICES, "not a check")),
    ("criteria", "t"): (float, 1.0, None),
    ("criteria", "p"): (float, None, None),
    ("criteria", "variant"): (str, "interior", None),
    ("criteria", "radius"): (float, 1.0, None),
    ("criteria", "alpha"): (float, 1.2, None),
    ("criteria", "part"): (str, None, None),
    ("criteria", "beta"): (float, 0.5, None),
    ("dichotomy", "bracket_low"): (float, 0.5, None),
    ("dichotomy", "bracket_high"): (float, 2.0, None),
    ("dichotomy", "max_bisection"): (_count, 24, None),
}
SECTIONS = tuple(dict.fromkeys(section for section, _ in OPTIONS))

# the keys each [domain] kind, [measure] kind and [criteria] check reads,
# besides the selecting key itself; ("p", REQUIRED) makes p required for
# that check alone.  A check calls the function of its name in criteria.
SELECTORS = {"domain": "kind", "measure": "kind", "criteria": "check"}
CHOICES = {
    ("domain", "halfspace"): ("dim",),
    ("domain", "interval"): ("length",),
    ("domain", "wholespace"): ("dim",),
    ("measure", "zero"): (),
    ("measure", "uniform"): ("factor",),
    ("measure", "bump"): ("center", "width", "factor"),
    ("measure", "atoms"): ("atoms",),
    ("measure", "family"): ("family", "anchor", "p", "kappa"),
    ("criteria", "necessary_ball_bound"): ("p", "t"),
    ("criteria", "necessary_log_bound"): ("variant", "t"),
    ("criteria", "boundary_mass_check"): ("p",),
    ("criteria", "uniform_mass_check"): ("radius",),
    ("criteria", "sufficient_integral_check"): ("p", "t"),
    ("criteria", "power_moment_check"): ("alpha", "p", "t", "part"),
    ("criteria", "orlicz_moment_check"): ("beta", "t"),
    ("criteria", "orlicz_boundary_check"): ("beta", "t"),
    ("criteria", "weighted_strip_bound"): (("p", REQUIRED), "t"),
    ("criteria", "boundary_strip_rate"): (("p", REQUIRED), "t"),
}


def _section(section: str, given: dict, read: bool, errors: list) -> dict:
    """The typed values of the keys one section reads, defaults included;
    a selecting key narrows them to the keys of its value.  A required key
    is missing only when the command reads the section (``read``)."""
    defaults = {key: spec[1] for (s, key), spec in OPTIONS.items() if s == section}
    reads = defaults
    selector = SELECTORS.get(section)
    choice = given.get(selector)
    if (section, choice) in CHOICES:
        reads = {selector: defaults[selector]}
        for key in CHOICES[section, choice]:
            key, default = key if isinstance(key, tuple) else (key, defaults[key])
            reads[key] = default
    for key in sorted(given.keys() - reads.keys()):
        why = f"not read by {selector} = {choice}" if key in defaults else "unknown key"
        errors.append(f"[{section}] {key}: {why}")

    values = {}
    for key, default in reads.items():
        parse, _, rule = OPTIONS[section, key]
        values[key] = None if default is REQUIRED else default
        if key not in given:
            if default is REQUIRED and read:
                errors.append(f"[{section}] {key}: required")
            continue
        try:
            values[key] = parse(given[key])
            if rule is not None and not rule[0](values[key]):
                raise ValueError(rule[1])
        except ValueError as exc:
            errors.append(f"[{section}] {key} = {given[key]}: {exc}")
    return values


def load_config(path, command: Optional[str] = None, out: Optional[str] = None) -> RunConfig:
    """Parse and validate an INI run description against ``OPTIONS``,
    listing every error in the one raised, not just the first one found.
    ``command`` and ``out`` override the [run] keys of the same names."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not cp.read(path):
        raise ValueError(f"config file {path} is unreadable")
    errors = [f"[{s}]: unknown section" for s in cp.sections() if s not in SECTIONS]
    values = {}
    reads = ("run", "domain")
    for section in SECTIONS:  # [run] first: its command decides what is read
        given = dict(cp[section]) if cp.has_section(section) else {}
        if section == "run":
            given.update((k, v) for k, v in (("command", command), ("out", out)) if v)
        checked = _section(section, given, section in reads, errors)
        values[section] = checked if section in reads else {}
        if section == "run" and checked["command"] in COMMANDS:
            reads += COMMANDS[checked["command"]][1]
    if values["run"]["command"] == "dichotomy" and cp.has_option("measure", "kappa"):
        errors.append("[measure] kappa: not read by command = dichotomy, whose sweep chooses it")
    if errors:
        raise ValueError("invalid config:\n" + "\n".join(errors))

    run, domain = values["run"], values["domain"]
    return RunConfig(
        command=run["command"],
        out=run["out"],
        seed=run["seed"],
        domain_kind=domain["kind"],
        domain_size=domain["length" if domain["kind"] == "interval" else "dim"],
        measure=values["measure"],
        solve=values["solve"],
        tolerances=values["tolerances"],
        extra=values[reads[-1]],
    )


def build_domain(cfg: RunConfig) -> Domain:
    kind = {"halfspace": HalfSpace, "interval": Interval, "wholespace": WholeSpace}
    return kind[cfg.domain_kind](cfg.domain_size)


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
        f = spec["factor"]
        return MeasureSpec(
            interior_density=lambda pts, off=None: np.full(len(np.atleast_2d(pts)), f)
        )
    if kind == "bump":
        center = np.asarray(spec["center"], float)
        width = spec["width"]
        factor = spec["factor"]
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
    rows = []
    triples = []
    for i in range(cfg.extra["samples"]):
        x = _draw_point(domain, rng)
        y = _draw_point(domain, rng)
        t = rng.uniform(0.05, 0.4)
        triples.append((x, y, t))
        # the two orders sum different image lists
        g1 = float(kernel_values(domain, x, [y], t)[0])
        g2 = float(kernel_values(domain, y, [x], t)[0])
        rel = abs(g1 - g2) / max(g1, g2, 1e-300)
        rows.append(("symmetry", i, rel, 1e-12, rel <= 1e-12))
        if walls(domain):
            # a wall source runs its whole image series down to round-off
            gb = float(kernel_values(domain, _project_boundary(domain, y), [x], t)[0])
            cap = 1e-14 * (4.0 * math.pi * t) ** (-space_dim(domain) / 2.0)
            rows.append(("boundary_zero", i, gb, cap, gb <= cap))
    if triples and walls(domain):
        # the symmetry samples against the two-sided Gaussian estimate; the
        # fit stops at the first rate whose amplitude is at most 1e6
        cert = certify_gaussian_bounds(domain, triples, 0.5)
        rows.append(("gaussian_bounds", 0, cert.amplitude, 1e6, cert.amplitude <= 1e6))
    for i in range(cfg.extra["semigroup_samples"]):
        x = _draw_point(domain, rng)
        y = _draw_point(domain, rng)
        t, s = rng.uniform(0.05, 0.3, size=2)
        # an integral that missed its tolerance passes no row
        rep = verify_semigroup(domain, x, y, t, s)
        rows.append(("semigroup", i, rep.rel_residual, 1e-6,
                     rep.converged and rep.rel_residual <= 1e-6))
        if walls(domain):
            rep = verify_semigroup(domain, x, y, t, s, weighted=True)
            rows.append(("weighted_semigroup", i, rep.rel_residual, 1e-5,
                         rep.converged and rep.rel_residual <= 1e-5))
        if walls(domain) and space_dim(domain) == 1:
            # the closed form against the kernel integrated up to the reach
            hi = min(domain.bounds[1], x[0] + _reach(t))
            ref = integrate(lambda zs, _off: kernel_values(domain, x, zs, t),
                            HalfSpaceBox((0.0,), (hi,)), 1e-12)
            err = abs(survival_mass(domain, x, t) - ref.value)
            rows.append(("survival_mass", i, err, 1e-6, ref.converged and err <= 1e-6))

    count = write_csv(out_dir / "kernel_check.csv",
                      ("check", "sample", "value", "threshold", "ok"), rows)
    man.event("artifact", path="kernel_check.csv", rows=count)
    ok = all(r[4] for r in rows)
    man.event("result", ok=ok, checks=len(rows))
    return 0 if ok else 1


def _grid_options(cfg: RunConfig) -> dict:
    """The [solve] keys that shape the grid of every command that solves."""
    return {k: v for k, v in cfg.solve.items() if k not in ("p", "horizon")}


def _solve_measure(cfg: RunConfig, domain: Domain, man: Manifest):
    """The configured measure and its solve on the grid anchored at it;
    the manifest gets the solve's timing and its operator's ``stats``."""
    mu = build_measure(cfg, domain)
    grid = measure_grid(domain, mu, cfg.solve["horizon"], **_grid_options(cfg))
    runner = PicardRunner(mu, cfg.solve["p"], grid)
    outcome = runner.solve(**cfg.tolerances)
    man.timing("solve")
    man.event("stats", **runner.op.stats())
    return mu, outcome


def _cmd_solve(cfg: RunConfig, domain: Domain, man: Manifest, out_dir: Path) -> int:
    _, outcome = _solve_measure(cfg, domain, man)
    grid = outcome.final.grid

    # level 0 for the rows of the solve's level-0 phase, empty for global ones
    hist_rows = [
        (h["iteration"], "" if h["level"] is None else h["level"], h["sup"], h["weighted_l1"],
         h["sup_diff"], h["l1_diff"])
        for h in outcome.history
    ]
    count = write_csv(out_dir / "history.csv",
                      ("iteration", "level", "sup", "weighted_l1", "sup_diff", "l1_diff"),
                      hist_rows)
    man.event("artifact", path="history.csv", rows=count)

    nt = grid.times.size
    levels = sorted(set(np.linspace(0, nt - 1, min(nt, 9)).astype(int).tolist()))
    prof_rows = []
    for j in levels:
        t = grid.times[j]
        for k, xq in enumerate(grid.nodes):
            prof_rows.append((t, *xq, outcome.final.values[j, k]))
    count = write_csv(out_dir / "profile.csv", ("t", "x0", "u"), prof_rows)
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

    width = cfg.extra["width"]
    rows = []
    ok = True
    for center in cfg.extra["centers"]:
        psi = bump_test_function(center, width)
        est = recover_trace(outcome.final, psi, range(cfg.extra["levels"]))
        ref = pairing(mu, domain, psi)
        gap = abs(est.limit - ref)
        tol = max(0.02 * abs(ref), est.error)
        # an inconclusive extrapolation fails however wide its error bar
        good = est.status == "ok" and (gap <= tol or (ref == 0.0 and gap <= 1e-12))
        ok = ok and good
        rows.append((center[0], width, est.limit, est.error, ref, gap, est.status, good))
    count = write_csv(
        out_dir / "trace.csv",
        ("center", "width", "recovered", "error", "reference", "gap", "status", "ok"),
        rows,
    )
    man.event("artifact", path="trace.csv", rows=count)
    man.event("result", ok=ok, measures=len(rows))
    return 0 if ok else 1


def _cmd_criteria(cfg: RunConfig, domain: Domain, man: Manifest, out_dir: Path) -> int:
    name = cfg.extra["check"]
    options = {("T" if k == "t" else k): v for k, v in cfg.extra.items() if k != "check"}
    mu = build_measure(cfg, domain)
    report = getattr(crit, name)(mu, domain, **options)
    man.timing("criterion")
    count = write_csv(out_dir / f"criteria_{name}.csv", report.columns, report.samples)
    man.event("artifact", path=f"criteria_{name}.csv", rows=count)
    # every field of the report but its table, which the CSV holds
    result = {k: v for k, v in asdict(report).items() if k not in ("columns", "samples")}
    man.event("result", **{**result, "params": dict(report.params)})
    return 0


def _cmd_dichotomy(cfg: RunConfig, domain: Domain, man: Manifest, out_dir: Path) -> int:
    spec = cfg.measure
    if spec["kind"] != "family":
        raise ValueError("[measure] kind: dichotomy sweeps a singular family")
    if spec["p"] != cfg.solve["p"]:
        raise ValueError(f"[measure] p = {spec['p']}: must equal [solve] p = {cfg.solve['p']}")
    result = dichotomy_sweep(
        spec["family"],
        spec["anchor"],
        cfg.solve["p"],
        domain,
        cfg.solve["horizon"],
        (cfg.extra["bracket_low"], cfg.extra["bracket_high"]),
        max_bisection=cfg.extra["max_bisection"],
        solver_options=cfg.tolerances,
        **_grid_options(cfg),
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


# each command's function and the sections it reads besides [run] and
# [domain]; the last is the command's own, echoed as the config's ``extra``
COMMANDS = {
    "kernel-check": (_cmd_kernel_check, ("kernel",)),
    "solve": (_cmd_solve, ("measure", "tolerances", "solve")),
    "trace": (_cmd_trace, ("measure", "solve", "tolerances", "trace")),
    "criteria": (_cmd_criteria, ("measure", "criteria")),
    "dichotomy": (_cmd_dichotomy, ("measure", "solve", "tolerances", "dichotomy")),
}


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
    try:
        code = COMMANDS[cfg.command][0](cfg, build_domain(cfg), man, out_dir)
    except (ValueError, NotImplementedError) as exc:
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
              type=click.Choice(tuple(COMMANDS)), help="override the configured command")
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
