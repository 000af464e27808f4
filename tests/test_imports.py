"""Every imported name is used by the file that imports it, every name a
file exports in ``__all__`` is defined there, no file looks at a
callable's signature, one function owns the kernel against linear
cells, one the switch to the sine modes and one the interval they live
on, the measures
module alone owns the measure's weight, its weighted density, its anchor
rule, the names of its singular families and the rule that p is
critical, the criteria read a measure through the measures module
alone, put a point on the wall at distance 0 and build their tables in
one sweep, the CLI's option table alone owns the config defaults, and
the solver's objects take their domain and dimension from the grid, and
a solve loads neither scipy.integrate nor scipy.optimize."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mildheat import cli, criteria

ROOT = Path(__file__).resolve().parent.parent
SRC_FILES = sorted((ROOT / "src" / "mildheat").glob("*.py"))
FILES = SRC_FILES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    Names listed in a literal __all__ and __future__ imports are exempt.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def undefined_exports(source: str) -> list:
    """Names listed in a literal top-level __all__ that the module never
    binds at top level (by def, class, assignment or import)."""
    tree = ast.parse(source)
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_scanner_flags_only_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os, os.path\nimport numpy as np\nfrom math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f(x: np.ndarray):\n    return os.sep\n"
    )
    assert unused_imports(src) == [(4, "pi")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_only_undefined_exports():
    src = (
        "import os\nfrom math import pi as tau\nX: int = 1\nY = Z = 2\n"
        "def f():\n    gone = 3\nclass C:\n    pass\n"
        "__all__ = ['os', 'tau', 'X', 'Y', 'Z', 'f', 'C', 'gone', 'pi']\n"
    )
    assert undefined_exports(src) == ["gone", "pi"]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_all_lists_only_defined_names(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_quadrature_dispatches_on_signatures(path):
    # densities and integrands alike are always called as (pts, off), so
    # no module, the quadrature engine included, inspects a signature
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(alias.name for alias in node.names)
    assert not names & {"inspect", "_accepts_offsets"}


def readers(source: str, name: str) -> list:
    """Owners of the reads of ``name`` in a module, one entry per read:
    the top-level function (``f``) or method (``C.f``) that holds it, a
    read inside a nested function counting for its outermost one.  An
    attribute by that name (``np.f``) is read too.  Assignments to the
    name and imports of it are not reads."""
    units = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                method = isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                units.append((f"{node.name}.{m.name}" if method else node.name, m))
        else:
            units.append((getattr(node, "name", "<module>"), node))
    return sorted(
        owner
        for owner, unit in units
        for n in ast.walk(unit)
        if isinstance(n, (ast.Name, ast.Attribute))
        and (n.id if isinstance(n, ast.Name) else n.attr) == name
        and isinstance(n.ctx, ast.Load)
    )


def test_readers_scanner_finds_every_caller():
    src = (
        "from m import f\nf2 = None\n"
        "def one(x):\n    def inner():\n        return f(x)\n    return inner\n"
        "class C:\n    g = f\n    def two(self):\n        h = f\n"
        "        return h(1) + f(2) + np.f(3)\n"
        "f = one\n"
    )
    assert readers(src, "f") == ["C", "C.two", "C.two", "C.two", "one"]
    assert readers(src, "f2") == []


def test_kernel_against_linear_cells_has_one_owner():
    # the Gaussian cell moments have one caller, the reach-run hat
    # weights, and the reach's constant is read only by the reach
    found = {"_interval_moments": [], "_LOG_TAU": []}
    for path in SRC_FILES:
        source = path.read_text(encoding="utf-8")
        for name, owners in found.items():
            owners += [f"{path.stem}.{owner}" for owner in readers(source, name)]
    assert found["_interval_moments"] == ["solver._hat_weights"]
    assert found["_LOG_TAU"] == ["kernels._reach"]


def test_spectral_switch_has_one_owner():
    # tau_s is read by the mode count alone, which the data's evolution,
    # the memory integral's split of its groups, the restart check's
    # transport, the sine basis and the decay ask; the evolution and the
    # basis take the sine-mode cell weights from one function, and the
    # three mode-space users, the evolution, the factored memory integral
    # and the transport, take the nodes' sine values from one basis and
    # the modes' decay from one helper
    found = {
        "_SPECTRAL_FROM": [], "_mode_count": [], "_sine_cell_weights": [], "_sine_basis": [],
        "_sine_decay": [],
    }
    for path in SRC_FILES:
        source = path.read_text(encoding="utf-8")
        for name, owners in found.items():
            owners += [f"{path.stem}.{owner}" for owner in readers(source, name)]
    assert found == {
        "_SPECTRAL_FROM": ["solver._mode_count"],
        "_mode_count": [
            "solver.DuhamelOperator.__init__",
            "solver._InitialEvaluator.at_times",
            "solver._sine_basis",
            "solver._sine_decay",
            "solver._sine_decay",
            "solver._transport",
        ],
        "_sine_cell_weights": [
            "solver._InitialEvaluator._mode_sum",
            "solver._sine_basis",
        ],
        "_sine_basis": [
            "solver.DuhamelOperator._sine_part",
            "solver._InitialEvaluator._mode_sum",
            "solver._transport",
        ],
        "_sine_decay": [
            "solver.DuhamelOperator.__init__",
            "solver._InitialEvaluator._mode_sum",
            "solver._transport",
        ],
    }


def test_sine_helpers_read_the_sine_interval_from_one_owner():
    # the mode count, the sine basis and the modes' decay take the sine
    # interval, never the domain: every call passes a ``sine`` parameter,
    # a local ``sine`` or a ``sine_interval`` attribute, and each of those
    # is bound from ``_sine_interval`` alone, which the operator, the
    # evaluator and the restart check's transport ask
    source = (ROOT / "src" / "mildheat" / "solver.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    helpers = {"_mode_count", "_sine_basis", "_sine_decay"}
    firsts = {
        ast.unparse(n.args[0])
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) in helpers
    }
    assert firsts == {"sine", "self.sine_interval"}
    bound = [
        ast.unparse(n.value).split("(")[0]
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign)
        for t in n.targets
        if getattr(t, "id", None) == "sine" or getattr(t, "attr", None) == "sine_interval"
    ]
    assert bound and set(bound) <= {"_sine_interval", "self.sine_interval"}
    params = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.args.args
        and node.args.args[0].arg == "sine"
    }
    assert params == helpers
    assert readers(source, "_sine_interval") == [
        "DuhamelOperator.__init__",
        "_InitialEvaluator.__init__",
        "_transport",
    ]
    for helper in helpers:
        assert "domain" not in [n.id for f in ast.walk(tree)
                                if isinstance(f, ast.FunctionDef) and f.name == helper
                                for n in ast.walk(f) if isinstance(n, ast.Name)]


def test_reach_window_has_one_owner():
    # in the solver the reach sets the cell window, the mode count and the
    # half-line's virtual wall only; the hat weights alone take the window
    source = (ROOT / "src" / "mildheat" / "solver.py").read_text(encoding="utf-8")
    assert readers(source, "_reach") == ["_mode_count", "_sine_interval", "_window"]
    assert readers(source, "_window") == ["_hat_weights"]


def test_solver_takes_its_domain_from_the_grid():
    # no solver object is built from a domain of its own, and the grid
    # alone refuses a domain of more than one space dimension
    source = (ROOT / "src" / "mildheat" / "solver.py").read_text(encoding="utf-8")
    inits = [
        [a.arg for a in node.args.args + node.args.kwonlyargs]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    assert len(inits) == 3 and not any("domain" in args for args in inits)
    assert readers(source, "NotImplementedError") == ["SpaceTimeGrid.__post_init__"]


def defined_names(source: str) -> set:
    """Names a module defines: every function, nested ones and methods
    included, and every name bound by a top-level assignment."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def attribute_reads(source: str, attr: str) -> list:
    """Lines that read ``<anything>.attr``; assignments to it are not reads."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Load)
    )


def test_each_kernel_has_one_evaluator():
    # the image sums, the half-space reflection factor, the wall limit and
    # the reach each have one owner; the scalar kernels are views of them
    owners = {
        "images": [
            "kernels.kernel_values",
            "kernels.normal_derivative",
            "kernels.survival_mass",
            "solver._hat_weights",
        ],
        "expm1": ["kernels.kernel_values"],
        "normal_derivative": ["kernels._over_distance", "solver._InitialEvaluator._image_sum"],
        "_LOG_TAU": ["kernels._reach"],
    }
    found = {name: [] for name in owners}
    for path in SRC_FILES:
        source = path.read_text(encoding="utf-8")
        for name, where in found.items():
            where += [f"{path.stem}.{owner}" for owner in readers(source, name)]
        assert "tail_radius" not in defined_names(source)
    assert found == owners


def test_owner_scanners_find_nested_and_assigned_names():
    src = (
        "def outer(mu):\n    def _weight(d):\n        return mu.interior_mode\n"
        "    return _weight\n"
        "class C:\n    def _hint_for(self):\n        pass\n"
        "_weighted_density = outer\nmu.interior_mode = 'dx'\n"
    )
    assert defined_names(src) == {"outer", "_weight", "_hint_for", "_weighted_density"}
    assert attribute_reads(src, "interior_mode") == [3]


def test_measure_weight_and_anchor_have_one_owner():
    # the weight w(y), the density against w(y) dy and the anchor rule are
    # made in measures.py only; criteria never asks which mode a density is in
    owners = {"_weight": [], "_weighted_density": [], "_touches": [], "_hint_for": []}
    for path in SRC_FILES:
        found = defined_names(path.read_text(encoding="utf-8"))
        for name, where in owners.items():
            where += [path.stem] if name in found else []
    assert owners == {name: ["measures"] for name in owners}
    criteria = (ROOT / "src" / "mildheat" / "criteria.py").read_text(encoding="utf-8")
    assert attribute_reads(criteria, "interior_mode") == []


def string_literals(source: str) -> set:
    """Every string constant in a module, docstrings included."""
    return {
        n.value
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def test_families_have_one_owner():
    # the kinds are rows of measures.FAMILIES; everyone else checks a kind
    # against that table instead of spelling the names out
    kinds = {"interior_point", "boundary_point", "boundary_surface"}
    holders = [
        path.stem
        for path in SRC_FILES
        if string_literals(path.read_text(encoding="utf-8")) & kinds
    ]
    assert holders == ["measures"]


def test_config_defaults_have_one_owner():
    # a config key's default lives in cli.OPTIONS only: no command reads a
    # config dict with .get(key, default); every check is a criteria
    # function, and every key of a selected section is read by some choice
    tree = ast.parse((ROOT / "src" / "mildheat" / "cli.py").read_text(encoding="utf-8"))
    defaulted_gets = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "get"
        and len(n.args) + len(n.keywords) > 1
    ]
    assert defaulted_gets == []
    checks = {choice for section, choice in cli.CHOICES if section == "criteria"}
    assert len(checks) == 10 and checks <= set(criteria.__all__)
    for section, selector in cli.SELECTORS.items():
        read = {
            key if isinstance(key, str) else key[0]
            for (s, _), keys in cli.CHOICES.items()
            if s == section
            for key in keys
        }
        assert read == {key for s, key in cli.OPTIONS if s == section} - {selector}


def package_imports(source: str) -> set:
    """The package modules a module imports from, by relative import."""
    return {
        node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_criteria_read_a_measure_through_measures_alone():
    # the checks take a measure and integrate it through measures.py: no
    # solved field, no trace, no direct quadrature
    criteria = (ROOT / "src" / "mildheat" / "criteria.py").read_text(encoding="utf-8")
    assert package_imports(criteria) == {"kernels", "measures"}
    assert readers(criteria, "integrate") == []


def test_cubature_has_one_rule_and_one_cell_evaluator():
    # the flat rule alone reads the 1-d rule pieces and builds a node grid,
    # the adaptive loop alone evaluates cells, and no per-cell contraction
    # survives beside the flat rule's one product
    found = {"_fejer1": [], "_NODES_F": [], "_COARSE_IDX": [], "meshgrid": [],
             "tensordot": [], "_eval_cells": [], "_eval_cell": []}
    for path in SRC_FILES:
        source = path.read_text(encoding="utf-8")
        for name, owners in found.items():
            owners += [f"{path.stem}.{owner}" for owner in readers(source, name)]
    assert found == {
        "_fejer1": ["quadrature._flat_rule", "quadrature._flat_rule"],
        "_NODES_F": [],
        "_COARSE_IDX": ["quadrature._flat_rule"],
        "meshgrid": ["quadrature._flat_rule"],
        "tensordot": [],
        "_eval_cells": ["quadrature._adaptive_box", "quadrature._adaptive_box"],
        "_eval_cell": [],
    }


def test_weighted_density_is_read_by_measures_and_the_solver():
    found = [
        path.stem
        for path in SRC_FILES
        if readers(path.read_text(encoding="utf-8"), "_weighted_density")
    ]
    assert found == ["measures", "solver"]


def compared_numbers(source: str, func: str) -> dict:
    """Comparisons that read a call of ``func``, or a name assigned from an
    expression holding one: {line: the numbers they compare against}."""

    def calls(node):
        return any(
            isinstance(n, ast.Call) and getattr(n.func, "id", None) == func
            for n in ast.walk(node)
        )

    tree = ast.parse(source)
    names = {
        t.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and calls(n.value)
        for t in n.targets
        if isinstance(t, ast.Name)
    }

    def number(node):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return None
        return value if isinstance(value, (int, float)) else None

    found = {}
    for n in ast.walk(tree):
        if not isinstance(n, ast.Compare):
            continue
        operands = [n.left, *n.comparators]
        reads = any(
            calls(o) or any(isinstance(m, ast.Name) and m.id in names for m in ast.walk(o))
            for o in operands
        )
        if reads:
            found[n.lineno] = [v for v in map(number, operands) if v is not None]
    return found


def test_comparison_scanner_follows_assigned_names():
    src = (
        "def f(mu, n, z):\n    q = critical_exponent(n)\n"
        "    if abs(mu.p - q) > 1e-9 or boundary_distance(z) <= -1e-12:\n        pass\n"
        "    d = 0.0 if n else boundary_distance(z)\n"
        "    return 0.0 < d < n and mu.p < critical_exponent(n + 1)\n"
    )
    assert compared_numbers(src, "critical_exponent") == {3: [1e-9], 6: []}
    assert compared_numbers(src, "boundary_distance") == {3: [-1e-12], 6: [0.0]}


def test_critical_rule_and_wall_rule_each_have_one_form():
    # "p is critical" is asked of measures._is_critical alone, which holds
    # the rule's one tolerance; no other module compares an exponent with
    # critical_exponent's value, and the criteria and the solver's data
    # mesh put a point on the wall at distance exactly 0, as the measures
    # do (the grid's -1e-12 is its closed-domain check, not a wall rule)
    tolerance = []
    askers = []
    for path in SRC_FILES:
        source = path.read_text(encoding="utf-8")
        tolerance += [f"{path.stem}.{owner}" for owner in readers(source, "_CRIT_MATCH")]
        askers += [f"{path.stem}.{owner}" for owner in readers(source, "_is_critical")]
        if path.stem != "measures":
            assert "_CRIT_MATCH" not in defined_names(source)
            assert compared_numbers(source, "critical_exponent") == {}
    assert tolerance == ["measures._is_critical"]
    assert askers == ["criteria._borderline", "criteria.boundary_strip_rate",
                      "criteria.necessary_ball_bound", "measures.make_family"]
    criteria_src = (ROOT / "src" / "mildheat" / "criteria.py").read_text(encoding="utf-8")
    numbers = compared_numbers(criteria_src, "boundary_distance").values()
    assert all(v == 0 for line in numbers for v in line)
    solver_src = (ROOT / "src" / "mildheat" / "solver.py").read_text(encoding="utf-8")
    numbers = compared_numbers(solver_src, "boundary_distance").values()
    assert sorted(v for line in numbers for v in line) == [-1e-12, 0.0]


def test_criteria_build_every_sweep_table_in_one_place():
    # the checks' tables are rows of _sup_sweep; boundary_mass_check's
    # fixed three mass rows are the one table that is not a sweep
    source = (ROOT / "src" / "mildheat" / "criteria.py").read_text(encoding="utf-8")
    assert readers(source, "_row") == ["_sup_sweep", "boundary_mass_check"]
    assert "_mass_ratio" not in defined_names(source)


def test_a_solve_imports_no_scipy_integrate_or_optimize():
    # quadrature, measures, criteria and cutoffs import them where they
    # call them, so a process that loads the package and the CLI and solves
    # on an interval grid never does
    code = (
        "import sys\n"
        "import mildheat, mildheat.cli, mildheat.solver\n"
        "from mildheat.kernels import Interval\n"
        "from mildheat.measures import SingularFamily, make_family, scale\n"
        "domain = Interval(1.0)\n"
        "mu = scale(make_family(SingularFamily('boundary_point', (0.0,), 3.0), domain), 0.05)\n"
        "out = mildheat.solver.picard_solve(mu, 3.0, 0.2, domain, target_nodes=60)\n"
        "print(out.status, [m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "Converged []"
