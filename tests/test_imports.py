"""Every imported name is used by the file that imports it, and no file
looks at a callable's signature."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "mildheat").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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
