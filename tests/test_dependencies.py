"""Every third-party module that ``gmd`` imports is a declared dependency.

The check reads the package source with ``ast``, as
``test_unused_imports`` does, so an import inside a function counts too
(scipy is imported on first use).  Each top-level module outside the
standard library must be named in ``[project].dependencies`` of
``pyproject.toml``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gmd"


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports of a module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def third_party(modules: set[str]) -> set[str]:
    return modules - set(sys.stdlib_module_names)


def declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_every_third_party_import_is_declared():
    used = set()
    for path in PACKAGE.glob("*.py"):
        used |= third_party(imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
    assert used >= {"numpy", "scipy", "orjson"}
    assert sorted(used - declared()) == []


def test_the_guard_sees_a_lazy_third_party_import():
    tree = ast.parse("import os.path\nfrom . import model\n"
                     "def f():\n    from scipy.special import ndtri\n    import yaml\n")
    assert third_party(imported_modules(tree)) == {"scipy", "yaml"}
