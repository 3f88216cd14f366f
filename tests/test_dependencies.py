"""Every third-party module that ``gmd`` or its tests import is declared.

The check reads the source with ``ast``, as ``test_unused_imports``
does, so an import inside a function counts too (scipy is imported on
first use).  Each top-level module of the package outside the standard
library must be named in ``[project].dependencies`` of
``pyproject.toml``; each of the tests, other than ``gmd`` and the tests'
own modules (``helpers``), there or in the ``test`` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gmd"
TESTS = ROOT / "tests"


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


def declared(extra: str | None = None) -> set[str]:
    """The distribution names of ``dependencies``, and of the optional
    dependencies ``extra`` if given."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    requirements = project["dependencies"]
    if extra is not None:
        requirements = requirements + project["optional-dependencies"][extra]
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def third_party_imports(directory: Path) -> set[str]:
    used = set()
    for path in directory.glob("*.py"):
        used |= third_party(imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
    return used


def test_every_third_party_import_is_declared():
    used = third_party_imports(PACKAGE)
    assert used >= {"numpy", "scipy", "orjson"}
    assert sorted(used - declared()) == []


def test_every_third_party_test_import_is_declared():
    local = {"gmd"} | {path.stem for path in TESTS.glob("*.py")}
    used = third_party_imports(TESTS) - local
    assert used >= {"pytest", "hypothesis", "mpmath", "numpy", "scipy"}
    assert sorted(used - declared("test")) == []


def test_the_guard_sees_a_lazy_third_party_import():
    tree = ast.parse("import os.path\nfrom . import model\n"
                     "def f():\n    from scipy.special import ndtri\n    import yaml\n")
    assert third_party(imported_modules(tree)) == {"scipy", "yaml"}
