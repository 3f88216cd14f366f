"""Every name a ``gmd`` module imports is used in that module.

A deletion that leaves its imports behind fails here.  The check reads
the source with ``ast``: a name counts as used where it appears as an
identifier anywhere in the module, annotations included.  ``__init__``
is skipped, since its imports are the public names that
``test_public_api`` pins.
"""

import ast
from pathlib import Path

import pytest

import gmd

PACKAGE = Path(gmd.__file__).parent

# (module, name): why the import stays although the module does not use it.
KEPT = {
    ("general_ec", "integrate_real_line_split"):
        "bench/tracing.py wraps it as an attribute of gmd.general_ec "
        "(READS, general_ec.integrals)",
    ("general_ec", "integrate_real_line"):
        "bench/tracing.py wraps it as an attribute of gmd.general_ec "
        "(READS, general_ec.integrals)",
    ("closed_form", "integrate_interval"):
        "bench/tracing.py wraps it as an attribute of gmd.closed_form (WRAPPED)",
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    unused = imported_names(tree) - used_names(tree)
    assert sorted(unused) == sorted(name for mod, name in KEPT if mod == module)


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi as tau, e\nprint(e)\n")
    assert imported_names(tree) - used_names(tree) == {"os", "tau"}
