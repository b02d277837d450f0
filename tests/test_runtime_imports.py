"""The runtime depends on numpy and the standard library only.

scipy, mpmath and hypothesis are installed for the tests, so an import of
one of them from `src/zel` would pass every other test; this one reads
each module's imports from its syntax tree instead.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "zel"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "zel"}


def _imports(path: Path):
    """Top-level package names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


MODULES = sorted(SRC.glob("*.py"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "zeta_core.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_stdlib_or_numpy(path):
    foreign = sorted(set(_imports(path)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def test_guard_sees_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\nfrom scipy import special\n"
                      "from . import zeta_core\n")
    assert sorted(set(_imports(module)) - ALLOWED) == ["scipy"]
