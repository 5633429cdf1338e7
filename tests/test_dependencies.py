"""The package imports only the standard library, numpy and itself.

pyproject declares numpy as the one dependency, so an import of anything else
(scipy, say, which a development machine may well have) would fail on a clean
install. Each module is parsed, not imported.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robustprune"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "robustprune"}


def foreign_imports(source: str) -> list[str]:
    """Absolute imports whose top-level package is neither stdlib, numpy nor robustprune."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({n for n in names if n.split(".")[0] not in ALLOWED})


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_the_package(path):
    assert foreign_imports(path.read_text()) == []


def test_the_guard_names_an_undeclared_import():
    source = "import os\nimport scipy.sparse\nfrom numpy import linalg\nfrom . import tensor\n"
    assert foreign_imports(source) == ["scipy.sparse"]
