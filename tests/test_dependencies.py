"""The package imports only the standard library, numpy and itself, and names only its
modules.

pyproject declares numpy as the one dependency, so an import of anything else
(scipy, say, which a development machine may well have) would fail on a clean
install. Each module is parsed, not imported.
"""

import ast
import os
import subprocess
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


def test_importing_the_package_loads_every_module_but_cli_and_names_only_them():
    """One name per public object: the package re-exports nothing, so each name is reached
    through the module that defines it. A fresh interpreter, so no test's imports count."""
    probe = ("import sys, robustprune\n"
             "print(sorted(m[12:] for m in sys.modules if m.startswith('robustprune.')))\n"
             "print(sorted(n for n in vars(robustprune) if not n.startswith('_')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded, public = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                    capture_output=True, text=True).stdout.splitlines()
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "cli"))
    assert len(modules) == 10
    assert loaded == public == repr(modules)
