"""Static checks on the package source, with the standard library's ast only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rtfa"
# __init__.py imports names to re-export them, not to use them.
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _module_level(body):
    """Statements outside any function or class body, compound ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _module_level(getattr(node, field, []))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_checker():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nimport sys\n"
        "from math import prod, sqrt\n"
        "try:\n    import json\nexcept ImportError:\n    import csv\n"
        "def f(x: np.ndarray):\n    import re\n    return os.path.join(sqrt(x))\n"
    )
    assert unused_imports(source) == ["csv", "json", "prod", "sys"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_only_tensor_imports_numbers():
    # tensor._ints is the one integer rule; a second isinstance(v, numbers.Integral)
    # test elsewhere would fork it
    importers = sorted(
        path.name for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "numbers")
    )
    assert importers == ["tensor.py"]


def test_no_public_function_takes_a_private_parameter():
    # a caller cannot switch off a public function's checks through a
    # parameter that only the package itself is meant to pass
    import inspect

    import rtfa

    private = [f"{name}({param})" for name in rtfa.__all__
               if inspect.isfunction(getattr(rtfa, name))
               for param in inspect.signature(getattr(rtfa, name)).parameters
               if param.startswith("_")]
    assert private == []
