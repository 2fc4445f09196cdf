"""Import hygiene: every top-level import of the package is used in its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidops"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports (``__future__`` aside) that nothing references."""
    module = ast.parse(source)
    bound = []
    for node in module.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\nfrom math import gcd, lcm\n"
              "def f(x):\n    return os.path.join(x) + str(lcm(x, 2))\n")
    assert unused_imports(source) == ["system", "gcd"]
