"""No module of the package, its tests or its benchmark imports a name it never reads.

The scan is a plain AST walk: a module-level or local import binds names,
and a binding counts as used when any Name node, or an entry of the
module's __all__, reads it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("source,expected", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c, d\nd()\n", ["line 1: c"]),
    ("from . import x\n__all__ = ['x']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n    return 1\n", ["line 2: json"]),
])
def test_scan_finds_exactly_the_unread_names(source, expected):
    assert unused_imports(source) == expected


def test_no_unused_imports():
    assert SCANNED
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text())
             for path in SCANNED}
    assert {path: names for path, names in found.items() if names} == {}
