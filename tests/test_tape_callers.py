"""Every public function of nnkit.tape is read by a package module other than tape.

The scan is a plain AST walk. A module reads an op when it reads the
attribute of a name bound to the tape module (`from . import tape`, then
`tape.conv`), or reads a name it imported from the tape module
(`from .tape import backward`). An op that only tests read is dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TAPE = ROOT / "src" / "voxelstereo" / "nnkit" / "tape.py"


def public_ops(source: str) -> list[str]:
    """Names of the module-level functions of `source` that do not start with _."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


def unread_ops(ops, sources) -> list[str]:
    """The ops that no source in `sources` reads through the tape module."""
    read = set()
    for source in sources:
        tree = ast.parse(source)
        modules, names = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                from_tape = (node.module or "").split(".")[-1] == "tape"
                for alias in node.names:
                    if from_tape:
                        names[alias.asname or alias.name] = alias.name
                    elif alias.name == "tape":
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in names:
                read.add(names[node.id])
    return [op for op in ops if op not in read]


@pytest.mark.parametrize("source,expected", [
    ("from . import tape\ntape.conv(x)\n", ["add"]),
    ("from .nnkit import tape as t\nt.add(t.conv(x), y)\n", []),
    ("from .tape import add as plus\nplus(x, y)\n", ["conv"]),
    ("def conv(x):\n    return x\nconv(1)\nadd = 2\n", ["add", "conv"]),
    ("from . import tape\n", ["add", "conv"]),
])
def test_scan_finds_exactly_the_unread_ops(source, expected):
    assert unread_ops(["add", "conv"], [source]) == expected


def test_every_public_tape_op_has_a_caller_in_the_package():
    ops = public_ops(TAPE.read_text())
    assert "conv" in ops and "backward" in ops
    sources = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py")) if path != TAPE]
    assert unread_ops(ops, sources) == []
