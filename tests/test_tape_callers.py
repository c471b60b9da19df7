"""Every public function and class of a package module is read by other code.

The scan is a plain AST walk over the non-test Python files of src/ and
perfbench/. The defining module reads its names bare, except that a tape
op must be read outside the tape module. Any other file reads
a name module-qualified: it reads the attribute of a name bound to the
module (`from . import tape`, then `tape.conv`), or reads a name it imported
from the module (`from .tape import backward`). A name that only tests read
is dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voxelstereo"
MODULES = sorted(PACKAGE.rglob("*.py"))
NON_TEST_SOURCES = sorted(path for folder in ("src", "perfbench")
                          for path in (ROOT / folder).rglob("*.py")
                          if not path.name.startswith("test_"))

# Public names that nothing reads yet, by module. The voxelstereo CLI's
# `eval` subcommand (ROADMAP item 6) is to call both; it removes them here.
NO_CALLER_YET = {
    "classical": ["cross_checked_sweep"],
    "model": ["load_checkpoint"],
}


def module_name(path: Path) -> str:
    """The name other files import `path` by: its stem, or its package's for __init__."""
    return path.parent.name if path.stem == "__init__" else path.stem


def public_names(source: str) -> list[str]:
    """Module-level functions and classes of `source` whose names do not start with _."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_"))


def reads(module, source) -> set[str]:
    """The names that `source` reads through `module`, module-qualified."""
    tree = ast.parse(source)
    modules, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_module = (node.module or "").split(".")[-1] == module
            for alias in node.names:
                if from_module:
                    imported[alias.asname or alias.name] = alias.name
                elif alias.name == module:
                    modules.add(alias.asname or alias.name)
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            read.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in imported:
            read.add(imported[node.id])
    return read


@pytest.mark.parametrize("source,expected", [
    ("from . import tape\ntape.conv(x)\n", ["add"]),
    ("from .nnkit import tape as t\nt.add(t.conv(x), y)\n", []),
    ("from .tape import add as plus\nplus(x, y)\n", ["conv"]),
    ("def conv(x):\n    return x\nconv(1)\nadd = 2\n", ["add", "conv"]),
    ("from . import tape\n", ["add", "conv"]),
])
def test_scan_finds_exactly_the_unread_names(source, expected):
    assert [name for name in ("add", "conv") if name not in reads("tape", source)] == expected


def test_public_names_are_module_level_functions_and_classes():
    source = ("def f():\n    def inner(): pass\nclass C:\n    def method(self): pass\n"
              "def _private(): pass\nCONSTANT = 1\n")
    assert public_names(source) == ["C", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE)))
def test_every_public_name_has_a_caller_outside_tests(path):
    module, source = module_name(path), path.read_text()
    # a module reads its own names bare; tape's ops are what the other
    # modules compose, so each must have a reader outside tape
    read = set() if module == "tape" else {node.id for node in ast.walk(ast.parse(source))
                                           if isinstance(node, ast.Name)}
    for other in NON_TEST_SOURCES:
        if other != path:
            read |= reads(module, other.read_text())
    unread = [name for name in public_names(source) if name not in read]
    assert unread == NO_CALLER_YET.get(module, [])


def test_the_scan_sees_the_tape_ops_and_the_benchmarks_sources():
    tape_names = public_names((PACKAGE / "nnkit" / "tape.py").read_text())
    assert {"conv", "backward", "TapeNode"} <= set(tape_names)
    assert ROOT / "perfbench" / "workloads.py" in NON_TEST_SOURCES
    assert ROOT / "perfbench" / "test_perfbench.py" not in NON_TEST_SOURCES
