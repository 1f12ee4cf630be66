"""The package's exported names: an explicit list, each name used by the
CLI, the demos, the benchmark or the README."""

import ast
import re
import types
from pathlib import Path

import boolsurf

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "boolsurf" / "__init__.py"


def searched_files():
    """Where a name counts as used: cli.py, demos/, benchmarks/, README.md.
    The rest of src/ does not count: a name only the package itself uses is
    internal, not API."""
    files = [ROOT / "src" / "boolsurf" / "cli.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "benchmarks").rglob("*.py"))
    return files + [ROOT / "README.md"]


def test_all_is_an_explicit_list():
    tree = ast.parse(INIT.read_text())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [target.id for target in node.targets] == ["__all__"]]
    assert isinstance(value, ast.List)
    assert all(isinstance(elt, ast.Constant) and isinstance(elt.value, str)
               for elt in value.elts)
    assert [elt.value for elt in value.elts] == boolsurf.__all__
    assert len(set(boolsurf.__all__)) == len(boolsurf.__all__)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from boolsurf import *", namespace)
    for name in boolsurf.__all__:
        assert namespace[name] is getattr(boolsurf, name)


def test_every_exported_name_is_used_outside_the_tests():
    lines = [line for path in searched_files() for line in path.read_text().splitlines()]
    unused = []
    for name in boolsurf.__all__:
        value = getattr(boolsurf, name)
        # submodules and error classes are exported whether or not anyone names them
        if isinstance(value, types.ModuleType) or (
                isinstance(value, type) and issubclass(value, boolsurf.BoolsurfError)):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []
