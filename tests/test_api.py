"""The package's exported names: an explicit list, each name used by the
CLI, the demos, the benchmark or the README; and no public definition in
the package that nothing names."""

import ast
import re
import types
from collections import Counter
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


def unnamed_definitions(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """`path:line name` for each public top-level function or class in the
    `package` sources that no line of `package` or `others` names, its own
    definition line aside."""
    sources = {**package, **others}
    words = Counter(word for text in sources.values() for word in re.findall(r"\w+", text))
    unnamed = []
    for path, text in package.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = re.findall(rf"\b{node.name}\b", lines[node.lineno - 1])
                if words[node.name] == len(own):
                    unnamed.append(f"{path}:{node.lineno} {node.name}")
    return unnamed


def test_the_scan_sees_a_leftover_definition():
    # Leftover_ is another word, so only Leftover's own line names it
    package = {"m.py": "class Leftover:\n    pass\n\n\ndef kept(): return Leftover_\n"
                       "def _private(): pass\n"}
    assert unnamed_definitions(package, {"demo.py": "kept()\n"}) == ["m.py:1 Leftover"]


def test_every_public_definition_is_named_elsewhere():
    package = {path.name: path.read_text() for path in sorted(INIT.parent.glob("*.py"))}
    others = {str(path.relative_to(ROOT)): path.read_text() for path in searched_files()
              if path.parent != INIT.parent}
    assert unnamed_definitions(package, others) == []
