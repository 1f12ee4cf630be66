"""Every name a module of the package imports is read somewhere in it, and
every private top-level helper is read somewhere in the package.

__init__.py is left out of the import check: its imports are the exported
names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "boolsurf"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import statement binds, with the statement's line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in the module, string annotations included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= read_names(ast.parse(annotation.value, mode="eval"))
    return read


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import nan, pi\nx: 'pi' = nan\n")
    assert set(imported_names(tree)) - read_names(tree) == {"os"}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = TREES[module]
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert unused == {}, f"{module} imports names it never reads (name: line)"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private top-level function, class or constant with its line;
    decorated functions are left out, since a decorator registers them."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list:
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.endswith("__")}


def used_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in the module, and every attribute it reads
    (a helper another module reaches as module._name)."""
    return read_names(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}


def test_the_scan_sees_a_dead_helper():
    tree = ast.parse("_A, _B = 1, 2\nX = _A\ndef _f(): pass\n"
                     "@register\ndef _g(): pass\nclass _C: pass\ny = m._C\n")
    assert set(private_definitions(tree)) - used_names(tree) == {"_B", "_f"}


def test_no_dead_private_helpers():
    used = set().union(*map(used_names, TREES.values()))
    dead = {f"{module}:{line}": name for module, tree in TREES.items()
            for name, line in private_definitions(tree).items() if name not in used}
    assert dead == {}, "private top-level names that no module of the package reads"
