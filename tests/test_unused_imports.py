"""Every name a module of the package imports is read somewhere in it.

__init__.py is left out: its imports are the exported names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "boolsurf"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


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
    tree = ast.parse((SRC / module).read_text())
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert unused == {}, f"{module} imports names it never reads (name: line)"
