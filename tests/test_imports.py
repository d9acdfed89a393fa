"""The runtime depends on numpy and the standard library only, and the
package's public surface is exactly what ``hbs/__init__.py`` imports."""

import ast
import sys
from pathlib import Path

import pytest

import hbs

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hbs"
SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_numpy_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top == "numpy" or top in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {name}"
            )


def test_sources_found():
    assert {"core.py", "pruning.py"} <= {p.name for p in SOURCES}


def test_all_sorted_without_duplicates():
    assert hbs.__all__ == sorted(set(hbs.__all__))


def test_all_is_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(hbs.__all__) == imported


def test_all_entries_resolve():
    assert [name for name in hbs.__all__ if not hasattr(hbs, name)] == []
