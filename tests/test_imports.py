"""The runtime depends on numpy and the standard library only, the
package's public surface is exactly what ``hbs/__init__.py`` imports, the
modules keep their layering, and no module imports a name it never uses."""

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


# The package modules each module imports, lowest layer first. The binary
# formats sit below the cost model, which needs the kernels and the pruner.
_LIBRARY = {"analysis", "core", "errors", "io", "kernels", "perf", "pruning"}
LAYERS = {
    "errors": set(),
    "core": {"errors"},
    "analysis": {"core", "errors"},
    "kernels": {"core", "errors"},
    "pruning": {"core", "errors"},
    "io": {"core", "errors"},
    "perf": {"core", "errors", "kernels", "pruning"},
    "cli": _LIBRARY,
    "__init__": _LIBRARY,
}


def test_module_layering():
    got = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        got[path.stem] = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        }
    assert got == LAYERS


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in order of import.

    A name counts as used when it appears as a name anywhere in the module
    or is listed in the module's ``__all__``.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_finds_strays():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .core import a, b as c, d\n"
        "__all__ = ['d']\n"
        "print(a)\n"
    )
    assert unused_imports(source) == ["os", "np", "c"]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private name (one leading
    underscore) that no module of ``sources`` ever reads: as a name, as an
    attribute or as an imported name."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [
                (module, n) for n in names if n.startswith("_") and not n.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{module}:{name}" for module, name in defined if name not in used]


def test_no_unreferenced_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_check_finds_strays():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused_limit: int = 4\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _dead():\n"
            "    pass\n"
            "class _Shared:\n"
            "    def _method(self):\n"
            "        pass\n"
            "def __getattr__(name):\n"
            "    pass\n"
            "print(_helper())\n"
        ),
        "b.py": "from .a import _Shared\nimport a\na._via_attribute = 1\n",
        "c.py": "_via_attribute = 0\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:_unused_limit", "a.py:_dead"]


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
