"""Line tracer: every statement of ``src/hbs`` that tier-1 never runs.

Run from the repository root, with no arguments::

    python tests/lines.py

It runs the tier-1 suite in this process, with the timing test that
``tests/mutants.py`` deselects (``mutants.TIMING_TEST``) deselected here
too, and traces the lines run in ``src/hbs``, in the main thread and in
every thread the tests start. A statement counts as run when a line of it
ran; for a compound statement (``if``, ``for``, ``def``, ...) only its
header lines count, not its body. Function docstrings compile to no code,
so string statements are left out. Code that runs in a subprocess is not
traced.

It prints each statement that never ran as ``path:line: text`` and exits 1
when there is any, 0 when every statement ran, and 2 when the suite fails.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

from mutants import ROOT, TIMING_TEST

PACKAGE = ROOT / "src" / "hbs"


def statements(path: Path) -> list[tuple[int, range]]:
    """``(first line, lines that count)`` of each statement in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found.append((node.lineno, range(first, last + 1)))
    return sorted(found)


def trace_suite() -> tuple[int, dict[str, dict[str, set[int]]]]:
    """pytest's exit code for tier-1, and the lines run in each file of
    ``src/hbs``, keyed by test id, then by resolved path. A test's lines
    are those run from the start of its setup to the end of its teardown,
    so a fixture's lines go to each test whose setup runs it; lines run
    outside every test, as imports during collection, go to ``""``."""
    by_test: dict[str, dict[str, set[int]]] = {"": defaultdict(set)}
    now = [by_test[""]]
    ours: dict[str, str | None] = {}
    prefix = str(PACKAGE.resolve()) + os.sep

    def local(frame, event, arg):
        if event == "line":
            now[0][frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.realpath(name)
            ours[name] = path if path.startswith(prefix) else None
        return local if ours[name] is not None else None

    class ByTest:
        @staticmethod
        def pytest_runtest_logstart(nodeid, location):
            now[0] = by_test.setdefault(nodeid, defaultdict(set))

        @staticmethod
        def pytest_runtest_logfinish(nodeid, location):
            now[0] = by_test[""]

    args = ["-q", "-p", "no:cacheprovider", "--deselect", TIMING_TEST, "tests"]
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args, plugins=[ByTest()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {
        test: {ours[name]: lines for name, lines in files.items()}
        for test, files in by_test.items()
    }


def main() -> int:
    os.chdir(ROOT)
    code, by_test = trace_suite()
    if code != 0:
        print(f"tier-1: pytest exited {code}; lines are judged on a passing suite only")
        return 2
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ran = set().union(*(files.get(str(path.resolve()), ()) for files in by_test.values()))
        for lineno, counted in statements(path):
            total += 1
            if ran.isdisjoint(counted):
                missed.append(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    for line in missed:
        print(line)
    print(f"{total} statements in src/hbs, {len(missed)} never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
