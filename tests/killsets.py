"""Kill sets: which tests the mutation catalogue and the line tracer need.

Run from the repository root, with no arguments::

    python tests/killsets.py

It runs every entry of the catalogue in ``tests/mutants.py``, ``JOBS`` at a
time, as the catalogue runner does but without ``-x``, and records every
test that fails on it: the entry's kill set. It then runs tier-1 once in
this process under the line tracer of ``tests/lines.py`` and records each
statement of ``src/hbs`` that exactly one test reaches, with that test
(lines run outside every test, as imports during collection, count as a
reacher that is no test). Both go to ``tests/killsets.json``, sorted and
without timings, so two runs on one tree write the same bytes; the
catalogue runner tries each entry's recorded killers first.

Last it prints the fold candidates: the tests that are no entry's only
killer and no statement's only reacher. Each one alone can go without
leaving an entry unkilled or a statement unreached; after folding several,
run this again.

It exits 0, or 2 when an ``old`` string does not match exactly once or
the unmutated suite fails, under the tracer too. It takes about ten
minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from lines import PACKAGE, statements, trace_suite
from mutants import JOBS, KILLSETS, ROOT, failures, labelled, mismatches, run


def kill_sets(entries) -> list[dict]:
    """Per entry, its label, file, ``why`` and every test that fails on it."""

    def killers(entry):
        _, output, _ = run(entry[1])
        return sorted({test for test in failures(output) if "::" in test})

    with ThreadPoolExecutor(JOBS) as pool:
        found = list(pool.map(killers, entries))
    return [
        {"label": label, "file": file, "why": why, "killers": tests}
        for (label, (file, _, _, why), _), tests in zip(entries, found)
    ]


def only_reachers(by_test) -> list[dict]:
    """Each ``src/hbs`` statement that exactly one test reaches, with it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        reachers = defaultdict(set)
        for test, files in by_test.items():
            for line in files.get(str(path.resolve()), ()):
                reachers[line].add(test)
        for lineno, counted in statements(path):
            tests = set().union(*(reachers[line] for line in counted))
            if len(tests) == 1 and "" not in tests:
                statement = f"{path.relative_to(ROOT).as_posix()}:{lineno}"
                found.append({"statement": statement, "test": tests.pop()})
    return found


def write(sets, reached) -> None:
    record = {"entries": sets, "only_reachers": reached}
    KILLSETS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    os.chdir(ROOT)
    entries = labelled()
    bad = mismatches(entries)
    if bad:
        print("replacements that do not match exactly once:", *bad, sep="\n  ")
        return 2
    code, output, _ = run(args=["-x"])
    if code != 0:
        print(output)
        print(f"baseline: pytest exited {code} on the unmutated copy; nothing to record")
        return 2
    sets = kill_sets(entries)
    # tests/test_mutants.py reads the kill sets, so they go in before the trace.
    write(sets, [])
    code, by_test = trace_suite()
    if code != 0:
        print(f"tier-1: pytest exited {code} under the line tracer; kill sets only")
        return 2
    reached = only_reachers(by_test)
    write(sets, reached)

    needed = {s["killers"][0] for s in sets if len(s["killers"]) == 1}
    needed |= {r["test"] for r in reached}
    candidates = sorted(set(by_test) - needed - {""})
    print(*candidates, sep="\n")
    print(
        f"{len(sets)} entries, {sum(not s['killers'] for s in sets)} with no killer; "
        f"{len(reached)} statements with one reacher; {len(candidates)} of "
        f"{len(by_test) - 1} tests are fold candidates; wrote {KILLSETS.relative_to(ROOT)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
