"""In-memory span recorder for the traced benchmark run.

A span is one timed call from the benchmark into the package: its name
(``<layer>.<function>``), start and end on ``time.perf_counter``, the index
of its parent span (-1 at the top), the op it belongs to and the matrix it
worked on. Spans stay in memory and are written once, when the run ends.

The untraced run uses :data:`OFF`, whose ``span`` returns a shared
``nullcontext``, so the benchmark's code path is identical in both runs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class Off:
    """Recorder that records nothing."""

    op = None

    def span(self, name: str, mat: str | None = None):
        return _NULL


OFF = Off()


class Tracer:
    """Records nested spans; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, mat]
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, mat: str | None = None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, mat]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another in this single-threaded
        benchmark, so the covered time is the sum of their durations.
        """
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "mat")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": keys, "spans": self.spans}, fh)
