"""Host speed probes for scaling end-to-end times to a reference speed.

On the 2-vCPU reference VM the host switches between a fast and a slow
state within tenths of a second, and a run can spend anywhere from none to
all of its time in the slow state. CPU time equals wall time, so this is
not steal but a slower CPU. Interpreted Python slows by about 1.8x, bulk
numpy work by about 1.3x. Per-run percentiles of raw latencies therefore
jump between the two states from one run to the next.

A probe is a fixed piece of work that does not touch the package, run right
before and right after every timed op. The op's time is multiplied by the
probe's reference time over the mean of those two probe times, so an op is
scaled by the state the host was in while it ran. Each workload uses the
probe that slows like its ops do:

* ``loop4``, ``loop256`` -- a Python loop of small numpy slice updates
  against a 4- or 256-column right-hand side, like the block-by-block
  kernel behind ``infer_stream`` and ``infer_batch``;
* ``sort`` -- an in-place sort of 2^18 doubles, like the bulk array work of
  ``compress`` and of every set-up.

On the reference VM, with the ``loop4`` probe the per-matrix medians of
scaled ``infer_stream`` latencies agreed within 2% across runs whose raw
medians differed by 40%.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# probe -> (median time on the reference VM in its fast state, loop blocks,
# loop columns)
PROBES = {"loop4": (0.0016, 64, 4), "loop256": (0.0030, 16, 256), "sort": (0.0021, 0, 0)}
LOOP_BH, LOOP_BW, LOOP_K = 32, 8, 1024


class Probe:
    def __init__(self, name: str):
        self.name = name
        self.reference_s, self._n_blocks, width = PROBES[name]
        rng = np.random.default_rng(20180810)
        if name == "sort":
            self._x = rng.standard_normal(1 << 18)
            self._buf = np.empty_like(self._x)
        else:
            rows = max(LOOP_K, self._n_blocks * LOOP_BH)
            self._row_step = rows // self._n_blocks
            self._col_step = LOOP_K // self._n_blocks
            self._blocks = rng.standard_normal((self._n_blocks, LOOP_BH, LOOP_BW))
            self._b32 = rng.standard_normal((LOOP_K, width), dtype=np.float32)
            self._out_shape = (rows, width)
        self.samples: list[float] = []
        self.factors: list[float] = []

    def _work(self) -> None:
        if self.name == "sort":
            # In place: an allocation would time the allocator's state too.
            self._buf[:] = self._x
            self._buf.sort()
            return
        # Convert, accumulate block by block, round: the kernel's pattern.
        b = self._b32.astype(np.float64)
        out = np.zeros(self._out_shape)
        for i in range(self._n_blocks):
            r0, c0 = i * self._row_step, i * self._col_step
            block = self._blocks[i]
            for j in range(LOOP_BW):
                out[r0 : r0 + LOOP_BH] += block[:, j, None] * b[c0 + j]
        out.astype(np.float32)

    def run(self) -> float:
        """Time the probe once; returns seconds."""
        t0 = perf_counter()
        self._work()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self, before: float, after: float) -> float:
        """Host speed around one timed piece of work: below 1 when slower.

        Multiply a time by it (divide a rate by it) to get the time at the
        reference speed.
        """
        f = self.reference_s / (0.5 * (before + after))
        self.factors.append(f)
        return f

    def speed(self) -> float:
        """Median host speed over the run, for the record."""
        return statistics.median(self.factors)
