"""Inputs, set-up, ops and correctness gates of the hbs benchmark.

The suite is three weight matrices drawn from the run's seed, each pruned
with two configs, giving six HBS matrices visited in a fixed order. Every
call into the package is wrapped in a span named ``<layer>.<function>``;
with tracing off the spans cost one shared ``nullcontext``.

Correctness checks never use the package's own helpers: supports, masked
copies and relative errors are recomputed here with plain numpy.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hbs import (
    BenchPlan,
    HBSConfig,
    HBSMatrix,
    IrfTable,
    PruneTrace,
    calibrate_irf,
    dense_matmul,
    estimate_cost,
    hbs_matmul,
    lower_tensor4d,
    prune_hierarchical,
    read_dmat,
    read_hbsf,
    reconstruct,
    topk_retention,
    validate,
    write_dmat,
    write_hbsf,
)

CONFIGS = {
    "two": "32x1:0.75,8x1:0.875",
    "ladder": "32x1:0.75,16x1:0.875,8x1:0.9375,4x1:0.96875,1x1:0.96875",
}
RETENTION_PCTS = (0.1, 0.2, 0.3, 0.4, 0.5)
REL_TOL = 1e-5
# Tail latency percentile of each matrix's ops. A 25-second run has about
# 70 (compress, infer_batch) to 180 (infer_stream) ops, so 14 to 36 lie
# beyond their matrix's percentile.
TAIL_PCT = 80.0
# Activations per layer, cycled so consecutive visits of a matrix see
# different right-hand sides.
ACT_POOL = 2
# Sweep repetitions: at least one, at most SWEEP_REPS, stopping once a
# measurement has used SWEEP_BUDGET_S.
SWEEP_REPS = 5
SWEEP_BUDGET_S = 0.2
# Cost-model calibration problem; small so one calibration fits the run.
CALIBRATION_MK = (256, 256)


def make_weights(seed: int, tr) -> tuple[dict[str, np.ndarray], np.random.Generator]:
    """The three layers, Gaussian like ``hbs gen``, in a fixed draw order."""
    rng = np.random.default_rng(seed)
    sq = rng.standard_normal((1024, 1024), dtype=np.float32)
    rnn = rng.standard_normal((4 * 512, 512), dtype=np.float32)
    t4 = rng.standard_normal((256, 64, 3, 3), dtype=np.float32)
    with tr.span("pruning.lower_tensor4d", "conv256x576"):
        conv = lower_tensor4d(t4, "CRS")
    return {"sq1024": sq, "rnn2048x512": rnn, "conv256x576": conv}, rng


def support_of(m: HBSMatrix) -> np.ndarray:
    """Boolean mask of the cells an HBS matrix's stored blocks cover."""
    mask = np.zeros((m.rows, m.cols), dtype=bool)
    for lv in m.levels:
        view = mask.reshape(lv.grid_rows, lv.shape.bh, lv.grid_cols, lv.shape.bw)
        view[lv.block_rows, :, lv.block_cols, :] = True
    return mask


def expected_kept(rows: int, cols: int, config: HBSConfig) -> list[int]:
    """Blocks each level keeps: the grid minus round-half-up(sparsity * grid)."""
    kept = []
    for spec in config.levels:
        total = (rows // spec.shape.bh) * (cols // spec.shape.bw)
        kept.append(total - math.floor(spec.sparsity * total + 0.5))
    return kept


def rel_error(y, want64: np.ndarray) -> float:
    """Largest per-cell relative error of ``y`` against the rounded oracle.

    Same definition as the package's contract: differences scaled by the
    larger magnitude, floored at 1e-30. A wrong dtype or shape is infinite.
    """
    if not isinstance(y, np.ndarray) or y.dtype != np.float32 or y.shape != want64.shape:
        return math.inf
    g = y.astype(np.float64)
    w = want64.astype(np.float32).astype(np.float64)
    scale = np.maximum(np.maximum(np.abs(g), np.abs(w)), 1e-30)
    return float(np.max(np.abs(g - w) / scale))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint32), np.ascontiguousarray(b).view(np.uint32)
    )


@dataclass
class Mat:
    """One of the six suite matrices and the benchmark's own view of it."""

    name: str
    layer: str
    config_name: str
    config: HBSConfig
    w: np.ndarray
    m: HBSMatrix
    trace: PruneTrace
    mask: np.ndarray
    dense: np.ndarray  # w on the kept support, +0.0 elsewhere

    @property
    def cells(self) -> int:
        return self.m.rows * self.m.cols


@dataclass
class Gate:
    """Counts gated ops across a run and keeps the first few failures."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(what)
            print(f"# FAILED {what}", file=sys.stderr)


def run_op(work, j: int, cycle: int, tr, gate: Gate, probe=None) -> tuple[float, float, bool]:
    """One gated op: ``(seconds, speed-scaled seconds, passed)``.

    A host speed ``probe``, if given, runs right before and right after the
    timed part and scales its time; the check runs after both. Exceptions
    count as failures; nothing is retried.
    """
    gate.attempted += 1
    problem = None
    before = probe.run() if probe else 0.0
    t0 = perf_counter()
    try:
        dt, out = work.timed(j, cycle, tr)
    except Exception:  # a broken op must not stop the run; it is counted
        dt, problem = perf_counter() - t0, traceback.format_exc(limit=3)
    factor = probe.factor(before, probe.run()) if probe else 1.0
    if problem is None:
        try:
            problem = work.check(j, cycle, dt, out, tr)
        except Exception:
            problem = traceback.format_exc(limit=3)
    if problem:
        gate.fail(f"{type(work).__name__} op on {work.mats[j].name}: {problem}")
    return dt, dt * factor, not problem


def build_suite(seed: int, tr, gate: Gate):
    """Draw, prune and check the six matrices. Returns (mats, rng)."""
    weights, rng = make_weights(seed, tr)
    mats = []
    for layer, w in weights.items():
        for cname, text in CONFIGS.items():
            name = f"{layer}-{cname}"
            config = HBSConfig.parse(text)
            with tr.span("pruning.prune_hierarchical", name):
                m, trace = prune_hierarchical(w, config)
            mask = support_of(m)
            dense = np.where(mask, w, np.float32(0.0))
            mats.append(Mat(name, layer, cname, config, w, m, trace, mask, dense))
    for mat in mats:
        gate.attempted += 1
        with tr.span("core.reconstruct", mat.name):
            rec = reconstruct(mat.m)
        want = expected_kept(mat.m.rows, mat.m.cols, mat.config)
        got = [lv.n_blocks for lv in mat.m.levels]
        traced = [lt.kept_blocks for lt in mat.trace.levels]
        if got != want or traced != want:
            gate.fail(f"prune {mat.name}: kept {got} (trace {traced}), expected {want}")
        elif not same_bits(rec, mat.dense):
            gate.fail(f"prune {mat.name}: reconstruction differs from kept input cells")
    return mats, rng


class InferWork:
    """``hbs_matmul`` of each matrix against a ``width``-column activation."""

    kind = "infer"

    def __init__(self, mats: list[Mat], width: int, rng: np.random.Generator):
        self.mats = mats
        self.dense64 = [mat.dense.astype(np.float64) for mat in mats]
        self.acts: dict[str, list[np.ndarray]] = {}
        for mat in mats:
            if mat.layer not in self.acts:
                k = mat.m.cols
                self.acts[mat.layer] = [
                    rng.standard_normal((k, width), dtype=np.float32) for _ in range(ACT_POOL)
                ]
        self.acts64 = {k: [a.astype(np.float64) for a in v] for k, v in self.acts.items()}
        self.oracle = [
            [d64 @ b64 for b64 in self.acts64[mat.layer]] for mat, d64 in zip(mats, self.dense64)
        ]
        self.reset()

    def reset(self) -> None:
        self.hbs_s = 0.0
        self.blas_s = 0.0
        self.max_err = 0.0

    def timed(self, j: int, cycle: int, tr):
        mat = self.mats[j]
        t0 = perf_counter()
        with tr.span("op.infer", mat.name):
            with tr.span("kernels.hbs_matmul", mat.name):
                y = hbs_matmul(mat.m, self.acts[mat.layer][cycle % ACT_POOL])
        return perf_counter() - t0, y

    def check(self, j: int, cycle: int, dt: float, y, tr) -> str | None:
        mat = self.mats[j]
        a = cycle % ACT_POOL
        # Dense baseline on the same product, outside the op.
        t1 = perf_counter()
        with tr.span("baseline.blas64", mat.name):
            self.dense64[j] @ self.acts64[mat.layer][a]
        self.blas_s += perf_counter() - t1
        self.hbs_s += dt
        err = rel_error(y, self.oracle[j][a])
        self.max_err = max(self.max_err, err)
        return None if err <= REL_TOL else f"relative error {err:.3g} > {REL_TOL:g}"


class CompressWork:
    """dmat round trip, prune, validate, hbsf round trip, reconstruct, retention."""

    kind = "compress"

    def __init__(self, mats: list[Mat], tmpdir: Path):
        self.mats = mats
        tmpdir.mkdir(parents=True, exist_ok=True)
        self.dmat_path = tmpdir / "w.dmat"
        self.hbsf_path = tmpdir / "w.hbsf"
        self.rewrite_path = tmpdir / "again.hbsf"
        self.hbsf_bytes = [0] * len(mats)
        self.retention: list[tuple[float, ...] | None] = [None] * len(mats)

    def reset(self) -> None:
        pass

    def timed(self, j: int, cycle: int, tr):
        mat = self.mats[j]
        t0 = perf_counter()
        with tr.span("op.compress", mat.name):
            with tr.span("io.write_dmat", mat.name):
                write_dmat(self.dmat_path, mat.w)
            with tr.span("io.read_dmat", mat.name):
                w = read_dmat(self.dmat_path)
            with tr.span("pruning.prune_hierarchical", mat.name):
                m, _ = prune_hierarchical(w, mat.config)
            with tr.span("core.validate", mat.name):
                report = validate(m)
            with tr.span("io.write_hbsf", mat.name):
                write_hbsf(self.hbsf_path, m)
            with tr.span("io.read_hbsf", mat.name):
                back = read_hbsf(self.hbsf_path)
            with tr.span("core.reconstruct", mat.name):
                rec = reconstruct(back)
            with tr.span("analysis.topk_retention", mat.name):
                ret = topk_retention(w, back, RETENTION_PCTS)
        return perf_counter() - t0, (w, report, back, rec, ret.retained)

    def check(self, j: int, cycle: int, dt: float, out, tr) -> str | None:
        w, report, back, rec, retained = out
        mat = self.mats[j]
        if not report.ok:
            return f"validate: {report.first_failure}"
        if not same_bits(w, mat.w):
            return "read_dmat did not return the written bits"
        if not np.array_equal(support_of(back), mat.mask):
            return "kept support differs from the set-up pruning"
        if not same_bits(rec, mat.dense):
            return "reconstruction: kept cells not bit-exact or dropped cells not 0.0"
        write_hbsf(self.rewrite_path, back)
        data = self.hbsf_path.read_bytes()
        if self.rewrite_path.read_bytes() != data:
            return "rewriting the read-back .hbsf changed its bytes"
        self.hbsf_bytes[j] = len(data)
        retained = tuple(retained)
        if len(retained) != len(RETENTION_PCTS) or not all(0.0 <= r <= 1.0 for r in retained):
            return f"retention out of range: {retained}"
        if self.retention[j] is None:
            self.retention[j] = retained
        elif self.retention[j] != retained:
            return f"retention changed between runs: {retained} vs {self.retention[j]}"
        return None


def setup(kind: str, seed: int, width: int, tmpdir: Path, tr, gate: Gate):
    """Inputs, pruning, files, oracle products and one warm-up op per matrix."""
    with tr.span("setup"):
        mats, rng = build_suite(seed, tr, gate)
        work = InferWork(mats, width, rng) if kind == "infer" else CompressWork(mats, tmpdir)
        for j in range(len(mats)):
            run_op(work, j, 0, tr, gate)
    work.reset()
    return work


@dataclass
class Loop:
    """Closed-loop results: completed op latencies and per-cycle totals.

    Times are kept raw and speed-scaled (equal when the loop ran without a
    host speed probe); each statistic takes ``scaled`` to pick one.
    """

    lat: list[tuple[int, float, float]] = field(default_factory=list)  # (matrix, s, scaled s)
    cycles: list[tuple[int, float, float]] = field(default_factory=list)  # (completed, s, scaled s)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0

    def ops_per_s(self, scaled: bool = True) -> float:
        """Median over cycles of completed ops per second of op time.

        Op time excludes the benchmark's own gate and baseline work; the
        median keeps a cycle that the host slowed from moving the figure.
        """
        k = 2 if scaled else 1
        return statistics.median(c[0] / c[k] for c in self.cycles)

    def _per_matrix(self, scaled: bool) -> list[list[float]]:
        k = 2 if scaled else 1
        per = defaultdict(list)
        for rec in self.lat:
            per[rec[0]].append(rec[k])
        return list(per.values())

    def latency_p50(self, scaled: bool = True) -> float:
        """Geometric mean over matrices of each matrix's median latency, s.

        The six matrices form separate latency groups; the plain median of
        the pooled samples falls in the gap between two groups and tracks
        their extreme samples, while this tracks their medians. The
        geometric mean weighs the same relative change in any matrix
        equally and lets all six steady the figure.
        """
        return _geomean(statistics.median(v) for v in self._per_matrix(scaled))

    def latency_tail(self, scaled: bool = True) -> tuple[float, int]:
        """``(seconds, samples beyond)``: geometric mean over matrices of
        each matrix's TAIL_PCT percentile latency, and how many samples lie
        beyond their own matrix's percentile.

        A percentile of the pooled samples falls in or near the gap between
        two latency groups, and moves when the groups trade places.
        """
        tails, beyond = [], 0
        for v in self._per_matrix(scaled):
            t = float(np.percentile(v, TAIL_PCT))
            tails.append(t)
            beyond += sum(x > t for x in v)
        return _geomean(tails), beyond


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_loop(work, seconds: float, tracers, gate: Gate, probe=None) -> list[Loop]:
    """One caller, complete cycles over the six matrices until ``seconds`` pass.

    Only whole cycles are run, so every matrix has the same number of
    samples and the latency mix does not depend on where time ran out.
    Cycle ``i`` runs under ``tracers[i % len(tracers)]`` and is counted in
    that tracer's loop, so an untraced and a traced loop can share one
    stretch of the host's time. A host speed ``probe``, if given, brackets
    every op and scales its time.
    """
    loops = [Loop() for _ in tracers]
    start = perf_counter()
    n_ops = 0
    for i in itertools.count():
        tr, loop = tracers[i % len(tracers)], loops[i % len(tracers)]
        done, secs, scaled_secs = 0, 0.0, 0.0
        for j in range(len(work.mats)):
            tr.op = f"loop:{n_ops}"
            n_ops += 1
            loop.attempted += 1
            dt, scaled, ok = run_op(work, j, len(loop.cycles), tr, gate, probe)
            secs += dt
            scaled_secs += scaled
            if ok:
                done += 1
                loop.lat.append((j, dt, scaled))
            else:
                loop.failed += 1
        loop.cycles.append((done, secs, scaled_secs))
        if perf_counter() - start >= seconds and i % len(tracers) == len(tracers) - 1:
            break
    for tr, loop in zip(tracers, loops):
        loop.wall = perf_counter() - start
        tr.op = None
    return loops


def retention_top10(mats: list[Mat], tr) -> float:
    """Mean top-10% retention over the six matrices (outside any timing)."""
    vals = []
    for mat in mats:
        with tr.span("analysis.topk_retention", mat.name):
            vals.append(topk_retention(mat.w, mat.m, (0.1,)).retained[0])
    return float(np.mean(vals))


def _repeat(fn) -> None:
    t0 = perf_counter()
    for _ in range(SWEEP_REPS):
        fn()
        if perf_counter() - t0 >= SWEEP_BUDGET_S:
            break


@dataclass
class SweepResult:
    compress: CompressWork
    table: IrfTable
    predicted: dict[str, float]  # matrix name -> estimate_cost speedup


def sweep(work, seed: int, width: int, tmpdir: Path, tr, gate: Gate) -> SweepResult:
    """Traced pass over every layer, whatever the workload exercises.

    Per matrix: the workload-width product with its BLAS float64 and
    float32 baselines and the reference loop ``dense_matmul``; one
    ``validate``; each stored level alone as a one-level matrix; and one
    compress op. Then one ``calibrate_irf`` over the suite's shapes and
    sparsities, and ``estimate_cost`` per matrix.
    """
    mats = work.mats
    infer = work if work.kind == "infer" else InferWork(mats, width, np.random.default_rng([seed, 1]))
    compress = work if work.kind == "compress" else CompressWork(mats, tmpdir)
    n = 0

    def op_id() -> str:
        nonlocal n
        n += 1
        return f"sweep:{n}"

    for j, mat in enumerate(mats):
        tr.op = op_id()
        _repeat(lambda: run_op(infer, j, 0, tr, gate))
        b32, b64 = infer.acts[mat.layer][0], infer.acts64[mat.layer][0]
        _repeat(lambda: _span_call(tr, "baseline.blas32", mat.name, lambda: mat.dense @ b32))
        _repeat(lambda: _span_call(tr, "baseline.blas64", mat.name, lambda: infer.dense64[j] @ b64))
        _repeat(lambda: _span_call(tr, "core.validate", mat.name, lambda: validate(mat.m)))
        gate.attempted += 1
        with tr.span("kernels.dense_matmul", mat.name):
            ref = dense_matmul(mat.dense, b32)
        err = rel_error(ref, infer.oracle[j][0])
        if err > REL_TOL:
            gate.fail(f"dense_matmul {mat.name}: relative error {err:.3g}")
        for lv in mat.m.levels:
            one = HBSMatrix(mat.m.rows, mat.m.cols, (lv,))
            want = np.where(support_of(one), mat.dense, np.float32(0.0)).astype(np.float64) @ b64
            _repeat(lambda: _level_op(one, f"{mat.name}@{lv.shape}", b32, want, tr, gate))
        tr.op = op_id()
        run_op(compress, j, 0, tr, gate)

    tr.op = op_id()
    shapes = sorted({s.shape for mat in mats for s in mat.config.levels}, key=lambda s: (-s.bh, -s.bw))
    sparsities = sorted({s.sparsity for mat in mats for s in mat.config.levels})
    plan = BenchPlan((*CALIBRATION_MK, width), reps=3, warmup=1, seed=seed)
    with tr.span("perf.calibrate_irf"):
        table = calibrate_irf(shapes, sparsities, plan)
    predicted = {}
    for mat in mats:
        with tr.span("perf.estimate_cost", mat.name):
            est = estimate_cost((mat.m.rows, mat.m.cols, width), mat.config, table)
        predicted[mat.name] = est.speedup
    tr.op = None
    return SweepResult(compress, table, predicted)


def _span_call(tr, name: str, mat: str, fn) -> None:
    with tr.span(name, mat):
        fn()


def _level_op(one: HBSMatrix, label: str, b32, want64, tr, gate: Gate) -> None:
    gate.attempted += 1
    with tr.span("kernels.hbs_matmul", label):
        y = hbs_matmul(one, b32)
    err = rel_error(y, want64)
    if err > REL_TOL:
        gate.fail(f"{label}: relative error {err:.3g}")
