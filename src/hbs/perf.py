"""Cost model and irregularity-factor calibration.

Dense cost is raw FLOPs. Each sparse level's cost is its FLOPs divided by
an irregularity factor irf(sparsity, block shape) in (0, 1]: the efficiency
of that sparse configuration relative to dense throughput on the machine at
hand. Speedup is the dense-to-sparse cost ratio. irf values are measured with
microbenchmarks (:func:`calibrate_irf`) or supplied, for example read from
an ``.irf`` file; the table remembers which.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .core import BlockShape, HBSConfig, _as_int, _as_real, grid_dims
from .errors import CalibrationError, IrfLookupError
from .kernels import dense_matmul, flops_dense, flops_sparse, hbs_matmul
from .pruning import prune_hierarchical, round_half_up

# Sparsity keys are bucketized to this many steps across [0, 1].
SPARSITY_BUCKETS = 64

# Smallest believable per-call wall time. Below this, scheduler and timer
# granularity dominate the measurement.
MIN_MEASURABLE_SECONDS = 1e-5

PROVENANCE_CALIBRATED = "calibrated"
PROVENANCE_ANALYTIC = "analytic"

# Floor for calibrated irf: the contract range (0, 1] has no minimum, and a
# meaningless near-zero throughput ratio must still produce a usable entry.
_IRF_FLOOR = 1e-9


def sparsity_bucket(sparsity: float) -> int:
    """Bucket index of a sparsity fraction, 0..SPARSITY_BUCKETS."""
    sparsity = _as_real(sparsity, "sparsity", ValueError)
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity!r}")
    return round_half_up(sparsity * SPARSITY_BUCKETS)


@dataclass(frozen=True)
class IrfTable:
    """Irregularity factors keyed by (block shape, sparsity bucket).

    ``entries`` maps ``(BlockShape, bucket_index)`` to an irf in (0, 1].
    Lookups for a known shape fall back to the nearest populated bucket
    (ties take the lower bucket); an unknown shape is an error.
    """

    entries: dict[tuple[BlockShape, int], float]
    provenance: str

    def __post_init__(self):
        if self.provenance not in (PROVENANCE_CALIBRATED, PROVENANCE_ANALYTIC):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        for (shape, bucket), irf in self.entries.items():
            if not isinstance(shape, BlockShape):
                raise ValueError(f"bad key shape {shape!r}")
            if not 0 <= bucket <= SPARSITY_BUCKETS:
                raise ValueError(f"bucket {bucket} out of range for {shape}")
            if not 0.0 < irf <= 1.0:
                raise ValueError(f"irf {irf!r} for {shape} bucket {bucket} not in (0, 1]")

    def lookup(self, shape: BlockShape, sparsity: float) -> float:
        """irf for (shape, sparsity), falling back to the nearest bucket.

        Raises:
            IrfLookupError: If the shape has no entries at all.
        """
        want = sparsity_bucket(sparsity)
        hit = self.entries.get((shape, want))
        if hit is not None:
            return hit
        buckets = sorted(b for s, b in self.entries if s == shape)
        if not buckets:
            raise IrfLookupError(f"no irf entries for block shape {shape}")
        nearest = min(buckets, key=lambda b: (abs(b - want), b))
        return self.entries[(shape, nearest)]


@dataclass(frozen=True)
class LevelCost:
    """Cost breakdown of one level: FLOPs, irf, and effective contribution."""

    shape: BlockShape
    sparsity: float
    flops: float
    irf: float
    contribution: float


@dataclass(frozen=True)
class CostEstimate:
    """Dense vs sparse cost of one layer and the resulting speedup.

    ``c_sparse`` is the sum of per-level contributions (each level's FLOPs
    divided by its irf); ``speedup`` is ``c_dense / c_sparse``, infinite
    when every level is fully sparse.
    """

    c_dense: float
    c_sparse: float
    per_level: tuple[LevelCost, ...]
    speedup: float

    def render(self) -> str:
        lines = [f"dense cost: {self.c_dense:.6g} FLOPs"]
        for i, lc in enumerate(self.per_level):
            lines.append(
                f"level {i + 1}: {str(lc.shape):>7s} sparsity {lc.sparsity:<8g} "
                f"flops {lc.flops:.6g}  irf {lc.irf:.4f}  cost {lc.contribution:.6g}"
            )
        lines.append(f"sparse cost: {self.c_sparse:.6g}")
        lines.append(f"speedup: {self.speedup:.4f}" if np.isfinite(self.speedup) else "speedup: inf")
        return "\n".join(lines)


def estimate_cost(
    layer_dims: tuple[int, int, int], config: HBSConfig, irf: IrfTable
) -> CostEstimate:
    """Model the cost of an (m x k) @ (k x n) layer pruned per ``config``.

    Dense cost is ``2*m*k*n`` FLOPs. Level i contributes
    ``(1 - sparsity_i) * dense_flops / irf_i``. FLOPs come from the config's
    grid fractions, not from any particular matrix, so the estimate is
    matrix independent.
    """
    m, k, n = layer_dims
    c_dense = flops_dense(m, k, n)
    per_level = []
    c_sparse = 0.0
    for spec in config.levels:
        level_flops = spec.density * c_dense
        level_irf = irf.lookup(spec.shape, spec.sparsity)
        contribution = level_flops / level_irf
        per_level.append(
            LevelCost(spec.shape, spec.sparsity, level_flops, level_irf, contribution)
        )
        c_sparse += contribution
    speedup = c_dense / c_sparse if c_sparse > 0.0 else float("inf")
    return CostEstimate(float(c_dense), c_sparse, tuple(per_level), speedup)


@dataclass(frozen=True)
class BenchPlan:
    """Microbenchmark protocol: problem size, repetitions, warmup, seed.

    The timing rule is fixed warmup calls followed by the median of the
    timed repetitions; the median resists scheduler noise. Calls that are
    compared run alternately within each repetition. The random
    workload matrices are drawn from ``seed``, so reruns time identical
    inputs.
    """

    dims: tuple[int, int, int]
    reps: int = 5
    warmup: int = 2
    seed: int = 0

    def __post_init__(self):
        try:
            m, k, n = self.dims
        except (TypeError, ValueError):
            raise ValueError(f"dims must be (m, k, n), got {self.dims!r}") from None
        dims = tuple(_as_int(d, "dims entry", ValueError) for d in (m, k, n))
        if min(dims) < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        object.__setattr__(self, "dims", dims)
        for name in ("reps", "warmup", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, ValueError))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")


def _median_seconds(calls: dict, plan: BenchPlan) -> list[float]:
    """Median wall time of each of ``calls`` (label to function), in order.

    Within every warmup and timed repetition the calls run one after the
    other, so all of them see the same host state; a host that changes
    speed mid-run shifts every median alike instead of one of them.

    Raises:
        CalibrationError: Naming the first call whose median falls below
            the measurable floor.
    """
    for _ in range(plan.warmup):
        for fn in calls.values():
            fn()
    times = {what: [] for what in calls}
    for _ in range(plan.reps):
        for what, fn in calls.items():
            t0 = time.perf_counter()
            fn()
            times[what].append(time.perf_counter() - t0)
    floor = max(MIN_MEASURABLE_SECONDS, 1000.0 * time.get_clock_info("perf_counter").resolution)
    meds = []
    for what, ts in times.items():
        med = statistics.median(ts)
        if med < floor:
            raise CalibrationError(
                f"{what} ran in {med:.3g}s, below the measurable floor {floor:.3g}s; "
                "increase the problem size (n) or repetitions"
            )
        meds.append(med)
    return meds


def calibrate_irf(shapes, sparsities, plan: BenchPlan) -> IrfTable:
    """Measure irf for every (shape, sparsity) pair with microbenchmarks.

    For each pair, a seeded random matrix is pruned to a single level at
    that configuration and the block sparse product is timed against the
    dense (BLAS) product on the same (m, k, n) problem, one dense and one
    sparse call per repetition. The entry is the ratio of the two achieved
    FLOP/s medians, clamped to (0, 1]. Requires exclusive use of the
    machine's timing context; do not run concurrently with other
    benchmarks.

    Raises:
        CalibrationError: When a timing falls below the measurable floor.
        DimensionError: When a shape does not tile (m, k).
        ValueError: When a sparsity is not a real number in [0, 1].
    """
    m, k, n = plan.dims
    shapes = list(shapes)
    sparsities = [_as_real(s, "sparsity", ValueError) for s in sparsities]
    buckets = [sparsity_bucket(s) for s in sparsities]
    for shape in shapes:
        grid_dims(m, k, shape)

    rng = np.random.default_rng(plan.seed)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    f_dense = flops_dense(m, k, n)

    entries: dict[tuple[BlockShape, int], float] = {}
    for shape in shapes:
        for sp, bucket in zip(sparsities, buckets):
            w = rng.standard_normal((m, k), dtype=np.float32)
            hbs, _ = prune_hierarchical(w, HBSConfig.of((shape, sp)))
            t_dense, t_sparse = _median_seconds(
                {
                    f"dense {m}x{k}x{n} matmul": lambda: dense_matmul(a, b),
                    f"sparse {shape} sp={sp:g} matmul": lambda: hbs_matmul(hbs, b),
                },
                plan,
            )
            irf = (flops_sparse(hbs, n) / t_sparse) / (f_dense / t_dense)
            entries[(shape, bucket)] = float(min(max(irf, _IRF_FLOOR), 1.0))
    return IrfTable(entries, PROVENANCE_CALIBRATED)
