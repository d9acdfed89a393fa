"""Cost model and irregularity-factor calibration.

Dense cost is raw FLOPs. Each sparse level's cost is its FLOPs divided by
an irregularity factor irf(sparsity, block shape) in (0, 1]: the efficiency
of that sparse configuration relative to dense throughput on the machine at
hand. Speedup is the ratio of the dense cost to the cheaper of the two
costs, reported beside the sparse-only ratio; which product
:func:`~hbs.kernels.hbs_matmul` runs is its own rule's choice, which
``hbs matmul --oracle`` names. irf values are measured with microbenchmarks
(:func:`calibrate_irf`, which times the sparse product itself) or supplied,
for example read from an ``.irf`` file; the table remembers which.

HBS-IRF layout: ASCII lines of blank-separated fields; blank lines are
skipped. Header ``HBS-IRF v1 <calibrated|analytic>``, then one
``bh bw sparsity irf`` line per (block shape, sparsity bucket)::

    bh, bw          [+-]digits                          integers >= 1
    sparsity, irf   [+-]decimal[(e|E)[+-]digits]        in [0, 1] and (0, 1]
    decimal         digits[.[digits]] | .digits

``digits`` are ASCII ``0``-``9`` with no ``_`` groups; ``inf``, ``infinity``
and ``nan``, in any case, parse and fail the ranges. The sparsity picks its
bucket (:func:`sparsity_bucket`). Written files hold the exact bucket
fraction, lines sorted by (bh, bw, bucket), floats in shortest round-trip
form, so canonical files are byte-stable. Each entry read from a file passes
the one rule :class:`IrfTable` applies to every entry. Files are written by
the binary formats' writer (:mod:`hbs.io`), in place with the magic
written last: an unfinished write leaves seven zero bytes where
``HBS-IRF`` goes, which reads refuse with ``MagicError``.
"""

from __future__ import annotations

import re
import statistics
import time
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .core import (
    BlockShape, HBSConfig, _as_fraction, _as_int, _as_real, _parse_number, _require, grid_dims
)
from .errors import (
    CalibrationError, ConfigError, FormatError, IrfLookupError, MagicError, VersionError
)
from .io import _write
from .kernels import _plan_product, dense_matmul, flops_dense, flops_sparse
from .pruning import prune_hierarchical, round_half_up

# Sparsity keys are bucketized to this many steps across [0, 1].
SPARSITY_BUCKETS = 64

# Smallest believable per-call wall time. Below this, scheduler and timer
# granularity dominate the measurement.
MIN_MEASURABLE_SECONDS = 1e-5

PROVENANCE_CALIBRATED = "calibrated"
PROVENANCE_ANALYTIC = "analytic"
_PROVENANCES = (PROVENANCE_CALIBRATED, PROVENANCE_ANALYTIC)
IRF_MAGIC = "HBS-IRF"
IRF_VERSION = "v1"
_BLANKS = re.compile(r"[ \t]+")

# Floor for calibrated irf: the contract range (0, 1] has no minimum, and a
# meaningless near-zero throughput ratio must still produce a usable entry.
_IRF_FLOOR = 1e-9


def sparsity_bucket(sparsity: float) -> int:
    """Bucket index of a sparsity fraction, 0..SPARSITY_BUCKETS."""
    sparsity = _as_fraction(sparsity, "sparsity", ValueError)
    return round_half_up(sparsity * SPARSITY_BUCKETS)


def _irf_entry(key, irf) -> tuple[tuple[BlockShape, int], float]:
    """``((shape, bucket), irf)`` in Python numbers, for write_irf's repr;
    ``ValueError`` unless ``key`` is a ``(shape, bucket)`` pair of a
    BlockShape and an integer in 0..SPARSITY_BUCKETS, and ``irf`` a real
    number in (0, 1]."""
    if not isinstance(key, tuple) or len(key) != 2:
        raise ValueError(f"key must be a (BlockShape, bucket) pair, got {key!r}")
    shape = _require(key[0], BlockShape, "key shape")
    bucket = _as_int(key[1], "bucket", ValueError, low=0, high=SPARSITY_BUCKETS)
    irf = _as_real(irf, "irf", ValueError)
    if not 0.0 < irf <= 1.0:
        raise ValueError(f"irf for {shape} bucket {bucket} must be in (0, 1], {irf!r} is outside")
    return (shape, bucket), irf


@dataclass(frozen=True)
class IrfTable:
    """Irregularity factors keyed by (block shape, sparsity bucket).

    ``entries`` is a read-only map from ``(BlockShape, bucket_index)`` to an
    irf in (0, 1].
    Lookups for a known shape fall back to the nearest populated bucket
    (ties take the lower bucket); an unknown shape is an error.
    """

    entries: Mapping[tuple[BlockShape, int], float]
    provenance: str

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        _require(self.entries, Mapping, "entries")
        entries = dict(_irf_entry(key, irf) for key, irf in self.entries.items())
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def __reduce__(self):
        # A mappingproxy neither copies nor pickles, so both rebuild the table.
        return IrfTable, (dict(self.entries), self.provenance)

    def lookup(self, shape: BlockShape, sparsity: float) -> float:
        """irf for (shape, sparsity), falling back to the nearest bucket.

        Raises:
            ConfigError: If ``shape`` is not a :class:`~hbs.core.BlockShape`.
            IrfLookupError: If the shape has no entries at all.
        """
        _require(shape, BlockShape, "shape", ConfigError)
        want = sparsity_bucket(sparsity)
        buckets = [b for s, b in self.entries if s == shape]
        if not buckets:
            raise IrfLookupError(f"no irf entries for block shape {shape}")
        nearest = min(buckets, key=lambda b: (abs(b - want), b))
        return self.entries[(shape, nearest)]


def write_irf(path, table: IrfTable) -> None:
    """Write an IrfTable in canonical form: sorted, shortest float repr.

    The file is written as :func:`~hbs.io.write_dmat` writes: in place,
    with ``HBS-IRF`` written last, so a write that stops part-way leaves a
    file that :func:`read_irf` refuses with ``MagicError``; a refused
    ``table`` leaves an existing file untouched.

    Raises:
        ValueError: If ``table`` is not an :class:`IrfTable`.
    """
    _require(table, IrfTable, "table")
    lines = [f"{IRF_MAGIC} {IRF_VERSION} {table.provenance}"]
    rows = sorted((s.bh, s.bw, b, irf) for (s, b), irf in table.entries.items())
    lines += [f"{bh} {bw} {b / SPARSITY_BUCKETS!r} {irf!r}" for bh, bw, b, irf in rows]
    text = "\n".join(lines).encode("ascii") + b"\n"
    magic = IRF_MAGIC.encode("ascii")
    _write(path, magic, (text[len(magic) :],))


def read_irf(path) -> IrfTable:
    """Read an HBS-IRF text file.

    Raises:
        MagicError, VersionError, FormatError: On a malformed file.
    """
    path = Path(path)
    # Lines end at "\n" only (read_text would end them at a lone "\r" too),
    # and a "\r" just before it is dropped. Fields are split on spaces and
    # tabs only: str.split() would also split on \x0b, \x0c and \x1c-\x1f.
    lines = path.read_bytes().decode("ascii", errors="replace").split("\n")
    for lineno, line in enumerate(lines, 1):
        if "\ufffd" in line:
            raise FormatError(f"{path}:{lineno}: non-ASCII byte, {IRF_MAGIC} files are ASCII")
    stripped = (ln.removesuffix("\r").strip(" \t") for ln in lines)
    rows = [(lineno, line) for lineno, line in enumerate(stripped, 1) if line]
    if not rows:
        raise MagicError(f"{path}: empty file, expected an {IRF_MAGIC} header")
    _, header = rows[0]
    fields = _BLANKS.split(header)
    if fields[0] != IRF_MAGIC:
        raise MagicError(f"{path}: not an {IRF_MAGIC} file (header starts {fields[0]!r})")
    if len(fields) < 2 or fields[1] != IRF_VERSION:
        got = fields[1] if len(fields) > 1 else "<missing>"
        raise VersionError(f"{path}: unsupported version {got}, expected {IRF_VERSION}")
    if len(fields) != 3 or fields[2] not in _PROVENANCES:
        names = " or ".join(map(repr, _PROVENANCES))
        raise FormatError(f"{path}: header must end with {names}, got {header!r}")
    entries: dict[tuple[BlockShape, int], float] = {}
    for lineno, line in rows[1:]:
        parts = _BLANKS.split(line)
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 'bh bw sparsity irf', got {line!r}")
        try:
            bh = _parse_number(parts[0], int, "block bh", ValueError)
            bw = _parse_number(parts[1], int, "block bw", ValueError)
            sparsity = _parse_number(parts[2], float, "sparsity", ValueError)
            irf = _parse_number(parts[3], float, "irf", ValueError)
            key, irf = _irf_entry((BlockShape(bh, bw), sparsity_bucket(sparsity)), irf)
        except ValueError as e:
            raise FormatError(f"{path}:{lineno}: {e}") from None
        if key in entries:
            raise FormatError(f"{path}:{lineno}: duplicate entry for {key[0]} bucket {key[1]}")
        entries[key] = irf
    return IrfTable(entries, fields[2])


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
    divided by its irf). ``speedup`` is that of the cheaper product by the
    model: ``c_dense / min(c_sparse, c_dense)``, so 1.0 where the sparse
    cost exceeds the dense one, and infinite when every level is fully
    sparse. :func:`~hbs.kernels.hbs_matmul` picks the product that runs by
    ``kernels._dense_rule``, and ``hbs matmul --oracle`` names it; it is not
    always the model's cheaper one (the README's ``estimate_cost``
    paragraph gives two layers).
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
        sparse_only = self.c_dense / self.c_sparse if self.c_sparse > 0.0 else float("inf")
        lines.append(f"sparse-only speedup: {sparse_only:.4f}")
        lines.append(f"speedup: {self.speedup:.4f}")
        return "\n".join(lines)


def _mkn(dims, name: str, low: int) -> tuple[int, int, int]:
    """``dims`` as three Python ints ``(m, k, n)``; ``ValueError`` naming
    ``name`` unless it is a sequence of three integers, each at least ``low``."""
    try:
        m, k, n = dims
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be (m, k, n), got {dims!r}") from None
    return tuple(_as_int(d, f"{name} entry", ValueError, low) for d in (m, k, n))


def estimate_cost(
    layer_dims: tuple[int, int, int], config: HBSConfig, irf: IrfTable
) -> CostEstimate:
    """Model the cost of an (m x k) @ (k x n) layer pruned per ``config``.

    Dense cost is ``2*m*k*n`` FLOPs. Level i contributes
    ``(1 - sparsity_i) * dense_flops / irf_i``. FLOPs come from the config's
    grid fractions, not from any particular matrix, so the estimate is
    matrix independent. The speedup is that of the cheaper product by the
    model, not of the product :func:`~hbs.kernels.hbs_matmul` picks;
    ``c_sparse`` and ``per_level`` stay the sparse product's.

    Raises:
        ValueError: If ``layer_dims`` is not three non-negative integers,
            or ``irf`` is not an :class:`IrfTable`.
        ConfigError: If ``config`` is not an :class:`~hbs.core.HBSConfig`.
    """
    c_dense = flops_dense(*_mkn(layer_dims, "layer_dims", 0))
    _require(config, HBSConfig, "config", ConfigError)
    _require(irf, IrfTable, "irf")
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
    c_run = min(c_sparse, c_dense)
    speedup = c_dense / c_run if c_run > 0.0 else float("inf")
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
        object.__setattr__(self, "dims", _mkn(self.dims, "dims", 1))
        for name, low in (("reps", 1), ("warmup", 0), ("seed", 0)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, ValueError, low))


def _median_seconds(calls: dict, plan: BenchPlan) -> list[float]:
    """Median wall time of each of ``calls`` (label to function), in order.

    Within every warmup and timed repetition the calls run one after the
    other, so all of them see the same host state; a host that changes
    speed mid-run shifts every median alike instead of one of them.
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
    return [statistics.median(ts) for ts in times.values()]


def _measurable_floor() -> float:
    """Shortest median, in seconds, that counts as a measurement:
    ``MIN_MEASURABLE_SECONDS``, or 1000 ticks of the timer where that is
    longer."""
    return max(MIN_MEASURABLE_SECONDS, 1000.0 * time.get_clock_info("perf_counter").resolution)


def calibrate_irf(shapes, sparsities, plan: BenchPlan) -> IrfTable:
    """Measure irf for every (shape, sparsity) pair with microbenchmarks.

    For each pair, a seeded random matrix is pruned to a single level at
    that configuration and the block sparse product, by the matrix's
    execution plan even where :func:`~hbs.kernels.hbs_matmul` would run it
    densely, is timed against the dense (BLAS) product on the same
    (m, k, n) problem, one dense and one sparse call per repetition. irf is
    the sparse kernel's efficiency. The entry is the ratio of the two achieved
    FLOP/s medians, clamped to (0, 1]. Requires exclusive use of the
    machine's timing context; do not run concurrently with other
    benchmarks.

    Raises:
        CalibrationError: When a timing falls below the measurable floor.
        ConfigError: When a shape is not a :class:`~hbs.core.BlockShape`.
        DimensionError: When a shape does not tile (m, k).
        ValueError: When ``sparsities`` is a string, a sparsity is not a
            real number in [0, 1], or ``plan`` is not a :class:`BenchPlan`.
    """
    _require(plan, BenchPlan, "plan")
    m, k, n = plan.dims
    shapes = list(shapes)
    if isinstance(sparsities, (str, bytes)):
        raise ValueError(f"sparsities: expected numbers, got {type(sparsities).__name__}")
    sparsities = [_as_real(s, "sparsity", ValueError) for s in sparsities]
    buckets = [sparsity_bucket(s) for s in sparsities]
    for shape in shapes:
        _require(shape, BlockShape, "shapes entry", ConfigError)
        grid_dims(m, k, shape)

    rng = np.random.default_rng(plan.seed)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    f_dense = flops_dense(m, k, n)

    floor = _measurable_floor()
    entries: dict[tuple[BlockShape, int], float] = {}
    for shape in shapes:
        for sp, bucket in zip(sparsities, buckets):
            w = rng.standard_normal((m, k), dtype=np.float32)
            hbs, _ = prune_hierarchical(w, HBSConfig.of((shape, sp)))
            calls = {
                f"dense {m}x{k}x{n} matmul": lambda: dense_matmul(a, b),
                f"sparse {shape} sp={sp:g} matmul": lambda: _plan_product(hbs, b),
            }
            t_dense, t_sparse = meds = _median_seconds(calls, plan)
            for what, med in zip(calls, meds):
                if med < floor:
                    raise CalibrationError(
                        f"{what} ran in {med:.3g}s, below the measurable floor {floor:.3g}s; "
                        "increase the problem size (n) or repetitions"
                    )
            irf = (flops_sparse(hbs, n) / t_sparse) / (f_dense / t_dense)
            entries[(shape, bucket)] = float(min(max(irf, _IRF_FLOOR), 1.0))
    return IrfTable(entries, PROVENANCE_CALIBRATED)
