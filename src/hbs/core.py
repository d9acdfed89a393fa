"""Hierarchical block sparse (HBS) matrix data model.

An HBS matrix is a sum of block sparse levels over one rows x cols grid.
Each level tiles the matrix exactly with its own block shape, every level's
block shape divides the previous level's shape evenly on both axes, and the
kept blocks of different levels never overlap: each matrix cell is owned by
at most one level. Cells covered by no level are zero.

This module defines the immutable structures (:class:`BlockShape`,
:class:`LevelSpec`, :class:`HBSConfig`, :class:`BlockSparseLevel`,
:class:`HBSMatrix`), the invariant report :func:`validate`, and the basic
whole-matrix views :func:`reconstruct`, :func:`density` and
:func:`support_mask`. An invalid :class:`HBSMatrix` cannot be built: the
constructor runs the checks once and raises :class:`ValidationError`,
whose ``report`` is the full :class:`ValidationReport`. Levels copy and
freeze their arrays, so a built matrix stays valid and no consumer checks
it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, ValidationError

# Float slack for the cumulative-density bound, which is a sum of user
# supplied fractions.
_DENSITY_SLACK = 1e-9

# Matrix and grid dimensions must be below this: ``.hbsf`` headers hold
# them as uint32, and it keeps every row-major block index below 2^64.
_DIM_LIMIT = 2**32


def as_matrix(values, *, check_finite: bool = True) -> np.ndarray:
    """Return ``values`` as a C-contiguous float32 2-D array.

    Args:
        values: Anything ``np.asarray`` accepts; must be two dimensional.
        check_finite: Reject NaN and infinity when True.

    Raises:
        DimensionError: If the input is not two dimensional, or has no rows
            or no columns.
        ValueError: If ``check_finite`` and a non-finite value is present.
    """
    arr = np.ascontiguousarray(values, dtype=np.float32)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {arr.ndim} dimension(s)")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix must be non-empty, got {rows}x{cols}")
    if check_finite and not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite values")
    return arr


def _own(values, dtype) -> np.ndarray:
    """Return a frozen, C-contiguous private copy of ``values`` as ``dtype``.

    Always copies: a caller holding the input could otherwise turn its
    ``writeable`` flag back on and change a level after it was validated.
    """
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def _as_int(value, what: str, error: type[Exception]) -> int:
    """``value`` as a Python int; ``error`` unless it is an int or a numpy
    integer. ``bool`` is refused, so ``True`` cannot pass for 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def _as_real(value, what: str, error: type[Exception]) -> float:
    """``value`` as a Python float; ``error`` unless it is an int, a float or
    a numpy real. ``bool`` is refused, so ``True`` cannot pass for 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{what} must be a real number, got {value!r}")
    return float(value)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the ``k`` largest entries of 1-D ``scores``.

    Ties at the cut go to the lower index, so the result equals the first
    ``k`` of a stable descending sort, found by selection in linear time.
    ``k >= n`` keeps everything; ``k <= 0`` keeps nothing.
    """
    n = scores.shape[0]
    if k >= n:
        return np.arange(n)
    if k <= 0:
        return np.arange(0)
    cut = np.partition(scores, n - k)[n - k]
    keep = scores > cut
    ties = np.flatnonzero(scores == cut)
    keep[ties[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def _row_major(rows: np.ndarray, cols: np.ndarray, grid_cols: int) -> np.ndarray:
    """uint64 row-major flat index of in-grid int64 coordinates: exact, as
    grid dimensions are below ``_DIM_LIMIT`` and so the index is below 2^64."""
    flat = rows.view(np.uint64) * np.uint64(grid_cols)
    flat += cols.view(np.uint64)
    return flat


@dataclass(frozen=True)
class BlockShape:
    """Block dimensions of one sparsity level: ``bh`` rows by ``bw`` columns."""

    bh: int
    bw: int

    def __post_init__(self):
        for name in ("bh", "bw"):
            v = _as_int(getattr(self, name), f"block {name}", ConfigError)
            if v < 1:
                raise ConfigError(f"block {name} must be >= 1, got {v}")
            object.__setattr__(self, name, v)

    @property
    def area(self) -> int:
        return self.bh * self.bw

    def divides(self, coarser: "BlockShape") -> bool:
        """True if this shape evenly divides ``coarser`` on both axes."""
        return coarser.bh % self.bh == 0 and coarser.bw % self.bw == 0

    @classmethod
    def parse(cls, text: str) -> "BlockShape":
        """Parse ``"<bh>x<bw>"``, e.g. ``"32x1"``."""
        parts = text.strip().split("x")
        if len(parts) != 2:
            raise ConfigError(f"bad block shape {text!r}, expected <bh>x<bw>")
        try:
            bh, bw = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"bad block shape {text!r}, expected <bh>x<bw>") from None
        return cls(bh, bw)

    def __str__(self) -> str:
        return f"{self.bh}x{self.bw}"


def hierarchy_violation(index: int, coarse: BlockShape, fine: BlockShape) -> str | None:
    """Divisibility failure message between consecutive levels, or None.

    ``index`` is the 0-based position of the coarser level; messages use
    1-based level numbers. The same wording is used by config construction
    and by :func:`validate` so both surfaces report identically.
    """
    if fine.divides(coarse):
        return None
    if coarse.bh % fine.bh != 0:
        axis, a, b = "rows", coarse.bh, fine.bh
    else:
        axis, a, b = "cols", coarse.bw, fine.bw
    return (
        f"level {index + 2} block {fine} does not evenly divide "
        f"level {index + 1} block {coarse} ({a} % {b} != 0 on {axis})"
    )


@dataclass(frozen=True)
class LevelSpec:
    """One step of a pruning plan: prune ``sparsity`` of the full grid at ``shape``.

    The sparsity is the fraction of the whole matrix's grid blocks pruned at
    this level, not a fraction of whatever the previous levels left behind.
    """

    shape: BlockShape
    sparsity: float

    def __post_init__(self):
        if not isinstance(self.shape, BlockShape):
            raise ConfigError(f"level shape must be a BlockShape, got {self.shape!r}")
        sp = _as_real(self.sparsity, "sparsity", ConfigError)
        if not np.isfinite(sp) or sp < 0.0 or sp > 1.0:
            hint = ""
            if np.isfinite(sp) and sp > 1.0:
                hint = " (sparsities are fractions in [0, 1], not percentages)"
            raise ConfigError(f"sparsity must be in [0, 1], got {self.sparsity!r}{hint}")
        object.__setattr__(self, "sparsity", sp)

    @property
    def density(self) -> float:
        return 1.0 - self.sparsity

    def __str__(self) -> str:
        return f"{self.shape}:{self.sparsity:g}"


@dataclass(frozen=True)
class HBSConfig:
    """Ordered pruning plan: one (block shape, sparsity) pair per level.

    Invariants, enforced at construction:
      * at least one level;
      * each level's shape divides the previous level's shape evenly;
      * the cumulative density ``sum(1 - sparsity_k)`` does not exceed 1.
    """

    levels: tuple[LevelSpec, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ConfigError("config needs at least one level")
        for lv in levels:
            if not isinstance(lv, LevelSpec):
                raise ConfigError(f"expected LevelSpec, got {type(lv).__name__}")
        for i in range(len(levels) - 1):
            msg = hierarchy_violation(i, levels[i].shape, levels[i + 1].shape)
            if msg is not None:
                raise ConfigError(msg)
        object.__setattr__(self, "levels", levels)
        total = self.cumulative_density
        if total > 1.0 + _DENSITY_SLACK:
            raise ConfigError(
                f"cumulative density {total:g} exceeds 1 (level densities "
                f"{[lv.density for lv in levels]})"
            )

    @property
    def cumulative_density(self) -> float:
        """Total planned density ``sum(1 - sparsity_k)`` over the levels."""
        return sum(lv.density for lv in self.levels)

    @classmethod
    def of(cls, *pairs: tuple) -> "HBSConfig":
        """Build from ``(bh, bw, sparsity)`` or ``(BlockShape, sparsity)`` tuples."""
        levels = []
        for p in pairs:
            if not isinstance(p, (tuple, list)) or len(p) not in (2, 3):
                raise ConfigError(
                    f"level must be (bh, bw, sparsity) or (BlockShape, sparsity), got {p!r}"
                )
            if len(p) == 3:
                levels.append(LevelSpec(BlockShape(p[0], p[1]), p[2]))
            else:
                levels.append(LevelSpec(p[0], p[1]))
        return cls(tuple(levels))

    @classmethod
    def parse(cls, text: str) -> "HBSConfig":
        """Parse a comma list of ``<bh>x<bw>:<sparsity>`` entries.

        Example: ``"32x1:0.75,16x1:0.875,1x1:0.96875"``.
        """
        entries = [e for e in text.split(",") if e.strip()]
        if not entries:
            raise ConfigError(f"empty level spec {text!r}")
        levels = []
        for entry in entries:
            head, sep, tail = entry.strip().partition(":")
            if not sep:
                raise ConfigError(f"bad level spec {entry!r}, expected <bh>x<bw>:<sparsity>")
            shape = BlockShape.parse(head)
            try:
                sparsity = float(tail)
            except ValueError:
                raise ConfigError(f"bad sparsity {tail!r} in level spec {entry!r}") from None
            levels.append(LevelSpec(shape, sparsity))
        return cls(tuple(levels))

    def __str__(self) -> str:
        return ",".join(str(lv) for lv in self.levels)


def grid_dims(rows: int, cols: int, shape: BlockShape) -> tuple[int, int]:
    """Grid dimensions of a rows x cols matrix tiled by ``shape``.

    Raises:
        DimensionError: Naming the offending axis when a dimension is not
            divisible by the block dimension.
    """
    if rows % shape.bh != 0:
        raise DimensionError(f"rows ({rows}) not divisible by block height {shape.bh}")
    if cols % shape.bw != 0:
        raise DimensionError(f"cols ({cols}) not divisible by block width {shape.bw}")
    return rows // shape.bh, cols // shape.bw


@dataclass(frozen=True, eq=False)
class BlockSparseLevel:
    """Kept blocks of one shape on a grid, with their dense tile values.

    Storage is struct-of-arrays: ``block_rows[i], block_cols[i]`` give the
    grid coordinates of kept block ``i`` and ``values[i]`` its ``bh x bw``
    float32 tile. Blocks are expected in strictly ascending row-major grid
    order (``gr * grid_cols + gc``); an :class:`HBSMatrix` refuses a level
    that breaks this order.
    All arrays are frozen after construction. Levels compare and hash by
    identity; compare contents through :func:`reconstruct` of a matrix or
    through ``.hbsf`` bytes.
    """

    shape: BlockShape
    grid_rows: int
    grid_cols: int
    block_rows: np.ndarray
    block_cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.shape, BlockShape):
            raise ValueError(f"level shape must be a BlockShape, got {self.shape!r}")
        gr = _as_int(self.grid_rows, "grid_rows", ValueError)
        gc = _as_int(self.grid_cols, "grid_cols", ValueError)
        if gr < 1 or gc < 1:
            raise ValueError("grid dimensions must be positive")
        if gr >= _DIM_LIMIT or gc >= _DIM_LIMIT:
            raise ValueError("grid dimensions must be below 2^32")
        object.__setattr__(self, "grid_rows", gr)
        object.__setattr__(self, "grid_cols", gc)
        br = _own(self.block_rows, np.int64)
        bc = _own(self.block_cols, np.int64)
        vals = _own(self.values, np.float32)
        if br.ndim != 1 or bc.ndim != 1 or br.shape != bc.shape:
            raise ValueError("block_rows and block_cols must be 1-D and equal length")
        expected = (br.shape[0], self.shape.bh, self.shape.bw)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        object.__setattr__(self, "block_rows", br)
        object.__setattr__(self, "block_cols", bc)
        object.__setattr__(self, "values", vals)

    @property
    def n_blocks(self) -> int:
        return self.block_rows.shape[0]

    @property
    def rows(self) -> int:
        return self.grid_rows * self.shape.bh

    @property
    def cols(self) -> int:
        return self.grid_cols * self.shape.bw

    def flat_indices(self) -> np.ndarray:
        """Row-major grid index of each kept block, as uint64: exact for
        in-grid blocks, as both grid dimensions are below 2^32."""
        return _row_major(self.block_rows, self.block_cols, self.grid_cols)


@dataclass(frozen=True, eq=False)
class HBSMatrix:
    """A rows x cols matrix expressed as an ordered sum of block sparse levels.

    Valid by construction: building runs every :func:`validate` check once
    and raises :class:`ValidationError`, carrying the full report, when one
    fails. Matrices compare and hash by identity; compare contents through
    :func:`reconstruct` or ``.hbsf`` bytes.
    """

    rows: int
    cols: int
    levels: tuple[BlockSparseLevel, ...]
    _report: ValidationReport = field(init=False, repr=False)

    def __post_init__(self):
        rows = _as_int(self.rows, "rows", ValueError)
        cols = _as_int(self.cols, "cols", ValueError)
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if rows >= _DIM_LIMIT or cols >= _DIM_LIMIT:
            raise ValueError("matrix dimensions must be below 2^32")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        levels = tuple(self.levels)
        for lv in levels:
            if not isinstance(lv, BlockSparseLevel):
                raise ValueError(f"levels must be BlockSparseLevels, got {lv!r}")
        object.__setattr__(self, "levels", levels)
        tiling = _check_tiling(self)
        divisibility = _check_divisibility(self)
        blocks = _check_blocks(self)
        hierarchy_ok = tiling.passed and divisibility.passed and blocks.passed
        disjointness = _check_disjointness(self, hierarchy_ok)
        report = ValidationReport((tiling, divisibility, blocks, disjointness))
        if not report.ok:
            raise ValidationError(report)
        object.__setattr__(self, "_report", report)

    @property
    def n_levels(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant family: name, pass/fail, failure detail."""

    name: str
    passed: bool
    detail: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    """Per-invariant results for one HBS matrix. Never raised, only reported."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"{c.name:13s} {status}"
            if not c.passed and c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        return "\n".join(lines)


def _check_tiling(m: HBSMatrix) -> CheckResult:
    for i, lv in enumerate(m.levels):
        if lv.rows != m.rows or lv.cols != m.cols:
            detail = (
                f"level {i + 1}: {lv.grid_rows}x{lv.grid_cols} grid of {lv.shape} "
                f"blocks covers {lv.rows}x{lv.cols}, matrix is {m.rows}x{m.cols}"
            )
            return CheckResult("tiling", False, detail)
    return CheckResult("tiling", True)


def _check_divisibility(m: HBSMatrix) -> CheckResult:
    for i in range(len(m.levels) - 1):
        msg = hierarchy_violation(i, m.levels[i].shape, m.levels[i + 1].shape)
        if msg is not None:
            return CheckResult("divisibility", False, msg)
    return CheckResult("divisibility", True)


def _check_blocks(m: HBSMatrix) -> CheckResult:
    for i, lv in enumerate(m.levels):
        br, bc = lv.block_rows, lv.block_cols
        bad = (br < 0) | (br >= lv.grid_rows) | (bc < 0) | (bc >= lv.grid_cols)
        if bad.any():
            j = int(np.argmax(bad))
            detail = (
                f"level {i + 1}: block ({br[j]},{bc[j]}) outside "
                f"{lv.grid_rows}x{lv.grid_cols} grid"
            )
            return CheckResult("blocks", False, detail)
        # Lexicographic on (row, col): a flat index could exceed int64.
        r1, r0 = br[1:], br[:-1]
        unsorted = (r1 < r0) | ((r1 == r0) & (bc[1:] <= bc[:-1]))
        if unsorted.any():
            j = int(np.argmax(unsorted)) + 1
            detail = (
                f"level {i + 1}: blocks unsorted or duplicated at ({br[j]},{bc[j]})"
            )
            return CheckResult("blocks", False, detail)
    return CheckResult("blocks", True)


def _scatter(out: np.ndarray, lv: BlockSparseLevel, value) -> None:
    """Set the cells of ``out`` under ``lv``'s kept blocks to ``value``.

    ``out`` is a C-contiguous ``lv.rows x lv.cols`` array; ``value`` is a
    scalar or the level's ``values`` (one tile per kept block).
    """
    if lv.n_blocks:
        view = out.reshape(lv.grid_rows, lv.shape.bh, lv.grid_cols, lv.shape.bw)
        view[lv.block_rows, :, lv.block_cols, :] = value


def _first_overlap(
    x: BlockSparseLevel, y: BlockSparseLevel, table_cap: int
) -> tuple[int, int] | None:
    """First row-major cell under kept blocks of both levels, or None.

    Works on block indices, never on cells. ``x``'s shape must divide
    ``y``'s, so each ``x`` block lies inside one ``y`` block and the test is
    whether that ancestor is kept: a lookup table over ``y``'s flat index
    range when that range spans fewer than ``table_cap`` blocks, else
    whatever ``np.isin`` picks (a sort for a sparse range, so a huge grid
    allocates nothing per block). A hit ``x`` block is wholly shared and
    stored blocks are row-major, so the first hit holds the first shared
    cell at its top-left corner.
    """
    flat = y.flat_indices()
    kind = "table" if int(flat[-1] - flat[0]) < table_cap else None
    ancestors = _row_major(
        x.block_rows // (y.shape.bh // x.shape.bh),
        x.block_cols // (y.shape.bw // x.shape.bw),
        y.grid_cols,
    )
    hit = np.isin(ancestors, flat, kind=kind)
    if not hit.any():
        return None
    k = int(np.argmax(hit))
    return int(x.block_rows[k]) * x.shape.bh, int(x.block_cols[k]) * x.shape.bw


def _check_disjointness(m: HBSMatrix, hierarchy_ok: bool) -> CheckResult:
    if not hierarchy_ok:
        detail = "not evaluated: requires valid tiling, divisibility and block indices"
        return CheckResult("disjointness", False, detail)
    held = [(i, lv) for i, lv in enumerate(m.levels, 1) if lv.n_blocks]
    # Lookup tables (one byte per block) may grow to the number of stored
    # cells, a quarter of the bytes the tiles already take.
    cap = sum(lv.values.size for _, lv in held)
    # Levels sharing the first shared cell share it pairwise, so each pair's
    # first shared cell is enough to name every owner of the overall first.
    owners: dict[tuple[int, int], set[int]] = {}
    for j, (i, a) in enumerate(held):
        for k, b in held[j + 1 :]:
            # Shapes divide down the hierarchy, so the later level is finer.
            cell = _first_overlap(b, a, cap)
            if cell is not None:
                owners.setdefault(cell, set()).update((i, k))
    if not owners:
        return CheckResult("disjointness", True)
    r, c = min(owners)
    levels = ", ".join(str(i) for i in sorted(owners[r, c]))
    return CheckResult("disjointness", False, f"cell ({r},{c}) covered by levels {levels}")


def validate(m: HBSMatrix) -> ValidationReport:
    """The invariant report of an HBS matrix, made when ``m`` was built.

    Families, in order: exact tiling of every level, hierarchical
    divisibility of consecutive block shapes, per-level block index
    sanity (in bounds, strictly sorted, no duplicates), and cross-level
    support disjointness. Each failure names the first offending
    coordinate. Disjointness is evaluated only on a valid hierarchy (the
    first three families pass); otherwise it fails as "not evaluated".

    An invalid matrix cannot be built, so the report returned here always
    passes; a failing one is carried by the :class:`ValidationError` the
    constructor raised, on its ``report``. Every call returns the same
    report object: the checks are not run again.
    """
    return m._report


def reconstruct(m: HBSMatrix) -> np.ndarray:
    """Dense float32 sum of all levels; uncovered cells are exactly 0.0.

    Because level supports are disjoint, each covered cell carries its
    level's stored tile value bit for bit.
    """
    out = np.zeros((m.rows, m.cols), dtype=np.float32)
    for lv in m.levels:
        _scatter(out, lv, lv.values)
    return out


def density(m: HBSMatrix) -> float:
    """Fraction of cells covered by kept blocks (covered cells, not nonzeros).

    Exact: integer covered-cell count divided in double precision.
    """
    covered = sum(lv.n_blocks * lv.shape.area for lv in m.levels)
    return covered / (m.rows * m.cols)


def support_mask(m: HBSMatrix) -> np.ndarray:
    """Boolean rows x cols mask of cells covered by any level."""
    mask = np.zeros((m.rows, m.cols), dtype=bool)
    for lv in m.levels:
        _scatter(mask, lv, True)
    return mask
