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
whose ``report`` is the full :class:`ValidationReport`; :func:`validate`
returns the one passing report. Levels copy and freeze their arrays, so a
built matrix stays valid and no consumer checks it again.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ValidationError

# Float slack for the cumulative-density bound, which is a sum of user
# supplied fractions.
_DENSITY_SLACK = 1e-9

# Matrix and grid dimensions must be below this: ``.hbsf`` headers hold
# them as uint32, and it keeps every row-major block index below 2^64.
_DIM_LIMIT = 2**32

# Largest finite float32; a wider float beyond it rounds to an infinity.
_F32_MAX = float(np.finfo(np.float32).max)


def as_matrix(values, *, check_finite: bool = True) -> np.ndarray:
    """Return ``values`` as a C-contiguous float32 2-D array.

    Args:
        values: Anything ``np.asarray`` accepts; must be two dimensional.
        check_finite: Reject NaN and infinity when True.

    Raises:
        DimensionError: If the input is not two dimensional, or has no rows
            or no columns.
        ValueError: If the input holds anything but bools, integers and
            floats, or if ``check_finite`` and a non-finite value is present.
    """
    arr = _as_2d(values, "matrix")
    rows, cols = arr.shape
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix must be non-empty, got {rows}x{cols}")
    if check_finite and not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite values")
    return arr


def _as_floats(values, what: str) -> np.ndarray:
    """``values`` as a C-contiguous float32 array; ``ValueError`` naming
    ``what`` unless they are bools, integers or floats: no string is parsed,
    no ``None`` becomes NaN and no imaginary part is dropped. An empty array
    of any dtype holds no value, so it passes. Floats wider than float32
    must also lie within its range: a finite value does not turn into an
    infinity, though an infinity stays one."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be bools, integers or floats, got dtype {arr.dtype}")
    if arr.dtype.kind != "f" or arr.dtype.itemsize <= 4:
        return np.ascontiguousarray(arr, dtype=np.float32)
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(arr, dtype=np.float32)
    if np.isinf(out).any():
        wide = arr[np.isinf(out) & np.isfinite(arr)]
        if wide.size:
            raise ValueError(
                f"{what} must lie within float32's range of ±{_F32_MAX:.8g}, got {wide[0]}"
            )
    return out


def _as_2d(values, what: str) -> np.ndarray:
    """:func:`_as_floats`, and ``DimensionError`` naming ``what`` unless 2-D."""
    arr = _as_floats(values, what)
    if arr.ndim != 2:
        raise DimensionError(f"{what} must be 2-D, got {arr.ndim} dimension(s)")
    return arr


def _own(values, dtype) -> np.ndarray:
    """Return a frozen, C-contiguous private copy of ``values`` as ``dtype``.

    Always copies: a caller holding the input could otherwise turn its
    ``writeable`` flag back on and change a level after it was validated.
    """
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def _as_coords(values, what: str) -> np.ndarray:
    """``values`` as a frozen int64 copy; ``ValueError`` naming ``what``
    unless they are integers within int64. An empty array of any dtype
    holds no coordinate, so it passes."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.size and arr.dtype == np.uint64 and arr.max() >= 2**63:
        raise ValueError(f"{what} must be within int64, got {arr.max()}")
    return _own(arr, np.int64)


def _require(value, kind: type, what: str, error: type[Exception] = ValueError):
    """``value``; ``error`` naming ``what`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise error(f"{what}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _as_int(value, what: str, error: type[Exception], low=None, high=None) -> int:
    """``value`` as a Python int; ``error`` unless it is an int or a numpy
    integer, at least ``low`` and at most ``high`` where given. ``bool`` is
    refused, so ``True`` cannot pass for 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    v = int(value)
    if low is not None and v < low:
        raise error(f"{what} must be >= {low}, got {v}")
    if high is not None and v > high:
        raise error(f"{what} must be <= {high}, got {v}")
    return v


def _parse_number(text: str, kind: type, what: str, error: type[Exception]):
    """``kind(text)``, ``kind`` being int or float; ``error`` naming ``what``
    unless ``text`` is printable ASCII number text. Python's ``int`` and
    ``float`` also read digit-group underscores (``1_6``) and non-ASCII
    digits, and strip control characters and non-ASCII blanks as blanks;
    those are refused. Spaces around the text, a sign, an exponent, ``inf``
    and ``nan`` parse as they do there, so range checks see them."""
    if text.isascii() and text.isprintable() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise error(f"bad {what} {text!r}")


def _as_real(value, what: str, error: type[Exception]) -> float:
    """``value`` as a Python float; ``error`` unless it is an int, a float or
    a numpy real. ``bool`` is refused, so ``True`` cannot pass for 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{what} must be a real number, got {value!r}")
    return float(value)


def _as_fraction(value, what: str, error: type[Exception]) -> float:
    """``value`` as a Python float in [0, 1]; ``error`` naming ``what``
    unless it is a real number there. A finite value above 1 is most
    likely a percentage, and the message says so."""
    v = _as_real(value, what, error)
    if not 0.0 <= v <= 1.0:
        hint = ""
        if v > 1.0 and np.isfinite(v):
            hint = " (sparsities are fractions in [0, 1], not percentages)"
        raise error(f"{what} must be in [0, 1], {v!r} is outside{hint}")
    return v


def _set_dims(obj, names: tuple[str, str]) -> None:
    """Store ``obj``'s two dimension fields ``names`` as Python ints;
    ``ValueError`` unless both are integers from 1 to 2^32 - 1."""
    for name in names:
        dim = _as_int(getattr(obj, name), name, ValueError, 1, _DIM_LIMIT - 1)
        object.__setattr__(obj, name, dim)


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
            v = _as_int(getattr(self, name), f"block {name}", ConfigError, low=1)
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
        _require(text, str, "text", ConfigError)
        parts = text.strip(" ").split("x")
        if len(parts) != 2:
            raise ConfigError(f"bad block shape {text!r}, expected <bh>x<bw>")
        bh = _parse_number(parts[0], int, "block bh", ConfigError)
        bw = _parse_number(parts[1], int, "block bw", ConfigError)
        return cls(bh, bw)

    def __str__(self) -> str:
        return f"{self.bh}x{self.bw}"


def hierarchy_violation(shapes: Sequence[BlockShape]) -> str | None:
    """Message naming the first of ``shapes`` that does not evenly divide
    the one before it, with 1-based level numbers; None if each divides.
    Config construction and :func:`validate` share it, so they report alike.
    """
    for n, (coarse, fine) in enumerate(zip(shapes, shapes[1:]), 2):
        if fine.divides(coarse):
            continue
        if coarse.bh % fine.bh != 0:
            axis, a, b = "rows", coarse.bh, fine.bh
        else:
            axis, a, b = "cols", coarse.bw, fine.bw
        return (
            f"level {n} block {fine} does not evenly divide "
            f"level {n - 1} block {coarse} ({a} % {b} != 0 on {axis})"
        )
    return None


@dataclass(frozen=True)
class LevelSpec:
    """One step of a pruning plan: prune ``sparsity`` of the full grid at ``shape``.

    The sparsity is the fraction of the whole matrix's grid blocks pruned at
    this level, not a fraction of whatever the previous levels left behind.
    """

    shape: BlockShape
    sparsity: float

    def __post_init__(self):
        _require(self.shape, BlockShape, "shape", ConfigError)
        sp = _as_fraction(self.sparsity, "sparsity", ConfigError)
        object.__setattr__(self, "sparsity", sp)

    @property
    def density(self) -> float:
        return 1.0 - self.sparsity

    def __str__(self) -> str:
        return f"{self.shape}:{self.sparsity!r}"


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
            _require(lv, LevelSpec, "levels entry", ConfigError)
        msg = hierarchy_violation([lv.shape for lv in levels])
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
        _require(text, str, "text", ConfigError)
        entries = [e for e in text.split(",") if e.strip(" ")]
        if not entries:
            raise ConfigError(f"empty level spec {text!r}")
        levels = []
        for entry in entries:
            head, sep, tail = entry.strip(" ").partition(":")
            if not sep:
                raise ConfigError(f"bad level spec {entry!r}, expected <bh>x<bw>:<sparsity>")
            shape = BlockShape.parse(head)
            levels.append(LevelSpec(shape, _parse_number(tail, float, "sparsity", ConfigError)))
        return cls(tuple(levels))

    def __str__(self) -> str:
        return ",".join(str(lv) for lv in self.levels)


def grid_dims(rows: int, cols: int, shape: BlockShape) -> tuple[int, int]:
    """Grid dimensions of a rows x cols matrix tiled by ``shape``.

    Raises:
        ConfigError: If ``shape`` is not a :class:`BlockShape`.
        DimensionError: Naming the offending axis when a dimension is not
            an integer, is below 1 or is not divisible by the block dimension.
    """
    _require(shape, BlockShape, "shape", ConfigError)
    rows = _as_int(rows, "rows", DimensionError, low=1)
    cols = _as_int(cols, "cols", DimensionError, low=1)
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
    All arrays are frozen after construction, and copies and pickles are
    built through the constructor too. Levels compare and hash by
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
        _require(self.shape, BlockShape, "shape")
        _set_dims(self, ("grid_rows", "grid_cols"))
        br = _as_coords(self.block_rows, "block_rows")
        bc = _as_coords(self.block_cols, "block_cols")
        vals = _own(_as_floats(self.values, "values"), np.float32)
        if br.ndim != 1 or bc.ndim != 1 or br.shape != bc.shape:
            raise ValueError("block_rows and block_cols must be 1-D and equal length")
        expected = (br.shape[0], self.shape.bh, self.shape.bw)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        object.__setattr__(self, "block_rows", br)
        object.__setattr__(self, "block_cols", bc)
        object.__setattr__(self, "values", vals)

    def __reduce__(self):
        return BlockSparseLevel, (
            self.shape, self.grid_rows, self.grid_cols, self.block_rows, self.block_cols, self.values
        )

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

    def __post_init__(self):
        _set_dims(self, ("rows", "cols"))
        levels = tuple(_require(self.levels, Iterable, "levels"))
        for lv in levels:
            _require(lv, BlockSparseLevel, "levels entry")
        object.__setattr__(self, "levels", levels)
        # Failure details in _FAMILIES order; None where a check passed.
        shapes = [lv.shape for lv in levels]
        faults = [_check_tiling(self), hierarchy_violation(shapes), _check_blocks(self)]
        if any(faults):
            faults.append("not evaluated: requires valid tiling, divisibility and block indices")
        else:
            faults.append(_check_disjointness(self))
        if any(faults):
            checks = (CheckResult(n, f is None, f) for n, f in zip(_FAMILIES, faults))
            raise ValidationError(ValidationReport(tuple(checks)))

    @property
    def n_levels(self) -> int:
        return len(self.levels)


# The invariant families, in report order.
_FAMILIES = ("tiling", "divisibility", "blocks", "disjointness")


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
        return next((c for c in self.checks if not c.passed), None)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"{c.name:13s} {status}"
            if not c.passed and c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        return "\n".join(lines)


def _check_tiling(m: HBSMatrix) -> str | None:
    for i, lv in enumerate(m.levels, 1):
        if lv.rows != m.rows or lv.cols != m.cols:
            return (
                f"level {i}: {lv.shape} blocks do not tile {m.rows}x{m.cols} "
                f"(a {lv.grid_rows}x{lv.grid_cols} grid covers {lv.rows}x{lv.cols})"
            )
    return None


def _check_blocks(m: HBSMatrix) -> str | None:
    for i, lv in enumerate(m.levels, 1):
        br, bc = lv.block_rows, lv.block_cols
        bad = (br < 0) | (br >= lv.grid_rows) | (bc < 0) | (bc >= lv.grid_cols)
        if bad.any():
            j = int(np.argmax(bad))
            return f"level {i}: block ({br[j]},{bc[j]}) outside {lv.grid_rows}x{lv.grid_cols} grid"
        flat = lv.flat_indices()
        unsorted = flat[1:] <= flat[:-1]
        if unsorted.any():
            j = int(np.argmax(unsorted)) + 1
            return f"level {i}: blocks unsorted or duplicated at ({br[j]},{bc[j]})"
    return None


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


def _check_disjointness(m: HBSMatrix) -> str | None:
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
        return None
    r, c = min(owners)
    levels = ", ".join(str(i) for i in sorted(owners[r, c]))
    return f"cell ({r},{c}) covered by levels {levels}"


_PASSED = ValidationReport(tuple(CheckResult(name, True) for name in _FAMILIES))


def validate(m: HBSMatrix) -> ValidationReport:
    """The invariant report of an HBS matrix: the one passing report.

    Families, in order: exact tiling of every level, hierarchical
    divisibility of consecutive block shapes, per-level block index
    sanity (in bounds, strictly sorted, no duplicates), and cross-level
    support disjointness. Each failure names the first offending
    coordinate. Disjointness is evaluated only on a valid hierarchy (the
    first three families pass); otherwise it fails as "not evaluated".

    The constructor ran these checks and no invalid matrix can be built, so
    every call returns one frozen passing report; a failing report rides on
    the constructor's :class:`ValidationError`, as ``report``.
    """
    _require(m, HBSMatrix, "m")
    return _PASSED


def reconstruct(m: HBSMatrix) -> np.ndarray:
    """Dense float32 sum of all levels; uncovered cells are exactly 0.0.

    Because level supports are disjoint, each covered cell carries its
    level's stored tile value bit for bit.
    """
    _require(m, HBSMatrix, "m")
    out = np.zeros((m.rows, m.cols), dtype=np.float32)
    for lv in m.levels:
        _scatter(out, lv, lv.values)
    return out


def density(m: HBSMatrix) -> float:
    """Fraction of cells covered by kept blocks (covered cells, not nonzeros).

    Exact: integer covered-cell count divided in double precision.
    """
    _require(m, HBSMatrix, "m")
    covered = sum(lv.n_blocks * lv.shape.area for lv in m.levels)
    return covered / (m.rows * m.cols)


def support_mask(m: HBSMatrix) -> np.ndarray:
    """Boolean rows x cols mask of cells covered by any level."""
    _require(m, HBSMatrix, "m")
    mask = np.zeros((m.rows, m.cols), dtype=bool)
    for lv in m.levels:
        _scatter(mask, lv, True)
    return mask
