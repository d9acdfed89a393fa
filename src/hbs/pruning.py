"""Deterministic magnitude-based block pruning.

Single-level pruning ranks grid blocks by the absolute sum of their cells
and prunes the weakest fraction. The hierarchical pipeline runs one such
pass per configured level, coarse to fine, over a single float32 magnitude
array of the input: once a level keeps a block, its cells drop out of that
array, so later (finer) levels compete only for what earlier levels left
behind. The resulting level supports are disjoint and the surviving values
are carried over bit for bit. Multi-cell blocks score as float64 sums; a
single-cell level ranks the magnitudes themselves, with no score copy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlockShape,
    BlockSparseLevel,
    HBSConfig,
    HBSMatrix,
    _as_floats,
    _require,
    _scatter,
    _top_magnitudes,
    as_matrix,
    grid_dims,
)
from .errors import ConfigError, DimensionError

LOWERING_ORDERS = ("CRS", "RSC")


@dataclass(frozen=True)
class LevelTrace:
    """Audit record for one pruning pass.

    ``kept_blocks + pruned_blocks`` equals the level's total grid blocks.
    ``zero_score_kept`` counts kept blocks whose score was exactly zero
    (possible only on degenerate inputs where the keep budget exceeds the
    number of blocks with any surviving magnitude). ``cutoff_score`` is the
    score of the weakest kept block, None when nothing was kept.
    """

    shape: BlockShape
    sparsity: float
    kept_blocks: int
    pruned_blocks: int
    zero_score_kept: int
    cutoff_score: float | None

    def render(self) -> str:
        total = self.kept_blocks + self.pruned_blocks
        cutoff = "-" if self.cutoff_score is None else f"{self.cutoff_score:.6g}"
        line = (
            f"{str(self.shape):>7s}  sparsity {self.sparsity:<8g} "
            f"kept {self.kept_blocks}/{total}  cutoff {cutoff}"
        )
        if self.zero_score_kept:
            line += f"  zero-score kept {self.zero_score_kept}"
        return line


@dataclass(frozen=True)
class PruneTrace:
    """Per-level audit records of one hierarchical pruning run."""

    levels: tuple[LevelTrace, ...]

    def render(self) -> str:
        return "\n".join(lt.render() for lt in self.levels)


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero (for x >= 0)."""
    return int(math.floor(x + 0.5))


def _block_sums(mag: np.ndarray, shape: BlockShape) -> np.ndarray:
    """Float64 sums of a rows x cols array over each ``shape`` grid block.

    A block's first cell is widened to float64 and its other cells are
    added one by one in row-major order, on views of ``mag``, so scores do
    not depend on how numpy would vectorize a reduction, and a float32
    ``mag`` sums bit for bit as its float64 copy would, without the copy.
    """
    gr, gc = grid_dims(mag.shape[0], mag.shape[1], shape)
    cells = mag.reshape(gr, shape.bh, gc, shape.bw)
    # Starting from the first cell is exact (0.0 + x == x for x >= 0 and
    # -inf) and saves a pass over the scores.
    first, *rest = itertools.product(range(shape.bh), range(shape.bw))
    scores = cells[:, first[0], :, first[1]].astype(np.float64)
    for i, j in rest:
        scores += cells[:, i, :, j]
    return scores


def prune_hierarchical(m, config: HBSConfig) -> tuple[HBSMatrix, PruneTrace]:
    """Run the full multi-level pruning pipeline.

    Each level keeps ``total_blocks - round_half_up(sparsity * total_blocks)``
    of its grid blocks, with grid fractions always relative to the full
    matrix. A block's score is the absolute sum of its input cells, added
    one by one in row-major order within the block in float64, so scores
    are reproducible; a single cell's score is its float32 magnitude, the
    same value. Ranking: score descending, ties broken by ascending
    row-major grid index; blocks owned by an earlier level are never kept,
    and the keep count is capped at the blocks still free. The kept blocks
    are found by selection (one ``np.partition`` on the scores' bit
    patterns, see :func:`hbs.core._top_magnitudes`), in time linear in the
    blocks, and are exactly those a stable descending sort would put
    first. Besides the kept blocks, pruning holds the float32 magnitudes
    (4 bytes per cell) and one level's scores, the selection's copy of
    their keys and a keep mask: 17 bytes per block of a multi-cell level,
    5 per cell of a single-cell level, whose scores are the magnitudes.
    A 512x512 Gaussian matrix peaks at about 11 traced bytes per cell.
    The result is valid by construction: building its :class:`HBSMatrix`
    ran every :func:`hbs.core.validate` check, and they passed. Every
    nonzero cell of its reconstruction equals the corresponding input cell
    bit for bit. The input is never written.

    Returns:
        ``(hbs, trace)`` where ``trace`` holds one audit record per level.
    """
    _require(config, HBSConfig, "config", ConfigError)
    m = as_matrix(m)
    rows, cols = m.shape
    mag = np.abs(m)
    levels: list[BlockSparseLevel] = []
    traces: list[LevelTrace] = []
    for spec in config.levels:
        # Drop the previous level's cells here: nothing ranks the last's.
        if levels:
            _scatter(mag, levels[-1], -np.inf)
        shape = spec.shape
        gr, gc = grid_dims(rows, cols, shape)
        total = gr * gc
        # Kept cells are -inf in ``mag``. Every shape divides the shapes of
        # the earlier levels, so a block lies either wholly inside a kept
        # block (score -inf) or wholly outside all of them (score exactly
        # as on the input with the kept cells zeroed). -inf ranks below every
        # free block (see :func:`hbs.core._top_magnitudes`), so capping the
        # keep count at the free supply, counted from the earlier levels'
        # blocks, leaves the owned blocks out. A single cell scores its
        # magnitude, read in place: ``kept_scores`` is taken before the next
        # level writes ``mag``.
        if shape.area == 1:
            scores = mag.reshape(-1)
        else:
            scores = _block_sums(mag, shape).reshape(-1)
        free = total - sum(lv.n_blocks * (lv.shape.area // shape.area) for lv in levels)
        want = total - round_half_up(spec.sparsity * total)
        kept = np.flatnonzero(_top_magnitudes(scores, min(want, free)))
        block_rows = kept // gc
        block_cols = kept % gc
        tiles4 = m.reshape(gr, shape.bh, gc, shape.bw)
        values = tiles4[block_rows, :, block_cols, :]
        level = BlockSparseLevel(shape, gr, gc, block_rows, block_cols, values)

        kept_scores = scores[kept]
        levels.append(level)
        traces.append(
            LevelTrace(
                shape=shape,
                sparsity=spec.sparsity,
                kept_blocks=int(kept.size),
                pruned_blocks=int(total - kept.size),
                zero_score_kept=int(np.count_nonzero(kept_scores == 0.0)),
                cutoff_score=float(kept_scores.min()) if kept.size else None,
            )
        )

    hbs = HBSMatrix(rows, cols, tuple(levels))
    return hbs, PruneTrace(tuple(traces))


def lower_tensor4d(t, order: str = "CRS") -> np.ndarray:
    """Flatten a K x C x R x S weight tensor to a K-row float32 matrix.

    Row ``k`` is filter ``k`` flattened with the chosen inner nesting:
    ``"CRS"`` iterates c outermost, then r, then s (so a column-block width
    that is a multiple of R*S aligns block boundaries with input-channel
    boundaries); ``"RSC"`` iterates r, s, then c.
    """
    arr = _as_floats(t, "tensor")
    if arr.ndim != 4:
        raise DimensionError(f"expected a 4-D tensor, got {arr.ndim} dimension(s)")
    if order == "CRS":
        flat = arr
    elif order == "RSC":
        flat = arr.transpose(0, 2, 3, 1)
    else:
        raise ValueError(f"unknown lowering order {order!r}, expected one of {LOWERING_ORDERS}")
    # The column count is given, not -1: numpy cannot infer it when K is 0.
    return np.ascontiguousarray(flat.reshape(arr.shape[0], math.prod(arr.shape[1:])))
