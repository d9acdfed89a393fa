"""Deterministic magnitude-based block pruning.

Single-level pruning ranks grid blocks by the absolute sum of their cells
and prunes the weakest fraction. The hierarchical pipeline applies one such
pass per configured level, always on the residual of the previous pass:
kept cells are zeroed out of the working matrix, so later (finer) levels
compete only for what earlier levels left behind. The resulting level
supports are disjoint and the surviving values are carried over bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BlockShape,
    BlockSparseLevel,
    HBSConfig,
    HBSMatrix,
    _scatter,
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


def block_abs_sum(m, shape: BlockShape) -> np.ndarray:
    """Score every grid block by the absolute sum of its cells.

    Returns a grid_rows x grid_cols float64 array. Each block's cells are
    accumulated sequentially in row-major order within the block, in double
    precision, so scores are reproducible regardless of how the caller
    parallelizes around this function.

    Raises:
        DimensionError: When a matrix dimension is not divisible by the
            block dimension (names the offending axis).
    """
    m = as_matrix(m)
    gr, gc = grid_dims(m.shape[0], m.shape[1], shape)
    bh, bw = shape.bh, shape.bw
    cells = (
        np.abs(m.astype(np.float64))
        .reshape(gr, bh, gc, bw)
        .transpose(0, 2, 1, 3)
        .reshape(gr, gc, bh * bw)
    )
    scores = np.zeros((gr, gc), dtype=np.float64)
    for j in range(bh * bw):
        scores += cells[:, :, j]
    return scores


def _select(scores: np.ndarray, n_keep: int, covered: np.ndarray | None):
    """Pick the flat indices of the blocks to keep.

    Ranking: score descending, ties broken by ascending row-major grid
    index. Blocks flagged in ``covered`` (already owned by an earlier
    level; their score is necessarily zero) sort after every uncovered
    block, and the keep count is capped to the uncovered supply so kept
    blocks never overlap earlier levels.
    """
    flat = scores.reshape(-1)
    if covered is None:
        order = np.argsort(-flat, kind="stable")
    else:
        order = np.lexsort((covered.reshape(-1).astype(np.int8), -flat))
        n_keep = min(n_keep, int(flat.size - np.count_nonzero(covered)))
    kept = np.sort(order[:n_keep])
    return kept, flat


def _prune_level(
    m: np.ndarray,
    shape: BlockShape,
    sparsity: float,
    covered: np.ndarray | None = None,
) -> tuple[BlockSparseLevel, np.ndarray, LevelTrace]:
    gr, gc = grid_dims(m.shape[0], m.shape[1], shape)
    total = gr * gc
    n_keep = total - round_half_up(sparsity * total)

    scores = block_abs_sum(m, shape)
    kept, flat_scores = _select(scores, n_keep, covered)
    block_rows = kept // gc
    block_cols = kept % gc

    tiles4 = m.reshape(gr, shape.bh, gc, shape.bw)
    values = tiles4[block_rows, :, block_cols, :].copy()
    level = BlockSparseLevel(shape, gr, gc, block_rows, block_cols, values)

    residual = m.copy()
    _scatter(residual, level, 0.0)

    kept_scores = flat_scores[kept]
    trace = LevelTrace(
        shape=shape,
        sparsity=sparsity,
        kept_blocks=int(kept.size),
        pruned_blocks=int(total - kept.size),
        zero_score_kept=int(np.count_nonzero(kept_scores == 0.0)),
        cutoff_score=float(kept_scores.min()) if kept.size else None,
    )
    return level, residual, trace


def prune_block_sparse(
    m, shape: BlockShape, sparsity: float
) -> tuple[BlockSparseLevel, np.ndarray]:
    """One block sparse pruning pass.

    Keeps the ``total_blocks - round_half_up(sparsity * total_blocks)``
    blocks with the highest absolute-sum score (ties keep the smaller
    row-major grid index) and returns the kept level together with the
    residual: the input with every kept block's cells set to 0.0. Kept tile
    values are copied from the input bit for bit.

    Args:
        m: Dense float32 matrix (anything :func:`hbs.core.as_matrix` takes).
        shape: Block shape; must tile ``m`` exactly.
        sparsity: Fraction of grid blocks to prune, in [0, 1].

    Returns:
        ``(level, residual)``.
    """
    if not 0.0 <= float(sparsity) <= 1.0:
        raise ConfigError(f"sparsity must be in [0, 1], got {sparsity!r}")
    m = as_matrix(m)
    level, residual, _ = _prune_level(m, shape, float(sparsity))
    return level, residual


def prune_hierarchical(m, config: HBSConfig) -> tuple[HBSMatrix, PruneTrace]:
    """Run the full multi-level pruning pipeline.

    Level 1 prunes the input; each later level prunes the previous level's
    residual (the input with all previously kept cells zeroed). Grid
    fractions are always relative to the full matrix. The result passes
    :func:`hbs.core.validate` by construction, and every nonzero cell of
    its reconstruction equals the corresponding input cell bit for bit.

    Returns:
        ``(hbs, trace)`` where ``trace`` holds one audit record per level.
    """
    if not isinstance(config, HBSConfig):
        raise ConfigError(f"expected HBSConfig, got {type(config).__name__}")
    m = as_matrix(m)
    rows, cols = m.shape
    grid_dims(rows, cols, config.levels[0].shape)

    residual = m
    covered = np.zeros((rows, cols), dtype=bool)
    levels: list[BlockSparseLevel] = []
    traces: list[LevelTrace] = []
    for spec in config.levels:
        shape = spec.shape
        gr, gc = grid_dims(rows, cols, shape)
        covered_blocks = covered.reshape(gr, shape.bh, gc, shape.bw).any(axis=(1, 3))
        level, residual, trace = _prune_level(
            residual, shape, spec.sparsity, covered_blocks
        )
        _scatter(covered, level, True)
        levels.append(level)
        traces.append(trace)

    hbs = HBSMatrix(rows, cols, tuple(levels))
    return hbs, PruneTrace(tuple(traces))


def lower_tensor4d(t, order: str = "CRS") -> np.ndarray:
    """Flatten a K x C x R x S weight tensor to a K-row float32 matrix.

    Row ``k`` is filter ``k`` flattened with the chosen inner nesting:
    ``"CRS"`` iterates c outermost, then r, then s (so a column-block width
    that is a multiple of R*S aligns block boundaries with input-channel
    boundaries); ``"RSC"`` iterates r, s, then c.
    """
    arr = np.ascontiguousarray(t, dtype=np.float32)
    if arr.ndim != 4:
        raise DimensionError(f"expected a 4-D tensor, got {arr.ndim} dimension(s)")
    if order == "CRS":
        flat = arr
    elif order == "RSC":
        flat = arr.transpose(0, 2, 3, 1)
    else:
        raise ValueError(f"unknown lowering order {order!r}, expected one of {LOWERING_ORDERS}")
    k = arr.shape[0]
    return np.ascontiguousarray(flat.reshape(k, -1))
