"""Dense and HBS matmul kernels, an error metric, and exact FLOP accounting.

:func:`dense_matmul` is the correctness oracle for :func:`hbs_matmul`, and
:func:`max_rel_error` compares the two. Both kernels share one accumulation
contract: float32 inputs are widened to float64, every product runs in
float64 BLAS (one call for dense; for HBS, one per non-empty block row of
each level's execution shape, with levels applied in stored order into one
shared accumulator), and the result is rounded to float32 once at the end.
Results are deterministic for a fixed BLAS build and thread count, and the
single rounding keeps oracle comparisons meaningful at tight tolerances.

A level's blocks are fixed once it is built, so :func:`hbs_matmul` packs
each level on first use and stores the packing on the level: a read-only
float64 panel of its tiles in the level's execution shape, and the gather
index and block-row bounds the product loops over. A fine level (``bh``
below 8 and dividing 8, on a matrix whose rows 8 divides) runs as
zero-padded ``8 x bw`` blocks, trading extra FLOPs for fewer, larger BLAS
calls; every other level runs as stored. The storage shape never changes.
The panel takes twice the bytes of the level's float32 ``values``, and at
most ``8 / bh`` times that for a padded level. The packing lives as long as
the level does, and matrices that share a level share it.

FLOP counts follow the multiply-add-times-two convention and count the
stored, useful cells; a padded level executes more.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import BlockShape, BlockSparseLevel, HBSMatrix, _as_int
from .errors import DimensionError


def _as_f32(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float32)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got {arr.ndim} dimension(s)")
    return arr


def dense_matmul(a, b) -> np.ndarray:
    """Dense product a @ b: one float64 BLAS product, rounded to float32 once."""
    a = _as_f32(a, "a")
    b = _as_f32(b, "b")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions differ: a is {a.shape}, b is {b.shape}")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


# Height of the zero-padded blocks a fine level runs as (see _pack). Taller
# blocks mean fewer BLAS calls but more padded FLOPs and panel bytes.
_EXEC_BH = 8


class _PackedLevel(NamedTuple):
    """Execution form of one level, built once by :func:`_pack`."""

    shape: BlockShape  # execution shape: stored, or padded to _EXEC_BH rows
    panel: np.ndarray  # read-only float64, shape.bh x (n_exec_blocks * bw)
    src: np.ndarray  # read-only gather index; block_cols itself if unpadded, bw == 1
    # One entry per non-empty block row: output rows [r0, r1) and the
    # panel and src slices of that row's tiles.
    rows: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]


def _pack(level: BlockSparseLevel) -> _PackedLevel:
    """The level's execution form, built on first use and kept on the level.

    A level with ``bh < 8``, ``bh`` dividing 8 and 8 dividing its rows runs
    as ``8 x bw`` blocks (8 is ``_EXEC_BH``): stored block ``(gr, gc)``
    lands in execution block ``(gr // (8 / bh), gc)`` at row offset
    ``(gr % (8 / bh)) * bh``, and the rest of each execution block is
    ``+0.0``. Padding runs only along rows, so a padded block reads the same
    rows of ``b`` as its kept cells. Every other level runs as stored.

    The execution tiles are packed side by side, in row-major block order,
    into one float64 panel of the execution height, at most ``8 / bh``
    times the level's tiles in float64; ``src`` gives the row of ``b`` that
    each panel column multiplies, so each block row's tiles form one
    contiguous panel slice. Building is idempotent, so two threads that race
    to fill the slot store equal forms.
    """
    packed = level._packed
    if packed is None:
        bh, bw = level.shape.bh, level.shape.bw
        if bh < _EXEC_BH and _EXEC_BH % bh == 0 and level.grid_rows * bh % _EXEC_BH == 0:
            eh, per = _EXEC_BH, _EXEC_BH // bh
            keys = level.block_rows // per * level.grid_cols + level.block_cols
            keys, slot = np.unique(keys, return_inverse=True)
            block_rows, block_cols = np.divmod(keys, level.grid_cols)
            tiles = np.zeros((eh, len(keys), bw))
            offsets = (level.block_rows % per * bh)[:, None] + np.arange(bh)
            tiles[offsets, slot[:, None]] = level.values
            panel = tiles.reshape(eh, -1)
        else:
            eh, block_rows, block_cols = bh, level.block_rows, level.block_cols
            panel = level.values.astype(np.float64).transpose(1, 0, 2).reshape(bh, -1)
        panel.flags.writeable = False
        n = len(block_rows)
        if bw == 1:
            src = block_cols  # for an unpadded level, block_cols itself, not a copy
        else:
            src = (block_cols[:, None] * bw + np.arange(bw)).ravel()
        src.flags.writeable = False
        starts = np.flatnonzero(np.diff(block_rows, prepend=-1))
        ends = np.append(starts[1:], n)
        r0s = (block_rows[starts] * eh).tolist()
        cuts = zip((starts * bw).tolist(), (ends * bw).tolist())
        rows = tuple((r0, r0 + eh, panel[:, s:e], src[s:e]) for r0, (s, e) in zip(r0s, cuts))
        packed = _PackedLevel(BlockShape(eh, bw), panel, src, rows)
        object.__setattr__(level, "_packed", packed)
    return packed


def _execution(level: BlockSparseLevel, n: int) -> tuple[BlockShape, int]:
    """The shape a level runs as and the FLOPs it executes against n columns.

    Both are read from the level's packing, which this builds if needed.
    """
    packed = _pack(level)
    return packed.shape, 2 * packed.panel.size * n


def hbs_matmul(m: HBSMatrix, b) -> np.ndarray:
    """Multiply an HBS matrix by a dense matrix, level by level.

    Levels are applied in stored order into one shared double-precision
    accumulator, one float64 BLAS product per non-empty execution block
    row, and the sum is rounded to float32 once at the end. A single
    rounding keeps the result within one float32 ulp of the dense product
    of the reconstruction even when level contributions cancel.
    Deterministic for a fixed BLAS build and thread count.

    The first call that uses a level packs it in its execution shape and
    keeps the packing on the level, so later calls only gather and
    multiply. The packing holds a float64 copy of the level's tiles, twice
    its float32 ``values`` and at most ``8 / bh`` times that for a fine
    level run as padded 8-row blocks, for as long as the level lives.
    Padding adds exact zeros, so the result is within the same bound of the
    oracle, but it may differ from the unpadded sum in the last bit.

    Raises:
        DimensionError: On inner-dimension mismatch.
    """
    b = _as_f32(b, "b")
    if m.cols != b.shape[0]:
        raise DimensionError(f"matrix is {m.rows}x{m.cols}, b is {b.shape[0]}x{b.shape[1]}")
    b64 = b.astype(np.float64)
    out64 = np.zeros((m.rows, b.shape[1]), dtype=np.float64)
    for level in m.levels:
        for r0, r1, p, idx in _pack(level).rows:
            out64[r0:r1] += p @ b64.take(idx, axis=0)
    return out64.astype(np.float32)


def max_rel_error(got, want) -> float:
    """Largest per-cell relative difference between two matrices.

    Each cell's difference is scaled by the larger magnitude of the two
    values, floored at 1e-30 so all-zero cells compare equal instead of
    dividing by zero. Equal cells, equal infinities included, contribute 0;
    any other pair holding a NaN or an infinity contributes ``inf``. Inputs
    with no cells give 0.0.

    Raises:
        DimensionError: If the shapes differ.
    """
    g = _as_f32(got, "got").astype(np.float64)
    w = _as_f32(want, "want").astype(np.float64)
    if g.shape != w.shape:
        raise DimensionError(f"shape mismatch: {g.shape} vs {w.shape}")
    if g.size == 0:
        return 0.0
    finite = np.isfinite(g) & np.isfinite(w)
    scale = np.maximum(np.maximum(np.abs(g), np.abs(w)), 1e-30)
    with np.errstate(invalid="ignore"):
        err = np.where(finite, np.abs(g - w) / scale, np.inf)
    err[g == w] = 0.0
    return float(err.max())


def flops_dense(m_rows: int, k: int, n: int) -> int:
    """FLOPs of a dense (m x k) @ (k x n) product: 2*m*k*n."""
    m_rows, k, n = (_as_int(d, "dimension", ValueError) for d in (m_rows, k, n))
    if min(m_rows, k, n) < 0:
        raise ValueError("dimensions must be non-negative")
    return 2 * m_rows * k * n


def flops_sparse_level(level: BlockSparseLevel, n: int) -> int:
    """FLOPs of one level's product against n output columns.

    Counts the stored cells only. :func:`hbs_matmul` may run a fine level
    as zero-padded 8-row blocks and so execute up to ``8 / bh`` times this.
    """
    n = _as_int(n, "n", ValueError)
    if n < 0:
        raise ValueError("n must be non-negative")
    return 2 * level.n_blocks * level.shape.area * n


def flops_sparse(m: HBSMatrix, n: int) -> int:
    """Total FLOPs across all levels (additive)."""
    return sum(flops_sparse_level(level, n) for level in m.levels)
