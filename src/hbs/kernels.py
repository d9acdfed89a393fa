"""Dense and HBS matmul kernels, an error metric, and exact FLOP accounting.

:func:`dense_matmul` is the correctness oracle for :func:`hbs_matmul`, and
:func:`max_rel_error` compares the two. Both kernels share one accumulation
contract: float32 inputs are widened to float64, every product runs in
float64 BLAS (one call for dense; one per non-empty block row of each level
for HBS, with levels applied in stored order into one shared accumulator),
and the result is rounded to float32 once at the end. Results are
deterministic for a fixed BLAS build and thread count, and the single
rounding keeps oracle comparisons meaningful at tight tolerances.

A level's blocks are fixed once it is built, so :func:`hbs_matmul` packs
each level on first use and stores the packing on the level: a read-only
float64 panel of its tiles, twice the bytes of its float32 ``values``, and
the gather index and block-row bounds the product loops over. The packing
lives as long as the level does, and matrices that share a level share it.

FLOP counts follow the multiply-add-times-two convention.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import BlockSparseLevel, HBSMatrix, _as_int
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


class _PackedLevel(NamedTuple):
    """Execution form of one level, built once by :func:`_pack`."""

    panel: np.ndarray  # read-only float64, bh x (n_blocks * bw)
    src: np.ndarray  # read-only gather index; block_cols itself when bw == 1
    # One entry per non-empty block row: output rows [r0, r1) and the
    # panel and src slices of that row's tiles.
    rows: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]


def _pack(level: BlockSparseLevel) -> _PackedLevel:
    """The level's execution form, built on first use and kept on the level.

    The tiles are packed side by side, in stored order, into one
    ``bh x (n_blocks * bw)`` float64 panel; ``src`` gives the row of ``b``
    that each panel column multiplies. Stored blocks are sorted row-major,
    so each block row's tiles form one contiguous panel slice. Building is
    idempotent, so two threads that race to fill the slot store equal forms.
    """
    packed = level._packed
    if packed is None:
        bh, bw = level.shape.bh, level.shape.bw
        n = level.n_blocks
        panel = level.values.astype(np.float64).transpose(1, 0, 2).reshape(bh, n * bw)
        panel.flags.writeable = False
        if bw == 1:
            src = level.block_cols  # already frozen; shared, not copied
        else:
            src = (level.block_cols[:, None] * bw + np.arange(bw)).ravel()
            src.flags.writeable = False
        starts = np.flatnonzero(np.diff(level.block_rows, prepend=-1))
        ends = np.append(starts[1:], n)
        r0s = (level.block_rows[starts] * bh).tolist()
        cuts = zip((starts * bw).tolist(), (ends * bw).tolist())
        rows = tuple((r0, r0 + bh, panel[:, s:e], src[s:e]) for r0, (s, e) in zip(r0s, cuts))
        packed = _PackedLevel(panel, src, rows)
        object.__setattr__(level, "_packed", packed)
    return packed


def hbs_matmul(m: HBSMatrix, b) -> np.ndarray:
    """Multiply an HBS matrix by a dense matrix, level by level.

    Levels are applied in stored order into one shared double-precision
    accumulator, one float64 BLAS product per non-empty block row, and the
    sum is rounded to float32 once at the end. A single rounding keeps the
    result within one float32 ulp of the dense product of the
    reconstruction even when level contributions cancel. Deterministic for
    a fixed BLAS build and thread count.

    The first call that uses a level packs it and keeps the packing on the
    level, so later calls only gather and multiply. The packing holds a
    float64 copy of the level's tiles, twice its float32 ``values``, for as
    long as the level lives.

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
    dividing by zero.

    Raises:
        DimensionError: If the shapes differ.
    """
    g = _as_f32(got, "got").astype(np.float64)
    w = _as_f32(want, "want").astype(np.float64)
    if g.shape != w.shape:
        raise DimensionError(f"shape mismatch: {g.shape} vs {w.shape}")
    scale = np.maximum(np.maximum(np.abs(g), np.abs(w)), 1e-30)
    return float(np.max(np.abs(g - w) / scale))


def flops_dense(m_rows: int, k: int, n: int) -> int:
    """FLOPs of a dense (m x k) @ (k x n) product: 2*m*k*n."""
    m_rows, k, n = (_as_int(d, "dimension", ValueError) for d in (m_rows, k, n))
    if min(m_rows, k, n) < 0:
        raise ValueError("dimensions must be non-negative")
    return 2 * m_rows * k * n


def flops_sparse_level(level: BlockSparseLevel, n: int) -> int:
    """FLOPs of one level's product against n output columns."""
    n = _as_int(n, "n", ValueError)
    if n < 0:
        raise ValueError("n must be non-negative")
    return 2 * level.n_blocks * level.shape.area * n


def flops_sparse(m: HBSMatrix, n: int) -> int:
    """Total FLOPs across all levels (additive)."""
    return sum(flops_sparse_level(level, n) for level in m.levels)
