"""Dense and HBS matmul kernels, an error metric, and exact FLOP accounting.

:func:`dense_matmul` is the correctness oracle for :func:`hbs_matmul`, and
:func:`max_rel_error` compares the two. Both kernels share one accumulation
contract: float32 inputs are widened to float64, every product runs in
float64 BLAS (one call for dense; for HBS, a few stacked GEMMs per level,
with levels applied in stored order into one shared accumulator), and the
result is rounded to float32 once at the end. Results are deterministic
for a fixed BLAS build and thread count, and the single rounding keeps
oracle comparisons meaningful at tight tolerances.

A level's blocks are fixed once it is built, so :func:`hbs_matmul` packs
each level on first use and keeps the packing for as long as the level
lives; matrices that share a level share it. A level whose ``bh`` divides
8, on a matrix whose rows 8 divides, runs as zero-padded ``8 x bw`` blocks
(8 is ``_EXEC_BH``): stored block ``(gr, gc)`` lands in execution block
``(gr // (8 / bh), gc)`` at row offset ``(gr % (8 / bh)) * bh``, and the
rest of each execution block is ``+0.0``. Padding runs only along rows, so
a padded block reads the same rows of ``b`` as its kept cells. Every other
level runs as stored. The storage shape never changes.

The non-empty execution block rows are then stored block-ELL style, so
that one stacked GEMM covers many block rows instead of one BLAS call per
row: sorted by block count, longest first, and cut into slabs. A slab ends
before the first row holding at most half the blocks of its own first row.
Each slab stacks its rows' tiles side by side in row-major block order,
padded with ``+0.0`` to the first row's length, so padding stays below the
execution tiles themselves and there are at most ``log2(longest row) + 1``
slabs. The packing holds the execution tiles in float64 plus their
padding, below twice those tiles, and one ``intp`` gather index per padded
column: the row of ``b`` that column multiplies. Padding columns read row
``k``, one past the matrix's last column, which is the zero row
:func:`hbs_matmul` appends to its copy of ``b``, so padding never
multiplies an infinity. Each slab also keeps per-row views of its rows'
own tiles and indices, for rows that run alone.

FLOP counts follow the multiply-add-times-two convention and count the
stored, useful cells; a padded level executes more.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

from .core import BlockShape, BlockSparseLevel, HBSMatrix, _as_2d, _as_int, _require, _row_major
from .errors import DimensionError


def dense_matmul(a, b) -> np.ndarray:
    """Dense product a @ b: one float64 BLAS product, rounded to float32 once."""
    a = _as_2d(a, "a")
    b = _as_2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions differ: a is {a.shape}, b is {b.shape}")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


# Height of the zero-padded blocks a fine level runs as (see _pack). Taller
# blocks mean fewer BLAS calls but more padded FLOPs and packed bytes.
_EXEC_BH = 8

# Largest slice of b, in bytes, that one stacked GEMM over several block
# rows may gather. Stacking saves a dispatch per row but writes the slice
# out and reads it back. At 4 columns the saving stops growing near this
# size; at 256 columns, where one row's slice is tens of KiB, rows run
# faster alone, and this size keeps nearly all of them alone. A slab whose
# rows are too long for two to fit runs each row alone.
_GATHER_BYTES = 128 * 1024


class _Slab(NamedTuple):
    """Block rows of similar length, padded to a common one (see _pack)."""

    tiles: np.ndarray  # read-only float64 (R, eh, L * bw), column-major per row; own tiles first
    src: np.ndarray  # read-only intp (R, L * bw): row of b per tile column
    ids: np.ndarray  # read-only intp (R,): execution block row of each slab row
    lens: np.ndarray  # read-only intp (R,): columns of each row's own tiles, descending
    # One entry per row: its execution block row, and its tiles and src cut
    # to its own length, so a row that runs alone slices nothing per call.
    rows: tuple[tuple[int, np.ndarray, np.ndarray], ...]


class _PackedLevel(NamedTuple):
    """Execution form of one level, built once by :func:`_pack`."""

    shape: BlockShape  # execution shape: stored, or padded to _EXEC_BH rows
    slabs: tuple[_Slab, ...]  # longest rows first


# Each level's packing, for as long as the level lives. Levels hash by
# identity, so matrices that share a level share its packing.
_PACKED = weakref.WeakKeyDictionary()


def _pack(level: BlockSparseLevel) -> _PackedLevel:
    """The level's packing (see the module docstring), built on first use.

    Each slab's arrays are gathered in one vectorised pass. Threads that
    race to build a packing build equal ones, and all keep the first stored.
    """
    packed = _PACKED.get(level)
    if packed is not None:
        return packed
    bh, bw = level.shape.bh, level.shape.bw
    per = 1
    if _EXEC_BH % bh == 0 and level.grid_rows * bh % _EXEC_BH == 0:
        per = _EXEC_BH // bh
    eh = per * bh
    # Execution blocks in row-major order: their rows, columns and tiles,
    # then one all-zero tile that padding gathers.
    keys, slot = np.unique(
        _row_major(level.block_rows // per, level.block_cols, level.grid_cols),
        return_inverse=True,
    )
    erows, ecols = (a.astype(np.intp) for a in np.divmod(keys, np.uint64(level.grid_cols)))
    blocks = np.zeros((len(keys) + 1, per, bh, bw))
    blocks[slot, level.block_rows % per] = level.values
    blocks = blocks.reshape(-1, eh, bw)
    cols = np.full((len(blocks), bw), level.cols, dtype=np.intp)
    cols[:-1] = ecols[:, None] * bw + np.arange(bw)
    first = np.flatnonzero(np.diff(erows, prepend=-1))
    lens = np.diff(first, append=len(erows))
    order = np.argsort(-lens, kind="stable")  # longest first, ties in row order
    ids, first, lens = erows[first[order]], first[order], lens[order]
    slabs, lo, descending = [], 0, -lens
    while lo < len(lens):
        width = int(lens[lo])
        hi = int(np.searchsorted(descending, -(width // 2)))
        # The block at each place of each row; the zero tile past its end.
        place = np.arange(width)
        at = np.where(place < lens[lo:hi, None], first[lo:hi, None] + place, len(blocks) - 1)
        # Gathered as (R, L * bw, eh), one tile column after another, so
        # the (R, eh, L * bw) stack is a transposed view and needs no copy.
        tiles = blocks.take(at, axis=0).transpose(0, 1, 3, 2).reshape(hi - lo, -1, eh)
        tiles = tiles.transpose(0, 2, 1)
        src = cols.take(at, axis=0).reshape(hi - lo, -1)
        slab_ids, widths = ids[lo:hi], lens[lo:hi] * bw
        for a in (tiles, src, slab_ids, widths):
            a.flags.writeable = False
        rows = tuple(
            (r, tiles[s, :, :w], src[s, :w])
            for s, (r, w) in enumerate(zip(slab_ids.tolist(), widths.tolist()))
        )
        slabs.append(_Slab(tiles, src, slab_ids, widths, rows))
        lo = hi
    return _PACKED.setdefault(level, _PackedLevel(BlockShape(eh, bw), tuple(slabs)))


class _Execution(NamedTuple):
    """How one level runs, read from its packing (see :func:`_execution`)."""

    shape: BlockShape  # execution shape
    flops: int  # FLOPs of the execution tiles, slab padding not counted
    nbytes: int  # bytes of the packing's arrays
    slabs: int
    padding: float  # share of the packed cells that pad a row to its slab's length


def _execution(level: BlockSparseLevel, n: int) -> _Execution:
    """How a level runs against n columns, from its packing, which this
    builds if needed."""
    packed = _pack(level)
    cells = sum(int(s.lens.sum()) for s in packed.slabs) * packed.shape.bh
    packed_cells = sum(s.tiles.size for s in packed.slabs)
    return _Execution(
        packed.shape,
        2 * cells * n,
        sum(s.tiles.nbytes + s.src.nbytes + s.ids.nbytes + s.lens.nbytes for s in packed.slabs),
        len(packed.slabs),
        1 - cells / packed_cells if packed_cells else 0.0,
    )


def hbs_matmul(m: HBSMatrix, b) -> np.ndarray:
    """Multiply an HBS matrix by a dense matrix, level by level.

    Levels are applied in stored order into one shared double-precision
    accumulator and the sum is rounded to float32 once at the end. Products
    of float32 values are exact in float64, so each cell of that sum is
    within ``gamma_K`` times the same cell of ``|A| @ |b|`` of the exact
    product ``A @ b``, where ``A`` is the reconstruction,
    ``gamma_K = K*u / (1 - K*u)``, ``u = 2^-53`` and ``K = k + n_levels``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    section 3.5); the final rounding adds half a float32 ulp. The bound is
    componentwise, as for :func:`dense_matmul`: where products cancel, the
    relative error may be large.
    Deterministic for a fixed BLAS build and thread count.

    The first call that uses a level packs it (see the module docstring),
    and the packing is kept for as long as the level lives, so later calls
    only gather and multiply. Each slab of the packing runs as stacked
    float64 GEMMs over consecutive rows, as many as keep the gathered slice
    of ``b`` within ``_GATHER_BYTES``, each cut to the length of its first,
    longest row. Rows are unique within a level, so their sums land in the
    accumulator without conflict. A slab whose rows are too long for that
    runs each row alone over its own tiles, which is the arithmetic of one
    BLAS call per block row. Padding adds exact zeros, so the result is
    within the same bound of the oracle, but it may differ in the last bit
    from a product that skips the padding.

    Raises:
        DimensionError: On inner-dimension mismatch.
    """
    _require(m, HBSMatrix, "m")
    b = _as_2d(b, "b")
    if m.cols != b.shape[0]:
        raise DimensionError(f"matrix is {m.rows}x{m.cols}, b is {b.shape[0]}x{b.shape[1]}")
    n = b.shape[1]
    b64 = np.empty((m.cols + 1, n))
    b64[:-1] = b
    b64[-1] = 0.0
    out64 = np.zeros((m.rows, n))
    for level in m.levels:
        packed = _pack(level)
        eh = packed.shape.bh
        out3 = out64.reshape(m.rows // eh, eh, n)
        for tiles, src, ids, lens, rows in packed.slabs:
            step = _GATHER_BYTES // max(1, 8 * n * src.shape[1])
            if step < 2:
                for row, p, idx in rows:
                    out3[row] += p @ b64.take(idx, axis=0)
                continue
            for s in range(0, len(ids), step):
                e, w = s + step, lens[s]
                out3[ids[s:e]] += tiles[s:e, :, :w] @ b64.take(src[s:e, :w], axis=0)
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
    g = _as_2d(got, "got").astype(np.float64)
    w = _as_2d(want, "want").astype(np.float64)
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

    Counts the stored cells only. :func:`hbs_matmul` runs the level's
    packing (see the module docstring), whose zero padding executes more;
    ``hbs matmul --oracle`` prints both.
    """
    _require(level, BlockSparseLevel, "level")
    n = _as_int(n, "n", ValueError)
    if n < 0:
        raise ValueError("n must be non-negative")
    return 2 * level.n_blocks * level.shape.area * n


def flops_sparse(m: HBSMatrix, n: int) -> int:
    """Total FLOPs across all levels (additive)."""
    _require(m, HBSMatrix, "m")
    return sum(flops_sparse_level(level, n) for level in m.levels)
