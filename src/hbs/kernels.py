"""Dense and HBS matmul kernels, an error metric, and exact FLOP accounting.

:func:`dense_matmul` is the correctness oracle for :func:`hbs_matmul`, and
:func:`max_rel_error` compares the two. Both kernels share one accumulation
contract: float32 inputs are widened to float64, every product runs in
float64 BLAS (one call for dense; for HBS, a few stacked GEMMs per part of
the matrix's execution plan, with parts applied in stored order into one
shared accumulator, or one call by the matrix's float64 reconstruction),
and the result is rounded to float32 once at the end.
Results are deterministic for a fixed BLAS build and thread count, and the
single rounding keeps oracle comparisons meaningful at tight tolerances.

:func:`hbs_matmul` has two executions, and a rule on the matrix's stored
counts and the width ``n`` of ``b`` picks one per call (see
:func:`_dense_rule`): the execution plan below, or one float64 BLAS product
by the matrix's float64 reconstruction, built on its first dense product
and kept, at 8 bytes per cell, for as long as the matrix lives. Choosing
builds nothing, so a matrix that only ever runs dense holds no plan. Both
executions meet the same accuracy bound, but they sum in different orders,
so a column's result bits may change when ``n`` crosses the matrix's
crossover from one execution to the other.

A matrix's blocks are fixed once it is built, so :func:`hbs_matmul` builds
the matrix's execution plan on its first product by the plan and keeps it
for as long as the matrix lives. The plan has one part per stored level,
except that every level whose ``bh`` divides 8, on a matrix whose rows 8
divides, joins one part of zero-padded 8-row execution blocks (8 is
``_EXEC_BH``). Shapes divide downward, so those levels are the last ones.
Such a part holds one tile column per execution block row and matrix column
that any of its levels keeps a cell in: stored block ``(gr, gc)`` of an
``bh x bw`` level lands in execution block row ``gr * bh // 8``, at row
offset ``gr * bh % 8``, in ``bw`` tile columns, one per column it covers.
Levels are disjoint, so cells of several levels that fall in one tile
column fill distinct rows of it, and the rest of each column is ``+0.0``.
Padding runs only along rows, so a padded column reads the same row of
``b`` as its kept cells. Every other level is a part of its own and runs
as stored, in the same form with tile columns of height ``bh``. The
storage shape never changes.

Each part's non-empty execution block rows are then stored block-ELL
style, so that one stacked GEMM covers many block rows instead of one BLAS
call per row: sorted by tile column count, longest first, and cut into
slabs. A slab ends before the first row holding at most half the columns
of its own first row. Each slab stacks its rows' tile columns side by side
in matrix column order, padded with ``+0.0`` to the first row's length,
so padding stays below the execution tiles themselves and there are at
most ``log2(longest row) + 1`` slabs. The part holds the execution tiles
in float64 plus their padding, below twice those tiles, and one ``intp``
gather index per padded column: the row of ``b`` that column multiplies.
Padding columns read row ``k``, one past the matrix's last column, which
is the zero row :func:`hbs_matmul` appends to its copy of ``b``, so
padding never multiplies an infinity. Each slab also keeps per-row views
of its rows' own tiles and indices, for rows that run alone.

FLOP counts follow the multiply-add-times-two convention and count the
stored, useful cells; a padded part executes more.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

from .core import (
    BlockShape, BlockSparseLevel, HBSMatrix, _as_2d, _as_int, _require, _row_major, reconstruct
)
from .errors import DimensionError


def dense_matmul(a, b) -> np.ndarray:
    """Dense product a @ b: one float64 BLAS product, rounded to float32 once."""
    a = _as_2d(a, "a")
    b = _as_2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions differ: a is {a.shape}, b is {b.shape}")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


# Height of the zero-padded blocks that fine levels run as (see _part).
# Taller blocks mean fewer BLAS calls but more padded FLOPs and packed bytes.
_EXEC_BH = 8

# Largest slice of b, in bytes, that one stacked GEMM over several block
# rows may gather. It has two roles. It is the threshold between rows that
# run alone and rows that stack: a slab whose rows are too long for two to
# fit runs each row alone. And it caps the transient gather of one stacked
# GEMM, which would otherwise be bounded only by the level's size.
_GATHER_BYTES = 128 * 1024


class _Slab(NamedTuple):
    """Block rows of similar length, padded to a common one (see _part)."""

    tiles: np.ndarray  # read-only float64 (R, eh, L): column-major per row; own columns first
    src: np.ndarray  # read-only intp (R, L): row of b per tile column
    lens: np.ndarray  # read-only intp (R,): tile columns of each row's own, descending
    # One entry per row: its execution block row, and its tiles and src cut
    # to its own length, so a row that runs alone slices nothing per call.
    rows: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    start: int  # place of the slab's first row in its part's ids


class _Part(NamedTuple):
    """Levels that run as one set of execution blocks, built by :func:`_part`."""

    levels: range  # the stored levels it covers, by index
    shape: BlockShape  # execution shape: stored, or padded to _EXEC_BH rows
    slabs: tuple[_Slab, ...]  # longest rows first
    ids: np.ndarray  # read-only intp: execution block row of each row, slab after slab


# Each matrix's execution plan, its parts in stored order, and its float64
# reconstruction for the dense product, each for as long as the matrix
# lives. Matrices hash by identity.
_PLANS = weakref.WeakKeyDictionary()
_DENSE = weakref.WeakKeyDictionary()

# The rule that picks a product (see _dense_rule), a crossover measured on
# a 2-core VM with 2 BLAS threads over 19 matrices of 256-2048 rows at 4,
# 16, 64 and 256 columns: of the 69 cells where the two products differed
# by more than 10%, it picked the faster in 67. A gathered tile column
# costs as much as _GATHER_CELLS executed cells, and the dense product's
# cells weigh _DENSE_CELLS times n ** -_WIDTH_EXP.
_GATHER_CELLS = 7.4
_DENSE_CELLS = 1.55
_WIDTH_EXP = 0.3


def _fine(m: HBSMatrix) -> int:
    """Index of the first level that pads to _EXEC_BH rows; shapes divide
    downward, so those levels are the last ones."""
    fine = len(m.levels)
    while fine and m.rows % _EXEC_BH == 0 and _EXEC_BH % m.levels[fine - 1].shape.bh == 0:
        fine -= 1
    return fine


def _dense_rule(m: HBSMatrix, n: int) -> tuple[float, float]:
    """The two sides of the rule that picks :func:`hbs_matmul`'s product:
    ``(plan, dense)``. The dense product runs when ``plan > dense``
    (:func:`_runs_dense`).

    ``plan`` is ``(E + _GATHER_CELLS * T) * n ** _WIDTH_EXP``, where ``T``
    counts the stored tile columns, ``n_blocks * bw`` summed over the levels,
    and ``E`` their execution cells, each column ``bh`` tall, or 8 in the
    part that pads to 8 rows. ``dense`` is ``_DENSE_CELLS * rows * cols``.
    Only stored counts are read, so the rule builds nothing; at ``n = 0``
    the plan runs.
    """
    fine = _fine(m)
    cells = 0.0
    for i, lv in enumerate(m.levels):
        eh = _EXEC_BH if i >= fine else lv.shape.bh
        cells += lv.n_blocks * lv.shape.bw * (eh + _GATHER_CELLS)
    return cells * n**_WIDTH_EXP, _DENSE_CELLS * m.rows * m.cols


def _runs_dense(m: HBSMatrix, n: int) -> bool:
    """Whether :func:`hbs_matmul` runs ``m``'s dense product against ``n`` columns."""
    plan, dense = _dense_rule(m, n)
    return plan > dense


def _dense_form(m: HBSMatrix) -> np.ndarray:
    """The matrix's read-only float64 reconstruction, built on first use.
    Threads that race to build it build equal ones, and all keep the first
    stored."""
    dense = _DENSE.get(m)
    if dense is None:
        dense = reconstruct(m).astype(np.float64)
        dense.flags.writeable = False
        dense = _DENSE.setdefault(m, dense)
    return dense


def _plan(m: HBSMatrix) -> tuple[_Part, ...]:
    """The matrix's execution plan (see the module docstring), built on
    first use. Threads that race to build a plan build equal ones, and all
    keep the first stored."""
    plan = _PLANS.get(m)
    if plan is not None:
        return plan
    fine = _fine(m)
    parts = [_part(m, range(i, i + 1), m.levels[i].shape.bh) for i in range(fine)]
    if fine < len(m.levels):
        parts.append(_part(m, range(fine, len(m.levels)), _EXEC_BH))
    return _PLANS.setdefault(m, tuple(parts))


def _part(m: HBSMatrix, covered: range, eh: int) -> _Part:
    """The covered levels packed into ``eh``-row execution blocks.

    Every kept cell is written once, straight into its slab's tiles, which
    are views of one zeroed buffer, so no other copy of the tiles is made.
    """
    levels = [m.levels[i] for i in covered]
    # One tile column per (execution block row, matrix column) that holds a
    # kept cell, in row-major order. slot maps each block's bw columns,
    # level after level, to theirs.
    keys, slot = np.unique(
        np.concatenate([
            _row_major(
                np.repeat(lv.block_rows * lv.shape.bh // eh, lv.shape.bw),
                (lv.block_cols[:, None] * lv.shape.bw + np.arange(lv.shape.bw)).ravel(),
                m.cols,
            )
            for lv in levels
        ]),
        return_inverse=True,
    )
    erows, ecols = (a.astype(np.intp) for a in np.divmod(keys, np.uint64(m.cols)))
    first = np.flatnonzero(np.diff(erows, prepend=-1))
    lens = np.diff(first, append=len(erows))
    order = np.argsort(-lens, kind="stable")  # longest first, ties in row order
    ids, sorted_lens = erows[first[order]], lens[order]
    for a in (ids, sorted_lens):
        a.flags.writeable = False
    # Slabs as (first row, end row, width, first padded column), and the
    # padded column where each row starts, rows in slab order.
    bounds, lo, padded, descending = [], 0, 0, -sorted_lens
    starts = np.empty(len(ids), dtype=np.intp)
    while lo < len(ids):
        width = int(sorted_lens[lo])
        hi = int(np.searchsorted(descending, -(width // 2)))
        starts[lo:hi] = padded + np.arange(hi - lo) * width
        bounds.append((lo, hi, width, padded))
        lo, padded = hi, padded + (hi - lo) * width
    # The padded column of each tile column: its row's start plus its place.
    row_starts = np.empty_like(starts)
    row_starts[order] = starts
    at = np.repeat(row_starts - first, lens) + np.arange(len(keys))
    # Padding columns are +0.0 and read row k of b, the zero row.
    tiles = np.zeros((padded, eh))
    src = np.full(padded, m.cols, dtype=np.intp)
    src[at] = ecols
    taken = 0
    for lv in levels:
        bh, bw = lv.shape.bh, lv.shape.bw
        count = lv.n_blocks * bw
        # Each block fills rows gr * bh % eh onwards of its bw columns.
        where = at.take(slot[taken : taken + count]).reshape(-1, bw)
        cells = tiles.reshape(-1, eh // bh, bh)
        cells[where, (lv.block_rows % (eh // bh))[:, None]] = lv.values.transpose(0, 2, 1)
        taken += count
    for a in (tiles, src):
        a.flags.writeable = False
    slabs = []
    for lo, hi, width, base in bounds:
        # Each slab's (R, eh, L) stack is a transposed view of its (R, L, eh)
        # run of the buffer: column-major per row.
        end = base + (hi - lo) * width
        slab_tiles = tiles[base:end].reshape(hi - lo, width, eh).transpose(0, 2, 1)
        slab_src = src[base:end].reshape(hi - lo, width)
        widths = sorted_lens[lo:hi]
        rows = tuple(
            (r, slab_tiles[s, :, :w], slab_src[s, :w])
            for s, (r, w) in enumerate(zip(ids[lo:hi].tolist(), widths.tolist()))
        )
        slabs.append(_Slab(slab_tiles, slab_src, widths, rows, lo))
    return _Part(covered, BlockShape(eh, levels[-1].shape.bw), tuple(slabs), ids)


class _Execution(NamedTuple):
    """How one part of a plan runs (see :func:`_execution`)."""

    levels: range  # the stored levels it covers, by index
    shape: BlockShape  # execution shape
    flops: int  # FLOPs of the execution tiles, slab padding not counted
    nbytes: int  # bytes of the part's arrays
    slabs: int
    padding: float  # share of the packed cells that pad a row to its slab's length


def _execution(m: HBSMatrix, n: int) -> tuple[_Execution, ...]:
    """How each part of a matrix's plan runs against n columns; builds the
    plan if needed."""
    runs = []
    for part in _plan(m):
        cells = sum(int(s.lens.sum()) for s in part.slabs) * part.shape.bh
        packed_cells = sum(s.tiles.size for s in part.slabs)
        runs.append(_Execution(
            part.levels,
            part.shape,
            2 * cells * n,
            part.ids.nbytes
            + sum(s.tiles.nbytes + s.src.nbytes + s.lens.nbytes for s in part.slabs),
            len(part.slabs),
            1 - cells / packed_cells if packed_cells else 0.0,
        ))
    return tuple(runs)


def hbs_matmul(m: HBSMatrix, b) -> np.ndarray:
    """Multiply an HBS matrix by a dense matrix, by its plan or densely.

    A rule on the matrix's stored counts and the width ``n`` of ``b`` picks
    the product (see :func:`_dense_rule`). Where the plan is modelled to
    lose, as for most matrices at hundreds of columns, one float64 BLAS
    product runs by the matrix's float64 reconstruction, built on its first
    dense product and kept, at 8 bytes per cell, for as long as the matrix
    lives. Elsewhere the parts of the matrix's execution plan are applied
    in stored order into one shared double-precision accumulator (see
    :func:`_plan_product`). Either way the sum is rounded to float32 once
    at the end. Products of float32 values are exact in float64, so each
    cell of that sum is within ``gamma_K`` times the same cell of
    ``|A| @ |b|`` of the exact product ``A @ b``, where ``A`` is the
    reconstruction, ``gamma_K = K*u / (1 - K*u)``, ``u = 2^-53`` and
    ``K = k + n_parts``, at most ``k + n_levels`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 3.5); the final
    rounding adds half a float32 ulp. The bound is componentwise, as for
    :func:`dense_matmul`: where products cancel, the relative error may be
    large. Deterministic for a fixed BLAS build and thread count.

    The two products sum in different orders, so a column's result bits
    may change when ``n`` crosses the matrix's crossover from one product
    to the other; both stay within the bound.

    Raises:
        DimensionError: On inner-dimension mismatch.
    """
    _require(m, HBSMatrix, "m")
    b = _as_2d(b, "b")
    if m.cols != b.shape[0]:
        raise DimensionError(f"matrix is {m.rows}x{m.cols}, b is {b.shape[0]}x{b.shape[1]}")
    if _runs_dense(m, b.shape[1]):
        return (_dense_form(m) @ b.astype(np.float64)).astype(np.float32)
    return _plan_product(m, b)


def _plan_product(m: HBSMatrix, b: np.ndarray) -> np.ndarray:
    """``m @ b`` by the matrix's execution plan, for a float32 ``b`` of
    ``m.cols`` rows; :func:`hbs_matmul`'s sparse product, which
    :func:`~hbs.perf.calibrate_irf` times.

    A matrix's first product builds its plan (see the module docstring),
    which is kept for as long as the matrix lives, so later calls only
    gather and multiply. The part that pads levels to 8 rows sums all of
    its levels' cells of one execution block row inside one GEMM per row.
    Each slab of a part runs as stacked float64 GEMMs over consecutive
    rows, as many as keep the gathered slice of ``b`` within
    ``_GATHER_BYTES``, each cut to the length of its first, longest row,
    into one buffer per part; the buffer then lands in the accumulator
    with one scatter. Rows are unique within a part, so their sums land
    without conflict. A slab whose rows are too long for that runs each row
    alone over its own tiles, which is the arithmetic of one BLAS call per
    block row. Such slabs come first, as the slice per row only shrinks
    from slab to slab. Padding adds exact zeros, so the result is within
    the same bound of the oracle, but it may differ in the last bit from a
    product that skips the padding.
    """
    n = b.shape[1]
    b64 = np.empty((m.cols + 1, n))
    b64[:-1] = b
    b64[-1] = 0.0
    out64 = np.zeros((m.rows, n))
    for part in _plan(m):
        eh = part.shape.bh
        out3 = out64.reshape(m.rows // eh, eh, n)
        base = None  # place in part.ids of the first stacked row
        for tiles, src, lens, rows, start in part.slabs:
            step = _GATHER_BYTES // max(1, 8 * n * src.shape[1])
            if step < 2:
                for row, p, idx in rows:
                    out3[row] += p @ b64.take(idx, axis=0)
                continue
            if base is None:
                base = start
                stacked = np.empty((len(part.ids) - base, eh, n))
            offset = start - base
            for s in range(0, len(lens), step):
                e, w = min(s + step, len(lens)), lens[s]
                np.matmul(
                    tiles[s:e, :, :w],
                    b64.take(src[s:e, :w], axis=0),
                    out=stacked[offset + s : offset + e],
                )
        if base is not None:
            out3[part.ids[base:]] += stacked
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
    m_rows, k, n = (_as_int(d, "dimension", ValueError, low=0) for d in (m_rows, k, n))
    return 2 * m_rows * k * n


def flops_sparse_level(level: BlockSparseLevel, n: int) -> int:
    """FLOPs of one level's product against n output columns.

    Counts the stored cells only. :func:`hbs_matmul` runs the level in a
    part of its matrix's execution plan (see the module docstring), whose
    zero padding executes more; ``hbs matmul --oracle`` prints both.
    """
    _require(level, BlockSparseLevel, "level")
    n = _as_int(n, "n", ValueError, low=0)
    return 2 * level.n_blocks * level.shape.area * n


def flops_sparse(m: HBSMatrix, n: int) -> int:
    """Total FLOPs across all levels (additive)."""
    _require(m, HBSMatrix, "m")
    return sum(flops_sparse_level(level, n) for level in m.levels)
