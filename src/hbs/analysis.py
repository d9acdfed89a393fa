"""Retention metrics and sparsity summaries for comparing configurations.

The retention metric asks: of the largest-magnitude cells of the original
matrix, what fraction survived pruning? Membership is counted on the kept
support, not on value mass. Summaries report realized per-level and
cumulative densities from block counts, independent of the values.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    BlockShape,
    HBSMatrix,
    _as_real,
    _require,
    _top_magnitudes,
    as_matrix,
    density,
    support_mask,
)
from .errors import DimensionError


@dataclass(frozen=True)
class RetentionReport:
    """Fraction of top-magnitude cells retained, per requested percentile.

    ``retained[i]`` is the fraction of the ``ceil(percentiles[i] * total)``
    largest-magnitude cells of the original matrix that the pruned support
    still covers. Retention is not guaranteed monotone in p.
    """

    percentiles: tuple[float, ...]
    retained: tuple[float, ...]
    total_elements: int

    def __post_init__(self):
        if len(self.percentiles) != len(self.retained):
            raise ValueError("percentiles and retained lengths differ")
        for r in self.retained:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"retained fraction {r!r} outside [0, 1]")

    def render(self) -> str:
        lines = [
            f"top-magnitude retention over {self.total_elements} cells",
            "  top-p     retained",
        ]
        for p, r in zip(self.percentiles, self.retained):
            lines.append(f"  {p:<8g}  {r:.6f}")
        return "\n".join(lines)


def _top_sizes(percentiles, total: int) -> list[int]:
    sizes = []
    for p in percentiles:
        p = _as_real(p, "percentile", ValueError)
        if not 0.0 < p <= 1.0:
            raise ValueError(
                f"percentile {p!r} outside (0, 1] "
                "(percentiles are fractions, e.g. 0.1 for the top 10%)"
            )
        # ceil(p * total) on the exact rational of p's shortest repr, so
        # 0.3 of 10 cells is 3, not the float product's 3.0000000000000004.
        sizes.append(math.ceil(Fraction(repr(p)) * total))
    return sizes


def topk_retention(original, hbs: HBSMatrix, percentiles) -> RetentionReport:
    """Fraction of the original's top-|value| cells kept by ``hbs``.

    For each percentile p, the top set is the ``ceil(p * total)`` cells with
    the largest magnitudes, ties broken by ascending row-major index;
    retention is the share of that set inside the pruned support. The size
    is the ceiling of the exact product of ``total`` and p's shortest
    decimal repr. Each top set is found by selection (one ``np.partition``
    per percentile, on the magnitudes' bit patterns, see
    :func:`hbs.core._top_magnitudes`), in time linear in the cells, and is
    exactly the prefix of a stable descending sort. It is kept as a mask and
    counted against the support mask, with no index arrays.

    Raises:
        DimensionError: If the shapes differ.
    """
    _require(hbs, HBSMatrix, "hbs")
    if isinstance(percentiles, (str, bytes)):
        raise ValueError(f"percentiles: expected numbers, got {type(percentiles).__name__}")
    percentiles = tuple(_require(percentiles, Iterable, "percentiles"))
    a = as_matrix(original)
    if a.shape != (hbs.rows, hbs.cols):
        raise DimensionError(
            f"shape mismatch: original is {a.shape[0]}x{a.shape[1]}, "
            f"pruned is {hbs.rows}x{hbs.cols}"
        )
    total = a.size
    sizes = _top_sizes(percentiles, total)

    mags = np.abs(a.ravel())
    support = support_mask(hbs).ravel()
    retained = tuple(
        int(np.count_nonzero(_top_magnitudes(mags, sz) & support)) / sz for sz in sizes
    )
    return RetentionReport(tuple(float(p) for p in percentiles), retained, total)


@dataclass(frozen=True)
class LevelSummary:
    """Realized occupancy of one level: kept blocks and covered-cell share."""

    shape: BlockShape
    kept_blocks: int
    total_blocks: int
    density: float


@dataclass(frozen=True)
class SparsitySummary:
    """Realized per-level and cumulative coverage of an HBS matrix."""

    rows: int
    cols: int
    per_level: tuple[LevelSummary, ...]
    cumulative_density: float

    def render(self) -> str:
        lines = [f"sparsity summary for {self.rows}x{self.cols}"]
        for i, ls in enumerate(self.per_level):
            lines.append(
                f"  level {i + 1}: {str(ls.shape):>7s}  kept {ls.kept_blocks}/"
                f"{ls.total_blocks} blocks  density {ls.density:.10g}"
            )
        lines.append(f"  cumulative density {self.cumulative_density:.10g}")
        return "\n".join(lines)


def sparsity_summary(hbs: HBSMatrix) -> SparsitySummary:
    """Per-level kept/total block counts and densities, plus the total.

    Densities are exact integer ratios evaluated in double precision.
    Disjointness of a valid HBS makes the cumulative density the plain sum
    of the per-level densities.
    """
    _require(hbs, HBSMatrix, "hbs")
    cells = hbs.rows * hbs.cols
    per_level = []
    for lv in hbs.levels:
        per_level.append(
            LevelSummary(
                lv.shape,
                lv.n_blocks,
                lv.grid_rows * lv.grid_cols,
                lv.n_blocks * lv.shape.area / cells,
            )
        )
    return SparsitySummary(hbs.rows, hbs.cols, tuple(per_level), density(hbs))
