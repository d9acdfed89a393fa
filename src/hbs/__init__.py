"""Hierarchical block sparse matrices: pruning, kernels, cost model, formats.

A matrix is stored as a sum of block sparse levels with hierarchically
nested block shapes and disjoint supports. The package prunes dense
matrices into that form by magnitude, multiplies them against dense
operands with exact FLOP accounting, models the achievable speedup from
measured or analytic irregularity factors, scores how much top-magnitude
signal a configuration retains, and round-trips everything through
bit-exact file formats. The ``hbs`` command exposes each piece.
"""

from .analysis import (
    LevelSummary,
    RetentionReport,
    SparsitySummary,
    sparsity_summary,
    topk_retention,
)
from .core import (
    BlockShape,
    BlockSparseLevel,
    CheckResult,
    HBSConfig,
    HBSMatrix,
    LevelSpec,
    ValidationReport,
    as_matrix,
    density,
    grid_dims,
    reconstruct,
    support_mask,
    validate,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DimensionError,
    FormatError,
    HbsError,
    IrfLookupError,
    MagicError,
    TruncatedError,
    ValidationError,
    VersionError,
)
from .io import read_dmat, read_hbsf, read_irf, write_dmat, write_hbsf, write_irf
from .kernels import (
    dense_matmul,
    flops_dense,
    flops_sparse,
    flops_sparse_level,
    hbs_matmul,
    max_rel_error,
)
from .perf import (
    BenchPlan,
    CostEstimate,
    IrfTable,
    LevelCost,
    analytic_irf,
    analytic_table,
    calibrate_irf,
    estimate_cost,
    sparsity_bucket,
)
from .pruning import (
    LevelTrace,
    PruneTrace,
    lower_tensor4d,
    prune_hierarchical,
)

__version__ = "0.1.0"

__all__ = [
    "BenchPlan",
    "BlockShape",
    "BlockSparseLevel",
    "CalibrationError",
    "CheckResult",
    "ConfigError",
    "CostEstimate",
    "DimensionError",
    "FormatError",
    "HBSConfig",
    "HBSMatrix",
    "HbsError",
    "IrfLookupError",
    "IrfTable",
    "LevelCost",
    "LevelSpec",
    "LevelSummary",
    "LevelTrace",
    "MagicError",
    "PruneTrace",
    "RetentionReport",
    "SparsitySummary",
    "TruncatedError",
    "ValidationError",
    "ValidationReport",
    "VersionError",
    "analytic_irf",
    "analytic_table",
    "as_matrix",
    "calibrate_irf",
    "dense_matmul",
    "density",
    "estimate_cost",
    "flops_dense",
    "flops_sparse",
    "flops_sparse_level",
    "grid_dims",
    "hbs_matmul",
    "lower_tensor4d",
    "max_rel_error",
    "prune_hierarchical",
    "read_dmat",
    "read_hbsf",
    "read_irf",
    "reconstruct",
    "sparsity_bucket",
    "sparsity_summary",
    "support_mask",
    "topk_retention",
    "validate",
    "write_dmat",
    "write_hbsf",
    "write_irf",
]
