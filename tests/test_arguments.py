"""A wrong argument type is refused up front with a package error that
names the argument, not by an AttributeError or TypeError from deep inside.
A sparsity outside [0, 1] gets the same message at every boundary."""

import numpy as np
import pytest

from hbs import (
    BenchPlan,
    BlockShape,
    BlockSparseLevel,
    ConfigError,
    DimensionError,
    FormatError,
    HBSConfig,
    HBSMatrix,
    IrfTable,
    LevelSpec,
    as_matrix,
    calibrate_irf,
    dense_matmul,
    density,
    estimate_cost,
    flops_sparse,
    flops_sparse_level,
    grid_dims,
    hbs_matmul,
    lower_tensor4d,
    max_rel_error,
    prune_hierarchical,
    read_irf,
    reconstruct,
    sparsity_bucket,
    sparsity_summary,
    support_mask,
    topk_retention,
    validate,
    write_dmat,
    write_hbsf,
)
from hbs.cli import main

A = np.ones((8, 8), np.float32)
M, _ = prune_hierarchical(A, HBSConfig.parse("2x1:0.5"))
CFG = HBSConfig.parse("2x1:0.5")
TABLE = IrfTable({(BlockShape(2, 1), 32): 0.5}, "calibrated")
PLAN = BenchPlan((8, 8, 8))

CASES = [
    ("hbs_matmul", lambda tmp: hbs_matmul(A, A), ValueError, "m: expected HBSMatrix, got ndarray"),
    ("reconstruct", lambda tmp: reconstruct(A), ValueError, "m: expected HBSMatrix"),
    ("density", lambda tmp: density(A), ValueError, "m: expected HBSMatrix"),
    ("support_mask", lambda tmp: support_mask(A), ValueError, "m: expected HBSMatrix"),
    ("validate", lambda tmp: validate(A), ValueError, "m: expected HBSMatrix"),
    ("flops_sparse", lambda tmp: flops_sparse(A, 4), ValueError, "m: expected HBSMatrix"),
    (
        "flops_sparse_level",
        lambda tmp: flops_sparse_level(M, 4),
        ValueError,
        "level: expected BlockSparseLevel, got HBSMatrix",
    ),
    ("grid_dims", lambda tmp: grid_dims(8, 8, "2x1"), ConfigError, "shape: expected BlockShape"),
    (
        "grid_dims-float-rows",
        lambda tmp: grid_dims(4.0, 4, BlockShape(2, 2)),
        DimensionError,
        "rows must be an integer, got 4.0",
    ),
    (
        "grid_dims-fractional-rows",
        lambda tmp: grid_dims(4.5, 4, BlockShape(2, 2)),
        DimensionError,
        "rows must be an integer, got 4.5",
    ),
    (
        "grid_dims-bool-rows",
        lambda tmp: grid_dims(True, 4, BlockShape(1, 1)),
        DimensionError,
        "rows must be an integer, got True",
    ),
    ("sparsity_summary", lambda tmp: sparsity_summary(A), ValueError, "hbs: expected HBSMatrix"),
    ("topk_retention", lambda tmp: topk_retention(A, A, [0.1]), ValueError, "hbs: expected HBSMatrix"),
    ("write_hbsf", lambda tmp: write_hbsf(tmp / "m.hbsf", A), ValueError, "m: expected HBSMatrix"),
    (
        "estimate_cost-config",
        lambda tmp: estimate_cost((8, 8, 8), "2x1:0.5", TABLE),
        ConfigError,
        "config: expected HBSConfig, got str",
    ),
    (
        "estimate_cost-irf",
        lambda tmp: estimate_cost((8, 8, 8), CFG, None),
        ValueError,
        "irf: expected IrfTable, got NoneType",
    ),
    (
        "calibrate_irf-shapes",
        lambda tmp: calibrate_irf(["2x1"], [0.5], PLAN),
        ConfigError,
        "shapes entry: expected BlockShape, got str",
    ),
    (
        "calibrate_irf-plan",
        lambda tmp: calibrate_irf([BlockShape(2, 1)], [0.5], (8, 8, 8)),
        ValueError,
        "plan: expected BenchPlan, got tuple",
    ),
    (
        "topk_retention-percentiles",
        lambda tmp: topk_retention(A, M, 0.1),
        ValueError,
        "percentiles: expected Iterable, got float",
    ),
    ("HBSConfig.parse", lambda tmp: HBSConfig.parse(None), ConfigError, "text: expected str"),
    ("BlockShape.parse", lambda tmp: BlockShape.parse(5), ConfigError, "text: expected str, got int"),
    (
        "IrfTable-entries",
        lambda tmp: IrfTable([((BlockShape(1, 1), 1), 0.5)], "calibrated"),
        ValueError,
        "entries: expected Mapping, got list",
    ),
    (
        "IrfTable.lookup-shape",
        lambda tmp: TABLE.lookup("2x1", 0.5),
        ConfigError,
        "shape: expected BlockShape, got str",
    ),
    ("HBSMatrix-levels", lambda tmp: HBSMatrix(8, 8, None), ValueError, "levels: expected Iterable"),
    (
        "prune_hierarchical-config",
        lambda tmp: prune_hierarchical(A, "2x1:0.5"),
        ConfigError,
        "config: expected HBSConfig, got str",
    ),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_wrong_argument_type_is_named(tmp_path, call, error, message):
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert type(exc.value) is error
    assert str(exc.value).startswith(message)
    assert not list(tmp_path.iterdir())


def _sparsity_refusal(site, value, tmp_path, capsys) -> str:
    """The message with which ``site`` refuses the sparsity ``value``."""
    if site == "LevelSpec":
        with pytest.raises(ConfigError) as exc:
            LevelSpec(BlockShape(1, 1), value)
    elif site == "sparsity_bucket":
        with pytest.raises(ValueError) as exc:
            sparsity_bucket(value)
    elif site == "read_irf":
        path = tmp_path / "t.irf"
        path.write_text(f"HBS-IRF v1 analytic\n1 1 {value!r} 0.5\n")
        with pytest.raises(FormatError) as exc:
            read_irf(path)
        assert str(exc.value).startswith(f"{path}:2: sparsity must be")
    else:
        argv = ["bench", "calibrate", "--shapes", "4x1", "--sparsities", repr(value),
                "--dims", "8x8x8", "--out", str(tmp_path / "t.irf")]
        assert main(argv) == 2
        return capsys.readouterr().err
    return str(exc.value)


@pytest.mark.parametrize("site", ["LevelSpec", "sparsity_bucket", "read_irf", "calibrate"])
@pytest.mark.parametrize("value", [1.5, -0.1, float("nan"), float("inf")])
def test_sparsity_range_has_one_message(tmp_path, capsys, site, value):
    message = _sparsity_refusal(site, value, tmp_path, capsys)
    assert f"sparsity must be in [0, 1], {value!r} is outside" in message
    assert ("not percentages" in message) == (value == 1.5)


# Where float values enter: (call on tmp_path and the input, input shape,
# the argument its refusal names).
FLOAT_INTAKES = {
    "as_matrix": (lambda tmp, x: as_matrix(x), (2, 2), "matrix"),
    "prune_hierarchical": (lambda tmp, x: prune_hierarchical(x, CFG), (8, 8), "matrix"),
    "write_dmat": (lambda tmp, x: write_dmat(tmp / "m.dmat", x), (2, 2), "matrix"),
    "hbs_matmul": (lambda tmp, x: hbs_matmul(M, x), (8, 2), "b"),
    "dense_matmul": (lambda tmp, x: dense_matmul(x, A), (8, 8), "a"),
    "max_rel_error": (lambda tmp, x: max_rel_error(A, x), (8, 8), "want"),
    "lower_tensor4d": (lambda tmp, x: lower_tensor4d(x), (2, 1, 1, 1), "tensor"),
    "BlockSparseLevel": (
        lambda tmp, x: BlockSparseLevel(BlockShape(1, 1), 2, 2, [0], [0], x), (1, 1, 1), "values"
    ),
}
NON_REAL = {"str": "1.5", "object": None, "complex": 1.5 + 0j}


@pytest.mark.parametrize("fill", list(NON_REAL))
@pytest.mark.parametrize("intake", list(FLOAT_INTAKES))
def test_non_real_values_are_refused(tmp_path, intake, fill):
    call, shape, what = FLOAT_INTAKES[intake]
    x = np.full(shape, NON_REAL[fill])
    with pytest.raises(ValueError) as exc:
        call(tmp_path, x)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{what} must be bools, integers or floats, got dtype {x.dtype}"
    assert not list(tmp_path.iterdir())


def test_bool_and_empty_values_pass(tmp_path):
    write_dmat(tmp_path / "mask.dmat", support_mask(M))
    assert hbs_matmul(M, np.ones((8, 2), bool)).dtype == np.float32
    level = BlockSparseLevel(BlockShape(1, 1), 2, 2, [], [], np.empty((0, 1, 1), object))
    assert level.values.dtype == np.float32 and level.n_blocks == 0
