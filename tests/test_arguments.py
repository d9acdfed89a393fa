"""A wrong argument type is refused up front with a package error that
names the argument, not by an AttributeError or TypeError from deep inside.
Each argument fact gets the same message at every boundary: a sparsity in
[0, 1], a block shape, level spec or level of the right type, an integer
at or above its bound, and number text in plain ASCII decimals."""

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
    flops_dense,
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
    (
        "topk_retention-percentiles-str",
        lambda tmp: topk_retention(A, M, "0.1"),
        ValueError,
        "percentiles: expected numbers, got str",
    ),
    (
        "calibrate_irf-sparsities-str",
        lambda tmp: calibrate_irf([BlockShape(2, 1)], "0.5", PLAN),
        ValueError,
        "sparsities: expected numbers, got str",
    ),
    (
        "calibrate_irf-sparsities-bytes",
        lambda tmp: calibrate_irf([BlockShape(2, 1)], b"0.5", PLAN),
        ValueError,
        "sparsities: expected numbers, got bytes",
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
        "IrfTable-int-key",
        lambda tmp: IrfTable({5: 0.5}, "calibrated"),
        ValueError,
        "key must be a (BlockShape, bucket) pair, got 5",
    ),
    (
        "IrfTable-str-key",
        lambda tmp: IrfTable({"x": 0.5}, "calibrated"),
        ValueError,
        "key must be a (BlockShape, bucket) pair, got 'x'",
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


def _raised(error, call, *args) -> str:
    """The message of the ``error`` that ``call(*args)`` raises."""
    with pytest.raises(error) as exc:
        call(*args)
    assert type(exc.value) is error
    return str(exc.value)


def _usage_refusal(capsys, *argv) -> str:
    """The message ``hbs`` prints after the flag name when it refuses ``argv``
    as a usage error."""
    assert main([str(a) for a in argv]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    _, error, flag, message = last.split(": ", 3)
    assert error == "error" and flag.startswith("argument --")
    return message


def _irf_refusal(tmp, line) -> str:
    """The message with which ``read_irf`` refuses the entry ``line``, less
    its ``path:line`` location."""
    path = tmp / "t.irf"
    path.write_text(f"HBS-IRF v1 analytic\n{line}\n")
    location, message = _raised(FormatError, read_irf, path).split(": ", 1)
    assert location == f"{path}:2"
    return message


def _bench_calibrate(tmp, **flags) -> list:
    """``hbs bench calibrate`` argv: a valid run, but for ``flags``."""
    argv = {"shapes": "4x1", "sparsities": "0.5", "dims": "8x8x8", "out": tmp / "t.irf"}
    argv.update(flags)
    return ["bench", "calibrate", *(x for k, v in argv.items() for x in (f"--{k}", v))]


def _gen(tmp, **flags) -> list:
    """``hbs gen`` argv: a valid run, but for ``flags``."""
    argv = {"rows": 4, "cols": 4, "out": tmp / "g.dmat", **flags}
    return ["gen", *(x for k, v in argv.items() for x in (f"--{k}", v))]


# Where a block shape, level spec or level enters: (call on the value, the
# error, the argument its refusal names, the type it expects).
TYPED_INTAKES = {
    "LevelSpec": (lambda v: LevelSpec(v, 0.5), ConfigError, "shape", "BlockShape"),
    "BlockSparseLevel": (
        lambda v: BlockSparseLevel(v, 2, 2, [], [], np.zeros((0, 1, 1))),
        ValueError,
        "shape",
        "BlockShape",
    ),
    "grid_dims": (lambda v: grid_dims(8, 8, v), ConfigError, "shape", "BlockShape"),
    "IrfTable.lookup": (lambda v: TABLE.lookup(v, 0.5), ConfigError, "shape", "BlockShape"),
    "calibrate_irf": (
        lambda v: calibrate_irf([v], [0.5], PLAN), ConfigError, "shapes entry", "BlockShape"
    ),
    "IrfTable-key": (
        lambda v: IrfTable({(v, 32): 0.5}, "calibrated"), ValueError, "key shape", "BlockShape"
    ),
    "HBSConfig": (lambda v: HBSConfig((v,)), ConfigError, "levels entry", "LevelSpec"),
    "HBSMatrix": (
        lambda v: HBSMatrix(8, 8, (v,)), ValueError, "levels entry", "BlockSparseLevel"
    ),
}


@pytest.mark.parametrize("value", ["2x1", (2, 1), None])
@pytest.mark.parametrize("site", list(TYPED_INTAKES))
def test_shape_type_has_one_message(site, value):
    call, error, what, kind = TYPED_INTAKES[site]
    message = _raised(error, call, value)
    assert message == f"{what}: expected {kind}, got {type(value).__name__}"


# Where a bounded integer enters: (message with which the site refuses the
# value, given tmp_path and capsys; the name the message uses; the least
# value the site takes).
BOUNDED_INTS = {
    "BlockShape": (lambda v, tmp, cap: _raised(ConfigError, BlockShape, v, 1), "block bh", 1),
    "BlockShape-bw": (lambda v, tmp, cap: _raised(ConfigError, BlockShape, 1, v), "block bw", 1),
    "grid_dims": (
        lambda v, tmp, cap: _raised(DimensionError, grid_dims, v, 4, BlockShape(1, 1)), "rows", 1
    ),
    "flops_dense": (lambda v, tmp, cap: _raised(ValueError, flops_dense, 2, v, 2), "dimension", 0),
    "flops_sparse_level": (
        lambda v, tmp, cap: _raised(ValueError, flops_sparse_level, M.levels[0], v), "n", 0
    ),
    "BenchPlan-dims": (
        lambda v, tmp, cap: _raised(ValueError, BenchPlan, (8, v, 8)), "dims entry", 1
    ),
    "BenchPlan-reps": (
        lambda v, tmp, cap: _raised(ValueError, BenchPlan, (8, 8, 8), v), "reps", 1
    ),
    "BenchPlan-warmup": (
        lambda v, tmp, cap: _raised(ValueError, BenchPlan, (8, 8, 8), 1, v), "warmup", 0
    ),
    "BenchPlan-seed": (
        lambda v, tmp, cap: _raised(ValueError, BenchPlan, (8, 8, 8), 1, 0, v), "seed", 0
    ),
    "IrfTable-bucket": (
        lambda v, tmp, cap: _raised(ValueError, IrfTable, {(BlockShape(1, 1), v): 0.5}, "analytic"),
        "bucket",
        0,
    ),
    "--rows": (lambda v, tmp, cap: _usage_refusal(cap, *_gen(tmp, rows=v)), "rows", 1),
    "gen --seed": (lambda v, tmp, cap: _usage_refusal(cap, *_gen(tmp, seed=v)), "seed", 0),
    "--reps": (
        lambda v, tmp, cap: _usage_refusal(cap, *_bench_calibrate(tmp, reps=v)), "reps", 1
    ),
    "calibrate --seed": (
        lambda v, tmp, cap: _usage_refusal(cap, *_bench_calibrate(tmp, seed=v)), "seed", 0
    ),
    "--dims": (
        lambda v, tmp, cap: _usage_refusal(cap, *_bench_calibrate(tmp, dims=f"8x{v}x8")),
        "dims entry",
        1,
    ),
}


@pytest.mark.parametrize("below", [1, 7])
@pytest.mark.parametrize("site", list(BOUNDED_INTS))
def test_integer_bound_has_one_message(tmp_path, capsys, site, below):
    refusal, what, low = BOUNDED_INTS[site]
    assert refusal(low - below, tmp_path, capsys) == f"{what} must be >= {low}, got {low - below}"
    assert not list(tmp_path.iterdir())


# Where number text enters: (message with which the site refuses the text,
# given tmp_path and capsys; the name the message uses).
NUMBER_TEXTS = {
    "BlockShape.parse": (
        lambda t, tmp, cap: _raised(ConfigError, BlockShape.parse, f"{t}x1"), "block bh"
    ),
    "HBSConfig.parse-shape": (
        lambda t, tmp, cap: _raised(ConfigError, HBSConfig.parse, f"1x{t}:0.5"), "block bw"
    ),
    "HBSConfig.parse-sparsity": (
        lambda t, tmp, cap: _raised(ConfigError, HBSConfig.parse, f"1x1:{t}"), "sparsity"
    ),
    "read_irf-bh": (lambda t, tmp, cap: _irf_refusal(tmp, f"{t} 1 0.5 0.5"), "block bh"),
    "read_irf-sparsity": (lambda t, tmp, cap: _irf_refusal(tmp, f"1 1 {t} 0.5"), "sparsity"),
    "read_irf-irf": (lambda t, tmp, cap: _irf_refusal(tmp, f"1 1 0.5 {t}"), "irf"),
    "--rows": (lambda t, tmp, cap: _usage_refusal(cap, *_gen(tmp, rows=t)), "rows"),
    "--cols": (lambda t, tmp, cap: _usage_refusal(cap, *_gen(tmp, cols=t)), "cols"),
    "gen --seed": (lambda t, tmp, cap: _usage_refusal(cap, *_gen(tmp, seed=t)), "seed"),
    "--reps": (lambda t, tmp, cap: _usage_refusal(cap, *_bench_calibrate(tmp, reps=t)), "reps"),
    "--dims": (
        lambda t, tmp, cap: _usage_refusal(cap, *_bench_calibrate(tmp, dims=f"{t}x8x8")),
        "dims entry",
    ),
    "--shapes": (
        lambda t, tmp, cap: _usage_refusal(cap, *_bench_calibrate(tmp, shapes=f"4x1,{t}x1")),
        "block bh",
    ),
    "--sparsities": (
        lambda t, tmp, cap: _usage_refusal(cap, *_bench_calibrate(tmp, sparsities=t)), "sparsity"
    ),
    "--levels": (
        lambda t, tmp, cap: _usage_refusal(
            cap, "prune", "--in", tmp / "a.dmat", "--out", tmp / "m.hbsf", "--levels", f"1x1:{t}"
        ),
        "sparsity",
    ),
    "--percentiles": (
        lambda t, tmp, cap: _usage_refusal(
            cap, "topk", "--original", tmp / "a.dmat", "--pruned", tmp / "m.hbsf",
            "--percentiles", f"10,{t}",
        ),
        "percentile",
    ),
}
# Text that is no plain ASCII decimal, though Python's int() or float() read
# all but the last. A .irf file is ASCII, so a non-ASCII digit fails its byte
# check first.
LOOSE_TEXTS = ["1_6", "0.5_0", "\u0663", "abc"]


@pytest.mark.parametrize(
    "site,text",
    [(s, t) for s in NUMBER_TEXTS for t in LOOSE_TEXTS if t.isascii() or "read_irf" not in s],
)
def test_number_text_has_one_message(tmp_path, capsys, site, text):
    refusal, what = NUMBER_TEXTS[site]
    assert refusal(text, tmp_path, capsys) == f"bad {what} {text!r}"
    assert [p.name for p in tmp_path.iterdir()] == (["t.irf"] if "read_irf" in site else [])


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
