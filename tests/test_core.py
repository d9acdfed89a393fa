import numpy as np
import pytest

import hbs.core
from hbs import (
    BlockShape,
    BlockSparseLevel,
    ConfigError,
    DimensionError,
    HBSConfig,
    HBSMatrix,
    LevelSpec,
    ValidationError,
    as_matrix,
    density,
    grid_dims,
    hbs_matmul,
    read_hbsf,
    reconstruct,
    sparsity_summary,
    support_mask,
    topk_retention,
    validate,
    write_hbsf,
)


from conftest import level_of, report_of


class TestBlockShape:
    def test_parse_and_str(self):
        s = BlockShape.parse("32x1")
        assert (s.bh, s.bw) == (32, 1)
        assert str(s) == "32x1"
        assert s.area == 32

    def test_divides(self):
        assert BlockShape(16, 2).divides(BlockShape(32, 4))
        assert not BlockShape(3, 1).divides(BlockShape(32, 4))

    @pytest.mark.parametrize("text", ["32", "ax1", "4x", "1x2x3", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            BlockShape.parse(text)

    @pytest.mark.parametrize("bh,bw", [(0, 1), (1, 0), (-2, 1)])
    def test_positive(self, bh, bw):
        with pytest.raises(ConfigError):
            BlockShape(bh, bw)

    def test_integer_only(self):
        with pytest.raises(ConfigError):
            BlockShape(2.0, 1)
        with pytest.raises(ConfigError):
            BlockShape(True, 1)


class TestConfig:
    def test_parse_round_trip(self):
        text = "32x1:0.75,16x1:0.875,1x1:0.96875"
        cfg = HBSConfig.parse(text)
        assert str(cfg) == text
        assert len(cfg.levels) == 3
        assert cfg.cumulative_density == pytest.approx(0.40625)

    def test_str_round_trips_every_sparsity(self):
        rng = np.random.default_rng(33)
        shapes = [(8, 2), (4, 2), (4, 1), (1, 1)]
        for n in (1, 2, 3, 4):
            # One level at sparsity 1/3; the others share a density of 1/3.
            sparsities = [1 / 3, *(1 - rng.random(n - 1) / (3 * max(n - 1, 1)))]
            rng.shuffle(sparsities)
            cfg = HBSConfig.of(*((*s, sp) for s, sp in zip(shapes[-n:], sparsities)))
            assert HBSConfig.parse(str(cfg)) == cfg, str(cfg)

    def test_sparsity_bounds(self):
        with pytest.raises(ConfigError):
            LevelSpec(BlockShape(1, 1), -0.1)
        with pytest.raises(ConfigError, match="not percentages"):
            LevelSpec(BlockShape(1, 1), 75)

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "0.5", "abc", None])
    def test_sparsity_real_only(self, bad):
        with pytest.raises(ConfigError, match="sparsity must be a real number"):
            LevelSpec(BlockShape(1, 1), bad)

    def test_sparsity_numpy_reals_and_int_bounds(self):
        assert LevelSpec(BlockShape(1, 1), np.float32(0.5)).sparsity == 0.5
        for v in (0, 1, np.int64(1)):
            sp = LevelSpec(BlockShape(1, 1), v).sparsity
            assert sp == v and type(sp) is float
        with pytest.raises(ConfigError, match="got '0.5'"):
            HBSConfig.of((2, 2, "0.5"))

    def test_needs_a_level(self):
        with pytest.raises(ConfigError):
            HBSConfig(())
        with pytest.raises(ConfigError):
            HBSConfig.parse(" , ")

    def test_rejects_malformed_levels(self):
        with pytest.raises(ConfigError, match="expected LevelSpec, got BlockShape"):
            HBSConfig((BlockShape(1, 1),))
        with pytest.raises(ConfigError, match="bad level spec '2x2'"):
            HBSConfig.parse("2x2")
        with pytest.raises(ConfigError, match="bad sparsity 'half'"):
            HBSConfig.parse("2x2:half")

    def test_divisibility_chain(self):
        with pytest.raises(ConfigError, match=r"3 % 2 != 0 on rows"):
            HBSConfig.of((3, 1, 0.5), (2, 1, 0.5))
        # same axis naming convention on columns
        with pytest.raises(ConfigError, match="on cols"):
            HBSConfig.of((4, 3, 0.5), (4, 2, 0.5))

    def test_density_budget(self):
        with pytest.raises(ConfigError, match="cumulative density"):
            HBSConfig.of((2, 2, 0.25), (1, 1, 0.5))
        # exactly 1.0 is allowed
        cfg = HBSConfig.of((2, 2, 0.5), (1, 1, 0.5))
        assert cfg.cumulative_density == 1.0

    def test_level_shape_type_checked(self):
        with pytest.raises(ConfigError, match="shape: expected BlockShape, got str"):
            HBSConfig.of(("1x1", 0.5))
        with pytest.raises(ConfigError, match="shape: expected BlockShape, got str"):
            HBSConfig.of((BlockShape(2, 2), 0.5), ("1x1", 0.25))

    @pytest.mark.parametrize("bad", [(0.5,), (1, 1, 0.5, 9), 0.5])
    def test_of_refuses_wrong_arity(self, bad):
        with pytest.raises(ConfigError, match=r"level must be \(bh, bw, sparsity\)"):
            HBSConfig.of(bad)

    def test_of_accepts_both_spellings(self):
        a = HBSConfig.of((2, 2, 0.5))
        b = HBSConfig.of((BlockShape(2, 2), 0.5))
        assert a == b


class TestGridDims:
    def test_even(self):
        assert grid_dims(6, 8, BlockShape(3, 2)) == (2, 4)

    def test_row_error_names_axis(self):
        with pytest.raises(DimensionError, match="rows"):
            grid_dims(7, 8, BlockShape(2, 2))
        with pytest.raises(DimensionError, match="cols"):
            grid_dims(8, 7, BlockShape(2, 2))


class TestAsMatrix:
    def test_list_input(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.float32 and a.flags.c_contiguous

    def test_rejects_other_ranks(self):
        with pytest.raises(DimensionError, match=r"^matrix must be 2-D, got 1 dimension\(s\)$"):
            as_matrix([1, 2, 3])
        with pytest.raises(DimensionError, match=r"^matrix must be 2-D, got 3 dimension\(s\)$"):
            as_matrix(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_rejects_empty(self, shape):
        r, c = shape
        with pytest.raises(DimensionError, match=f"matrix must be non-empty, got {r}x{c}"):
            as_matrix(np.zeros(shape, np.float32))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0]])
        a = as_matrix([[np.inf, 0.0]], check_finite=False)
        assert np.isinf(a[0, 0])


class TestLevel:
    def test_empty(self):
        lv = level_of(BlockShape(2, 2), 2, 2, [])
        assert lv.n_blocks == 0 and lv.rows == 4 and lv.cols == 4

    def test_freezes_arrays(self):
        lv = level_of(BlockShape(1, 1), 2, 2, [(0, 0, [[1.0]])])
        with pytest.raises(ValueError):
            lv.values[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            lv.block_rows[0] = 1

    def test_does_not_alias_caller_arrays(self):
        vals = np.ones((1, 1, 1), dtype=np.float32)
        lv = BlockSparseLevel(
            BlockShape(1, 1), 2, 2, np.array([0]), np.array([0]), vals
        )
        vals[0, 0, 0] = 5.0
        assert lv.values[0, 0, 0] == 1.0

    def test_copies_frozen_caller_arrays(self):
        rows = np.array([0], dtype=np.int64)
        rows.flags.writeable = False
        lv = BlockSparseLevel(
            BlockShape(1, 1), 2, 2, rows, np.array([0]), np.ones((1, 1, 1), np.float32)
        )
        rows.flags.writeable = True
        rows[0] = 5
        assert lv.block_rows.tolist() == [0]
        assert validate(HBSMatrix(2, 2, (lv,))).ok

    def test_value_shape_checked(self):
        with pytest.raises(ValueError):
            BlockSparseLevel(
                BlockShape(2, 2), 2, 2, np.array([0]), np.array([0]),
                np.zeros((1, 1, 1), dtype=np.float32),
            )
        one = np.ones((1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            BlockSparseLevel(BlockShape(1, 1), 0, 2, [0], [0], one)
        with pytest.raises(ValueError, match="equal length"):
            BlockSparseLevel(BlockShape(1, 1), 2, 2, [0, 1], [0], one)

    @pytest.mark.parametrize("dims", [(2.5, 2), (2, 2.0), (True, 2), ("2", 2)])
    def test_grid_dims_integer_only(self, dims):
        none = np.zeros((0, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="must be an integer"):
            BlockSparseLevel(BlockShape(1, 1), *dims, [], [], none)

    def test_shape_type_checked(self):
        with pytest.raises(ValueError, match="shape: expected BlockShape, got str"):
            BlockSparseLevel("1x1", 2, 2, [], [], np.zeros((0, 1, 1), np.float32))

    def test_numpy_unsigned_grid_dims(self):
        lv = level_of(BlockShape(1, 1), np.uint32(2), np.uint64(3), [])
        assert (lv.grid_rows, lv.grid_cols) == (2, 3)
        assert type(lv.grid_rows) is int and type(lv.grid_cols) is int

    @pytest.mark.parametrize(
        "bad",
        [[1.7], [np.nan], [True], ["1"], [2**63], np.array([2**63], np.uint64), [2**64]],
        ids=["float", "nan", "bool", "str", "2^63", "uint64-2^63", "2^64"],
    )
    @pytest.mark.parametrize("field", ["block_rows", "block_cols"])
    def test_coordinates_integer_within_int64(self, bad, field):
        coords = {"block_rows": [0], "block_cols": [0], field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be") as exc:
            BlockSparseLevel(BlockShape(1, 1), 2, 2, **coords, values=np.ones((1, 1, 1)))
        assert type(exc.value) is ValueError

    def test_fractional_coordinates_not_truncated(self):
        # The tile once landed at (1, 0), truncated from (1.7, 0.2).
        with pytest.raises(ValueError, match="block_rows must be integers, got dtype float64"):
            BlockSparseLevel(BlockShape(1, 1), 2, 2, [1.7], [0.2], np.ones((1, 1, 1)))

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.uint8, np.int32, np.uint32, np.int64, np.uint64]
    )
    def test_integer_coordinate_dtypes(self, dtype):
        lv = BlockSparseLevel(
            BlockShape(1, 1), 2, 2, np.array([1], dtype), np.array([0], dtype), np.ones((1, 1, 1))
        )
        assert lv.block_rows.dtype == np.int64 and lv.block_rows.tolist() == [1]
        assert reconstruct(HBSMatrix(2, 2, (lv,)))[1, 0] == 1.0

    def test_largest_int64_coordinate_reaches_the_blocks_check(self):
        big = np.array([2**63 - 1], np.uint64)
        lv = BlockSparseLevel(BlockShape(1, 1), 2, 2, big, [0], np.ones((1, 1, 1)))
        detail = report_of(2, 2, (lv,)).first_failure.detail
        assert detail == f"level 1: block ({2**63 - 1},0) outside 2x2 grid"

    @pytest.mark.parametrize("empty", [[], np.array([], str), np.zeros(0, bool), np.zeros(0)])
    def test_empty_coordinates_of_any_dtype(self, empty):
        lv = BlockSparseLevel(BlockShape(1, 1), 2, 2, empty, empty, np.zeros((0, 1, 1)))
        assert lv.n_blocks == 0 and lv.block_rows.dtype == np.int64

    def test_flat_indices(self):
        lv = level_of(BlockShape(1, 1), 2, 3, [(0, 2, [[1.0]]), (1, 0, [[2.0]])])
        assert lv.flat_indices().tolist() == [2, 3]


def two_level_4x4():
    """Valid 2-level 4x4: one 2x2 block at (1,1), two 1x1 cells on row 0."""
    l1 = level_of(BlockShape(2, 2), 2, 2, [(1, 1, [[5, 6], [7, 8]])])
    l2 = level_of(BlockShape(1, 1), 4, 4, [(0, 0, [[1.0]]), (0, 3, [[2.0]])])
    return HBSMatrix(4, 4, (l1, l2))


_NOT_EVALUATED = "not evaluated: requires valid tiling, divisibility and block indices"
_TILE = [[1, 2], [3, 4]]

# Failing matrices, each with its exact report rendering and error message.
PINNED_REPORTS = {
    "tiling": (
        lambda: (4, 4, (level_of(BlockShape(2, 2), 1, 1, [(0, 0, _TILE)]),)),
        "tiling        FAIL  (level 1: 2x2 blocks do not tile 4x4 (a 1x1 grid covers 2x2))\n"
        "divisibility  pass\nblocks        pass\n"
        f"disjointness  FAIL  ({_NOT_EVALUATED})",
        "tiling check failed: level 1: 2x2 blocks do not tile 4x4 (a 1x1 grid covers 2x2)",
    ),
    "divisibility": (
        lambda: (6, 6, (level_of(BlockShape(3, 1), 2, 6, []), level_of(BlockShape(2, 1), 3, 6, []))),
        "tiling        pass\n"
        "divisibility  FAIL  (level 2 block 2x1 does not evenly divide level 1 block 3x1 "
        "(3 % 2 != 0 on rows))\n"
        f"blocks        pass\ndisjointness  FAIL  ({_NOT_EVALUATED})",
        "divisibility check failed: level 2 block 2x1 does not evenly divide level 1 block 3x1 "
        "(3 % 2 != 0 on rows)",
    ),
    "outside": (
        lambda: (4, 4, (level_of(BlockShape(2, 2), 2, 2, [(0, 2, _TILE)]),)),
        "tiling        pass\ndivisibility  pass\n"
        "blocks        FAIL  (level 1: block (0,2) outside 2x2 grid)\n"
        f"disjointness  FAIL  ({_NOT_EVALUATED})",
        "blocks check failed: level 1: block (0,2) outside 2x2 grid",
    ),
    "unsorted": (
        lambda: (2, 2, (level_of(BlockShape(1, 1), 2, 2, [(1, 1, [[1.0]]), (0, 0, [[2.0]])]),)),
        "tiling        pass\ndivisibility  pass\n"
        "blocks        FAIL  (level 1: blocks unsorted or duplicated at (0,0))\n"
        f"disjointness  FAIL  ({_NOT_EVALUATED})",
        "blocks check failed: level 1: blocks unsorted or duplicated at (0,0)",
    ),
    "duplicated": (
        lambda: (2, 2, (level_of(BlockShape(1, 1), 2, 2, [(0, 1, [[1.0]]), (0, 1, [[2.0]])]),)),
        "tiling        pass\ndivisibility  pass\n"
        "blocks        FAIL  (level 1: blocks unsorted or duplicated at (0,1))\n"
        f"disjointness  FAIL  ({_NOT_EVALUATED})",
        "blocks check failed: level 1: blocks unsorted or duplicated at (0,1)",
    ),
    # Levels 1 and 2 share cell (0,0), but a bad block leaves it unchecked.
    "not-evaluated": (
        lambda: (4, 4, (
            level_of(BlockShape(2, 2), 2, 2, [(0, 0, _TILE)]),
            level_of(BlockShape(1, 1), 4, 4, [(0, 0, [[1.0]]), (4, 0, [[2.0]])]),
        )),
        "tiling        pass\ndivisibility  pass\n"
        "blocks        FAIL  (level 2: block (4,0) outside 4x4 grid)\n"
        f"disjointness  FAIL  ({_NOT_EVALUATED})",
        "blocks check failed: level 2: block (4,0) outside 4x4 grid",
    ),
    "three-levels": (
        lambda: (4, 4, (
            level_of(BlockShape(4, 4), 1, 1, [(0, 0, [[1] * 4] * 4)]),
            level_of(BlockShape(2, 2), 2, 2, [(1, 1, _TILE)]),
            level_of(BlockShape(1, 1), 4, 4, [(2, 2, [[1.0]])]),
        )),
        "tiling        pass\ndivisibility  pass\nblocks        pass\n"
        "disjointness  FAIL  (cell (2,2) covered by levels 1, 2, 3)",
        "disjointness check failed: cell (2,2) covered by levels 1, 2, 3",
    ),
    "every-family": (
        lambda: (4, 4, (
            level_of(BlockShape(2, 2), 1, 2, [(0, 0, _TILE)]),
            level_of(BlockShape(3, 1), 1, 4, [(0, 5, [[1], [2], [3]])]),
        )),
        "tiling        FAIL  (level 1: 2x2 blocks do not tile 4x4 (a 1x2 grid covers 2x4))\n"
        "divisibility  FAIL  (level 2 block 3x1 does not evenly divide level 1 block 2x2 "
        "(2 % 3 != 0 on rows))\n"
        "blocks        FAIL  (level 2: block (0,5) outside 1x4 grid)\n"
        f"disjointness  FAIL  ({_NOT_EVALUATED})",
        "tiling check failed: level 1: 2x2 blocks do not tile 4x4 (a 1x2 grid covers 2x4)",
    ),
}


class TestValidate:
    def test_all_pass(self):
        report = validate(two_level_4x4())
        assert report.ok and report.first_failure is None
        assert [c.name for c in report.checks] == [
            "tiling", "divisibility", "blocks", "disjointness",
        ]

    def test_zero_levels_pass(self):
        assert validate(HBSMatrix(2, 2, ())).ok

    def test_tiling_failure(self):
        lv = level_of(BlockShape(2, 2), 1, 1, [(0, 0, [[1, 2], [3, 4]])])
        report = report_of(4, 4, (lv,))
        first = report.first_failure
        assert first.name == "tiling" and "2x2" in first.detail
        assert not report.ok

    def test_divisibility_failure(self):
        l1 = level_of(BlockShape(3, 1), 2, 6, [])
        l2 = level_of(BlockShape(2, 1), 3, 6, [])
        report = report_of(6, 6, (l1, l2))
        assert report.first_failure.name == "divisibility"
        assert "3 % 2 != 0" in report.first_failure.detail

    def test_block_out_of_bounds(self):
        lv = level_of(BlockShape(2, 2), 2, 2, [(0, 2, [[1, 2], [3, 4]])])
        report = report_of(4, 4, (lv,))
        assert report.first_failure.name == "blocks"
        assert "(0,2)" in report.first_failure.detail

    def test_unsorted_blocks(self):
        lv = level_of(
            BlockShape(1, 1), 2, 2, [(1, 1, [[1.0]]), (0, 0, [[2.0]])]
        )
        report = report_of(2, 2, (lv,))
        assert report.first_failure.name == "blocks"

    def test_duplicate_blocks(self):
        lv = level_of(
            BlockShape(1, 1), 2, 2, [(0, 0, [[1.0]]), (0, 0, [[2.0]])]
        )
        assert report_of(2, 2, (lv,)).first_failure.name == "blocks"

    @pytest.mark.parametrize("n", [3, 2**32 - 1], ids=["small", "2^32-1"])
    @pytest.mark.parametrize(
        "coords,at",
        [
            (lambda n: [(1, n - 1), (1, 0)], lambda n: (1, 0)),
            (lambda n: [(n - 1, 0), (0, n - 1)], lambda n: (0, n - 1)),
            (lambda n: [(0, 1), (n - 1, n - 1), (n - 1, n - 1)], lambda n: (n - 1, n - 1)),
            (lambda n: [(n - 1, 0), (n - 1, 0)], lambda n: (n - 1, 0)),
        ],
        ids=["unsorted-in-row", "unsorted-across-rows", "duplicated-corner", "duplicated"],
    )
    def test_order_failure_detail(self, n, coords, at):
        first = level_of(BlockShape(1, 1), n, n, [])
        blocks = [(r, c, [[1.0]]) for r, c in coords(n)]
        second = level_of(BlockShape(1, 1), n, n, blocks)
        check = report_of(n, n, (first, second)).first_failure
        assert check.name == "blocks"
        assert check.detail == "level 2: blocks unsorted or duplicated at (%d,%d)" % at(n)

    def test_disjointness_failure_names_cell_and_levels(self):
        l1 = level_of(BlockShape(2, 2), 2, 2, [(0, 0, [[1, 2], [3, 4]])])
        l2 = level_of(BlockShape(1, 1), 4, 4, [(0, 0, [[9.0]])])
        report = report_of(4, 4, (l1, l2))
        first = report.first_failure
        assert first.name == "disjointness"
        assert "cell (0,0)" in first.detail and "levels 1, 2" in first.detail

    def test_disjointness_without_divisibility(self):
        # 2x3 and 3x2 blocks: neither shape divides the other. The two
        # blocks share cells (2,4) and (2,5), but disjointness is defined
        # only on a valid hierarchy.
        l1 = level_of(BlockShape(2, 3), 3, 2, [(1, 1, np.ones((2, 3)))])
        l2 = level_of(BlockShape(3, 2), 2, 3, [(0, 2, np.ones((3, 2)))])
        checks = {c.name: c for c in report_of(6, 6, (l1, l2)).checks}
        assert not checks["divisibility"].passed
        assert not checks["disjointness"].passed
        assert "not evaluated" in checks["disjointness"].detail

    def test_disjointness_first_cell_over_all_level_pairs(self):
        # Levels 1, 2 and 4 share cell (3,3); levels 3 and 4 share the
        # earlier cell (1,1), which must be the one reported.
        levels = (
            level_of(BlockShape(2, 2), 2, 2, [(1, 1, np.ones((2, 2)))]),
            level_of(BlockShape(1, 1), 4, 4, [(3, 3, [[1.0]])]),
            level_of(BlockShape(1, 1), 4, 4, [(1, 1, [[1.0]])]),
            level_of(BlockShape(1, 1), 4, 4, [(1, 1, [[1.0]]), (3, 3, [[1.0]])]),
        )
        checks = {c.name: c for c in report_of(4, 4, levels).checks}
        assert checks["disjointness"].detail == "cell (1,1) covered by levels 3, 4"

    def test_disjointness_on_huge_sparse_grid(self):
        # Kept blocks at opposite corners of a 2^31 x 2^31 grid: no check
        # may allocate per cell or per grid block.
        n, last = 2**31, 2**31 - 1
        one = [[1.0]]
        l1 = level_of(BlockShape(1, 1), n, n, [(0, 0, one), (last, last, one)])
        l2 = level_of(BlockShape(1, 1), n, n, [(0, 1, one), (last, last - 1, one)])
        assert validate(HBSMatrix(n, n, (l1, l2))).ok
        l3 = level_of(BlockShape(1, 1), n, n, [(0, 1, one), (last, last, one)])
        detail = report_of(n, n, (l1, l3)).first_failure.detail
        assert detail == f"cell ({last},{last}) covered by levels 1, 2"

    def test_grid_beyond_uint32_refused(self):
        # uint64 row-major block keys cannot index a 2^64-wide grid.
        n = 2**64
        with pytest.raises(ValueError, match=r"grid dimensions must be below 2\^32"):
            l1 = level_of(BlockShape(1, 1), 1, n, [(0, 0, [[1.0]])])
            l2 = level_of(BlockShape(1, 1), 1, n, [(0, 1, [[2.0]])])
            validate(HBSMatrix(1, n, (l1, l2)))

    def test_matrix_beyond_uint32_refused(self):
        # On a 2^40 x 2^40 grid the uint64 key of block (2^24,0) would wrap
        # to 0, the key of block (0,0), and disjoint levels would overlap.
        n = 2**40
        with pytest.raises(ValueError, match=r"dimensions must be below 2\^32"):
            l1 = level_of(BlockShape(1, 1), n, n, [(0, 0, [[1.0]])])
            l2 = level_of(BlockShape(1, 1), n, n, [(2**24, 0, [[2.0]])])
            validate(HBSMatrix(n, n, (l1, l2)))

    def test_disjointness_matches_cell_counts(self):
        rng = np.random.default_rng(8)
        sides = [1, 2, 3, 4, 6, 12]
        for _ in range(300):
            rows, cols = 12 * int(rng.integers(1, 4)), 12 * int(rng.integers(1, 4))
            levels = []
            bh, bw = 12, 12
            for _ in range(int(rng.integers(2, 5))):
                # Each shape divides the one before: a nested chain.
                bh = int(rng.choice([s for s in sides if bh % s == 0]))
                bw = int(rng.choice([s for s in sides if bw % s == 0]))
                gr, gc = rows // bh, cols // bw
                flat = np.flatnonzero(rng.random(gr * gc) < rng.choice([0.02, 0.1, 0.3]))
                tiles = np.ones((flat.size, bh, bw), np.float32)
                shape = BlockShape(bh, bw)
                levels.append(BlockSparseLevel(shape, gr, gc, flat // gc, flat % gc, tiles))
            counts = np.zeros((len(levels), rows, cols), dtype=bool)
            for i, lv in enumerate(levels):
                for gr_, gc_ in zip(lv.block_rows, lv.block_cols):
                    bh, bw = lv.shape.bh, lv.shape.bw
                    counts[i, gr_ * bh : (gr_ + 1) * bh, gc_ * bw : (gc_ + 1) * bw] = True
            check = {c.name: c for c in report_of(rows, cols, tuple(levels)).checks}
            shared = np.argwhere(counts.sum(axis=0) > 1)
            if shared.size == 0:
                assert check["disjointness"].passed
            else:
                r, c = shared[0]
                owners = ", ".join(str(i + 1) for i in np.flatnonzero(counts[:, r, c]))
                want = f"cell ({r},{c}) covered by levels {owners}"
                assert check["disjointness"].detail == want
            # The same levels coarse-last do not nest unless all shapes agree.
            flipped = report_of(rows, cols, tuple(levels[::-1]))
            check = {c.name: c for c in flipped.checks}
            if not check["divisibility"].passed:
                assert "not evaluated" in check["disjointness"].detail
            else:
                assert len({lv.shape for lv in levels}) == 1

    def test_disjointness_skipped_when_structure_broken(self):
        lv = level_of(BlockShape(2, 2), 2, 2, [(0, 2, [[1, 2], [3, 4]])])
        report = report_of(4, 4, (lv,))
        names = {c.name: c for c in report.checks}
        assert not names["disjointness"].passed
        assert "not evaluated" in names["disjointness"].detail

    def test_report_render(self):
        text = validate(two_level_4x4()).render()
        assert "tiling" in text and "pass" in text

    @pytest.mark.parametrize("name", list(PINNED_REPORTS))
    def test_failure_report_is_pinned(self, name):
        build, render, message = PINNED_REPORTS[name]
        with pytest.raises(ValidationError) as exc:
            HBSMatrix(*build())
        assert exc.value.report.render() == render
        assert str(exc.value) == message

    def test_passing_report_is_pinned(self):
        assert validate(two_level_4x4()).render() == (
            "tiling        pass\ndivisibility  pass\nblocks        pass\ndisjointness  pass"
        )

    def test_one_passing_report(self):
        a, b = two_level_4x4(), HBSMatrix(2, 2, ())
        assert validate(a) is validate(b)
        assert vars(a).keys() == {"rows", "cols", "levels"}

    def test_checks_run_once_per_matrix(self, monkeypatch, tmp_path):
        calls = []
        check = hbs.core._check_disjointness

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(hbs.core, "_check_disjointness", counting)
        m = two_level_4x4()
        assert len(calls) == 1
        report = validate(m)
        assert report.ok and validate(m) is report
        hbs_matmul(m, np.ones((4, 2), np.float32))
        reconstruct(m)
        write_hbsf(tmp_path / "m.hbsf", m)
        topk_retention(np.ones((4, 4), np.float32), m, [0.5])
        sparsity_summary(m)
        assert len(calls) == 1
        # Reading builds one new matrix: the checks run once, for it.
        back = read_hbsf(tmp_path / "m.hbsf")
        assert len(calls) == 2 and validate(back).ok
        hbs_matmul(back, np.ones((4, 2), np.float32))
        assert len(calls) == 2

        dup = level_of(BlockShape(1, 1), 2, 2, [(0, 0, [[1.0]])])
        with pytest.raises(ValidationError) as exc:
            HBSMatrix(2, 2, (dup, dup))
        assert exc.value.report.first_failure.name == "disjointness"
        assert len(calls) == 3


class TestReconstruct:
    def test_zero_levels(self):
        out = reconstruct(HBSMatrix(2, 2, ()))
        assert out.shape == (2, 2) and not out.any()

    def test_single_block_placement(self):
        lv = level_of(BlockShape(2, 2), 2, 2, [(0, 0, [[1, 2], [3, 4]])])
        out = reconstruct(HBSMatrix(4, 4, (lv,)))
        assert out[:2, :2].tolist() == [[1, 2], [3, 4]]
        assert not out[2:].any() and not out[:, 2:].any()

    def test_two_levels(self):
        out = reconstruct(two_level_4x4())
        expected = np.zeros((4, 4), dtype=np.float32)
        expected[2:, 2:] = [[5, 6], [7, 8]]
        expected[0, 0] = 1.0
        expected[0, 3] = 2.0
        assert (out == expected).all()

    def test_negative_zero_survives(self):
        lv = level_of(BlockShape(1, 1), 1, 1, [(0, 0, [[-0.0]])])
        out = reconstruct(HBSMatrix(1, 1, (lv,)))
        assert np.signbit(out[0, 0])

    def test_invalid_raises_with_report(self):
        lv = level_of(BlockShape(1, 1), 2, 2, [(0, 0, [[1.0]]), (0, 0, [[2.0]])])
        with pytest.raises(ValidationError) as exc:
            HBSMatrix(2, 2, (lv,))
        assert exc.value.report.first_failure.name == "blocks"
        with pytest.raises(ValidationError):
            reconstruct(HBSMatrix(2, 2, (lv,)))
        assert str(ValidationError(validate(two_level_4x4()))) == "invalid HBS matrix"


class TestDensity:
    def test_empty(self):
        assert density(HBSMatrix(4, 4, ())) == 0.0

    def test_single_block(self):
        lv = level_of(BlockShape(2, 2), 2, 2, [(0, 0, [[1, 2], [3, 4]])])
        assert density(HBSMatrix(4, 4, (lv,))) == 0.25

    def test_support_mask_matches_density(self):
        m = two_level_4x4()
        mask = support_mask(m)
        assert mask.sum() / mask.size == density(m)
        assert mask[2, 2] and mask[0, 0] and mask[0, 3] and not mask[1, 0]


class TestMatrixType:
    def test_positive_dims(self):
        with pytest.raises(ValueError):
            HBSMatrix(0, 4, ())

    @pytest.mark.parametrize("dims", [(2.7, 2), (2, 2.0), (True, 2), (2, np.bool_(True))])
    def test_integer_dims_only(self, dims):
        with pytest.raises(ValueError, match="must be an integer"):
            HBSMatrix(*dims, ())

    def test_numpy_unsigned_dims(self):
        m = HBSMatrix(np.uint32(2), np.uint64(4), ())
        assert (m.rows, m.cols) == (2, 4) and type(m.rows) is int

    def test_levels_type_checked(self):
        with pytest.raises(ValueError, match="levels entry: expected BlockSparseLevel, got str"):
            HBSMatrix(2, 2, ("x",))

    def test_compares_and_hashes_by_identity(self):
        a = np.arange(16, dtype=np.float32).reshape(4, 4)
        cfg = HBSConfig.of((2, 2, 0.5), (1, 1, 0.75))
        m1, _ = hbs.prune_hierarchical(a, cfg)
        m2, _ = hbs.prune_hierarchical(a, cfg)
        assert m1 == m1 and m1 != m2
        assert m1 in [m1] and m1 not in [m2]
        assert len({m1, m2, m1}) == 2 and hash(m1) == hash(m1)
        lv1, lv2 = m1.levels[0], m2.levels[0]
        assert lv1 == lv1 and lv1 != lv2 and len({lv1, lv2}) == 2
        # contents compare through the reconstruction
        assert (reconstruct(m1) == reconstruct(m2)).all()

    def test_levels_coerced_to_tuple(self):
        m = HBSMatrix(2, 2, [])
        assert m.levels == () and m.n_levels == 0

    def test_nothing_written_after_construction(self, tmp_path):
        a = np.random.default_rng(12).standard_normal((32, 24), dtype=np.float32)
        cfg = HBSConfig.parse("8x2:0.5,4x1:0.75,1x1:0.875")
        m, _ = hbs.prune_hierarchical(a, cfg)
        write_hbsf(tmp_path / "m.hbsf", m)
        back = read_hbsf(tmp_path / "m.hbsf")
        objects = [m, *m.levels, back, *back.levels]
        # Each object's fields, held so that their identities can be compared.
        before = [dict(vars(obj)) for obj in objects]
        for mat in (m, back):
            for n in (4, 256):
                hbs_matmul(mat, np.ones((mat.cols, n), np.float32))
            reconstruct(mat)
            validate(mat)
            write_hbsf(tmp_path / "again.hbsf", mat)
            topk_retention(a, mat, [0.1, 0.5])
            sparsity_summary(mat)
        for obj, was in zip(objects, before):
            now = vars(obj)
            assert now.keys() == was.keys(), type(obj).__name__
            assert all(now[k] is was[k] for k in was), type(obj).__name__


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize(
    "bad,message",
    [
        (2.0, "{name} must be an integer, got 2.0"),
        ("2", "{name} must be an integer, got '2'"),
        (0, "{what} dimensions must be positive"),
        (-3, "{what} dimensions must be positive"),
        (2**32, "{what} dimensions must be below 2^32"),
        (2**64, "{what} dimensions must be below 2^32"),
    ],
)
@pytest.mark.parametrize(
    "build,names,what",
    [
        (
            lambda r, c: BlockSparseLevel(BlockShape(1, 1), r, c, [], [], np.zeros((0, 1, 1))),
            ("grid_rows", "grid_cols"),
            "grid",
        ),
        (lambda r, c: HBSMatrix(r, c, ()), ("rows", "cols"), "matrix"),
    ],
    ids=["level", "matrix"],
)
def test_dimension_messages(build, names, what, bad, message, axis):
    dims = [3, 3]
    dims[axis] = bad
    with pytest.raises(ValueError) as exc:
        build(*dims)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message.format(name=names[axis], what=what)
