import tracemalloc

import numpy as np
import pytest

import hbs
from conftest import EDGE_VALUES, make_edge_case
from hbs import (
    BlockShape,
    ConfigError,
    DimensionError,
    HBSConfig,
    density,
    lower_tensor4d,
    prune_hierarchical,
    reconstruct,
    support_mask,
)
from hbs.pruning import _block_sums, round_half_up

LADDER = "32x1:0.75,16x1:0.875,8x1:0.9375,4x1:0.96875,1x1:0.96875"

# Shared worked example: 2x2 grid scores are 10, 0, 0, 26.
FOUR = np.array(
    [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]], dtype=np.float32
)


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3), (2.49, 2), (3.0, 3)],
    )
    def test_values(self, x, expected):
        assert round_half_up(x) == expected


def block_abs_sum(m, shape):
    """Block scores as prune_hierarchical computes them: float64 sums of
    float32 |m|."""
    return _block_sums(np.abs(np.asarray(m, dtype=np.float32)), shape)


class TestBlockAbsSum:
    def test_worked_grid(self):
        scores = block_abs_sum(FOUR, BlockShape(2, 2))
        assert scores.dtype == np.float64
        assert scores.tolist() == [[10.0, 0.0], [0.0, 26.0]]

    def test_one_by_one_is_abs(self):
        m = np.array([[1.5, -2.0], [0.0, -3.0]], dtype=np.float32)
        scores = block_abs_sum(m, BlockShape(1, 1))
        assert scores.tolist() == [[1.5, 2.0], [0.0, 3.0]]

    def test_all_zero(self):
        assert not block_abs_sum(np.zeros((4, 4), np.float32), BlockShape(2, 2)).any()

    def test_dimension_error_names_axis(self):
        with pytest.raises(DimensionError, match="rows"):
            block_abs_sum(np.zeros((5, 4), np.float32), BlockShape(2, 2))
        with pytest.raises(DimensionError, match="cols"):
            block_abs_sum(np.zeros((4, 5), np.float32), BlockShape(2, 2))

    def test_matches_independent_sum(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((12, 8), dtype=np.float32)
        scores = block_abs_sum(m, BlockShape(3, 2))
        for gr in range(4):
            for gc in range(4):
                tile = m[gr * 3 : gr * 3 + 3, gc * 2 : gc * 2 + 2]
                want = float(np.abs(tile.astype(np.float64)).sum())
                assert scores[gr, gc] == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("shape", [BlockShape(2, 2), BlockShape(4, 1), BlockShape(3, 4)])
    def test_float32_magnitudes_sum_as_float64_input(self, shape):
        # Widening each block's first cell makes the float32 magnitudes
        # sum bit for bit as their float64 copy does, owned -inf cells too.
        rng = np.random.default_rng(7)
        m = rng.standard_normal((12, 8), dtype=np.float32) * 1e3
        m[:4] = rng.choice(EDGE_VALUES, (4, 8))
        m[rng.random(m.shape) < 0.2] = -np.inf
        scores = block_abs_sum(m, shape)
        wide = _block_sums(np.abs(m.astype(np.float64)), shape)
        assert scores.dtype == np.float64
        assert scores.tobytes() == wide.tobytes()


def brute_force_kept(m, shape, sparsity):
    """Independent ranking oracle: full sort of (score, index) pairs."""
    scores = []
    gr_n = m.shape[0] // shape.bh
    gc_n = m.shape[1] // shape.bw
    for gr in range(gr_n):
        for gc in range(gc_n):
            tile = m[gr * shape.bh : (gr + 1) * shape.bh, gc * shape.bw : (gc + 1) * shape.bw]
            scores.append(float(np.abs(tile.astype(np.float64)).sum()))
    g = gr_n * gc_n
    n_keep = g - round_half_up(sparsity * g)
    order = sorted(range(g), key=lambda i: (-scores[i], i))
    return sorted(order[:n_keep])


def brute_force_hierarchy(m, config):
    """Independent multi-level oracle on an explicitly zeroed residual.

    Per level: score every block by a sequential float64 sum over its
    residual cells in row-major order, skip blocks touching a cell kept by
    an earlier level, rank the rest by (-score, index), cap the keep count
    at that supply, then zero the kept cells. Returns per level the kept
    flat indices and their scores.
    """
    residual = m.copy()
    owned = np.zeros(m.shape, dtype=bool)
    out = []
    for spec in config.levels:
        bh, bw = spec.shape.bh, spec.shape.bw
        gc_n = m.shape[1] // bw
        g = (m.shape[0] // bh) * gc_n

        def cells(i):
            gr, gc = divmod(i, gc_n)
            return np.s_[gr * bh : (gr + 1) * bh, gc * bw : (gc + 1) * bw]

        scores = []
        for i in range(g):
            score = 0.0
            for x in residual[cells(i)].ravel():
                score += abs(float(x))
            scores.append(score)
        free = [i for i in range(g) if not owned[cells(i)].any()]
        n_keep = min(g - round_half_up(spec.sparsity * g), len(free))
        kept = sorted(sorted(free, key=lambda i: (-scores[i], i))[:n_keep])
        for i in kept:
            residual[cells(i)] = 0.0
            owned[cells(i)] = True
        out.append((kept, [scores[i] for i in kept]))
    return out


def prune_one(m, shape, sparsity):
    """The single kept level of a one-level hierarchical prune."""
    hbs_m, _ = prune_hierarchical(m, HBSConfig.of((shape, sparsity)))
    (level,) = hbs_m.levels
    return level


class TestPruneBlockSparse:
    """One-level block sparse pruning: a one-level hierarchical prune."""

    def test_worked_half(self):
        assert prune_one(FOUR, BlockShape(2, 2), 0.5).flat_indices().tolist() == [0, 3]

    def test_sparsity_zero_keeps_everything(self):
        assert prune_one(FOUR, BlockShape(2, 2), 0.0).n_blocks == 4

    def test_unstructured_worked(self):
        m = np.array([[1, -2], [-3, 4]], dtype=np.float32)
        assert prune_one(m, BlockShape(1, 1), 0.5).flat_indices().tolist() == [2, 3]

    def test_tie_break_prefers_low_index(self):
        m = np.ones((2, 2), dtype=np.float32)
        assert prune_one(m, BlockShape(1, 1), 0.5).flat_indices().tolist() == [0, 1]

    def test_values_bit_identical(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8), dtype=np.float32)
        m[0, 0] = -0.0
        level = prune_one(m, BlockShape(8, 8), 0.0)
        assert (level.values[0].view(np.uint32) == m.view(np.uint32)).all()

    def test_sparsity_range_checked(self):
        with pytest.raises(ConfigError):
            prune_one(FOUR, BlockShape(2, 2), 1.5)

    def test_matches_brute_force(self, random_case):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, config = random_case(rng, max_dim=8)
            shape = config.levels[0].shape
            sp = config.levels[0].sparsity
            level = prune_one(a, shape, sp)
            kept = brute_force_kept(a, shape, sp)
            assert level.flat_indices().tolist() == kept
            # the support is exactly the kept blocks' cells
            grid = np.zeros(a.size // shape.area, dtype=bool)
            grid[kept] = True
            want = grid.reshape(a.shape[0] // shape.bh, -1).repeat(shape.bh, 0).repeat(shape.bw, 1)
            mask = support_mask(hbs.HBSMatrix(a.shape[0], a.shape[1], (level,)))
            assert (mask == want).all()


class TestPruneHierarchical:
    def test_fig_structure(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4), dtype=np.float32)
        m, trace = prune_hierarchical(a, HBSConfig.of((2, 2, 0.5), (1, 1, 0.75)))
        assert m.levels[0].n_blocks == 2
        assert m.levels[1].n_blocks == 4
        assert trace.levels[0].kept_blocks == 2
        assert trace.levels[0].pruned_blocks == 2
        assert trace.levels[1].kept_blocks == 4

    def test_identity_config(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6), dtype=np.float32)
        m, _ = prune_hierarchical(a, HBSConfig.of((1, 1, 0.0)))
        assert (reconstruct(m) == a).all()

    def test_worked_two_level(self):
        m, trace = prune_hierarchical(FOUR, HBSConfig.of((2, 2, 0.75), (1, 1, 0.875)))
        l1, l2 = m.levels
        assert l1.flat_indices().tolist() == [3]
        assert l1.values[0].tolist() == [[5, 6], [7, 8]]
        # residual cells 4 at (1,1) and 3 at (1,0) survive the 1x1 pass
        assert l2.flat_indices().tolist() == [4, 5]
        assert sorted(v[0][0] for v in l2.values.tolist()) == [3.0, 4.0]
        assert density(m) == 0.375
        assert trace.levels[1].cutoff_score == 3.0

    def test_level1_divisibility_checked(self):
        with pytest.raises(DimensionError):
            prune_hierarchical(np.zeros((5, 4), np.float32), HBSConfig.of((2, 2, 0.5)))

    def test_empty_matrix_refused(self):
        cfg = HBSConfig.of((1, 1, 0.5))
        with pytest.raises(DimensionError, match="matrix must be non-empty, got 0x4"):
            prune_hierarchical(np.zeros((0, 4), np.float32), cfg)

    def test_config_type_checked(self):
        with pytest.raises(ConfigError, match="expected HBSConfig, got str"):
            prune_hierarchical(FOUR, "2x2:0.5")

    def test_residuals_and_disjointness(self, random_case):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a, config = random_case(rng, max_dim=24)
            m, trace = prune_hierarchical(a, config)
            assert hbs.validate(m).ok
            r = reconstruct(m)
            nz = r != 0
            assert (r[nz].view(np.uint32) == a[nz].view(np.uint32)).all()
            for lt in trace.levels:
                grid = lt.kept_blocks + lt.pruned_blocks
                assert grid > 0 and lt.kept_blocks >= 0

    def test_matches_brute_force(self, random_case):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, config = random_case(rng, max_dim=24)
            before = a.copy()
            m, trace = prune_hierarchical(a, config)
            assert a.tobytes() == before.tobytes()
            want = brute_force_hierarchy(a, config)
            for lv, lt, (kept, scores) in zip(m.levels, trace.levels, want):
                assert lv.flat_indices().tolist() == kept
                assert lt.kept_blocks == len(kept)
                assert lt.zero_score_kept == scores.count(0.0)
                assert lt.cutoff_score == (min(scores) if scores else None)
                bh, bw = lv.shape.bh, lv.shape.bw
                for r, c, tile in zip(lv.block_rows, lv.block_cols, lv.values):
                    cell = a[r * bh : (r + 1) * bh, c * bw : (c + 1) * bw]
                    assert tile.tobytes() == cell.tobytes()

    def test_edge_values_match_brute_force(self):
        # Multi-cell scores rank on their int64 bits, single cells' float32
        # magnitudes on their int32 bits, and owned blocks on -inf's bits:
        # signed zeros, subnormals, float32's extremes, both signs of one
        # magnitude and all-equal matrices must rank as the floats do, also
        # on a single-cell level after coarser levels.
        rng = np.random.default_rng(43)
        cases = [make_edge_case(rng) for _ in range(200)]
        for levels in ("4x4:0.75,2x2:0.75,1x1:0.5", "2x1:0.5,1x1:0.5", "4x2:0.875,1x1:0.9"):
            a = rng.choice(EDGE_VALUES, (8, 8))
            a[0, :4] = [0.0, -0.0, EDGE_VALUES[2], -EDGE_VALUES[-1]]
            cases.append((a, HBSConfig.parse(levels)))
        for a, config in cases:
            m, trace = prune_hierarchical(a, config)
            want = brute_force_hierarchy(a, config)
            for lv, lt, (kept, scores) in zip(m.levels, trace.levels, want, strict=True):
                assert lv.flat_indices().tolist() == kept
                assert lt.kept_blocks + lt.pruned_blocks == lv.grid_rows * lv.grid_cols
                assert lt.kept_blocks == len(kept)
                assert lt.zero_score_kept == scores.count(0.0)
                assert lt.cutoff_score == (min(scores) if scores else None)

    @pytest.mark.parametrize("levels", [pytest.param(LADDER, id="ladder"), "1x1:0.9"])
    def test_transient_memory_per_cell(self, levels):
        # Float32 magnitudes (4 bytes per cell), float64 scores only per
        # multi-cell block and int32 keys for single cells peak near 11
        # bytes per cell.
        m = np.random.default_rng(0).standard_normal((512, 512), dtype=np.float32)
        config = HBSConfig.parse(levels)
        tracemalloc.start()
        try:
            prune_hierarchical(m, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / m.size <= 12

    def test_zero_matrix_still_valid(self):
        m, trace = prune_hierarchical(
            np.zeros((4, 4), np.float32), HBSConfig.of((2, 2, 0.5), (1, 1, 0.75))
        )
        assert hbs.validate(m).ok
        assert trace.levels[0].zero_score_kept == 2
        assert trace.levels[1].zero_score_kept == 4
        assert trace.levels[1].render().endswith("zero-score kept 4")
        # covered cells: 2 kept 2x2 blocks plus 4 kept singles
        assert density(m) == 0.75

    def test_rounding_overshoot_caps_keep_count(self):
        # 2x2 grid has one block; sparsity 0.4 rounds to pruning none, so
        # level 1 covers everything and later levels must come up empty.
        a = np.ones((2, 2), dtype=np.float32)
        m, trace = prune_hierarchical(a, HBSConfig.of((2, 2, 0.4), (1, 1, 0.9)))
        assert hbs.validate(m).ok
        assert m.levels[0].n_blocks == 1
        assert m.levels[1].n_blocks == 0
        assert trace.levels[1].cutoff_score is None
        assert (reconstruct(m) == a).all()
        # Level 1 keeps 5 - round(2.4) = 3 of five 2x1 blocks; level 2 asks
        # for 10 - round(5.2) = 5 cells with 4 free, and keeps those 4.
        a = np.arange(1, 11, dtype=np.float32).reshape(2, 5)
        m, trace = prune_hierarchical(a, HBSConfig.parse("2x1:0.48,1x1:0.52"))
        assert [lv.n_blocks for lv in m.levels] == [3, 4]
        assert [t.pruned_blocks for t in trace.levels] == [2, 6]
        assert (reconstruct(m) == a).all()

    def test_finer_levels_prefer_uncovered_blocks(self):
        # all-equal matrix: level 2's zero-score survivors must sit outside
        # level 1's coverage even though covered blocks tie at score zero
        # with lower grid indices.
        a = np.ones((4, 4), dtype=np.float32)
        m, _ = prune_hierarchical(a, HBSConfig.of((2, 2, 0.75), (1, 1, 0.75)))
        assert hbs.validate(m).ok
        assert density(m) == 0.5
        covered = support_mask(hbs.HBSMatrix(4, 4, (m.levels[0],)))
        fine = support_mask(hbs.HBSMatrix(4, 4, (m.levels[1],)))
        assert not (covered & fine).any()

    def test_repeated_level_spec_object(self):
        # One LevelSpec object twice: the second pass must still see the
        # first pass's blocks dropped, and pick the other half.
        spec = hbs.LevelSpec(BlockShape(2, 2), 0.5)
        m, _ = prune_hierarchical(FOUR, HBSConfig((spec, spec)))
        first = support_mask(hbs.HBSMatrix(4, 4, m.levels[:1]))
        second = support_mask(hbs.HBSMatrix(4, 4, m.levels[1:]))
        assert first.sum() == second.sum() == 8
        assert not (first & second).any()
        assert (reconstruct(m) == FOUR).all()

    def test_trace_renders(self):
        _, trace = prune_hierarchical(FOUR, HBSConfig.of((2, 2, 0.75), (1, 1, 0.875)))
        text = trace.render()
        assert "2x2" in text and "1x1" in text and "kept 1/4" in text


class TestLowerTensor4d:
    def test_scalar(self):
        t = np.full((1, 1, 1, 1), 7.0, dtype=np.float32)
        assert lower_tensor4d(t, "CRS").tolist() == [[7.0]]
        assert lower_tensor4d(t, "RSC").tolist() == [[7.0]]

    def test_crs_rows_are_filters(self):
        t = np.zeros((2, 2, 1, 1), dtype=np.float32)
        for k in range(2):
            for c in range(2):
                t[k, c, 0, 0] = 10 * k + c
        assert lower_tensor4d(t, "CRS").tolist() == [[0, 1], [10, 11]]

    def test_order_permutation(self):
        t = np.zeros((1, 2, 2, 1), dtype=np.float32)
        for c in range(2):
            for r in range(2):
                t[0, c, r, 0] = c * 2 + r + 1
        assert lower_tensor4d(t, "CRS").tolist() == [[1, 2, 3, 4]]
        assert lower_tensor4d(t, "RSC").tolist() == [[1, 3, 2, 4]]

    @pytest.mark.parametrize("order", ["CRS", "RSC"])
    def test_no_filters(self, order):
        out = lower_tensor4d(np.zeros((0, 2, 3, 3)), order)
        assert out.shape == (0, 18) and out.dtype == np.float32

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            lower_tensor4d(np.zeros((1, 1, 1, 1), np.float32), "SRC")

    def test_requires_4d(self):
        with pytest.raises(DimensionError):
            lower_tensor4d(np.zeros((2, 2), np.float32), "CRS")
