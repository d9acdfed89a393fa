import numpy as np
import pytest

from conftest import level_of, make_edge_case, make_random_case
from hbs import (
    BlockShape,
    DimensionError,
    HBSConfig,
    HBSMatrix,
    RetentionReport,
    ValidationError,
    prune_hierarchical,
    sparsity_summary,
    support_mask,
    topk_retention,
)
from hbs.analysis import _top_sizes

FOUR = np.array(
    [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]], dtype=np.float32
)


def stable_sort_retention(a, m, percentiles):
    """Independent retention oracle: a stable argsort of the magnitudes."""
    order = np.argsort(-np.abs(a.ravel()), kind="stable")
    cum = np.cumsum(support_mask(m).ravel()[order])
    return tuple(float(cum[sz - 1]) / sz for sz in _top_sizes(percentiles, a.size))


def pruned(a, *levels):
    m, _ = prune_hierarchical(np.asarray(a, dtype=np.float32), HBSConfig.of(*levels))
    return m


class TestTopkRetention:
    def test_single_block_keeps_all_top_quarter(self):
        m = pruned(FOUR, (2, 2, 0.75))
        rep = topk_retention(FOUR, m, [0.25, 0.5])
        assert rep.total_elements == 16
        assert rep.retained == (1.0, 0.5)
        assert topk_retention(FOUR, m, (p for p in [0.25, 0.5])) == rep

    def test_block_granularity_can_miss_a_large_cell(self):
        # the lone 5 outscores each cell of the dense block, but the block
        # outscores the 5 on abs-sum, so the 5 is dropped
        a = np.array(
            [[3, 3, 0, 0], [3, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 0]],
            dtype=np.float32,
        )
        rep = topk_retention(a, pruned(a, (2, 2, 0.75)), [0.25])
        assert rep.retained == (0.75,)

    def test_zero_sparsity_retains_everything(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8), dtype=np.float32)
        rep = topk_retention(a, pruned(a, (2, 2, 0.0)), [0.1, 0.5, 1.0])
        assert rep.retained == (1.0, 1.0, 1.0)

    def test_magnitude_ties_break_toward_earlier_cells(self):
        a = np.array([[1, 0], [0, 1]], dtype=np.float32)
        m = HBSMatrix(2, 2, (level_of(BlockShape(1, 1), 2, 2, [(0, 0, [[1.0]])]),))
        rep = topk_retention(a, m, [0.25, 0.5])
        # top-2 is the two 1.0 cells; only the row-major-first one is kept
        assert rep.retained == (1.0, 0.5)

    def test_top_set_size_rounds_up(self):
        a = np.arange(1, 10, dtype=np.float32).reshape(3, 3)
        m = HBSMatrix(3, 3, (level_of(BlockShape(1, 1), 3, 3, [(2, 2, [[9.0]])]),))
        # p=0.15 of 9 cells -> top set of 2; only the 9 survives
        rep = topk_retention(a, m, [0.15])
        assert rep.retained == (0.5,)

    def test_top_set_size_is_exact(self):
        a = np.arange(10, 0, -1, dtype=np.float32).reshape(1, 10)
        m = HBSMatrix(1, 10, (level_of(BlockShape(1, 1), 1, 10, [(0, 0, [[10.0]])]),))
        # 0.100000000001 of 10 cells is a hair above 1 -> top set of 2
        assert topk_retention(a, m, [0.100000000001]).retained == (0.5,)

    @pytest.mark.parametrize(
        "p,total,size",
        [(0.3, 10, 3), (0.100000000001, 10, 2), (0.55, 10**8, 55_000_000), (1e-300, 10, 1)],
    )
    def test_top_sizes(self, p, total, size):
        assert _top_sizes([p], total) == [size]

    def test_matches_stable_sort_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, config = make_random_case(rng, max_dim=24)
            a = np.round(a * 2)  # few distinct magnitudes: ties everywhere
            m, _ = prune_hierarchical(a, config)
            pcts = [1.0, *rng.uniform(0.001, 1.0, 5)]
            rep = topk_retention(a, m, pcts)
            assert rep.retained == stable_sort_retention(a, m, pcts)
            assert all(type(r) is float for r in rep.retained)

    def test_edge_values_match_stable_sort_oracle(self):
        # Magnitudes rank on their int32 bits: signed zeros, subnormals,
        # float32's extremes, both signs of one magnitude and all-equal
        # matrices must rank as the floats do, ties to the earlier cell.
        rng = np.random.default_rng(47)
        for _ in range(200):
            a, config = make_edge_case(rng)
            m, _ = prune_hierarchical(a, config)
            pcts = [1.0, *rng.uniform(0.001, 1.0, 5)]
            assert topk_retention(a, m, pcts).retained == stable_sort_retention(a, m, pcts)

    @pytest.mark.parametrize(
        "pcts",
        [
            [0.1, 0.1, 0.3, 0.5, 0.5],
            [0.5, 0.5, 0.3, 0.1, 0.1],
            [0.3, 0.1, 0.5, 0.1, 0.3, 1.0, 0.5],
            [1e-300, 1.0],
            [1.0, 1e-300, 1e-300],
        ],
        ids=["ascending", "descending", "mixed", "one-cell-then-all", "all-then-one-cell"],
    )
    def test_repeated_and_unsorted_percentiles_match_oracle(self, pcts):
        # Sizes are cut largest first, each inside the last top slice;
        # the report keeps the caller's order and repeats.
        rng = np.random.default_rng(29)
        for _ in range(60):
            a, config = make_random_case(rng, max_dim=24)
            a = np.round(a * 2)
            m, _ = prune_hierarchical(a, config)
            rep = topk_retention(a, m, pcts)
            assert rep.percentiles == tuple(pcts)
            assert rep.retained == stable_sort_retention(a, m, pcts)

    def test_cut_ties_follow_index_order_not_the_support(self):
        # Magnitude 1 sits on covered (2, 5, 6) and uncovered (1, 3, 4)
        # cells on both sides of the top-4 cut. Ranking covered cells first
        # would count cells 0, 2, 5, 6; the index rule takes 0, 1, 2, 3.
        a = np.array([[2, 1, -1, 1, 1, -1, 1, 0]], dtype=np.float32)
        kept = [(0, 0, [[2.0]]), (0, 2, [[-1.0]]), (0, 5, [[-1.0]]), (0, 6, [[1.0]])]
        m = HBSMatrix(1, 8, (level_of(BlockShape(1, 1), 1, 8, kept),))
        pcts = [0.5, 0.25, 0.125, 0.75, 1.0]
        rep = topk_retention(a, m, pcts)
        assert rep.retained == (0.5, 0.5, 1.0, 0.5, 0.5)
        assert rep.retained == stable_sort_retention(a, m, pcts)

    @pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
    def test_input_bits_unchanged(self, writeable):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((16, 16), dtype=np.float32)
        a[0, :4] = [-0.0, 0.0, -1.0, 1.0]
        m = pruned(a, (4, 4, 0.5), (1, 1, 0.9))
        before = a.tobytes()
        a.setflags(write=writeable)
        rep = topk_retention(a, m, [0.5, 0.1, 1.0])
        assert a.tobytes() == before
        assert rep.retained == stable_sort_retention(a, m, [0.5, 0.1, 1.0])

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_percentile_real_only(self, bad):
        m = pruned(FOUR, (2, 2, 0.75))
        with pytest.raises(ValueError, match="percentile must be a real number"):
            topk_retention(FOUR, m, [bad])
        assert topk_retention(FOUR, m, [np.float32(0.25), 1]).retained == (1.0, 0.25)

    def test_percentile_range(self):
        m = pruned(FOUR, (2, 2, 0.75))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="fractions"):
                topk_retention(FOUR, m, [bad])

    def test_empty_original_refused(self):
        m = pruned(FOUR, (2, 2, 0.75))
        with pytest.raises(DimensionError, match="matrix must be non-empty, got 4x0"):
            topk_retention(np.zeros((4, 0), np.float32), m, [0.5])

    def test_shape_mismatch(self):
        m = pruned(FOUR, (2, 2, 0.75))
        with pytest.raises(DimensionError):
            topk_retention(np.zeros((4, 8), np.float32), m, [0.5])

    def test_rejects_invalid_matrix(self):
        dup = level_of(BlockShape(1, 1), 2, 2, [(0, 0, [[1.0]])])
        with pytest.raises(ValidationError):
            topk_retention(np.zeros((2, 2), np.float32), HBSMatrix(2, 2, (dup, dup)), [0.5])

    def test_report_render_and_machine_lines(self):
        rep = topk_retention(FOUR, pruned(FOUR, (2, 2, 0.75)), [0.25, 0.5])
        text = rep.render()
        assert "16 cells" in text and "0.500000" in text

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            RetentionReport((0.5,), (0.5, 1.0), 4)
        with pytest.raises(ValueError):
            RetentionReport((0.5,), (1.5,), 4)


class TestSparsitySummary:
    def test_single_level(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4), dtype=np.float32)
        s = sparsity_summary(pruned(a, (2, 2, 0.5)))
        assert (s.rows, s.cols) == (4, 4)
        (lv,) = s.per_level
        assert (lv.kept_blocks, lv.total_blocks) == (2, 4)
        assert lv.density == 0.5
        assert s.cumulative_density == 0.5

    def test_two_level_worked(self):
        s = sparsity_summary(pruned(FOUR, (2, 2, 0.75), (1, 1, 0.875)))
        assert [lv.kept_blocks for lv in s.per_level] == [1, 2]
        assert [lv.total_blocks for lv in s.per_level] == [4, 16]
        assert [lv.density for lv in s.per_level] == [0.25, 0.125]
        assert s.cumulative_density == 0.375

    def test_no_levels(self):
        s = sparsity_summary(HBSMatrix(4, 4, ()))
        assert s.per_level == ()
        assert s.cumulative_density == 0.0

    def test_render(self):
        text = sparsity_summary(pruned(FOUR, (2, 2, 0.75), (1, 1, 0.875))).render()
        assert "level 1" in text and "level 2" in text
        assert "kept 1/4 blocks" in text
        assert "cumulative density 0.375" in text

    def test_rejects_invalid_matrix(self):
        lv = level_of(BlockShape(3, 3), 2, 2, [(0, 0, np.ones((3, 3)))])
        with pytest.raises(ValidationError):
            sparsity_summary(HBSMatrix(5, 6, (lv,)))
