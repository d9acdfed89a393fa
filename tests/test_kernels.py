import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hbs
from hbs import (
    BlockShape,
    BlockSparseLevel,
    DimensionError,
    HBSConfig,
    HBSMatrix,
    ValidationError,
    dense_matmul,
    flops_dense,
    flops_sparse,
    flops_sparse_level,
    hbs_matmul,
    max_rel_error,
    prune_hierarchical,
    reconstruct,
)
from conftest import level_of, make_random_case


def blockwise_product(m, b):
    """float64 sum of every kept block's tile times its slice of b.

    ``b`` is rounded to float32 first, as the kernels do with their inputs.
    """
    b64 = np.asarray(b, dtype=np.float32).astype(np.float64)
    out = np.zeros((m.rows, b64.shape[1]))
    for lv in m.levels:
        bh, bw = lv.shape.bh, lv.shape.bw
        for gr, gc, tile in zip(lv.block_rows, lv.block_cols, lv.values):
            out[gr * bh : (gr + 1) * bh] += tile.astype(np.float64) @ b64[gc * bw : (gc + 1) * bw]
    return out


def _edge_matrices():
    rng = np.random.default_rng(21)

    def tile(bh, bw):
        return rng.standard_normal((bh, bw)).astype(np.float32)

    wide = rng.standard_normal((16, 12), dtype=np.float32)
    short = rng.standard_normal((12, 18), dtype=np.float32)
    # Block rows 1 and 3 hold nothing, block row 0 holds a single block.
    gappy = level_of(
        BlockShape(2, 2), 4, 4, [(0, 1, tile(2, 2)), (2, 0, tile(2, 2)), (2, 3, tile(2, 2))]
    )
    coarse = level_of(BlockShape(4, 4), 2, 2, [(0, 0, tile(4, 4)), (1, 1, tile(4, 4))])
    fine = level_of(
        BlockShape(1, 1), 8, 8, [(0, 5, tile(1, 1)), (4, 1, tile(1, 1)), (7, 0, tile(1, 1))]
    )
    return {
        "4x2": prune_hierarchical(wide, HBSConfig.parse("4x2:0.5,2x1:0.75"))[0],
        "2x3": prune_hierarchical(short, HBSConfig.parse("2x3:0.6,1x3:0.8"))[0],
        "gappy-rows": HBSMatrix(8, 8, (gappy,)),
        "empty-middle": HBSMatrix(
            8, 8, (coarse, BlockSparseLevel.empty(BlockShape(2, 2), 4, 4), fine)
        ),
    }


EDGE_MATRICES = _edge_matrices()


class TestDenseMatmul:
    def test_identity(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.float32)
        assert (dense_matmul(np.eye(2, dtype=np.float32), a) == a).all()

    def test_worked_product(self):
        c = dense_matmul([[1, 2], [3, 4]], [[5], [6]])
        assert c.tolist() == [[17], [39]]

    def test_zero_right_operand(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert not dense_matmul(a, np.zeros((3, 4), np.float32)).any()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dense_matmul(np.zeros((2, 3), np.float32), np.zeros((2, 3), np.float32))

    def test_matches_float64_reference(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((9, 7), dtype=np.float32)
        b = rng.standard_normal((7, 5), dtype=np.float32)
        want = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        assert max_rel_error(dense_matmul(a, b), want) < 1e-6


class TestHbsMatmul:
    def test_zero_levels(self):
        out = hbs_matmul(HBSMatrix(3, 3, ()), np.ones((3, 2), np.float32))
        assert out.shape == (3, 2) and not out.any()

    def test_full_density_equals_dense(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6), dtype=np.float32)
        m, _ = prune_hierarchical(a, HBSConfig.of((1, 1, 0.0)))
        b = rng.standard_normal((6, 4), dtype=np.float32)
        got = hbs_matmul(m, b)
        want = dense_matmul(a, b)
        assert (got.view(np.uint32) == want.view(np.uint32)).all()

    def test_three_level_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((16, 16), dtype=np.float32)
        cfg = HBSConfig.of((4, 4, 0.75), (2, 2, 0.75), (1, 1, 0.875))
        m, _ = prune_hierarchical(a, cfg)
        b = rng.standard_normal((16, 4), dtype=np.float32)
        assert max_rel_error(hbs_matmul(m, b), dense_matmul(reconstruct(m), b)) <= 1e-5

    def test_rejects_invalid(self):
        lv = level_of(BlockShape(1, 1), 2, 2, [(0, 0, [[1.0]]), (0, 0, [[1.0]])])
        with pytest.raises(ValidationError):
            hbs_matmul(HBSMatrix(2, 2, (lv,)), np.ones((2, 1), np.float32))

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimensionError):
            hbs_matmul(HBSMatrix(2, 2, ()), np.ones((3, 1), np.float32))

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((12, 12), dtype=np.float32)
        m, _ = prune_hierarchical(a, HBSConfig.of((3, 3, 0.5), (1, 1, 0.75)))
        b = rng.standard_normal((12, 5), dtype=np.float32)
        first = hbs_matmul(m, b)
        again = hbs_matmul(m, b)
        assert (first.view(np.uint32) == again.view(np.uint32)).all()


class TestPanelKernel:
    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("layout", ["float32", "float64-strided"])
    def test_matches_blockwise_product(self, name, n, layout):
        m = EDGE_MATRICES[name]
        rng = np.random.default_rng(n)
        if layout == "float32":
            b = rng.standard_normal((m.cols, n), dtype=np.float32)
        else:
            b = rng.standard_normal((m.cols, 2 * n))[:, ::2]
            assert n == 0 or not b.flags.c_contiguous
        b_bytes = b.tobytes()
        arrays = [
            (lv.block_rows.copy(), lv.block_cols.copy(), lv.values.copy()) for lv in m.levels
        ]

        got = hbs_matmul(m, b)
        again = hbs_matmul(m, b)

        assert got.dtype == np.float32 and got.shape == (m.rows, n)
        if n:
            want = blockwise_product(m, b).astype(np.float32)
            assert max_rel_error(got, want) <= 1e-5
        assert (got.view(np.uint32) == again.view(np.uint32)).all()
        assert b.tobytes() == b_bytes
        for lv, (br, bc, vals) in zip(m.levels, arrays):
            assert (lv.block_rows == br).all() and (lv.block_cols == bc).all()
            assert (lv.values.view(np.uint32) == vals.view(np.uint32)).all()

    def test_uncovered_rows_are_zero(self):
        m = EDGE_MATRICES["gappy-rows"]
        out = hbs_matmul(m, np.ones((8, 3), np.float32))
        assert not out[2:4].any() and not out[6:8].any()
        assert out[0:2].any() and out[4:6].any()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 9), scale=st.integers(-8, 8))
def test_hbs_matmul_within_float64_oracle(seed, n, scale):
    rng = np.random.default_rng(seed)
    a, config = make_random_case(rng, max_dim=32)
    a = a * np.float32(10.0**scale)
    m, _ = prune_hierarchical(a, config)
    b = rng.standard_normal((a.shape[1], n), dtype=np.float32)
    want = (reconstruct(m).astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
    got = hbs_matmul(m, b)
    assert got.shape == want.shape
    if n:
        assert max_rel_error(got, want) <= 1e-5


class TestFlops:
    def test_dense_values(self):
        assert flops_dense(1, 1, 1) == 2
        assert flops_dense(64, 64, 64) == 524288
        assert flops_dense(5, 7, 0) == 0

    def test_dense_rejects_negative(self):
        with pytest.raises(ValueError):
            flops_dense(-1, 2, 2)

    def test_level_values(self):
        empty = hbs.BlockSparseLevel.empty(BlockShape(2, 2), 2, 2)
        assert flops_sparse_level(empty, 5) == 0
        lv = level_of(
            BlockShape(2, 2), 2, 2, [(0, 0, np.ones((2, 2))), (1, 1, np.ones((2, 2)))]
        )
        assert flops_sparse_level(lv, 3) == 48

    def test_density_relationship(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((16, 8), dtype=np.float32)
        m, _ = prune_hierarchical(a, HBSConfig.of((2, 2, 0.75)))
        n = 10
        assert flops_sparse(m, n) == flops_dense(16, 8, n) * 0.25


class TestMaxRelError:
    def test_identical_is_zero(self):
        a = np.ones((3, 3), np.float32)
        assert max_rel_error(a, a) == 0.0

    def test_zero_pair_is_zero(self):
        z = np.zeros((2, 2), np.float32)
        assert max_rel_error(z, z) == 0.0

    def test_scales_by_larger_magnitude(self):
        got = np.array([[2.0]], np.float32)
        want = np.array([[1.0]], np.float32)
        assert max_rel_error(got, want) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            max_rel_error(np.zeros((2, 2), np.float32), np.zeros((2, 3), np.float32))
