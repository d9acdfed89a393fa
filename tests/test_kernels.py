import numpy as np
import pytest

import hbs
from hbs import (
    BlockShape,
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
from conftest import level_of


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
