import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hbs
from hbs import kernels
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
            8, 8, (coarse, level_of(BlockShape(2, 2), 4, 4, []), fine)
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
        with pytest.raises(DimensionError, match="b must be 2-D, got 1"):
            dense_matmul(np.zeros((2, 3), np.float32), np.zeros(3, np.float32))

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


def _bits(x):
    return x.view(np.uint32).tobytes()


class TestPackedLevels:
    """A level is packed by its first product and keeps the packing."""

    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
    @pytest.mark.parametrize("n", [0, 1, 4, 256])
    def test_first_second_and_fresh_calls_agree(self, name, n):
        m, fresh = _edge_matrices()[name], _edge_matrices()[name]
        assert all(lv._packed is None for lv in m.levels + fresh.levels)
        b = np.random.default_rng(n).standard_normal((m.cols, n), dtype=np.float32)

        first = hbs_matmul(m, b)
        packed = [lv._packed for lv in m.levels]
        second = hbs_matmul(m, b)

        assert all(p is not None for p in packed)
        assert all(lv._packed is p for lv, p in zip(m.levels, packed))
        assert _bits(first) == _bits(second) == _bits(hbs_matmul(fresh, b))

    def test_packing_is_read_only(self):
        # Both a padded execution shape ("4x2") and the stored one ("2x3").
        for m in _edge_matrices().values():
            hbs_matmul(m, np.ones((m.cols, 2), np.float32))
            for lv in m.levels:
                packed = lv._packed
                assert packed.panel.dtype == np.float64
                assert packed.shape.bw == lv.shape.bw
                assert packed.panel.shape[0] == packed.shape.bh
                assert packed.panel.shape[1] == sum(p.shape[1] for *_, p, _ in packed.rows)
                # An unpadded bw == 1 level gathers by its own block_cols, with no copy.
                unpadded = packed.shape == lv.shape
                assert (packed.src is lv.block_cols) == (unpadded and lv.shape.bw == 1)
                arrays = [packed.panel, packed.src]
                arrays += [a for *_, p, idx in packed.rows for a in (p, idx)]
                assert not any(a.flags.writeable for a in arrays)
                with pytest.raises(ValueError, match="read-only"):
                    packed.panel[...] = 0.0

    def test_nothing_packed_when_built_or_read(self, tmp_path):
        m = EDGE_MATRICES["4x2"]
        hbs.write_hbsf(tmp_path / "m.hbsf", m)
        back = hbs.read_hbsf(tmp_path / "m.hbsf")
        fresh = _edge_matrices()["4x2"]
        assert all(lv._packed is None for lv in back.levels + fresh.levels)

    def test_identity_repr_and_bytes_unchanged(self, tmp_path):
        m, twin = _edge_matrices()["2x3"], _edge_matrices()["2x3"]
        before = (repr(m), hash(m), [hash(lv) for lv in m.levels])
        hbs.write_hbsf(tmp_path / "before.hbsf", m)

        hbs_matmul(m, np.ones((m.cols, 3), np.float32))

        assert (repr(m), hash(m), [hash(lv) for lv in m.levels]) == before
        assert repr(m) == repr(twin) and "_packed" not in repr(m)
        assert m == m and m != twin and m.levels[0] != twin.levels[0]
        hbs.write_hbsf(tmp_path / "after.hbsf", m)
        assert (tmp_path / "after.hbsf").read_bytes() == (tmp_path / "before.hbsf").read_bytes()

    def test_matrices_sharing_a_level_share_its_packing(self):
        full = _edge_matrices()["4x2"]
        b = np.random.default_rng(3).standard_normal((full.cols, 4), dtype=np.float32)
        hbs_matmul(full, b)
        for lv, twin in zip(full.levels, _edge_matrices()["4x2"].levels):
            packed = lv._packed
            one = HBSMatrix(full.rows, full.cols, (lv,))
            also = HBSMatrix(full.rows, full.cols, (lv,))
            got = hbs_matmul(one, b)
            assert _bits(got) == _bits(hbs_matmul(also, b))
            assert _bits(got) == _bits(hbs_matmul(HBSMatrix(full.rows, full.cols, (twin,)), b))
            assert lv._packed is packed

    def test_threads_racing_to_pack_agree(self):
        m = _edge_matrices()["empty-middle"]
        b = np.random.default_rng(8).standard_normal((m.cols, 5), dtype=np.float32)
        want = _bits(hbs_matmul(_edge_matrices()["empty-middle"], b))
        got = []

        def run():
            got.append(_bits(hbs_matmul(m, b)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 8


def _one_level(bh, bw, rows, cols, blocks):
    """A matrix of one ``bh x bw`` level holding ``blocks``, tiles drawn at random."""
    rng = np.random.default_rng(bh * 100 + bw)
    tiles = [(gr, gc, rng.standard_normal((bh, bw))) for gr, gc in blocks]
    return HBSMatrix(rows, cols, (level_of(BlockShape(bh, bw), rows // bh, cols // bw, tiles),))


def _unpack(packed, rows, cols):
    """float64 dense matrix that a level's packing multiplies by."""
    dense = np.zeros((rows, cols))
    for r0, r1, p, idx in packed.rows:
        assert len(np.unique(idx)) == len(idx)
        dense[r0:r1, idx] = p
    assert sum(p.size for *_, p, _ in packed.rows) == packed.panel.size
    return dense


def _ladder():
    a = np.random.default_rng(31).standard_normal((64, 48), dtype=np.float32)
    cfg = HBSConfig.parse("16x2:0.75,8x1:0.875,4x1:0.9375,2x1:0.96875,1x1:0.96875")
    return prune_hierarchical(a, cfg)[0]


class TestExecutionShape:
    """Fine levels run as zero-padded 8-row blocks; the rest run as stored."""

    @pytest.mark.parametrize(
        "bh, bw, rows, run_bh",
        [
            (1, 1, 16, 8), (2, 1, 16, 8), (4, 1, 8, 8), (4, 3, 24, 8), (2, 2, 16, 8),
            (3, 1, 24, 3), (4, 1, 12, 4), (1, 1, 12, 1), (2, 1, 4, 2),
            (8, 1, 16, 8), (16, 1, 32, 16), (6, 1, 24, 6),
        ],
    )
    def test_rule(self, bh, bw, rows, run_bh):
        m = _one_level(bh, bw, rows, 2 * bw, [(0, 0), (rows // bh - 1, 1)])
        (lv,) = m.levels
        shape, executed = kernels._execution(lv, 5)
        assert shape == BlockShape(run_bh, bw) and lv._packed.shape == shape
        assert lv._packed.panel.shape[0] == run_bh
        assert (lv._packed.src is lv.block_cols) == (run_bh == bh and bw == 1)
        stored = flops_sparse_level(lv, 5)
        assert stored <= executed <= run_bh // bh * stored

    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES) + ["ladder", "signed-zeros"])
    def test_unpadding_gives_stored_tiles(self, name):
        if name == "ladder":
            m = _ladder()
        elif name == "signed-zeros":
            tiles = [(0, 1, [[-0.0], [1.0]]), (3, 0, [[2.0], [-0.0]]), (3, 2, [[-0.0], [-0.0]])]
            m = HBSMatrix(16, 3, (level_of(BlockShape(2, 1), 8, 3, tiles),))
        else:
            m = _edge_matrices()[name]
        for lv in m.levels:
            packed = kernels._pack(lv)
            # Each panel cell lands on its own cell, so comparing bits also
            # shows that every padding cell is +0.0.
            want = reconstruct(HBSMatrix(m.rows, m.cols, (lv,))).astype(np.float64)
            got = _unpack(packed, m.rows, m.cols)
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_ladder_pads_its_fine_levels(self):
        m = _ladder()
        run = [str(kernels._execution(lv, 1)[0]) for lv in m.levels]
        assert run == ["16x2", "8x1", "8x1", "8x1", "8x1"]

    @pytest.mark.parametrize("n", [1, 4, 33])
    def test_ladder_matches_blockwise_product(self, n):
        m = _ladder()
        b = np.random.default_rng(n).standard_normal((m.cols, n), dtype=np.float32)
        got = hbs_matmul(m, b)
        assert max_rel_error(got, blockwise_product(m, b).astype(np.float32)) <= 1e-5
        assert max_rel_error(got, dense_matmul(reconstruct(m), b)) <= 1e-5

    def test_nonfinite_cells_also_nonfinite_in_oracle(self):
        padded = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a, config = make_random_case(rng, max_dim=32)
            m, _ = prune_hierarchical(a, config)
            b = rng.standard_normal((a.shape[1], 3), dtype=np.float32)
            cells = rng.integers(0, b.size, size=int(rng.integers(1, 4)))
            b.flat[cells] = rng.choice([np.inf, -np.inf, np.nan], size=len(cells))
            with np.errstate(invalid="ignore", over="ignore"):
                got = hbs_matmul(m, b)
                want = dense_matmul(reconstruct(m), b)
            assert not np.isfinite(want[~np.isfinite(got)]).any()
            padded += any(lv._packed.shape != lv.shape for lv in m.levels)
        assert padded >= 20


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

    @pytest.mark.parametrize("dims", [(2.5, 2, 2), (2, True, 2), (2, 2, "2")])
    def test_dense_integers_only(self, dims):
        with pytest.raises(ValueError, match="must be an integer"):
            flops_dense(*dims)

    def test_numpy_integers(self):
        got = flops_dense(np.int64(2), np.uint16(2), 2)
        assert got == 16 and type(got) is int
        lv = level_of(BlockShape(2, 2), 2, 2, [(0, 0, np.ones((2, 2)))])
        assert flops_sparse_level(lv, np.int32(3)) == 24
        with pytest.raises(ValueError, match="must be an integer"):
            flops_sparse_level(lv, 3.0)

    def test_level_values(self):
        empty = level_of(BlockShape(2, 2), 2, 2, [])
        assert flops_sparse_level(empty, 5) == 0
        lv = level_of(
            BlockShape(2, 2), 2, 2, [(0, 0, np.ones((2, 2))), (1, 1, np.ones((2, 2)))]
        )
        assert flops_sparse_level(lv, 3) == 48
        with pytest.raises(ValueError):
            flops_sparse_level(lv, -1)

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

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_no_cells_is_zero(self, shape):
        z = np.zeros(shape, np.float32)
        assert max_rel_error(z, z) == 0.0

    def test_matches_empty_product(self):
        m = EDGE_MATRICES["4x2"]
        b = np.zeros((m.cols, 0), np.float32)
        assert max_rel_error(hbs_matmul(m, b), dense_matmul(reconstruct(m), b)) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_equal_infinities_are_zero(self):
        inf = np.inf
        assert max_rel_error([[inf]], [[inf]]) == 0.0
        assert max_rel_error([[-inf, 0.0]], [[-inf, 0.0]]) == 0.0
        assert max_rel_error([[inf, 2.0]], [[inf, 1.0]]) == pytest.approx(0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "got, want",
        [
            (np.inf, -np.inf), (np.nan, np.nan), (1.0, np.inf), (np.inf, 1.0),
            (np.nan, 1.0), (0.0, np.nan), (np.nan, np.inf),
        ],
    )
    def test_other_nonfinite_pairs_are_inf(self, got, want):
        assert max_rel_error([[got, 1.0]], [[want, 1.0]]) == np.inf
