import gc
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hbs
from hbs import kernels
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
    support_mask,
)
from conftest import COPIES, level_of, make_random_case

# The benchmark suite's two configs.
TWO = "32x1:0.75,8x1:0.875"
LADDER = "32x1:0.75,16x1:0.875,8x1:0.9375,4x1:0.96875,1x1:0.96875"


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


def _pruned(seed, shape, spec):
    a = np.random.default_rng(seed).standard_normal(shape, dtype=np.float32)
    return prune_hierarchical(a, HBSConfig.parse(spec))[0]


def _gappy_rows():
    # Block rows 1 and 3 hold nothing, block row 0 holds a single block.
    t = np.random.default_rng(23).standard_normal((3, 2, 2)).astype(np.float32)
    lv = level_of(BlockShape(2, 2), 4, 4, [(0, 1, t[0]), (2, 0, t[1]), (2, 3, t[2])])
    return HBSMatrix(8, 8, (lv,))


def _empty_middle():
    rng = np.random.default_rng(24)
    big = rng.standard_normal((2, 4, 4)).astype(np.float32)
    small = rng.standard_normal((3, 1, 1)).astype(np.float32)
    coarse = level_of(BlockShape(4, 4), 2, 2, [(0, 0, big[0]), (1, 1, big[1])])
    fine = level_of(BlockShape(1, 1), 8, 8, [(0, 5, small[0]), (4, 1, small[1]), (7, 0, small[2])])
    return HBSMatrix(8, 8, (coarse, level_of(BlockShape(2, 2), 4, 4, []), fine))


# Edge matrices by name, each a builder of a fresh copy. Tests build the ones
# they use when they run, so a library fault fails those tests instead of this
# module's collection.
EDGE_MATRICES = {
    "2x3": lambda: _pruned(22, (12, 18), "2x3:0.6,1x3:0.8"),
    "4x2": lambda: _pruned(21, (16, 12), "4x2:0.5,2x1:0.75"),
    "empty-middle": _empty_middle,
    "gappy-rows": _gappy_rows,
}


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
        m = EDGE_MATRICES[name]()
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
        # The plan's product too, wherever the dense product runs.
        planned = kernels._plan_product(m, np.asarray(b, np.float32))

        assert got.dtype == planned.dtype == np.float32
        assert got.shape == planned.shape == (m.rows, n)
        if n:
            want = blockwise_product(m, b).astype(np.float32)
            assert max_rel_error(got, want) <= 1e-5
            assert max_rel_error(planned, want) <= 1e-5
        assert (got.view(np.uint32) == again.view(np.uint32)).all()
        assert b.tobytes() == b_bytes
        for lv, (br, bc, vals) in zip(m.levels, arrays):
            assert (lv.block_rows == br).all() and (lv.block_cols == bc).all()
            assert (lv.values.view(np.uint32) == vals.view(np.uint32)).all()

    def test_uncovered_rows_are_zero(self):
        m = EDGE_MATRICES["gappy-rows"]()
        out = hbs_matmul(m, np.ones((8, 3), np.float32))
        assert not out[2:4].any() and not out[6:8].any()
        assert out[0:2].any() and out[4:6].any()


def _bits(x):
    return x.view(np.uint32).tobytes()


def _plan_of(m):
    """The matrix's execution plan if a product has built it, else None."""
    return kernels._PLANS.get(m)


class TestPackedLevels:
    """A matrix's plan is built by its first product and kept as long as the matrix."""

    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
    @pytest.mark.parametrize("n", [0, 1, 4, 256])
    def test_first_second_and_fresh_calls_agree(self, name, n):
        m, fresh = EDGE_MATRICES[name](), EDGE_MATRICES[name]()
        assert _plan_of(m) is None and _plan_of(fresh) is None
        b = np.random.default_rng(n).standard_normal((m.cols, n), dtype=np.float32)

        first = kernels._plan_product(m, b)
        plan = _plan_of(m)
        second = kernels._plan_product(m, b)

        assert plan is not None and _plan_of(m) is plan
        assert _bits(first) == _bits(second) == _bits(kernels._plan_product(fresh, b))

    def test_packing_is_read_only(self):
        # Both a padded execution shape ("4x2") and the stored one ("2x3").
        for m in (build() for build in EDGE_MATRICES.values()):
            kernels._plan_product(m, np.ones((m.cols, 2), np.float32))
            plan = _plan_of(m)
            assert [i for part in plan for i in part.levels] == list(range(m.n_levels))
            for part in plan:
                assert part.shape.bw == m.levels[part.levels[-1]].shape.bw
                arrays = [part.ids]
                for slab in part.slabs:
                    assert slab.tiles.dtype == np.float64 and slab.src.dtype == np.intp
                    assert slab.tiles.shape == (len(slab.lens), part.shape.bh, slab.src.shape[1])
                    # The slab's rows are its run of the part's ids.
                    at = part.ids[slab.start : slab.start + len(slab.lens)]
                    assert slab.lens.shape == at.shape == (len(slab.src),)
                    arrays += [slab.tiles, slab.src, slab.lens]
                assert sum(len(slab.lens) for slab in part.slabs) == len(part.ids)
                # An unpadded level gathers by its own block_cols, in row-major order.
                (lv, *more) = [m.levels[i] for i in part.levels]
                if not more and part.shape == lv.shape:
                    cols = lv.block_cols[:, None] * lv.shape.bw + np.arange(lv.shape.bw)
                    assert (_own_src(part) == cols.ravel()).all()
                assert not any(a.flags.writeable for a in arrays)
                for slab in part.slabs:
                    with pytest.raises(ValueError, match="read-only"):
                        slab.tiles[...] = 0.0

    def test_nothing_packed_when_built_or_read(self, tmp_path):
        m = EDGE_MATRICES["4x2"]()
        hbs.write_hbsf(tmp_path / "m.hbsf", m)
        back = hbs.read_hbsf(tmp_path / "m.hbsf")
        fresh = EDGE_MATRICES["4x2"]()
        assert all(_kept(form, x) is None for form in KEPT for x in (m, back, fresh))

    def test_identity_repr_and_bytes_unchanged(self, tmp_path):
        m, twin = EDGE_MATRICES["2x3"](), EDGE_MATRICES["2x3"]()
        before = (repr(m), hash(m), [hash(lv) for lv in m.levels])
        hbs.write_hbsf(tmp_path / "before.hbsf", m)

        kernels._plan_product(m, np.ones((m.cols, 3), np.float32))

        assert (repr(m), hash(m), [hash(lv) for lv in m.levels]) == before
        assert repr(m) == repr(twin) and "plan" not in repr(m)
        assert m == m and m != twin and m.levels[0] != twin.levels[0]
        hbs.write_hbsf(tmp_path / "after.hbsf", m)
        assert (tmp_path / "after.hbsf").read_bytes() == (tmp_path / "before.hbsf").read_bytes()

    def test_matrices_sharing_a_level_agree(self):
        full = EDGE_MATRICES["4x2"]()
        b = np.random.default_rng(3).standard_normal((full.cols, 4), dtype=np.float32)
        kernels._plan_product(full, b)
        plan = _plan_of(full)
        for lv, twin in zip(full.levels, EDGE_MATRICES["4x2"]().levels):
            one = HBSMatrix(full.rows, full.cols, (lv,))
            also = HBSMatrix(full.rows, full.cols, (lv,))
            got = kernels._plan_product(one, b)
            assert _bits(got) == _bits(kernels._plan_product(also, b))
            twin_m = HBSMatrix(full.rows, full.cols, (twin,))
            assert _bits(got) == _bits(kernels._plan_product(twin_m, b))
            # Each matrix has a plan of its own.
            assert _plan_of(one) is not _plan_of(also)
        assert _plan_of(full) is plan

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copies_rebuild_through_the_constructor(self, how, tmp_path):
        dup = COPIES[how]
        m = _ladder()
        twin = dup(m)
        assert twin is not m
        for lv in twin.levels:
            assert not any(a.flags.writeable for a in (lv.block_rows, lv.block_cols, lv.values))
        hbs.write_hbsf(tmp_path / "m.hbsf", m)
        hbs.write_hbsf(tmp_path / "twin.hbsf", twin)
        assert (tmp_path / "twin.hbsf").read_bytes() == (tmp_path / "m.hbsf").read_bytes()
        assert _bits(reconstruct(twin)) == _bits(reconstruct(m))
        lv = dup(m.levels[0])
        assert lv is not m.levels[0]
        assert not any(a.flags.writeable for a in (lv.block_rows, lv.block_cols, lv.values))


def _dense_of(m):
    """The matrix's float64 dense form if a dense product has built it, else None."""
    return kernels._DENSE.get(m)


def _schedule_of(m):
    """The matrix's schedule of its latest width if a product has built one, else None."""
    return kernels._SCHEDULES.get(m)


# The three forms a matrix keeps, each with a product that builds it: the
# plan's own product, which builds the plan and a schedule that holds its
# runs, and hbs_matmul, which runs _ladder() densely at 4, 5 and 33 columns.
KEPT = {"plan": kernels._plan_product, "dense": hbs_matmul, "schedule": kernels._plan_product}


def _kept(form, m):
    return {"plan": _plan_of, "dense": _dense_of, "schedule": _schedule_of}[form](m)


@pytest.mark.parametrize("form", sorted(KEPT))
class TestKeptForms:
    """Each form is built by the matrix's first product of its kind, kept as
    long as the matrix lives, and carried by no copy."""

    def test_dies_with_its_matrix(self, form):
        m = _ladder()
        KEPT[form](m, np.ones((m.cols, 4), np.float32))
        kept = _kept(form, m)
        if form == "plan":
            arrays = [part.ids for part in kept]
        elif form == "schedule":
            arrays = [a for run in kept.runs for chunk in run.chunks for a in chunk[:2]]
            assert arrays
        else:
            arrays = [kept]
        held = [weakref.ref(m)] + [weakref.ref(a) for a in arrays]
        del m, kept, arrays
        gc.collect()
        assert all(ref() is None for ref in held)

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copies_and_pickles_carry_no_kept_form(self, form, how):
        product = KEPT[form]
        m = _ladder()
        size = len(pickle.dumps(m))
        b = np.random.default_rng(6).standard_normal((m.cols, 4), dtype=np.float32)
        want = product(m, b)
        assert _kept(form, m) is not None and len(pickle.dumps(m)) == size
        twin = COPIES[how](m)
        assert twin is not m and _kept(form, twin) is None
        assert _bits(product(twin, b)) == _bits(want)

    def test_threads_racing_to_build_agree(self, form):
        product = KEPT[form]
        m = _ladder()
        b = np.random.default_rng(8).standard_normal((m.cols, 5), dtype=np.float32)
        want = _bits(product(_ladder(), b))
        got, kept = [], []

        def run():
            got.append(_bits(product(m, b)))
            kept.append(_kept(form, m))

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
        # Every thread read the one form the matrix keeps.
        assert all(k is kept[0] for k in kept) and _kept(form, m) is kept[0]

    def test_threads_racing_at_two_widths_agree(self, form):
        product = KEPT[form]
        m = _ladder()
        rng = np.random.default_rng(9)
        bs = [rng.standard_normal((m.cols, n), dtype=np.float32) for n in (5, 33)]
        want = [_bits(product(_ladder(), b)) for b in bs]
        got = []

        def run(i):
            for _ in range(4):
                got.append(_bits(product(m, bs[i % 2])) == want[i % 2])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [True] * 32


def _two(seed=41):
    """A 64x64 matrix pruned with the suite's two-level config: the plan runs
    at 4 columns, the dense product at 64."""
    return _pruned(seed, (64, 64), TWO)


# The rule's decisions, (rows, cols, config, n, dense runs): the benchmark
# suite's three shapes with both configs at 4 and 256 columns, and one-level
# configs of one shape at 256, where 32x1 and 8x1 blocks still pay and 1x1
# blocks, which run padded to 8 rows, do not.
RULE_TABLE = [
    (rows, cols, config, n, dense)
    for rows, cols in ((1024, 1024), (2048, 512), (256, 576))
    for config, n, dense in (
        (TWO, 4, False), (LADDER, 4, True), (TWO, 256, True), (LADDER, 256, True)
    )
] + [
    (1024, 1024, "32x1:0.9", 256, False),
    (1024, 1024, "8x1:0.9", 256, False),
    (1024, 1024, "1x1:0.9", 256, True),
    (1024, 1024, LADDER, 0, False),
]


def _rule_id(case):
    rows, cols, config, n, _ = case
    name = {TWO: "two", LADDER: "ladder"}.get(config, config)
    return f"{rows}x{cols}-{name}-{n}"


class TestDenseProduct:
    """Where the rule says the plan loses, hbs_matmul runs one BLAS product
    by the matrix's float64 reconstruction, built once and kept as long as
    the matrix."""

    @pytest.mark.parametrize(
        "rows, cols, config, n, dense", RULE_TABLE, ids=[_rule_id(c) for c in RULE_TABLE]
    )
    def test_rule_decisions(self, rows, cols, config, n, dense):
        m = _pruned(5, (rows, cols), config)
        assert kernels._runs_dense(m, n) == dense
        # The rule reads stored counts only.
        assert _plan_of(m) is None and _dense_of(m) is None

    def test_each_width_takes_the_product_the_rule_names(self):
        m = _two()
        a = reconstruct(m)
        rng = np.random.default_rng(7)
        assert not kernels._runs_dense(m, 4) and kernels._runs_dense(m, 64)

        b = rng.standard_normal((m.cols, 4), dtype=np.float32)
        narrow = hbs_matmul(m, b)
        plan = _plan_of(m)
        assert plan is not None and _dense_of(m) is None
        assert _bits(narrow) == _bits(kernels._plan_product(m, b))
        assert_within_componentwise_bound(narrow, a, b, len(plan))

        b = rng.standard_normal((m.cols, 64), dtype=np.float32)
        wide = hbs_matmul(m, b)
        assert _dense_of(m) is not None and _plan_of(m) is plan
        assert_within_componentwise_bound(wide, a, b, 0)

    def test_dense_product_builds_no_plan(self):
        m = _ladder()
        b = np.random.default_rng(4).standard_normal((m.cols, 4), dtype=np.float32)
        assert kernels._runs_dense(m, 4)
        first = hbs_matmul(m, b)
        form = _dense_of(m)
        assert _bits(hbs_matmul(m, b)) == _bits(first)
        assert _plan_of(m) is None and _dense_of(m) is form

    def test_dense_form_is_read_only(self):
        m = _ladder()
        hbs_matmul(m, np.ones((m.cols, 4), np.float32))
        form = _dense_of(m)
        assert form.dtype == np.float64 and form.shape == (m.rows, m.cols)
        assert form.tobytes() == reconstruct(m).astype(np.float64).tobytes()
        assert not form.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            form[...] = 0.0

    def test_within_bound_of_the_oracle(self):
        ran = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            a, config = make_random_case(rng, max_dim=24)
            m, _ = prune_hierarchical(a, config)
            n = int(rng.integers(1, 9))
            b = rng.standard_normal((m.cols, n), dtype=np.float32)
            if not kernels._runs_dense(m, n):
                continue
            ran += 1
            got = hbs_matmul(m, b)
            assert _dense_of(m) is not None
            assert_within_componentwise_bound(got, reconstruct(m), b, 0)
            assert max_rel_error(got, dense_matmul(reconstruct(m), b)) <= 1e-5
        assert ran >= 20

    def test_nonfinite_cells_also_nonfinite_in_oracle(self):
        ran = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a, config = make_random_case(rng, max_dim=32)
            m, _ = prune_hierarchical(a, config)
            b = rng.standard_normal((m.cols, int(rng.integers(1, 9))), dtype=np.float32)
            cells = rng.integers(0, b.size, size=int(rng.integers(1, 4)))
            b.flat[cells] = rng.choice([np.inf, -np.inf, np.nan], size=len(cells))
            with np.errstate(invalid="ignore", over="ignore"):
                got = hbs_matmul(m, b)
                want = dense_matmul(reconstruct(m), b)
            assert not np.isfinite(want[~np.isfinite(got)]).any()
            ran += _dense_of(m) is not None
        assert ran >= 20


def _one_level(bh, bw, rows, cols, blocks):
    """A matrix of one ``bh x bw`` level holding ``blocks``, tiles drawn at random."""
    rng = np.random.default_rng(bh * 100 + bw)
    tiles = [(gr, gc, rng.standard_normal((bh, bw))) for gr, gc in blocks]
    return HBSMatrix(rows, cols, (level_of(BlockShape(bh, bw), rows // bh, cols // bw, tiles),))


def _rows_of(part):
    """``(execution block row, slab, place in slab, own length)`` of each
    row of a part of a plan, in the part's order."""
    return [
        (row, slab, s, w)
        for slab in part.slabs
        for s, (row, w) in enumerate(
            zip(part.ids[slab.start : slab.start + len(slab.lens)].tolist(), slab.lens.tolist())
        )
    ]


def _own_src(part):
    """The rows of ``b`` each execution block row reads, rows in order."""
    rows = sorted(_rows_of(part), key=lambda r: r[0])
    return np.concatenate([slab.src[s, :w] for _, slab, s, w in rows] or [np.zeros(0, np.intp)])


def _unpack(part, rows, cols):
    """float64 dense matrix that a part of a plan multiplies by.

    Also checks the slab layout: one slab in block row order, or longest
    rows first; each slab as wide as its longest row and its rows longer
    than half of it; padding cells ``+0.0`` and reading row ``cols`` of
    ``b`` (the zero row); and every execution block row in one slab.
    """
    eh = part.shape.bh
    dense = np.zeros((rows, cols))
    seen = []
    widths = [slab.src.shape[1] for slab in part.slabs]
    assert all(later <= first // 2 for first, later in zip(widths, widths[1:]))
    if len(part.slabs) == 1:
        assert (np.diff(part.ids) > 0).all()
    for slab in part.slabs:
        assert slab.src.shape[1] == slab.lens.max()
        assert len(part.slabs) == 1 or (np.diff(slab.lens) <= 0).all()
        assert (slab.lens > slab.lens.max() // 2).all()
    for row, slab, s, w in _rows_of(part):
        p, idx = slab.tiles[s, :, :w], slab.src[s, :w]
        assert len(np.unique(idx)) == len(idx) and (idx < cols).all()
        dense[row * eh : (row + 1) * eh, idx] = p
        pad = slab.tiles[s, :, w:]
        assert pad.tobytes() == np.zeros_like(pad).tobytes()
        assert (slab.src[s, w:] == cols).all()
        seen.append(row)
    assert len(set(seen)) == len(seen)
    return dense


def _cells(part):
    """(packed cells, execution cells) of a part of a plan."""
    packed_cells = sum(slab.tiles.size for slab in part.slabs)
    return packed_cells, sum(int(slab.lens.sum()) for slab in part.slabs) * part.shape.bh


def _ladder():
    a = np.random.default_rng(31).standard_normal((64, 48), dtype=np.float32)
    cfg = HBSConfig.parse("16x2:0.75,8x1:0.875,4x1:0.9375,2x1:0.96875,1x1:0.96875")
    return prune_hierarchical(a, cfg)[0]


def _shared_column():
    """A ``4x1`` block and ``1x1`` cells of one 8-row column, and a ``1x1``
    cell in a column of its own."""
    coarse = level_of(BlockShape(4, 1), 2, 2, [(0, 0, [[1.0], [2.0], [-0.0], [4.0]])])
    fine = level_of(BlockShape(1, 1), 8, 2, [(2, 1, [[3.0]]), (5, 0, [[5.0]]), (7, 0, [[-7.0]])])
    return HBSMatrix(8, 2, (coarse, fine))


class TestExecutionShape:
    """Fine levels run as zero-padded 8-row blocks in one part; the rest run as stored."""

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
        (ex,) = kernels._execution(m, 5)
        (part,) = _plan_of(m)
        assert ex.shape == BlockShape(run_bh, bw) and part.shape == ex.shape
        assert ex.levels == part.levels == range(1)
        assert all(slab.tiles.shape[1] == run_bh for slab in part.slabs)
        # The two blocks land in distinct execution blocks, padded or not,
        # so the level gathers by its own block_cols.
        cols = (lv.block_cols[:, None] * bw + np.arange(bw)).ravel()
        assert (_own_src(part) == cols).all()
        stored = flops_sparse_level(lv, 5)
        assert stored <= ex.flops <= run_bh // bh * stored

    @pytest.mark.parametrize(
        "name", sorted(EDGE_MATRICES) + ["ladder", "signed-zeros", "shared-column"]
    )
    def test_unpadding_gives_stored_tiles(self, name):
        if name == "ladder":
            m = _ladder()
        elif name == "signed-zeros":
            tiles = [(0, 1, [[-0.0], [1.0]]), (3, 0, [[2.0], [-0.0]]), (3, 2, [[-0.0], [-0.0]])]
            m = HBSMatrix(16, 3, (level_of(BlockShape(2, 1), 8, 3, tiles),))
        elif name == "shared-column":
            m = _shared_column()
        else:
            m = EDGE_MATRICES[name]()
        for part in kernels._plan(m):
            # Each panel cell lands on its own cell, so comparing bits also
            # shows that every padding cell is +0.0.
            covered = HBSMatrix(m.rows, m.cols, tuple(m.levels[i] for i in part.levels))
            want = reconstruct(covered).astype(np.float64)
            got = _unpack(part, m.rows, m.cols)
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_levels_share_a_tile_column(self):
        m = _shared_column()
        (part,) = kernels._plan(m)
        assert part.levels == range(2) and part.shape == BlockShape(8, 1)
        # One execution block row of two tile columns: column 0 holds the
        # 4x1 block's rows 0-3 and the 1x1 cells of rows 5 and 7.
        (slab,) = part.slabs
        assert part.ids.tolist() == [0] and slab.src.tolist() == [[0, 1]]
        want = reconstruct(m).astype(np.float64)
        assert slab.tiles[0].view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        (ex,) = kernels._execution(m, 3)
        assert ex.flops == 2 * 16 * 3 and ex.padding == 0.0
        b = np.random.default_rng(2).standard_normal((2, 3), dtype=np.float32)
        got = kernels._plan_product(m, b)
        assert max_rel_error(got, blockwise_product(m, b).astype(np.float32)) <= 1e-5

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("levels, most", [(TWO, 11.5), (LADDER, 16)], ids=["two", "ladder"])
    def test_plan_bytes_per_kept_cell(self, levels, most, seed):
        # float64 tiles with their padding, one intp per tile column and per block row.
        a = np.random.default_rng(seed).standard_normal((512, 512), dtype=np.float32)
        m, _ = prune_hierarchical(a, HBSConfig.parse(levels))
        kept = sum(lv.n_blocks * lv.shape.area for lv in m.levels)
        assert sum(ex.nbytes for ex in kernels._execution(m, 1)) / kept <= most

    def test_ladder_pads_its_fine_levels(self):
        m = _ladder()
        run = [(str(ex.shape), list(ex.levels)) for ex in kernels._execution(m, 1)]
        assert run == [("16x2", [0]), ("8x1", [1, 2, 3, 4])]

    @pytest.mark.parametrize("n", [1, 4, 33])
    def test_ladder_matches_blockwise_product(self, n):
        m = _ladder()
        b = np.random.default_rng(n).standard_normal((m.cols, n), dtype=np.float32)
        for got in (hbs_matmul(m, b), kernels._plan_product(m, b)):
            assert max_rel_error(got, blockwise_product(m, b).astype(np.float32)) <= 1e-5
            assert max_rel_error(got, dense_matmul(reconstruct(m), b)) <= 1e-5

    def test_nonfinite_cells_also_nonfinite_in_oracle(self):
        # Random hierarchies, where fine levels pad rows, and skewed levels,
        # where slabs pad columns.
        for family in ("random", "skewed"):
            padded = 0
            for seed in range(200):
                rng = np.random.default_rng(seed)
                if family == "random":
                    a, config = make_random_case(rng, max_dim=32)
                    m, _ = prune_hierarchical(a, config)
                else:
                    m = _random_skewed(rng)
                b = rng.standard_normal((m.cols, 3), dtype=np.float32)
                cells = rng.integers(0, b.size, size=int(rng.integers(1, 4)))
                b.flat[cells] = rng.choice([np.inf, -np.inf, np.nan], size=len(cells))
                with np.errstate(invalid="ignore", over="ignore"):
                    got = kernels._plan_product(m, b)
                    want = dense_matmul(reconstruct(m), b)
                assert not np.isfinite(want[~np.isfinite(got)]).any()
                plan = _plan_of(m)
                if family == "random":
                    padded += any(
                        part.shape.bh != m.levels[i].shape.bh for part in plan for i in part.levels
                    )
                else:
                    padded += any(np.subtract(*_cells(part)) for part in plan)
            assert padded >= 20, family


def _skewed(bh, bw, grid_rows, grid_cols):
    """One level whose block row 0 is full and every other block row holds one block."""
    blocks = [(0, gc) for gc in range(grid_cols)]
    blocks += [(gr, gr * 7 // 8 % grid_cols) for gr in range(1, grid_rows)]
    return _one_level(bh, bw, grid_rows * bh, grid_cols * bw, blocks)


def _random_skewed(rng):
    """One level, block row 0 full, the other rows of geometric random length."""
    bh, bw = int(rng.choice([1, 2, 3, 4, 8])), int(rng.integers(1, 4))
    grid_rows, grid_cols = int(rng.integers(2, 33)), int(rng.integers(2, 17))
    counts = np.minimum(rng.geometric(0.3, grid_rows), grid_cols)
    counts[0] = grid_cols
    blocks = [
        (gr, int(gc))
        for gr, c in enumerate(counts)
        for gc in np.sort(rng.choice(grid_cols, size=c, replace=False))
    ]
    return _one_level(bh, bw, grid_rows * bh, grid_cols * bw, blocks)


SKEWED = {"1x1": (1, 1, 64, 40), "3x2": (3, 2, 20, 17), "16x1": (16, 1, 12, 48)}


def _under_coarse(bh):
    """The skewed ``1x1`` level behind a ``bh x 1`` level that keeps one
    block in every block row below the first, in a column the ``1x1`` level
    leaves free there. An ``8x1`` level joins the ``1x1`` level's part; a
    ``16x1`` level runs as stored, so the later part's rows add to sums the
    earlier part already holds."""
    (fine,) = _skewed(*SKEWED["1x1"]).levels
    taken = support_mask(HBSMatrix(fine.rows, fine.cols, (fine,)))
    free = ~taken.reshape(-1, bh, fine.cols).any(axis=1)
    rng = np.random.default_rng(bh)
    grid_rows = fine.rows // bh
    blocks = [
        (gr, int(np.argmax(free[gr])), rng.standard_normal((bh, 1))) for gr in range(1, grid_rows)
    ]
    coarse = level_of(BlockShape(bh, 1), grid_rows, fine.cols, blocks)
    return HBSMatrix(fine.rows, fine.cols, (coarse, fine))


class TestSlabs:
    """Length-sorted slabs keep a skewed level's padding and products bounded."""

    @pytest.mark.parametrize("case", sorted(SKEWED))
    def test_skewed_level_padding_is_bounded(self, case):
        (part,) = kernels._plan(_skewed(*SKEWED[case]))
        packed_cells, exec_cells = _cells(part)
        assert exec_cells <= packed_cells <= 2 * exec_cells
        assert len(part.slabs) >= 2  # the full row is not padded with the rest

    @pytest.mark.parametrize("case", sorted(SKEWED))
    @pytest.mark.parametrize("n", [0, 1, 4, 33, 256])
    def test_skewed_level_within_oracle(self, case, n):
        m = _skewed(*SKEWED[case])
        b = np.random.default_rng(n).standard_normal((m.cols, n), dtype=np.float32)
        want = (reconstruct(m).astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        for got in (hbs_matmul(m, b), kernels._plan_product(m, b)):
            assert got.shape == want.shape and max_rel_error(got, want) <= 1e-5

    @pytest.mark.parametrize("case", sorted(SKEWED) + ["1x1-under-8x1", "1x1-under-16x1"])
    @pytest.mark.parametrize("n", [1, 4, 33])
    def test_one_row_and_many_row_products(self, case, n, monkeypatch):
        if case.startswith("1x1-under-"):
            m = _under_coarse(int(case.removeprefix("1x1-under-").removesuffix("x1")))
        else:
            m = _skewed(*SKEWED[case])
        b = np.random.default_rng(n).standard_normal((m.cols, n), dtype=np.float32)
        want = (reconstruct(m).astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        plan = kernels._plan(m)
        assert len(plan) == (2 if case == "1x1-under-16x1" else 1)
        part = plan[-1]
        # Room for two of the shortest slab's rows but not two of the longest's.
        budget = 8 * n * 2 * part.slabs[-1].src.shape[1]
        for gather_bytes in (1, budget, 2**40):
            monkeypatch.setattr(kernels, "_GATHER_BYTES", gather_bytes)
            # A width's schedule is cut once; drop it to cut it under this budget.
            kernels._SCHEDULES.pop(m, None)
            got = kernels._plan_product(m, b)
            run = kernels._SCHEDULES[m].runs[-1]
            ran_alone = {row for row, *_ in run.alone}
            landed = part.ids if run.land is None else run.land
            # Every row runs once, alone or stacked.
            ran = [row for row, *_ in run.alone] + landed.tolist()
            assert sorted(ran) == sorted(part.ids.tolist())
            alone = [
                bool(ran_alone & set(part.ids[slab.start : slab.start + len(slab.lens)].tolist()))
                for slab in part.slabs
            ]
            if gather_bytes == 1:
                assert all(alone)
            elif gather_bytes == budget:
                assert alone[0] and not alone[-1]
            else:
                assert not any(alone)
            assert max_rel_error(got, want) <= 1e-5
            again = kernels._plan_product(m, b)
            assert _bits(got) == _bits(again) == _bits(kernels._plan_product(m, b))


def _prefix_rows(*lens):
    """Blocks of block rows holding the first ``lens[r]`` block columns each."""
    return [(r, c) for r, w in enumerate(lens) for c in range(w)]


# Parts by how they run: (matrix builder, slabs, stacked rows land whole,
# rows run alone). In the one-slab parts the first row is the shortest, so
# a stacked GEMM cut to its first row would drop tile columns.
def _short_first(full_rows):
    """A ``3x1`` level of four block rows, as one slab: block row 0 holds
    two blocks, and each of ``full_rows`` holds three."""
    blocks = [(0, 1), (0, 4)] + [(r, c) for r in full_rows for c in (0, 2, 5)]
    return _one_level(3, 1, 12, 6, blocks)


def _prefix_rows(*lens):
    """Blocks of block rows holding the first ``lens[r]`` block columns each."""
    return [(r, c) for r, w in enumerate(lens) for c in range(w)]


# Parts by how they run: (matrix builder, slabs, stacked rows land whole,
# rows run alone). In the one-slab parts the first row is the shortest, so
# a stacked GEMM cut to its first row would drop tile columns.
LAYOUTS = {
    "one-slab-every-row": (lambda: _short_first((1, 2, 3)), 1, True, False),
    "one-slab-missing-row": (lambda: _short_first((1, 3)), 1, False, False),
    "slabs": (lambda: _skewed(*SKEWED["3x2"]), 2, False, False),
    # Rows of 9000 and 8000 tile columns: two of either gather more than
    # _GATHER_BYTES even at one column.
    "alone": (lambda: _one_level(1, 1, 2, 9000, _prefix_rows(9000, 8000)), 1, None, True),
}


class TestSchedule:
    """A matrix keeps how its plan runs at its latest width: the product
    that runs, each stacked GEMM's views, the rows that run alone, and how
    each part lands."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n", [1, 4, 33])
    def test_layouts_within_float64_oracle(self, layout, n):
        build, slabs, whole, alone = LAYOUTS[layout]
        m = build()
        b = np.random.default_rng(n).standard_normal((m.cols, n), dtype=np.float32)
        want = (reconstruct(m).astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        got = kernels._plan_product(m, b)
        (part,) = _plan_of(m)
        (run,) = _schedule_of(m).runs
        assert len(part.slabs) == slabs and bool(run.alone) == alone
        if whole is not None:
            assert run.chunks and (run.land is None) == whole
        assert max_rel_error(got, want) <= 1e-5
        again = kernels._plan_product(m, b)
        assert _bits(got) == _bits(again) == _bits(kernels._plan_product(build(), b))

    @pytest.mark.parametrize("n", [1, 4, 33, 256])
    def test_chunks_gather_within_budget(self, n):
        matrices = [build() for build in EDGE_MATRICES.values()]
        matrices += [_skewed(*SKEWED[case]) for case in sorted(SKEWED)] + [_ladder()]
        matrices += [build() for build, *_ in LAYOUTS.values()]
        for m in matrices:
            kernels._plan_product(m, np.ones((m.cols, n), np.float32))
            for part, run in zip(_plan_of(m), _schedule_of(m).runs):
                lens = {row: w for row, _, _, w in _rows_of(part)}
                for row, p, idx in run.alone:
                    assert p.shape == (part.shape.bh, lens[row]) and idx.shape == (lens[row],)
                for tiles, src, lo, hi in run.chunks:
                    rows, width = src.shape
                    assert rows * width * n * 8 <= kernels._GATHER_BYTES or rows == 1
                    assert tiles.shape == (rows, part.shape.bh, width) and hi - lo == rows
                    # Cut to its longest row: the last column is some row's own.
                    assert (src[:, -1] < m.cols).any()
                    assert not tiles.flags.writeable and not src.flags.writeable

    def test_keeps_the_latest_width_only(self):
        m = _two()
        b4, b33 = (np.ones((m.cols, n), np.float32) for n in (4, 33))
        hbs_matmul(m, b4)
        first = _schedule_of(m)
        assert first.n == 4 and not first.dense and first.runs is not None
        hbs_matmul(m, b4)
        assert _schedule_of(m) is first
        kernels._plan_product(m, b33)
        assert _schedule_of(m).n == 33
        hbs_matmul(m, b4)
        assert _schedule_of(m).n == 4 and _schedule_of(m) is not first

    def test_rule_runs_once_per_width(self, monkeypatch):
        m = _ladder()
        widths = []
        rule = kernels._runs_dense

        def counted(m, n):
            widths.append(n)
            return rule(m, n)

        monkeypatch.setattr(kernels, "_runs_dense", counted)
        b = np.ones((m.cols, 4), np.float32)
        for _ in range(3):
            hbs_matmul(m, b)
        assert widths == [4] and _schedule_of(m).dense and _schedule_of(m).runs is None
        # The plan's own product needs the runs the dense schedule left out.
        planned = kernels._plan_product(m, b)
        assert _schedule_of(m).runs is not None and widths == [4, 4]
        assert _bits(kernels._plan_product(m, b)) == _bits(planned)
        hbs_matmul(m, b)
        assert widths == [4, 4] and _dense_of(m) is not None


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 9), scale=st.integers(-8, 8))
def test_hbs_matmul_within_float64_oracle(seed, n, scale):
    rng = np.random.default_rng(seed)
    a, config = make_random_case(rng, max_dim=32)
    a = a * np.float32(10.0**scale)
    m, _ = prune_hierarchical(a, config)
    b = rng.standard_normal((a.shape[1], n), dtype=np.float32)
    want = (reconstruct(m).astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
    for got in (hbs_matmul(m, b), kernels._plan_product(m, b)):
        assert got.shape == want.shape
        if n:
            assert max_rel_error(got, want) <= 1e-5


def assert_within_componentwise_bound(got, a, b, n_parts):
    """Check a float32 product of ``a @ b`` against the exact result.

    ``c`` is the exact product: the float64 products of float32 values are
    exact, and ``math.fsum`` adds them with one rounding. With
    ``K = k + n_parts`` and ``u = 2^-53``, every finite cell obeys
    ``|got - c| <= gamma_K * (|a||b|) + ulp_f32(got)``, where
    ``gamma_K = K*u / (1 - K*u)``: the float64 accumulation bound plus
    the final rounding to float32. A cell whose exact result rounds to a
    float32 infinity must equal it, by ``max_rel_error``'s equality rule.
    """
    a64 = np.asarray(a, np.float32).astype(np.float64)
    b64 = np.asarray(b, np.float32).astype(np.float64)
    k = a64.shape[1]
    ku = (k + n_parts) * 2.0**-53
    gamma = ku / (1 - ku)
    exact = np.empty(got.shape)
    bound = np.empty(got.shape)
    for i, j in np.ndindex(got.shape):
        terms = a64[i] * b64[:, j]
        exact[i, j] = math.fsum(terms)
        bound[i, j] = gamma * math.fsum(np.abs(terms))
    with np.errstate(over="ignore"):
        want = exact.astype(np.float32)
    inf = ~np.isfinite(want)
    assert max_rel_error(got[inf].reshape(1, -1), want[inf].reshape(1, -1)) == 0.0
    err = np.abs(got[~inf].astype(np.float64) - exact[~inf])
    slack = bound[~inf] + np.spacing(np.abs(got[~inf]))
    assert (err <= slack).all(), (err - slack).max()
    return exact


class TestAccuracyBound:
    """Both kernels stay within the componentwise float64 bound, also where
    products cancel, which a relative bound cannot promise."""

    def test_cancelling_levels(self):
        # Both levels share one 8-row part, so one GEMM sums 1e20, -1e20
        # and 1 for row 0, in an order BLAS picks: the plan's product may
        # give 0.0 where the exact product is 1.0, a relative error of 1,
        # within the bound for one part. hbs_matmul runs this small matrix
        # densely, within the same bound.
        coarse = level_of(BlockShape(8, 1), 1, 3, [(0, 0, [[1e20]] + [[0.0]] * 7)])
        fine = level_of(BlockShape(1, 1), 8, 3, [(0, 1, [[-1e20]]), (0, 2, [[1.0]])])
        m = HBSMatrix(8, 3, (coarse, fine))
        b = np.ones((3, 1), dtype=np.float32)
        a = reconstruct(m)
        got = kernels._plan_product(m, b)
        assert len(kernels._plan(m)) == 1
        exact = assert_within_componentwise_bound(got, a, b, 1)
        assert exact[0, 0] == 1.0
        assert_within_componentwise_bound(hbs_matmul(m, b), a, b, 1)
        assert_within_componentwise_bound(dense_matmul(a, b), a, b, 1)

    def test_random_cancellation(self):
        within = across = cancelled = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            m, b, kinds = _cancelling_case(rng)
            within += kinds.count("within")
            across += kinds.count("across")
            a = reconstruct(m)
            with np.errstate(over="ignore"):
                got, dense = hbs_matmul(m, b), dense_matmul(a, b)
                planned = kernels._plan_product(m, b)
            n_parts = len(kernels._plan(m))
            exact = assert_within_componentwise_bound(got, a, b, n_parts)
            assert_within_componentwise_bound(planned, a, b, n_parts)
            assert_within_componentwise_bound(dense, a, b, n_parts)
            scale = np.abs(a.astype(np.float64)) @ np.abs(b.astype(np.float64))
            cancelled += int(np.count_nonzero(np.abs(exact) < 1e-6 * scale))
        assert min(within, across) >= 50 and cancelled >= 50, (within, across, cancelled)


def _cancelling_case(rng):
    """A pruned random matrix refilled so that its products cancel.

    Returns ``(m, b, kinds)``. ``b``'s rows repeat three random rows, and
    pairs of cells in one row of ``m`` hold ``x`` and ``-x``, with ``x``
    up to 1e20, over equal rows of ``b``: both cells in one level
    (``"within"``) or in two (``"across"``), as ``kinds`` lists. One case
    in five puts a float32 extreme over a row of ``b`` holding 4s, so that
    cells overflow float32.
    """
    a, config = make_random_case(rng, max_dim=24)
    m, _ = prune_hierarchical(a, config)
    a = reconstruct(m)
    owner = np.zeros(a.shape, dtype=int)
    for i, lv in enumerate(m.levels, 1):
        owner[support_mask(HBSMatrix(m.rows, m.cols, (lv,)))] = i
    n = int(rng.integers(1, 5))
    pool = rng.standard_normal((4, n), dtype=np.float32)
    pool[3] = 4.0
    which = rng.integers(0, 3, size=m.cols)
    kinds = []
    for _ in range(int(rng.integers(1, 2 * m.rows + 1))):
        r = int(rng.integers(m.rows))
        j = int(rng.integers(m.cols))
        same = (which == which[j]) & (owner[r] > 0) & (np.arange(m.cols) != j)
        if not owner[r, j] or not same.any():
            continue
        kind = "within" if rng.random() < 0.5 else "across"
        mates = same & ((owner[r] == owner[r, j]) == (kind == "within"))
        if not mates.any():
            continue
        x = np.float32(rng.choice([-1, 1]) * 10.0 ** rng.uniform(3, 20))
        a[r, j], a[r, int(rng.choice(np.flatnonzero(mates)))] = x, -x
        kinds.append(kind)
    if rng.random() < 0.2 and owner.any():
        r, j = np.argwhere(owner)[int(rng.integers(np.count_nonzero(owner)))]
        a[r, j] = rng.choice([-1, 1]) * np.finfo(np.float32).max
        which[j] = 3
    levels = tuple(
        BlockSparseLevel(
            lv.shape, lv.grid_rows, lv.grid_cols, lv.block_rows, lv.block_cols,
            a.reshape(lv.grid_rows, lv.shape.bh, lv.grid_cols, lv.shape.bw)[
                lv.block_rows, :, lv.block_cols, :
            ],
        )
        for lv in m.levels
    )
    return HBSMatrix(m.rows, m.cols, levels), pool[which], kinds


class TestFlops:
    def test_dense_values(self):
        assert flops_dense(1, 1, 1) == 2
        assert flops_dense(64, 64, 64) == 524288
        assert flops_dense(5, 7, 0) == 0

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
        m = EDGE_MATRICES["4x2"]()
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
