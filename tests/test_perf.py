import copy
import math

import numpy as np
import pytest

from conftest import ones_table
import hbs.kernels as kernels
import hbs.perf as perf
from hbs import (
    BenchPlan,
    BlockShape,
    CalibrationError,
    DimensionError,
    HBSConfig,
    IrfLookupError,
    IrfTable,
    calibrate_irf,
    estimate_cost,
    hbs_matmul,
    prune_hierarchical,
    sparsity_bucket,
)


class TestSparsityBucket:
    def test_values(self):
        assert sparsity_bucket(0.0) == 0
        assert sparsity_bucket(1.0) == 64
        assert sparsity_bucket(0.75) == 48
        # midpoints round half up: 1/128 sits between buckets 0 and 1
        assert sparsity_bucket(1 / 128) == 1
        assert sparsity_bucket(np.float32(0.75)) == 48
        assert sparsity_bucket(np.int64(1)) == 64

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    def test_real_only(self, bad):
        with pytest.raises(ValueError, match="sparsity must be a real number"):
            sparsity_bucket(bad)


class TestIrfTable:
    def test_lookup_exact_and_fallback(self):
        s = BlockShape(8, 1)
        t = IrfTable({(s, 32): 0.5, (s, 48): 0.25}, "calibrated")
        assert t.lookup(s, 0.5) == 0.5
        assert t.lookup(s, 0.75) == 0.25
        # 40 is equidistant from 32 and 48; the lower bucket wins
        assert t.lookup(s, 40 / 64) == 0.5
        # nearest populated bucket serves any other sparsity
        assert t.lookup(s, 0.0) == 0.5
        assert t.lookup(s, 1.0) == 0.25

    def test_entries_read_only(self):
        s = BlockShape(1, 1)
        t = IrfTable({(s, 32): 0.25}, "calibrated")
        for table in (t, copy.deepcopy(t)):
            with pytest.raises(TypeError):
                table.entries[(s, 40)] = 5.0
            assert table.entries == {(s, 32): 0.25}

    def test_missing_shape(self):
        t = IrfTable({(BlockShape(8, 1), 32): 0.5}, "calibrated")
        with pytest.raises(IrfLookupError):
            t.lookup(BlockShape(4, 1), 0.5)

    def test_rejects_bad_entries(self):
        s = BlockShape(1, 1)
        with pytest.raises(ValueError):
            IrfTable({(s, 0): 0.0}, "calibrated")
        with pytest.raises(ValueError):
            IrfTable({(s, 0): 1.5}, "calibrated")
        with pytest.raises(ValueError):
            IrfTable({(s, 65): 0.5}, "calibrated")
        with pytest.raises(ValueError):
            IrfTable({(s, 0): 0.5}, "measured")
        with pytest.raises(ValueError, match="key shape: expected BlockShape, got str"):
            IrfTable({("1x1", 0): 0.5}, "calibrated")

    @pytest.mark.parametrize(
        "bucket,irf,match",
        [
            (1, True, "irf must be a real number, got True"),
            (True, 0.5, "bucket must be an integer, got True"),
            (2.5, 0.5, "bucket must be an integer, got 2.5"),
        ],
        ids=["bool-irf", "bool-bucket", "float-bucket"],
    )
    def test_typed_entries(self, bucket, irf, match):
        with pytest.raises(ValueError, match=match):
            IrfTable({(BlockShape(1, 1), bucket): irf}, "calibrated")

    def test_numpy_entries_stored_as_python_numbers(self):
        t = IrfTable({(BlockShape(1, 1), np.int64(32)): np.float32(0.25)}, "calibrated")
        [((_, bucket), irf)] = t.entries.items()
        assert (bucket, irf) == (32, 0.25)
        assert type(bucket) is int and type(irf) is float


class TestEstimateCost:
    def test_ideal_half_sparsity(self):
        t = ones_table(BlockShape(1, 1))
        est = estimate_cost((64, 64, 64), HBSConfig.of((1, 1, 0.5)), t)
        assert est.speedup == 2.0
        assert est.c_dense == 524288.0
        assert est.c_sparse == 262144.0

    def test_ideal_quarter_density(self):
        t = ones_table(BlockShape(1, 1))
        est = estimate_cost((64, 64, 64), HBSConfig.of((1, 1, 0.75)), t)
        assert est.speedup == 4.0

    def test_two_level_worked(self):
        s32, s1 = BlockShape(32, 1), BlockShape(1, 1)
        t = IrfTable({(s32, 48): 0.8, (s1, 48): 0.1}, "analytic")
        cfg = HBSConfig.of((32, 1, 0.75), (1, 1, 0.75))
        est = estimate_cost((128, 128, 128), cfg, t)
        assert est.c_sparse == pytest.approx(2.8125 * est.c_dense, rel=1e-12)
        # The sparse product costs more, so the dense one runs.
        assert est.speedup == 1.0
        lv32 = est.per_level[0]
        assert lv32.flops == 0.25 * est.c_dense
        assert lv32.contribution == pytest.approx(lv32.flops / 0.8)

    def test_fully_sparse_reports_infinity(self):
        t = ones_table(BlockShape(1, 1))
        est = estimate_cost((4, 4, 4), HBSConfig.of((1, 1, 1.0)), t)
        assert est.c_sparse == 0.0
        assert math.isinf(est.speedup)

    def test_missing_shape_raises(self):
        t = ones_table(BlockShape(1, 1))
        with pytest.raises(IrfLookupError):
            estimate_cost((4, 4, 4), HBSConfig.of((2, 2, 0.5)), t)

    def test_homogeneous_in_problem_size(self):
        t = ones_table(BlockShape(2, 2))
        cfg = HBSConfig.of((2, 2, 0.5))
        small = estimate_cost((4, 4, 4), cfg, t)
        big = estimate_cost((8, 8, 8), cfg, t)
        assert big.c_dense == 8 * small.c_dense
        assert big.speedup == small.speedup

    def test_contributions_at_least_flops(self):
        s = BlockShape(4, 1)
        t = IrfTable({(s, 32): 0.3}, "calibrated")
        est = estimate_cost((8, 8, 8), HBSConfig.of((4, 1, 0.5)), t)
        assert est.per_level[0].contribution >= est.per_level[0].flops
        assert est.c_sparse >= 0.5 * est.c_dense

    def test_integer_dims_only(self):
        t = ones_table(BlockShape(1, 1))
        with pytest.raises(ValueError, match="must be an integer"):
            estimate_cost((4.5, 4, 4), HBSConfig.of((1, 1, 0.5)), t)
        est = estimate_cost((np.int64(4), 4, np.uint8(4)), HBSConfig.of((1, 1, 0.5)), t)
        assert est.c_dense == 128.0

    @pytest.mark.parametrize("dims", [(4, 4), (4, 4, 4, 4), 4, None])
    def test_three_dims_only(self, dims):
        t = ones_table(BlockShape(1, 1))
        with pytest.raises(ValueError, match=r"layer_dims must be \(m, k, n\)"):
            estimate_cost(dims, HBSConfig.of((1, 1, 0.5)), t)

    # The render states the model's two speedups and no product that runs:
    # hbs_matmul's own rule picks that.
    @pytest.mark.parametrize(
        "irf, last",
        [
            (1.0, ["sparse-only speedup: 2.0000", "speedup: 2.0000"]),
            (0.25, ["sparse-only speedup: 0.5000", "speedup: 1.0000"]),
        ],
        ids=["sparse-cheaper", "dense-cheaper"],
    )
    def test_render(self, irf, last):
        t = IrfTable({(BlockShape(1, 1), 32): irf}, "analytic")
        text = estimate_cost((4, 4, 4), HBSConfig.of((1, 1, 0.5)), t).render()
        assert text.startswith("dense cost: 128 FLOPs\n")
        assert text.splitlines()[-2:] == last


class TestBenchPlan:
    def test_defaults(self):
        plan = BenchPlan((64, 64, 16))
        assert (plan.reps, plan.warmup, plan.seed) == (5, 2, 0)

    @pytest.mark.parametrize(
        "dims,kw,match",
        [
            ((4.5, 4, 4), {}, "dims entry must be an integer"),
            ((4, 4, 4), {"reps": True}, "reps must be an integer"),
            ((4, 4), {}, r"dims must be \(m, k, n\)"),
        ],
        ids=["float-dim", "bool-reps", "two-dims"],
    )
    def test_integers_only(self, dims, kw, match):
        with pytest.raises(ValueError, match=match):
            BenchPlan(dims, **kw)

    def test_numpy_integers(self):
        plan = BenchPlan((np.int64(4), 4, np.uint8(4)), reps=np.int32(2))
        assert plan.dims == (4, 4, 4) and type(plan.dims[0]) is int
        assert plan.reps == 2 and type(plan.reps) is int


class TestCalibration:
    def test_times_the_plan_where_the_dense_product_would_run(self, monkeypatch):
        # At 256 columns hbs_matmul runs a 1x1 level densely; irf stays the
        # efficiency of the plan's product.
        def dense_form(m):
            raise AssertionError("the dense product ran")

        monkeypatch.setattr(kernels, "_dense_form", dense_form)
        ones = np.ones((128, 128), np.float32)
        m, _ = prune_hierarchical(ones, HBSConfig.of((1, 1, 0.5)))
        with pytest.raises(AssertionError, match="the dense product ran"):
            hbs_matmul(m, np.ones((128, 256), np.float32))
        plan = BenchPlan((128, 128, 256), reps=1, warmup=0)
        table = calibrate_irf([BlockShape(1, 1)], [0.5], plan)
        assert set(table.entries) == {(BlockShape(1, 1), 32)}

    def test_small_run_produces_bounded_entries(self):
        plan = BenchPlan((128, 128, 32), reps=3, warmup=1, seed=7)
        shapes = [BlockShape(8, 1), BlockShape(1, 1)]
        table = calibrate_irf(shapes, [0.5], plan)
        assert table.provenance == "calibrated"
        assert set(table.entries) == {(s, 32) for s in shapes}
        for v in table.entries.values():
            assert 0.0 < v <= 1.0

    def test_timer_floor_guard(self, monkeypatch):
        monkeypatch.setattr(perf, "MIN_MEASURABLE_SECONDS", 1e9)
        plan = BenchPlan((8, 8, 4), reps=1, warmup=0)
        with pytest.raises(CalibrationError, match="increase the problem size"):
            calibrate_irf([BlockShape(1, 1)], [0.5], plan)

    @pytest.mark.parametrize("bad", [True, "0.5", 1.5])
    def test_sparsities_checked_before_timing(self, bad, monkeypatch):
        def timed(*args):
            raise AssertionError("timing started")

        monkeypatch.setattr(perf, "_median_seconds", timed)
        plan = BenchPlan((8, 8, 4))
        with pytest.raises(ValueError, match="sparsity must be"):
            calibrate_irf([BlockShape(1, 1)], [0.5, bad], plan)

    def test_shape_must_tile_plan_dims(self):
        plan = BenchPlan((8, 8, 4))
        with pytest.raises(DimensionError):
            calibrate_irf([BlockShape(3, 1)], [0.5], plan)
