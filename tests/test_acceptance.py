"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints ``ACCEPTANCE <n> <name>: PASS`` or ``FAIL`` so a plain
``pytest tests/test_acceptance.py -v -s`` doubles as the sign-off report.
Tolerances are part of the contract: exact equality where the arithmetic
is exact, explicit bounds everywhere else.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import make_random_case
from test_io import hbsf_bytes
from hbs import (
    BenchPlan,
    BlockShape,
    HBSConfig,
    IrfTable,
    MagicError,
    TruncatedError,
    ValidationError,
    VersionError,
    calibrate_irf,
    dense_matmul,
    density,
    estimate_cost,
    hbs_matmul,
    max_rel_error,
    prune_hierarchical,
    read_dmat,
    read_hbsf,
    read_irf,
    reconstruct,
    support_mask,
    topk_retention,
    validate,
    write_dmat,
    write_hbsf,
    write_irf,
)
from hbs.perf import _median_seconds

LADDER = "32x1:0.75,16x1:0.875,8x1:0.9375,4x1:0.96875,1x1:0.96875"


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def ones_table(*shapes):
    entries = {}
    for s in shapes:
        for bucket in range(65):
            entries[(s, bucket)] = 1.0
    return IrfTable(entries, "analytic")


def test_01_ideal_cost_speedups():
    with criterion(1, "ideal-cost-speedups"):
        table = ones_table(BlockShape(1, 1))
        half = estimate_cost((64, 64, 64), HBSConfig.parse("1x1:0.5"), table)
        assert half.speedup == 2.0
        quarter = estimate_cost((64, 64, 64), HBSConfig.parse("1x1:0.75"), table)
        assert quarter.speedup == 4.0


def test_02_ladder_density_half():
    with criterion(2, "ladder-density-half"):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((256, 512), dtype=np.float32)
        m, _ = prune_hierarchical(a, HBSConfig.parse(LADDER))
        assert validate(m).ok
        assert density(m) == 0.5


def test_03_random_prune_validity():
    with criterion(3, "random-prune-validity"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            a, config = make_random_case(rng)
            m, _ = prune_hierarchical(a, config)
            assert validate(m).ok
            # every kept cell carries the exact source bits
            mask = support_mask(m)
            w = reconstruct(m)
            assert (
                w[mask].view(np.uint32) == a[mask].view(np.uint32)
            ).all()
            assert (w[~mask] == 0.0).all()
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_04_matmul_accuracy():
    with criterion(4, "matmul-accuracy"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(500):
            a, config = make_random_case(rng)
            m, _ = prune_hierarchical(a, config)
            n = int(rng.integers(1, 17))
            b = rng.standard_normal((m.cols, n), dtype=np.float32)
            got = hbs_matmul(m, b)
            oracle = reconstruct(m).astype(np.float64) @ b.astype(np.float64)
            worst = max(worst, max_rel_error(got, oracle.astype(np.float32)))
        assert worst <= 1e-5, f"worst relative error {worst:.3e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def distinct_magnitude_matrix(rng, rows, cols):
    n = rows * cols
    mags = rng.permutation(np.arange(1, n + 1)).astype(np.float64) / n
    signs = rng.choice(np.array([-1.0, 1.0]), size=n)
    return (mags * signs).astype(np.float32).reshape(rows, cols)


def test_05_unstructured_full_retention():
    with criterion(5, "unstructured-full-retention"):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = distinct_magnitude_matrix(rng, 64, 64)
            for dens in (0.25, 0.5, 0.625):
                m, _ = prune_hierarchical(a, HBSConfig.of((1, 1, 1.0 - dens)))
                ps = [p for p in (0.05, 0.1, 0.25, 0.5, 0.625) if p <= dens]
                rep = topk_retention(a, m, ps)
                assert rep.retained == tuple(1.0 for _ in ps)


def test_06_unstructured_dominates_blocked():
    with criterion(6, "unstructured-dominates-blocked"):
        blocked_configs = [
            HBSConfig.parse("8x8:0.5"),
            HBSConfig.parse(LADDER),
            HBSConfig.parse("4x4:0.75,2x2:0.75"),
        ]
        ps = [round(0.05 * i, 2) for i in range(1, 11)]
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((128, 128), dtype=np.float32)
            flat, _ = prune_hierarchical(a, HBSConfig.of((1, 1, 0.5)))
            base = topk_retention(a, flat, ps).retained
            for config in blocked_configs:
                m, _ = prune_hierarchical(a, config)
                assert density(m) == 0.5
                blocked = topk_retention(a, m, ps).retained
                for u, b in zip(base, blocked):
                    assert u >= b


def test_07_retention_ladder_monotone():
    with criterion(7, "retention-ladder-monotone"):
        t0 = time.perf_counter()
        ladder = [
            "32x1:0.5",
            "32x1:0.75,16x1:0.75",
            "32x1:0.75,16x1:0.875,8x1:0.875",
            "32x1:0.75,16x1:0.875,8x1:0.9375,4x1:0.9375",
            LADDER,
        ]
        configs = [HBSConfig.parse(text) for text in ladder]
        means = []
        for config in configs:
            vals = []
            for seed in range(30):
                rng = np.random.default_rng(seed)
                a = rng.standard_normal((256, 256), dtype=np.float32)
                m, _ = prune_hierarchical(a, config)
                vals.append(topk_retention(a, m, [0.10]).retained[0])
            means.append(statistics.mean(vals))
        for earlier, later in zip(means, means[1:]):
            assert later >= earlier, f"means not nondecreasing: {means}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_08_calibrated_speedup_prediction():
    with criterion(8, "calibrated-speedup-prediction"):
        t0 = time.perf_counter()
        plan = BenchPlan((1024, 1024, 256), reps=9)
        table = calibrate_irf(
            [BlockShape(32, 1), BlockShape(8, 1)], [0.75, 0.875], plan
        )
        held_out = HBSConfig.parse("32x1:0.75,8x1:0.875")
        predicted = estimate_cost(plan.dims, held_out, table).speedup

        rng = np.random.default_rng(42)
        a = rng.standard_normal((1024, 1024), dtype=np.float32)
        b = rng.standard_normal((1024, 256), dtype=np.float32)
        m, _ = prune_hierarchical(a, held_out)
        # Paired reps, as in calibration: a host slow spell hits both sides.
        t_dense, t_sparse = _median_seconds(
            {"dense": lambda: dense_matmul(a, b), "sparse": lambda: hbs_matmul(m, b)},
            plan,
        )
        measured = t_dense / t_sparse

        ratio = predicted / measured
        # On failure, tell a host slow spell (one odd median, or calibrated
        # irf values far from a rerun's) from a model error.
        irfs = ", ".join(f"{s} bucket {k}: {v:.4g}" for (s, k), v in table.entries.items())
        assert 1 / 1.5 <= ratio <= 1.5, (
            f"predicted {predicted:.3f} vs measured {measured:.3f} "
            f"(ratio {ratio:.3f}); measured medians dense {t_dense:.4g}s, "
            f"sparse {t_sparse:.4g}s; calibrated irf {irfs}"
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_09_formats_round_trip_and_name_errors(tmp_path):
    with criterion(9, "format-round-trip-and-errors"):
        rng = np.random.default_rng(33)

        a = rng.standard_normal((12, 8), dtype=np.float32)
        a[0, 0] = -0.0
        p = tmp_path / "a.dmat"
        write_dmat(p, a)
        assert (read_dmat(p).view(np.uint32) == a.view(np.uint32)).all()

        m, _ = prune_hierarchical(a, HBSConfig.parse("4x2:0.5,2x1:0.75"))
        h1, h2 = tmp_path / "m1.hbsf", tmp_path / "m2.hbsf"
        write_hbsf(h1, m)
        write_hbsf(h2, read_hbsf(h1))
        assert h1.read_bytes() == h2.read_bytes()

        table = IrfTable({(BlockShape(4, 2), 32): 0.75}, "calibrated")
        i1, i2 = tmp_path / "t1.irf", tmp_path / "t2.irf"
        write_irf(i1, table)
        write_irf(i2, read_irf(i1))
        assert i1.read_bytes() == i2.read_bytes()

        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(MagicError):
            read_dmat(bad)
        bad.write_bytes(b"DMAT" + bytes(2))
        with pytest.raises(TruncatedError):
            read_dmat(bad)
        bad.write_bytes(hbsf_bytes(2, 2, [], version=3))
        with pytest.raises(VersionError):
            read_hbsf(bad)
        bad.write_bytes(
            hbsf_bytes(
                2, 2,
                [(2, 2, [(0, 0, np.ones((2, 2)))]), (1, 1, [(0, 0, [[1.0]])])],
            )
        )
        with pytest.raises(ValidationError):
            read_hbsf(bad)
        bad.write_text("HBS-IRF v9 analytic\n")
        with pytest.raises(VersionError):
            read_irf(bad)
