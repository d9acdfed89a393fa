import re
import sys

import numpy as np
import pytest

from conftest import level_of
from test_io import hbsf_bytes
from hbs import perf
from hbs import (
    BlockShape,
    HBSMatrix,
    flops_sparse_level,
    read_dmat,
    read_hbsf,
    read_irf,
    write_dmat,
    write_hbsf,
)
from hbs.cli import console_main, main

FOUR = np.array(
    [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]], dtype=np.float32
)


@pytest.fixture
def run(capsys):
    def _run(*args):
        rc = main([str(a) for a in args])
        cap = capsys.readouterr()
        return rc, cap.out, cap.err

    return _run


class TestPipelines:
    def test_gen_prune_reconstruct_identity(self, run, tmp_path):
        a, m, b = tmp_path / "a.dmat", tmp_path / "m.hbsf", tmp_path / "b.dmat"
        assert run("gen", "--rows", 8, "--cols", 6, "--seed", 3, "--out", a)[0] == 0
        rc, out, _ = run("prune", "--in", a, "--out", m, "--levels", "1x1:0")
        assert rc == 0
        assert "cumulative density 1" in out and f"wrote {m}" in out
        assert run("reconstruct", "--in", m, "--out", b)[0] == 0
        assert a.read_bytes()[8:] == b.read_bytes()[8:]  # same dims, same cells

    def test_gen_is_seed_deterministic(self, run, tmp_path):
        p1, p2, p3 = (tmp_path / n for n in ("1.dmat", "2.dmat", "3.dmat"))
        run("gen", "--rows", 4, "--cols", 4, "--seed", 7, "--out", p1)
        run("gen", "--rows", 4, "--cols", 4, "--seed", 7, "--out", p2)
        run("gen", "--rows", 4, "--cols", 4, "--seed", 8, "--out", p3)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes() != p3.read_bytes()

    def test_gen_uniform(self, run, tmp_path):
        p = tmp_path / "u.dmat"
        run("gen", "--rows", 16, "--cols", 16, "--dist", "uniform", "--out", p)
        vals = read_dmat(p)
        assert (vals >= 0).all() and (vals < 1).all()

    def test_prune_reports_trace_and_summary(self, run, tmp_path):
        a, m = tmp_path / "a.dmat", tmp_path / "m.hbsf"
        write_dmat(a, FOUR)
        rc, out, _ = run("prune", "--in", a, "--out", m, "--levels", "2x2:0.75,1x1:0.875")
        assert rc == 0
        assert "level 1" in out and "level 2" in out
        assert "cumulative density 0.375" in out

    def test_matmul_oracle(self, run, tmp_path, monkeypatch):
        a, m, b, c = (tmp_path / n for n in ("a.dmat", "m.hbsf", "b.dmat", "c.dmat"))
        run("gen", "--rows", 16, "--cols", 12, "--seed", 5, "--out", a)
        run("prune", "--in", a, "--out", m, "--levels", "4x2:0.5,1x1:0.75")
        run("gen", "--rows", 12, "--cols", 7, "--seed", 6, "--out", b)
        rc, out, _ = run("matmul", "--a", m, "--b", b, "--out", c, "--oracle")
        assert rc == 0
        got = re.search(r"max relative error vs dense oracle: (\S+)", out)
        assert got and float(got.group(1)) <= 1e-5
        assert read_dmat(c).shape == (16, 7)
        # The oracle reports its times; only calibration refuses times
        # below the measurable floor.
        monkeypatch.setattr(perf, "MIN_MEASURABLE_SECONDS", 1e9)
        rc, out, _ = run("matmul", "--a", m, "--b", b, "--out", c, "--oracle")
        assert rc == 0 and re.search(r"^timed, median of 5: ", out, re.M)

    @pytest.mark.parametrize(
        "rows, runs",
        [(16, [("1", "levels 1-2", "4x2,1x1", "8x1")]),
         (12, [("1", "level 1", "4x2", "4x2"), ("2", "level 2", "1x1", "1x1")])],
    )
    def test_matmul_oracle_prints_execution_shapes(self, run, tmp_path, rows, runs):
        a, m, b, c = (tmp_path / n for n in ("a.dmat", "m.hbsf", "b.dmat", "c.dmat"))
        run("gen", "--rows", rows, "--cols", 12, "--seed", 5, "--out", a)
        run("prune", "--in", a, "--out", m, "--levels", "4x2:0.5,1x1:0.75")
        run("gen", "--rows", 12, "--cols", 7, "--seed", 6, "--out", b)
        rc, out, _ = run("matmul", "--a", m, "--b", b, "--out", c, "--oracle")
        assert rc == 0
        lines = re.findall(
            r"part (\d+): (levels? \S+) stored (\S+), runs as (\S+); "
            r"(\d+) flops stored, (\d+) executed at 7 columns",
            out,
        )
        assert [line[:4] for line in lines] == runs
        levels = read_hbsf(m).levels
        for *_, shapes, ran, stored, executed in lines:
            covered = [lv for lv in levels if str(lv.shape) in shapes.split(",")]
            assert int(stored) == sum(flops_sparse_level(lv, 7) for lv in covered)
            # Each stored cell's tile column holds at most run/bh cells.
            pad = BlockShape.parse(ran).bh
            most = sum(pad // lv.shape.bh * flops_sparse_level(lv, 7) for lv in covered)
            assert int(stored) <= int(executed) <= most

    def test_matmul_oracle_prints_packing(self, run, tmp_path):
        m, b, c = (tmp_path / n for n in ("m.hbsf", "b.dmat", "c.dmat"))
        # 16x1 runs as stored: block rows of 3 and 2 blocks share one slab
        # of length 3, so 16 of its 96 packed cells pad the shorter row.
        coarse = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
        # 8x1 and 2x1 share one part of 8-row blocks. Its execution block
        # rows 0-2 hold one tile column each, and row 3 two, one of them
        # shared by two 2x1 blocks: a slab each, with no padding.
        mid = [(0, 3), (2, 2)]
        fine = [(4, 3), (6, 3), (12, 2), (15, 3)]
        levels = [
            level_of(BlockShape(16, 1), 2, 4, [(r, c, np.ones((16, 1))) for r, c in coarse]),
            level_of(BlockShape(8, 1), 4, 4, [(r, c, np.ones((8, 1))) for r, c in mid]),
            level_of(BlockShape(2, 1), 16, 4, [(r, c, np.ones((2, 1))) for r, c in fine]),
        ]
        write_hbsf(m, HBSMatrix(32, 4, tuple(levels)))
        write_dmat(b, np.ones((4, 3), np.float32))
        rc, out, _ = run("matmul", "--a", m, "--b", b, "--out", c, "--oracle")
        assert rc == 0
        lines = [line for line in out.splitlines() if line.startswith("part")]
        assert lines == [
            "part 1: level 1 stored 16x1, runs as 16x1; 480 flops stored, 480 executed "
            "at 3 columns; packed 848 bytes in 1 slabs, padding share 0.167",
            "part 2: levels 2-3 stored 8x1,2x1, runs as 8x1; 144 flops stored, 240 executed "
            "at 3 columns; packed 424 bytes in 2 slabs, padding share 0.000",
        ]
        # 1272 packed bytes over 104 kept cells; 720 flops run for 624 stored.
        plan = r"plan: built in \d+\.\d{6} s, 12\.23 bytes per kept cell, "
        plan += r"executed/stored flops 1\.15"
        assert re.search(f"^{plan}$", out, re.M)

    @pytest.mark.parametrize("n, runs", [(4, "plan"), (64, "dense")])
    def test_matmul_oracle_names_the_product_that_runs(self, run, tmp_path, n, runs):
        a, m, b, c = (tmp_path / name for name in ("a.dmat", "m.hbsf", "b.dmat", "c.dmat"))
        run("gen", "--rows", 64, "--cols", 64, "--seed", 5, "--out", a)
        run("prune", "--in", a, "--out", m, "--levels", "32x1:0.75,8x1:0.875")
        run("gen", "--rows", 64, "--cols", n, "--seed", 6, "--out", b)
        rc, out, _ = run("matmul", "--a", m, "--b", b, "--out", c, "--oracle")
        assert rc == 0
        rule = re.search(
            rf"^product at {n} columns: (plan|dense); rule: plan side (\S+) vs dense side "
            r"(\S+), dense runs when the plan side is larger$",
            out,
            re.M,
        )
        assert rule and rule.group(1) == runs
        assert (float(rule.group(2)) > float(rule.group(3))) == (runs == "dense")
        timed = re.search(
            r"^timed, median of 5: plan product (\d+\.\d{6}) s, "
            r"(plan|dense) product that runs (\d+\.\d{6}) s$",
            out,
            re.M,
        )
        assert timed and timed.group(2) == runs

    def test_topk(self, run, tmp_path):
        a, m = tmp_path / "a.dmat", tmp_path / "m.hbsf"
        write_dmat(a, FOUR)
        run("prune", "--in", a, "--out", m, "--levels", "2x2:0.75")
        rc, out, _ = run("topk", "--original", a, "--pruned", m, "--percentiles", "25,50")
        assert rc == 0
        assert "1.000000" in out and "0.500000" in out

    def test_speedup(self, run, tmp_path):
        irf = tmp_path / "t.irf"
        irf.write_text("HBS-IRF v1 analytic\n1 1 0.5 1.0\n")
        rc, out, _ = run(
            "speedup", "--dims", "64x64x64", "--levels", "1x1:0.5", "--irf", irf
        )
        assert rc == 0
        assert "speedup: 2.0000" in out

    def test_bench_calibrate(self, run, tmp_path):
        out_path = tmp_path / "m.irf"
        rc, out, _ = run(
            "bench", "calibrate",
            "--shapes", "4x1",
            "--sparsities", "0.5",
            "--dims", "128x128x32",
            "--reps", 2,
            "--out", out_path,
        )
        assert rc == 0
        assert "calibrated 1 entries at 128x128x32" in out
        table = read_irf(out_path)
        assert table.provenance == "calibrated"
        assert len(table.entries) == 1


class TestValidate:
    def test_valid_file(self, run, tmp_path):
        a, m = tmp_path / "a.dmat", tmp_path / "m.hbsf"
        run("gen", "--rows", 4, "--cols", 4, "--out", a)
        run("prune", "--in", a, "--out", m, "--levels", "2x2:0.5")
        rc, out, _ = run("validate", "--in", m)
        assert rc == 0
        assert out.count("pass") == 4 and "FAIL" not in out

    def test_invalid_file(self, run, tmp_path):
        p = tmp_path / "bad.hbsf"
        p.write_bytes(
            hbsf_bytes(
                2, 2,
                [(2, 2, [(0, 0, np.ones((2, 2)))]), (1, 1, [(0, 0, [[3.0]])])],
            )
        )
        rc, out, _ = run("validate", "--in", p)
        assert rc == 1
        assert "FAIL" in out and "disjoint" in out

    def test_non_tiling_file_reports_every_family(self, run, tmp_path):
        p = tmp_path / "bad.hbsf"
        p.write_bytes(hbsf_bytes(4, 4, [(3, 1, [(0, 0, [[1.0], [2.0], [3.0]])])]))
        rc, out, _ = run("validate", "--in", p)
        assert rc == 1
        tiling, divisibility, blocks, disjointness = out.splitlines()
        assert tiling.startswith("tiling") and "FAIL" in tiling and "do not tile" in tiling
        assert divisibility.split() == ["divisibility", "pass"]
        assert blocks.split() == ["blocks", "pass"]
        assert disjointness.startswith("disjointness") and "not evaluated" in disjointness


class TestExitCodes:
    def test_usage_errors_exit_2(self, run, tmp_path):
        out = tmp_path / "x"
        topk = ("topk", "--original", "a", "--pruned", "m", "--percentiles")
        cases = [
            (("frobnicate",), "invalid choice"),
            (("gen", "--rows", 4), "required"),
            (("gen", "--rows", 4, "--cols", 4, "--out", out, "--bogus"), "unrecognized"),
            (("gen", "--rows", 0, "--cols", 4, "--out", out), "rows must be >= 1, got 0"),
            (("gen", "--rows", "four", "--cols", 4, "--out", out), "bad rows 'four'"),
            (("prune", "--in", "x", "--out", "y", "--levels", "2x2:1.5"), "[0, 1]"),
            (("prune", "--in", "x", "--out", "y", "--levels", "2x2:0.5,3x3:0.1"),
             "does not evenly divide"),
            (("speedup", "--dims", "6x6", "--levels", "1x1:0.5", "--irf", "t"), "bad dims"),
            (("speedup", "--dims", "6xax6", "--levels", "1x1:0.5", "--irf", "t"),
             "bad dims"),
            ((*topk, "0"), "outside (0, 100]"),
            ((*topk, "ten"), "bad percentile 'ten'"),
            ((*topk, " , "), "empty percentile list"),
            (("bench", "calibrate", "--shapes", "4x1", "--sparsities", "75",
              "--dims", "8x8x8", "--out", out), "not percentages"),
            (("bench", "calibrate", "--shapes", "4x1", "--sparsities", "half",
              "--dims", "8x8x8", "--out", out), "bad sparsity 'half'"),
            (("bench", "calibrate", "--shapes", "4", "--sparsities", "0.5",
              "--dims", "8x8x8", "--out", out), "bad block shape '4'"),
        ]
        for argv, message in cases:
            rc, _, err = run(*argv)
            assert rc == 2, argv
            assert "usage" in err and message in err, argv

    def test_percentage_sparsity_hint(self, run):
        rc, _, err = run("prune", "--in", "x", "--out", "y", "--levels", "1x1:75")
        assert rc == 2
        assert "not percentages" in err

    def test_runtime_errors_exit_1(self, run, tmp_path):
        rc, _, err = run("validate", "--in", tmp_path / "missing.hbsf")
        assert rc == 1 and err.startswith("error:")

        a, m, b = tmp_path / "a.dmat", tmp_path / "m.hbsf", tmp_path / "b.dmat"
        run("gen", "--rows", 4, "--cols", 4, "--out", a)
        run("prune", "--in", a, "--out", m, "--levels", "2x2:0.5")
        run("gen", "--rows", 3, "--cols", 3, "--out", b)
        rc, _, err = run("matmul", "--a", m, "--b", b, "--out", tmp_path / "c.dmat")
        assert rc == 1 and err.startswith("error:")

    def test_console_main_raises_systemexit(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "g.dmat"
        argv = ["hbs", "gen", "--rows", "2", "--cols", "2", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exc:
            console_main()
        assert exc.value.code == 0
        assert out.exists()
        capsys.readouterr()
