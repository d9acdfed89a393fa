"""Per-layer metrics derived from the spans of a traced run.

Times are self times (a span minus its children). Where a layer runs on
all six matrices, its time is the mean over matrices of the per-matrix
median, so one slow call or an uneven sample count does not tilt it.
Byte counts marked "computed" come from array sizes, not from counters.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from hbs import flops_dense, flops_sparse, flops_sparse_level

import suite

LAYERS = ("kernels", "core", "pruning", "io", "analysis", "perf")
CALIBRATION_NOTE = (
    "calibrate_irf's dense rate is the reference loop dense_matmul, not BLAS; "
    "irf_table and estimate_cost therefore predict speedups over the reference loop"
)


def derive(tr, kind: str, width: int, mats, sw, plain, traced):
    """Return ``(metrics, details)``; metrics map name -> (value, unit)."""
    own = tr.self_times()
    samples: dict[tuple[str, str | None], list[float]] = defaultdict(list)
    op_wall: dict[str, list[float]] = defaultdict(list)
    for rec, s in zip(tr.spans, own):
        samples[(rec[0], rec[5])].append(s)
        if rec[0] == f"op.{kind}":
            op_wall[rec[5]].append(rec[2] - rec[1])
    names = [mat.name for mat in mats]

    def med(span: str, mat: str) -> float:
        return statistics.median(samples[(span, mat)])

    def mean_med(span: str) -> float:
        return statistics.fmean(med(span, n) for n in names)

    def calls(span: str) -> int:
        return sum(len(samples[(span, n)]) for n in names)

    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value, unit: str) -> None:
        out[name] = (float(value), unit)

    # kernels: the workload-width product per matrix, its baselines, levels.
    hbs = {n: med("kernels.hbs_matmul", n) for n in names}
    blas64 = {n: med("baseline.blas64", n) for n in names}
    blas32 = {n: med("baseline.blas32", n) for n in names}
    ref = {n: med("kernels.dense_matmul", n) for n in names}
    flops = {mat.name: flops_sparse(mat.m, width) for mat in mats}
    # Compulsory traffic: kept values, two int64 indices per block, B and C.
    nbytes = {
        mat.name: sum(4 * lv.n_blocks * lv.shape.area + 16 * lv.n_blocks for lv in mat.m.levels)
        + 4 * (mat.m.rows + mat.m.cols) * width
        for mat in mats
    }
    put("kernels.matmul_s", statistics.fmean(hbs.values()), "s")
    put("kernels.matmul_calls", calls("kernels.hbs_matmul"), "count")
    put("kernels.flops", sum(flops.values()), "flop")
    put("kernels.gflops", sum(flops.values()) / sum(hbs.values()) / 1e9, "GFLOP/s")
    put("kernels.bytes", sum(nbytes.values()), "B")
    put("kernels.ops_per_byte", sum(flops.values()) / sum(nbytes.values()), "flop/B")
    losses = [
        {"matrix": n, "baseline": base, "speedup": t / hbs[n]}
        for n in names
        for base, t in (("blas64", blas64[n]), ("blas32", blas32[n]), ("ref", ref[n]))
        if t < hbs[n]
    ]
    put("kernels.loss_count", len(losses), "count")
    for n in names:
        put(f"kernels.{n}.s", hbs[n], "s")
        put(f"kernels.{n}.speedup_vs_blas", blas64[n] / hbs[n], "ratio")
        put(f"kernels.{n}.speedup_vs_ref", ref[n] / hbs[n], "ratio")
        put(f"kernels.{n}.blas32_s", blas32[n], "s")

    levels: dict[str, dict] = {}
    for mat in mats:
        dense_flops = flops_dense(mat.m.rows, mat.m.cols, width)
        for spec, lv in zip(mat.config.levels, mat.m.levels):
            acc = levels.setdefault(
                f"{mat.config_name}.{lv.shape}",
                {"spec": spec, "s": 0.0, "flops": 0, "dense_flops": 0, "blas64_s": 0.0, "ref_s": 0.0},
            )
            acc["s"] += med("kernels.hbs_matmul", f"{mat.name}@{lv.shape}")
            acc["flops"] += flops_sparse_level(lv, width)
            acc["dense_flops"] += dense_flops
            acc["blas64_s"] += blas64[mat.name]
            acc["ref_s"] += ref[mat.name]
    level_rows = []
    for key, acc in levels.items():
        spec = acc["spec"]
        rate = acc["flops"] / acc["s"]
        irf_table = sw.table.lookup(spec.shape, spec.sparsity)
        irf_blas = rate / (acc["dense_flops"] / acc["blas64_s"])
        irf_ref = rate / (acc["dense_flops"] / acc["ref_s"])
        put(f"kernels.{key}.s", acc["s"], "s")
        put(f"kernels.{key}.gflops", rate / 1e9, "GFLOP/s")
        put(f"perf.{key}.irf_table", irf_table, "ratio")
        put(f"perf.{key}.irf_vs_blas", irf_blas, "ratio")
        put(f"perf.{key}.irf_vs_ref", irf_ref, "ratio")
        level_rows.append(
            {"level": key, "sparsity": spec.sparsity, "s": acc["s"], "flops": acc["flops"],
             "irf_table": irf_table, "irf_vs_blas": irf_blas, "irf_vs_ref": irf_ref}
        )

    # core: one validation pass as a share of this workload's op.
    put("core.validate_s", mean_med("core.validate"), "s")
    put("core.validate_calls", calls("core.validate"), "count")
    put(
        "core.validate_share",
        sum(med("core.validate", n) for n in names)
        / sum(statistics.median(op_wall[n]) for n in names),
        "fraction",
    )
    put("core.reconstruct_s", mean_med("core.reconstruct"), "s")

    # pruning
    prune = {n: med("pruning.prune_hierarchical", n) for n in names}
    put("pruning.prune_s", statistics.fmean(prune.values()), "s")
    put("pruning.cells_per_s", sum(mat.cells for mat in mats) / sum(prune.values()), "1/s")
    put("pruning.kept_blocks", sum(lt.kept_blocks for mat in mats for lt in mat.trace.levels), "count")

    # io: bytes moved per compress op are two .dmat and two .hbsf transfers.
    io_fns = ("write_dmat", "read_dmat", "write_hbsf", "read_hbsf")
    for fn in io_fns:
        put(f"io.{fn}_s", mean_med(f"io.{fn}"), "s")
    hbsf = sw.compress.hbsf_bytes
    put("io.hbsf_bytes", sum(hbsf), "B")
    moved = sum(2 * (16 + 4 * mat.cells) + 2 * size for mat, size in zip(mats, hbsf))
    io_s = sum(med(f"io.{fn}", n) for fn in io_fns for n in names)
    put("io.mb_s", moved / io_s / 1e6, "MB/s")

    # analysis
    put("analysis.topk_s", mean_med("analysis.topk_retention"), "s")
    for i, p in enumerate(suite.RETENTION_PCTS):
        put(
            f"analysis.retention.p{round(p * 100)}",
            statistics.fmean(r[i] for r in sw.compress.retention),
            "fraction",
        )

    # perf: the cost model beside the measurement.
    put("perf.calibrate_s", sum(s for rec, s in zip(tr.spans, own) if rec[0] == "perf.calibrate_irf"), "s")
    predictions = []
    for n in names:
        measured = ref[n] / hbs[n]
        err = abs(sw.predicted[n] / measured - 1.0)
        put(f"perf.{n}.speedup_pred_err", err, "ratio")
        predictions.append(
            {"matrix": n, "predicted_vs_ref": sw.predicted[n], "measured_vs_ref": measured,
             "measured_vs_blas": blas64[n] / hbs[n], "abs_rel_err": err}
        )

    # trace: overhead and how much of the op time the layer spans explain.
    put("trace.overhead_ops_per_s", plain.ops_per_s() - traced.ops_per_s(), "1/s")
    op_total = 0.0
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for rec, s in zip(tr.spans, own):
        if not (isinstance(rec[4], str) and rec[4].startswith("loop:")):
            continue
        if rec[0].startswith("op."):
            op_total += rec[2] - rec[1]
        elif rec[3] >= 0 and tr.spans[rec[3]][0].startswith("op."):
            by_layer[rec[0].split(".", 1)[0]] += s
    put("trace.coverage", sum(by_layer.values()) / op_total, "fraction")

    details = {
        "op_time_share_by_layer": {k: v / op_total for k, v in by_layer.items()},
        "hbs_loses_to_dense": losses,
        "levels": level_rows,
        "cost_model": {"note": CALIBRATION_NOTE, "irf_provenance": sw.table.provenance,
                       "predictions": predictions},
        "ops_per_s_untraced": plain.ops_per_s(),
        "ops_per_s_traced": traced.ops_per_s(),
    }
    return out, details
