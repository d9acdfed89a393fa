"""hbs benchmark: one closed-loop caller driving the package's public API.

Run from the repository root, which must hold ``src/hbs`` and
``BENCHMARK.json``:

    python3 perfbench/run.py --workload infer_stream --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``infer_batch``  -- ``hbs_matmul`` on the six suite matrices against a
  256-column activation;
* ``infer_stream`` -- the same against a 4-column activation (decode-style);
* ``compress``     -- dmat write/read, prune, validate, hbsf write/read,
  reconstruct and top-k retention of each weight matrix.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles, then sweeps every layer, and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is the JSON result. Full records and the span trace go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# workload -> (op kind, activation columns, host speed probe)
WORKLOADS = {
    "infer_batch": ("infer", 256, "loop256"),
    "infer_stream": ("infer", 4, "loop4"),
    "compress": ("compress", 256, "sort"),
}
SETUP_REPEATS = 3
# Cache sizes of the reference machine, for the working-set comparison.
L2_BYTES = 4 * 2**20
L3_BYTES = 105 * 2**20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def limit_blas_threads() -> tuple[int, int]:
    """Pin BLAS to at most two threads; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, 2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def import_package():
    """Import hbs from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hbs" / "__init__.py").is_file():
        raise SystemExit(f"error: no hbs package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import hbs

    if Path(hbs.__file__).resolve().parent != (src / "hbs").resolve():
        raise SystemExit(f"error: imported hbs from {hbs.__file__}, not from {src}")


def declared_metrics() -> dict[str, dict[str, str]]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} is missing")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(np, args, threads, nproc, kind, width, mats) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict form of the build config
        vendor = "unknown"
    # Computed bytes one op touches on its largest matrix.
    if kind == "infer":
        op_bytes = max(
            sum(12 * lv.n_blocks * lv.shape.area + 16 * lv.n_blocks for lv in mat.m.levels)
            + 12 * (mat.m.rows + mat.m.cols) * width
            for mat in mats
        )
    else:
        # w, read-back copy, float64 scores, residual, reconstruction, .hbsf.
        op_bytes = max(26 * mat.cells for mat in mats)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": nproc,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "working_set_bytes": op_bytes,
        "l2_bytes": L2_BYTES,
        "l3_bytes": L3_BYTES,
        "fits_l2": op_bytes <= L2_BYTES,
        "fits_l3": op_bytes <= L3_BYTES,
    }


def end_to_end(suite, args, tmp, gate):
    """Set up three times, then measure one closed loop with tracing off."""
    import hostspeed

    kind, width, probe_kind = WORKLOADS[args.workload]
    # Set-up is mostly pruning, bulk array work, whatever the workload.
    setup_probe = hostspeed.Probe("sort")
    setups, setups_scaled = [], []
    for _ in range(SETUP_REPEATS):
        work = None  # let the previous set-up's arrays go before timing
        before = setup_probe.run()
        t0 = perf_counter()
        work = suite.setup(kind, args.seed, width, tmp, spans.OFF, gate)
        setups.append(perf_counter() - t0)
        setups_scaled.append(setups[-1] * setup_probe.factor(before, setup_probe.run()))
    probe = hostspeed.Probe(probe_kind)
    (loop,) = suite.run_loop(work, args.seconds, [spans.OFF], gate, probe)
    if not loop.lat:
        raise SystemExit("error: every op failed; no latency to report")
    if kind == "compress":
        ret10 = statistics.fmean(r[0] for r in work.retention)
    else:
        ret10 = suite.retention_top10(work.mats, spans.OFF)
    tail_s, beyond = loop.latency_tail()
    metrics = {
        "setup_s": (statistics.median(setups_scaled), "s"),
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_ms_p50": (loop.latency_p50() * 1e3, "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "retention_top10": (ret10, "fraction"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    details = {
        "setup_s_unscaled": statistics.median(setups),
        "ops_per_s_unscaled": loop.ops_per_s(scaled=False),
        "op_ms_p50_unscaled": loop.latency_p50(scaled=False) * 1e3,
        "op_ms_tail_unscaled": loop.latency_tail(scaled=False)[0] * 1e3,
        "host_speed": probe.speed(),
        "op_ms_tail_percentile": suite.TAIL_PCT,
        "op_samples": len(loop.lat),
        "op_samples_beyond_tail": beyond,
        "failed_frac": loop.failed / loop.attempted,
        "loop_wall_s": loop.wall,
    }
    if kind == "infer":
        details["speedup_vs_blas"] = work.blas_s / work.hbs_s
        details["max_rel_err"] = work.max_err
    details.update(
        probe=probe_kind, setup_s_each=setups, setup_s_each_scaled=setups_scaled,
        op_latency_s=loop.lat, cycles=loop.cycles, probe_s=probe.samples,
        setup_probe_s=setup_probe.samples,
    )
    return work, metrics, details


def traced(suite, args, tmp, gate):
    """Alternate untraced and traced cycles, then sweep every layer."""
    import layers

    kind, width, _ = WORKLOADS[args.workload]
    tr = spans.Tracer()
    tr.op = "setup"
    work = suite.setup(kind, args.seed, width, tmp, tr, gate)
    plain, loop = suite.run_loop(work, args.seconds, [spans.OFF, tr], gate)
    sw = suite.sweep(work, args.seed, width, tmp, tr, gate)
    metrics, details = layers.derive(tr, kind, width, work.mats, sw, plain, loop)
    details["spans"] = len(tr.spans)
    tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    return work, metrics, details


# Units of the scalar details printed beside the metrics.
DETAIL_UNITS = {
    "setup_s_unscaled": "s",
    "ops_per_s_unscaled": "1/s",
    "op_ms_p50_unscaled": "ms",
    "op_ms_tail_unscaled": "ms",
    "host_speed": "ratio",
    "op_ms_tail_percentile": "percentile",
    "op_samples": "count",
    "op_samples_beyond_tail": "count",
    "failed_frac": "fraction",
    "loop_wall_s": "s",
    "speedup_vs_blas": "ratio",
    "max_rel_err": "ratio",
    "ops_per_s_untraced": "1/s",
    "ops_per_s_traced": "1/s",
    "spans": "count",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads, nproc = limit_blas_threads()
    import_package()
    declared = declared_metrics()
    import numpy as np

    import suite

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    gate = suite.Gate()
    try:
        run = traced if args.trace else end_to_end
        work, metrics, details = run(suite, args, tmp, gate)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    want = declared["per_layer" if args.trace else "end_to_end"]
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise SystemExit(
            f"error: metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, unit mismatch {wrong}"
        )

    kind, width, _ = WORKLOADS[args.workload]
    env = environment(np, args, threads, nproc, kind, width, work.mats)
    for name in want:
        value, unit = metrics[name]
        print(f"{name:44s} {value:>16.6g} {unit}")
    for name, unit in DETAIL_UNITS.items():
        if name in details:
            print(f"{name:44s} {details[name]:>16.6g} {unit}  (reported, not declared)")
    if kind == "compress" and not args.trace:
        print("speedup_vs_blas, max_rel_err: not applicable, compress makes no products")
    for name in ("op_time_share_by_layer", "hbs_loses_to_dense", "cost_model"):
        if name in details:
            print(f"# {name}: {json.dumps(details[name])}")
    print(f"# env: {json.dumps(env)}")

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, details=details, failures=gate.notes)
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
