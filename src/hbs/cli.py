"""Command line surface for pruning, validating, multiplying and benchmarking.

Exit codes: 0 success, 1 runtime or validation failure, 2 usage errors
(unknown flags, arguments that do not parse or are out of range). All
randomness is seeded through ``--seed``, so every command is reproducible.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

import numpy as np

from .analysis import sparsity_summary, topk_retention
from .core import (
    BlockShape, HBSConfig, _as_fraction, _as_int, _parse_number, reconstruct, validate
)
from .errors import HbsError, ValidationError
from .io import read_dmat, read_hbsf, write_dmat, write_hbsf
from .kernels import (
    _dense_rule, _execution, _plan_product, _runs_dense, dense_matmul, flops_sparse,
    flops_sparse_level, hbs_matmul, max_rel_error,
)
from .perf import (
    BenchPlan, _measurable_floor, _median_seconds, calibrate_irf, estimate_cost, read_irf,
    write_irf,
)
from .pruning import prune_hierarchical


def _usage(parse):
    """``parse`` as an argparse type: a ``ValueError`` it raises becomes a
    usage error (exit 2) that keeps the library's message."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


def _integer(text: str, what: str, low: int) -> int:
    return _as_int(_parse_number(text, int, what, ValueError), what, ValueError, low)


def _int_arg(what: str, low: int):
    return _usage(partial(_integer, what=what, low=low))


def _dims(text: str) -> tuple[int, int, int]:
    parts = text.split("x")
    if len(parts) != 3:
        raise ValueError(f"bad dims {text!r}, expected MxKxN")
    return tuple(_integer(p, "dims entry", 1) for p in parts)


def _comma_list(text: str, parse, what: str) -> tuple:
    """Apply ``parse`` to each token of a comma list that is not all spaces;
    reject an empty list."""
    out = tuple(parse(tok.strip(" ")) for tok in text.split(",") if tok.strip(" "))
    if not out:
        raise ValueError(f"empty {what} list")
    return out


def _percentile(tok: str) -> float:
    v = _parse_number(tok, float, "percentile", ValueError)
    if not 0.0 < v <= 100.0:
        raise ValueError(f"percentile {tok!r} outside (0, 100] (percentages, e.g. 10,20,50)")
    return v / 100.0


def _sparsity(tok: str) -> float:
    return _as_fraction(_parse_number(tok, float, "sparsity", ValueError), "sparsity", ValueError)


_levels_arg = _usage(HBSConfig.parse)
_dims_arg = _usage(_dims)
_percentiles_arg = _usage(partial(_comma_list, parse=_percentile, what="percentile"))
_shapes_arg = _usage(partial(_comma_list, parse=BlockShape.parse, what="shape"))
_sparsities_arg = _usage(partial(_comma_list, parse=_sparsity, what="sparsity"))


def _cmd_prune(args) -> int:
    a = read_dmat(args.in_path)
    hbs, trace = prune_hierarchical(a, args.levels)
    write_hbsf(args.out, hbs)
    print(trace.render())
    print(sparsity_summary(hbs).render())
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    try:
        m = read_hbsf(args.in_path)
    except ValidationError as e:
        print(e.report.render())
        return 1
    print(validate(m).render())
    return 0


def _cmd_reconstruct(args) -> int:
    write_dmat(args.out, reconstruct(read_hbsf(args.in_path)))
    print(f"wrote {args.out}")
    return 0


def _cmd_matmul(args) -> int:
    m = read_hbsf(args.a)
    b = read_dmat(args.b)
    if args.oracle:
        n = b.shape[1]
        t0 = time.perf_counter()
        runs = _execution(m, n)  # builds the plan, which hbs_matmul then reuses
        plan_s = time.perf_counter() - t0
    c = hbs_matmul(m, b)
    write_dmat(args.out, c)
    if args.oracle:
        for i, ex in enumerate(runs, 1):
            first, last = ex.levels[0] + 1, ex.levels[-1] + 1
            covered = f"level {first}" if first == last else f"levels {first}-{last}"
            levels = [m.levels[j] for j in ex.levels]
            print(
                f"part {i}: {covered} stored {','.join(str(lv.shape) for lv in levels)}, "
                f"runs as {ex.shape}; "
                f"{sum(flops_sparse_level(lv, n) for lv in levels)} flops stored, "
                f"{ex.flops} executed at {n} columns; "
                f"packed {ex.nbytes} bytes in {ex.slabs} slabs, padding share {ex.padding:.3f}"
            )
        kept = sum(lv.n_blocks * lv.shape.area for lv in m.levels)
        executed = sum(ex.flops for ex in runs) / flops_sparse(m, n) if kept else 0.0
        per_kept = sum(ex.nbytes for ex in runs) / kept if kept else 0.0
        print(
            f"plan: built in {plan_s:.6f} s, {per_kept:.2f} bytes per kept cell, "
            f"executed/stored flops {executed:.2f}"
        )
        plan, dense = _dense_rule(m, n)
        runs = "dense" if _runs_dense(m, n) else "plan"
        print(
            f"product at {n} columns: {runs}; rule: plan side {plan:.6g} vs dense side "
            f"{dense:.6g}, dense runs when the plan side is larger"
        )
        timing = BenchPlan((m.rows, m.cols, n), reps=5, warmup=0)
        by_plan, by_rule = _median_seconds(
            {"plan": lambda: _plan_product(m, b), "rule": lambda: hbs_matmul(m, b)}, timing
        )
        floor = _measurable_floor()
        noise = min(by_plan, by_rule) < floor
        print(
            f"timed, median of {timing.reps}: plan product {by_plan:.6f} s, "
            f"{runs} product that runs {by_rule:.6f} s"
            + (f" (below the measurable floor {floor:.3g} s: timer noise)" if noise else "")
        )
        d = dense_matmul(reconstruct(m), b)
        print(f"max relative error vs dense oracle: {max_rel_error(c, d):.3e}")
    print(f"wrote {args.out}")
    return 0


def _cmd_topk(args) -> int:
    report = topk_retention(read_dmat(args.original), read_hbsf(args.pruned), args.percentiles)
    print(report.render())
    return 0


def _cmd_speedup(args) -> int:
    est = estimate_cost(args.dims, args.levels, read_irf(args.irf))
    print(est.render())
    return 0


def _cmd_calibrate(args) -> int:
    plan = BenchPlan(args.dims, reps=args.reps, seed=args.seed)
    table = calibrate_irf(args.shapes, args.sparsities, plan)
    write_irf(args.out, table)
    m, k, n = args.dims
    print(f"calibrated {len(table.entries)} entries at {m}x{k}x{n}")
    print(f"wrote {args.out}")
    return 0


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.dist == "gaussian":
        vals = rng.standard_normal((args.rows, args.cols), dtype=np.float32)
    else:
        vals = rng.random((args.rows, args.cols), dtype=np.float32)
    write_dmat(args.out, vals)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbs", description="hierarchical block sparse matrix toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="prune a dense matrix into an HBS matrix")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH", help="input .dmat")
    p.add_argument("--out", required=True, metavar="PATH", help="output .hbsf")
    p.add_argument(
        "--levels",
        required=True,
        type=_levels_arg,
        metavar="SPEC",
        help='comma list of <bh>x<bw>:<sparsity>, e.g. "32x1:0.75,1x1:0.96875"',
    )
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("validate", help="check every invariant of an HBS file")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH", help="input .hbsf")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reconstruct", help="expand an HBS matrix to dense")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH", help="input .hbsf")
    p.add_argument("--out", required=True, metavar="PATH", help="output .dmat")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("matmul", help="multiply an HBS matrix by a dense matrix")
    p.add_argument("--a", required=True, metavar="PATH", help="left operand .hbsf")
    p.add_argument("--b", required=True, metavar="PATH", help="right operand .dmat")
    p.add_argument("--out", required=True, metavar="PATH", help="output .dmat")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also print each execution plan part's levels, stored and execution shapes, "
        "FLOPs and packing size, the plan's build time, bytes per kept cell and "
        "executed/stored FLOPs, which product runs at this width and the two sides of "
        "the rule that picks it, the median times of the plan product and of the "
        "product that runs, run the dense reference product and print the max "
        "relative error",
    )
    p.set_defaults(func=_cmd_matmul)

    p = sub.add_parser("topk", help="top-magnitude retention of a pruned matrix")
    p.add_argument("--original", required=True, metavar="PATH", help="original .dmat")
    p.add_argument("--pruned", required=True, metavar="PATH", help="pruned .hbsf")
    p.add_argument(
        "--percentiles",
        required=True,
        type=_percentiles_arg,
        metavar="LIST",
        help="comma list of percentages in (0, 100], e.g. 10,20,30,40,50",
    )
    p.set_defaults(func=_cmd_topk)

    p = sub.add_parser("speedup", help="model the speedup of a pruning configuration")
    p.add_argument("--dims", required=True, type=_dims_arg, metavar="MxKxN")
    p.add_argument("--levels", required=True, type=_levels_arg, metavar="SPEC")
    p.add_argument("--irf", required=True, metavar="PATH", help="irregularity table .irf")
    p.set_defaults(func=_cmd_speedup)

    p = sub.add_parser("bench", help="microbenchmark utilities")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser("calibrate", help="measure an irf table on this machine")
    b.add_argument("--shapes", required=True, type=_shapes_arg, metavar="LIST")
    b.add_argument("--sparsities", required=True, type=_sparsities_arg, metavar="LIST")
    b.add_argument("--dims", required=True, type=_dims_arg, metavar="MxKxN")
    b.add_argument("--reps", type=_int_arg("reps", 1), default=5, metavar="N")
    b.add_argument("--seed", type=_int_arg("seed", 0), default=0, metavar="N")
    b.add_argument("--out", required=True, metavar="PATH", help="output .irf")
    b.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("gen", help="generate a seeded random dense matrix")
    p.add_argument("--rows", required=True, type=_int_arg("rows", 1), metavar="R")
    p.add_argument("--cols", required=True, type=_int_arg("cols", 1), metavar="C")
    p.add_argument("--seed", type=_int_arg("seed", 0), default=0, metavar="N")
    p.add_argument("--dist", choices=("gaussian", "uniform"), default="gaussian")
    p.add_argument("--out", required=True, metavar="PATH", help="output .dmat")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (HbsError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
