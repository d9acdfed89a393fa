"""Mutation catalogue: small faults planted in ``src/hbs`` that the test
suite must catch.

Run from the repository root, with no arguments::

    python tests/mutants.py

It runs the baseline, then every entry, ``JOBS`` at a time.

Each entry of ``MUTANTS`` is ``(file, old, new, why)``: replace ``old`` by
``new`` in ``src/hbs/<file>``, which breaks what ``why`` says. ``old`` must
match its file exactly once, so the catalogue fails loudly when code moves.
Every mutant runs in its own temporary copy of ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` (``tests/test_readme.py`` reads the
README), with ``python -m pytest -x -q -p no:cacheprovider``.

The unmutated copy must pass first. A mutant counts as killed only when
pytest exits 1 and names a failing test; a collection or usage error is not
a kill (under ``-x`` pytest exits 1 on a collection error too, so the runner
also requires the first failure it names to be a test, not a module).
``test_08_calibrated_speedup_prediction`` is deselected in every run,
because a kill by that timing test would be host noise.

``EQUIVALENT`` lists mutants that change only speed or layout, each with the
reason no test can tell them apart; they run too and are reported, but a
survivor there is expected. The runner prints each mutant's verdict and the
test that killed it, and exits 1 when any other mutant survives (2 when the
baseline fails or an ``old`` string does not match exactly once).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIMING_TEST = "tests/test_acceptance.py::test_08_calibrated_speedup_prediction"
PYTEST = [
    "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", TIMING_TEST,
]
TIMEOUT_S = 600
JOBS = min(2, os.cpu_count() or 1)

MUTANTS = [
    # kernels.py: the block-ELL product and the dense oracle.
    (
        "kernels.py",
        "out3[row] += p @ b64.take(idx, axis=0)",
        "out3[row] = p @ b64.take(idx, axis=0)",
        "a row that runs alone overwrites what earlier levels added to its output rows",
    ),
    (
        "kernels.py",
        "out3[part.ids[base:]] += stacked",
        "out3[part.ids[base:]] = stacked",
        "a part's stacked rows overwrite what earlier parts added to their output rows",
    ),
    (
        "kernels.py",
        "e, w = min(s + step, len(ids)), lens[s]",
        "e, w = min(s + step, len(ids)), lens[-1]",
        "stacked rows are cut to the slab's shortest row and lose their last tiles",
    ),
    (
        "kernels.py",
        "b64[-1] = 0.0",
        "b64[-1] = np.inf",
        "padding multiplies an infinity, and 0 * inf is NaN",
    ),
    (
        "kernels.py",
        "out64 = np.zeros((m.rows, n))",
        "out64 = np.zeros((m.rows, n), np.float32)",
        "levels accumulate in float32, rounding once per level instead of once",
    ),
    (
        "kernels.py",
        "while fine and m.rows % _EXEC_BH == 0 and _EXEC_BH",
        "while fine and _EXEC_BH",
        "a level is padded to 8 rows on a matrix whose rows 8 does not divide",
    ),
    (
        "kernels.py",
        "(lv.block_rows % (eh // bh))[:, None]",
        "(lv.block_rows * 0)[:, None]",
        "every stored block lands at the top of its padded execution block",
    ),
    (
        "kernels.py",
        "src = np.full(padded, m.cols, dtype=np.intp)",
        "src = np.full(padded, m.cols - 1, dtype=np.intp)",
        "padding columns read the last real row of b instead of the zero row",
    ),
    (
        "kernels.py",
        "hi = int(np.searchsorted(descending, -(width // 2)))",
        "hi = int(np.searchsorted(descending, -(width // 4)))",
        "a slab keeps rows of a quarter of its first row's length, so padding may pass the tiles",
    ),
    (
        "kernels.py",
        "        cells = tiles.reshape(-1, eh // bh, bh)\n",
        "        tiles[where] = 0.0\n        cells = tiles.reshape(-1, eh // bh, bh)\n",
        "a tile column that several levels share keeps only its last level's cells",
    ),
    (
        "kernels.py",
        "offset = start - base",
        "offset = start",
        "stacked rows land in the buffer at their place in the whole part, not after the "
        "rows that ran alone",
    ),
    (
        "kernels.py",
        "return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)",
        "return (a @ b).astype(np.float32)",
        "the dense oracle accumulates in float32",
    ),
    (
        "kernels.py",
        "    err[g == w] = 0.0\n",
        "    err[(g == w) & finite] = 0.0\n",
        "equal infinities compare as an infinite error",
    ),
    # core.py: validation checks.
    (
        "core.py",
        "    flat = rows.view(np.uint64) * np.uint64(grid_cols)\n"
        "    flat += cols.view(np.uint64)\n",
        "    flat = rows * np.int64(grid_cols)\n    flat += cols\n",
        "row-major block keys are int64 and wrap past 2^63 on the largest grids",
    ),
    (
        "core.py",
        "k = int(np.argmax(hit))",
        "k = len(hit) - 1 - int(np.argmax(hit[::-1]))",
        "the last shared block is reported instead of the first",
    ),
    (
        "core.py",
        'if any(faults):\n            faults.append("not evaluated',
        'if faults[0] or faults[2]:\n            faults.append("not evaluated',
        "disjointness is judged on a hierarchy whose shapes do not divide",
    ),
    (
        "core.py",
        "unsorted = flat[1:] <= flat[:-1]",
        "unsorted = flat[1:] < flat[:-1]",
        "duplicated blocks pass the blocks check",
    ),
    (
        "core.py",
        "unsorted = flat[1:] <= flat[:-1]",
        "unsorted = (br[1:] < br[:-1]) | (flat[1:] == flat[:-1])",
        "block order is judged on block rows only, so columns may run backwards",
    ),
    (
        "core.py",
        "bad = (br < 0) | (br >= lv.grid_rows) | (bc < 0) | (bc >= lv.grid_cols)",
        "bad = (br < 0) | (br >= lv.grid_rows) | (bc >= lv.grid_cols)",
        "a negative block column passes the blocks check",
    ),
    (
        "core.py",
        'kind = "table" if int(flat[-1] - flat[0]) < table_cap else None',
        'kind = "table"',
        "the overlap lookup table spans any range, so a huge sparse grid allocates per block",
    ),
    (
        "core.py",
        "r, c = min(owners)",
        "r, c = max(owners)",
        "the last shared cell is reported instead of the first",
    ),
    (
        "core.py",
        "if lv.rows != m.rows or lv.cols != m.cols:",
        "if lv.rows != m.rows:",
        "a level whose grid does not cover the matrix's columns passes the tiling check",
    ),
    (
        "core.py",
        "            raise ValidationError(ValidationReport(tuple(checks)))",
        "            pass",
        "an invalid matrix is built",
    ),
    (
        "core.py",
        '    _require(m, HBSMatrix, "m")\n    return _PASSED',
        '    _require(m, HBSMatrix, "m")\n    return ValidationReport(_PASSED.checks)',
        "validate builds a new report per call instead of returning the one passing report",
    ),
    (
        "core.py",
        "return coarser.bh % self.bh == 0 and coarser.bw % self.bw == 0",
        "return coarser.bh % self.bh == 0",
        "divisibility is judged on rows only",
    ),
    (
        "core.py",
        "if total > 1.0 + _DENSITY_SLACK:",
        "if total > 1.5:",
        "a config whose densities sum past 1 is accepted",
    ),
    (
        "core.py",
        "if not 0.0 <= v <= 1.0:",
        "if not 0.0 <= v:",
        "a sparsity above 1 is accepted",
    ),
    (
        "core.py",
        "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
        "if not isinstance(value, (int, np.integer)):",
        "True passes for the integer 1",
    ),
    (
        "core.py",
        "if low is not None and v < low:",
        "if low is not None and v < low - 1:",
        "an integer one below its bound is accepted",
    ),
    (
        "core.py",
        'if text.isascii() and "_" not in text:',
        "if text.isascii():",
        "number text with digit-group underscores parses",
    ),
    (
        "core.py",
        "arr.max() >= 2**63",
        "arr.max() > 2**63",
        "a uint64 coordinate of exactly 2^63 wraps to a negative int64",
    ),
    (
        "core.py",
        'arr = np.array(values, dtype=dtype, order="C")',
        'arr = np.asarray(values, dtype=dtype, order="C")',
        "a level shares and freezes its caller's arrays instead of copying them",
    ),
    (
        "core.py",
        "        _scatter(out, lv, lv.values)\n    return out\n",
        "        _scatter(out, lv, lv.values)\n    return out + np.float32(0.0)\n",
        "the reconstruction turns -0.0 into +0.0",
    ),
    # core.py: selection of the k largest keys.
    (
        "core.py",
        "keep = keys >= cut",
        "keep = keys > cut",
        "keys equal to the cut are never kept",
    ),
    (
        "core.py",
        "keep[ties[ties.size - extra :]] = False",
        "keep[ties[:extra]] = False",
        "ties at the cut go to the last index instead of the first",
    ),
    (
        "core.py",
        "if k <= 0:",
        "if k < 0:",
        "selecting nothing partitions past the end of the keys",
    ),
    (
        "core.py",
        'return _top_mask(values.view(f"i{values.itemsize}"), k)',
        'return _top_mask(values.view(f"u{values.itemsize}"), k)',
        "floats rank as unsigned bit patterns, so an owned block's or cell's -inf ranks first",
    ),
    # pruning.py: ranking and the hierarchy.
    (
        "pruning.py",
        "kept = np.flatnonzero(_top_magnitudes(scores, min(want, free)))",
        "kept = np.flatnonzero(_top_magnitudes(scores, want))",
        "without the supply cap a level keeps blocks an earlier level owns",
    ),
    (
        "pruning.py",
        "scores = cells[:, first[0], :, first[1]].astype(np.float64)",
        "scores = cells[:, first[0], :, first[1]].copy()",
        "block sums accumulate in float32: scores round and no longer fill int64 keys",
    ),
    (
        "pruning.py",
        "_scatter(mag, levels[-1], -np.inf)",
        "_scatter(mag, levels[-1], 0.0)",
        "kept cells drop out as 0 instead of -inf, so a later level may keep them again",
    ),
    (
        "pruning.py",
        "return int(math.floor(x + 0.5))",
        "return int(math.ceil(x - 0.5))",
        "keep counts round halves down",
    ),
    # analysis.py: retention.
    (
        "analysis.py",
        "mags = np.abs(a.ravel())",
        "mags = a.ravel()",
        "retention ranks signed values, not magnitudes",
    ),
    (
        "analysis.py",
        "mags = np.abs(a.ravel())",
        "mags = np.where(a.ravel() < 0, -a.ravel(), a.ravel())",
        "-0.0 keeps its sign bit and ranks as a negative key",
    ),
    (
        "analysis.py",
        "sizes.append(math.ceil(Fraction(repr(p)) * total))",
        "sizes.append(math.ceil(Fraction(p) * total))",
        "top-set sizes come from the float's binary value, not its shortest repr",
    ),
    (
        "analysis.py",
        "if not 0.0 < p <= 1.0:",
        "if not 0.0 <= p <= 1.0:",
        "a zero percentile is accepted",
    ),
    # perf.py: the irf table and its file format.
    (
        "perf.py",
        "if not 0.0 < irf <= 1.0:",
        "if not 0.0 <= irf <= 1.0:",
        "an irf of 0 is accepted",
    ),
    (
        "perf.py",
        "nearest = min(buckets, key=lambda b: (abs(b - want), b))",
        "nearest = min(buckets, key=lambda b: (abs(b - want), -b))",
        "lookup ties go to the upper bucket",
    ),
    (
        "perf.py",
        "return round_half_up(sparsity * SPARSITY_BUCKETS)",
        "return round_half_up(sparsity * SPARSITY_BUCKETS - 0.5)",
        "sparsity buckets truncate instead of rounding half up",
    ),
    (
        "perf.py",
        "{b / SPARSITY_BUCKETS!r}",
        "{b / SPARSITY_BUCKETS:g}",
        "written bucket fractions lose digits, so files are not byte-stable",
    ),
    (
        "perf.py",
        "        except ValueError as e:\n",
        "        except TypeError as e:\n",
        "a bad .irf entry escapes as ValueError instead of FormatError",
    ),
    (
        "perf.py",
        'if "\\ufffd" in line:',
        'if "\\ufffd" in line[:0]:',
        "the .irf ASCII check is dropped",
    ),
    (
        "perf.py",
        "    if not rows:\n",
        "    if not lines:\n",
        "a .irf file of blank lines is not reported as empty",
    ),
    (
        "perf.py",
        'raise MagicError(f"{path}: empty file',
        'raise FormatError(f"{path}: empty file',
        "an empty .irf is a FormatError, not a MagicError",
    ),
    (
        "perf.py",
        "if fields[0] != IRF_MAGIC:",
        "if fields[0] != IRF_MAGIC and fields[0] != 'IRF':",
        "a .irf header starting IRF passes the magic check",
    ),
    (
        "perf.py",
        "if len(fields) < 2 or fields[1] != IRF_VERSION:",
        "if len(fields) < 2:",
        "the .irf version check is dropped",
    ),
    (
        "perf.py",
        "if len(fields) != 3 or fields[2] not in _PROVENANCES:",
        "if len(fields) != 3:",
        "an unknown .irf provenance escapes as ValueError instead of FormatError",
    ),
    (
        "perf.py",
        "if len(parts) != 4:",
        "if len(parts) < 4:",
        "a .irf entry line with extra fields is accepted",
    ),
    (
        "perf.py",
        "if key in entries:",
        "if key in entries and key[1] == 0:",
        "a duplicate .irf entry overwrites the first",
    ),
    (
        "perf.py",
        "_write(path, magic, (text[len(magic) :],))",
        '_write(path, b"", (text,))',
        "the .irf magic goes in first with the text, so an unfinished rewrite can read as a table",
    ),
    (
        "perf.py",
        '    _require(table, IrfTable, "table")\n',
        "",
        "write_irf given a non-table raises AttributeError instead of a named ValueError",
    ),
    # io.py: binary file checks.
    (
        "io.py",
        "if got != magic:",
        "if got[:1] != magic[:1]:",
        "the magic is judged on its first byte only",
    ),
    (
        "io.py",
        "if version != FORMAT_VERSION:",
        "if version == 0:",
        "a binary file of an unknown version is read",
    ),
    (
        "io.py",
        "if rows < 1 or cols < 1:",
        "if rows < 1 and cols < 1:",
        "a file with one zero dimension passes the header check",
    ),
    (
        "io.py",
        "if bh < 1 or bw < 1:",
        "if bw < 1:",
        "a .hbsf level with block height 0 is not a FormatError",
    ),
    (
        "io.py",
        "if 8 + 4 * bh * bw > _MAX_RECORD_BYTES:",
        "if 4 * bh * bw > _MAX_RECORD_BYTES:",
        "the record-size bound forgets the 8 coordinate bytes",
    ),
    (
        "io.py",
        "if remain < n:",
        "if remain < 0:",
        "a truncated binary file is not a TruncatedError",
    ),
    (
        "io.py",
        "if remain < n:",
        "if remain + 1 < n:",
        "a binary file one byte short is not a TruncatedError",
    ),
    (
        "io.py",
        "if remain:\n",
        "if remain > 1:\n",
        "one trailing byte after a binary file passes",
    ),
    (
        "io.py",
        "-(-rows // bh),\n                -(-cols // bw),",
        "rows // bh,\n                cols // bw,",
        "a .hbsf level taller than the matrix gets an empty grid instead of a tiling failure",
    ),
    (
        "io.py",
        'np.frombuffer(raw, dtype="<f4").astype(np.float32, copy=False).reshape(rows, cols)',
        '(np.frombuffer(raw, dtype="<f4").astype(np.float32) + np.float32(0.0)).reshape(rows, cols)',
        "a .dmat read loses -0.0 and NaN payload bits",
    ),
    # io.py: the in-place writer.
    (
        "io.py",
        "f.write(bytes(len(magic)) if regular else magic)",
        "f.write(magic)",
        "the real magic goes in first, so an unfinished rewrite can read as a matrix",
    ),
    (
        "io.py",
        "f.truncate()\n            f.seek(0)",
        "f.seek(0)",
        "a rewrite over a longer file leaves the old file's tail after the new bytes",
    ),
    (
        "io.py",
        "regular = stat.S_ISREG(",
        "regular = not stat.S_ISREG(",
        "regular files take the sequential pass and keep old tails; pipes are cut and sought",
    ),
]

EQUIVALENT = [
    (
        "kernels.py",
        "_GATHER_BYTES = 128 * 1024",
        "_GATHER_BYTES = 64 * 1024",
        "the gather budget only moves the line between stacked and alone rows, "
        "and both give products within the oracle bound",
    ),
    (
        "kernels.py",
        "if step < 2:",
        "if step < 1:",
        "a stack of one row is the same GEMM as that row run alone, cut to the row's own "
        "length; only where its sum waits before it lands differs, in the part's buffer",
    ),
    (
        "kernels.py",
        'order = np.argsort(-lens, kind="stable")',
        'order = np.argsort(-lens, kind="quicksort")',
        "rows of equal length may trade places within a slab; each row's sum "
        "still lands on its own output rows",
    ),
    (
        "core.py",
        "hit = np.isin(ancestors, flat, kind=kind)",
        "hit = np.isin(ancestors, flat)",
        "numpy then picks the table or the sort itself; the answer is the same, "
        "only time and memory differ",
    ),
    (
        "kernels.py",
        "b64[-1] = 0.0",
        "b64[-1] = 1.0",
        "padding columns meet only +0.0 tiles, and 0.0 * 1.0 adds +0.0; "
        "np.inf there is caught",
    ),
]


def apply(tree: Path, mutant) -> None:
    """Apply ``mutant`` to the copy of ``src/hbs`` under ``tree``."""
    file, old, new, _ = mutant
    path = tree / "src" / "hbs" / file
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(old, new), encoding="utf-8")


def mismatches(entries) -> list[str]:
    """One line per entry whose ``old`` does not match its file exactly once."""
    bad = []
    for label, (file, old, _, why), _ in entries:
        count = (ROOT / "src" / "hbs" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            bad.append(f"{label} {file} ({why}): matches {count} times")
    return bad


def run(mutant=None) -> tuple[int, str, float]:
    """pytest's exit code and output on a fresh copy, mutated if given,
    and the run's wall time in seconds."""
    with tempfile.TemporaryDirectory(prefix="hbs-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=ignore)
            else:
                shutil.copy2(src, tree / name)
        if mutant is not None:
            apply(tree, mutant)
        env = {
            **os.environ,
            "PYTHONPATH": str(tree / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *PYTEST], cwd=tree, env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -1, f"timed out after {TIMEOUT_S} s", time.perf_counter() - t0
        return proc.returncode, proc.stdout + proc.stderr, time.perf_counter() - t0


def verdict(code: int, output: str) -> tuple[str, str]:
    """``("killed", test)`` when pytest exited 1 and the first failure in its
    short summary is a test; otherwise ``"survived"`` or ``"not killed"``
    and the reason."""
    if code == 0:
        return "survived", ""
    failures = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if code == 1 and failures and "::" in failures[0]:
        return "killed", failures[0]
    if code == 1 and failures:
        return "not killed", f"collection error in {failures[0]}"
    last = output.strip().splitlines()[-1:] or [""]
    return "not killed", f"pytest exited {code}: {last[0]}"


def main() -> int:
    entries = [(str(i), m, False) for i, m in enumerate(MUTANTS, 1)]
    entries += [(f"E{i}", m, True) for i, m in enumerate(EQUIVALENT, 1)]
    bad = mismatches(entries)
    if bad:
        print("replacements that do not match exactly once:", *bad, sep="\n  ")
        return 2

    t0 = time.perf_counter()
    code, output, seconds = run()
    if code != 0:
        print(output)
        print(f"baseline: pytest exited {code} on the unmutated copy; nothing to judge")
        return 2
    print(f"baseline: passed in {seconds:.1f} s", flush=True)

    def judge(entry):
        code, output, seconds = run(entry[1])
        return (*verdict(code, output), seconds)

    survivors, killed = [], 0
    with ThreadPoolExecutor(JOBS) as pool:
        for (label, mutant, equivalent), (outcome, detail, seconds) in zip(
            entries, pool.map(judge, entries)
        ):
            file, _, _, why = mutant
            killed += outcome == "killed"
            if outcome != "killed" and not equivalent:
                survivors.append(label)
            tag = f"{outcome} (equivalent)" if equivalent else outcome
            print(f"{label:>3} {tag:<21} {seconds:5.1f} s  {file}: {why}", flush=True)
            if detail:
                print(f"{'':25}{detail}", flush=True)

    print(
        f"{len(entries)} mutants: {killed} killed, "
        f"{len(survivors)} survivors outside the equivalent list"
        f"{': ' + ', '.join(survivors) if survivors else ''}; "
        f"{time.perf_counter() - t0:.0f} s in all"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
