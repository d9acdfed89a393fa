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
README), with ``python -m pytest -x -q -p no:cacheprovider``: first on the
tests that ``tests/killsets.json`` records as the entry's killers, then, when
none of them fails or the record is missing or no longer names the entry's
``why``, on the whole suite.

The unmutated copy must pass first. A mutant counts as killed only when
pytest exits 1 and names a failing test; a collection or usage error is not
a kill (under ``-x`` pytest exits 1 on a collection error too, so the runner
also requires the first failure it names to be a test, not a module).
``test_08_calibrated_speedup_prediction`` is deselected in every run,
because a kill by that timing test would be host noise, and
``tests/test_mutants.py`` is left out, because every mutant breaks the match
it checks (the runner checks that match itself before it starts).

``EQUIVALENT`` lists mutants that change only speed or layout, each with the
reason no test can tell them apart; they run too and are reported, but a
survivor there is expected. The runner prints each mutant's verdict and the
test that killed it, and exits 1 when any other mutant survives (2 when the
baseline fails or an ``old`` string does not match exactly once).
"""

from __future__ import annotations

import json
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
CATALOGUE_TEST = "tests/test_mutants.py"
PYTEST = [
    "-m", "pytest", "-q", "-p", "no:cacheprovider",
    "--deselect", TIMING_TEST, "--ignore", CATALOGUE_TEST,
]
KILLSETS = ROOT / "tests" / "killsets.json"
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
        "e, w = min(s + step, len(lens)), lens[s]",
        "e, w = min(s + step, len(lens)), lens[-1]",
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
        "row_starts[order] = starts",
        "row_starts[:] = starts",
        "rows' padded columns are laid out in block row order, not the slabs' longest-first "
        "order, so rows land in other rows' places",
    ),
    (
        "kernels.py",
        "at = np.repeat(row_starts - first, lens)",
        "at = np.repeat(row_starts, lens)",
        "each tile column lands past its row's start by the row's place among all tile "
        "columns, not within its row",
    ),
    (
        "kernels.py",
        "cells = sum(int(s.lens.sum()) for s in part.slabs) * part.shape.bh",
        "cells = sum(int(s.lens.sum()) for s in part.slabs)",
        "executed FLOPs count tile columns, not the cells of their execution blocks",
    ),
    (
        "kernels.py",
        "packed_cells = sum(s.tiles.size for s in part.slabs)",
        "packed_cells = sum(s.src.size for s in part.slabs)",
        "the padding share divides by packed tile columns instead of packed cells",
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
        'if text.isascii() and text.isprintable() and "_" not in text:',
        'if text.isascii() and text.isprintable():',
        "number text with digit-group underscores parses",
    ),
    (
        "core.py",
        'if text.isascii() and text.isprintable() and "_" not in text:',
        'if text.isascii() and "_" not in text:',
        "number text with a control character around it parses as its number",
    ),
    (
        "core.py",
        'if arr.dtype.kind != "f" or arr.dtype.itemsize <= 4:',
        'if arr.dtype.kind != "f" or arr.dtype.itemsize <= 8:',
        "a finite float64 beyond float32's range becomes an infinity",
    ),
    (
        "core.py",
        "wide = arr[np.isinf(out) & np.isfinite(arr)]",
        "wide = arr[np.isinf(out)]",
        "an infinity in a float64 input is refused as beyond float32's range",
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
    # pruning.py: selection of the k highest scores.
    (
        "pruning.py",
        "keep = keys >= cut",
        "keep = keys > cut",
        "scores equal to the cut are never kept",
    ),
    (
        "pruning.py",
        "keep[ties[ties.size - extra :]] = False",
        "keep[ties[:extra]] = False",
        "ties at the cut go to the last index instead of the first",
    ),
    (
        "pruning.py",
        "if k <= 0:",
        "if k < 0:",
        "selecting nothing partitions past the end of the scores",
    ),
    (
        "pruning.py",
        'keys = scores.view(f"i{scores.itemsize}")',
        'keys = scores.view(f"u{scores.itemsize}")',
        "scores rank as unsigned bit patterns, so an owned block's or cell's -inf ranks first",
    ),
    (
        "pruning.py",
        "cut = max(np.partition(keys, n - k)[n - k], 0) if k < n else 0",
        "cut = np.partition(keys, n - k)[n - k] if k < n else 0",
        "without the clamp at key 0 a level short of free blocks keeps blocks an earlier "
        "level owns",
    ),
    # pruning.py: ranking and the hierarchy.
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
        "tagged = np.left_shift(a.ravel().view(np.uint32), 1)",
        "tagged = np.left_shift(a.ravel().view(np.uint32), 0)",
        "retention ranks signed bits: negative cells outrank positive ones, "
        "and the tag overwrites the last mantissa bit",
    ),
    (
        "analysis.py",
        "tagged = np.left_shift(a.ravel().view(np.uint32), 1)",
        "tagged = np.left_shift(a.ravel().view(np.uint32), 1) | (a.ravel().view(np.uint32) >> 31)",
        "the key keeps the sign bit in its tag bit: -0.0 outranks +0.0, "
        "and every negative cell counts as covered",
    ),
    (
        "analysis.py",
        "tagged |= support",
        "tagged |= ~support",
        "the tag marks the cells the support leaves out",
    ),
    (
        "analysis.py",
        "for size in sorted(set(sizes), reverse=True):",
        "for size in sorted(set(sizes)):",
        "sizes are cut smallest first, so a larger top set is cut inside a smaller one",
    ),
    (
        "analysis.py",
        "if pos and below >> 1 == int(tagged[pos]) >> 1:",
        "if pos and below == int(tagged[pos]):",
        "the tie test compares tagged keys: an uncovered cell below the cut at the "
        "cut's magnitude no longer sends the top set to the index-order fallback",
    ),
    (
        "analysis.py",
        "support[at_cut][:ties]",
        "support[at_cut][-ties:]",
        "ties at the cut go to the later cells",
    ),
    (
        "analysis.py",
        "at_cut = (flat == mag) | (flat == -mag)",
        "at_cut = flat == mag",
        "negative cells at the cut's magnitude are left out of the index-order ties",
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
        'stripped = (ln.removesuffix("\\r").strip(" \\t") for ln in lines)',
        "stripped = (ln.strip() for ln in lines)",
        "control characters around a .irf line are stripped as blanks",
    ),
    (
        "perf.py",
        '_BLANKS = re.compile(r"[ \\t]+")',
        '_BLANKS = re.compile(r"\\s+")',
        "control characters split .irf fields like spaces",
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
    # kernels.py, perf.py and cli.py: the product that runs, the cost model's view of
    # it, calibration's timing floor and the oracle's report.
    (
        "kernels.py",
        "return plan > dense",
        "return plan < dense",
        "the dense product runs where the plan wins, and the plan where it loses",
    ),
    (
        "kernels.py",
        "cells += lv.n_blocks * lv.shape.bw * (eh + _GATHER_CELLS)",
        "cells += lv.n_blocks * lv.shape.bw * eh",
        "the rule charges nothing for gathering b, so the plan runs where its gathers lose",
    ),
    (
        "kernels.py",
        "eh = _EXEC_BH if i >= fine else lv.shape.bh",
        "eh = lv.shape.bh",
        "the rule counts a padded level's cells as stored, not as the 8-row tiles that run",
    ),
    (
        "kernels.py",
        "        dense.flags.writeable = False\n",
        "",
        "the kept dense form is writable, so a caller can change the matrix's products",
    ),
    (
        "perf.py",
        "from .kernels import _plan_product, dense_matmul",
        "from .kernels import hbs_matmul as _plan_product, dense_matmul",
        "calibrate_irf times hbs_matmul, which runs densely where the plan loses, so irf "
        "is no longer the sparse kernel's efficiency",
    ),
    (
        "perf.py",
        "c_run = min(c_sparse, c_dense)",
        "c_run = c_sparse",
        "the estimate's speedup is the plan's where the model finds the dense product cheaper",
    ),
    (
        "perf.py",
        "if med < floor:",
        "if med < 0.0:",
        "calibration turns a timing below the measurable floor into an irf entry",
    ),
    (
        "cli.py",
        'runs = "dense" if _runs_dense(m, n) else "plan"',
        'runs = "plan" if _runs_dense(m, n) else "dense"',
        "matmul --oracle names the product that does not run",
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


def run(mutant=None, args=()) -> tuple[int, str, float]:
    """pytest's exit code and output on a fresh copy, mutated if given, with
    ``args`` after ``PYTEST``'s, and the run's wall time in seconds."""
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
                [sys.executable, *PYTEST, *args], cwd=tree, env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -1, f"timed out after {TIMEOUT_S} s", time.perf_counter() - t0
        return proc.returncode, proc.stdout + proc.stderr, time.perf_counter() - t0


def failures(output: str) -> list[str]:
    """The tests and modules that pytest's short summary names as failed or
    in error, in its order."""
    return [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


def verdict(code: int, output: str) -> tuple[str, str]:
    """``("killed", test)`` when pytest exited 1 and the first failure in its
    short summary is a test; otherwise ``"survived"`` or ``"not killed"``
    and the reason."""
    if code == 0:
        return "survived", ""
    named = failures(output)
    if code == 1 and named and "::" in named[0]:
        return "killed", named[0]
    if code == 1 and named:
        return "not killed", f"collection error in {named[0]}"
    last = output.strip().splitlines()[-1:] or [""]
    return "not killed", f"pytest exited {code}: {last[0]}"


def labelled() -> list:
    """``(label, mutant, equivalent)`` for every entry: ``MUTANTS`` numbered
    from 1, then ``EQUIVALENT`` as ``E1``, ``E2``, ..."""
    entries = [(str(i), m, False) for i, m in enumerate(MUTANTS, 1)]
    return entries + [(f"E{i}", m, True) for i, m in enumerate(EQUIVALENT, 1)]


def recorded_killers(entries) -> dict[str, list[str]]:
    """The killers ``KILLSETS`` records per label, for each entry whose file
    and ``why`` it still names; empty when there is no record."""
    try:
        record = json.loads(KILLSETS.read_text(encoding="utf-8"))["entries"]
    except FileNotFoundError:
        return {}
    known = {e["label"]: e for e in record}
    return {
        label: known[label]["killers"]
        for label, (file, _, _, why), _ in entries
        if label in known and (known[label]["file"], known[label]["why"]) == (file, why)
    }


def main() -> int:
    entries = labelled()
    bad = mismatches(entries)
    if bad:
        print("replacements that do not match exactly once:", *bad, sep="\n  ")
        return 2
    killers = recorded_killers(entries)

    t0 = time.perf_counter()
    code, output, seconds = run(args=["-x"])
    if code != 0:
        print(output)
        print(f"baseline: pytest exited {code} on the unmutated copy; nothing to judge")
        return 2
    print(f"baseline: passed in {seconds:.1f} s", flush=True)

    def judge(entry):
        label, mutant, _ = entry
        seconds = 0.0
        if killers.get(label):
            code, output, seconds = run(mutant, ["-x", *killers[label]])
            outcome, detail = verdict(code, output)
            if outcome == "killed":
                return outcome, detail, seconds
        code, output, more = run(mutant, ["-x"])
        return (*verdict(code, output), seconds + more)

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
