"""Bit-exact file formats: DMAT (dense), HBSF (block sparse), HBS-IRF (text).

DMAT layout: magic ``DMAT``, then version, rows, cols as little-endian
uint32, then rows*cols float32 little-endian values in row-major order.
Total length is exactly 16 + 4*rows*cols bytes.

HBSF layout: magic ``HBSF``, then version, rows, cols, levelCount as
little-endian uint32. Each level is bh, bw, keptCount (uint32), followed by
keptCount records of (gr: uint32, gc: uint32, bh*bw float32 tile,
row-major), sorted ascending by gr*gridCols+gc. A decoded matrix must pass
validation. An invalid matrix cannot be built, so every matrix is
writable and every well-formed file round-trips byte for byte.

HBS-IRF layout: ASCII lines. Header ``HBS-IRF v1 <calibrated|analytic>``,
then one ``bh bw sparsity irf`` line per entry, sparsity written as the
exact bucket fraction, lines sorted by (bh, bw, bucket). The shortest
round-trip float representation keeps canonical files byte-stable.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import (
    BlockShape,
    BlockSparseLevel,
    CheckResult,
    HBSMatrix,
    ValidationReport,
    as_matrix,
)
from .errors import (
    FormatError,
    MagicError,
    TruncatedError,
    ValidationError,
    VersionError,
)
from .perf import (
    PROVENANCE_ANALYTIC,
    PROVENANCE_CALIBRATED,
    SPARSITY_BUCKETS,
    IrfTable,
    sparsity_bucket,
)

DMAT_MAGIC = b"DMAT"
HBSF_MAGIC = b"HBSF"
FORMAT_VERSION = 1
IRF_MAGIC = "HBS-IRF"
IRF_VERSION = "v1"
# numpy holds a dtype's size in a C int, so a block record (two uint32
# coordinates and a bh*bw float32 tile) may not exceed this many bytes.
_MAX_RECORD_BYTES = 2**31 - 1


class _Cursor:
    """Sequential reader over an in-memory file with truncation errors."""

    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.path = path
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        remain = len(self.data) - self.offset
        if remain < n:
            raise TruncatedError(
                f"{self.path}: truncated reading {what}: "
                f"need {n} bytes at offset {self.offset}, {remain} remain"
            )
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def done(self, what: str) -> None:
        remain = len(self.data) - self.offset
        if remain:
            raise FormatError(f"{self.path}: {remain} trailing byte(s) after {what}")


def _check_magic(cur: _Cursor, magic: bytes, name: str) -> None:
    got = cur.take(len(magic), "magic")
    if got != magic:
        raise MagicError(f"{cur.path}: not a {name} file (magic {got!r}, expected {magic!r})")


def _check_version(cur: _Cursor) -> None:
    (version,) = struct.unpack("<I", cur.take(4, "version"))
    if version != FORMAT_VERSION:
        raise VersionError(
            f"{cur.path}: unsupported version {version}, expected {FORMAT_VERSION}"
        )


def write_dmat(path, values) -> None:
    """Write a dense float32 matrix. Stored bits are the input bits."""
    a = as_matrix(values, check_finite=False)
    header = DMAT_MAGIC + struct.pack("<III", FORMAT_VERSION, *a.shape)
    Path(path).write_bytes(header + a.astype("<f4", copy=False).tobytes())


def read_dmat(path) -> np.ndarray:
    """Read a DMAT file into a float32 array, bit for bit.

    Raises:
        MagicError, VersionError, TruncatedError, FormatError: On a
            malformed file, naming the problem.
    """
    path = Path(path)
    cur = _Cursor(path.read_bytes(), path)
    _check_magic(cur, DMAT_MAGIC, "DMAT")
    _check_version(cur)
    rows, cols = struct.unpack("<II", cur.take(8, "dimensions"))
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: non-positive dimensions {rows}x{cols}")
    raw = cur.take(4 * rows * cols, f"{rows}x{cols} float32 values")
    cur.done("values")
    return np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(rows, cols)


def _record_dtype(bh: int, bw: int) -> np.dtype:
    return np.dtype([("gr", "<u4"), ("gc", "<u4"), ("tile", "<f4", (bh, bw))])


def write_hbsf(path, m: HBSMatrix) -> None:
    """Write an HBS matrix. An invalid matrix cannot be built, so every
    matrix is writable."""
    parts = [HBSF_MAGIC, struct.pack("<IIII", FORMAT_VERSION, m.rows, m.cols, m.n_levels)]
    for lv in m.levels:
        parts.append(struct.pack("<III", lv.shape.bh, lv.shape.bw, lv.n_blocks))
        rec = np.zeros(lv.n_blocks, dtype=_record_dtype(lv.shape.bh, lv.shape.bw))
        rec["gr"] = lv.block_rows
        rec["gc"] = lv.block_cols
        rec["tile"] = lv.values
        parts.append(rec.tobytes())
    Path(path).write_bytes(b"".join(parts))


def _tiling_failure(index: int, bh: int, bw: int, rows: int, cols: int):
    detail = f"level {index + 1}: {bh}x{bw} blocks do not tile {rows}x{cols}"
    report = ValidationReport((CheckResult("tiling", False, detail),))
    return ValidationError(report)


def read_hbsf(path) -> HBSMatrix:
    """Read an HBSF file into an HBS matrix, valid by construction.

    Raises:
        MagicError, VersionError, TruncatedError, FormatError: On a
            malformed byte stream.
        ValidationError: When the decoded structure violates an HBS
            invariant, raised by the matrix constructor; its ``report`` is
            the full :class:`~hbs.core.ValidationReport`. A level that does
            not tile the matrix is refused before its records are read,
            with a report holding the tiling check alone.
    """
    path = Path(path)
    cur = _Cursor(path.read_bytes(), path)
    _check_magic(cur, HBSF_MAGIC, "HBSF")
    _check_version(cur)
    rows, cols, level_count = struct.unpack("<III", cur.take(12, "header"))
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: non-positive dimensions {rows}x{cols}")
    levels = []
    for i in range(level_count):
        bh, bw, kept = struct.unpack("<III", cur.take(12, f"level {i + 1} header"))
        if bh < 1 or bw < 1:
            raise FormatError(f"{path}: level {i + 1} has non-positive block shape {bh}x{bw}")
        if rows % bh or cols % bw:
            raise _tiling_failure(i, bh, bw, rows, cols)
        if 8 + 4 * bh * bw > _MAX_RECORD_BYTES:
            raise FormatError(
                f"{path}: level {i + 1} block shape {bh}x{bw} is too large: "
                f"a block record would exceed {_MAX_RECORD_BYTES} bytes"
            )
        # Bounds-check the record payload before allocating for it, so a
        # corrupt keptCount cannot demand a huge buffer.
        rec_dtype = _record_dtype(bh, bw)
        raw = cur.take(kept * rec_dtype.itemsize, f"level {i + 1} block records")
        rec = np.frombuffer(raw, dtype=rec_dtype)
        levels.append(
            BlockSparseLevel(
                BlockShape(bh, bw),
                rows // bh,
                cols // bw,
                rec["gr"],
                rec["gc"],
                rec["tile"],
            )
        )
    cur.done("the last level")
    return HBSMatrix(rows, cols, tuple(levels))


def write_irf(path, table: IrfTable) -> None:
    """Write an IrfTable in canonical form: sorted, shortest float repr."""
    lines = [f"{IRF_MAGIC} {IRF_VERSION} {table.provenance}"]
    for (shape, bucket), irf in sorted(
        table.entries.items(), key=lambda kv: (kv[0][0].bh, kv[0][0].bw, kv[0][1])
    ):
        lines.append(f"{shape.bh} {shape.bw} {bucket / SPARSITY_BUCKETS!r} {irf!r}")
    Path(path).write_bytes("\n".join(lines).encode("ascii") + b"\n")


def read_irf(path) -> IrfTable:
    """Read an HBS-IRF text file.

    Raises:
        MagicError, VersionError, FormatError: On a malformed file.
    """
    path = Path(path)
    lines = path.read_text(encoding="ascii", errors="replace").splitlines()
    for lineno, line in enumerate(lines, 1):
        if "\ufffd" in line:
            raise FormatError(f"{path}:{lineno}: non-ASCII byte, {IRF_MAGIC} files are ASCII")
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise MagicError(f"{path}: empty file, expected an {IRF_MAGIC} header")
    _, header = rows[0]
    fields = header.split()
    if fields[0] != IRF_MAGIC:
        raise MagicError(f"{path}: not an {IRF_MAGIC} file (header starts {fields[0]!r})")
    if len(fields) < 2 or fields[1] != IRF_VERSION:
        got = fields[1] if len(fields) > 1 else "<missing>"
        raise VersionError(f"{path}: unsupported version {got}, expected {IRF_VERSION}")
    if len(fields) != 3 or fields[2] not in (PROVENANCE_CALIBRATED, PROVENANCE_ANALYTIC):
        raise FormatError(
            f"{path}: header must end with 'calibrated' or 'analytic', got {header!r}"
        )
    provenance = fields[2]
    entries: dict[tuple[BlockShape, int], float] = {}
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 'bh bw sparsity irf', got {line!r}")
        try:
            bh, bw = int(parts[0]), int(parts[1])
            sparsity, irf = float(parts[2]), float(parts[3])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: unparsable entry {line!r}") from None
        if bh < 1 or bw < 1:
            raise FormatError(f"{path}:{lineno}: non-positive block shape {bh}x{bw}")
        if not 0.0 <= sparsity <= 1.0:
            raise FormatError(f"{path}:{lineno}: sparsity {sparsity!r} outside [0, 1]")
        if not 0.0 < irf <= 1.0:
            raise FormatError(f"{path}:{lineno}: irf {irf!r} outside (0, 1]")
        key = (BlockShape(bh, bw), sparsity_bucket(sparsity))
        if key in entries:
            raise FormatError(
                f"{path}:{lineno}: duplicate entry for {key[0]} bucket {key[1]}"
            )
        entries[key] = irf
    return IrfTable(entries, provenance)
