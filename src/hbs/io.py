"""Bit-exact binary file formats: DMAT (dense) and HBSF (block sparse).

DMAT layout: magic ``DMAT``, then version, rows, cols as little-endian
uint32, then rows*cols float32 little-endian values in row-major order.
Total length is exactly 16 + 4*rows*cols bytes.

HBSF layout: magic ``HBSF``, then version, rows, cols, levelCount as
little-endian uint32. Each level is bh, bw, keptCount (uint32), followed by
keptCount records of (gr: uint32, gc: uint32, bh*bw float32 tile,
row-major), sorted ascending by gr*gridCols+gc. A decoded matrix must pass
validation. An invalid matrix cannot be built, so every matrix is
writable and every well-formed file round-trips byte for byte.

Binary reads take the whole file into one buffer and decode views of it;
a DMAT read returns its values in place in that buffer, a buffer of its
own per read. Binary writes stream the header and then each array's
buffer to the open file, with no intermediate byte strings.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .core import BlockShape, BlockSparseLevel, HBSMatrix, _require, as_matrix
from .errors import FormatError, MagicError, TruncatedError, VersionError

DMAT_MAGIC = b"DMAT"
HBSF_MAGIC = b"HBSF"
FORMAT_VERSION = 1
# numpy holds a dtype's size in a C int, so a block record (two uint32
# coordinates and a bh*bw float32 tile) may not exceed this many bytes.
_MAX_RECORD_BYTES = 2**31 - 1


class _Cursor:
    """Sequential reader over a file read whole into one buffer, with
    truncation errors. ``take`` returns views of that buffer, not copies."""

    def __init__(self, path: Path):
        with open(path, "rb") as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            del buf[f.readinto(buf) :]
            # A pipe has no size, and a file may grow: read what is left.
            buf += f.read()
        self.data = memoryview(buf)
        self.path = path
        self.offset = 0

    def take(self, n: int, what: str) -> memoryview:
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
    got = bytes(cur.take(len(magic), "magic"))
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
    with Path(path).open("wb") as f:
        f.write(DMAT_MAGIC + struct.pack("<III", FORMAT_VERSION, *a.shape))
        f.write(a.astype("<f4", copy=False))


def read_dmat(path) -> np.ndarray:
    """Read a DMAT file into a float32 array, bit for bit.

    Raises:
        MagicError, VersionError, TruncatedError, FormatError: On a
            malformed file, naming the problem.
    """
    path = Path(path)
    cur = _Cursor(path)
    _check_magic(cur, DMAT_MAGIC, "DMAT")
    _check_version(cur)
    rows, cols = struct.unpack("<II", cur.take(8, "dimensions"))
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: non-positive dimensions {rows}x{cols}")
    raw = cur.take(4 * rows * cols, f"{rows}x{cols} float32 values")
    cur.done("values")
    return np.frombuffer(raw, dtype="<f4").astype(np.float32, copy=False).reshape(rows, cols)


def _record_dtype(bh: int, bw: int) -> np.dtype:
    return np.dtype([("gr", "<u4"), ("gc", "<u4"), ("tile", "<f4", (bh, bw))])


def write_hbsf(path, m: HBSMatrix) -> None:
    """Write an HBS matrix. An invalid matrix cannot be built, so every
    matrix is writable."""
    _require(m, HBSMatrix, "m")
    with Path(path).open("wb") as f:
        f.write(HBSF_MAGIC + struct.pack("<IIII", FORMAT_VERSION, m.rows, m.cols, m.n_levels))
        for lv in m.levels:
            f.write(struct.pack("<III", lv.shape.bh, lv.shape.bw, lv.n_blocks))
            rec = np.zeros(lv.n_blocks, dtype=_record_dtype(lv.shape.bh, lv.shape.bw))
            rec["gr"] = lv.block_rows
            rec["gc"] = lv.block_cols
            rec["tile"] = lv.values
            f.write(rec)


def read_hbsf(path) -> HBSMatrix:
    """Read an HBSF file into an HBS matrix, valid by construction.

    Raises:
        MagicError, VersionError, TruncatedError, FormatError: On a
            malformed byte stream.
        ValidationError: When the decoded structure violates an HBS
            invariant, raised by the matrix constructor; its ``report`` is
            the full :class:`~hbs.core.ValidationReport`.
    """
    path = Path(path)
    cur = _Cursor(path)
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
        # A ceiling grid is at least 1x1 and covers the matrix, so a level
        # that does not tile it still builds, and HBSMatrix names it.
        levels.append(
            BlockSparseLevel(
                BlockShape(bh, bw),
                -(-rows // bh),
                -(-cols // bw),
                rec["gr"],
                rec["gc"],
                rec["tile"],
            )
        )
    cur.done("the last level")
    return HBSMatrix(rows, cols, tuple(levels))

