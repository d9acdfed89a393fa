"""Bit-exact binary file formats, DMAT (dense) and HBSF (block sparse),
and the one file writer, which :func:`hbs.perf.write_irf` uses too.

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

Every write, ``.irf`` text included, rewrites an existing regular file in
place, so the pages the old and new files share are reused rather than
dropped and filled again. The magic goes in as zero bytes first, the file
is cut to the end of the new bytes after the last chunk, and the real
magic is written last. The zero bytes are the first to reach the file, so
once any byte of a write has landed, the file reads only when the write
has finished: a write that stops part-way, by an exception or a killed
process, leaves a file that every reader refuses with ``MagicError``,
never old bytes that read as a matrix or a table. (Nothing is synced, so
after a system crash the pages may persist in any order.) An argument the
writer refuses is refused before the file is opened. Any other
destination, such as a pipe, gets the same bytes in one sequential pass.
"""

from __future__ import annotations

import os
import stat
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
            # np.empty: readinto overwrites the buffer, so nothing zero-fills it.
            buf = np.empty(os.fstat(f.fileno()).st_size, np.uint8)
            buf = buf[: f.readinto(buf)]
            # A pipe has no size, and a file may grow: read what is left.
            rest = f.read()
            if rest:
                buf = np.concatenate((buf, np.frombuffer(rest, np.uint8)))
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


def _header(path: Path, magic: bytes, fields: str, what: str) -> tuple[_Cursor, tuple]:
    """A cursor over ``path`` past its header, and the header's uint32
    ``fields`` after the version, read as ``what``: rows and cols first.
    Raises on a wrong magic or version and on a zero dimension."""
    cur = _Cursor(path)
    got = bytes(cur.take(len(magic), "magic"))
    if got != magic:
        raise MagicError(f"{path}: not a {magic.decode()} file (magic {got!r}, expected {magic!r})")
    (version,) = struct.unpack("<I", cur.take(4, "version"))
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported version {version}, expected {FORMAT_VERSION}")
    dims = struct.unpack(f"<{fields}", cur.take(4 * len(fields), what))
    rows, cols = dims[:2]
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: non-positive dimensions {rows}x{cols}")
    return cur, dims


def _write(path, magic: bytes, chunks) -> None:
    """Write ``magic`` and then each of ``chunks`` to ``path``, in place.

    On a regular file the magic is zero bytes until the file holds
    every chunk and is cut to their end, so an unfinished write never
    leaves a file that reads. Other destinations get one sequential pass.
    """
    # No O_TRUNC: the old file's pages are overwritten, not dropped. The
    # mode is open()'s 0o666 (before the umask), not os.open's 0o777.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
        f.write(bytes(len(magic)) if regular else magic)
        for chunk in chunks:
            f.write(chunk)
        if regular:
            f.truncate()
            f.seek(0)
            f.write(magic)


def write_dmat(path, values) -> None:
    """Write a dense float32 matrix. Stored bits are the input bits.

    An existing file is rewritten in place with its magic written last, so
    a write that stops part-way leaves a file that reads refuse with
    ``MagicError``; a refused ``values`` leaves it untouched. A pipe or
    other non-regular destination gets the bytes in one sequential pass.
    """
    a = as_matrix(values, check_finite=False)
    header = struct.pack("<III", FORMAT_VERSION, *a.shape)
    _write(path, DMAT_MAGIC, (header, a.astype("<f4", copy=False)))


def read_dmat(path) -> np.ndarray:
    """Read a DMAT file into a float32 array, bit for bit.

    Raises:
        MagicError, VersionError, TruncatedError, FormatError: On a
            malformed file, naming the problem.
    """
    cur, (rows, cols) = _header(Path(path), DMAT_MAGIC, "II", "dimensions")
    raw = cur.take(4 * rows * cols, f"{rows}x{cols} float32 values")
    cur.done("values")
    return np.frombuffer(raw, dtype="<f4").astype(np.float32, copy=False).reshape(rows, cols)


def _record_dtype(bh: int, bw: int) -> np.dtype:
    return np.dtype([("gr", "<u4"), ("gc", "<u4"), ("tile", "<f4", (bh, bw))])


def _hbsf_chunks(m: HBSMatrix):
    """The bytes of ``m`` after the magic: the header, then each level's
    header and records, one level's records built at a time."""
    yield struct.pack("<IIII", FORMAT_VERSION, m.rows, m.cols, m.n_levels)
    for lv in m.levels:
        yield struct.pack("<III", lv.shape.bh, lv.shape.bw, lv.n_blocks)
        rec = np.zeros(lv.n_blocks, dtype=_record_dtype(lv.shape.bh, lv.shape.bw))
        rec["gr"] = lv.block_rows
        rec["gc"] = lv.block_cols
        rec["tile"] = lv.values
        yield rec


def write_hbsf(path, m: HBSMatrix) -> None:
    """Write an HBS matrix. An invalid matrix cannot be built, so every
    matrix is writable.

    The file is written as :func:`write_dmat` writes: in place with the
    magic last, a refused ``m`` leaving an existing file untouched.
    """
    _require(m, HBSMatrix, "m")
    _write(path, HBSF_MAGIC, _hbsf_chunks(m))


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
    cur, (rows, cols, level_count) = _header(path, HBSF_MAGIC, "III", "header")
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

