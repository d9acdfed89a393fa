import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hbs.io
from conftest import COPIES, cut_writes, level_of
from hbs import (
    BlockShape,
    DimensionError,
    FormatError,
    HBSConfig,
    HBSMatrix,
    IrfTable,
    MagicError,
    TruncatedError,
    ValidationError,
    VersionError,
    prune_hierarchical,
    read_dmat,
    read_hbsf,
    read_irf,
    reconstruct,
    write_dmat,
    write_hbsf,
    write_irf,
)

GOLDEN_DMAT_1X1_7 = bytes.fromhex("444d41540100000001000000010000000000e040")
IRF_HEADER = b"HBS-IRF v1 analytic\n"


def dmat_bytes(rows, cols, values, *, magic=b"DMAT", version=1):
    head = magic + struct.pack("<III", version, rows, cols)
    return head + np.asarray(values, "<f4").tobytes()


def hbsf_bytes(rows, cols, levels, *, magic=b"HBSF", version=1, level_count=None):
    if level_count is None:
        level_count = len(levels)
    parts = [magic, struct.pack("<IIII", version, rows, cols, level_count)]
    for bh, bw, blocks in levels:
        parts.append(struct.pack("<III", bh, bw, len(blocks)))
        for gr, gc, tile in blocks:
            parts.append(struct.pack("<II", gr, gc))
            parts.append(np.asarray(tile, "<f4").tobytes())
    return b"".join(parts)


def refused(tmp_path, data, read, error, match=None):
    """The ``error`` that ``read`` raises on ``tmp_path / "damaged"`` holding ``data``."""
    p = tmp_path / "damaged"
    p.write_bytes(data)
    with pytest.raises(error, match=match) as exc:
        read(p)
    return exc.value


class TestDmat:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3), dtype=np.float32)
        a[0, 0] = -0.0
        a[1, 1] = np.float32("nan")
        a[2, 2] = np.float32("inf")
        p = tmp_path / "a.dmat"
        write_dmat(p, a)
        assert p.stat().st_size == 16 + 4 * a.size
        back = read_dmat(p)
        assert back.dtype == np.float32
        assert (back.view(np.uint32) == a.view(np.uint32)).all()

    def test_golden_bytes(self, tmp_path):
        p = tmp_path / "seven.dmat"
        write_dmat(p, np.array([[7.0]], dtype=np.float32))
        assert p.read_bytes() == GOLDEN_DMAT_1X1_7
        assert read_dmat(p)[0, 0] == 7.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_dmat(tmp_path / "nope.dmat")

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_reads_a_pipe(self):
        r, w = os.pipe()
        os.write(w, GOLDEN_DMAT_1X1_7)
        os.close(w)
        try:
            assert read_dmat(f"/dev/fd/{r}").tolist() == [[7.0]]
        finally:
            os.close(r)

    def test_read_returns_a_private_writeable_array(self, tmp_path):
        p = tmp_path / "a.dmat"
        write_dmat(p, np.arange(6, dtype=np.float32).reshape(2, 3))
        first, second = read_dmat(p), read_dmat(p)
        for a in (first, second):
            assert a.dtype == np.float32 and a.shape == (2, 3)
            assert a.flags.writeable and a.flags.c_contiguous
        assert not np.shares_memory(first, second)
        first[0, 0] = 9.0
        assert second[0, 0] == 0.0 and read_dmat(p)[0, 0] == 0.0


def sample_hbs(seed=9):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8), dtype=np.float32)
    m, _ = prune_hierarchical(a, HBSConfig.of((4, 2, 0.5), (2, 2, 0.75), (1, 1, 0.875)))
    return m


class TestHbsf:
    def test_round_trip_bytes_and_values(self, tmp_path):
        m = sample_hbs()
        p1, p2 = tmp_path / "a.hbsf", tmp_path / "b.hbsf"
        write_hbsf(p1, m)
        back = read_hbsf(p1)
        write_hbsf(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        g, w = reconstruct(m), reconstruct(back)
        assert (g.view(np.uint32) == w.view(np.uint32)).all()

    def test_matches_independent_encoder(self, tmp_path):
        lv = level_of(
            BlockShape(1, 2), 2, 1, [(0, 0, [[1.5, -0.0]]), (1, 0, [[0.25, 8.0]])]
        )
        m = HBSMatrix(2, 2, (lv,))
        p = tmp_path / "m.hbsf"
        write_hbsf(p, m)
        want = hbsf_bytes(
            2, 2, [(1, 2, [(0, 0, [[1.5, -0.0]]), (1, 0, [[0.25, 8.0]])])]
        )
        assert p.read_bytes() == want

    def test_no_levels(self, tmp_path):
        p = tmp_path / "empty.hbsf"
        write_hbsf(p, HBSMatrix(4, 4, ()))
        assert p.stat().st_size == 20
        back = read_hbsf(p)
        assert (back.rows, back.cols, back.n_levels) == (4, 4, 0)

    def test_empty_level(self, tmp_path):
        p = tmp_path / "hollow.hbsf"
        p.write_bytes(hbsf_bytes(4, 4, [(2, 2, [])]))
        back = read_hbsf(p)
        assert back.n_levels == 1 and back.levels[0].n_blocks == 0

    def test_empty_and_wide_levels_round_trip_bytes(self, tmp_path):
        tiles = [(0, 1, [[1.5, -0.0]]), (3, 0, [[2.0, -3.0]]), (3, 1, [[4.0, 5.0]])]
        data = hbsf_bytes(4, 4, [(2, 2, []), (1, 2, tiles)])
        p, again = tmp_path / "a.hbsf", tmp_path / "b.hbsf"
        p.write_bytes(data)
        write_hbsf(again, read_hbsf(p))
        assert again.read_bytes() == data

    def test_write_refuses_invalid(self, tmp_path):
        dup = level_of(BlockShape(1, 1), 2, 2, [(0, 0, [[1.0]])])
        p = tmp_path / "bad.hbsf"
        with pytest.raises(ValidationError):
            write_hbsf(p, HBSMatrix(2, 2, (dup, dup)))
        assert not p.exists()

    def test_level_taller_than_matrix(self, tmp_path):
        data = hbsf_bytes(2, 4, [(4, 1, [(0, 3, [[1.0], [2.0], [3.0], [4.0]])])])
        tiling = refused(tmp_path, data, read_hbsf, ValidationError).report.checks[0]
        assert tiling.name == "tiling" and not tiling.passed
        assert tiling.detail == "level 1: 4x1 blocks do not tile 2x4 (a 1x4 grid covers 4x4)"

    # Invalid matrices in well-formed files, each with the first failure its
    # ValidationError names.
    INVALID = {
        "non-tiling-rows": (
            hbsf_bytes(4, 4, [(3, 1, [])]),
            "tiling check failed: level 1: 3x1 blocks do not tile 4x4 (a 2x4 grid covers 6x4)",
        ),
        "non-tiling-cols": (
            hbsf_bytes(4, 4, [(1, 3, [])]),
            "tiling check failed: level 1: 1x3 blocks do not tile 4x4 (a 4x2 grid covers 4x6)",
        ),
        "hierarchy": (
            hbsf_bytes(6, 6, [(2, 2, []), (3, 3, [])]),
            "divisibility check failed: level 2 block 3x3 does not evenly divide "
            "level 1 block 2x2 (2 % 3 != 0 on rows)",
        ),
        "out-of-range": (
            hbsf_bytes(2, 2, [(1, 1, [(0, 5, [[1.0]])])]),
            "blocks check failed: level 1: block (0,5) outside 2x2 grid",
        ),
        "unsorted": (
            hbsf_bytes(2, 2, [(1, 1, [(1, 1, [[1.0]]), (0, 0, [[2.0]])])]),
            "blocks check failed: level 1: blocks unsorted or duplicated at (0,0)",
        ),
        "duplicate": (
            hbsf_bytes(2, 2, [(1, 1, [(0, 0, [[1.0]]), (0, 0, [[2.0]])])]),
            "blocks check failed: level 1: blocks unsorted or duplicated at (0,0)",
        ),
        "overlap": (
            hbsf_bytes(2, 2, [(2, 2, [(0, 0, np.ones((2, 2)))]), (1, 1, [(0, 0, [[3.0]])])]),
            "disjointness check failed: cell (0,0) covered by levels 1, 2",
        ),
    }

    @pytest.mark.parametrize("case", list(INVALID))
    def test_invalid_matrix_names_first_failure(self, tmp_path, case):
        data, message = self.INVALID[case]
        assert str(refused(tmp_path, data, read_hbsf, ValidationError)) == message

    def test_huge_kept_count_is_truncation(self, tmp_path):
        head = b"HBSF" + struct.pack("<IIII", 1, 4, 4, 1)
        head += struct.pack("<III", 2, 2, 0xFFFFFFFF)
        refused(tmp_path, head, read_hbsf, TruncatedError, "block records")

    def test_huge_matrix_without_levels(self, tmp_path):
        # 20 bytes declaring a 2^31 x 2^31 matrix: validation must not
        # allocate per cell when no two levels can overlap.
        p = tmp_path / "x.hbsf"
        p.write_bytes(hbsf_bytes(2**31, 2**31, []))
        back = read_hbsf(p)
        assert (back.rows, back.cols, back.n_levels) == (2**31, 2**31, 0)

    def test_huge_matrix_with_disjoint_levels(self, tmp_path):
        # 68 bytes: two 1x1 levels with one block each on a 2^31 x 2^31
        # matrix. Disjointness is checked on block indices, not per cell.
        p = tmp_path / "x.hbsf"
        levels = [(1, 1, [(0, 0, [[1.0]])]), (1, 1, [(5, 7, [[2.0]])])]
        p.write_bytes(hbsf_bytes(2**31, 2**31, levels))
        assert p.stat().st_size == 68
        back = read_hbsf(p)
        assert [lv.n_blocks for lv in back.levels] == [1, 1]

    def test_huge_matrix_with_overlapping_levels(self, tmp_path):
        last = 2**31 - 1
        levels = [(1, 1, [(last, last, [[1.0]])]), (1, 1, [(last, last, [[2.0]])])]
        err = refused(tmp_path, hbsf_bytes(2**31, 2**31, levels), read_hbsf, ValidationError)
        assert f"cell ({last},{last}) covered by levels 1, 2" in str(err)

    def test_largest_grid_block_order(self, tmp_path):
        # On a (2^32-1)^2 grid the second block's row-major index passes
        # 2^63: order must not be judged on a wrapped int64 key.
        n = 2**32 - 1
        p, q = tmp_path / "x.hbsf", tmp_path / "y.hbsf"
        p.write_bytes(hbsf_bytes(n, n, [(1, 1, [(0, 0, [[1.0]]), (2**31 + 1, 0, [[2.0]])])]))
        back = read_hbsf(p)
        assert back.levels[0].block_rows.tolist() == [0, 2**31 + 1]
        write_hbsf(q, back)
        assert q.read_bytes() == p.read_bytes()

    def test_rows_beyond_header_range_refused(self, tmp_path):
        # The header holds rows and cols as uint32, so no such matrix may
        # exist to be written.
        p = tmp_path / "x.hbsf"
        with pytest.raises(ValueError, match="rows must be <= 4294967295, got 4294967296"):
            write_hbsf(p, HBSMatrix(2**32, 1, ()))
        assert not p.exists()

    def test_largest_grid_overlap_allocates_nothing_per_block(self, tmp_path):
        n, r, c = 2**32 - 1, 2**32 - 2, 2**32 - 3
        p = tmp_path / "x.hbsf"
        one = [[1.0]]
        levels = [
            (1, 1, [(0, 0, one), (r, c, one)]),
            (1, 1, [(2**31 + 1, 0, one), (r, c, one)]),
        ]
        p.write_bytes(hbsf_bytes(n, n, levels))
        assert p.stat().st_size == 92
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as exc:
                read_hbsf(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"cell ({r},{c}) covered by levels 1, 2" in str(exc.value)
        assert peak < 2**20

    @pytest.mark.parametrize("bh,bw", [(2**31, 2**31), (2**29 - 2, 1)])
    def test_huge_block_shape(self, tmp_path, bh, bw):
        message = f"level 1 block shape {bh}x{bw} is too large"
        refused(tmp_path, hbsf_bytes(bh, bw, [(bh, bw, [])]), read_hbsf, FormatError, message)

    def test_largest_block_shape(self, tmp_path):
        p = tmp_path / "x.hbsf"
        p.write_bytes(hbsf_bytes(2**29 - 3, 1, [(2**29 - 3, 1, [])]))
        assert read_hbsf(p).levels[0].n_blocks == 0


# Every message a damaged binary file raises, verbatim; ``{p}`` is its path.
DAMAGED = [
    (
        "dmat-magic",
        dmat_bytes(1, 1, [[1.0]], magic=b"XMAT"),
        read_dmat,
        MagicError,
        "{p}: not a DMAT file (magic b'XMAT', expected b'DMAT')",
    ),
    (
        "dmat-version",
        dmat_bytes(1, 1, [[1.0]], version=2),
        read_dmat,
        VersionError,
        "{p}: unsupported version 2, expected 1",
    ),
    (
        "dmat-zero-rows",
        dmat_bytes(0, 3, np.zeros((0, 3))),
        read_dmat,
        FormatError,
        "{p}: non-positive dimensions 0x3",
    ),
    (
        "dmat-header",
        GOLDEN_DMAT_1X1_7[:10],
        read_dmat,
        TruncatedError,
        "{p}: truncated reading dimensions: need 8 bytes at offset 8, 2 remain",
    ),
    (
        "dmat-values",
        dmat_bytes(2, 2, np.ones((2, 2)))[:-3],
        read_dmat,
        TruncatedError,
        "{p}: truncated reading 2x2 float32 values: need 16 bytes at offset 16, 13 remain",
    ),
    (
        "dmat-trailing",
        GOLDEN_DMAT_1X1_7 + b"\x00",
        read_dmat,
        FormatError,
        "{p}: 1 trailing byte(s) after values",
    ),
    (
        "dmat-short-magic",
        b"DM",
        read_dmat,
        TruncatedError,
        "{p}: truncated reading magic: need 4 bytes at offset 0, 2 remain",
    ),
    (
        "hbsf-magic",
        hbsf_bytes(2, 2, [], magic=b"HBSX"),
        read_hbsf,
        MagicError,
        "{p}: not a HBSF file (magic b'HBSX', expected b'HBSF')",
    ),
    (
        "hbsf-version",
        hbsf_bytes(2, 2, [], version=9),
        read_hbsf,
        VersionError,
        "{p}: unsupported version 9, expected 1",
    ),
    (
        "hbsf-zero-rows",
        hbsf_bytes(0, 2, []),
        read_hbsf,
        FormatError,
        "{p}: non-positive dimensions 0x2",
    ),
    (
        "hbsf-zero-block-height",
        hbsf_bytes(4, 4, [(0, 2, [])]),
        read_hbsf,
        FormatError,
        "{p}: level 1 has non-positive block shape 0x2",
    ),
    (
        "hbsf-level-header",
        hbsf_bytes(2, 2, [(1, 1, [])])[:-4],
        read_hbsf,
        TruncatedError,
        "{p}: truncated reading level 1 header: need 12 bytes at offset 20, 8 remain",
    ),
    (
        "hbsf-records",
        hbsf_bytes(2, 2, [(1, 1, [(0, 0, [[1.0]])])])[:-2],
        read_hbsf,
        TruncatedError,
        "{p}: truncated reading level 1 block records: need 12 bytes at offset 32, 10 remain",
    ),
    (
        "hbsf-trailing",
        hbsf_bytes(2, 2, []) + b"!",
        read_hbsf,
        FormatError,
        "{p}: 1 trailing byte(s) after the last level",
    ),
]


@pytest.mark.parametrize(
    "data,read,error,message", [d[1:] for d in DAMAGED], ids=[d[0] for d in DAMAGED]
)
def test_damaged_file_messages_are_verbatim(tmp_path, data, read, error, message):
    err = refused(tmp_path, data, read, error)
    assert type(err) is error and str(err) == message.format(p=tmp_path / "damaged")


# Each format's reader, writer, and builders of an object whose file is
# longer than the second's.
WRITERS = {
    "dmat": (
        read_dmat,
        write_dmat,
        lambda: np.arange(12, dtype=np.float32).reshape(3, 4),
        lambda: np.full((1, 2), -0.5, np.float32),
    ),
    "hbsf": (read_hbsf, write_hbsf, sample_hbs, lambda: HBSMatrix(4, 4, ())),
    "irf": (
        read_irf,
        write_irf,
        lambda: IrfTable({(BlockShape(8, 1), 48): 0.8125, (BlockShape(1, 1), 32): 0.1}, "analytic"),
        lambda: IrfTable({(BlockShape(2, 2), 0): 1.0}, "calibrated"),
    ),
}
# What the MagicError of an unfinished write names: the magic's zero bytes.
ZEROED_MAGIC = {
    "dmat": f"(magic {bytes(4)!r},",
    "hbsf": f"(magic {bytes(4)!r},",
    "irf": f"(header starts {bytes(7).decode()!r})",
}


@pytest.mark.parametrize("fmt", sorted(WRITERS))
@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path, fmt, old):
    _, write, long, short = WRITERS[fmt]
    before, after = (long, short) if old == "longer" else (short, long)
    p, fresh = tmp_path / "p", tmp_path / "fresh"
    write(p, before())
    write(p, after())
    write(fresh, after())
    assert p.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_first_write_creates_a_file_as_open_does(tmp_path, fmt):
    _, write, long, _ = WRITERS[fmt]
    write(tmp_path / "new", long())
    (tmp_path / "opened").write_bytes(b"")
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "opened").stat().st_mode


@pytest.mark.parametrize("fmt", sorted(WRITERS))
@pytest.mark.parametrize("size", ["same", "shorter"])
@pytest.mark.parametrize("k", [0, 1, 3, 7])
def test_unfinished_write_is_refused(tmp_path, monkeypatch, fmt, size, k):
    # The write stops after its first k chunks, over a file whose old bytes
    # would otherwise follow the new ones and, at the same size, complete them.
    read, write, long, short = WRITERS[fmt]
    p = tmp_path / "p"
    write(p, long())
    cut_writes(monkeypatch, k)
    with pytest.raises(OSError, match="write cut"):
        write(p, long() if size == "same" else short())
    with pytest.raises(MagicError) as exc:
        read(p)
    assert ZEROED_MAGIC[fmt] in str(exc.value)


def test_unfinished_record_build_is_refused(tmp_path, monkeypatch):
    p = tmp_path / "p.hbsf"
    write_hbsf(p, sample_hbs())
    record_dtype, built = hbs.io._record_dtype, []

    def second_fails(bh, bw):
        built.append((bh, bw))
        if len(built) == 2:
            raise MemoryError("no room for level 2's records")
        return record_dtype(bh, bw)

    monkeypatch.setattr(hbs.io, "_record_dtype", second_fails)
    with pytest.raises(MemoryError):
        write_hbsf(p, sample_hbs(seed=10))
    with pytest.raises(MagicError):
        read_hbsf(p)


@pytest.mark.parametrize(
    "write,refused_value,error,message",
    [
        (write_dmat, np.zeros((0, 3), np.float32), DimensionError, "non-empty"),
        (write_hbsf, np.ones((2, 2), np.float32), ValueError, "m: expected HBSMatrix"),
        (write_irf, {(BlockShape(1, 1), 32): 0.5}, ValueError, "table: expected IrfTable"),
    ],
    ids=["dmat-empty", "hbsf-not-a-matrix", "irf-not-a-table"],
)
def test_refused_argument_leaves_the_file(tmp_path, write, refused_value, error, message):
    p = tmp_path / "p"
    p.write_bytes(GOLDEN_DMAT_1X1_7)
    with pytest.raises(error, match=message):
        write(p, refused_value)
    assert p.read_bytes() == GOLDEN_DMAT_1X1_7


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writes_a_pipe(tmp_path, fmt):
    _, write, long, _ = WRITERS[fmt]
    write(tmp_path / "file", long())
    r, w = os.pipe()
    with open(r, "rb") as got:
        try:
            write(f"/dev/fd/{w}", long())
        finally:
            os.close(w)
        assert got.read() == (tmp_path / "file").read_bytes()


class TestIrf:
    def test_round_trip_canonical(self, tmp_path):
        entries = {
            (BlockShape(8, 1), 48): 0.8125,
            (BlockShape(1, 1), 32): 0.1,
            (BlockShape(8, 1), 32): 0.625,
        }
        t = IrfTable(entries, "calibrated")
        p1, p2 = tmp_path / "a.irf", tmp_path / "b.irf"
        write_irf(p1, t)
        back = read_irf(p1)
        assert back.provenance == "calibrated"
        assert back.entries == entries
        write_irf(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copies_write_the_same_file(self, how, tmp_path):
        dup = COPIES[how]
        t = IrfTable({(BlockShape(8, 1), 48): 0.8125, (BlockShape(1, 1), 32): 0.1}, "analytic")
        twin = dup(t)
        assert twin.entries == t.entries and twin.provenance == t.provenance
        write_irf(tmp_path / "t.irf", t)
        write_irf(tmp_path / "twin.irf", twin)
        assert (tmp_path / "twin.irf").read_bytes() == (tmp_path / "t.irf").read_bytes()

    def test_numpy_entries_round_trip(self, tmp_path):
        t = IrfTable({(BlockShape(8, 1), np.int64(48)): np.float64(0.8125)}, "calibrated")
        p = tmp_path / "t.irf"
        write_irf(p, t)
        assert p.read_text().splitlines()[1] == "8 1 0.75 0.8125"
        assert read_irf(p).entries == t.entries

    def test_sorted_output(self, tmp_path):
        t = IrfTable({(BlockShape(8, 1), 0): 0.5, (BlockShape(1, 1), 64): 0.5}, "analytic")
        p = tmp_path / "t.irf"
        write_irf(p, t)
        lines = p.read_text().splitlines()
        assert lines[0] == "HBS-IRF v1 analytic"
        assert lines[1].startswith("1 1 1.0") and lines[2].startswith("8 1 0.0")

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.irf"
        p.write_text("HBS-IRF v1 analytic\n\n1 1 0.5 0.25\n\n")
        assert read_irf(p).entries == {(BlockShape(1, 1), 32): 0.25}

    def test_crlf_line_ends(self, tmp_path):
        p = tmp_path / "t.irf"
        p.write_bytes(b"HBS-IRF v1 analytic\r\n1 1 0.5 0.25\r\n")
        assert read_irf(p).entries == {(BlockShape(1, 1), 32): 0.25}

    @pytest.mark.parametrize(
        "line,hint",
        [
            ("1 1 0.5", "expected 'bh bw sparsity irf'"),
            ("x 1 0.5 0.5", "bad block bh"),
            ("0 1 0.5 0.5", "block bh must be >= 1"),
            ("1 1 1.5 0.5", "outside"),
            ("1 1 0.5 0.0", "outside"),
            ("1 1 0.5 0.5\u00e9", "non-ASCII"),
        ],
    )
    def test_bad_entry_lines(self, tmp_path, line, hint):
        err = refused(tmp_path, IRF_HEADER + f"{line}\n".encode(), read_irf, FormatError, hint)
        assert f"{tmp_path / 'damaged'}:2" in str(err)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_irf(tmp_path / "nope.irf")


# Every message a damaged .irf file raises, verbatim; ``{p}`` is its path.
IRF_DAMAGED = [
    ("empty", b"", MagicError, "{p}: empty file, expected an HBS-IRF header"),
    ("blank", b"\n  \n", MagicError, "{p}: empty file, expected an HBS-IRF header"),
    (
        "non-ascii",
        IRF_HEADER + "1 1 0.5 0.5\u00e9\n".encode(),
        FormatError,
        "{p}:2: non-ASCII byte, HBS-IRF files are ASCII",
    ),
    ("magic", b"IRF v1 analytic\n", MagicError, "{p}: not an HBS-IRF file (header starts 'IRF')"),
    ("version", b"HBS-IRF v2 analytic\n", VersionError, "{p}: unsupported version v2, expected v1"),
    (
        "no-version",
        b"HBS-IRF\n1 1 0.5 0.5\n",
        VersionError,
        "{p}: unsupported version <missing>, expected v1",
    ),
    (
        "provenance",
        b"HBS-IRF v1 guessed\n0 1 0.5 0.5\n",
        FormatError,
        "{p}: header must end with 'calibrated' or 'analytic', got 'HBS-IRF v1 guessed'",
    ),
    (
        "header-fields",
        b"HBS-IRF v1 analytic extra\n",
        FormatError,
        "{p}: header must end with 'calibrated' or 'analytic', got 'HBS-IRF v1 analytic extra'",
    ),
    (
        "fields",
        IRF_HEADER + b"1 1 0.5\n",
        FormatError,
        "{p}:2: expected 'bh bw sparsity irf', got '1 1 0.5'",
    ),
    (
        "extra-field",
        IRF_HEADER + b"1 1 0.5 0.5 9\n",
        FormatError,
        "{p}:2: expected 'bh bw sparsity irf', got '1 1 0.5 0.5 9'",
    ),
    (
        "syntax",
        IRF_HEADER + b"1 1.0 0.5 0.5\n",
        FormatError,
        "{p}:2: bad block bw '1.0'",
    ),
    (
        "int-underscore",
        IRF_HEADER + b"1_6 1 0.5 0.5\n",
        FormatError,
        "{p}:2: bad block bh '1_6'",
    ),
    (
        "float-underscore",
        IRF_HEADER + b"+2 1 0.5_0 1e-0_0\n",
        FormatError,
        "{p}:2: bad sparsity '0.5_0'",
    ),
    (
        "block-shape",
        IRF_HEADER + b"0 1 0.5 0.5\n",
        FormatError,
        "{p}:2: block bh must be >= 1, got 0",
    ),
    (
        "sparsity",
        IRF_HEADER + b"1 1 50 0.5\n",
        FormatError,
        "{p}:2: sparsity must be in [0, 1], 50.0 is outside "
        "(sparsities are fractions in [0, 1], not percentages)",
    ),
    (
        "irf",
        IRF_HEADER + b"1 1 0.5 0.0\n",
        FormatError,
        "{p}:2: irf for 1x1 bucket 32 must be in (0, 1], 0.0 is outside",
    ),
    (
        "irf-above-one",
        IRF_HEADER + b"1 1 0.5 2.0\n",
        FormatError,
        "{p}:2: irf for 1x1 bucket 32 must be in (0, 1], 2.0 is outside",
    ),
    (
        "duplicate",
        IRF_HEADER + b"1 1 0.5 0.25\n\n1 1 0.501 0.5\n",
        FormatError,
        "{p}:4: duplicate entry for 1x1 bucket 32",
    ),
    (
        "form-feed-is-not-a-line-end",
        b"HBS-IRF v1 analytic\x0c1 1 0.5 0.5\n",
        FormatError,
        "{p}: header must end with 'calibrated' or 'analytic', "
        "got 'HBS-IRF v1 analytic\\x0c1 1 0.5 0.5'",
    ),
    (
        "lone-cr-is-not-a-line-end",
        b"HBS-IRF v1 analytic\r1 1 0.5 0.5\n",
        FormatError,
        "{p}: header must end with 'calibrated' or 'analytic', "
        "got 'HBS-IRF v1 analytic\\r1 1 0.5 0.5'",
    ),
    (
        "vertical-tab-is-not-a-line-end",
        IRF_HEADER + b"1 1 0.5 0.5\x0b2 1 0.5 2.0\n",
        FormatError,
        "{p}:2: expected 'bh bw sparsity irf', got '1 1 0.5 0.5\\x0b2 1 0.5 2.0'",
    ),
]


@pytest.mark.parametrize(
    "data,error,message", [d[1:] for d in IRF_DAMAGED], ids=[d[0] for d in IRF_DAMAGED]
)
def test_damaged_irf_messages_are_verbatim(tmp_path, data, error, message):
    err = refused(tmp_path, data, read_irf, error)
    assert type(err) is error and str(err) == message.format(p=tmp_path / "damaged")
