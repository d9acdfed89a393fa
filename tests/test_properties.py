"""Property tests: matrices are valid by construction, pruning keeps the
input bits, files are byte-stable, rewrites in place read back the last
write, and damaged or unfinished files fail only with the package's named
errors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cut_writes, make_random_case, random_level_set
from hbs import (
    BlockShape,
    HBSMatrix,
    HbsError,
    IrfTable,
    MagicError,
    ValidationError,
    prune_hierarchical,
    read_dmat,
    read_hbsf,
    read_irf,
    reconstruct,
    support_mask,
    validate,
    write_dmat,
    write_hbsf,
    write_irf,
)
from hbs.core import _top_magnitudes, _top_mask

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
SEEDS = st.integers(0, 2**32 - 1)
FORMATS = {
    "dmat": (read_dmat, write_dmat),
    "hbsf": (read_hbsf, write_hbsf),
    "irf": (read_irf, write_irf),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def random_table(rng):
    """An irf table of 1 to 4 random entries and a random provenance."""
    shapes = rng.integers(1, 65, (int(rng.integers(1, 5)), 2)).tolist()
    entries = {
        (BlockShape(bh, bw), int(rng.integers(0, 65))): float(1.0 - rng.random())
        for bh, bw in shapes
    }
    return IrfTable(entries, str(rng.choice(["calibrated", "analytic"])))


def write_valid_files(seed, directory):
    """One valid file of each format drawn from ``seed``: {extension: path}."""
    rng = np.random.default_rng(seed)
    a, config = make_random_case(rng, max_dim=12)
    # Any float32 bit pattern, NaN payloads and infinities included.
    dense = rng.integers(0, 2**32, a.shape, dtype=np.uint32).view(np.float32)
    m, _ = prune_hierarchical(a, config)
    table = random_table(rng)
    paths = {}
    for ext, obj in (("dmat", dense), ("hbsf", m), ("irf", table)):
        paths[ext] = directory / f"{seed}.{ext}"
        FORMATS[ext][1](paths[ext], obj)
    return paths


def cell_count_valid(rows, cols, levels):
    """The three structural rules, checked cell by cell."""
    if any((lv.rows, lv.cols) != (rows, cols) for lv in levels):
        return False
    if any(not fine.shape.divides(coarse.shape) for coarse, fine in zip(levels, levels[1:])):
        return False
    owners = np.zeros((rows, cols), dtype=int)
    for lv in levels:
        blocks = list(zip(lv.block_rows.tolist(), lv.block_cols.tolist()))
        if blocks != sorted(set(blocks)):
            return False
        if not all(0 <= r < lv.grid_rows and 0 <= c < lv.grid_cols for r, c in blocks):
            return False
        bh, bw = lv.shape.bh, lv.shape.bw
        for r, c in blocks:
            owners[r * bh : (r + 1) * bh, c * bw : (c + 1) * bw] += 1
    return owners.max(initial=0) <= 1


@PROPERTY
@given(seed=SEEDS)
def test_matrices_are_valid_by_construction(seed):
    rows, cols, levels, faults = random_level_set(np.random.default_rng(seed))
    try:
        m = HBSMatrix(rows, cols, levels)
    except ValidationError as exc:
        assert not exc.report.ok
        assert faults and not cell_count_valid(rows, cols, levels)
    else:
        assert validate(m).ok
        assert not faults and cell_count_valid(rows, cols, levels)


@PROPERTY
@given(seed=SEEDS)
def test_prune_keeps_input_bits_on_kept_cells(seed):
    a, config = make_random_case(np.random.default_rng(seed), max_dim=24)
    m, _ = prune_hierarchical(a, config)
    assert validate(m).ok
    bits = reconstruct(m).view(np.uint32)
    kept = support_mask(m)
    assert np.array_equal(bits[kept], a.view(np.uint32)[kept])
    assert not bits[~kept].any()  # +0.0 is the all-zero bit pattern


@PROPERTY
@given(seed=SEEDS)
def test_files_are_byte_stable(seed, scratch):
    for ext, path in write_valid_files(seed, scratch).items():
        read, write = FORMATS[ext]
        again = path.with_suffix(".again")
        write(again, read(path))
        assert again.read_bytes() == path.read_bytes(), ext


@PROPERTY
@given(
    seed=SEEDS,
    where=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.integers(1, 255),
    truncate=st.booleans(),
)
def test_damaged_files_raise_only_named_errors(seed, where, flip, truncate, scratch):
    for ext, path in write_valid_files(seed, scratch).items():
        data = bytearray(path.read_bytes())
        at = int(where * len(data))
        if truncate:
            del data[at:]
        else:
            data[at] ^= flip
        path.write_bytes(bytes(data))
        try:
            FORMATS[ext][0](path)
        except HbsError:
            pass


@PROPERTY
@given(seed=SEEDS)
def test_rewrites_in_place_read_back_the_last_write(seed, scratch):
    # Random shapes and tables written to one path per format in turn, so
    # each write lands on a longer, shorter or same-size file; then one write
    # is cut off after a random number of chunks.
    rng = np.random.default_rng(seed)
    paths = {ext: scratch / f"rewrite.{ext}" for ext in FORMATS}
    for _ in range(3):
        a, config = make_random_case(rng, max_dim=12)
        dense = rng.integers(0, 2**32, a.shape, dtype=np.uint32).view(np.float32)
        write_dmat(paths["dmat"], dense)
        assert np.array_equal(read_dmat(paths["dmat"]).view(np.uint32), dense.view(np.uint32))
        m, _ = prune_hierarchical(a, config)
        write_hbsf(paths["hbsf"], m)
        back = read_hbsf(paths["hbsf"])
        assert (back.rows, back.cols, back.n_levels) == (m.rows, m.cols, m.n_levels)
        for got, want in zip(back.levels, m.levels):
            assert got.shape == want.shape
            assert np.array_equal(got.block_rows, want.block_rows)
            assert np.array_equal(got.block_cols, want.block_cols)
            assert np.array_equal(got.values.view(np.uint32), want.values.view(np.uint32))
        table = random_table(rng)
        write_irf(paths["irf"], table)
        back = read_irf(paths["irf"])
        assert (back.entries, back.provenance) == (table.entries, table.provenance)
    with pytest.MonkeyPatch.context() as mp:
        cut_writes(mp, int(rng.integers(0, 8)))
        for ext, obj in (("dmat", dense), ("hbsf", m), ("irf", table)):
            read, write = FORMATS[ext]
            with pytest.raises(OSError, match="write cut"):
                write(paths[ext], obj)
            with pytest.raises(MagicError):
                read(paths[ext])


@PROPERTY
@given(scores=st.lists(st.integers(-3, 3).map(float) | st.just(-np.inf), max_size=200))
def test_top_k_is_a_stable_descending_sort_prefix(scores):
    s = np.array(scores, dtype=np.float64)
    order = np.argsort(-s, kind="stable")
    for k in range(-1, s.size + 2):
        assert np.array_equal(np.flatnonzero(_top_mask(s, k)), np.sort(order[: max(k, 0)])), k


@PROPERTY
@given(
    magnitudes=st.lists(
        st.floats(0.0, allow_infinity=False, width=32) | st.just(-np.inf), max_size=200
    )
)
def test_top_k_on_bit_patterns_ranks_like_the_floats(magnitudes):
    # Pruning and retention rank finite non-negative floats, and -inf, on
    # same-width signed integer views of their bits.
    for dtype in (np.float32, np.float64):
        s = np.array(magnitudes, dtype=dtype)
        for k in range(-1, s.size + 2):
            assert np.array_equal(_top_magnitudes(s, k), _top_mask(s, k)), (dtype, k)
