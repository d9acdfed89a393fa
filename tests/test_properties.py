"""Property tests: pruning keeps the input bits, files are byte-stable, and
damaged files fail only with the package's named errors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_random_case
from hbs import (
    BlockShape,
    HbsError,
    IrfTable,
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


def write_valid_files(seed, directory):
    """One valid file of each format drawn from ``seed``: {extension: path}."""
    rng = np.random.default_rng(seed)
    a, config = make_random_case(rng, max_dim=12)
    # Any float32 bit pattern, NaN payloads and infinities included.
    dense = rng.integers(0, 2**32, a.shape, dtype=np.uint32).view(np.float32)
    m, _ = prune_hierarchical(a, config)
    shapes = rng.integers(1, 65, (int(rng.integers(1, 5)), 2)).tolist()
    entries = {
        (BlockShape(bh, bw), int(rng.integers(0, 65))): float(1.0 - rng.random())
        for bh, bw in shapes
    }
    table = IrfTable(entries, str(rng.choice(["calibrated", "analytic"])))
    paths = {}
    for ext, obj in (("dmat", dense), ("hbsf", m), ("irf", table)):
        paths[ext] = directory / f"{seed}.{ext}"
        FORMATS[ext][1](paths[ext], obj)
    return paths


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
