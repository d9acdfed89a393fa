"""Shared helpers for randomized property tests."""

import copy
import pickle

import numpy as np
import pytest

import hbs


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def level_of(shape, grid_rows, grid_cols, blocks):
    """Build a level from (gr, gc, tile) triples without any ordering fixup."""
    gr = np.array([b[0] for b in blocks], dtype=np.int64)
    gc = np.array([b[1] for b in blocks], dtype=np.int64)
    vals = np.array([b[2] for b in blocks], dtype=np.float32).reshape(-1, shape.bh, shape.bw)
    return hbs.BlockSparseLevel(shape, grid_rows, grid_cols, gr, gc, vals)



def ones_table(*shapes):
    """An analytic irf table holding 1.0 for every bucket of each shape."""
    return hbs.IrfTable({(s, b): 1.0 for s in shapes for b in range(65)}, "analytic")


# The ways an object can be duplicated without its constructor being named.
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def report_of(rows, cols, levels):
    """Validation report of a matrix built from ``levels``: ``validate``'s
    when it builds, else the one its ``ValidationError`` carries."""
    try:
        return hbs.validate(hbs.HBSMatrix(rows, cols, levels))
    except hbs.ValidationError as exc:
        return exc.report


def make_random_case(rng, max_dim=64):
    """Random (dense matrix, valid config) pair with 1 to 3 nested levels.

    Dimensions are multiples of the coarsest shape, every later shape
    divides the previous one, and sparsities are redrawn until the
    cumulative density fits. Some matrices get exact zeros (score ties)
    or a single sign to stress ordering rules.
    """
    bh = int(rng.choice([1, 2, 3, 4, 6, 8]))
    bw = int(rng.choice([1, 2, 3, 4, 6, 8]))
    rows = bh * int(rng.integers(1, max(2, max_dim // bh) + 1))
    cols = bw * int(rng.integers(1, max(2, max_dim // bw) + 1))
    shapes = [hbs.BlockShape(bh, bw)]
    for _ in range(int(rng.integers(0, 3))):
        prev = shapes[-1]
        nh = int(rng.choice(_divisors(prev.bh)))
        nw = int(rng.choice(_divisors(prev.bw)))
        if (nh, nw) == (prev.bh, prev.bw) and rng.random() < 0.5:
            break
        shapes.append(hbs.BlockShape(nh, nw))
    while True:
        sparsities = [float(rng.uniform(0.0, 1.0)) for _ in shapes]
        try:
            config = hbs.HBSConfig.of(*zip(shapes, sparsities))
            break
        except hbs.ConfigError:
            continue
    a = rng.standard_normal((rows, cols), dtype=np.float32)
    if rng.random() < 0.2:
        a[rng.random(a.shape) < 0.3] = 0.0
    if rng.random() < 0.1:
        a = -np.abs(a)
    return a, config


_F32 = np.finfo(np.float32)
# Cells that stress ranking on bit patterns: signed zeros, the smallest and
# largest subnormals, the smallest normal, float32's extremes, and equal
# magnitudes of both signs.
EDGE_VALUES = np.array(
    [
        0.0,
        -0.0,
        _F32.smallest_subnormal,
        -_F32.smallest_subnormal,
        np.nextafter(_F32.smallest_normal, np.float32(0)),
        -np.nextafter(_F32.smallest_normal, np.float32(0)),
        _F32.smallest_normal,
        1.0,
        -1.0,
        _F32.max,
        -_F32.max,
    ],
    dtype=np.float32,
)


def make_edge_case(rng, max_dim=24):
    """``make_random_case`` with every cell drawn from ``EDGE_VALUES``, or,
    one time in four, all cells equal to one of them."""
    a, config = make_random_case(rng, max_dim)
    if rng.random() < 0.25:
        return np.full(a.shape, rng.choice(EDGE_VALUES), dtype=np.float32), config
    return rng.choice(EDGE_VALUES, a.shape), config


FAULTS = ("tiling", "divisibility", "outside", "unsorted", "duplicate", "overlap")


def random_level_set(rng):
    """Random ``(rows, cols, levels, faults)`` for an HBSMatrix, valid or not.

    Shapes form a nested chain and kept blocks avoid the cells of earlier
    levels, so the set is valid until the faults, up to two names from
    ``FAULTS``, are injected: a level off the matrix's tiling, a shape that
    does not divide the one before, a block outside its grid, unsorted or
    duplicated blocks, a block overlapping an earlier level. A fault that
    finds nothing to break (say, no kept block) is left out of ``faults``.
    """
    sides = [1, 2, 3, 4, 6, 12]
    rows, cols = 12 * int(rng.integers(1, 4)), 12 * int(rng.integers(1, 4))
    free = np.ones((rows, cols), dtype=bool)
    specs = []  # [bh, bw, grid_rows, grid_cols, [(gr, gc), ...]]
    bh = bw = 12
    for _ in range(int(rng.integers(1, 5))):
        bh = int(rng.choice([s for s in sides if bh % s == 0]))
        bw = int(rng.choice([s for s in sides if bw % s == 0]))
        gr, gc = rows // bh, cols // bw
        open_blocks = free.reshape(gr, bh, gc, bw).all(axis=(1, 3))
        keep = open_blocks & (rng.random((gr, gc)) < rng.choice([0.05, 0.2, 0.5]))
        free &= ~keep.repeat(bh, axis=0).repeat(bw, axis=1)
        specs.append([bh, bw, gr, gc, [tuple(b) for b in np.argwhere(keep).tolist()]])

    faults = []
    n_faults = int(rng.integers(1, 3)) if rng.random() < 0.7 else 0
    for fault in rng.choice(FAULTS, n_faults, replace=False).tolist():
        held = [s for s in specs if s[4]]
        if fault == "tiling":
            specs[int(rng.integers(len(specs)))][2] += 1
        elif fault == "divisibility" and len(specs) > 1:
            i = int(rng.integers(1, len(specs)))
            pbh, pbw = specs[i - 1][:2]
            shapes = [(h, w) for h in sides for w in sides if pbh % h or pbw % w]
            if not shapes:
                continue
            h, w = shapes[int(rng.integers(len(shapes)))]
            blocks = np.argwhere(rng.random((rows // h, cols // w)) < 0.2)
            specs[i] = [h, w, rows // h, cols // w, [tuple(b) for b in blocks.tolist()]]
        elif fault == "outside" and held:
            s = held[int(rng.integers(len(held)))]
            j = int(rng.integers(len(s[4])))
            r, c = s[4][j]
            s[4][j] = [(s[2], c), (r, s[3]), (-1, c), (r, -1)][int(rng.integers(4))]
        elif fault == "unsorted" and any(len(s[4]) > 1 for s in specs):
            s = [s for s in specs if len(s[4]) > 1][0]
            j = int(rng.integers(len(s[4]) - 1))
            s[4][j], s[4][j + 1] = s[4][j + 1], s[4][j]
        elif fault == "duplicate" and held:
            s = held[int(rng.integers(len(held)))]
            j = int(rng.integers(len(s[4])))
            s[4].insert(j, s[4][j])
        elif fault == "overlap" and len(specs) > 1 and any(s[4] for s in specs[:-1]):
            i = next(k for k, s in enumerate(specs) if s[4])
            k = int(rng.integers(i + 1, len(specs)))
            (r, c), (fbh, fbw) = specs[i][4][0], specs[k][:2]
            cell = (r * specs[i][0] // fbh, c * specs[i][1] // fbw)
            specs[k][4] = sorted(specs[k][4] + [cell])
        else:
            continue
        faults.append(fault)

    levels = []
    for bh, bw, gr, gc, blocks in specs:
        coords = np.array(blocks, dtype=np.int64).reshape(-1, 2)
        tiles = rng.standard_normal((len(blocks), bh, bw), dtype=np.float32)
        shape = hbs.BlockShape(bh, bw)
        levels.append(hbs.BlockSparseLevel(shape, gr, gc, coords[:, 0], coords[:, 1], tiles))
    return rows, cols, tuple(levels), tuple(faults)


@pytest.fixture
def random_case():
    return make_random_case
