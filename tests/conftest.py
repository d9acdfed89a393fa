"""Shared helpers for randomized property tests."""

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


@pytest.fixture
def random_case():
    return make_random_case
