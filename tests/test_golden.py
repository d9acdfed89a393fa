"""Golden digests of the portable outputs.

Recomputes sha256 digests of the outputs that do not depend on the BLAS
build, on seeded inputs, and compares them with ``golden_digests.json``:

* ``.dmat`` and ``.hbsf`` bytes, the pruning trace, the sparsity summary,
  top-k retention and the validation report of each pruned case
  (``make_random_case``, ``make_edge_case`` and the ``two``/``ladder``
  configs on Gaussian weights);
* the validation report of each ``random_level_set`` case: ``validate``'s
  for a valid set, the one its ``ValidationError`` carries otherwise;
* ``.irf`` bytes: ``write_irf`` of seeded tables (both provenances,
  buckets 0 and 64, numpy scalar entries), and ``write_irf`` of what
  ``read_irf`` makes of a hand-written, unsorted, non-canonical file.

``hbs_matmul`` is left out: its last bits depend on the BLAS build. An
output change that nobody meant fails here, naming the cases it touched.
After an intended change, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and list the changed
entries in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

import hbs
from conftest import make_edge_case, make_random_case, random_level_set

DIGESTS = Path(__file__).with_name("golden_digests.json")
PERCENTILES = (0.1, 0.2, 0.3, 0.4, 0.5, 1.0)
CONFIGS = {
    "two": "32x1:0.75,8x1:0.875",
    "ladder": "32x1:0.75,16x1:0.875,8x1:0.9375,4x1:0.96875,1x1:0.96875",
}
# Unsorted, with blank lines, padding and non-shortest float text.
HAND_IRF = (
    "\n  HBS-IRF   v1 analytic\n\n"
    "8 1 0.50 0.8125000\n"
    "2 4 1 1.0\n"
    "  1 1 0.0 1e-3  \n\n"
    "8 1 .25 0.1\n"
    "1 1 0.3 0.33333333333333331\n"
)


def _sha256(*parts: bytes) -> str:
    """Digest of ``parts``, each prefixed by its length so that no two
    different part lists share a byte stream."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _pruning_cases():
    rng = np.random.default_rng(16)
    for i in range(40):
        yield f"random-{i:02d}", *make_random_case(rng)
    for i in range(40):
        yield f"edge-{i:02d}", *make_edge_case(rng)
    rng = np.random.default_rng(17)
    for rows, cols in ((256, 256), (512, 128)):
        a = rng.standard_normal((rows, cols), dtype=np.float32)
        for name, text in CONFIGS.items():
            yield f"gauss{rows}x{cols}-{name}", a, hbs.HBSConfig.parse(text)


def _irf_tables():
    rng = np.random.default_rng(19)
    shapes = [hbs.BlockShape(*s) for s in ((1, 1), (2, 1), (2, 4), (8, 1), (32, 1))]
    for provenance in ("calibrated", "analytic"):
        entries = {}
        for shape in shapes:
            buckets = {0, 64, *rng.choice(65, size=4, replace=False).tolist()}
            for bucket in sorted(buckets):
                entries[shape, np.int64(bucket)] = np.float64(rng.uniform(1e-3, 1.0))
        entries[shapes[0], np.int64(32)] = np.float64(1.0)
        yield f"irf-{provenance}", hbs.IrfTable(entries, provenance)


def compute() -> dict[str, str]:
    """Case name -> digest of every portable output of that case."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        dmat, hbsf = Path(tmp) / "a.dmat", Path(tmp) / "m.hbsf"
        for name, a, config in _pruning_cases():
            m, trace = hbs.prune_hierarchical(a, config)
            hbs.write_dmat(dmat, a)
            hbs.write_hbsf(hbsf, m)
            retained = hbs.topk_retention(a, m, PERCENTILES).retained
            texts = (
                trace.render(),
                hbs.sparsity_summary(m).render(),
                repr(retained),
                hbs.validate(m).render(),
            )
            out[name] = _sha256(
                dmat.read_bytes(), hbsf.read_bytes(), *(t.encode() for t in texts)
            )
    rng = np.random.default_rng(18)
    for i in range(300):
        rows, cols, levels, _ = random_level_set(rng)
        try:
            report = hbs.validate(hbs.HBSMatrix(rows, cols, levels))
        except hbs.ValidationError as exc:
            report = exc.report
        out[f"levels-{i:03d}"] = _sha256(report.render().encode())
    with tempfile.TemporaryDirectory() as tmp:
        irf, hand = Path(tmp) / "t.irf", Path(tmp) / "hand.irf"
        for name, table in _irf_tables():
            hbs.write_irf(irf, table)
            out[name] = _sha256(irf.read_bytes())
        hand.write_text(HAND_IRF, encoding="ascii")
        hbs.write_irf(irf, hbs.read_irf(hand))
        out["irf-reread"] = _sha256(irf.read_bytes())
    return out


def test_golden_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = compute()
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert changed == [], f"outputs changed for {len(changed)} case(s): {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
