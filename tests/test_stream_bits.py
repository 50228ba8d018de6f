"""Every stream source's bits are pinned: the points and labels that
build_stream returns for each generator at its defaults and at the
benchmark's parameters, and for a small CSV file, at two seeds and under
every arrival order.

A change to a source that should draw the same stream must leave every
hash below unchanged; one that means to change a stream says so and
takes the hashes again.
"""

import hashlib

import numpy as np
import pytest

from spclust.datasets import ORDER_MODES, StreamSpec, build_stream

from decision_digests import BENCH_SEEDS, BENCH_STREAMS

# case -> (source, its parameters): each generator at its defaults, then the
# benchmark's streams by workload name, but for triangle-grid, which is the
# triangle at its defaults
CASES = {
    **{source: (source, {}) for source in
       ("two-circles", "sine-waves", "overlapping-triangle", "gaussian-highdim")},
    **{name: (source, params) for name, (source, params, _) in BENCH_STREAMS.items() if params},
}

# 13 rows of a header, two features and three string classes of unequal size
CSV_TEXT = "x,y,cls\n" + "".join(f"{0.25 * i - 1},{(7 * i) % 5 / 3},{'abcab'[i % 5]}\n"
                                 for i in range(13))

# (case, seed) -> one hash per order of ORDER_MODES
HASHES = {
    ("two-circles", 0):
        ("2021a7e71bc93753", "c5924643fe96f98e", "2021a7e71bc93753", "d514f12e103311d7"),
    ("two-circles", 7919):
        ("b3001bb723879c4a", "53c9f192982001a3", "b3001bb723879c4a", "40f7a0c2b61c79dd"),
    ("sine-waves", 0):
        ("11a8155935eddc19", "e56dfe1a8085a537", "11a8155935eddc19", "c0ce35caff011964"),
    ("sine-waves", 7919):
        ("30b631c55f9df56e", "18cf8ce246cde5f7", "30b631c55f9df56e", "056be6ec3aa57f3d"),
    ("overlapping-triangle", 0):
        ("c5d06a0dd778966f", "ca0221f8b8c85fc3", "bb859b8ed0acf056", "c5d06a0dd778966f"),
    ("overlapping-triangle", 7919):
        ("e0d19cac89cbe677", "89657c3a660e228b", "cc2d7c561c8fc01b", "e0d19cac89cbe677"),
    ("gaussian-highdim", 0):
        ("bdf5f2991db1f413", "8a0eec28ac1abc2c", "8d462cb6e6c054a0", "a685ea5aa67f3971"),
    ("gaussian-highdim", 7919):
        ("f721f0b8cd605c5f", "5ad30133d684ee6d", "7f3291c192f0520e", "16fce98527c31679"),
    ("sine-drift-2d", 0):
        ("1411289a78f20b14", "6f38739043f5c61b", "1411289a78f20b14", "d476342ef470dc5e"),
    ("sine-drift-2d", 7919):
        ("0e8710bb9bd21268", "67dbe43245eb0643", "0e8710bb9bd21268", "4e4432dd45ddbc7d"),
    ("gauss-512d", 0):
        ("198c2b91401c23b8", "1d55a28bc20618ad", "7f684c48c6155c25", "cc00a3281084f325"),
    ("gauss-512d", 7919):
        ("27fa66632c456114", "3135c6d4d652f49b", "a351798ddc402571", "459ff13ecb3f29e8"),
    ("csv", 0):
        ("69d59c27f41be36d", "a36b6964eea8b554", "19266450b0febd9e", "32d453db2e145a1d"),
    ("csv", 7919):
        ("69d59c27f41be36d", "5b6f060951866729", "19266450b0febd9e", "32d453db2e145a1d"),
}


def stream_hash(points) -> str:
    assert all(p.x.dtype == np.float64 and type(p.label) is int for p in points)
    xs = np.array([p.x for p in points])
    labels = np.array([p.label for p in points], dtype=np.int64)
    digest = hashlib.sha256(repr(xs.shape).encode())
    digest.update(xs.tobytes())
    digest.update(labels.tobytes())
    return digest.hexdigest()[:16]


def case_hashes(case: str, seed: int, tmp_path) -> tuple[str, ...]:
    if case == "csv":
        path = tmp_path / "stream.csv"
        path.write_text(CSV_TEXT)
        source, params = "csv", {"path": str(path)}
    else:
        source, params = CASES[case]
    return tuple(stream_hash(build_stream(StreamSpec(source, tuple(params.items()), order, seed)))
                 for order in ORDER_MODES)


@pytest.mark.parametrize("seed", BENCH_SEEDS)
@pytest.mark.parametrize("case", [*CASES, "csv"])
def test_stream_bits(case, seed, tmp_path):
    assert case_hashes(case, seed, tmp_path) == HASHES[case, seed]
