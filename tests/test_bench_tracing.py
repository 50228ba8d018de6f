"""The benchmark's per-layer tracer still finds every function it wraps,
and its counts mean what the benchmark reports them as.

bench/tracing.py names its targets by module and attribute; renaming or
deleting one of them would otherwise only show up in a traced benchmark
run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spclust.engine import SpcModel, SpcParams

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_install_wraps_every_target_and_uninstall_restores_it():
    tracing = _load_tracing()
    originals = {(mod, attr): _lookup(mod, attr) for mod, attr, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod, attr), original in originals.items():
            wrapped = _lookup(mod, attr)
            assert wrapped is not original, f"{mod}.{attr} was not wrapped"
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert _lookup(mod, attr) is original, f"{mod}.{attr} was not restored"


@pytest.mark.parametrize("dim, merge", [(2, "fusion.fuse"), (33, "fusion.covariance_union")])
def test_cholesky_count_is_one_per_merge_factorization(dim, merge):
    # each dense merge factors its fused spread, and each low-rank union
    # factors the older padded projection, all through linalg.cholesky
    tracing = _load_tracing()
    for module_name, _, _ in tracing.TARGETS:
        importlib.import_module(module_name)
    xs = np.random.default_rng(dim).standard_normal((80, dim))
    model = SpcModel(SpcParams(max_structures=6, gamma=0.05, beta=0.05))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for x in xs:
            model.update(x)
    finally:
        tracer.uninstall()
    assert tracer.calls[merge] > 0
    assert tracer.calls["linalg.cholesky"] == tracer.calls[merge]
