"""The benchmark's per-layer tracer still finds every function it wraps.

bench/tracing.py names its targets by module and attribute; renaming or
deleting one of them would otherwise only show up in a traced benchmark
run.
"""

import importlib
import importlib.util
from pathlib import Path

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
