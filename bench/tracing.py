"""Per-layer tracing by wrapping spclust's functions from the outside.

Each traced function is replaced, in every spclust module that holds it
under some name, by a wrapper that counts calls and adds up busy time.
Replacing the module attribute is enough because callers look functions
up at call time (``linalg.cholesky`` in engine, ``covariance_union`` in
fusion's own globals, ``get_clustering`` imported into cli). A wrapper's
self time is its busy time minus the busy time of the wrapped calls made
inside it. Nothing under src/ is changed.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, layer metric prefix); a dotted attribute is a method.
TARGETS = (
    ("spclust.datasets", "build_stream", "datasets.build_stream"),
    ("spclust.engine", "SpcModel.update", "engine.update"),
    ("spclust.engine", "SpcModel.snapshot", "engine.snapshot"),
    ("spclust.fusion", "union_absorbing_unit", "fusion.union_absorbing_unit"),
    ("spclust.fusion", "fuse", "fusion.fuse"),
    ("spclust.fusion", "covariance_union", "fusion.covariance_union"),
    ("spclust.linalg", "cholesky", "linalg.cholesky"),
    ("spclust.linalg", "solve_norm_sq", "linalg.solve_norm_sq"),
    ("spclust.linalg", "solve_norm_sq_many", "linalg.solve_norm_sq_many"),
    ("spclust.linalg", "sym_eigen", "linalg.sym_eigen"),
    ("spclust.clustering", "get_clustering", "clustering.get_clustering"),
    ("spclust.clustering", "pairwise_structure_distances",
     "clustering.pairwise_structure_distances"),
    ("spclust.clustering", "labels_from_distances", "clustering.labels_from_distances"),
    ("spclust.clustering", "assign_with_distances", "clustering.assign_with_distances"),
    ("spclust.metrics", "purity", "metrics.score"),
    ("spclust.metrics", "nmi", "metrics.score"),
    ("spclust.cli", "main", "cli.main"),
)

class Tracer:
    """Call counts, busy and self times of the wrapped functions."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(int)  # kept by _OBSERVERS
        self._open = []  # busy time of wrapped children, one slot per open call
        self._undo = []

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._open.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
            if observe is not None:
                observe(self.extra, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a loaded spclust module refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "spclust" or n.startswith("spclust.")]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)

    def _set(self, holder, key, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def metrics(self, diagnostics: dict, cli_bytes: int) -> dict:
        """Per-layer metric values by name."""
        out = {"fusion.union_absorbing_unit_none": 0, "linalg.cholesky_gflop": 0.0,
               **self.extra}
        for name in {t[2] for t in TARGETS}:
            out[name + "_calls"] = self.calls[name]
            out[name + "_s"] = self.busy[name]
        out["engine.update_self_s"] = self.self_time["engine.update"]
        out["cli.self_s"] = self.self_time["cli.main"]
        for key in ("merges", "prunes", "deletions"):
            out["engine." + key] = diagnostics[key]
        out["cli.bytes_written"] = cli_bytes
        return out


def _count_none(extra, args, result):
    if result is None:
        extra["fusion.union_absorbing_unit_none"] += 1


def _cholesky_flops(extra, args, result):
    extra["linalg.cholesky_gflop"] += args[0].shape[0] ** 3 / 3.0 / 1e9


_OBSERVERS = {
    "fusion.union_absorbing_unit": _count_none,
    "linalg.cholesky": _cholesky_flops,
}
