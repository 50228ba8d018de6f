"""Host speed, measured by a fixed reference kernel around timed calls.

The benchmark's reference host is a shared two-core VM whose speed swings
between levels up to 1.6x apart, each lasting from seconds to more than a
minute (see README). No per-run statistic of raw times is steady under
that. So the benchmark runs a kernel that does not use spclust between
and during the calls it times, and divides each time by the kernel's
current duration relative to its duration on the reference host: such
times are reported at the reference speed. The wall times are kept
beside them.

Slowdowns on this host depend on the kind of work, so there are two
kernels. "interp" mixes interpreted Python, tiny numpy calls and a small
Cholesky factorization, like the engine on 2-D streams. "dense" factors a
512x512 matrix, which does not fit in cache, like the engine at d = 512.
"""

import signal
import statistics
import time
from collections import deque

import numpy as np

# kernel -> (roughly its duration on the reference host in a fast phase, seconds
# between samples taken while a long call runs)
KERNELS = {"interp": (1.0e-3, 0.05), "dense": (4.5e-3, 0.25)}
# The current factor is the median of this many most recent samples.
WINDOW = 3


class HostSpeed:
    def __init__(self, kernel: str):
        self.reference_s, self.every_s = KERNELS[kernel]
        self._kernel = getattr(self, "_" + kernel)
        rng = np.random.default_rng(0)
        n = 160 if kernel == "interp" else 512
        m = rng.standard_normal((n, n))
        self._spd = m @ m.T + n * np.eye(n)
        self._a = np.arange(2.0)
        self._b = np.ones(2)
        self._recent = deque(maxlen=WINDOW)
        self.factors = []

    def _interp(self) -> None:
        acc = 0.0
        for i in range(150):
            d = self._a - self._b
            acc += float(d @ d) + i
        for _ in range(4):
            np.linalg.cholesky(self._spd)

    def _dense(self) -> None:
        np.linalg.cholesky(self._spd)

    def sample(self) -> float:
        """Run the kernel once; returns the host's current slowdown factor."""
        t0 = time.perf_counter()
        self._kernel()
        self._recent.append(time.perf_counter() - t0)
        factor = statistics.median(self._recent) / self.reference_s
        self.factors.append(factor)
        return factor

    def call(self, fn, *args):
        """(fn(*args), its wall time, that time at the reference speed).

        The kernel runs before and after the call and, from a timer
        signal, every `every_s` seconds during it; the kernel's own time is
        taken out of the call's wall time. The slowdown factor is the mean
        of all these samples.
        """
        factors = [self.sample()]
        kernel_s = 0.0

        def tick(signum, frame):
            nonlocal kernel_s
            t0 = time.perf_counter()
            factors.append(self.sample())
            kernel_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, tick)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        factors.append(self.sample())
        elapsed -= kernel_s
        return result, elapsed, elapsed / statistics.fmean(factors)
