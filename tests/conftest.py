"""Pin BLAS to one thread for the test run, before numpy is first imported.

Tiny LAPACK calls slow down several-fold when a BLAS thread pool contends
for the cores with another busy process; bench/run.py pins the same
variables. An explicit setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
