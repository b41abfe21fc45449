import os

# Pytest loads this before any test module imports numpy, which is the only
# time OpenBLAS reads its thread count. The engine's matrices are too small
# for threaded BLAS to gain anything, and its threads stall when a core is
# busy: on a 2-vCPU host with one core loaded, one training epoch at the
# tiny separator took 2.6-3.6 s on OpenBLAS's default threads and 1.4-1.5 s
# on one. The benchmark (perfbench/run.py) runs on one thread as well. An
# explicit setting in the environment wins.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from hypothesis import settings  # noqa: E402  (after the thread pin, like every import)

# Every property draws the same examples on every run and keeps no example
# database, so Tier-1 passes or fails the same way each time.
settings.register_profile("metasep", derandomize=True, database=None, deadline=None)
settings.load_profile("metasep")
