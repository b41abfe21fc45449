"""Meta-learned time-domain speech separation toolkit."""

import os

# OpenBLAS reads its thread count once, when numpy loads. The engine's
# matrices are too small for threaded BLAS to gain anything, and its threads
# stall when a core is busy (one training epoch at the tiny separator ran
# about twice as slow with one of two cores loaded), so the package runs on
# one thread. An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .autodiff import ParamVector, Tensor, grad  # noqa: E402,F401
