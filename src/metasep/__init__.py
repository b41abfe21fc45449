"""Meta-learned time-domain speech separation toolkit."""

import ctypes
import os
import platform
import sys
import warnings

# OpenBLAS reads its thread count once, when numpy loads. The engine's
# matrices are too small for threaded BLAS to gain anything, and its threads
# stall when a core is busy (one training epoch at the tiny separator ran
# about twice as slow with one of two cores loaded), so the package runs on
# one thread. An explicit setting in the environment wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    warnings.warn("numpy was imported before metasep, so BLAS keeps its default thread "
                  "count; import metasep first", RuntimeWarning, stacklevel=2)
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var


def _keep_freed_pages() -> None:
    """glibc hands freed memory at the top of its heap back to the kernel and
    maps large blocks on their own, so arrays of a few MB that one mixture
    graph frees are faulted in again, page by page, by the next (a MAML outer
    step at the default separator took over 100k minor faults). A 1 GiB trim
    threshold and a fixed 32 MiB mmap threshold (glibc's largest) keep those
    pages mapped for reuse; the peak does not grow. One arena for all threads
    lets the main thread reuse what the query workers of a meta-gradient free
    (with an arena per thread each kept its graph's pages, and one MAML task
    at the default separator peaked at 540-740 MB instead of 400).
    Other C libraries are left alone, and an explicit MALLOC_* or
    GLIBC_TUNABLES setting wins."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    # parameter numbers from <malloc.h>
    for param, env, name, value in ((-1, "MALLOC_TRIM_THRESHOLD_", "trim_threshold", 1 << 30),
                                    (-3, "MALLOC_MMAP_THRESHOLD_", "mmap_threshold", 32 << 20),
                                    (-8, "MALLOC_ARENA_MAX", "arena_max", 1)):
        if env not in os.environ and f"glibc.malloc.{name}" not in tunables:
            mallopt(param, value)


_keep_freed_pages()

__version__ = "0.1.0"

from .autodiff import ParamVector, Tensor, grad  # noqa: E402,F401
