"""Record of the machine and libraries a run measured."""
from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads",
                   "mkl_get_max_threads")


def _blas_threads() -> dict:
    """Thread count of each BLAS library loaded into this process."""
    libs = set()
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path)
            if ("openblas" in name or "mkl_rt" in name) and ".so" in name:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in _THREAD_QUERIES:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def describe() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
