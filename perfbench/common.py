"""Shared pieces of the benchmark: environment record, set-up timing, statistics."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
GOLDENS = Path(__file__).resolve().parent / "goldens"

# One caller and one BLAS thread: the model's matrices (at most 512 x 64) are
# too small for OpenBLAS threading to pay off, and a second thread only adds
# scheduling noise on a shared 2-core machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is sampled this many times per run and reported as the median.
SETUP_SAMPLES = 5

_IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import moelab.cli"


class CheckFailed(Exception):
    """An output of the program did not match its reference."""


def pin_threads() -> None:
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the whole program, CLI included."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _IMPORT_PROGRAM, str(SRC)],
        check=True,
        timeout=120,
        env=dict(os.environ),
    )
    return time.perf_counter() - start


def timed_setup(prepare, seed: int):
    """Median over SETUP_SAMPLES of (fresh-process import + input preparation).

    Returns the median in seconds and the inputs of the last preparation.
    """
    samples = []
    inputs = None
    for _ in range(SETUP_SAMPLES):
        imports = import_seconds()
        start = time.perf_counter()
        inputs = prepare(seed)
        samples.append(imports + time.perf_counter() - start)
    return statistics.median(samples), inputs


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    import numpy as np  # not at module level: the BLAS threads are pinned first

    return float(np.quantile(values, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, load_at_start: tuple[float, float, float]) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "seed": seed,
    }
