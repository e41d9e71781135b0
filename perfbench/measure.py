"""Statistics and environment helpers shared by run.py and the worker."""

import os
import platform
import resource
import statistics

P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def p50(values):
    return statistics.median(values)


def p90(values):
    """90th percentile, or None when fewer than P90_MIN_SAMPLES values."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb():
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas():
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """What the numbers depend on: interpreter, numpy, BLAS, cores, CPU, and
    the BLAS thread pin run.py sets before numpy is imported."""
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS") == "1",
    }
