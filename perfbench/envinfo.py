"""The environment block recorded with every result."""

import ctypes
import os
import platform
from pathlib import Path

# results that differ in any of these were not measured the same way
COMPARABILITY_KEYS = ("backend", "nproc")


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_bytes(level):
    """Size of cpu0's data or unified cache at ``level``, from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if (_read(index / "level") == str(level)
                and _read(index / "type") in ("Data", "Unified")):
            size = _read(index / "size") or ""
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            digits = size.rstrip("KMG")
            return int(digits) * scale if digits.isdigit() else None
    return None


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    maps = _read("/proc/self/maps") or ""
    paths = {line.split()[-1] for line in maps.splitlines() if line.strip()}
    for lib in sorted(p for p in paths if "openblas" in p.lower() and ".so" in p):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root):
    """Commit of a git checkout at ``root``, read from .git; None elsewhere."""
    git = Path(root) / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(root):
    import numpy
    import scipy

    import oaplib

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": oaplib.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_model": cpu_model(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "commit": git_commit(root),
    }


def incomparable(env_a, env_b):
    """Keys on which two environment blocks make results incomparable."""
    return [k for k in COMPARABILITY_KEYS if env_a.get(k) != env_b.get(k)]
