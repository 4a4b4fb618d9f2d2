"""The machine record attached to every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_list_len(spec: str) -> int:
    """Number of CPUs in a list such as '0-3,8'."""
    total = 0
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        total += int(hi or lo) - int(lo) + 1
    return total


def _caches() -> list:
    """Data and unified caches of cpu0 as 'L2 2048K x2': size of one cache
    and the number of such caches on the machine."""
    out = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            kind = Path(index, "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = Path(index, "level").read_text().strip()
            size = Path(index, "size").read_text().strip()
            shared = Path(index, "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        count = max(1, (os.cpu_count() or 1) // _cpu_list_len(shared))
        out.append(f"L{level} {size} x{count}")
    return out


def _openblas() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
            "threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            fn.argtypes = []
            info["threads"] = fn()
            return info
    return info


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "expsumlab"
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def record(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas(),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": source_digest(),
        "bandwidth": "not measured; no bytes-moved figure is reported",
    }
