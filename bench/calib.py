"""Machine calibration and provenance, recorded with every result.

Three fixed pieces of work — a CRC32 pass, a memory copy and a
pure-Python loop — say how fast this box is at the three things the
program's cost is made of, so numbers from different machines can be set
side by side.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
import zlib

from bench.stats import median

clock = time.perf_counter


def _best(fn, rounds: int = 5) -> float:
    times = []
    for _ in range(rounds):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return median(times)


def calibrate() -> dict:
    buf = bytes(range(256)) * (16 * 1024 * 4)  # 16 MB
    crc = _best(lambda: zlib.crc32(buf))
    copy = _best(lambda: bytearray(buf))

    def loop(n=200_000):
        x = 0
        for i in range(n):
            x += i & 7
        return x

    return {
        "calib.crc32_mb_per_s": len(buf) / crc / 1e6,
        "calib.memcpy_mb_per_s": len(buf) / copy / 1e6,
        "calib.pyloop_ns": _best(loop) / 200_000 * 1e9,
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" where there is no repository."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def provenance(root: str, seed: int, scratch_fs: str) -> dict:
    import numpy

    return {
        "commit": git_commit(root),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scratch_fs": scratch_fs,
    }
