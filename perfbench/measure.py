"""Host facts and process-level measurements (CPU, peak RSS, percentiles).

Everything here reads the operating system from outside the program under
test: ``resource`` for this process, ``/proc/<pid>`` for a child process
(a cluster shard), ``/proc/stat`` and ``/proc/mounts`` for the host.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def cpu_seconds() -> float:
    """User + system CPU of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of another live process, all threads."""
    with open(f"/proc/{pid}/stat") as handle:
        # the fields after the parenthesised command name; utime and
        # stime are the stat file's 14th and 15th fields
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory of this process, or of a live one, in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")


def directory_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(entry.stat().st_size for entry in Path(path).rglob("*")
               if entry.is_file())


def filesystem_of(path: Path) -> str:
    """Type of the filesystem ``path`` lives on (from /proc/mounts)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile, up to p99, with at least ten samples beyond.

    Returns ``(value, percentile, samples)`` using nearest-rank order
    statistics: the value at sorted index ``i`` has ``n - 1 - i`` samples
    above it, so ``i = min(n - 11, ceil(0.99 n) - 1)``.  Fewer than 11
    samples support no such percentile; the maximum is returned then.
    """
    ordered = sorted(values)
    count = len(ordered)
    index = count - 1 if count < 11 \
        else min(count - 11, math.ceil(0.99 * count) - 1)
    return float(ordered[index]), 100.0 * (index + 1) / count, count


def blas_build() -> str:
    """One line naming the BLAS numpy was built against."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's schema differs across numpy versions
        return "unknown"


def host_facts() -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "platform": platform.platform(),
    }


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole host from /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def load_average() -> Optional[List[float]]:
    try:
        return [round(value, 2) for value in os.getloadavg()]
    except OSError:
        return None


class Stopwatch:
    """Wall and CPU time of one phase."""

    def __init__(self) -> None:
        self.wall_start = time.perf_counter()
        self.cpu_start = cpu_seconds()
        self.wall = 0.0
        self.cpu = 0.0

    def stop(self) -> "Stopwatch":
        self.cpu = cpu_seconds() - self.cpu_start
        self.wall = time.perf_counter() - self.wall_start
        return self
