"""JSONL-backed result store keyed by job hash.

The cache makes sweeps resumable: every completed cell is appended to
``results.jsonl`` under its deterministic :meth:`JobSpec.key`, and an
executor consults the cache before running a job — matching cells are
served from disk and never re-executed.  Failed jobs are *not* cached, so a
re-run retries exactly the cells that are still missing.

The file is append-only and each line is self-contained, so a sweep killed
mid-write loses at most its final (truncated) line, which is skipped on the
next load.

Concurrent writers are safe: several processes may share one ``cache_dir``
(e.g. parallel sweeps resuming the same grid from different shells).  Every
append is a **single** ``write()`` on an ``O_APPEND`` descriptor — POSIX
guarantees the bytes of such a write land contiguously, so lines from
different processes can interleave *between* records but never *inside*
one — and the write additionally holds an advisory file lock
(``results.jsonl.lock``) so even platforms with weaker append atomicity
(network filesystems, Windows) serialise correctly.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.engine.jobs import JobResult

RESULTS_FILENAME = "results.jsonl"
LOCK_FILENAME = RESULTS_FILENAME + ".lock"

try:
    import fcntl
except ImportError:                                       # pragma: no cover
    fcntl = None                                          # non-POSIX hosts


@contextlib.contextmanager
def _advisory_lock(lock_path: Path):
    """Hold an exclusive advisory lock on ``lock_path`` for the block.

    A separate sidecar file is locked (never the data file itself) so the
    lock's lifetime cannot interfere with readers streaming the JSONL.  On
    platforms without ``fcntl`` the lock degrades to a no-op and the
    ``O_APPEND`` single-write discipline remains the only (still line-safe
    on local filesystems) guard.
    """
    if fcntl is None:                                     # pragma: no cover
        yield
        return
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        # Closing the descriptor releases the flock.
        os.close(fd)


def append_record_line(path: Union[str, os.PathLike], *lines: str) -> None:
    """Append complete text lines with a single ``O_APPEND`` write.

    The journal-write discipline (repro-lint RL004) as a reusable helper:
    the encoded lines land together via ``os.write`` on an ``O_APPEND``
    descriptor, so concurrent writers interleave between writes, never
    inside one, and a SIGKILL can tear only the tail of the final write
    (several lines, when it carried several).  No line should contain a
    newline; one is appended to each.
    """
    encoded = "".join(line + "\n" for line in lines).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        view = memoryview(encoded)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


class ResultCache:
    """Persistent map ``job key -> JobResult`` stored as JSON lines."""

    def __init__(self, directory: Union[str, os.PathLike]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / RESULTS_FILENAME
        self.lock_path = self.directory / LOCK_FILENAME
        self._records: Dict[str, JobResult] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated tail line from an interrupted run
                result = JobResult.from_record(record, from_cache=True)
                if result.ok:
                    self._records[result.key] = result

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[JobResult]:
        """Cached result for ``key``, or ``None``."""
        return self._records.get(key)

    def put(self, job_result: JobResult) -> None:
        """Persist a successful result; errors and duplicates are ignored.

        The record is serialised first and appended as one ``write()`` of a
        complete line on an ``O_APPEND`` descriptor, under the advisory
        lock, so concurrent writers sharing this ``cache_dir`` can never
        corrupt each other's lines.
        """
        if not job_result.ok or job_result.key in self._records:
            return
        # os.write may report a short write (signal interruption, giant
        # records); append_record_line finishes the line — under the lock
        # this is still torn-proof — so a half-record can never glue
        # itself to the next writer's line.
        with _advisory_lock(self.lock_path):
            append_record_line(self.path, json.dumps(job_result.to_record()))
        self._records[job_result.key] = JobResult(
            key=job_result.key, result=job_result.result, from_cache=True)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)
