"""Executors: run compiled job lists serially or across a process pool.

Both executors implement the same protocol —
``run(jobs, cache=None, progress=None) -> List[JobResult]``
— and share the engine's execution contract:

* results come back in job order, so serial and parallel runs of the same
  grid are directly comparable;
* a cache hit skips execution entirely and is reported as ``from_cache``;
* a job that raises is captured as a per-job error instead of aborting the
  sweep (the failure text is the worker's traceback);
* ``progress(done, total, job_result)`` fires after every job, cache hits
  included.

After :meth:`run` returns, ``executor.last_report`` summarises the sweep
(executed / cached / failed counts plus the failed results).

Executors run experiment-grid cells through :func:`execute_job`.  Serving
does not go through an executor: :meth:`repro.api.ImputationService.gather`
calls :func:`repro.api.service.execute_serving_batch` once per model.
"""

from __future__ import annotations

import concurrent.futures
import os
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Sequence

from repro.engine.cache import ResultCache
from repro.engine.jobs import JobResult, execute_job

ProgressCallback = Callable[[int, int, JobResult], None]


class Job(Protocol):
    """What executors require of a job: a stable key and a cache veto.

    :class:`~repro.engine.jobs.JobSpec` (grid cells) satisfies this
    structurally.
    """

    def key(self) -> str: ...

    def needs_execution(self) -> bool: ...


@dataclass
class ExecutionReport:
    """Summary of one executor run."""

    total: int = 0
    executed: int = 0
    from_cache: int = 0
    failed: int = 0
    failures: List[JobResult] = field(default_factory=list)

    def describe(self) -> str:
        return (f"{self.total} jobs: {self.executed} executed, "
                f"{self.from_cache} from cache, {self.failed} failed")


class Executor(Protocol):
    """Anything that can run a list of jobs and report per-job outcomes."""

    last_report: ExecutionReport

    def run(self, jobs: Sequence[Job], cache: Optional[ResultCache] = None,
            progress: Optional[ProgressCallback] = None) -> List[JobResult]:
        ...


class _ExecutorBase:
    def __init__(self) -> None:
        self.last_report = ExecutionReport()

    @staticmethod
    def _probe_cache(spec: Job, key: str,
                     cache: Optional[ResultCache]) -> Optional[JobResult]:
        """Cached result for ``spec``, unless the job still has to run
        (e.g. its artifact has not been written yet)."""
        if cache is None or spec.needs_execution():
            return None
        return cache.get(key)

    def _record(self, job_result: JobResult,
                cache: Optional[ResultCache]) -> None:
        report = self.last_report
        if job_result.from_cache:
            report.from_cache += 1
        elif job_result.ok:
            report.executed += 1
            if cache is not None:
                cache.put(job_result)
        else:
            report.executed += 1
            report.failed += 1
            report.failures.append(job_result)


class SerialExecutor(_ExecutorBase):
    """Run every job in the calling process, one after another."""

    def run(self, jobs: Sequence[Job], cache: Optional[ResultCache] = None,
            progress: Optional[ProgressCallback] = None) -> List[JobResult]:
        self.last_report = ExecutionReport(total=len(jobs))
        results: List[JobResult] = []
        for index, spec in enumerate(jobs):
            key = spec.key()
            cached = self._probe_cache(spec, key, cache)
            job_result = cached if cached is not None \
                else execute_job(spec, key=key)
            self._record(job_result, cache)
            results.append(job_result)
            if progress is not None:
                progress(index + 1, len(jobs), job_result)
        return results


class ParallelExecutor(_ExecutorBase):
    """Run jobs across a :class:`concurrent.futures.ProcessPoolExecutor`.

    Job specs and results cross the process boundary by pickling, which the
    engine's dataclasses (and, through ``BaseImputer.clone``/``get_state``,
    prototype imputers) are designed to support.  Cache lookups and writes
    happen only in the parent process.
    """

    def __init__(self, workers: Optional[int] = None):
        super().__init__()
        self.workers = workers or os.cpu_count() or 1

    def run(self, jobs: Sequence[Job], cache: Optional[ResultCache] = None,
            progress: Optional[ProgressCallback] = None) -> List[JobResult]:
        self.last_report = ExecutionReport(total=len(jobs))
        results: List[Optional[JobResult]] = [None] * len(jobs)
        keys = [spec.key() for spec in jobs]
        pending = []
        done = 0
        for index, spec in enumerate(jobs):
            cached = self._probe_cache(spec, keys[index], cache)
            if cached is not None:
                results[index] = cached
                self._record(cached, cache)
                done += 1
                if progress is not None:
                    progress(done, len(jobs), cached)
            else:
                pending.append(index)

        if pending:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(self.workers, len(pending))) as pool:
                futures = {pool.submit(execute_job, jobs[index],
                                       key=keys[index]): index
                           for index in pending}
                for future in concurrent.futures.as_completed(futures):
                    index = futures[future]
                    try:
                        job_result = future.result()
                    except Exception:
                        # Pickling/transport failures never abort the sweep.
                        job_result = JobResult(key=keys[index],
                                               error=traceback.format_exc())
                    results[index] = job_result
                    self._record(job_result, cache)
                    done += 1
                    if progress is not None:
                        progress(done, len(jobs), job_result)
        return list(results)


def make_executor(workers: Optional[int] = None) -> Executor:
    """Serial executor for ``workers in (None, 0, 1)``, parallel otherwise."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers=workers)
