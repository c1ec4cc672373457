"""Chunked multiprocess execution over per-worker pipes.

Jobs are pulled lazily in contiguous chunks and run by the supervised
workers of :mod:`repro.sweep.backends.supervise`: crash recovery,
bounded retries and per-job timeouts come with every run, and records
drain strictly in job order. A chunk whose programs carry unpicklable
compute closures (inline lambdas) is simply computed in-process and
slotted into the same position — graceful degradation, never an error.
Each worker warms its own analysis cache, so chunking by program keeps
the cache hot, and the :class:`~repro.sweep.backends.WorkerContext`
replays the parent's disk tier so analyses are shared *across*
processes too.

With ``want_results`` every full :class:`SimulationResult` is pickled
back through the pipe — exact but pipe-bound at scale; the ``shm``
backend exists for that regime.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.sweep.backends import (
    ExecutionBackend,
    JobRecord,
    Tolerance,
    WorkerContext,
)
from repro.sweep.backends.supervise import Supervisor
from repro.sweep.jobs import SimJob


class PoolBackend(ExecutionBackend):
    """Supervised workers; rows and results cross their pipes."""

    name = "pool"

    def execute(
        self,
        jobs: Iterable[SimJob],
        *,
        want_results: bool,
        collect_errors: bool,
        workers: int,
        chunk_size: int,
        ctx: WorkerContext,
        tolerance: Tolerance,
    ) -> Iterator[JobRecord]:
        return Supervisor(
            jobs,
            want_results=want_results,
            collect_errors=collect_errors,
            workers=workers,
            chunk_size=chunk_size,
            ctx=ctx,
            tolerance=tolerance,
        ).run()
