"""Chunked multiprocess execution over per-worker pipes.

Jobs are pulled lazily in contiguous chunks and run by the supervised
workers of :mod:`repro.sweep.backends.supervise`: crash recovery,
bounded retries and per-job timeouts come with every run, and records
drain strictly in job order. A chunk whose programs carry unpicklable
compute closures (inline lambdas) is simply computed in-process and
slotted into the same position — graceful degradation, never an error.
Each worker starts with the parent's analysis cache (it is forked) and
warms its own copy from there, so chunking by program keeps the cache
hot.

Rows, mined certificates and, with ``want_results``, every full
:class:`SimulationResult` cross the worker's pipe, one message per
chunk. A full result is tens of kilobytes pickled, so a sweep that
needs only a few of them streams its rows and re-runs the jobs it wants
(see :meth:`~repro.sweep.plan.SweepSession.iter_handles`).
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
