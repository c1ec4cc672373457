"""Shared-memory execution: summary rows never cross the worker pipes.

The pipe-bound regime this backend exists for: a full-result sweep over
many jobs, where the pool backend pickles every
:class:`~repro.sim.result.SimulationResult` (traces, register files,
queue stats — tens of kilobytes each) through the pipe and the parent
deserializes all of them again. Here the parent instead allocates a
:class:`~repro.sweep.arena.SummaryArena` of fixed-width rows, workers
encode each finished job's :class:`~repro.sweep.summary.RunSummary`
directly into the job's slot (disjoint slots, no locking), and a chunk's
message carries only acknowledgements, its *overflow* rows — rows whose
strings exceed the arena's fixed fields, empty in practice — and any
witness certificates it mined.

Workers are the supervised workers of
:mod:`repro.sweep.backends.supervise`, which pull ``jobs`` lazily: the
arena is segmented and grown on demand (:meth:`SummaryArena.
ensure_rows`) before each chunk is dispatched, and fully-drained
segments are retired behind emission (:meth:`SummaryArena.
retire_below`). Peak shared memory is therefore a few live segments —
bounded by the in-flight window, not the sweep length — and the job
list is never materialized.

Full results are never materialized by this backend: the session wraps
each row in a :class:`~repro.sweep.plan.ResultHandle` that re-executes
the (deterministic) job in the parent on first access, against a warm
analysis cache. A million-run sweep therefore costs a bounded window of
256-byte slots plus the handful of full hydrations actually inspected.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.sweep.arena import SummaryArena
from repro.sweep.backends import (
    ExecutionBackend,
    JobRecord,
    Tolerance,
    WorkerContext,
    run_record,
)
from repro.sweep.backends.supervise import Supervisor
from repro.sweep.jobs import SimJob


class ShmBackend(ExecutionBackend):
    """Workers write rows into a shared arena; the pipe carries overflow."""

    name = "shm"

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
        arena = SummaryArena.create(0)
        try:
            yield from Supervisor(
                jobs,
                want_results=want_results,
                collect_errors=collect_errors,
                workers=workers,
                chunk_size=chunk_size,
                ctx=ctx,
                tolerance=tolerance,
                arena=arena,
                runner=run_record,
            ).run()
        finally:
            arena.close()
            arena.unlink()
