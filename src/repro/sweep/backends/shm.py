"""Shared-memory execution: summary rows never cross the pool pipe.

The pipe-bound regime this backend exists for: a full-result sweep over
many jobs, where the pool backend pickles every
:class:`~repro.sim.result.SimulationResult` (traces, register files,
queue stats — tens of kilobytes each) through the pool pipe and the
parent deserializes all of them again. Here the parent instead allocates
a :class:`~repro.sweep.arena.SummaryArena` of fixed-width rows, workers
encode each finished job's :class:`~repro.sweep.summary.RunSummary`
directly into the job's slot (disjoint slots, no locking), and the only
things a chunk returns through the pipe are its *overflow* rows — rows
whose strings exceed the arena's fixed fields, empty in practice — and
any witness certificates it mined.

The arena is segmented and grown on demand (:meth:`SummaryArena.
ensure_rows`), so ``jobs`` may be a lazy generator: the parent sizes
capacity one chunk ahead of dispatch and retires fully-drained segments
behind the window (:meth:`SummaryArena.retire_below`). Peak shared
memory is therefore a few live segments — bounded by the in-flight
window, not the sweep length — and the job list is never materialized.
(The fault-tolerant path still materializes: the supervisor requeues
failed jobs by random access.)

Full results are never materialized by this backend: the session wraps
each row in a :class:`~repro.sweep.plan.ResultHandle` that re-executes
the (deterministic) job in the parent on first access, against a warm
analysis cache. A million-run sweep therefore costs a bounded window of
256-byte slots plus the handful of full hydrations actually inspected.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from typing import Iterable, Iterator

from repro.sweep.arena import SummaryArena
from repro.sweep.backends import (
    ExecutionBackend,
    JobRecord,
    RowMemo,
    Tolerance,
    WorkerContext,
    register_backend,
    run_record,
)
from repro.sweep.backends.pool import _PicklabilityCache
from repro.sweep.jobs import SimJob, iter_chunks
from repro.sweep.summary import RunSummary


def _fill_arena(
    arena: SummaryArena,
    chunk: list[tuple[int, SimJob]],
    collect_errors: bool,
    mine: bool,
) -> tuple[list[tuple[int, RunSummary]], list[tuple[int, dict]], list[int]]:
    """Run a chunk, writing rows into ``arena``.

    Returns ``(overflow, mined, memo_hits)``: rows whose strings did not
    fit a slot (shipped through the pipe instead), the compact witness
    dicts mined from deadlocked jobs when ``mine`` is set, and the
    indices whose rows the chunk's memo served.
    """
    overflow: list[tuple[int, RunSummary]] = []
    mined: list[tuple[int, dict]] = []
    memo_hits: list[int] = []
    memo = RowMemo()
    for index, job in chunk:
        record = run_record(
            index,
            job,
            want_result=False,
            collect_errors=collect_errors,
            mine=mine,
            memo=memo,
        )
        if not arena.write_row(index, record.row):
            overflow.append((index, record.row))
        if record.witness is not None:
            mined.append((index, record.witness))
        if record.memo_hit:
            memo_hits.append(index)
    return overflow, mined, memo_hits


def _run_chunk_shm(
    chunk: list[tuple[int, SimJob]],
    arena_name: str,
    n_rows: int,
    segment_rows: int,
    collect_errors: bool,
    ctx: WorkerContext,
) -> tuple[list[tuple[int, RunSummary]], list[tuple[int, dict]], list[int]]:
    """Worker entry point: rows go to the arena, overflow to the pipe."""
    ctx.apply()
    # Lazy attach: the parent may already have retired early segments
    # this chunk will never touch.
    arena = SummaryArena.attach(
        arena_name, n_rows, segment_rows=segment_rows, lazy=True
    )
    try:
        return _fill_arena(arena, chunk, collect_errors, ctx.mine_witnesses)
    finally:
        arena.close()


@register_backend
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
        tolerance: Tolerance | None = None,
    ) -> Iterator[JobRecord]:
        probe = _PicklabilityCache()
        if tolerance is not None:
            # Fault-tolerant path: supervised workers still write rows
            # into the shared arena; the supervisor decodes each slot on
            # acknowledgement and requeues any job whose slot reads back
            # unwritten (a dead worker or a torn write). Supervision
            # requeues by random access into the job list, so this path
            # materializes it — only the fast path below streams.
            from repro.sweep.backends.supervise import run_supervised

            job_list = list(jobs)
            n = len(job_list)
            if n == 0:
                return
            arena = SummaryArena.create(n)
            try:
                yield from run_supervised(
                    job_list,
                    want_results=want_results,
                    collect_errors=collect_errors,
                    workers=workers,
                    chunk_size=chunk_size,
                    ctx=ctx,
                    tolerance=tolerance,
                    arena=arena,
                    probe=probe,
                )
            finally:
                arena.close()
                arena.unlink()
            return
        arena = SummaryArena.create(0)
        try:
            def run_chunk_local(
                chunk: list[tuple[int, SimJob]]
            ) -> tuple[list, list, list]:
                # In-process fallback for unpicklable chunks: write
                # through the owning arena handle directly (attaching a
                # second handle would confuse the resource tracker).
                return _fill_arena(
                    arena, chunk, collect_errors, ctx.mine_witnesses
                )

            max_pending = workers * 2
            with multiprocessing.Pool(processes=workers) as pool:
                window: deque = deque()

                def drain_one() -> Iterator[JobRecord]:
                    chunk, pending = window.popleft()
                    payload = (
                        pending.get() if hasattr(pending, "get") else pending
                    )
                    overflow, mined, memo_hits = payload
                    spilled = dict(overflow)
                    witnesses = dict(mined)
                    served = set(memo_hits)
                    for index, _job in chunk:
                        row = spilled.get(index)
                        if row is None:
                            row = arena.read_row(index)
                        yield JobRecord(
                            index,
                            row,
                            None,
                            witnesses.get(index),
                            index in served,
                        )
                    # Every slot at or below this chunk is decoded now;
                    # release the segments behind the window.
                    arena.retire_below(chunk[-1][0] + 1)

                for chunk in iter_chunks(jobs, chunk_size):
                    # Grow capacity one chunk ahead of dispatch: workers
                    # attach lazily, so the segments must exist before
                    # the chunk can run.
                    arena.ensure_rows(chunk[-1][0] + 1)
                    if probe.chunk_picklable(chunk):
                        window.append(
                            (
                                chunk,
                                pool.apply_async(
                                    _run_chunk_shm,
                                    (
                                        chunk,
                                        arena.name,
                                        arena.n_rows,
                                        arena.segment_rows,
                                        collect_errors,
                                        ctx,
                                    ),
                                ),
                            )
                        )
                    else:
                        window.append((chunk, run_chunk_local(chunk)))
                    while len(window) >= max_pending:
                        yield from drain_one()
                while window:
                    yield from drain_one()
        finally:
            arena.close()
            arena.unlink()
