"""Chunked multiprocessing execution over a pool pipe.

Jobs are split into contiguous chunks and farmed to a
:class:`multiprocessing.Pool` through a bounded window of
``apply_async`` futures: at most ``workers * 2`` chunks are in flight,
results drain strictly in job order, and a chunk whose programs carry
unpicklable compute closures (inline lambdas) is simply computed
in-process and slotted into the same window position — graceful
degradation, never an error. Each worker warms its own analysis cache,
so chunking by program keeps the cache hot, and the
:class:`~repro.sweep.backends.WorkerContext` replays the parent's disk
tier so analyses are shared *across* processes too.

With ``want_results`` every full :class:`SimulationResult` is pickled
back through the pipe — exact but pipe-bound at scale; the ``shm``
backend exists for that regime.
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle
import weakref
from collections import deque
from typing import Iterable, Iterator

from repro.sweep.backends import (
    ExecutionBackend,
    JobRecord,
    RowMemo,
    Tolerance,
    WorkerContext,
    register_backend,
    run_record,
)
from repro.sweep.jobs import SimJob, iter_chunks


def _run_chunk(
    chunk: list[tuple[int, SimJob]],
    want_results: bool,
    collect_errors: bool,
    ctx: WorkerContext,
) -> list[JobRecord]:
    """Worker entry point: run a chunk, tagging rows with job indices."""
    ctx.apply()
    memo = RowMemo()
    return [
        run_record(
            index,
            job,
            want_result=want_results,
            collect_errors=collect_errors,
            mine=ctx.mine_witnesses,
            memo=memo,
        )
        for index, job in chunk
    ]


class _PicklabilityCache:
    """Weak identity cache of already-probed programs.

    Weak references (checked for identity) make CPython ``id()`` reuse
    harmless: if the original program was freed, its entry no longer
    matches and the new occupant of that address is probed like any
    other.
    """

    def __init__(self) -> None:
        self._probed_ok: dict[int, weakref.ref] = {}

    def chunk_picklable(self, chunk: list[tuple[int, SimJob]]) -> bool:
        probed_ok = self._probed_ok
        probes = []
        for _index, job in chunk:
            known = probed_ok.get(id(job.program))
            if known is None or known() is not job.program:
                probes.append(job)
        if probes:
            try:
                pickle.dumps(probes)
            except (pickle.PicklingError, TypeError, AttributeError):
                # The ways CPython actually refuses a pickle: explicit
                # PicklingError, TypeError ("cannot pickle '...' object")
                # and AttributeError for unreachable locals (lambdas,
                # closures). Anything else is a real bug in the program
                # object and must surface, not silently demote the chunk
                # to in-process execution.
                return False
            if len(probed_ok) >= 1024:
                # Keep the cache O(live programs): drop entries whose
                # program has been freed (an endless stream of distinct
                # programs would otherwise grow it without bound).
                for key in [k for k, ref in probed_ok.items() if ref() is None]:
                    del probed_ok[key]
            for job in probes:
                try:
                    probed_ok[id(job.program)] = weakref.ref(job.program)
                except TypeError:  # pragma: no cover - unweakrefable program
                    pass
        return True


@register_backend
class PoolBackend(ExecutionBackend):
    """Chunked multiprocessing with an ordered, bounded drain window."""

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
        tolerance: Tolerance | None = None,
    ) -> Iterator[JobRecord]:
        probe = _PicklabilityCache()
        if tolerance is not None:
            # Fault-tolerant path: the supervised executor owns worker
            # lifecycles (crash recovery, per-job timeouts, retries).
            from repro.sweep.backends.supervise import run_supervised

            yield from run_supervised(
                list(jobs),
                want_results=want_results,
                collect_errors=collect_errors,
                workers=workers,
                chunk_size=chunk_size,
                ctx=ctx,
                tolerance=tolerance,
                probe=probe,
            )
            return
        run_chunk = functools.partial(
            _run_chunk,
            want_results=want_results,
            collect_errors=collect_errors,
            ctx=ctx,
        )
        # Windowed apply_async keeps ordering exact and memory bounded:
        # at most `max_pending` chunks are in flight, and a chunk that
        # cannot cross the pipe is computed here and slotted into the
        # same window position.
        max_pending = workers * 2
        with multiprocessing.Pool(processes=workers) as pool:
            window: deque = deque()

            def drain_one() -> Iterator[JobRecord]:
                pending = window.popleft()
                records = pending.get() if hasattr(pending, "get") else pending
                yield from records

            for chunk in iter_chunks(jobs, chunk_size):
                if probe.chunk_picklable(chunk):
                    window.append(pool.apply_async(run_chunk, (chunk,)))
                else:
                    window.append(run_chunk(chunk))
                while len(window) >= max_pending:
                    yield from drain_one()
            while window:
                yield from drain_one()
