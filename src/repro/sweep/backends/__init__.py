"""How a sweep's jobs run: in process, or on supervised workers.

The sweep contract
------------------

:func:`execute` turns an iterable of :class:`~repro.sweep.jobs.SimJob`
into an ordered stream of :class:`JobRecord` tuples ``(index, row,
witness, memo_hit)``. It runs the jobs one of two ways, ``serial`` (a
loop in this process) or ``pool`` (the supervised workers of
:mod:`repro.sweep.backends.supervise`), and both keep every clause
below, so which one ran a sweep never changes its answer:

* records are yielded in job order (index 0, 1, 2, ...);
* ``row`` is the job's :class:`~repro.sweep.summary.RunSummary`, read
  off the stopped simulator by :func:`run_record`, the one per-job
  runner both ways share. It is byte-identical whichever way the job
  ran: a row crosses a worker's pipe but never changes. A full result
  is built only to mine a deadlock;
* ``witness`` is the mining hook: with ``mine`` set, each deadlocked
  job is mined *where it ran*, in process or in the worker, via
  :func:`~repro.sweep.jobs.mine_witness_payload`, and its record
  carries the compact certificate dict; the parent merges it into the
  witness store under the usual two-way subsumption;
* a row may come from the runner's memo (:class:`RowMemo`) instead of a
  simulation: a job whose :func:`~repro.sweep.jobs.canonical_key`
  repeats an earlier job of the same program, in the same memo, gets
  that job's row with its own ``index``, ``policy``, ``queues`` and
  ``capacity`` stamped in, and ``memo_hit`` set (an FCFS job with a
  queue per competing message keys as the static run, so it may be
  served a static job's row). Two kinds of row are never served from
  the memo: error rows, and deadlocked rows while mining is on. The
  serial loop keeps one memo and each worker its own, so which repeats
  hit depends on chunking and scheduling, but the rows do not;
* a :class:`~repro.errors.ReproError` in a job (an infeasible corner,
  say) is data: a :class:`~repro.sweep.jobs.BatchError` row. Any other
  exception propagates to the consumer at its job's position, after
  every earlier row, and the workers are reaped;
* on ``pool`` a worker that dies is replaced and the job it was running
  is retried; past ``Tolerance.max_retries`` that job becomes a
  ``WorkerCrash`` row, and a job past ``Tolerance.job_timeout_s`` a
  timeout row. The :class:`~repro.sweep.fault.Tolerance` tunes this and
  carries the injected-fault plan; the serial loop has no worker to
  lose and ignores it.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, NamedTuple

from repro.arch.config import ArrayConfig
from repro.errors import ReproError
from repro.perf.analysis_cache import ProgramShape
from repro.sweep.fault import Tolerance
from repro.sweep.jobs import (
    BatchError,
    SimJob,
    canonical_key,
    mine_witness_payload,
    program_shape,
)
from repro.sweep.summary import RunSummary, summarize_result

#: The two ways :func:`execute` runs a sweep, sorted.
BACKENDS = ("pool", "serial")


class JobRecord(NamedTuple):
    """One finished job: index, summary row and its mining payload.

    ``witness`` is a compact :meth:`~repro.witness.certificate.
    DeadlockWitness.as_dict` payload mined where the job ran (see the
    sweep contract above); ``None`` whenever mining is off or the job
    left nothing to mine. ``memo_hit`` is set when the row came from the
    runner's :class:`RowMemo` instead of a simulation.
    """

    index: int
    row: RunSummary
    witness: dict | None = None
    memo_hit: bool = False


class RowMemo:
    """The current program's summary rows, by canonical key.

    Jobs with equal :func:`~repro.sweep.jobs.canonical_key` perform the
    same run, so :func:`run_record` serves a repeated key from here
    instead of simulating it again, re-stamped with the job's own
    ``index``, ``policy``, ``queues`` and ``capacity``. The memo holds
    one program at a time (a sweep lists each program's grid together)
    and forgets the previous program's rows when the next one arrives.
    A program is identified by its fingerprint, which covers message
    declaration order, so a re-declared program is a new program here.
    On a switch the memo reads the program's
    :class:`~repro.perf.analysis_cache.ProgramShape` off its
    default-array analysis entry (one lookup), so keying a job needs no
    lookup. The serial loop and each worker keep one; nothing outlives
    them.
    """

    __slots__ = ("shape", "rows")

    def __init__(self) -> None:
        self.shape: ProgramShape | None = None
        self.rows: dict[tuple, RunSummary] = {}

    def key(self, job: SimJob) -> tuple:
        """``job``'s canonical key, switching programs if needed."""
        shape = self.shape
        if shape is None or job.program.fingerprint != shape.fingerprint:
            shape = self.shape = program_shape(job.program)
            self.rows = {}
        return canonical_key(job, shape)


def run_record(
    index: int,
    job: SimJob,
    *,
    mine: bool,
    memo: RowMemo | None = None,
) -> JobRecord:
    """Run one job and reduce it to its :class:`JobRecord`.

    The one per-job runner of every sweep. The row is read off the
    stopped simulator; the full result is built only when a deadlock is
    to be mined (``mine``), and the simulator is closed before
    returning, so reference counting frees the whole run at once. A
    :class:`~repro.errors.ReproError` from set-up or the run becomes a
    :class:`~repro.sweep.jobs.BatchError` row; any other exception
    propagates.

    With a ``memo``, a job whose canonical key already has a row is not
    run: the record carries that row with this job's ``index``,
    ``policy``, ``queues`` and ``capacity`` stamped in, and ``memo_hit``
    set. The memo never stores an error row (a job whose representative
    raised runs again and gets its own error row) or, while mining, a
    deadlocked row (a certificate's scope carries the job's own queue
    count).
    """
    result = None
    key = None
    try:
        if memo is not None:
            key = memo.key(job)
            row = memo.rows.get(key)
            if row is not None:
                config = job.config or ArrayConfig()
                row = dataclasses.replace(
                    row,
                    index=index,
                    policy=job.policy,
                    queues=config.queues_per_link,
                    capacity=config.queue_capacity,
                )
                return JobRecord(index, row, None, True)
        sim = job.simulator()
        try:
            sim.execute(max_events=job.max_events, max_time=job.max_time)
            row = summarize_result(index, job, sim)
            if mine and sim.deadlocked:
                result = sim.result()
        finally:
            sim.close()
    except ReproError as exc:
        result = BatchError(kind=type(exc).__name__, error=str(exc))
        row = summarize_result(index, job, result)
    else:
        if key is not None and not (mine and row.deadlocked):
            memo.rows[key] = row
    witness = mine_witness_payload(job, result) if mine else None
    return JobRecord(index, row, witness)


def execute(
    jobs: Iterable[SimJob],
    backend: str,
    *,
    workers: int,
    chunk_size: int,
    mine: bool,
    tolerance: Tolerance,
) -> Iterator[JobRecord]:
    """Run every job on ``backend``; yield :class:`JobRecord` in job order.

    ``serial`` runs each job through :func:`run_record` here, in order,
    with one memo; ``workers``, ``chunk_size`` and ``tolerance`` do not
    apply. ``pool`` hands the jobs to the
    :class:`~repro.sweep.backends.supervise.Supervisor`. Closing the
    returned generator reaps the workers at once.
    """
    if backend == "pool":
        from repro.sweep.backends.supervise import Supervisor

        yield from Supervisor(
            jobs,
            workers=workers,
            chunk_size=chunk_size,
            mine=mine,
            tolerance=tolerance,
        ).run()
        return
    memo = RowMemo()
    for index, job in enumerate(jobs):
        yield run_record(index, job, mine=mine, memo=memo)


def available_backends() -> tuple[str, ...]:
    """:data:`BACKENDS`, with the multiprocess code imported."""
    import repro.sweep.backends.supervise  # noqa: F401

    return BACKENDS
