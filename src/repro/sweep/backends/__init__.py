"""Execution backends: how a sweep's jobs actually run.

The backend contract
--------------------

A backend turns an iterable of :class:`~repro.sweep.jobs.SimJob` into an
ordered stream of :class:`JobRecord` tuples ``(index, row, result,
witness, memo_hit)``:

* records MUST be yielded in job order (index 0, 1, 2, ...);
* ``row`` is the job's :class:`~repro.sweep.summary.RunSummary` and MUST
  be byte-identical across backends for the same job list — a backend
  moves rows (in process, or over its workers' pipes) but never alters
  them;
* ``result`` is the full :class:`~repro.sim.result.SimulationResult`
  (or :class:`~repro.sweep.jobs.BatchError`) when ``want_results`` is
  set — except for a job the supervisor killed for hanging, which has
  none — else ``None``. Without ``want_results`` no backend attaches a
  result: rows come straight off the stopped simulator, and a full
  result is built only to mine a deadlock;
* ``witness`` is the mining hook: with ``mine`` set, every backend
  mines each deadlocked job *where it ran* — in process for the serial
  backend, in the worker for pool — via
  :func:`~repro.sweep.jobs.mine_witness_payload` and attaches the
  compact certificate dict; the parent merges it into the witness store
  under the usual two-way subsumption, so summary-only streams mine at
  full speed too;
* a summary-only row MAY come from the runner's memo
  (:class:`RowMemo`) instead of a simulation: a job whose
  :func:`~repro.sweep.jobs.canonical_key` repeats an earlier job of the
  same program, in the same memo, gets that job's row with its own
  ``index``, ``queues`` and ``capacity`` stamped in, and ``memo_hit``
  set. Three kinds of row are never served from the memo: rows of
  ``want_results`` runs, error rows, and deadlocked rows while mining
  is on. A backend creates one memo per serial ``execute()`` and per
  worker, so which repeats hit depends on chunking and scheduling, but
  the rows do not;
* with ``collect_errors`` unset, the first failing job's exception MUST
  propagate to the consumer (no silent loss);
* the ``tolerance`` argument tunes fault recovery and carries the
  fault plan — the pool backend runs every job under the supervisor
  (:mod:`repro.sweep.backends.supervise`: crash recovery, per-job
  wall-clock timeouts, bounded retries with backoff, poison-job
  quarantine, injected faults in the worker loop only), which satisfies
  every clause above; the serial backend, which has no worker processes
  to lose, ignores it.

Every backend runs a job through the one shared runner,
:func:`run_record`, so rows, results and witnesses come from the same
code in process and in a worker.

The built-in backends go by a short name (``serial``, ``pool``);
:func:`get_backend` resolves names for
:class:`~repro.sweep.plan.SweepSession`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from repro.arch.config import ArrayConfig
from repro.errors import ConfigError, ReproError
from repro.perf.analysis_cache import program_fingerprint
from repro.sweep.fault import Tolerance
from repro.sweep.jobs import (
    BatchError,
    ProgramShape,
    SimJob,
    canonical_key,
    mine_witness_payload,
    program_shape,
)
from repro.sweep.summary import RunSummary, summarize_result

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.result import SimulationResult


class JobRecord(NamedTuple):
    """One finished job: index, summary row and optional payloads.

    ``witness`` is a compact :meth:`~repro.witness.certificate.
    DeadlockWitness.as_dict` payload mined where the job ran (see the
    backend contract above); ``None`` whenever mining is off or the job
    left nothing to mine. ``memo_hit`` is set when the row came from the
    runner's :class:`RowMemo` instead of a simulation.
    """

    index: int
    row: RunSummary
    result: "SimulationResult | BatchError | None"
    witness: dict | None = None
    memo_hit: bool = False


class RowMemo:
    """The current program's summary rows, by canonical key.

    Jobs with equal :func:`~repro.sweep.jobs.canonical_key` perform the
    same run, so :func:`run_record` serves a repeated key from here
    instead of simulating it again. The memo holds one program at a
    time (a sweep lists each program's grid together) and forgets the
    previous program's rows when the next one arrives; the program's
    :class:`~repro.sweep.jobs.ProgramShape` is computed on that switch,
    so keying a job needs no analysis lookup. Backends create one per
    serial ``execute()`` and per worker; nothing outlives them.
    """

    __slots__ = ("shape", "rows")

    def __init__(self) -> None:
        self.shape: ProgramShape | None = None
        self.rows: dict[tuple, RunSummary] = {}

    def key(self, job: SimJob) -> tuple:
        """``job``'s canonical key, switching programs if needed."""
        shape = self.shape
        if shape is None or program_fingerprint(job.program) != shape.fingerprint:
            shape = self.shape = program_shape(job.program, job.config)
            self.rows = {}
        return canonical_key(job, shape)


def run_record(
    index: int,
    job: SimJob,
    *,
    want_result: bool,
    collect_errors: bool,
    mine: bool,
    memo: RowMemo | None = None,
) -> JobRecord:
    """Run one job and reduce it to its :class:`JobRecord`.

    The one per-job runner every backend shares. The row is read off
    the stopped simulator; the full result is built only when the caller
    ships it (``want_result``) or a deadlock is to be mined (``mine``),
    and the simulator is closed before returning, so reference counting
    frees the whole run at once. With ``collect_errors`` a
    :class:`~repro.errors.ReproError` from set-up or the run becomes a
    :class:`~repro.sweep.jobs.BatchError` row; otherwise it propagates.

    With a ``memo``, a job whose canonical key already has a row is not
    run: the record carries that row with this job's ``index``,
    ``queues`` and ``capacity`` stamped in, and ``memo_hit`` set. The
    memo is bypassed under ``want_result``, and never stores an error
    row (a job whose representative raised runs again and raises or
    collects its own error) or, while mining, a deadlocked row (a
    certificate's scope carries the job's own queue count).
    """
    result = None
    key = None
    try:
        if memo is not None and not want_result:
            key = memo.key(job)
            row = memo.rows.get(key)
            if row is not None:
                config = job.config or ArrayConfig()
                row = dataclasses.replace(
                    row,
                    index=index,
                    queues=config.queues_per_link,
                    capacity=config.queue_capacity,
                )
                return JobRecord(index, row, None, None, True)
        sim = job.simulator()
        try:
            sim.execute(max_events=job.max_events, max_time=job.max_time)
            row = summarize_result(index, job, sim)
            if want_result or (mine and sim.deadlocked):
                result = sim.result()
        finally:
            sim.close()
    except ReproError as exc:
        if not collect_errors:
            raise
        result = BatchError(kind=type(exc).__name__, error=str(exc))
        row = summarize_result(index, job, result)
    else:
        if key is not None and not (mine and row.deadlocked):
            memo.rows[key] = row
    witness = mine_witness_payload(job, result) if mine else None
    return JobRecord(index, row, result if want_result else None, witness)


class ExecutionBackend:
    """Base class every execution backend implements."""

    name = "backend"

    def execute(
        self,
        jobs: Iterable[SimJob],
        *,
        want_results: bool,
        collect_errors: bool,
        workers: int,
        chunk_size: int,
        mine: bool,
        tolerance: Tolerance,
    ) -> Iterator[JobRecord]:  # pragma: no cover - abstract
        """Run every job; yield :class:`JobRecord` in job order.

        ``mine`` attaches a mined certificate to each deadlocked job's
        record. ``tolerance`` tunes the supervisor's crash recovery,
        per-job timeouts and retries on the pool backend and carries
        its fault plan; the serial backend ignores it.
        """
        raise NotImplementedError


def _builtin_backends() -> dict[str, type[ExecutionBackend]]:
    """The built-in backends by name, imported on first use."""
    from repro.sweep.backends.pool import PoolBackend
    from repro.sweep.backends.serial import SerialBackend

    return {cls.name: cls for cls in (SerialBackend, PoolBackend)}


def available_backends() -> tuple[str, ...]:
    """Built-in backend names, sorted (importing every backend)."""
    return tuple(sorted(_builtin_backends()))


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend called ``name``."""
    backends = _builtin_backends()
    try:
        cls = backends[name]
    except KeyError:
        known = ", ".join(sorted(backends))
        raise ConfigError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return cls()
