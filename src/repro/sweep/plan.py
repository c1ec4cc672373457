"""Sweep plans and sessions: declare what to run, pick how to run it.

A :class:`SweepPlan` is a declarative bundle — jobs, optional grid
labels, streaming reducers, backend choice and execution knobs. A
:class:`SweepSession` validates it, resolves the execution backend and
runs it in one of two shapes:

* :meth:`SweepSession.stream` — lazily yield one
  :class:`~repro.sweep.summary.RunSummary` per job, in job order,
  feeding every reducer along the way. Full results never accumulate.
* :meth:`SweepSession.run` — eagerly execute everything and return a
  :class:`SweepOutcome` whose :class:`ResultHandle` objects expose the
  full per-job results: materialized by the backend that ran the job,
  or, for a job the witness store answered without running it,
  hydrated on demand (a deterministic in-parent re-execution against
  the warm analysis cache).

Reducers are always folded in the parent, in job order, so their
summaries are byte-identical no matter which backend ran the jobs; the
reducers' ``merge`` contract additionally lets *separate* sessions — a
sweep sharded over machines or sessions — combine their aggregates.

:func:`simulate_many` and :func:`simulate_stream` are the long-standing
public entry points, now thin shims over a plan + session.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import CheckpointError, ConfigError
from repro.sweep.backends import (
    ExecutionBackend,
    FaultPlan,
    JobRecord,
    Tolerance,
    WorkerContext,
    get_backend,
    run_record,
)
from repro.sweep.jobs import (
    BatchError,
    SimJob,
    default_chunk_size,
    normalize_jobs,
    witness_row,
)
from repro.sweep.reducers import StreamReducer
from repro.sweep.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.program import ArrayProgram
    from repro.arch.config import ArrayConfig
    from repro.sim.result import SimulationResult
    from repro.witness.store import WitnessStore

_VALID_ON_ERROR = ("raise", "collect")


def _auto_backend(workers: int) -> str:
    """``serial`` for one worker or one CPU, else ``pool``.

    On one CPU, worker processes only add transport to the same compute.
    An unknown CPU count counts as more than one.
    """
    return "serial" if workers == 1 or os.cpu_count() == 1 else "pool"


@dataclass(frozen=True)
class SweepPlan:
    """Everything a sweep needs: jobs, labels, reducers, backend, knobs.

    ``jobs`` may be any iterable (a lazy generator feeds
    :meth:`SweepSession.stream` without materializing, on every
    backend; :meth:`SweepSession.run` materializes it). ``backend``
    ``None`` resolves to ``serial`` when ``workers == 1`` or the host
    has one CPU, and ``pool`` otherwise.

    The pool backend always runs under the supervisor
    (:mod:`repro.sweep.backends.supervise`): a crashed worker is
    replaced and its job retried. ``max_retries`` (default 2),
    ``job_timeout_s`` (default none) and ``retry_backoff_s`` tune that
    recovery; ``fault_plan`` injects faults to test it.

    ``checkpoint`` names a file for periodic atomic progress snapshots
    (:mod:`repro.sweep.checkpoint`); with ``resume`` a sweep restarted
    against an existing checkpoint skips finished jobs and its reducers
    report byte-identically to an uninterrupted run. Checkpointing is a
    streaming feature: :meth:`SweepSession.run` /
    :meth:`SweepSession.iter_handles` reject it.

    ``witness_store`` attaches a deadlock-witness store
    (:class:`~repro.witness.store.WitnessStore`): each job is checked
    against the store before dispatch and, when a stored certificate
    covers it row-exactly, its deadlock row is synthesized
    (:func:`~repro.sweep.jobs.witness_row`) instead of simulated —
    counted in :attr:`SweepSession.witness_pruned`. With
    ``witness_mine`` (the default), every deadlocked job is mined into a
    new certificate where it ran — in process on the serial backend,
    inside the workers on ``pool`` — and only the compact
    certificate dict travels back on its record, so summary-only
    streams warm the store at full speed on every backend (a job builds
    its full result only to be mined or shipped). Only monotone
    policies are ever pruned or mined (FCFS is exempt by construction —
    see :mod:`repro.witness.certificate`); composing with ``checkpoint`` is
    safe because pruned jobs are marked done like simulated ones and
    the grid fingerprint does not depend on the store.

    Summary-only streams also skip repeated runs with no knob to set:
    the backends' shared runner serves a job whose
    :func:`~repro.sweep.jobs.canonical_key` repeats an earlier job of
    the same program from a per-program row memo
    (:class:`~repro.sweep.backends.RowMemo`), re-stamped with the job's
    own index, queues and capacity, and counts it in
    :attr:`SweepSession.memo_hits`. Full-result runs, error rows and,
    with a witness store mining, deadlocked rows always simulate.
    """

    jobs: Iterable[SimJob]
    labels: Sequence[str] | None = None
    reducers: Sequence[StreamReducer] = ()
    backend: str | None = None
    workers: int = 1
    chunk_size: int | None = None
    on_error: str = "collect"
    job_timeout_s: float | None = None
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    fault_plan: FaultPlan | None = None
    checkpoint: str | None = None
    checkpoint_every: int = 64
    resume: bool = False
    witness_store: "WitnessStore | None" = None
    witness_mine: bool = True


_UNSET = object()


class ResultHandle:
    """One job's full result, materialized or hydratable on demand.

    ``summary`` is always present (the flat
    :class:`~repro.sweep.summary.RunSummary` row). :meth:`result`
    returns the full :class:`~repro.sim.result.SimulationResult` (or
    :class:`~repro.sweep.jobs.BatchError`): a handle whose job ran holds
    the result its backend materialized; a handle without one (a job
    the witness store answered, or one the supervisor killed for
    hanging) re-executes the job in-parent on first access —
    simulations are deterministic and the analysis cache is warm, so
    hydration is exact.
    """

    __slots__ = ("summary", "label", "_job", "_collect_errors", "_result")

    def __init__(
        self,
        summary: RunSummary,
        job: SimJob,
        collect_errors: bool,
        result: "SimulationResult | BatchError | None | object" = _UNSET,
        label: str | None = None,
    ) -> None:
        self.summary = summary
        self.label = label
        self._job = job
        self._collect_errors = collect_errors
        self._result = result

    @property
    def hydrated(self) -> bool:
        """Whether :meth:`result` already holds a materialized result."""
        return self._result is not _UNSET

    def result(self) -> "SimulationResult | BatchError":
        """The full result, re-executing the job on first access."""
        if self._result is _UNSET:
            self._result = run_record(
                self.summary.index,
                self._job,
                want_result=True,
                collect_errors=self._collect_errors,
                mine=False,
            ).result
        return self._result


@dataclass
class SweepOutcome:
    """An eagerly executed sweep: rows, result handles, fed reducers."""

    rows: list[RunSummary]
    handles: list[ResultHandle]
    reducers: tuple[StreamReducer, ...]
    labels: list[str] | None = None

    def results(self) -> "list[SimulationResult | BatchError]":
        """Every job's full result, hydrating where necessary."""
        return [handle.result() for handle in self.handles]

    def reducer_summaries(self) -> dict[str, dict]:
        """``{reducer.name: reducer.summary()}`` for every reducer."""
        return {reducer.name: reducer.summary() for reducer in self.reducers}


class SweepSession:
    """Validates a :class:`SweepPlan` and executes it."""

    #: The exception that prevented the final checkpoint snapshot of a
    #: checkpointed stream, or ``None``. Always set when the final save
    #: fails — even on the interpreter-shutdown path where raising is
    #: unsafe — so a caller holding the session can always detect a
    #: stale checkpoint.
    checkpoint_error: BaseException | None

    #: Jobs answered from the witness store instead of simulated, and
    #: new certificates mined from this session's deadlocked results.
    #: Both stay 0 when ``plan.witness_store`` is ``None``.
    witness_pruned: int
    witness_mined: int

    #: Rows the runner's memo served instead of simulating (see
    #: :class:`~repro.sweep.backends.RowMemo`). Exact on the serial
    #: backend; the pool backend counts its workers' hits, which depend
    #: on chunking.
    memo_hits: int

    def __init__(self, plan: SweepPlan) -> None:
        self.checkpoint_error = None
        self.witness_pruned = 0
        self.witness_mined = 0
        self.memo_hits = 0
        if plan.on_error not in _VALID_ON_ERROR:
            raise ConfigError(
                f"on_error must be 'raise' or 'collect', got {plan.on_error!r}"
            )
        if plan.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {plan.workers}")
        if plan.chunk_size is not None and plan.chunk_size < 1:
            raise ConfigError(
                f"chunk_size must be >= 1, got {plan.chunk_size}"
            )
        if plan.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {plan.checkpoint_every}"
            )
        if plan.resume and plan.checkpoint is None:
            raise ConfigError("resume=True requires a checkpoint path")
        self.plan = plan
        self.backend: ExecutionBackend = get_backend(
            plan.backend
            if plan.backend is not None
            else _auto_backend(plan.workers)
        )
        # Constructing the Tolerance up front validates the knobs
        # (negative retries, non-positive timeouts) at session creation.
        self.tolerance = self._make_tolerance()
        # With a store attached, every backend mines each deadlock
        # where the job ran and ships a compact certificate on its
        # record; the parent merges them (see _witness_records).
        mine = plan.witness_store is not None and plan.witness_mine
        self.ctx = WorkerContext.capture(plan.fault_plan, mine_witnesses=mine)

    def _make_tolerance(self) -> Tolerance:
        """The supervisor's recovery policy from the plan's knobs."""
        plan = self.plan
        return Tolerance(
            max_retries=plan.max_retries,
            job_timeout_s=plan.job_timeout_s,
            retry_backoff_s=plan.retry_backoff_s,
        )

    def _collect_errors(self) -> bool:
        return self.plan.on_error == "collect"

    def _chunk_size(self, jobs: Iterable[SimJob]) -> int:
        if self.plan.chunk_size is not None:
            return self.plan.chunk_size
        try:
            n = len(jobs)  # type: ignore[arg-type]
        except TypeError:
            return 32  # lazy stream: a fixed chunk keeps memory bounded
        return default_chunk_size(n, self.plan.workers)

    def _execute(
        self, jobs: Iterable[SimJob], want_results: bool
    ) -> Iterator[JobRecord]:
        records = self.backend.execute(
            jobs,
            want_results=want_results,
            collect_errors=self._collect_errors(),
            workers=self.plan.workers,
            chunk_size=self._chunk_size(jobs),
            ctx=self.ctx,
            tolerance=self.tolerance,
        )
        try:
            for record in records:
                if record.memo_hit:
                    self.memo_hits += 1
                yield record
        finally:
            # Closing this stream must tear the backend down now (reap
            # its workers), not when the GC gets to it.
            records.close()

    def _witness_records(
        self, jobs: Iterable[SimJob], want_results: bool
    ) -> Iterator[JobRecord]:
        """Backend records merged with store-synthesized rows, in order.

        Each job is checked against ``plan.witness_store`` as the
        backend pulls it: covered jobs are withheld from execution and
        their deadlock rows synthesized (:func:`~repro.sweep.jobs.
        witness_row`, byte-identical to the simulated row inside the
        certificate's capacity band); the rest run normally and their
        compact record indices are mapped back to original positions.
        Synthesized rows interleave with executed ones by ascending
        original index, so downstream consumers (reducers, checkpoints,
        the CLI tables) cannot tell a pruned row from a simulated one.

        Mining rides the same pass: with ``plan.witness_mine`` set,
        every backend mines each deadlocked job where it ran
        (``WorkerContext.mine_witnesses``) and attaches the compact
        certificate dict to its record; the parent rehydrates and merges
        it under the store's usual two-way subsumption.
        """
        from collections import deque

        store = self.plan.witness_store
        synth: deque[tuple[int, RunSummary]] = deque()
        # Original indices of dispatched jobs; records arrive in compact
        # order, so each one pops the head and memory stays flat.
        sent: deque[int] = deque()

        def feed() -> Iterator[SimJob]:
            for original, job in enumerate(jobs):
                witness = store.find(job)
                if witness is not None:
                    synth.append((original, witness_row(original, job, witness)))
                    self.witness_pruned += 1
                    continue
                sent.append(original)
                yield job

        for record in self._execute(feed(), want_results=want_results):
            original = sent.popleft()
            while synth and synth[0][0] < original:
                index, row = synth.popleft()
                yield JobRecord(index, row, None)
            if record.witness is not None:
                from repro.witness import DeadlockWitness

                if store.add(DeadlockWitness.from_dict(record.witness)):
                    self.witness_mined += 1
            row = record.row
            if row.index != original:
                row = dataclasses.replace(row, index=original)
            yield JobRecord(original, row, record.result)
        while synth:
            index, row = synth.popleft()
            yield JobRecord(index, row, None)

    def _records(
        self, jobs: Iterable[SimJob], want_results: bool
    ) -> Iterator[JobRecord]:
        """The record stream, witness-pruned when a store is attached."""
        if self.plan.witness_store is not None:
            return self._witness_records(jobs, want_results)
        return self._execute(jobs, want_results=want_results)

    def stream(self) -> Iterator[RunSummary]:
        """Yield one row per job, in job order, feeding every reducer.

        With ``plan.checkpoint`` set, progress is periodically
        snapshotted and (under ``plan.resume``) already-finished jobs
        are skipped — only the remaining rows are yielded, but the
        reducers end up byte-identical to an uninterrupted run.
        """
        if self.plan.checkpoint is not None:
            return self._stream_checkpointed()
        return self._stream_plain()

    def _stream_plain(self) -> Iterator[RunSummary]:
        reducers = tuple(self.plan.reducers)
        for record in self._records(self.plan.jobs, want_results=False):
            for reducer in reducers:
                reducer.update(record.row)
            yield record.row

    def _stream_checkpointed(self) -> Iterator[RunSummary]:
        """The checkpointed stream: resume, run the remainder, snapshot.

        Backends enumerate whatever job list they are handed from index
        0, so the remaining jobs run as a *compacted* list and each
        row's index is mapped back to its original grid position before
        reducers see it. Because the plain stream also folds rows in
        job order, the done bitmap is always a prefix of the grid and
        the resumed fold order equals the uninterrupted one — which is
        what makes the final summaries byte-identical.
        """
        from repro.sweep.checkpoint import SweepCheckpoint, sweep_fingerprint

        jobs = list(self.plan.jobs)
        reducers = tuple(self.plan.reducers)
        ckpt = SweepCheckpoint(
            self.plan.checkpoint,
            sweep_fingerprint(jobs, reducers),
            len(jobs),
            every=self.plan.checkpoint_every,
        )
        if self.plan.resume:
            ckpt.resume(reducers)
        remaining = ckpt.remaining()
        try:
            if remaining:
                compact = [jobs[i] for i in remaining]
                # Witness pruning composes transparently: _records
                # yields pruned rows at their compact positions, so the
                # index remap and the done bitmap treat them exactly
                # like simulated rows and a resumed pruned sweep stays
                # byte-identical to an uninterrupted one.
                for record in self._records(compact, want_results=False):
                    original = remaining[record.index]
                    row = dataclasses.replace(record.row, index=original)
                    for reducer in reducers:
                        reducer.update(row)
                    ckpt.mark_done(original)
                    yield row
                    ckpt.maybe_save(reducers)
        finally:
            # Runs on normal exhaustion, on error, and when the consumer
            # closes the generator (Ctrl-C in the CLI): whatever
            # happened, the file on disk reflects every row yielded.
            # A failed final save must not be invisible — the sweep's
            # rows are fine, but the checkpoint is stale and a later
            # resume would silently redo work — so it is recorded on
            # the session, warned about, and raised as CheckpointError.
            # (When the generator is merely garbage-collected, Python
            # swallows exceptions from this clause; the warning and the
            # ``checkpoint_error`` attribute still get through.)
            propagating = sys.exc_info()[0] is not None
            try:
                ckpt.save(reducers)
            except BaseException as exc:
                self.checkpoint_error = exc
                warnings.warn(
                    f"final checkpoint snapshot to {self.plan.checkpoint!r} "
                    f"failed ({type(exc).__name__}: {exc}); the checkpoint "
                    "on disk is stale and must not be resumed from",
                    RuntimeWarning,
                    stacklevel=2,
                )
                if isinstance(exc, CheckpointError):
                    raise
                # Don't replace an exception already propagating out of
                # the stream body — including the GeneratorExit of an
                # explicit close(); it is the more fundamental event and
                # the warning and attribute still record this failure.
                # And don't raise during interpreter shutdown, where the
                # generator is being finalized and the exception would
                # land in an unraisable-hook at best.
                if not propagating and not sys.is_finalizing():
                    raise CheckpointError(
                        f"could not write final checkpoint snapshot to "
                        f"{self.plan.checkpoint!r}: {exc}"
                    ) from exc

    def iter_handles(self) -> Iterator[ResultHandle]:
        """Lazily yield one :class:`ResultHandle` per job, in job order.

        The memory-bounded way to consume a *full-result* sweep:
        handles arrive as the backend finishes jobs (at most one drain
        window of chunks in flight), each carrying its summary row and
        the materialized full result; a witness-pruned handle hydrates
        on first access instead. Drop a handle after processing it and
        full results never accumulate, whatever the sweep size.
        Reducers are fed as each row passes.

        Each executed job builds its full result, and the pool backend
        pickles it through a worker pipe (tens of kilobytes each). To
        inspect a few full results from a large sweep, :meth:`stream`
        the rows instead and call :meth:`~repro.sweep.jobs.SimJob.run`
        on the jobs you want: runs are deterministic, so those results
        equal the ones this method would have shipped.
        """
        if self.plan.checkpoint is not None:
            raise ConfigError(
                "checkpointing is a streaming feature: resumed runs skip "
                "finished jobs, so an eager full-result sweep would be "
                "missing handles; use SweepSession.stream()"
            )
        jobs = (
            list(self.plan.jobs)
            if not isinstance(self.plan.jobs, Sequence)
            else self.plan.jobs
        )
        labels = self.plan.labels
        reducers = tuple(self.plan.reducers)
        collect = self._collect_errors()
        # A witness-pruned handle arrives with no materialized result
        # (there was no run); its ResultHandle hydrates by executing
        # the job on demand.
        for record in self._records(jobs, want_results=True):
            for reducer in reducers:
                reducer.update(record.row)
            yield ResultHandle(
                record.row,
                jobs[record.index],
                collect,
                result=record.result if record.result is not None else _UNSET,
                label=labels[record.index] if labels is not None else None,
            )

    def run(self) -> SweepOutcome:
        """Execute everything; return rows plus full-result handles."""
        handles = list(self.iter_handles())
        return SweepOutcome(
            rows=[handle.summary for handle in handles],
            handles=handles,
            reducers=tuple(self.plan.reducers),
            labels=(
                list(self.plan.labels)
                if self.plan.labels is not None
                else None
            ),
        )


def simulate_many(
    programs: "Sequence[ArrayProgram] | Sequence[SimJob]",
    configs: "ArrayConfig | Sequence[ArrayConfig | None] | None" = None,
    *,
    policy: str = "ordered",
    registers: dict[str, dict[str, float | None]] | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
    on_error: str = "raise",
    backend: str | None = None,
) -> "list[SimulationResult | BatchError]":
    """Simulate every (program, config) job; results in job order.

    Args:
        programs: the programs to run — or prebuilt :class:`SimJob`
            objects for full per-job control.
        configs: ``None`` (defaults per job), one :class:`ArrayConfig`
            broadcast to every program, or one per program.
        policy: assignment policy for every job (ignored for ``SimJob``
            inputs).
        registers: initial registers for every job (ignored for
            ``SimJob`` inputs).
        workers: process count. ``1`` runs in-process (and still reuses
            the analysis cache across jobs); ``N > 1`` farms chunks to
            the ``pool`` backend (or the one named by ``backend``) on a
            host with more than one CPU.
        chunk_size: jobs per worker task (must be >= 1); defaults to an
            even split that gives each worker ~4 chunks for load
            balance.
        on_error: ``"raise"`` propagates the first job error;
            ``"collect"`` replaces a failed job's result with a
            :class:`BatchError` so the rest of the batch still runs
            (infeasible sweep corners are data, not fatal).
        backend: execution backend name; ``None`` picks ``serial`` for
            one worker, one job or one CPU, else ``pool``.

    Returns:
        One :class:`SimulationResult` (or :class:`BatchError` under
        ``on_error="collect"``) per job, in input order — the merge is
        deterministic regardless of worker scheduling.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    if on_error not in _VALID_ON_ERROR:
        raise ConfigError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}"
        )
    jobs = normalize_jobs(programs, configs, policy, registers)
    if not jobs:
        return []
    if backend is None and len(jobs) == 1:
        workers = 1  # a single job never needs worker processes
    plan = SweepPlan(
        jobs=jobs,
        backend=backend,
        workers=workers,
        chunk_size=chunk_size,
        on_error=on_error,
    )
    return SweepSession(plan).run().results()


def simulate_stream(
    jobs: Iterable[SimJob],
    *,
    reducers: Sequence[StreamReducer] = (),
    workers: int = 1,
    chunk_size: int = 32,
    on_error: str = "collect",
    backend: str | None = None,
    job_timeout_s: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
    checkpoint: str | None = None,
    checkpoint_every: int = 64,
    resume: bool = False,
) -> Iterator[RunSummary]:
    """Stream per-job summary rows with O(1) retained state.

    Unlike :func:`simulate_many`, ``jobs`` may be a lazy generator and
    results are never accumulated: each job is reduced to a
    :class:`RunSummary` (in the worker, for ``workers > 1``, so full
    results also never cross the pool pipe), fed through every reducer,
    and yielded in job order. Peak memory is bounded by
    ``workers * chunk_size`` in-flight jobs, independent of sweep size.

    Args:
        jobs: the jobs to run, lazily consumed.
        reducers: :class:`StreamReducer` instances updated with every
            row before it is yielded; read their ``summary()`` after the
            stream is exhausted.
        workers: process count; ``1`` streams in-process. With worker
            processes, chunks whose programs carry unpicklable compute
            closures run in-process transparently, preserving order.
        chunk_size: jobs per worker task.
        on_error: ``"collect"`` (default) turns failed jobs into
            ``infeasible`` rows; ``"raise"`` propagates the first error.
        backend: execution backend name; ``None`` picks ``serial`` for
            one worker or one CPU, else ``pool``.
        job_timeout_s: per-job wall clock enforced by the supervisor of
            the pool backend; a hung job's worker is killed and
            the job retried, then recorded as a timeout-class row.
            ``None`` (the default) sets no limit.
        max_retries: extra attempts a job gets after crashing or
            hanging its worker before being quarantined. Crash recovery
            is always on for the pool backend; these two knobs
            only tune it.
        fault_plan: deterministic injected faults
            (:class:`~repro.sweep.fault.FaultPlan`) for testing the
            recovery machinery.
        checkpoint: path for periodic atomic progress snapshots.
        checkpoint_every: rows between periodic snapshots.
        resume: skip jobs already recorded in ``checkpoint``; reducer
            summaries stay byte-identical to an uninterrupted run.

    Yields:
        One :class:`RunSummary` per job, in job order.
    """
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    plan = SweepPlan(
        jobs=jobs,
        reducers=tuple(reducers),
        backend=backend,
        workers=workers,
        chunk_size=chunk_size,
        on_error=on_error,
        job_timeout_s=job_timeout_s,
        max_retries=max_retries,
        fault_plan=fault_plan,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
    return SweepSession(plan).stream()
