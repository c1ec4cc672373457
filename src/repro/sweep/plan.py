"""Sweep plans and sessions: declare what to run, then run it.

A :class:`SweepPlan` is a declarative bundle — jobs, streaming
reducers and execution knobs. A :class:`SweepSession` validates it,
decides how its jobs run and runs them through
:func:`~repro.sweep.backends.execute`: :meth:`SweepSession.stream`
lazily yields one :class:`~repro.sweep.summary.RunSummary` per job, in
job order, feeding every reducer along the way. Rows are all a sweep
returns; a job's full result is :meth:`~repro.sweep.jobs.SimJob.run`.

Reducers are always folded in the parent, in job order, so their
summaries are byte-identical however the jobs ran; the reducers'
``merge`` contract additionally lets *separate* sessions — a sweep
sharded over machines or sessions — combine their aggregates.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import CheckpointError, ConfigError
from repro.sweep.backends import BACKENDS, JobRecord, execute
from repro.sweep.fault import FaultPlan, Tolerance
from repro.sweep.jobs import SimJob, default_chunk_size, witness_row
from repro.sweep.reducers import StreamReducer
from repro.sweep.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.witness.store import WitnessStore


def _auto_backend(workers: int) -> str:
    """``serial`` for one worker or one CPU, else ``pool``.

    On one CPU, worker processes only add transport to the same compute.
    An unknown CPU count counts as more than one.
    """
    return "serial" if workers == 1 or os.cpu_count() == 1 else "pool"


@dataclass(frozen=True)
class SweepPlan:
    """Everything a sweep needs: jobs, reducers, knobs.

    ``jobs`` may be any iterable (a lazy generator feeds
    :meth:`SweepSession.stream` without materializing, in process or
    on workers). The session runs them in process when ``workers == 1``
    or the host has one CPU, and on ``workers`` supervised worker
    processes (:mod:`repro.sweep.backends.supervise`) otherwise; the
    rows are the same either way (see the sweep contract in
    :mod:`repro.sweep.backends`). ``backend`` pins that choice to
    ``"serial"`` or ``"pool"``, for the differential tests and
    reference runs that compare the two; ``None``, the default, leaves
    it to the session.

    On workers, a crashed worker is replaced and its job retried.
    ``max_retries`` (default 2) and ``job_timeout_s`` (default none)
    tune that recovery; ``fault_plan`` injects faults to test it.

    ``checkpoint`` names a file for periodic atomic progress snapshots
    (:mod:`repro.sweep.checkpoint`); with ``resume`` a sweep restarted
    against an existing checkpoint skips finished jobs and its reducers
    report byte-identically to an uninterrupted run.

    ``witness_store`` attaches a deadlock-witness store
    (:class:`~repro.witness.store.WitnessStore`): each job is checked
    against the store before dispatch and, when a stored certificate
    covers it row-exactly, its deadlock row is synthesized
    (:func:`~repro.sweep.jobs.witness_row`) instead of simulated —
    counted in :attr:`SweepSession.witness_pruned`. Every deadlocked
    job is mined into a new certificate where it ran — in process or
    inside a worker — and only the compact certificate dict travels
    back on its record, so the store warms at full speed either way (a
    job builds its full result only to be mined). Only monotone
    policies are ever pruned or mined (FCFS is exempt by construction —
    see :mod:`repro.witness.certificate`); composing with
    ``checkpoint`` is safe because pruned jobs are marked done like
    simulated ones and the grid fingerprint does not depend on the
    store.

    A sweep also skips repeated runs with no knob to set: the shared
    runner serves a job whose
    :func:`~repro.sweep.jobs.canonical_key` repeats an earlier job of
    the same program from a per-program row memo
    (:class:`~repro.sweep.backends.RowMemo`), re-stamped with the job's
    own index, policy, queues and capacity, and counts it in
    :attr:`SweepSession.memo_hits`. Error rows and, with a witness
    store attached, deadlocked rows always simulate.
    """

    jobs: Iterable[SimJob]
    reducers: Sequence[StreamReducer] = ()
    backend: str | None = None
    workers: int = 1
    chunk_size: int | None = None
    job_timeout_s: float | None = None
    max_retries: int = 2
    fault_plan: FaultPlan | None = None
    checkpoint: str | None = None
    checkpoint_every: int = 64
    resume: bool = False
    witness_store: "WitnessStore | None" = None


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
    #: :class:`~repro.sweep.backends.RowMemo`). Exact in process; on
    #: workers it counts their hits, which depend on chunking.
    memo_hits: int

    #: How the jobs run: ``"serial"`` or ``"pool"``.
    backend: str

    def __init__(self, plan: SweepPlan) -> None:
        self.checkpoint_error = None
        self.witness_pruned = 0
        self.witness_mined = 0
        self.memo_hits = 0
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
        backend = plan.backend
        if backend is None:
            backend = _auto_backend(plan.workers)
        elif backend not in BACKENDS:
            raise ConfigError(
                f"unknown execution backend {backend!r} "
                f"(known: {', '.join(BACKENDS)})"
            )
        self.plan = plan
        self.backend = backend
        # Constructing the Tolerance up front validates the knobs
        # (negative retries, non-positive timeouts) at session creation.
        self.tolerance = Tolerance(
            max_retries=plan.max_retries,
            job_timeout_s=plan.job_timeout_s,
            fault_plan=plan.fault_plan,
        )
        # With a store attached, each deadlock is mined where the job
        # ran and its record carries a compact certificate; the parent
        # merges them (see _witness_records).
        self.mine = plan.witness_store is not None

    def _chunk_size(self, jobs: Iterable[SimJob]) -> int:
        if self.plan.chunk_size is not None:
            return self.plan.chunk_size
        try:
            n = len(jobs)  # type: ignore[arg-type]
        except TypeError:
            return 32  # lazy stream: a fixed chunk keeps memory bounded
        return default_chunk_size(n, self.plan.workers)

    def _execute(self, jobs: Iterable[SimJob]) -> Iterator[JobRecord]:
        records = execute(
            jobs,
            self.backend,
            workers=self.plan.workers,
            chunk_size=self._chunk_size(jobs),
            mine=self.mine,
            tolerance=self.tolerance,
        )
        try:
            for record in records:
                if record.memo_hit:
                    self.memo_hits += 1
                yield record
        finally:
            # Closing this stream must reap the workers now, not when
            # the GC gets to it.
            records.close()

    def _witness_records(self, jobs: Iterable[SimJob]) -> Iterator[JobRecord]:
        """Executed records merged with store-synthesized rows, in order.

        Each job is checked against ``plan.witness_store`` as the
        runner pulls it: covered jobs are withheld from execution and
        their deadlock rows synthesized (:func:`~repro.sweep.jobs.
        witness_row`, byte-identical to the simulated row inside the
        certificate's capacity band); the rest run normally and their
        compact record indices are mapped back to original positions.
        Synthesized rows interleave with executed ones by ascending
        original index, so downstream consumers (reducers, checkpoints,
        the CLI tables) cannot tell a pruned row from a simulated one.

        Mining rides the same pass: each deadlocked job is mined where
        it ran (the ``mine`` flag of the sweep contract), which
        attaches the compact certificate dict to its record; the parent
        rehydrates and merges it under the store's usual two-way
        subsumption.
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

        for record in self._execute(feed()):
            original = sent.popleft()
            while synth and synth[0][0] < original:
                index, row = synth.popleft()
                yield JobRecord(index, row)
            if record.witness is not None:
                from repro.witness import DeadlockWitness

                if store.add(DeadlockWitness.from_dict(record.witness)):
                    self.witness_mined += 1
            row = record.row
            if row.index != original:
                row = dataclasses.replace(row, index=original)
            yield JobRecord(original, row)
        while synth:
            index, row = synth.popleft()
            yield JobRecord(index, row)

    def _records(self, jobs: Iterable[SimJob]) -> Iterator[JobRecord]:
        """The record stream, witness-pruned when a store is attached."""
        if self.plan.witness_store is not None:
            return self._witness_records(jobs)
        return self._execute(jobs)

    def stream(self) -> Iterator[RunSummary]:
        """Yield one row per job, in job order, feeding every reducer.

        Rows are all a sweep returns. A job's full
        :class:`~repro.sim.result.SimulationResult` is
        :meth:`~repro.sweep.jobs.SimJob.run`: runs are deterministic and
        share the analysis cache, so it equals the run behind the job's
        row. To inspect a few runs of a large sweep, stream the rows and
        run the jobs you want.

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
        for record in self._records(self.plan.jobs):
            for reducer in reducers:
                reducer.update(record.row)
            yield record.row

    def _stream_checkpointed(self) -> Iterator[RunSummary]:
        """The checkpointed stream: resume, run the remainder, snapshot.

        The runner enumerates whatever job list it is handed from index
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
                for record in self._records(compact):
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
