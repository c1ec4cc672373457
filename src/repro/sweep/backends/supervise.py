"""Supervised fault-tolerant execution shared by the pool and shm backends.

The plain pool/shm fast paths assume every worker lives forever: a dead
worker hangs the drain window, and an unwritten arena slot raises in the
parent. This module is the execution path for sweeps that cannot afford
that assumption — million-job provisioning runs where a single OOM-killed
worker or one hung corner must cost one retry, not the sweep.

Design
------

One parent supervisor drives ``workers`` long-lived child processes,
each connected by its own duplex :func:`multiprocessing.Pipe`:

* **per-worker pipes, not a shared queue** — a SIGKILLed worker can
  never corrupt or deadlock anyone else's transport (a shared
  ``multiprocessing.Queue`` write lock dies with its holder), and pipe
  EOF *is* the crash detector: :func:`multiprocessing.connection.wait`
  wakes the supervisor the moment a child dies;
* **per-job progress messages** — a worker announces ``("start", i)``
  before running job ``i`` and ships the finished row after, so a death
  is attributed to exactly the job that was in flight; unstarted jobs
  from the dead worker's chunk are requeued with no penalty;
* **bounded retries with exponential backoff** — a failed job is
  requeued as a singleton chunk (making any future death attributable
  by construction) after ``Tolerance.backoff(attempt)`` seconds; past
  ``max_retries`` it is quarantined: a crash becomes a
  :class:`~repro.sweep.jobs.BatchError` row of kind ``"WorkerCrash"``
  (or raises :class:`~repro.errors.WorkerCrashError` under
  ``on_error="raise"``), a hang becomes a timeout-class row — a hung
  corner is data, same as a deadlock;
* **per-job wall-clock timeouts** — the supervisor kills any worker
  whose current job exceeds ``Tolerance.job_timeout_s``, after first
  draining the rows it already produced;
* **ordered emission** — finished records enter a reorder buffer and
  are yielded strictly in job order, preserving the backend contract
  (rows byte-identical to the serial backend, reducers fold in job
  order).

In arena mode (the shm backend) workers write rows into the shared
arena exactly as the fast path does and the pipe carries only tiny
``("row", i, None, None)`` acknowledgements (overflow rows ride the
pipe, as ever). The parent decodes each acknowledged slot immediately;
an :class:`~repro.errors.ArenaSlotUnwritten` decode — a torn write —
is treated like a crash of that one job and requeued with penalty.

Injected faults (:class:`~repro.sweep.fault.FaultPlan`) fire only in
`_worker_main`, between the start announcement and the job run — never
in the parent, and never for chunks that fall back to in-parent
execution because their programs cannot pickle.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Iterator, Sequence

from repro.errors import WorkerCrashError
from repro.sweep import fault as fault_mod
from repro.sweep.arena import SummaryArena
from repro.sweep.backends import JobRecord, RowMemo, WorkerContext, run_record
from repro.sweep.fault import Tolerance
from repro.sweep.jobs import WORKER_CRASH_KIND, BatchError, SimJob, iter_chunks
from repro.sweep.summary import summarize_result, timeout_row

#: What ``conn.send`` raises when an exception *payload* cannot pickle
#: (closures in args, exotic __reduce__): the same classes the disk
#: cache narrows its stores to. Transport failures (``BrokenPipeError``,
#: ``OSError``) are NOT in this set — a dead parent must propagate to
#: the worker loop's exit handler, not trigger a pointless resend — and
#: bug-class exceptions (``MemoryError``) must never be swallowed.
_UNPICKLABLE_PAYLOAD = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    ValueError,
    RecursionError,
)


def _worker_main(
    wid: int,
    conn,
    ctx: WorkerContext,
    want_results: bool,
    collect_errors: bool,
    arena_name: str | None,
    n_rows: int,
    segment_rows: int,
) -> None:
    """Child process loop: run chunks from the pipe until told to stop.

    Message protocol (child -> parent)::

        ("start", index)              about to run job `index`
        ("row", index, row, result, witness, memo_hit)
                                      job finished; row is None when it
                                      was published to the arena instead;
                                      witness is the compact certificate
                                      dict mined in-worker (or None);
                                      memo_hit is True when the worker's
                                      row memo served the row
        ("error", index, exc, dropped)
                                      job raised (collect_errors off or a
                                      non-Repro bug); parent re-raises in
                                      job order. dropped is True when the
                                      original exception payload could
                                      not pickle and a summary RuntimeError
                                      rides in its place (counted in
                                      Supervisor.payload_drops)
        ("done", chunk_id)            chunk finished, worker is idle
    """
    ctx.apply()
    plan = fault_mod.active_plan()
    arena = (
        SummaryArena.attach(
            arena_name, n_rows, segment_rows=segment_rows, lazy=True
        )
        if arena_name is not None
        else None
    )
    memo = RowMemo()
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            chunk_id, items = task
            for index, job in items:
                conn.send(("start", index))
                if plan is not None:
                    plan.maybe_crash(index)
                    plan.maybe_hang(index)
                try:
                    record = run_record(
                        index,
                        job,
                        want_result=want_results and arena is None,
                        collect_errors=collect_errors,
                        mine=ctx.mine_witnesses,
                        memo=memo,
                    )
                except MemoryError:
                    # Bug-class, not data: let the worker die — crash
                    # recovery requeues the job with bounded retries
                    # instead of shipping an OOM as an ordinary row.
                    raise
                except Exception as exc:
                    try:
                        conn.send(("error", index, exc, False))
                    except _UNPICKLABLE_PAYLOAD:
                        conn.send(
                            (
                                "error",
                                index,
                                RuntimeError(
                                    f"{type(exc).__name__}: {exc}"
                                ),
                                True,
                            )
                        )
                    continue
                row = record.row
                if arena is not None:
                    published = arena.write_row(index, row)
                    if published and plan is not None:
                        published = not plan.maybe_corrupt(arena, index)
                    if published:
                        row = None
                conn.send(
                    (
                        "row",
                        index,
                        row,
                        record.result,
                        record.witness,
                        record.memo_hit,
                    )
                )
            conn.send(("done", chunk_id))
    except (EOFError, BrokenPipeError):  # parent went away: just exit
        pass
    finally:
        if arena is not None:
            arena.close()


class _Raise:
    """Reorder-buffer sentinel: re-raise this exception at emission."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class _Worker:
    """Parent-side handle on one supervised child process."""

    __slots__ = ("wid", "conn", "process", "task", "current", "started_at")

    def __init__(self, wid: int, spawn) -> None:
        self.wid = wid
        self.conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.process = spawn(wid, child_conn)
        # The parent must drop its copy of the child end or pipe EOF
        # (the crash detector) never fires.
        child_conn.close()
        self.task = None  # (chunk_id, items) currently assigned
        self.current: int | None = None  # job index announced via "start"
        self.started_at = 0.0

    @property
    def idle(self) -> bool:
        return self.task is None

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()


class Supervisor:
    """Fault-tolerant chunked execution with ordered emission."""

    def __init__(
        self,
        jobs: Sequence[SimJob],
        *,
        want_results: bool,
        collect_errors: bool,
        workers: int,
        chunk_size: int,
        ctx: WorkerContext,
        tolerance: Tolerance,
        arena: SummaryArena | None = None,
        probe=None,
    ) -> None:
        self.jobs = list(jobs)
        self.want_results = want_results
        self.collect_errors = collect_errors
        self.n_workers = max(1, workers)
        self.chunk_size = max(1, chunk_size)
        self.ctx = ctx
        self.tol = tolerance
        self.arena = arena
        self.probe = probe
        self._chunk_seq = 0
        self._pending: list = []  # [chunk_id, items, not_before]
        self._attempts: dict[int, int] = {}
        self._completed: dict[int, JobRecord | _Raise] = {}
        self._workers: list[_Worker] = []
        #: Exceptions whose payload could not cross the pipe: the worker
        #: shipped a summary RuntimeError in place of the original (see
        #: the worker protocol), and each such substitution counts here.
        self.payload_drops = 0

    def stats(self) -> dict[str, int]:
        """Observability counters for this supervised run."""
        return {"payload_drops": self.payload_drops}

    # -- worker lifecycle -------------------------------------------------

    def _spawn(self, wid: int, child_conn):
        process = multiprocessing.Process(
            target=_worker_main,
            args=(
                wid,
                child_conn,
                self.ctx,
                self.want_results,
                self.collect_errors,
                self.arena.name if self.arena is not None else None,
                self.arena.n_rows if self.arena is not None else 0,
                self.arena.segment_rows if self.arena is not None else 0,
            ),
            daemon=True,
        )
        process.start()
        return process

    def _new_worker(self, wid: int) -> _Worker:
        return _Worker(wid, self._spawn)

    def _replace(self, worker: _Worker) -> None:
        try:
            worker.kill()
        except OSError:  # pragma: no cover - already-dead edge
            pass
        self._workers[worker.wid] = self._new_worker(worker.wid)

    # -- task queue -------------------------------------------------------

    def _enqueue(self, items, not_before: float = 0.0, front: bool = False):
        task = [self._chunk_seq, list(items), not_before]
        self._chunk_seq += 1
        if front:
            self._pending.insert(0, task)
        else:
            self._pending.append(task)

    def _pop_ready(self, now: float):
        for pos, task in enumerate(self._pending):
            if task[2] <= now:
                return self._pending.pop(pos)
        return None

    def _soonest_pending(self) -> float | None:
        if not self._pending:
            return None
        return min(task[2] for task in self._pending)

    # -- failure handling -------------------------------------------------

    def _record(self, index: int, record) -> None:
        self._completed[index] = record

    def _quarantine(self, index: int, kind: str, detail: str) -> None:
        """Retire a job that failed past the retry budget, as data."""
        job = self.jobs[index]
        attempts = self._attempts.get(index, 0)
        if kind == "hang":
            row = timeout_row(
                index,
                job,
                f"killed by the sweep supervisor: exceeded "
                f"job_timeout_s={self.tol.job_timeout_s} on each of "
                f"{attempts} attempts",
            )
            self._record(index, JobRecord(index, row, None))
            return
        message = (
            f"worker process died on each of {attempts} attempts "
            f"running job {index} ({detail}); quarantined after "
            f"max_retries={self.tol.max_retries}"
        )
        if not self.collect_errors:
            self._record(index, _Raise(WorkerCrashError(message)))
            return
        error = BatchError(kind=WORKER_CRASH_KIND, error=message)
        row = summarize_result(index, job, error)
        self._record(
            index,
            JobRecord(index, row, error if self.want_results else None),
        )

    def _fail(self, index: int, kind: str, detail: str, now: float) -> None:
        """Charge one failed attempt; requeue with backoff or quarantine."""
        attempts = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempts
        if attempts > self.tol.max_retries:
            self._quarantine(index, kind, detail)
            return
        # Singleton requeue: any future worker death while running this
        # job is attributable to it even if the "start" message is lost.
        self._enqueue(
            [(index, self.jobs[index])],
            not_before=now + self.tol.backoff(attempts),
            front=True,
        )

    def _on_worker_death(
        self, worker: _Worker, kind: str, detail: str, now: float
    ) -> None:
        """Requeue the dead worker's unfinished jobs; respawn it."""
        if worker.task is not None:
            _chunk_id, items = worker.task
            remaining = [
                (index, job)
                for index, job in items
                if index not in self._completed
            ]
            culprit = worker.current
            if culprit is not None and culprit in self._completed:
                culprit = None  # its row made it out before the death
            if culprit is None and len(remaining) == 1:
                culprit = remaining[0][0]
            for index, job in remaining:
                if index == culprit:
                    self._fail(index, kind, detail, now)
                else:
                    self._enqueue([(index, job)])
        self._replace(worker)

    # -- message handling -------------------------------------------------

    def _handle(self, worker: _Worker, msg, now: float) -> None:
        tag = msg[0]
        if tag == "start":
            worker.current = msg[1]
            worker.started_at = now
        elif tag == "row":
            _tag, index, row, result, witness, memo_hit = msg
            if row is None:
                # Arena mode: decode the acknowledged slot right away; a
                # torn write reads as unwritten and costs one retry.
                from repro.errors import ArenaSlotUnwritten

                try:
                    row = self.arena.read_row(index)
                except ArenaSlotUnwritten:
                    worker.current = None
                    self._fail(
                        index, "crash", "arena slot unwritten", now
                    )
                    return
            self._record(
                index, JobRecord(index, row, result, witness, memo_hit)
            )
            worker.current = None
        elif tag == "error":
            _tag, index, exc, dropped = msg
            if dropped:
                self.payload_drops += 1
            self._record(index, _Raise(exc))
            worker.current = None
        elif tag == "done":
            worker.task = None
            worker.current = None

    def _drain_conn(self, worker: _Worker, now: float) -> bool:
        """Pump every buffered message; False when the pipe hit EOF."""
        try:
            while worker.conn.poll():
                self._handle(worker, worker.conn.recv(), now)
        except (EOFError, OSError):
            return False
        return True

    def _death_detail(self, worker: _Worker) -> str:
        """Describe a dead worker; reap it first so exitcode is real."""
        worker.process.join(timeout=1.0)
        return f"exit code {worker.process.exitcode}"

    # -- dispatch ---------------------------------------------------------

    def _run_inline(self, items) -> None:
        """In-parent fallback for chunks whose programs cannot pickle.

        No faults fire here (an injected crash would kill the parent)
        and no retries apply: in-parent execution cannot lose a worker.
        """
        memo = RowMemo()
        for index, job in items:
            # The record carries the row directly (no arena round-trip
            # needed in-parent), matching the unsupervised fallback.
            self._record(
                index,
                run_record(
                    index,
                    job,
                    want_result=self.want_results and self.arena is None,
                    collect_errors=self.collect_errors,
                    mine=self.ctx.mine_witnesses,
                    memo=memo,
                ),
            )

    def _dispatch(self, now: float) -> None:
        for worker in self._workers:
            if not worker.idle:
                continue
            task = self._pop_ready(now)
            if task is None:
                return
            chunk_id, items, _not_before = task
            if self.probe is not None and not self.probe.chunk_picklable(
                items
            ):
                self._run_inline(items)
                continue
            worker.task = (chunk_id, items)
            worker.current = None
            try:
                worker.conn.send((chunk_id, items))
            except (BrokenPipeError, OSError):
                # Died before we even spoke to it: nothing was running,
                # so requeue the whole chunk unpenalized and respawn.
                worker.task = None
                self._enqueue(items, front=True)
                self._replace(worker)

    # -- main loop --------------------------------------------------------

    def run(self) -> Iterator[JobRecord]:
        """Execute every job; yield records strictly in job order."""
        n = len(self.jobs)
        if n == 0:
            return
        try:
            self._workers = [
                self._new_worker(wid) for wid in range(self.n_workers)
            ]
            for chunk in iter_chunks(self.jobs, self.chunk_size):
                self._enqueue(chunk)
            next_emit = 0
            while next_emit < n:
                now = time.monotonic()
                self._dispatch(now)
                conns = {
                    worker.conn: worker
                    for worker in self._workers
                    if not worker.idle
                }
                if conns:
                    ready = _conn_wait(
                        list(conns), timeout=self.tol.poll_s
                    )
                else:
                    ready = []
                    soonest = self._soonest_pending()
                    if soonest is not None and soonest > now:
                        time.sleep(min(soonest - now, self.tol.poll_s))
                now = time.monotonic()
                for conn in ready:
                    worker = conns[conn]
                    if not self._drain_conn(worker, now):
                        self._on_worker_death(
                            worker, "crash", self._death_detail(worker), now
                        )
                if self.tol.job_timeout_s is not None:
                    for worker in self._workers:
                        if (
                            worker.current is None
                            or now - worker.started_at
                            <= self.tol.job_timeout_s
                        ):
                            continue
                        # Salvage rows it already produced before judging.
                        if not self._drain_conn(worker, now):
                            self._on_worker_death(
                                worker,
                                "crash",
                                self._death_detail(worker),
                                now,
                            )
                            continue
                        if worker.current is None:
                            continue  # finished during the drain
                        self._on_worker_death(
                            worker, "hang", "job timeout", now
                        )
                while next_emit in self._completed:
                    record = self._completed.pop(next_emit)
                    next_emit += 1
                    if isinstance(record, _Raise):
                        raise record.exc
                    yield record
        finally:
            for worker in self._workers:
                try:
                    worker.kill()
                except OSError:  # pragma: no cover - teardown race
                    pass
            self._workers = []


def run_supervised(
    jobs,
    *,
    want_results: bool,
    collect_errors: bool,
    workers: int,
    chunk_size: int,
    ctx: WorkerContext,
    tolerance: Tolerance,
    arena: SummaryArena | None = None,
    probe=None,
) -> Iterator[JobRecord]:
    """Run ``jobs`` under a :class:`Supervisor`; yield ordered records."""
    supervisor = Supervisor(
        jobs,
        want_results=want_results,
        collect_errors=collect_errors,
        workers=workers,
        chunk_size=chunk_size,
        ctx=ctx,
        tolerance=tolerance,
        arena=arena,
        probe=probe,
    )
    return supervisor.run()
