"""The one worker lifecycle behind the pool backend.

Every multiprocess sweep runs here, whether it is a short grid or a
million-job provisioning run where a single OOM-killed worker or one
hung corner must cost one retry, not the sweep. Crash recovery and
retries are always on; the :class:`~repro.sweep.fault.Tolerance` knobs
only tune them.

Design
------

One parent supervisor drives up to ``workers`` long-lived child
processes, each spawned on first use and connected by its own duplex
:func:`multiprocessing.Pipe`:

* **per-worker pipes, not a shared queue** — a SIGKILLed worker can
  never corrupt or deadlock anyone else's transport (a shared
  ``multiprocessing.Queue`` write lock dies with its holder), and pipe
  EOF *is* the crash detector: :func:`multiprocessing.connection.wait`
  wakes the supervisor the moment a child dies;
* **lazy pulls** — the next chunk is taken from the job iterable only
  when a worker is idle and fewer than ``2 * workers * chunk_size``
  pulled jobs are still unemitted, so a generator of jobs is never
  materialized. The supervisor holds only unemitted jobs (for requeue
  and quarantine) and drops each one as its row is emitted;
* **one message per chunk** — a worker runs its whole chunk and ships
  every record (its row, any mined certificate and, when the session
  wants results, the full result) in one message that also marks the
  chunk done. Each worker has one chunk outstanding at a time: sending
  a second one ahead on the same duplex pipe can deadlock when a batch
  of full results and the next task both overflow the socket buffers.
  A death loses exactly the undelivered chunk, and exactly its jobs are
  requeued;
* **a shared progress slot per worker** — before each job a worker
  writes the job's index into its slot of a shared array, so on pipe
  EOF the parent blames a death on exactly the job that was running.
  The other jobs of the lost chunk are requeued as unpenalized
  singletons, so any later death is attributable by construction;
* **bounded retries with exponential backoff** — a blamed job is
  requeued as a singleton chunk after ``Tolerance.backoff(attempt)``
  seconds; past ``max_retries`` it is quarantined: a crash becomes a
  :class:`~repro.sweep.jobs.BatchError` row of kind ``"WorkerCrash"``
  (or raises :class:`~repro.errors.WorkerCrashError` under
  ``on_error="raise"``), a hang becomes a timeout-class row — a hung
  corner is data, same as a deadlock;
* **per-job wall-clock timeouts** — the timeout check reads each
  worker's progress slot and times a job from when it is first seen
  there; a worker whose job exceeds ``Tolerance.job_timeout_s`` is
  killed, after first taking any chunk message it already sent;
* **ordered emission** — finished records enter a reorder buffer and
  are yielded strictly in job order, preserving the backend contract
  (rows byte-identical to the serial backend, reducers fold in job
  order).

A chunk whose programs cannot pickle (lambda or closure compute ops)
fails in ``Connection.send``, which pickles the whole message before it
writes a byte; that chunk runs in the parent instead. Injected faults
(:class:`~repro.sweep.fault.FaultPlan`, carried on the
:class:`~repro.sweep.fault.Tolerance`) fire only in the worker loop —
never in the parent, and so never for those in-parent chunks.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Iterable, Iterator

from repro.errors import WorkerCrashError
from repro.sweep.backends import JobRecord, RowMemo, run_record
from repro.sweep.fault import FaultPlan, Tolerance
from repro.sweep.jobs import WORKER_CRASH_KIND, BatchError, SimJob, iter_chunks
from repro.sweep.summary import summarize_result, timeout_row

#: What ``conn.send`` raises when an exception *payload* cannot pickle
#: (closures in args, exotic __reduce__): ``PicklingError``,
#: ``TypeError`` and ``AttributeError`` for an unpicklable member,
#: ``ValueError`` from a ``__reduce__`` that refuses (ctypes pointers,
#: for one) and ``RecursionError`` for a payload nested too deep.
#: Transport failures (``BrokenPipeError``, ``OSError``) are NOT in this
#: set — a dead parent must propagate to the worker loop's exit handler,
#: not trigger a pointless resend — and bug-class exceptions
#: (``MemoryError``) must never be swallowed.
_UNPICKLABLE_PAYLOAD = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    ValueError,
    RecursionError,
)

#: The ways CPython refuses to pickle a chunk's jobs: explicit
#: PicklingError, TypeError ("cannot pickle '...' object") and
#: AttributeError for unreachable locals (lambdas, closures). Anything
#: else is a real bug in the program object and must surface, not
#: silently demote the chunk to in-parent execution.
_UNPICKLABLE_CHUNK = (pickle.PicklingError, TypeError, AttributeError)

#: Seconds the supervisor loop waits for a worker message (or a backoff
#: to expire) before it checks timeouts and dispatches again.
_POLL_S = 0.02


def _worker_main(
    wid: int,
    conn,
    parent_conn,
    progress,
    fault_plan: FaultPlan | None,
    want_results: bool,
    collect_errors: bool,
    mine: bool,
) -> None:
    """Child process loop: run chunks from the pipe until it closes.

    Each task is a chunk's list of ``(index, job)`` pairs. Before each
    job the worker writes its index into ``progress[wid]``, the slot the
    parent reads to blame a death or time a job. The worker then sends
    exactly one message per chunk (child -> parent)::

        ("done", records)             every job ran; records are the
                                      chunk's JobRecords in order
        ("error", records, index, exc, dropped)
                                      job `index` raised (collect_errors
                                      off, or a non-Repro bug); records
                                      are the jobs before it, the rest of
                                      the chunk is skipped (emission
                                      raises at `index`, before any later
                                      job), and the parent re-raises in
                                      job order. dropped is True when the
                                      original exception could not pickle
                                      and a summary RuntimeError rides in
                                      its place (counted in
                                      Supervisor.payload_drops)

    One worker memo (:class:`~repro.sweep.backends.RowMemo`) lives
    across all of its chunks.
    """
    # Fork copied the parent's end of this pipe; while this process
    # holds it, the parent's death never reads as EOF here and the
    # worker would outlive a SIGKILLed parent.
    parent_conn.close()
    memo = RowMemo()
    try:
        while True:
            items = conn.recv()
            records: list[JobRecord] = []
            msg = ("done", records)
            for index, job in items:
                progress[wid] = index
                if fault_plan is not None:
                    fault_plan.maybe_crash(index)
                    fault_plan.maybe_hang(index)
                try:
                    record = run_record(
                        index,
                        job,
                        want_result=want_results,
                        collect_errors=collect_errors,
                        mine=mine,
                        memo=memo,
                    )
                except MemoryError:
                    # Bug-class, not data: let the worker die — crash
                    # recovery requeues the job with bounded retries
                    # instead of shipping an OOM as an ordinary row.
                    raise
                except Exception as exc:
                    msg = ("error", records, index, exc, False)
                    break
                records.append(record)
            try:
                conn.send(msg)
            except _UNPICKLABLE_PAYLOAD:
                if msg[0] != "error":
                    raise
                _tag, records, index, exc, _dropped = msg
                summary = RuntimeError(f"{type(exc).__name__}: {exc}")
                conn.send(("error", records, index, summary, True))
    except (EOFError, BrokenPipeError):  # parent went away: just exit
        pass


class _Raise:
    """Reorder-buffer sentinel: re-raise this exception at emission."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class _Worker:
    """Parent-side handle on one supervised child process."""

    __slots__ = ("wid", "conn", "process", "task", "current", "started_at")

    def __init__(self, wid: int, conn, process) -> None:
        self.wid = wid
        self.conn = conn
        self.process = process
        #: The outstanding chunk's ``(index, job)`` items, or None.
        self.task: list[tuple[int, SimJob]] | None = None
        #: The job index last seen in the progress slot (-1: none yet).
        self.current = -1
        self.started_at = 0.0

    def kill(self) -> None:
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join()
            self.conn.close()
        except OSError:  # pragma: no cover - already-dead edge
            pass


class Supervisor:
    """Streaming, fault-tolerant chunked execution with ordered emission.

    ``jobs`` may be any iterable; it is pulled lazily (see the module
    docstring).
    """

    def __init__(
        self,
        jobs: Iterable[SimJob],
        *,
        want_results: bool,
        collect_errors: bool,
        workers: int,
        chunk_size: int,
        mine: bool,
        tolerance: Tolerance,
    ) -> None:
        self.want_results = want_results
        self.collect_errors = collect_errors
        self.n_workers = max(1, workers)
        self.chunk_size = max(1, chunk_size)
        self.mine = mine
        self.tol = tolerance
        #: Fresh chunks still to pull; None once the iterable is spent.
        self._chunks: Iterator | None = iter_chunks(jobs, self.chunk_size)
        self._window = 2 * self.n_workers * self.chunk_size
        self._jobs: dict[int, SimJob] = {}  # pulled, not yet emitted
        self._pending: list = []  # [items, not_before] requeued chunks
        self._attempts: dict[int, int] = {}
        self._completed: dict[int, JobRecord | _Raise] = {}
        self._workers: list[_Worker | None] = [None] * self.n_workers
        self._progress = multiprocessing.RawArray("q", self.n_workers)
        #: Exceptions whose payload could not cross the pipe: the worker
        #: shipped a summary RuntimeError in place of the original (see
        #: the worker protocol), and each such substitution counts here.
        self.payload_drops = 0

    def stats(self) -> dict[str, int]:
        """Observability counters for this supervised run."""
        return {"payload_drops": self.payload_drops}

    # -- worker lifecycle -------------------------------------------------

    def _spawn(self, wid: int) -> _Worker:
        conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=_worker_main,
            args=(
                wid,
                child_conn,
                conn,
                self._progress,
                self.tol.fault_plan,
                self.want_results,
                self.collect_errors,
                self.mine,
            ),
            daemon=True,
        )
        process.start()
        # The parent must drop its copy of the child end or pipe EOF
        # (the crash detector) never fires.
        child_conn.close()
        return _Worker(wid, conn, process)

    def _on_worker_death(
        self, worker: _Worker, now: float, hung_on: int | None = None
    ) -> None:
        """Requeue the lost chunk, blaming the job that was running.

        A crashed worker is reaped before it is read, so its exit code
        is real and its progress slot final. A hung one is killed and
        ``hung_on``, the job the timeout check saw, is blamed. With no
        job started, a singleton chunk is blamed anyway, so a worker
        that dies before every job still ends in quarantine.
        """
        if hung_on is None:
            worker.process.join(timeout=1.0)
            kind, detail = "crash", f"exit code {worker.process.exitcode}"
        else:
            kind, detail = "hang", "job timeout"
        worker.kill()
        self._workers[worker.wid] = None  # respawned on next dispatch
        items = worker.task
        if items is None:
            return
        culprit = self._progress[worker.wid] if hung_on is None else hung_on
        if culprit < 0 and len(items) == 1:
            culprit = items[0][0]
        for index, job in items:
            if index == culprit:
                self._fail(index, kind, detail, now)
            else:
                self._pending.append([[(index, job)], 0.0])

    # -- failure handling -------------------------------------------------

    def _quarantine(self, index: int, kind: str, detail: str) -> None:
        """Retire a job that failed past the retry budget, as data."""
        job = self._jobs[index]
        attempts = self._attempts[index]
        if kind == "hang":
            row = timeout_row(
                index,
                job,
                f"killed by the sweep supervisor: exceeded "
                f"job_timeout_s={self.tol.job_timeout_s} on each of "
                f"{attempts} attempts",
            )
            self._completed[index] = JobRecord(index, row, None)
            return
        message = (
            f"worker process died on each of {attempts} attempts "
            f"running job {index} ({detail}); quarantined after "
            f"max_retries={self.tol.max_retries}"
        )
        if not self.collect_errors:
            self._completed[index] = _Raise(WorkerCrashError(message))
            return
        error = BatchError(kind=WORKER_CRASH_KIND, error=message)
        row = summarize_result(index, job, error)
        self._completed[index] = JobRecord(
            index, row, error if self.want_results else None
        )

    def _fail(self, index: int, kind: str, detail: str, now: float) -> None:
        """Charge one failed attempt; requeue with backoff or quarantine."""
        attempts = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempts
        if attempts > self.tol.max_retries:
            self._quarantine(index, kind, detail)
            return
        self._pending.insert(
            0,
            [[(index, self._jobs[index])], now + self.tol.backoff(attempts)],
        )

    # -- messages ---------------------------------------------------------

    def _receive(self, worker: _Worker, now: float) -> None:
        """Take the worker's chunk message; on EOF, handle its death."""
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            self._on_worker_death(worker, now)
            return
        worker.task = None
        for record in msg[1]:
            self._completed[record.index] = record
        if msg[0] == "error":
            _tag, _records, index, exc, dropped = msg
            self.payload_drops += dropped
            self._completed[index] = _Raise(exc)

    def _check_timeouts(self, now: float) -> None:
        """Kill every worker whose job has run past ``job_timeout_s``."""
        for worker in self._workers:
            if worker is None or worker.task is None:
                continue
            index = self._progress[worker.wid]
            if index != worker.current:
                worker.current = index
                worker.started_at = now
                continue
            if index < 0 or now - worker.started_at <= self.tol.job_timeout_s:
                continue
            if worker.conn.poll():
                # The chunk finished (or the worker died) since the
                # wait: take that message before judging.
                self._receive(worker, now)
                continue
            self._on_worker_death(worker, now, hung_on=index)

    # -- dispatch ---------------------------------------------------------

    def _next_task(self, now: float) -> list[tuple[int, SimJob]] | None:
        """A ready requeued chunk, else a fresh one if the window allows."""
        for pos, (items, not_before) in enumerate(self._pending):
            if not_before <= now:
                del self._pending[pos]
                return items
        if self._chunks is None or len(self._jobs) >= self._window:
            return None
        items = next(self._chunks, None)
        if items is None:
            self._chunks = None
            return None
        for index, job in items:
            self._jobs[index] = job
        return items

    def _run_inline(self, items: list[tuple[int, SimJob]]) -> None:
        """Run a chunk whose jobs cannot pickle in the parent.

        No faults fire here (an injected crash would kill the parent)
        and no retries apply: in-parent execution cannot lose a worker.
        An exception is re-raised in job order.
        """
        memo = RowMemo()
        for index, job in items:
            try:
                self._completed[index] = run_record(
                    index,
                    job,
                    want_result=self.want_results,
                    collect_errors=self.collect_errors,
                    mine=self.mine,
                    memo=memo,
                )
            except Exception as exc:
                self._completed[index] = _Raise(exc)
                return

    def _dispatch(self, now: float) -> None:
        """Give each idle worker a chunk, spawning workers on first use."""
        for wid in range(self.n_workers):
            worker = self._workers[wid]
            while worker is None or worker.task is None:
                items = self._next_task(now)
                if items is None:
                    return
                if worker is None:
                    worker = self._workers[wid] = self._spawn(wid)
                self._progress[wid] = -1
                worker.current = -1
                try:
                    worker.conn.send(items)
                except _UNPICKLABLE_CHUNK:
                    self._run_inline(items)
                    continue
                except OSError:
                    # Died while idle: the chunk never reached it.
                    worker.task = items
                    self._on_worker_death(worker, now)
                    break
                worker.task = items

    # -- main loop --------------------------------------------------------

    def run(self) -> Iterator[JobRecord]:
        """Execute every job; yield records strictly in job order."""
        next_emit = 0
        try:
            while self._chunks is not None or self._jobs:
                now = time.monotonic()
                self._dispatch(now)
                busy = {
                    worker.conn: worker
                    for worker in self._workers
                    if worker is not None and worker.task is not None
                }
                if busy:
                    ready = _conn_wait(list(busy), timeout=_POLL_S)
                else:
                    ready = []
                    soonest = min(
                        (not_before for _items, not_before in self._pending),
                        default=None,
                    )
                    if soonest is not None and soonest > now:
                        time.sleep(min(soonest - now, _POLL_S))
                now = time.monotonic()
                for conn in ready:
                    self._receive(busy[conn], now)
                if self.tol.job_timeout_s is not None:
                    self._check_timeouts(now)
                while next_emit in self._completed:
                    record = self._completed.pop(next_emit)
                    del self._jobs[next_emit]
                    self._attempts.pop(next_emit, None)
                    next_emit += 1
                    if isinstance(record, _Raise):
                        raise record.exc
                    yield record
        finally:
            for worker in self._workers:
                if worker is not None:
                    worker.kill()
            self._workers = [None] * self.n_workers
