"""Sweep jobs: the unit of work a sweep runs.

A :class:`SimJob` is one simulation to execute — program, config,
policy, registers, limits. The sweep's one runner
(:func:`repro.sweep.backends.run_record`) executes one job, trapping
:class:`~repro.errors.ReproError` into a :class:`BatchError` so
infeasible sweep corners stay data instead of aborting the batch.
Chunking lives here too: the supervisor behind a ``pool`` sweep splits
the job stream with it. :func:`canonical_key` names the run a job
performs, so the runner can simulate each distinct run of a program
once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.arch.config import ArrayConfig
from repro.perf.analysis_cache import ProgramShape, default_entry
from repro.sim.runtime import Simulator

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.program import ArrayProgram
    from repro.sim.result import SimulationResult
    from repro.sweep.summary import RunSummary


#: ``BatchError.kind`` of a job quarantined after crashing its worker
#: process past the supervisor's retry budget.
WORKER_CRASH_KIND = "WorkerCrash"


@dataclass(frozen=True)
class BatchError:
    """A job that raised instead of producing a result.

    A sweep job's :class:`~repro.errors.ReproError` becomes one of
    these in place of a :class:`~repro.sim.result.SimulationResult` —
    sweeps over queue provisioning legitimately contain infeasible
    corners (e.g. a static assignment with too few queues) and one such
    corner must not abort the batch. The supervisor also quarantines poison jobs
    (those that crash their worker past the retry budget) as rows of
    kind :data:`WORKER_CRASH_KIND` instead of aborting the sweep.
    """

    kind: str
    error: str

    @property
    def completed(self) -> bool:
        return False


@dataclass(frozen=True)
class SimJob:
    """One simulation to run: program plus run parameters."""

    program: "ArrayProgram"
    config: ArrayConfig | None = None
    policy: str = "ordered"
    registers: dict[str, dict[str, float | None]] | None = None
    strict: bool = True
    max_events: int | None = 5_000_000
    max_time: int | None = None

    def simulator(self) -> Simulator:
        """This job's simulator, built but not yet run."""
        return Simulator(
            self.program,
            config=self.config,
            policy=self.policy,
            registers=self.registers,
            strict=self.strict,
        )

    def run(self) -> "SimulationResult":
        """Execute this job in the current process."""
        sim = self.simulator()
        try:
            return sim.run(max_events=self.max_events, max_time=self.max_time)
        finally:
            sim.close()


def witness_row(index: int, job: SimJob, witness) -> "RunSummary":
    """The deadlock row a covered job would produce, without running it.

    Field-for-field the row :func:`~repro.sweep.summary.summarize_result`
    builds from a simulated deadlock: ``completed``/``timed_out`` False,
    ``deadlocked`` True, ``time``/``events``/``words`` from the
    witnessed trace (identical inside the certificate's capacity band —
    see :meth:`~repro.witness.certificate.DeadlockWitness.
    covers_capacity`), config fields from *this* job's config, and the
    error fields left at their defaults exactly as a simulated deadlock
    leaves them. Byte-equality of pruned vs simulated rows is pinned by
    differential tests, in process and on workers.
    """
    # Imported lazily: summary.py imports this module at module scope.
    from repro.sweep.summary import RunSummary

    config = job.config or ArrayConfig()
    return RunSummary(
        index=index,
        completed=False,
        deadlocked=True,
        timed_out=False,
        time=witness.time,
        events=witness.events,
        words=witness.words,
        policy=job.policy,
        queues=config.queues_per_link,
        capacity=config.queue_capacity,
    )


def mine_witness_payload(job: SimJob, result) -> dict | None:
    """Mine one finished job into a compact certificate dict, or ``None``.

    The job-side half of the witness-mining hook: wherever a job runs —
    in-process or in a worker — its deadlock is normalized into a
    :class:`~repro.witness.certificate.DeadlockWitness` payload there,
    and only the compact dict travels back with the record. Every
    soundness refusal lives in :func:`~repro.witness.certificate.
    mine_witness` (non-deadlocks, non-monotone policies, overridden or
    extensible queue configs return ``None``), so a worker can never
    mine a certificate the parent would have refused.
    """
    if not getattr(result, "deadlocked", False):
        return None
    # Imported lazily: repro.witness imports this module at module scope.
    from repro.witness import mine_witness

    witness = mine_witness(job, result)
    if witness is None:
        return None
    return witness.as_dict()


def _registers_repr(registers: dict[str, dict[str, float | None]] | None) -> str:
    """An order-independent text form of an initial register file."""
    if registers is None:
        return ""
    return repr(
        sorted(
            (cell, sorted(values.items())) for cell, values in registers.items()
        )
    )


def job_fingerprint(job: SimJob) -> str:
    """A content fingerprint of one job: program + every run parameter.

    Two jobs with equal fingerprints produce byte-identical rows:
    simulations are deterministic, and the program's
    :attr:`~repro.core.program.ArrayProgram.fingerprint` covers every
    part of the program a row depends on, message declaration order
    included (same-cycle requests are issued in that order); compute
    callables and write values, which it leaves out, change no row
    field. That is what lets a sweep checkpoint
    (:mod:`repro.sweep.checkpoint`) assert it is resuming *this* grid
    and not a lookalike.
    """
    config = job.config or ArrayConfig()
    return "|".join(
        (
            job.program.fingerprint,
            job.policy,
            repr(config),
            _registers_repr(job.registers),
            repr(job.strict),
            repr(job.max_events),
            repr(job.max_time),
        )
    )


def program_shape(program: "ArrayProgram") -> ProgramShape:
    """The :class:`~repro.perf.analysis_cache.ProgramShape` of ``program``.

    Read off the program's entry on a job's default array
    (:func:`~repro.perf.analysis_cache.default_entry`), which computes
    it once: the competing table does not depend on the config, and
    every program with the program's fingerprint shares the entry, a
    pickled copy included.
    """
    return default_entry(program).shape


#: The ArrayConfig fields a canonical key carries as they are: all but
#: the two it clamps and the per-link overrides it folds into its queue
#: counts. Derived from the dataclass, so a new field is keyed by default.
_PLAIN_CONFIG_FIELDS = operator.attrgetter(
    *(
        f.name
        for f in fields(ArrayConfig)
        if f.name
        not in ("queues_per_link", "queue_capacity", "link_queue_overrides")
    )
)


def canonical_key(job: SimJob, shape: ProgramShape) -> tuple:
    """A hashable key naming the run ``job`` performs.

    The key holds the program fingerprint, the policy, the registers,
    ``strict``, both limits and every config field except three, which
    are canonicalized, and the policy is folded in one case:

    * **queues** — each link's queue count is clamped to the number of
      messages competing for that link. A message requests a queue on a
      link once and holds at most one there, so at most that many queues
      on a link are ever taken; the free pool hands out never-used queues
      in index order, so once every competing message can have its own,
      no request finds the pool empty and an extra queue changes no grant
      under any policy (the static and ordered set-up checks pass
      either way). Without ``link_queue_overrides`` the clamped counts
      reduce to ``min(queues_per_link, shape.widest)``; with overrides
      they are kept per link, so such a config never shares a key with
      an override-free one (a missed share, never a wrong one).
    * **capacity** — clamped to the longest message. A queue carries one
      message at a time and is released when that message's last word
      leaves, so it never holds more words than the message is long: a
      capacity of at least the longest message never blocks a push, and
      the ordered policy's lookahead (hops x capacity) is then at least
      every message's length, which no count of skipped writes can
      exceed, so rule R2 never binds.
    * **policy** — an FCFS job with a queue per competing message on
      every link keys as ``"static"``: Section 7's static scheme is that
      provisioning. No request then finds the pool empty, so FCFS grants
      inside the request, as the static policy does, and which queue a
      message gets changes no timing. Static set-up cannot fail there
      either. Below a link's competing count FCFS may make a message
      wait, so it keeps its own key.

    Summary rows of jobs with equal keys therefore differ only in their
    ``index``, ``policy``, ``queues`` and ``capacity`` columns. (Full
    results also differ in ``queue_stats``, which lists every configured
    queue, and in the queue indices of ``assignment_trace``.) The
    program enters the key through its fingerprint, which covers message
    declaration order, so a program that re-declares the same messages
    in another order never shares a key: under FCFS below a link's
    competing count, the order same-cycle requests are issued in can
    decide between deadlock and completion. ``shape`` is the
    :func:`program_shape` of ``job.program``, read once per program, so
    keying a job makes no analysis lookup.
    """
    config = job.config or ArrayConfig()
    if config.link_queue_overrides:
        queues: int | tuple[int, ...] = tuple(
            min(config.queues_on(link), count) for link, count in shape.links
        )
        full = all(
            held == count for held, (_link, count) in zip(queues, shape.links)
        )
    else:
        queues = min(config.queues_per_link, shape.widest)
        full = queues == shape.widest
    policy = job.policy
    if policy == "fcfs" and full:
        policy = "static"
    return (
        shape.fingerprint,
        policy,
        _registers_repr(job.registers),
        job.strict,
        job.max_events,
        job.max_time,
        _PLAIN_CONFIG_FIELDS(config),
        queues,
        min(config.queue_capacity, shape.longest),
    )


def default_chunk_size(n_jobs: int, workers: int) -> int:
    """An even split that gives each worker ~4 chunks for load balance."""
    return max(1, -(-n_jobs // (workers * 4)))


def iter_chunks(
    jobs: Iterable[SimJob], chunk_size: int, start: int = 0
) -> Iterator[list[tuple[int, SimJob]]]:
    """Lazily split ``jobs`` into ``chunk_size``-sized indexed chunks."""
    chunk: list[tuple[int, SimJob]] = []
    for index, job in enumerate(jobs, start):
        chunk.append((index, job))
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk
