"""Flat per-run summary rows: what crosses process boundaries.

A :class:`RunSummary` is one job's outcome reduced to a constant-size
row — never the full :class:`~repro.sim.result.SimulationResult` with
its traces and register files. Rows are what streaming reducers consume,
what pool workers send back over their pipes, and what a sweep must
reproduce byte-identically for the same job list, in process or on
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.config import ArrayConfig
from repro.sweep.jobs import BatchError, SimJob

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.result import SimulationResult
    from repro.sim.runtime import Simulator


@dataclass(frozen=True)
class RunSummary:
    """One job's outcome, reduced to a flat constant-size row.

    This is what crosses the pool pipe and what reducers see — never
    the full :class:`~repro.sim.result.SimulationResult` with its
    traces and register files.
    """

    index: int
    completed: bool
    deadlocked: bool
    timed_out: bool
    time: int
    events: int
    words: int
    policy: str
    queues: int
    capacity: int
    error_kind: str | None = None
    error: str | None = None

    @property
    def outcome(self) -> str:
        """``completed`` / ``deadlock`` / ``timeout`` / ``infeasible``."""
        if self.error_kind is not None:
            return "infeasible"
        if self.completed:
            return "completed"
        if self.deadlocked:
            return "deadlock"
        return "timeout"


def summarize_result(
    index: int,
    job: SimJob,
    result: "SimulationResult | Simulator | BatchError",
) -> RunSummary:
    """Flatten one job's result into a :class:`RunSummary` row.

    ``result`` may also be the job's stopped
    :class:`~repro.sim.runtime.Simulator`, which carries the same outcome
    flags and counters, so a row never needs the full result built.
    """
    config = job.config or ArrayConfig()
    if isinstance(result, BatchError):
        return RunSummary(
            index=index,
            completed=False,
            deadlocked=False,
            timed_out=False,
            time=0,
            events=0,
            words=0,
            policy=job.policy,
            queues=config.queues_per_link,
            capacity=config.queue_capacity,
            error_kind=result.kind,
            error=result.error,
        )
    return RunSummary(
        index=index,
        completed=result.completed,
        deadlocked=result.deadlocked,
        timed_out=result.timed_out,
        time=result.time,
        events=result.events,
        words=result.words_transferred,
        policy=job.policy,
        queues=config.queues_per_link,
        capacity=config.queue_capacity,
    )


def timeout_row(index: int, job: SimJob, reason: str) -> RunSummary:
    """A timeout-class row for a job killed by the wall-clock supervisor.

    A hung simulation corner is data, same as a deadlock: the row's
    ``outcome`` is ``"timeout"`` (``timed_out`` set, no ``error_kind``,
    so it lands in the same bucket as a ``max_time`` expiry) and the
    kill reason rides along in ``error`` for forensics.
    """
    config = job.config or ArrayConfig()
    return RunSummary(
        index=index,
        completed=False,
        deadlocked=False,
        timed_out=True,
        time=0,
        events=0,
        words=0,
        policy=job.policy,
        queues=config.queues_per_link,
        capacity=config.queue_capacity,
        error=reason,
    )
