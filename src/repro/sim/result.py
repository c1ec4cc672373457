"""Simulation outcomes and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.queue import QueueStats
from repro.sim.queue_manager import AssignmentEvent


@dataclass
class SimulationResult:
    """What happened when a program ran on a configured array.

    ``completed`` and ``deadlocked`` are mutually exclusive unless the run
    hit an event/time limit (then both are False and ``timed_out`` is
    True). A queue-induced deadlock shows up as ``deadlocked=True`` with
    the blocked agents' descriptions and, when one exists, a wait-for
    cycle.

    ``queue_stats`` lists every configured queue of every link a message
    routes over, keyed ``"src->dst#index"``, in link then index order. A
    queue that was never granted reports zero counters.
    """

    completed: bool
    deadlocked: bool
    timed_out: bool
    time: int
    events: int
    blocked: list[str] = field(default_factory=list)
    wait_cycle: list[str] | None = None
    registers: dict[str, dict[str, float | None]] = field(default_factory=dict)
    received: dict[str, list[float | None]] = field(default_factory=dict)
    queue_stats: dict[str, QueueStats] = field(default_factory=dict)
    assignment_trace: list[AssignmentEvent] = field(default_factory=list)
    memory_accesses: dict[str, int] = field(default_factory=dict)
    busy_cycles: dict[str, int] = field(default_factory=dict)
    words_transferred: int = 0

    @property
    def total_memory_accesses(self) -> int:
        """Local-memory accesses across all cells (0 under systolic comm.)."""
        return sum(self.memory_accesses.values())

    @property
    def makespan(self) -> int:
        """Completion (or stall) time in cycles."""
        return self.time

    def utilization(self, cell: str) -> float:
        """Fraction of the makespan ``cell`` spent busy."""
        if self.time == 0:
            return 0.0
        return self.busy_cycles.get(cell, 0) / self.time

    def assert_completed(self) -> "SimulationResult":
        """Raise ``AssertionError`` with diagnostics unless the run finished."""
        if not self.completed:
            detail = "; ".join(self.blocked) or "no blocked-agent details"
            state = "deadlocked" if self.deadlocked else "timed out"
            raise AssertionError(f"simulation {state} at t={self.time}: {detail}")
        return self

    def summary(self) -> str:
        """One-line human summary."""
        if self.completed:
            return (
                f"completed t={self.time} events={self.events} "
                f"words={self.words_transferred} mem={self.total_memory_accesses}"
            )
        state = "DEADLOCK" if self.deadlocked else "TIMEOUT"
        return f"{state} t={self.time} blocked={len(self.blocked)}"
