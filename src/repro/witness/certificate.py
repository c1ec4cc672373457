"""Deadlock witness certificates: what a deadlocked run proves.

A sweep corner that deadlocks runs to quiescence before the detector
(:mod:`repro.sim.deadlock`) explains it — and then the next sweep pays
the same cost for a corner the last one already proved deadlocked. This
module mines what the detector reports into a *certificate*: the
normalized wait-for cycle (the blocked subprogram slice — cells and
messages on the cycle, name-canonicalized), the policy, and the capacity
under which it deadlocked, plus the exact row payload (time, events,
words) the run produced.

A certificate licenses skipping future jobs on two levels:

* **Trace replay (row-exact).** For the static policy, queue assignment
  is decided per message at link setup from the competing-message set
  alone — capacity never enters — so capacity influences the run *only*
  through the push-blocks-when-full check. A witnessed run whose queues
  never filled (``peak_occupancy < capacity``) therefore executed the
  capacity-unconstrained trace, and every capacity ``>= peak_occupancy``
  replays it event for event: same deadlock, same time, same event
  count, same words. :meth:`DeadlockWitness.covers_capacity` is that
  band — the witnessed capacity itself, plus the open ray above the
  peak when the queues never filled. Rows synthesized inside the band
  are byte-identical to simulated ones (differential-tested across
  backends).
* **Monotone dominance (outcome-only).** Static-policy completion is
  monotone in capacity (hypothesis-pinned in
  ``tests/test_properties.py``), so any capacity ``<=`` the witnessed
  one also deadlocks. That is *outcome* knowledge, not trace knowledge
  — time/events may differ — so it never synthesizes rows; only
  :meth:`DeadlockWitness.subsumes` weighs it, keeping the certificate
  with the higher bound.

FCFS is exempt from both by construction — the pinned PR 2
counterexample shows extra FCFS buffering can *introduce* deadlock, so
no capacity generalization is sound there; :func:`mine_witness` refuses
to mine any policy outside ``MONOTONE_POLICIES``. This is the SokoDLex
pattern (normalized deadlock certificates with subsumption lookup)
under the "weak deadlock sets" framing: the per-queue buffer budget
defines the deadlocking region a certificate covers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.config import ArrayConfig
from repro.sweep.jobs import SimJob, job_fingerprint

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.result import SimulationResult

#: Bump when the certificate payload changes meaning; old stores then
#: read as empty instead of licensing skips they no longer prove.
SCOPE_VERSION = 1

#: ``"<agent> W(<msg>): ..."`` / ``"<agent> R(<msg>): ..."`` — the
#: message name inside a blocked-agent description (see
#: ``repro.sim.agents._Agent.wait_reason``).
_OP_MESSAGE = re.compile(r"[WR]\((\w+)\)")


def witness_scope(job: SimJob) -> str:
    """The capacity-neutral identity of a job: everything but capacity.

    Two jobs share a scope exactly when they differ in nothing but
    ``queue_capacity`` — same program content, policy, queue count,
    registers, limits. A witness generalizes only within its scope
    (capacity is the one axis the monotonicity/trace arguments cover),
    so this string is the store's index key.
    """
    config = job.config or ArrayConfig()
    neutral = dataclasses.replace(job, config=config.with_(queue_capacity=0))
    return f"ws{SCOPE_VERSION}|{job_fingerprint(neutral)}"


@dataclass(frozen=True)
class DeadlockWitness:
    """One deadlocked run, normalized into a reusable certificate.

    ``cycle`` is the detector's wait-for cycle, canonicalized (trailing
    repeat dropped, rotated to start at the lexicographically smallest
    agent) so the same circular wait mined from different runs compares
    equal. ``capacity`` is the witnessed uniform queue capacity,
    ``peak_occupancy`` the maximum occupancy any queue reached before
    quiescence — together they define the capacity band
    :meth:`covers_capacity` replays row-exactly. ``time``/``events``/
    ``words`` are the witnessed run's row payload, emitted verbatim for
    covered jobs.
    """

    scope: str
    program_fp: str
    policy: str
    queues: int
    capacity: int
    peak_occupancy: int
    cycle: tuple[str, ...]
    cells: tuple[str, ...]
    messages: tuple[str, ...]
    time: int
    events: int
    words: int

    @property
    def witness_id(self) -> str:
        """Deterministic content id (stable across processes and runs)."""
        h = hashlib.blake2b(digest_size=8)
        h.update(
            repr(
                (
                    self.scope,
                    self.capacity,
                    self.peak_occupancy,
                    self.cycle,
                    self.time,
                    self.events,
                    self.words,
                )
            ).encode()
        )
        return h.hexdigest()

    @property
    def open_ray(self) -> bool:
        """Whether the witnessed trace is capacity-unconstrained.

        True when no queue ever filled (``peak_occupancy < capacity``):
        the run would replay identically at every capacity down to the
        peak, so the certificate covers the ray ``[peak_occupancy, inf)``
        in addition to the witnessed capacity itself.
        """
        return self.peak_occupancy < self.capacity

    def covers_capacity(self, capacity: int) -> bool:
        """Whether a job at ``capacity`` replays this witnessed trace.

        The witnessed capacity always qualifies (exact replay). With an
        :attr:`open_ray`, so does every capacity ``>= peak_occupancy``:
        the queues never filled at the witnessed capacity, so no push
        ever blocked on space and none would at any capacity above the
        peak either — the trace, and therefore the row, is identical.
        """
        if capacity == self.capacity:
            return True
        return self.open_ray and capacity >= self.peak_occupancy

    def subsumes(self, other: "DeadlockWitness") -> bool:
        """Whether this certificate makes ``other`` redundant.

        True when every job ``other`` covers is covered here too *and*
        this witness's dominance bound (its capacity) is at least as
        strong.
        """
        if self.scope != other.scope:
            return False
        if not self.covers_capacity(other.capacity):
            return False
        if other.open_ray and not (
            self.open_ray and self.peak_occupancy <= other.peak_occupancy
        ):
            return False
        return self.capacity >= other.capacity

    def as_dict(self) -> dict:
        """JSON-ready payload (the store's on-disk form)."""
        return {
            "id": self.witness_id,
            "scope": self.scope,
            "program_fp": self.program_fp,
            "policy": self.policy,
            "queues": self.queues,
            "capacity": self.capacity,
            "peak_occupancy": self.peak_occupancy,
            "cycle": list(self.cycle),
            "cells": list(self.cells),
            "messages": list(self.messages),
            "time": self.time,
            "events": self.events,
            "words": self.words,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeadlockWitness":
        return cls(
            scope=payload["scope"],
            program_fp=payload["program_fp"],
            policy=payload["policy"],
            queues=payload["queues"],
            capacity=payload["capacity"],
            peak_occupancy=payload["peak_occupancy"],
            cycle=tuple(payload["cycle"]),
            cells=tuple(payload["cells"]),
            messages=tuple(payload["messages"]),
            time=payload["time"],
            events=payload["events"],
            words=payload["words"],
        )


def _canonical_cycle(cycle: list[str]) -> tuple[str, ...]:
    """Drop the trailing repeat, rotate to the smallest agent name."""
    nodes = list(cycle)
    if len(nodes) > 1 and nodes[0] == nodes[-1]:
        nodes = nodes[:-1]
    pivot = nodes.index(min(nodes))
    return tuple(nodes[pivot:] + nodes[:pivot])


def _cycle_members(cycle: tuple[str, ...], blocked: list[str]):
    """Cells, and messages, named by the cycle's agents.

    Cell and forwarder agents encode their identity in their names
    (``cell:<name>``, ``fwd:<message>:<hop>``); the message each blocked
    cell is stuck on comes from its blocked-agent description.
    """
    members = set(cycle)
    cells: set[str] = set()
    messages: set[str] = set()
    for name in cycle:
        kind, _, rest = name.partition(":")
        if kind == "cell":
            cells.add(rest)
        elif kind == "fwd":
            messages.add(rest.rsplit(":", 1)[0])
    for line in blocked:
        agent = line.split(" ", 1)[0]
        if agent not in members:
            continue
        match = _OP_MESSAGE.search(line)
        if match is not None:
            messages.add(match.group(1))
    return tuple(sorted(cells)), tuple(sorted(messages))


def mine_witness(
    job: SimJob, result: "SimulationResult"
) -> DeadlockWitness | None:
    """Normalize one deadlocked run into a certificate, or ``None``.

    Mining refuses anything the capacity arguments do not cover:

    * non-deadlock outcomes, and deadlocks the detector could not
      explain with a wait-for cycle (a chain is not a certificate);
    * policies outside ``MONOTONE_POLICIES`` — FCFS capacity behavior
      is non-monotone (the pinned counterexample), so no capacity
      generalization is sound and nothing is worth storing;
    * configurations where capacity is not the uniform scalar the band
      reasons about: per-link queue overrides, or the queue-extension
      escape hatch (a "full" queue that spills never blocks a push, so
      the peak-occupancy argument does not apply).
    """
    from repro.sweep.planner import MONOTONE_POLICIES

    if not getattr(result, "deadlocked", False):
        return None
    if result.completed or result.timed_out:
        return None
    if result.wait_cycle is None:
        return None
    if job.policy not in MONOTONE_POLICIES:
        return None
    config = job.config or ArrayConfig()
    if config.allow_extension or config.link_queue_overrides:
        return None
    from repro.perf.analysis_cache import program_fingerprint

    cycle = _canonical_cycle(result.wait_cycle)
    cells, messages = _cycle_members(cycle, result.blocked)
    peak = max(
        (stats.peak_occupancy for stats in result.queue_stats.values()),
        default=0,
    )
    return DeadlockWitness(
        scope=witness_scope(job),
        program_fp=program_fingerprint(job.program),
        policy=job.policy,
        queues=config.queues_per_link,
        capacity=config.queue_capacity,
        peak_occupancy=peak,
        cycle=cycle,
        cells=cells,
        messages=messages,
        time=result.time,
        events=result.events,
        words=result.words_transferred,
    )
