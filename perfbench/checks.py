"""Output checks: stable digests, reference comparison, paper invariants.

Every op of a run is compared with the reference computed for the same
seed (see :mod:`perfbench.workloads`), and the paper's invariants are
checked on the run's own outputs. An op *fails* when it raised out of
the program, was quarantined, disagrees with the reference, or breaks
an invariant. Infeasible corners -- rows whose ``error_kind`` is
``ConfigError`` (too few queues for the policy) or
``DeadlockedProgramError`` (no labeling exists) -- are data, not
failures.

The judge functions are pure: they take outputs and references and
return the indices of failed ops, so the benchmark's own tests can feed
them corrupted outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from dataclasses import dataclass, field

from repro.core.consistency import check_consistency

#: Row error kinds that are answers about the grid point, not failures.
INFEASIBLE_KINDS = frozenset({"ConfigError", "DeadlockedProgramError"})


def digest(value) -> str:
    """A process-independent digest of ``repr(value)``.

    ``hash()`` is salted per process, so it cannot compare a run with a
    reference computed elsewhere; BLAKE2 over the repr can. Every value
    digested here is built from ints, bools, strings, ``None`` and
    ``Fraction``, whose reprs are stable.
    """
    return hashlib.blake2b(repr(value).encode(), digest_size=12).hexdigest()


def row_digest(row) -> str:
    """Digest of one :class:`~repro.sweep.summary.RunSummary`, every field."""
    return digest(dataclasses.astuple(row))


def labeling_digest(labeling) -> str | None:
    return None if labeling is None else digest(sorted(labeling.labels.items()))


@dataclass
class Judgement:
    """Which ops failed, and one note per kind of failure seen."""

    failed: set[int] = field(default_factory=set)
    notes: Counter = field(default_factory=Counter)

    def fail(self, index: int, note: str) -> None:
        self.failed.add(index)
        self.notes[note] += 1


# -- grid_serial / grid_mp ------------------------------------------------


def judge_grid(rows, reference_rows, deadlock_free) -> Judgement:
    """Check streamed sweep rows.

    ``reference_rows[i]`` is the reference row of the job that produced
    ``rows[i]``; ``deadlock_free[i]`` is crossing-off's verdict for that
    row's program under the row's lookahead (``None`` where Theorem 1
    does not apply, i.e. for non-ordered rows).
    """
    judgement = Judgement()
    for i, (row, ref) in enumerate(zip(rows, reference_rows, strict=True)):
        if row.index != i:
            judgement.fail(i, "row out of job order")
        if row.error_kind is not None and row.error_kind not in INFEASIBLE_KINDS:
            judgement.fail(i, f"row error {row.error_kind}")
        if row_digest(row) != row_digest(ref):
            judgement.fail(i, "row differs from reference")
        # Theorem 1: a feasible ordered-policy run of a program crossing-off
        # proves deadlock-free (under the run's lookahead) completes.
        if (
            deadlock_free[i]
            and row.policy == "ordered"
            and row.error_kind is None
            and not row.completed
        ):
            judgement.fail(i, "Theorem 1 violated (ordered run did not complete)")
    return judgement


def grid_counts(rows) -> dict:
    """Exact counts of a row stream: simulated totals and outcome mix."""
    mix = Counter(f"{row.policy}:{row.outcome}" for row in rows)
    return {
        "sim.events": sum(row.events for row in rows),
        "sim.cycles": sum(row.time for row in rows),
        "outcomes": dict(sorted(mix.items())),
    }


# -- analysis_cold ----------------------------------------------------------


@dataclass(frozen=True)
class ColdOutput:
    """What one analysis_cold op returns.

    ``strict`` and ``lookahead`` are ``(deadlock_free, pairs_crossed,
    step_count)`` of the two crossing-off runs; ``labeling`` is the
    constraint labeling when the lookahead verdict is deadlock-free.
    ``error`` names an exception the op raised instead.
    """

    strict: tuple | None = None
    lookahead: tuple | None = None
    labeling: object = None
    error: str | None = None

    def key(self) -> tuple:
        return (self.strict, self.lookahead, labeling_digest(self.labeling), self.error)


def judge_cold(outputs, references, programs) -> Judgement:
    judgement = Judgement()
    for i, (out, ref) in enumerate(zip(outputs, references, strict=True)):
        if out.error is not None:
            judgement.fail(i, f"op raised {out.error}")
            continue
        if digest(out.key()) != digest(ref.key()):
            judgement.fail(i, "verdict or labeling differs from reference")
        if out.strict[0] and not out.lookahead[0]:
            judgement.fail(i, "strict deadlock-free but deadlocked under lookahead")
        if out.lookahead[0] and out.labeling is None:
            judgement.fail(i, "no labeling for a deadlock-free program")
        if out.labeling is not None and check_consistency(programs[i], out.labeling):
            judgement.fail(i, "labeling fails check_consistency")
    return judgement


def cold_counts(outputs) -> dict:
    """Exact counts of analysis_cold outputs: verdict mix and the pairs
    the two verdicts crossed (the traced run's ``core.pairs_crossed``
    also counts the crossings ``constraint_labeling`` makes inside)."""
    ok = [out for out in outputs if out.error is None]
    mix = Counter(
        f"strict={'free' if out.strict[0] else 'deadlocked'},"
        f"lookahead={'free' if out.lookahead[0] else 'deadlocked'}"
        for out in ok
    )
    return {
        "core.pairs_crossed": sum(out.strict[1] + out.lookahead[1] for out in ok),
        "verdicts": dict(sorted(mix.items())),
    }


# -- frontier_witness -------------------------------------------------------


@dataclass(frozen=True)
class FrontierOutput:
    """What one sizing query returns, reduced to comparable values.

    ``lines`` holds ``(policy, queues, frontier_capacity, probes)`` per
    line, ``probes`` being the executed ``(capacity, outcome)`` pairs;
    ``rows`` the ``(grid index, digest)`` of every row in emission
    order; ``counts`` the
    report's ``(jobs_executed, grid_jobs, witness_seeded_lines,
    witness_pruned, witness_mined)``; ``events``/``cycles`` the row
    totals.
    """

    lines: tuple = ()
    rows: tuple = ()
    counts: tuple = ()
    events: int = 0
    cycles: int = 0
    error: str | None = None

    @classmethod
    def from_report(cls, report) -> "FrontierOutput":
        return cls(
            lines=tuple(
                (line.policy, line.queues, line.frontier_capacity, line.probes)
                for line in report.lines
            ),
            rows=tuple((row.index, row_digest(row)) for row in report.rows),
            counts=(
                report.jobs_executed,
                report.grid_jobs,
                report.witness_seeded_lines,
                report.witness_pruned,
                report.witness_mined,
            ),
            events=sum(row.events for row in report.rows),
            cycles=sum(row.time for row in report.rows),
        )


def judge_frontier(outputs, references, expected) -> Judgement:
    """Check sizing queries.

    ``expected[i]`` is query ``i``'s answer computed without the planner
    or the witness store: per line, ``(queues, frontier, digests)`` from
    the exhaustive grid, ``digests[k]`` being that of the row at
    capacity index ``k``. Every line's frontier and every probe row must
    match it. ``references[i]`` is the same query re-run by the planner
    on the reference path, whose planner and witness counts must match.
    """
    judgement = Judgement()
    for i, (out, ref, lines) in enumerate(zip(outputs, references, expected, strict=True)):
        if out.error is not None:
            judgement.fail(i, f"query raised {out.error}")
            continue
        if [line[1:3] for line in out.lines] != [line[:2] for line in lines]:
            judgement.fail(i, "frontier differs from exhaustive reference")
        width = len(lines[0][2])
        for index, row in out.rows:
            line, cap = divmod(index, width)
            if line >= len(lines) or row != lines[line][2][cap]:
                judgement.fail(i, "probe row differs from exhaustive reference")
                break
        if out.counts != ref.counts:
            judgement.fail(i, "planner or witness counts differ from reference")
        for _policy, _queues, frontier, probes in out.lines:
            completed = [cap for cap, outcome in probes if outcome == "completed"]
            if frontier is None:
                ok = not completed
            else:
                # Static completion is monotone in capacity: the frontier
                # row completes and no lower probed capacity does.
                ok = frontier in completed and min(completed) == frontier
            if not ok:
                judgement.fail(i, "frontier row/probe invariant violated")
    return judgement


def frontier_counts(outputs) -> dict:
    ok = [out for out in outputs if out.error is None]
    jobs = sum(out.counts[0] for out in ok)
    mix = Counter(
        f"{line[0]}:{'none' if line[2] is None else 'found'}"
        for out in ok
        for line in out.lines
    )
    return {
        "sim.events": sum(out.events for out in ok),
        "sim.cycles": sum(out.cycles for out in ok),
        "planner.jobs": jobs,
        "planner.grid_jobs": sum(out.counts[1] for out in ok),
        "planner.jobs_per_query": jobs / len(ok) if ok else 0.0,
        "witness.seeded_lines": sum(out.counts[2] for out in ok),
        "witness.pruned": sum(out.counts[3] for out in ok),
        "witness.mined": sum(out.counts[4] for out in ok),
        "frontiers": dict(sorted(mix.items())),
    }
