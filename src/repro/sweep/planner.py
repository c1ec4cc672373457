"""Adaptive provisioning-frontier planner: Section 8 sizing in log cost.

The paper's Section 8 question — how many queues and how much buffering
before a program class stops deadlocking? — is a *frontier* query: along
each (policy, queues) line of the provisioning grid, find the minimal
queue capacity whose run completes. Exhaustively sweeping the capacity
axis answers it in linear cost; this module answers it in logarithmic
cost where monotonicity licenses a binary search, and falls back to full
evaluation where it does not:

* **static policy** — run-time completion is monotone in capacity
  (buffering only relaxes blocking under a per-message static
  assignment; the property is hypothesis-pinned in
  ``tests/test_properties.py::test_buffering_never_hurts_static_completion``),
  so the planner bisects: probe the top point, probe the bottom, then
  binary-search the boundary — 2 + ceil(log2 n) probes instead of n,
  where n counts the *distinct canonical capacities* on the axis (see
  below);
* **fcfs** (and any policy not in :data:`MONOTONE_POLICIES`) — extra
  capacity can *introduce* a deadlock (the pinned PR 2 counterexample,
  ``test_fcfs_buffering_can_hurt_completion``: FCFS grants queues in
  arrival order and buffering reorders arrivals), so a bisection's
  invariant does not hold and the planner evaluates the whole line.
  The differential tests keep this fallback honest by reusing exactly
  that counterexample program.

A bisecting search runs each distinct run once. Jobs with equal
:func:`~repro.sweep.jobs.canonical_key` perform the same run (the row
memo trusts the same key), so:

* capacities whose keys agree — every capacity at or past the longest
  message — form one *point*, probed and reported at its smallest
  capacity. The clamp is monotone, so a point is a run of adjacent
  capacities on the sorted axis, and the smallest capacity of the first
  completing point is the frontier;
* bisecting lines whose keys agree — every queue count at or past the
  widest competing count — share one search, the one of the first such
  line. Its probes and frontier answer every member line, and
  :attr:`FrontierResult.shared_with` names the line that searched.

Exhaustive lines never share and never collapse: they evaluate the whole
axis, which is what keeps :func:`exhaustive_spec` the differential
oracle.

Every probe the planner *does* run goes through the ordinary sweep
machinery — a :class:`~repro.sweep.plan.SweepPlan` per probe round,
executed by whichever backend the :class:`PlanSpec` names — and is
emitted as a standard :class:`~repro.sweep.summary.RunSummary` row whose
``index`` is the job's position in the *exhaustive* grid (policy-major,
then queues, then ascending capacity, exactly
:func:`repro.sweep.grid.sweep_jobs` order over the sorted capacity
axis), on the searching line. Only executed jobs become rows: a shared
line and a collapsed capacity emit none. Reducers therefore fold planner
rows unchanged, and a planner row is byte-identical to the exhaustive
grid's row at the same index (simulations are deterministic) — which is
what the differential harness asserts. Checkpointing is the one sweep
feature that does not compose: probe rounds are data-dependent, so there
is no fixed grid to fingerprint; the planner rejects a request for it at
the :class:`PlanSpec` layer by simply not offering the knob.

Between probe rounds the planner re-uses neighboring-config analysis
deltas through the content-keyed analysis cache
(:mod:`repro.perf.analysis_cache`): message routes and competing-message
sets depend only on program x topology x router — never on queue
capacity — so the first probed capacity's entry donates them to every
later capacity's entry
(:meth:`~repro.perf.analysis_cache.AnalysisEntry.seed_capacity_independent`)
and each new probe point pays only for the capacity-*dependent*
artifacts (lookahead capacities, labeling) instead of a cold start. The
warm-up happens in the planner's process, so it benefits the default
in-process (serial) execution directly, and pool workers forked after
it start with the warm entries.

Entry points: build a :class:`PlanSpec` and call
:meth:`FrontierPlanner.run`, or use :func:`find_frontier` /
:func:`exhaustive_spec` (the forced-full-evaluation twin used for
differential testing and honest cost accounting).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.arch.config import ArrayConfig
from repro.errors import ConfigError
from repro.sweep.grid import sweep_label
from repro.sweep.jobs import SimJob, canonical_key, program_shape
from repro.sweep.plan import SweepPlan, SweepSession
from repro.sweep.reducers import StreamReducer
from repro.sweep.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.program import ArrayProgram
    from repro.witness.store import WitnessStore

#: Policies whose run-time completion is proven (and hypothesis-pinned)
#: monotone in queue capacity, licensing the binary search. FCFS is
#: excluded by the pinned counterexample; "ordered" is excluded
#: conservatively (its labeling is recomputed per capacity, and no
#: monotonicity property is pinned for it).
#:
#: This set also gates deadlock-witness pruning (:mod:`repro.witness`):
#: a stored certificate only generalizes across capacities when
#: completion is monotone in capacity (a witnessed deadlock then
#: dominates every smaller capacity, and its trace-replay band every
#: covered one), so ``WitnessStore.find`` and ``mine_witness`` both
#: refuse policies outside this set — FCFS rows are never pruned, by
#: construction rather than by store discipline.
MONOTONE_POLICIES = frozenset({"static"})

#: ``FrontierResult.mode`` values.
MODE_BISECT = "bisect"
MODE_EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class PlanSpec:
    """A frontier query: program, grid axes, execution knobs.

    The declarative layer over :class:`~repro.sweep.plan.SweepPlan` for
    frontier search. ``capacities`` is the axis to search (sorted
    ascending and deduplicated by the planner; duplicates are rejected
    so the exhaustive grid it is compared against is unambiguous).
    ``monotone_policies`` names the policies the planner may bisect —
    everything else is evaluated exhaustively; pass ``frozenset()``
    (see :func:`exhaustive_spec`) to force full evaluation everywhere.
    ``reducers`` are fed every executed row, in emission order, exactly
    as a sweep session would feed them.

    ``witness_store`` seeds each bisecting line's bounds from stored
    deadlock certificates (a witnessed deadlock at capacity ``c``
    dominates every capacity ``<= c`` under a monotone policy, so the
    bottom probe and part of the bracket are skipped) and rides along
    into every probe round's :class:`~repro.sweep.plan.SweepPlan`, so
    covered probes are answered from the store and fresh deadlocks are
    mined back into it.

    ``backend`` and ``workers`` run each probe round. A round of one
    job (a query with a single bisecting search has no other kind) runs
    in-process unless ``backend`` names a backend, as
    :func:`~repro.sweep.plan.simulate_many` runs a single job: forking
    workers for one simulation costs more than the simulation.
    """

    program: "ArrayProgram"
    policies: Sequence[str] = ("static",)
    queues: Sequence[int] = (1,)
    capacities: Sequence[int] = (0,)
    registers: dict[str, dict[str, float | None]] | None = None
    reducers: Sequence[StreamReducer] = ()
    backend: str | None = None
    workers: int = 1
    chunk_size: int | None = None
    monotone_policies: frozenset[str] = MONOTONE_POLICIES
    witness_store: "WitnessStore | None" = None


def exhaustive_spec(spec: PlanSpec) -> PlanSpec:
    """``spec`` with bisection disabled: every line fully evaluated.

    The planner run under this twin *is* the exhaustive grid — same
    jobs, same row indices — which makes it both the differential
    oracle (planner frontier must match it exactly) and the honest cost
    baseline (its ``jobs_executed`` equals the grid size).
    """
    return dataclasses.replace(spec, monotone_policies=frozenset())


@dataclass(frozen=True)
class FrontierResult:
    """One (policy, queues) line's answer.

    ``frontier_capacity`` is the minimal capacity on the axis whose run
    completed — ``None`` when no probed capacity completes. ``probes``
    holds the capacities the line's search executed, ascending, with
    each row's outcome string; under :data:`MODE_EXHAUSTIVE` that is the
    whole axis, under :data:`MODE_BISECT` the O(log n) probe set over
    the distinct canonical capacities, each probed at its smallest
    capacity (so the frontier is always the least completed probe).

    ``shared_with`` is the queue count of the line whose search answered
    this one, or ``None`` when the line searched itself. A shared line
    performs the same run as that line at every capacity (equal
    canonical keys), so it reports that search's probes and frontier;
    those probes were executed once, as the searching line's rows.
    """

    policy: str
    queues: int
    mode: str
    frontier_capacity: int | None
    probes: tuple[tuple[int, str], ...]
    shared_with: int | None = None

    @property
    def jobs_executed(self) -> int:
        """The probe count of the search that answered this line."""
        return len(self.probes)

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "queues": self.queues,
            "mode": self.mode,
            "frontier_capacity": self.frontier_capacity,
            "jobs_executed": self.jobs_executed,
            "shared_with": self.shared_with,
            "probes": [
                {"capacity": cap, "outcome": outcome}
                for cap, outcome in self.probes
            ],
        }


@dataclass
class FrontierReport:
    """A full planner run: per-line frontiers plus every executed row.

    ``lines`` holds one :class:`FrontierResult` per grid line, shared
    lines included. ``rows`` holds only the executed jobs — one per
    probe of each distinct search, none for a shared line — carrying
    the searching line's exhaustive-grid indices (see the module
    docstring), in emission order: round by round, within a round in
    job order. ``jobs_executed`` is their count; ``grid_jobs`` the
    exhaustive grid's.
    """

    lines: list[FrontierResult]
    rows: list[RunSummary]
    grid_jobs: int
    capacities: tuple[int, ...]
    #: Witness-store accounting (all 0 without a store): lines answered
    #: by a search whose bisection bounds a certificate seeded (shared
    #: lines included), probe jobs answered from the store, and new
    #: certificates mined during probe rounds.
    witness_seeded_lines: int = 0
    witness_pruned: int = 0
    witness_mined: int = 0

    @property
    def jobs_executed(self) -> int:
        return len(self.rows)

    def frontier(self) -> dict[str, int | None]:
        """``{"<policy> q=<n>": minimal completing capacity or None}``."""
        return {
            f"{line.policy} q={line.queues}": line.frontier_capacity
            for line in self.lines
        }

    def as_dict(self) -> dict:
        return {
            "frontier": self.frontier(),
            "grid_jobs": self.grid_jobs,
            "jobs_executed": self.jobs_executed,
            "capacities": list(self.capacities),
            "witness_seeded_lines": self.witness_seeded_lines,
            "witness_pruned": self.witness_pruned,
            "witness_mined": self.witness_mined,
            "lines": [line.as_dict() for line in self.lines],
        }


class _LineSearch:
    """The per-line state machine: bisect phases or exhaustive sweep.

    It walks ``points``, ascending capacity indices: a bisecting line's
    distinct canonical capacities (each the smallest capacity of its
    run of equal keys), or an exhaustive line's whole axis. Positions
    below are indices into ``points``.

    Bisect invariant (requires completed-monotone-in-capacity): after
    the top and bottom probes, ``lo`` indexes a not-completed point and
    ``hi`` a completed one; each midpoint probe halves the bracket
    until they are adjacent and ``hi`` is the frontier.
    """

    __slots__ = (
        "policy", "queues", "line_index", "mode", "points", "done",
        "frontier_idx", "outcomes", "seeded", "_phase", "_lo", "_hi",
    )

    def __init__(
        self,
        policy: str,
        queues: int,
        line_index: int,
        mode: str,
        points: Sequence[int],
    ) -> None:
        self.policy = policy
        self.queues = queues
        self.line_index = line_index
        self.mode = mode
        self.points = points
        self.done = False
        self.frontier_idx: int | None = None
        self.outcomes: dict[int, str] = {}  # position -> outcome
        self.seeded = False
        self._phase = "top"
        self._lo = 0
        self._hi = len(points) - 1

    def seed_known_deadlocked(self, position: int) -> None:
        """Fold witness knowledge: points ``<= position`` deadlock.

        Outcome-only dominance from a stored certificate under a
        monotone policy. Covering the whole line settles it with zero
        probes; otherwise the bottom probe is skipped (its answer is
        known not-completed) and the bisection bracket starts at the
        highest dominated position instead of 0.
        """
        if self.mode != MODE_BISECT or self.done:
            return
        if position >= len(self.points) - 1:
            # Even the top point is witnessed deadlocked: no probe can
            # complete, the frontier is known absent.
            self.frontier_idx = None
            self.done = True
            self.seeded = True
            return
        self._lo = max(self._lo, position)
        self.seeded = True

    def next_probes(self) -> list[int]:
        """Positions to execute this round (empty when done)."""
        if self.done:
            return []
        if self.mode == MODE_EXHAUSTIVE:
            return list(range(len(self.points)))
        if self._phase == "top":
            return [len(self.points) - 1]
        if self._phase == "bottom":
            return [0]
        return [(self._lo + self._hi) // 2]

    def record(self, position: int, outcome: str) -> None:
        """Fold one probe's outcome and advance the phase machine."""
        self.outcomes[position] = outcome
        if self.mode == MODE_EXHAUSTIVE:
            if len(self.outcomes) == len(self.points):
                completed = [
                    i for i, o in sorted(self.outcomes.items())
                    if o == "completed"
                ]
                self.frontier_idx = completed[0] if completed else None
                self.done = True
            return
        completed = outcome == "completed"
        if self._phase == "top":
            if not completed:
                # The most generous capacity fails: monotonicity says
                # everything below it fails too.
                self.frontier_idx = None
                self.done = True
            elif len(self.points) == 1:
                self.frontier_idx = 0
                self.done = True
            elif self.seeded:
                # A witness already answered the bottom probe (the
                # dominated prefix cannot complete): go straight to
                # bisecting the remaining bracket.
                self._phase = "bisect"
                self._maybe_finish()
            else:
                self._phase = "bottom"
            return
        if self._phase == "bottom":
            if completed:
                self.frontier_idx = 0
                self.done = True
            else:
                self._phase = "bisect"
                self._maybe_finish()
            return
        mid = (self._lo + self._hi) // 2
        if completed:
            self._hi = mid
        else:
            self._lo = mid
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._hi - self._lo == 1:
            self.frontier_idx = self._hi
            self.done = True

    def result(
        self, capacities: tuple[int, ...], line_index: int, queues: int
    ) -> FrontierResult:
        """The answer for grid line ``line_index`` (this one or a member)."""
        points = self.points
        return FrontierResult(
            policy=self.policy,
            queues=queues,
            mode=self.mode,
            frontier_capacity=(
                capacities[points[self.frontier_idx]]
                if self.frontier_idx is not None
                else None
            ),
            probes=tuple(
                (capacities[points[i]], outcome)
                for i, outcome in sorted(self.outcomes.items())
            ),
            shared_with=(
                None if line_index == self.line_index else self.queues
            ),
        )


class FrontierPlanner:
    """Executes a :class:`PlanSpec`: bisect where sound, sweep elsewhere.

    Probe rounds batch one pending probe per distinct bisecting search
    (plus, in the first round, every exhaustive line's whole axis) into
    a single :class:`~repro.sweep.plan.SweepPlan`, so line-level
    parallelism is available to the pool backend; errors are collected
    (``on_error="collect"``) — an infeasible corner is a not-completed
    data point, exactly as in an exhaustive sweep.
    """

    def __init__(self, spec: PlanSpec) -> None:
        if not spec.policies:
            raise ConfigError("frontier search needs at least one policy")
        if not spec.queues:
            raise ConfigError("frontier search needs at least one queues value")
        if not spec.capacities:
            raise ConfigError("frontier search needs a capacity axis")
        if len(set(spec.capacities)) != len(tuple(spec.capacities)):
            raise ConfigError(
                "capacity axis contains duplicates; the exhaustive grid it "
                "is compared against would be ambiguous"
            )
        self.spec = spec
        self.capacities: tuple[int, ...] = tuple(sorted(spec.capacities))
        self._analyzed: set[int] = set()  # capacities with a warm entry
        self._witness_pruned = 0
        self._witness_mined = 0

    # -- grid geometry ----------------------------------------------------

    def _job(self, policy: str, queues: int, cap_index: int) -> SimJob:
        """The grid job at (policy, queues, ``capacities[cap_index]``)."""
        return SimJob(
            self.spec.program,
            config=ArrayConfig(
                queues_per_link=queues,
                queue_capacity=self.capacities[cap_index],
            ),
            policy=policy,
            registers=self.spec.registers,
        )

    def _searches(self) -> list[tuple[int, _LineSearch]]:
        """Every grid line's queue count and the search answering it.

        An exhaustive line searches itself over the whole axis. A
        bisecting line is keyed by its job's
        :func:`~repro.sweep.jobs.canonical_key` at the first capacity:
        the key clamps queues and capacity independently, so lines whose
        keys agree there agree at every capacity, and the first such
        line's search answers them all. A search's points are the
        capacities where its key changes along the sorted axis. The
        program's shape is computed here, not in ``__init__``, and only
        when some line bisects.
        """
        spec = self.spec
        n = len(self.capacities)
        shape = None
        by_key: dict[tuple, _LineSearch] = {}
        lines: list[tuple[int, _LineSearch]] = []
        for policy in spec.policies:
            for queues in spec.queues:
                if policy not in spec.monotone_policies:
                    search = _LineSearch(
                        policy, queues, len(lines), MODE_EXHAUSTIVE, range(n)
                    )
                    lines.append((queues, search))
                    continue
                if shape is None:
                    shape = program_shape(spec.program)
                key = canonical_key(self._job(policy, queues, 0), shape)
                search = by_key.get(key)
                if search is None:
                    keys = [key] + [
                        canonical_key(self._job(policy, queues, i), shape)
                        for i in range(1, n)
                    ]
                    points = [
                        i for i in range(n) if i == 0 or keys[i] != keys[i - 1]
                    ]
                    search = by_key[key] = _LineSearch(
                        policy, queues, len(lines), MODE_BISECT, points
                    )
                lines.append((queues, search))
        return lines

    def _grid_index(self, line: _LineSearch, cap_index: int) -> int:
        """Position in the exhaustive policy x queues x capacity grid."""
        return line.line_index * len(self.capacities) + cap_index

    # -- analysis warm-up -------------------------------------------------

    def _warm_analysis(self, probe_caps: Sequence[int]) -> None:
        """Seed new capacities' cache entries from an already-probed one.

        Routes and competing sets are capacity-independent, so the
        donor entry (the first capacity ever probed) hands them to every
        later probe point and only the capacity-dependent artifacts are
        recomputed. Skipped entirely for programs whose topology/router
        cannot be content-fingerprinted (lookup returns ``None``).
        """
        from repro.arch.routing import default_router
        from repro.arch.topology import ExplicitLinear
        from repro.perf.analysis_cache import GLOBAL_ANALYSIS_CACHE

        fresh = [c for c in probe_caps if c not in self._analyzed]
        if not fresh:
            return
        program = self.spec.program
        topology = ExplicitLinear(tuple(program.cells))
        router = default_router(topology)
        donor = None
        if self._analyzed:
            donor = GLOBAL_ANALYSIS_CACHE.lookup(
                program,
                topology,
                router,
                ArrayConfig(queue_capacity=next(iter(self._analyzed))),
            )
        for cap in fresh:
            if donor is not None:
                entry = GLOBAL_ANALYSIS_CACHE.lookup(
                    program, topology, router, ArrayConfig(queue_capacity=cap)
                )
                if entry is not None:
                    entry.seed_capacity_independent(donor)
            self._analyzed.add(cap)

    # -- execution --------------------------------------------------------

    def _run_round(
        self, probes: list[tuple[_LineSearch, int]]
    ) -> list[RunSummary]:
        spec = self.spec
        jobs = [
            self._job(line.policy, line.queues, line.points[position])
            for line, position in probes
        ]
        self._warm_analysis([job.config.queue_capacity for job in jobs])
        plan = SweepPlan(
            jobs=jobs,
            backend=spec.backend,
            # One job never needs worker processes (simulate_many's rule).
            workers=(
                1 if spec.backend is None and len(jobs) == 1 else spec.workers
            ),
            chunk_size=spec.chunk_size,
            on_error="collect",
            witness_store=spec.witness_store,
        )
        session = SweepSession(plan)
        round_rows = list(session.stream())
        self._witness_pruned += session.witness_pruned
        self._witness_mined += session.witness_mined
        return round_rows

    def _seed_from_witnesses(self, searches: "list[_LineSearch]") -> None:
        """Fold stored certificates into each bisecting search's bounds.

        A certificate at capacity ``c`` in the searching line's scope
        proves (by monotonicity) that every capacity ``<= c`` deadlocks,
        so every point whose smallest capacity is ``<= c`` — the whole
        point, as its capacities share one run — is already answered:
        the bottom probe and part of the bracket. Outcome-only
        knowledge: no row is synthesized here, the grid's dominated rows
        simply stop being interesting to a frontier query.
        """
        store = self.spec.witness_store
        if store is None:
            return
        from repro.witness import witness_scope

        for search in searches:
            if search.mode != MODE_BISECT:
                continue
            # The scope is capacity-neutral: any of the line's jobs names it.
            scope = witness_scope(self._job(search.policy, search.queues, 0))
            bound = store.monotone_bound(scope)
            if bound is None:
                continue
            dominated = [
                position
                for position, i in enumerate(search.points)
                if self.capacities[i] <= bound
            ]
            if dominated:
                search.seed_known_deadlocked(dominated[-1])

    def run(self) -> FrontierReport:
        """Execute the search; every executed row is in the report."""
        lines = self._searches()
        searches = list(dict.fromkeys(search for _queues, search in lines))
        self._witness_pruned = 0
        self._witness_mined = 0
        self._seed_from_witnesses(searches)
        reducers = tuple(self.spec.reducers)
        rows: list[RunSummary] = []
        while True:
            probes = [
                (search, position)
                for search in searches
                for position in search.next_probes()
            ]
            if not probes:
                break
            for (search, position), row in zip(
                probes, self._run_round(probes)
            ):
                grid_row = dataclasses.replace(
                    row,
                    index=self._grid_index(search, search.points[position]),
                )
                search.record(position, grid_row.outcome)
                for reducer in reducers:
                    reducer.update(grid_row)
                rows.append(grid_row)
        return FrontierReport(
            lines=[
                search.result(self.capacities, line_index, queues)
                for line_index, (queues, search) in enumerate(lines)
            ],
            rows=rows,
            grid_jobs=(
                len(self.spec.policies)
                * len(self.spec.queues)
                * len(self.capacities)
            ),
            capacities=self.capacities,
            witness_seeded_lines=sum(search.seeded for _q, search in lines),
            witness_pruned=self._witness_pruned,
            witness_mined=self._witness_mined,
        )


def find_frontier(
    program: "ArrayProgram",
    policies: Sequence[str] = ("static",),
    queues: Sequence[int] = (1,),
    capacities: Sequence[int] = (0,),
    **knobs,
) -> FrontierReport:
    """One-call frontier search (see :class:`PlanSpec` for the knobs)."""
    return FrontierPlanner(
        PlanSpec(
            program,
            policies=policies,
            queues=queues,
            capacities=capacities,
            **knobs,
        )
    ).run()


def probe_label(row: RunSummary) -> str:
    """The grid label of one executed probe row (for CLI tables)."""
    return sweep_label(row.policy, row.queues, row.capacity)
