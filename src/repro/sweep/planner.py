"""Provisioning-frontier planner: Section 8 sizing decided at compile time.

The paper's Section 8 question — how many queues and how much buffering
before a program class stops deadlocking? — is a *frontier* query: along
each (policy, queues) line of the provisioning grid, find the minimal
queue capacity whose run completes. Exhaustively sweeping the capacity
axis answers it in linear cost; this module decides static lines at
compile time and evaluates the rest in full:

* **static policy** — the static policy needs a queue per competing
  message on every link, so a line below the widest competing count
  (:attr:`~repro.sweep.jobs.ProgramShape.widest`) is infeasible and has
  no frontier. Every feasible static run is decided by crossing-off
  under the simulator's own buffer bound (the two-way property
  ``test_simulator_capacities_verdict_matches_static_runs``), so
  :func:`~repro.core.crossing.least_capacity` gives the least capacity
  c* at which the program completes, and the frontier is the least axis
  capacity at or above c*. Only that point is simulated. If its row
  does not complete, analysis and simulator disagree, and the planner
  raises :class:`~repro.errors.SimulationError` rather than answer;
* **fcfs and ordered** — extra capacity can *introduce* an FCFS
  deadlock (the pinned counterexample
  ``test_fcfs_buffering_can_hurt_completion``), and no two-way property
  pins the ordered policy, so the planner evaluates the whole line.

Static lines whose jobs have equal
:func:`~repro.sweep.jobs.canonical_key` (every queue count at or past
the widest competing count) perform the same run and share the first
such line's frontier row; :attr:`FrontierResult.shared_with` names that
line. Exhaustive lines never share, which keeps :func:`exhaustive_spec`
the differential oracle.

A query runs its jobs as one :class:`~repro.sweep.plan.SweepPlan` on the
backend the :class:`PlanSpec` names. Each row is a standard
:class:`~repro.sweep.summary.RunSummary` whose ``index`` is the job's
position in the *exhaustive* grid (policy-major, then queues, then
ascending capacity, as :func:`repro.sweep.grid.sweep_jobs` orders the
sorted axis), on the searching line. Only executed jobs become rows, so
reducers fold them unchanged and each is byte-identical to the grid's
row at the same index. Checkpointing is not offered: the jobs depend on
c*, so there is no fixed grid to fingerprint.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.arch.config import ArrayConfig
from repro.errors import ConfigError, SimulationError
from repro.sim.queue_manager import check_policy_names
from repro.sweep.grid import sweep_label
from repro.sweep.jobs import SimJob, canonical_key, program_shape
from repro.sweep.plan import SweepPlan, SweepSession
from repro.sweep.reducers import StreamReducer
from repro.sweep.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.program import ArrayProgram
    from repro.witness.store import WitnessStore

#: Policies whose run-time completion is monotone in queue capacity
#: (hypothesis-pinned for static). FCFS is excluded by the pinned
#: counterexample; "ordered" is excluded conservatively (no
#: monotonicity property is pinned for it).
#:
#: Deadlock-witness pruning (:mod:`repro.witness`) reads this set: a
#: stored certificate only generalizes across capacities when
#: completion is monotone in capacity (a witnessed deadlock then
#: dominates every smaller capacity, and its trace-replay band every
#: covered one), so ``WitnessStore.find`` and ``mine_witness`` both
#: refuse policies outside this set — FCFS rows are never pruned, by
#: construction rather than by store discipline.
MONOTONE_POLICIES = frozenset({"static"})

#: ``FrontierResult.mode`` values.
MODE_CROSSING_OFF = "crossing-off"
MODE_EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class PlanSpec:
    """A frontier query: program, grid axes, execution knobs.

    The declarative layer over :class:`~repro.sweep.plan.SweepPlan` for
    frontier search. ``capacities`` is the axis to search (sorted
    ascending by the planner; duplicates are rejected so the exhaustive
    grid it is compared against is unambiguous). ``exhaustive`` evaluates
    every line in full, static lines included (see
    :func:`exhaustive_spec`). ``reducers`` are fed every executed row,
    in emission order, exactly as a sweep session would feed them.

    ``witness_store`` rides into the query's
    :class:`~repro.sweep.plan.SweepPlan`, so covered jobs are answered
    from the store and fresh deadlocks are mined into it. Without
    ``exhaustive`` it changes nothing: a static frontier row completes,
    and FCFS and ordered rows are never pruned or mined.

    ``backend`` and ``workers`` run the query's jobs. A round of one
    job (a static-only query has no other kind) runs in-process unless
    ``backend`` names a backend, as :func:`~repro.sweep.plan.simulate_many`
    runs a single job: forking workers for one simulation costs more
    than the simulation.
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
    exhaustive: bool = False
    witness_store: "WitnessStore | None" = None


def exhaustive_spec(spec: PlanSpec) -> PlanSpec:
    """``spec`` with every line fully evaluated, static lines included.

    The planner run under this twin *is* the exhaustive grid — same
    jobs, same row indices — which makes it both the differential
    oracle (planner frontier must match it exactly) and the honest cost
    baseline (its ``jobs_executed`` equals the grid size).
    """
    return dataclasses.replace(spec, exhaustive=True)


@dataclass(frozen=True)
class FrontierResult:
    """One (policy, queues) line's answer.

    ``frontier_capacity`` is the minimal capacity on the axis whose run
    completed — ``None`` when none does. ``probes`` holds the capacities
    the line's search executed, ascending, with each row's outcome
    string: under :data:`MODE_EXHAUSTIVE` the whole axis, under
    :data:`MODE_CROSSING_OFF` the frontier alone, or nothing when the
    line is infeasible or its frontier is off the axis. Either way the
    frontier is the least completed probe.

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
    lines included. ``rows`` holds only the executed jobs — each static
    search's frontier row and each exhaustive line's axis, none for a
    shared line — carrying the searching line's exhaustive-grid indices
    (see the module docstring), in job order. ``jobs_executed`` is their
    count; ``grid_jobs`` the exhaustive grid's.
    """

    lines: list[FrontierResult]
    rows: list[RunSummary]
    grid_jobs: int
    capacities: tuple[int, ...]
    #: Witness-store accounting (0 without a store): jobs answered from
    #: the store and new certificates mined. ``witness_seeded_lines`` is
    #: always 0, since no line's answer comes from the store; it stays
    #: because the benchmark reads all three counts.
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


#: Instance attribute :func:`_least_capacity` memoizes its result under.
_LEAST_CAPACITY_ATTR = "_sweep_least_capacity"


def _least_capacity(program: "ArrayProgram") -> int | None:
    """c* of ``program`` on a job's default array, memoized on the
    instance as :func:`~repro.sweep.jobs.program_shape` memoizes its
    shape, so a program's narrow and wide queries compute it once."""
    try:
        return getattr(program, _LEAST_CAPACITY_ATTR)
    except AttributeError:
        pass
    from repro.arch.routing import default_router
    from repro.arch.topology import ExplicitLinear
    from repro.core.crossing import least_capacity

    c_star = least_capacity(
        program, default_router(ExplicitLinear(tuple(program.cells)))
    )
    setattr(program, _LEAST_CAPACITY_ATTR, c_star)
    return c_star


class _LineSearch:
    """One search: the capacity indices it runs and their outcomes.

    A crossing-off search runs its frontier point, or nothing; an
    exhaustive search runs the whole axis. Either way the frontier is
    the least completed point.
    """

    __slots__ = (
        "policy", "queues", "line_index", "mode", "points", "outcomes",
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
        self.outcomes: dict[int, str] = {}  # capacity index -> outcome

    def result(
        self, capacities: tuple[int, ...], line_index: int, queues: int
    ) -> FrontierResult:
        """The answer for grid line ``line_index`` (this one or a member)."""
        probes = tuple(
            (capacities[i], outcome)
            for i, outcome in sorted(self.outcomes.items())
        )
        completed = [cap for cap, outcome in probes if outcome == "completed"]
        return FrontierResult(
            policy=self.policy,
            queues=queues,
            mode=self.mode,
            frontier_capacity=completed[0] if completed else None,
            probes=probes,
            shared_with=(
                None if line_index == self.line_index else self.queues
            ),
        )


class FrontierPlanner:
    """Executes a :class:`PlanSpec`: static lines from c*, others in full.

    The query's jobs — one frontier point per distinct static search,
    plus every exhaustive line's whole axis — run as a single
    :class:`~repro.sweep.plan.SweepPlan`, so line-level parallelism is
    available to the pool backend; errors are collected
    (``on_error="collect"``) — an infeasible corner of an exhaustive
    line is a not-completed data point, exactly as in an exhaustive
    sweep.
    """

    def __init__(self, spec: PlanSpec) -> None:
        if not spec.policies:
            raise ConfigError("frontier search needs at least one policy")
        check_policy_names(spec.policies)
        if not spec.queues:
            raise ConfigError("frontier search needs at least one queues value")
        if not spec.capacities:
            raise ConfigError("frontier search needs a capacity axis")
        if len(set(spec.capacities)) != len(tuple(spec.capacities)):
            raise ConfigError(
                "capacity axis contains duplicates; the exhaustive grid it "
                "is compared against would be ambiguous"
            )
        if min(spec.queues) < 1:
            raise ConfigError(f"queues must be >= 1, got {min(spec.queues)}")
        if min(spec.capacities) < 0:
            raise ConfigError(
                f"capacities must be >= 0, got {min(spec.capacities)}"
            )
        if spec.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {spec.workers}")
        if spec.chunk_size is not None and spec.chunk_size < 1:
            raise ConfigError(
                f"chunk_size must be >= 1, got {spec.chunk_size}"
            )
        self.spec = spec
        self.capacities: tuple[int, ...] = tuple(sorted(spec.capacities))

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

    def _frontier_index(self) -> int | None:
        """Index of the least axis capacity at or above c*, or ``None``."""
        c_star = _least_capacity(self.spec.program)
        if c_star is None:
            return None
        return next(
            (i for i, cap in enumerate(self.capacities) if cap >= c_star), None
        )

    def _searches(self) -> list[tuple[int, _LineSearch]]:
        """Every grid line's queue count and the search answering it.

        An exhaustive line searches itself over the whole axis. A static
        line runs nothing when it is infeasible (fewer queues than the
        widest competing count) or its frontier is off the axis.
        Otherwise it runs its frontier point, keyed by that job's
        :func:`~repro.sweep.jobs.canonical_key`: lines whose keys agree
        perform the same run, and the first such line's search answers
        them all. The program's shape and c* are computed here, and only
        when some line resolves by crossing-off.
        """
        spec = self.spec
        every = range(len(self.capacities))
        shape = None
        frontier = None
        by_key: dict[tuple, _LineSearch] = {}
        lines: list[tuple[int, _LineSearch]] = []
        for policy in spec.policies:
            for queues in spec.queues:
                if spec.exhaustive or policy != "static":
                    search = _LineSearch(
                        policy, queues, len(lines), MODE_EXHAUSTIVE, every
                    )
                    lines.append((queues, search))
                    continue
                if shape is None:
                    shape = program_shape(spec.program)
                    frontier = self._frontier_index()
                if queues < shape.widest or frontier is None:
                    search = _LineSearch(
                        policy, queues, len(lines), MODE_CROSSING_OFF, ()
                    )
                else:
                    job = self._job(policy, queues, frontier)
                    key = canonical_key(job, shape)
                    search = by_key.get(key)
                    if search is None:
                        search = by_key[key] = _LineSearch(
                            policy, queues, len(lines), MODE_CROSSING_OFF,
                            (frontier,),
                        )
                lines.append((queues, search))
        return lines

    def _grid_index(self, line: _LineSearch, cap_index: int) -> int:
        """Position in the exhaustive policy x queues x capacity grid."""
        return line.line_index * len(self.capacities) + cap_index

    # -- execution --------------------------------------------------------

    def run(self) -> FrontierReport:
        """Execute the query; every executed row is in the report."""
        spec = self.spec
        lines = self._searches()
        probes = [
            (search, i)
            for search in dict.fromkeys(search for _queues, search in lines)
            for i in search.points
        ]
        rows: list[RunSummary] = []
        pruned = mined = 0
        if probes:
            plan = SweepPlan(
                jobs=[self._job(s.policy, s.queues, i) for s, i in probes],
                backend=spec.backend,
                # One job never needs worker processes (simulate_many's rule).
                workers=(
                    1 if spec.backend is None and len(probes) == 1
                    else spec.workers
                ),
                chunk_size=spec.chunk_size,
                on_error="collect",
                witness_store=spec.witness_store,
            )
            session = SweepSession(plan)
            round_rows = list(session.stream())
            pruned, mined = session.witness_pruned, session.witness_mined
            reducers = tuple(spec.reducers)
            for (search, i), row in zip(probes, round_rows):
                row = dataclasses.replace(
                    row, index=self._grid_index(search, i)
                )
                if search.mode == MODE_CROSSING_OFF and not row.completed:
                    # The two-way property says this cannot happen.
                    ended = row.outcome
                    if row.error_kind is not None:
                        ended += f" ({row.error_kind}: {row.error})"
                    raise SimulationError(
                        f"{search.policy} q={search.queues}: crossing-off "
                        f"puts the frontier at cap={self.capacities[i]}, "
                        f"but that run ended {ended}"
                    )
                search.outcomes[i] = row.outcome
                for reducer in reducers:
                    reducer.update(row)
                rows.append(row)
        return FrontierReport(
            lines=[
                search.result(self.capacities, line_index, queues)
                for line_index, (queues, search) in enumerate(lines)
            ],
            rows=rows,
            grid_jobs=(
                len(spec.policies) * len(spec.queues) * len(self.capacities)
            ),
            capacities=self.capacities,
            witness_pruned=pruned,
            witness_mined=mined,
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
