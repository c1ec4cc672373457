"""The four workloads: set-up, the timed closed loop, and the reference.

Each workload object offers the same four steps:

* ``setup(seed, seconds)`` builds the inputs from the seed and
  constructs everything a user constructs before the first op (sweep
  session, planners, witness store);
* ``loop(state, host, deadline, max_ops)`` is the timed closed loop:
  one client, the next op issued only when the previous one returned,
  until the deadline passes, ``max_ops`` ops are done or the inputs run
  out; it ticks the :class:`~perfbench.hostclock.HostClock` ``host``
  after every op, which runs the calibration blocks between ops;
* ``reference(state, ops)`` recomputes the first ``ops`` ops on the
  simplest path -- serial, analysis caching off -- from inputs it
  builds again from the seed, so it shares no object (and no memoized
  table) with the run; ``judge(state, result, reference)`` checks a
  loop's outputs against it and against the paper's invariants
  (:mod:`perfbench.checks`);
* ``counts(outputs)`` gives the exact counts of a list of outputs, which
  are deterministic for a seed: a loop's must equal the reference's.

A loop runs at least :data:`MIN_OPS` ops, so the three segments of a
plain run hold at least 100 together and the 90th percentile of their
pooled latencies has ten samples above it. Input pools are sized from
``seconds`` with headroom over this repository's current speed; a loop
that runs out of inputs ends early and its rates are taken over the time
it actually ran.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import statistics
import time
from dataclasses import dataclass, field

from perfbench import checks
from perfbench.hostclock import HostClock
from perfbench.inputs import (
    COLD_CAPACITY,
    FRONTIER_CAPACITIES,
    GRID_CAPACITIES,
    GRID_POLICIES,
    GRID_QUEUES,
    cold_program,
    frontier_input,
    grid_program,
)
from repro.arch.config import ArrayConfig
from repro.arch.routing import default_router
from repro.arch.topology import ExplicitLinear
from repro.core.crossing import (
    configure_crossing_backend,
    cross_off,
    resolve_backend,
    route_capacities,
)
from repro.core.labeling import constraint_labeling
from repro.errors import ReproError
from repro.perf import clear_analysis_cache, reset_shm_cache_state
from repro.perf.analysis_cache import GLOBAL_ANALYSIS_CACHE
from repro.sim.runtime import Simulator
from repro.sweep import (
    BatchError,
    CompletedCount,
    DeadlockRateByConfig,
    FrontierPlanner,
    MakespanHistogram,
    PerConfigMakespan,
    PlanSpec,
    QuantileReducer,
    SimJob,
    SweepPlan,
    SweepSession,
    iter_sweep_jobs,
    parse_quantiles,
    summarize_result,
)
from repro.witness import WitnessStore


def reset_process_state() -> None:
    """Return the process to a cold start: no cached analyses, no arena.

    Run before every set-up, so each one pays what a fresh ``repro``
    process pays (the shared-memory arena is created again by the next
    multiprocess session).
    """
    clear_analysis_cache()
    reset_shm_cache_state()
    gc.collect()


@dataclass
class LoopResult:
    """What one timed loop produced."""

    wall_s: float
    latencies_s: list[float]
    outputs: list
    #: The loop's calibration blocks and its time without them.
    host: HostClock
    extra: dict = field(default_factory=dict)
    #: An exception that escaped the program and ended the loop: one more
    #: op attempted, and failed, after the last output.
    raised: str | None = None

    @property
    def ops(self) -> int:
        return len(self.outputs)


@dataclass
class Reference:
    """Reference outputs of the first ops, plus per-op facts the checks use."""

    outputs: list
    facts: list = field(default_factory=list)


#: The fewest ops a timed loop ends with (unless its inputs run out).
MIN_OPS = 34


def _ended(now: float, deadline: float, done: int, max_ops: int | None) -> bool:
    if max_ops is not None:
        return done >= max_ops
    return now >= deadline and done >= MIN_OPS


# -- grid_serial / grid_mp --------------------------------------------------


def grid_jobs(programs):
    """Each program's provisioning grid, one job after another."""
    for program in programs:
        yield from iter_sweep_jobs(
            program,
            policies=GRID_POLICIES,
            queues=GRID_QUEUES,
            capacities=GRID_CAPACITIES,
        )


class _JobFeed:
    """The lazy job stream, recording issue times.

    The backend pulls jobs from this iterator as it dispatches them; the
    pull time of job ``i`` is when op ``i`` was issued, so a row's
    latency runs from its issue to the consumer receiving it.
    """

    def __init__(self, programs) -> None:
        self.programs = programs
        self.issued_at: list[float] = []

    def __iter__(self):
        clock = time.perf_counter
        for job in grid_jobs(self.programs):
            self.issued_at.append(clock())
            yield job


@dataclass
class GridState:
    seed: int
    programs: list
    feed: _JobFeed
    session: SweepSession


def cli_reducers() -> tuple:
    """The reducer stack of ``repro sweep --stream --quantiles p50,p95,p99``."""
    return (
        CompletedCount(),
        MakespanHistogram(),
        DeadlockRateByConfig(),
        QuantileReducer(parse_quantiles("p50,p95,p99")),
        PerConfigMakespan(),
    )


def reference_row(index: int, job):
    """One job's row on the simplest path: in-process, analysis not shared."""
    try:
        result = Simulator(
            job.program,
            config=job.config,
            policy=job.policy,
            registers=job.registers,
            strict=job.strict,
            reuse_analysis=False,
        ).run(max_events=job.max_events, max_time=job.max_time)
    except ReproError as exc:
        result = BatchError(kind=type(exc).__name__, error=str(exc))
    return summarize_result(index, job, result)


def route_lookahead(program, capacity: int):
    """The lookahead a run at ``capacity`` uses: route hops x capacity."""
    if capacity <= 0:
        return None
    router = default_router(ExplicitLinear(tuple(program.cells)))
    return route_capacities(program, router, capacity)


class GridWorkload:
    """grid_serial (``workers=1``) and grid_mp (``workers=2``)."""

    #: Programs per second of run time: ~2.5x the rows grid_mp streams on
    #: a 2-core host today (54 rows per program).
    PROGRAMS_PER_SECOND = 20

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def setup(self, seed: int, seconds: float) -> GridState:
        count = max(2, math.ceil(seconds * self.PROGRAMS_PER_SECOND))
        programs = [grid_program(seed, k) for k in range(count)]
        feed = _JobFeed(programs)
        plan = SweepPlan(
            jobs=feed,
            reducers=cli_reducers(),
            backend=None,
            workers=self.workers,
            chunk_size=32,
        )
        return GridState(seed, programs, feed, SweepSession(plan))

    def loop(self, state: GridState, host: HostClock, deadline: float, max_ops=None) -> LoopResult:
        clock = time.perf_counter
        issued = state.feed.issued_at
        rows: list = []
        latencies: list[float] = []
        raised = None
        start = clock()
        host.start()
        stream = state.session.stream()
        try:
            for row in stream:
                now = clock()
                latencies.append(now - issued[row.index])
                rows.append(row)
                host.tick()
                if _ended(now, deadline, len(rows), max_ops):
                    break
        except Exception as exc:  # a dead stream ends the loop; the op failed
            raised = type(exc).__name__
        finally:
            # Closing the stream tears a multiprocess backend down (and
            # reaps its workers, which RUSAGE_CHILDREN then counts).
            stream.close()
            host.stop()
        return LoopResult(clock() - start, latencies, rows, host, raised=raised)

    def reference(self, state: GridState, ops: int) -> Reference:
        programs = (grid_program(state.seed, k) for k in itertools.count())
        jobs = list(itertools.islice(grid_jobs(programs), ops))
        verdicts: dict = {}

        def deadlock_free(job):
            # Crossing-off's verdict under the job's lookahead, for the
            # Theorem 1 check of ordered-policy rows.
            if job.policy != "ordered":
                return None
            cap = job.config.queue_capacity
            key = (id(job.program), cap)
            if key not in verdicts:
                lookahead = route_lookahead(job.program, cap)
                verdicts[key] = cross_off(job.program, lookahead=lookahead).deadlock_free
            return verdicts[key]

        return Reference(
            [reference_row(i, job) for i, job in enumerate(jobs)],
            [deadlock_free(job) for job in jobs],
        )

    def judge(self, state: GridState, result: LoopResult, reference: Reference):
        ops = result.ops
        return checks.judge_grid(
            result.outputs, reference.outputs[:ops], reference.facts[:ops]
        )

    def counts(self, outputs) -> dict:
        return checks.grid_counts(outputs)

    def stamp(self, state: GridState) -> dict:
        return _backend_stamp(state.programs)


# -- analysis_cold ----------------------------------------------------------


def cold_op(program) -> checks.ColdOutput:
    """One ``repro check`` + ``repro label`` op on a program never seen.

    The strict verdict, the verdict under the route-derived lookahead
    of one queue capacity, and -- when that verdict is deadlock-free --
    the constraint labeling under the same lookahead.
    """
    strict = cross_off(program)
    lookahead = route_lookahead(program, COLD_CAPACITY)
    relaxed = cross_off(program, lookahead=lookahead)
    labeling = (
        constraint_labeling(program, lookahead=lookahead)
        if relaxed.deadlock_free
        else None
    )
    return checks.ColdOutput(
        strict=(strict.deadlock_free, strict.pairs_crossed, strict.step_count),
        lookahead=(relaxed.deadlock_free, relaxed.pairs_crossed, relaxed.step_count),
        labeling=labeling,
    )


def _guarded(op, *args):
    """Run one op; an exception out of the program is a failed op."""
    try:
        return op(*args)
    except Exception as exc:  # the loop must go on and count the failure
        return exc


@dataclass
class ColdState:
    seed: int
    programs: list


class ColdWorkload:
    workers = 1

    #: Programs per second of run time: ~15% over the ops a 2-core host
    #: finishes today in its fastest periods (a faster loop runs out of
    #: programs and ends early). Building them dominates set-up, so the
    #: headroom is kept small.
    PROGRAMS_PER_SECOND = 28

    def setup(self, seed: int, seconds: float) -> ColdState:
        count = max(MIN_OPS, math.ceil(seconds * self.PROGRAMS_PER_SECOND))
        return ColdState(seed, [cold_program(seed, k) for k in range(count)])

    def loop(self, state: ColdState, host: HostClock, deadline: float, max_ops=None) -> LoopResult:
        clock = time.perf_counter
        outputs: list = []
        latencies: list[float] = []
        programs = state.programs
        start = clock()
        host.start()
        for k, program in enumerate(programs):
            issued = clock()
            out = _guarded(cold_op, program)
            now = clock()
            # A checked program is dropped, as a ``repro check`` process
            # drops it. Kept, each would keep the intern table the op
            # built, and peak memory would grow with the ops a run gets
            # through: a faster program would read as a larger one.
            programs[k] = None
            if isinstance(out, Exception):
                out = checks.ColdOutput(error=type(out).__name__)
            latencies.append(now - issued)
            outputs.append(out)
            host.tick()
            if _ended(now, deadline, len(outputs), max_ops):
                break
        host.stop()
        return LoopResult(clock() - start, latencies, outputs, host)

    def reference(self, state: ColdState, ops: int) -> Reference:
        # The pure-Python interned engine is the reference: it must agree
        # bit for bit with whatever engine the loop resolved to. Its
        # programs are built again, so it never reads an intern table
        # the loop computed; the run's labelings are checked on them too.
        programs = [cold_program(state.seed, k) for k in range(ops)]
        configure_crossing_backend("interned")
        try:
            outputs = []
            for program in programs:
                out = _guarded(cold_op, program)
                if isinstance(out, Exception):
                    out = checks.ColdOutput(error=type(out).__name__)
                outputs.append(out)
        finally:
            configure_crossing_backend(None)
        return Reference(outputs, programs)

    def judge(self, state: ColdState, result: LoopResult, reference: Reference):
        ops = result.ops
        return checks.judge_cold(
            result.outputs, reference.outputs[:ops], reference.facts[:ops]
        )

    def counts(self, outputs) -> dict:
        return checks.cold_counts(outputs)

    def stamp(self, state: ColdState) -> dict:
        return _backend_stamp(state.programs)


# -- frontier_witness -------------------------------------------------------


@dataclass
class FrontierState:
    seed: int
    inputs: list
    store: WitnessStore
    planners: list


def frontier_inputs(seed: int, queries: int) -> list:
    """The programs the first ``queries`` queries ask about."""
    return [frontier_input(seed, k) for k in range((queries + 1) // 2)]


def frontier_specs(inputs, store):
    """Two queries per program, narrow then wide queue axis, in order."""
    return [
        PlanSpec(
            item.program,
            policies=("static",),
            queues=axis,
            capacities=FRONTIER_CAPACITIES,
            witness_store=store,
        )
        for item in inputs
        for axis in (item.narrow, item.wide)
    ]


def _run_queries(planners, host: HostClock, deadline: float, max_ops=None) -> LoopResult:
    clock = time.perf_counter
    reports: list = []
    latencies: list[float] = []
    start = clock()
    host.start()
    for planner in planners:
        issued = clock()
        reports.append(_guarded(planner.run))
        now = clock()
        latencies.append(now - issued)
        host.tick()
        if _ended(now, deadline, len(reports), max_ops):
            break
    host.stop()
    wall = clock() - start
    # Reduced to comparable values after the clock stops.
    outputs = [
        checks.FrontierOutput(error=type(report).__name__)
        if isinstance(report, Exception)
        else checks.FrontierOutput.from_report(report)
        for report in reports
    ]
    return LoopResult(wall, latencies, outputs, host)


class FrontierWorkload:
    workers = 1

    #: Programs per second of run time (two queries each): ~1.5x what a
    #: 2-core host gets through today in its fastest periods.
    PROGRAMS_PER_SECOND = 80

    def setup(self, seed: int, seconds: float) -> FrontierState:
        count = max(MIN_OPS // 2, math.ceil(seconds * self.PROGRAMS_PER_SECOND))
        inputs = [frontier_input(seed, k) for k in range(count)]
        store = WitnessStore()
        planners = [FrontierPlanner(spec) for spec in frontier_specs(inputs, store)]
        return FrontierState(seed, inputs, store, planners)

    def loop(self, state: FrontierState, host: HostClock, deadline: float, max_ops=None) -> LoopResult:
        result = _run_queries(state.planners, host, deadline, max_ops)
        result.extra["store_size"] = len(state.store)
        return result

    def reference(self, state: FrontierState, ops: int) -> Reference:
        # Two references, each on programs built again from the seed.
        # Frontiers and probe rows are matched against the exhaustive
        # grid, simulated row by row without planner, store or shared
        # analysis. The planner's own counts (jobs, seeded lines, mined
        # certificates) are matched against the same queries re-run in
        # order on a fresh store, with the analysis cache reduced to a
        # pass-through (every lookup builds a fresh entry).
        expected = []
        for item in frontier_inputs(state.seed, ops):
            rows = exhaustive_rows(item)
            expected += [expected_lines(rows, item.narrow), expected_lines(rows, item.wide)]
        specs = frontier_specs(frontier_inputs(state.seed, ops), WitnessStore())[:ops]
        saved = GLOBAL_ANALYSIS_CACHE.maxsize
        GLOBAL_ANALYSIS_CACHE.clear()
        GLOBAL_ANALYSIS_CACHE.maxsize = 0
        try:
            planners = [FrontierPlanner(spec) for spec in specs]
            result = _run_queries(planners, HostClock(calibrate=False), math.inf)
        finally:
            GLOBAL_ANALYSIS_CACHE.maxsize = saved
        return Reference(result.outputs, expected)

    def judge(self, state: FrontierState, result: LoopResult, reference: Reference):
        ops = result.ops
        return checks.judge_frontier(
            result.outputs, reference.outputs[:ops], reference.facts[:ops]
        )

    def counts(self, outputs) -> dict:
        return checks.frontier_counts(outputs)

    def stamp(self, state: FrontierState) -> dict:
        return _backend_stamp([item.program for item in state.inputs])


def exhaustive_rows(item) -> dict:
    """Every static row of ``item``'s wide queue axis, on the reference path.

    Maps each queue count to its rows in FRONTIER_CAPACITIES order. The
    narrow axis is a prefix of the wide one, so these rows answer both
    of the program's queries.
    """
    return {
        queues: [
            reference_row(
                0,
                SimJob(
                    item.program,
                    config=ArrayConfig(queues_per_link=queues, queue_capacity=cap),
                    policy="static",
                ),
            )
            for cap in FRONTIER_CAPACITIES
        ]
        for queues in item.wide
    }


def expected_lines(rows_by_queues: dict, axis) -> tuple:
    """A query's answer per line: ``(queues, frontier, row digests)``.

    The frontier is the smallest capacity whose row completed (``None``
    if none did); the digests are those of each capacity's row carrying
    its exhaustive-grid index, which is what a planner row must equal.
    """
    width = len(FRONTIER_CAPACITIES)
    lines = []
    for line, queues in enumerate(axis):
        rows = rows_by_queues[queues]
        frontier = next(
            (cap for cap, row in zip(FRONTIER_CAPACITIES, rows) if row.outcome == "completed"),
            None,
        )
        digests = tuple(
            checks.row_digest(dataclasses.replace(row, index=line * width + k))
            for k, row in enumerate(rows)
        )
        lines.append((queues, frontier, digests))
    return tuple(lines)


def _backend_stamp(programs) -> dict:
    """The crossing backends the programs resolve to, with their sizes."""
    by_backend: dict = {}
    for program in programs:
        by_backend.setdefault(resolve_backend(program), []).append(len(program.cells))
    return {
        backend: f"{len(sizes)} programs, {min(sizes)}-{max(sizes)} cells"
        for backend, sizes in sorted(by_backend.items())
    }


def make_workload(name: str, cpu_count: int):
    """The workload called ``name``; grid_mp never uses more workers than cores."""
    if name == "grid_serial":
        return GridWorkload(workers=1)
    if name == "grid_mp":
        return GridWorkload(workers=max(1, min(2, cpu_count)))
    if name == "analysis_cold":
        return ColdWorkload()
    if name == "frontier_witness":
        return FrontierWorkload()
    raise ValueError(f"unknown workload {name!r}")


def percentile(values, fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` (inclusive method); 0 if empty."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]
