"""The simulator: assembles agents, queues and policy, runs to completion
or deadlock.

This is the run-time half of the paper: a deadlock-free program plus a
consistent labeling plus a compatible queue assignment runs to completion
(Theorem 1); drop any premise and the simulator shows you the deadlock.

Static analyses (routing, competing-message sets, lookahead capacities,
labeling) come from one :class:`~repro.perf.analysis_cache.AnalysisEntry`,
shared across simulators through the content-keyed cache in
:mod:`repro.perf` — repeated simulations of the same program pay for them
once, and forked pool workers start with the parent's copies. Custom
router/topology subclasses are excluded from sharing unless they expose
an ``analysis_fingerprint`` token (see :mod:`repro.perf.analysis_cache`),
and ``reuse_analysis=False`` shares nothing; such a simulator reads a
private entry the same way. A simulator on the default array (no
topology or router given) also shares that array: the cache keeps one
linear topology and router per cell tuple, with their fingerprints.

A simulator builds from its entry's frozen :class:`BuildPlan`: the
sorted link table with each link's competing messages, every message's
route, each cell's agent name and op-to-flow indices, and each
forwarder's flow, hop and name. The plan follows from program structure
alone, so a build creates only per-job state — link states and policy
data, flows, agents and the engine. The plan holds no op, message or
value: programs that differ only in compute callables or write
constants share it, and each job's own program supplies those. They
also declare their messages in one order (the program fingerprint
covers it), so the plan's flows always follow the job's own.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

from repro.arch.config import ArrayConfig, CommModel
from repro.arch.links import Link, Route
from repro.arch.routing import Router, default_router
from repro.arch.topology import ExplicitLinear, Topology
from repro.core.labeling import Labeling
from repro.core.ops import OpKind
from repro.core.program import ArrayProgram
from repro.errors import SimulationError
from repro.perf.analysis_cache import GLOBAL_ANALYSIS_CACHE, AnalysisEntry
from repro.sim.agents import CellAgent, ForwarderAgent, MessageFlow, _Agent
from repro.sim.deadlock import diagnose
from repro.sim.engine import WHEEL_HORIZON, Engine, StopReason
from repro.sim.queue_manager import QueueManager, make_policy
from repro.sim.result import SimulationResult


class BuildPlan(NamedTuple):
    """The structure-only half of a :class:`Simulator` build.

    Everything here follows from the program's structure, topology and
    router, so one plan serves every run of a program; a simulator adds
    only its per-job state (link states and policy data, flows, agents,
    the engine). The fields are:

    * ``messages`` — message names in declaration order, and ``routes``
      their routes in that order (a build's flow list is indexed alike);
    * ``links`` — every link a route crosses, sorted, with the names of
      its competing messages;
    * ``cells`` — per cell in program order: the cell, its agent's name
      and, per op, the index of the op's flow (``None`` for a compute);
    * ``forwarders`` — per forwarder, by message then hop: its flow
      index, hop and agent name.

    A plan holds names, links and indices, never an :class:`~repro.core.
    ops.Op`, a :class:`~repro.core.message.Message` or a value: programs
    with equal fingerprints share a plan although their compute
    callables and write constants differ, so those come from each job's
    own program.
    """

    messages: tuple[str, ...]
    routes: tuple[Route, ...]
    links: tuple[tuple[Link, tuple[str, ...]], ...]
    cells: tuple[tuple[str, str, tuple[int | None, ...]], ...]
    forwarders: tuple[tuple[int, int, str], ...]


#: ``Link``'s dataclass order, (src, dst), as a sort key: sorting by key
#: compares in C instead of calling the generated ``__lt__`` per pair.
_LINK_ORDER = attrgetter("src", "dst")


def build_plan(
    program: ArrayProgram,
    routes: Mapping[str, Route],
    competing: Mapping[Link, Sequence[str]],
) -> BuildPlan:
    """The :class:`BuildPlan` of ``program`` under these routes.

    Raises :class:`~repro.errors.SimulationError` if a message has an
    empty route (a flow needs at least one queue). Agent names are
    interned, so the plans of one program's entries (one per capacity)
    share them.
    """
    names = tuple(program.messages)
    index = {name: i for i, name in enumerate(names)}
    used: set[Link] = set()
    for name in names:
        route = routes[name]
        if not route:
            raise SimulationError(f"message {name} has an empty route")
        used.update(route)
    return BuildPlan(
        messages=names,
        routes=tuple(routes[name] for name in names),
        links=tuple(
            (link, tuple(competing.get(link, ())))
            for link in sorted(used, key=_LINK_ORDER)
        ),
        cells=tuple(
            (
                cell,
                sys.intern(f"cell:{cell}"),
                tuple(
                    None if op.kind is OpKind.COMPUTE else index[op.message]
                    for op in program.cell_programs[cell].ops
                ),
            )
            for cell in program.cells
        ),
        forwarders=tuple(
            (i, hop, sys.intern(f"fwd:{name}:{hop}"))
            for i, name in enumerate(names)
            for hop in range(len(routes[name]) - 1)
        ),
    )


def wheel_horizon_for(program: ArrayProgram, config: ArrayConfig) -> int:
    """Timing-wheel horizon covering every delay this run can schedule.

    The agents schedule four delay shapes: compute ops (``op.cycles or
    1``), writes (``op_latency + op.cycles`` plus the memory-to-memory
    staging overhead), reads (the same plus a possible queue-extension
    penalty), and forwarder hops (``hop_latency`` plus the penalty).
    Sizing the wheel to their maximum keeps long compute kernels
    (``cycles`` > 8) on the O(1) wheel instead of the overflow heap; the
    engine clamps oversized horizons, where the rare long delay just
    takes the heap. The program's max op latency comes precomputed from
    its intern table, so this is O(1) per simulator build.
    """
    penalty = config.extension_penalty if config.allow_extension else 0
    overhead = (
        2 * config.memory_access_cycles
        if config.comm_model is CommModel.MEMORY_TO_MEMORY
        else 0
    )
    max_op = program.intern.max_op_cycles
    longest = max(
        config.op_latency + max_op + penalty + overhead,
        config.hop_latency + penalty,
    )
    return max(WHEEL_HORIZON, longest)


class Simulator:
    """One run of one program on one array configuration.

    Args:
        program: the (validated) array program.
        config: hardware parameters; defaults to one unbuffered queue per
            link — the Sections 3-7 setting.
        topology: interconnection; defaults to a linear array whose order
            is the program's cell list.
        router: route computation; defaults to the topology's natural
            minimal router.
        policy: the queue-assignment policy's name — ``"ordered"`` (the
            paper's compatible scheme), ``"static"`` or ``"fcfs"`` (naive
            baseline); anything else raises
            :class:`~repro.errors.ConfigError`.
        labeling: labels for the ordered policy. ``None`` auto-computes
            with the Section 6 scheme (using lookahead bounds derived from
            the config when queues have buffering).
        registers: initial register file per cell (e.g. preloaded FIR
            weights).
        strict: enforce Theorem 1 assumption (ii) at setup for the
            ordered policy.
        reuse_analysis: share static analyses (routes, competing sets,
            capacities, labeling) and the :class:`BuildPlan` through the
            process-global content-keyed cache; ``False`` computes them
            in a private entry. Identical results either way; repeated
            simulations of the same program skip re-analysis and
            re-planning.

    A build takes its :class:`BuildPlan` from the analysis entry and
    creates only what a run mutates: the link states with their policy
    data, one flow per message, the cell and forwarder agents, and the
    engine. Ops, messages and register values always come from this
    simulator's own program; the ordered policy's label groups come
    from the entry. When some link may have fewer queues than competing
    messages, the policy's ``check_links`` first reads the plan's link
    table, so an infeasible static or strict ordered set-up raises its
    :class:`~repro.errors.ConfigError` before any of that is built.

    A simulator's life is build → :meth:`execute` → :meth:`result` →
    :meth:`close`; :meth:`run` is the first two in one call. After
    :meth:`execute` the outcome flags (``completed``, ``deadlocked``,
    ``timed_out``) and the ``time``, ``events`` and
    ``words_transferred`` counters can be read directly, which is all a
    sweep row needs; :meth:`result` diagnoses a deadlock and builds the
    full :class:`SimulationResult`. :meth:`close` breaks the run's
    reference cycles (agents and flows point back at the simulator,
    queues at their waiting agents) so reference counting frees the run
    as soon as its owner drops it, without the cyclic garbage collector.

    Simulators are single-shot: a second :meth:`execute` or :meth:`run`,
    or a :meth:`result` after :meth:`close`, raises
    :class:`~repro.errors.SimulationError`.
    """

    def __init__(
        self,
        program: ArrayProgram,
        config: ArrayConfig | None = None,
        topology: Topology | None = None,
        router: Router | None = None,
        policy: str = "ordered",
        labeling: Labeling | None = None,
        registers: dict[str, dict[str, float | None]] | None = None,
        strict: bool = True,
        reuse_analysis: bool = True,
    ) -> None:
        self.program = program
        self.config = config = config or ArrayConfig()
        if topology is None and router is None and reuse_analysis:
            # The default array: one shared topology and router per cell
            # tuple, whose fingerprints the cache already holds.
            array = GLOBAL_ANALYSIS_CACHE.default_array(program.cells)
            topology, router = array.topology, array.router
        self.topology = topology or ExplicitLinear(tuple(program.cells))
        self.router = router or default_router(self.topology)
        analysis = (
            GLOBAL_ANALYSIS_CACHE.lookup(program, self.topology, self.router, config)
            if reuse_analysis
            else None
        )
        if analysis is None:
            analysis = AnalysisEntry(
                program, self.router, config.queue_capacity, config.allow_extension
            )
        self._analysis = analysis
        self.policy = make_policy(policy, strict=strict)
        if labeling is None and policy == "ordered":
            # The constraint-based labeling always exists and matches the
            # Section 6 scheme on every example the paper works; see
            # repro.core.labeling for why the literal scheme is not used.
            labeling = analysis.labeling
        self.labeling = labeling
        groups_table = (
            analysis.ordered_groups(labeling) if policy == "ordered" else None
        )
        if (
            config.link_queue_overrides
            or config.queues_per_link < analysis.shape.widest
        ):
            # A link may lack a queue per competing message: raise an
            # infeasible static or ordered set-up before building anything.
            self.policy.check_links(analysis.plan.links, config, groups_table)

        self.engine = Engine(horizon=wheel_horizon_for(program, self.config))
        self.manager = QueueManager(self.policy, self.engine)
        self.flows: dict[str, MessageFlow] = {}
        self.cell_agents: dict[str, CellAgent] = {}
        self.forwarders: dict[tuple[str, int], ForwarderAgent] = {}
        self.received: dict[str, list[float | None]] = defaultdict(list)
        self.completed = False
        self.deadlocked = False
        self.timed_out = False
        self._unfinished = 0
        self._started = False
        self._stop: StopReason | None = None
        self._closed = False
        self._build(registers or {}, groups_table)

    def _build(
        self,
        registers: dict[str, dict[str, float | None]],
        groups_table: dict | None,
    ) -> None:
        plan = self._analysis.plan
        # Links first: set-up re-checks each static or strict ordered
        # link (the backstop behind check_links' skip), before any flow or
        # agent is built.
        manager, config = self.manager, self.config
        for link, competing in plan.links:
            manager.add_link(
                link,
                config,
                competing,
                groups_table[link] if groups_table is not None else None,
            )
        flows = [
            MessageFlow(self, msg, route)
            for msg, route in zip(self.program.messages.values(), plan.routes)
        ]
        self.flows.update(zip(plan.messages, flows))
        cell_programs = self.program.cell_programs
        for cell, name, flow_ids in plan.cells:
            self.cell_agents[cell] = CellAgent(
                self,
                cell,
                name,
                cell_programs[cell].ops,
                flow_ids,
                flows,
                registers.get(cell),
            )
        messages = plan.messages
        for i, hop, name in plan.forwarders:
            self.forwarders[(messages[i], hop)] = ForwarderAgent(
                self, flows[i], hop, name
            )

    # ------------------------------------------------------------------
    # Agent callbacks
    # ------------------------------------------------------------------

    def all_agents(self) -> list[_Agent]:
        """Every agent, cells first then forwarders."""
        return list(self.cell_agents.values()) + list(self.forwarders.values())

    def agent_finished(self, agent: _Agent) -> None:
        """An agent completed all its work."""
        self._unfinished -= 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def time(self) -> int:
        """Simulated time: the completion (or stall) time once stopped."""
        return self.engine.now

    @property
    def events(self) -> int:
        """Events processed so far."""
        return self.engine.events_processed

    @property
    def words_transferred(self) -> int:
        """Words delivered to their receivers so far."""
        return sum(flow.words_delivered for flow in self.flows.values())

    def execute(
        self,
        max_events: int | None = 5_000_000,
        max_time: int | None = None,
    ) -> StopReason:
        """Run until completion, deadlock, or a safety limit.

        Hands ``self.engine`` to the queue manager and to every agent
        first: agents schedule themselves on their engine's lanes
        directly, so an engine swapped in after the build (a heap-only
        one, say) is the one the whole run goes through. Sets
        ``completed``, ``deadlocked`` and ``timed_out``; returns why the
        engine stopped.
        """
        if self._started or self._closed:
            raise SimulationError(
                "simulators are single-shot: this one has already run "
                "(or was closed); build a new Simulator"
            )
        self._started = True
        engine = self.engine
        self.manager.engine = engine
        agents = self.all_agents()
        self._unfinished = len(agents)
        for agent in agents:
            agent.engine = engine
            agent.start()
        reason = engine.run(max_events=max_events, max_time=max_time)
        self.completed = self._unfinished == 0
        self.deadlocked = not self.completed and reason is StopReason.QUIESCENT
        self.timed_out = not self.completed and not self.deadlocked
        self._stop = reason
        return reason

    def result(self) -> SimulationResult:
        """Diagnose the stopped run and build its :class:`SimulationResult`."""
        if self._closed:
            raise SimulationError(
                "simulator is closed: take its result() before close()"
            )
        if self._stop is None:
            raise SimulationError(
                "simulator has not run to a stop: call execute() first"
            )
        agents = self.all_agents()
        blocked: list[str] = []
        cycle: list[str] | None = None
        if self.deadlocked:
            blocked, cycle = diagnose(self)
        queue_stats = {}
        for state in self.manager.links.values():
            queue_stats.update(state.queue_stats())
        return SimulationResult(
            completed=self.completed,
            deadlocked=self.deadlocked,
            timed_out=self.timed_out,
            time=self.time,
            events=self.events,
            blocked=blocked,
            wait_cycle=cycle,
            registers={
                cell: dict(agent.registers)
                for cell, agent in self.cell_agents.items()
            },
            received={name: list(vals) for name, vals in self.received.items()},
            queue_stats=queue_stats,
            assignment_trace=self.manager.trace,
            memory_accesses={
                cell: agent.memory_accesses
                for cell, agent in self.cell_agents.items()
            },
            busy_cycles={a.name: a.busy_cycles for a in agents},
            words_transferred=self.words_transferred,
        )

    def run(
        self,
        max_events: int | None = 5_000_000,
        max_time: int | None = None,
    ) -> SimulationResult:
        """Execute until completion, deadlock, or a safety limit, and
        return the result: :meth:`execute` then :meth:`result`."""
        self.execute(max_events=max_events, max_time=max_time)
        return self.result()

    def close(self) -> None:
        """Break the run's reference cycles; the simulator is spent.

        Drops every agent's and flow's back-link to the simulator and
        cached bound-method callbacks, queue waiters and parked words,
        pending policy requests and the engine's pending events. Safe to
        call more than once, and on a simulator that never ran.
        """
        if self._closed:
            return
        self._closed = True
        for agent in self.all_agents():
            agent.close()
        for flow in self.flows.values():
            flow.close()
        self.manager.close()
        self.engine.clear()


def simulate(
    program: ArrayProgram,
    config: ArrayConfig | None = None,
    policy: str = "ordered",
    **kwargs,
) -> SimulationResult:
    """Build a :class:`Simulator` and run it — the one-call entry point.

    ``policy`` names the queue-assignment policy, as for
    :class:`Simulator`."""
    sim = Simulator(program, config=config, policy=policy, **kwargs)
    try:
        return sim.run()
    finally:
        sim.close()
