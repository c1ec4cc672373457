"""repro — a reproduction of H.T. Kung, "Deadlock Avoidance for Systolic
Communication" (Journal of Complexity 4, 1988).

The package implements the paper's full pipeline:

1. declare messages and per-cell ``W``/``R`` programs
   (:mod:`repro.core.program`);
2. classify the program with the crossing-off procedure, optionally with
   buffered-queue lookahead (:mod:`repro.core.crossing`);
3. produce a consistent message labeling (:mod:`repro.core.labeling`);
4. execute on a simulated programmable systolic array under a compatible
   queue-assignment policy (:mod:`repro.sim`), with Theorem 1's guarantee
   checked end to end (:mod:`repro.core.theorem`).

Quickstart::

    from repro import fig2_fir, fig2_registers, simulate, cross_off

    program = fig2_fir()
    assert cross_off(program).deadlock_free
    result = simulate(program, registers=fig2_registers())
    result.assert_completed()

Performance
-----------

The simulator hot path is a zero-allocation event engine: same-time
events ride a FIFO fast lane, near-future delays ride a timing wheel
sized per program to its longest delay (8 to 256 cycles), and the heap
only sees far-future overflow; agents, flows and queues are slotted, a
word is its bare value (no wrapper object) and a queue request its
``(flow, hop)`` pair, and waiters are reusable bound methods. In the
common case one event is one Python call: an agent's step pushes or pops
its word, wakes the queue's waiters and appends its next step to the
engine's FIFO or wheel inline (:mod:`repro.sim.agents`). Over the 263
distinct runs of a 20-program provisioning grid (16 cells, 32 messages,
capacities 0, 2 and 8) on a 2-vCPU host, that cut engine time per event
by 18-19% (2,333 to 1,907 ns in one round) and build time per run by
14-15%, against a call per queue, wake-up and scheduling step. The
inline queue steps serve buffered queues only: on the 170 buffered runs
~99% of pushes and pops take them and engine time fell 22-23%; at
capacity 0 (``ArrayConfig()``'s default, 93 runs) the queue's own
methods hand every word over and it fell 12-13%. The compile-time half
is an incremental crossing-off engine (:mod:`repro.core.crossing`) with
one drive loop per stepping mode: each crossing rescans only the cells
it touched, and an end located under the Section 8.1 rules stays located
until it crosses. On a 2-vCPU host it classifies fir16x32 (capacity 2)
3.5x (parallel) to 13x (sequential) faster than the literal op-by-op
procedure, and a 1,000-cell program ~480x faster (sequential). The knobs
that matter at scale:

* **Analysis caching** — ``Simulator(..., reuse_analysis=True)`` (the
  default) shares routing, competing-message sets, lookahead capacities
  and the constraint labeling through a process-global content-keyed
  cache (:mod:`repro.perf`), together with a frozen, structure-only
  build plan (:class:`repro.sim.runtime.BuildPlan`: the sorted link
  table, routes, agent names and op-to-flow indices), so a simulator
  builds only per-job state. The key starts from
  ``ArrayProgram.fingerprint``, which covers message declaration order,
  so programs that share an entry perform the same runs. Repeated
  simulations of the same program (sweeps, policy ablations, Theorem-1
  ensembles) skip static analysis entirely, and a program's
  default-array entry also answers a sweep's per-program shape and the
  frontier planner's c*. Use ``repro.perf.clear_analysis_cache()`` to
  reset, and ``reuse_analysis=False`` for stateful custom routers: the
  simulator then computes the same analyses in a private entry.
* **Repeated runs** — a sweep simulates each distinct run of a program
  once. Queues past a link's competing count and capacity past the
  longest message change no run, and an FCFS job with a queue per
  competing message performs the static run, so
  :func:`repro.sweep.jobs.canonical_key` gives such jobs one key and
  the runner's row memo serves the repeats re-stamped.
* **Sweep execution** — ensemble sweeps run through the
  :mod:`repro.sweep` package: a :class:`repro.sweep.SweepSession`
  runs a :class:`repro.sweep.SweepPlan` (jobs + reducers + knobs)
  through one runner, in process for one worker or on a one-CPU host
  and otherwise on supervised worker processes that send each chunk's
  :class:`repro.sweep.RunSummary` rows back over their own pipe and
  recover from worker crashes and hangs; the rows are the same either
  way. :meth:`repro.sweep.SweepSession.stream` yields one O(1) summary
  row per job, lazily and in job order; a job's full result is
  :meth:`repro.SimJob.run`. ``repro sweep`` exposes the whole
  subsystem on the command line (``--workers``, ``--stream``).
* **Streaming reducers with a merge contract** — completed counts,
  makespan histograms, deadlock rate by config, per-config makespan
  stats and t-digest makespan quantiles
  (:class:`repro.sweep.QuantileReducer`; ``repro sweep --quantiles
  p50,p95,p99``) fold rows in job order with O(1) state, and every
  reducer ``merge()``s with a same-typed partner so sharded sweeps
  combine their aggregates exactly.
"""

from repro.arch import (
    ArrayConfig,
    CommModel,
    LinearArray,
    Link,
    Mesh2D,
    RingArray,
    Torus2D,
    default_router,
)
from repro.core import (
    COMPUTE,
    ArrayProgram,
    CrossingResult,
    Labeling,
    LookaheadConfig,
    Message,
    Op,
    OpKind,
    R,
    W,
    check_consistency,
    competing_messages,
    constraint_labeling,
    cross_off,
    is_consistent,
    is_deadlock_free,
    label_messages,
    related_groups,
    trivial_labeling,
    uniform_lookahead,
    verify_theorem1,
)
from repro.algorithms.figures import (
    all_figures,
    fig2_expected_outputs,
    fig2_fir,
    fig2_registers,
    fig5_p1,
    fig5_p2,
    fig5_p3,
    fig6_cycle,
    fig7_program,
    fig8_program,
    fig9_program,
)
from repro.perf import analysis_cache_stats, clear_analysis_cache
from repro.sim import SimulationResult, Simulator, compare_models, simulate
from repro.sweep import SimJob, SweepPlan, SweepSession

__version__ = "1.0.0"

__all__ = [
    "ArrayConfig",
    "ArrayProgram",
    "COMPUTE",
    "CommModel",
    "CrossingResult",
    "Labeling",
    "LinearArray",
    "Link",
    "LookaheadConfig",
    "Mesh2D",
    "Message",
    "Op",
    "OpKind",
    "R",
    "RingArray",
    "SimJob",
    "SimulationResult",
    "Simulator",
    "SweepPlan",
    "SweepSession",
    "Torus2D",
    "W",
    "all_figures",
    "analysis_cache_stats",
    "check_consistency",
    "clear_analysis_cache",
    "compare_models",
    "competing_messages",
    "constraint_labeling",
    "cross_off",
    "default_router",
    "fig2_expected_outputs",
    "fig2_fir",
    "fig2_registers",
    "fig5_p1",
    "fig5_p2",
    "fig5_p3",
    "fig6_cycle",
    "fig7_program",
    "fig8_program",
    "fig9_program",
    "is_consistent",
    "is_deadlock_free",
    "label_messages",
    "related_groups",
    "simulate",
    "trivial_labeling",
    "uniform_lookahead",
    "verify_theorem1",
]
