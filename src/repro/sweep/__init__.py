"""Sweep execution: ensemble simulation at provisioning scale.

The paper's provisioning question — how many queues and how much
buffering does a link need before a program class deadlocks (Sections
2.3 and 8) — is answered here by *sweeps*: thousands to millions of
(program, config, policy) simulations whose outcomes aggregate into
deadlock rates, makespan distributions and tail quantiles. This package
is the execution subsystem for those sweeps, split along three axes:

* **what to run** — :class:`~repro.sweep.jobs.SimJob` (one simulation),
  :func:`~repro.sweep.grid.sweep_jobs` /
  :func:`~repro.sweep.grid.iter_sweep_jobs` (the canonical
  policy x queues x capacity grid with aligned labels);
* **how to run it** — a :class:`~repro.sweep.plan.SweepSession` runs a
  :class:`~repro.sweep.plan.SweepPlan`'s jobs through the one runner,
  :func:`~repro.sweep.backends.execute`: in process for one worker or
  on a one-CPU host, else on supervised worker processes. Which way
  never changes a row: the sweep contract in
  :mod:`repro.sweep.backends` (job order, byte-identical rows, where
  deadlocks are mined, the row memo, what becomes an error row and
  what propagates) holds both ways;
* **what to keep** — flat :class:`~repro.sweep.summary.RunSummary` rows
  (one per job, constant size) and streaming reducers
  (:mod:`repro.sweep.reducers`) with an exact ``merge`` contract. Rows
  are all a sweep returns; a job's full result is
  :meth:`~repro.sweep.jobs.SimJob.run`.

Workers are forked, so they start with the parent's in-memory analysis
cache and any crossing-engine pin; the fault plan travels on the
:class:`~repro.sweep.fault.Tolerance`. Chunks of jobs go to them one
pipe per worker and one message per chunk, pulled lazily (a generator
of jobs is never materialized), and rows and mined certificates come
back the same way.

Reducers and quantiles
----------------------

Reducers (:class:`~repro.sweep.reducers.StreamReducer`) fold rows into
O(1)-state aggregates in the parent, in job order — outcome counts,
makespan histograms, deadlock rate by config, per-config makespan
statistics, and t-digest makespan quantiles
(:class:`~repro.sweep.reducers.QuantileReducer`, the ``repro sweep
--quantiles p50,p95,p99`` answer to "what tail latency does this
provisioning buy"). Every reducer supports ``merge(other)`` so shards
of a sweep reduced independently — other processes, other machines —
combine exactly (within digest rank error for quantiles).

Fault tolerance and checkpointing
---------------------------------

A sweep that runs for hours meets real failures: workers die (OOM
kills), corners hang, the whole process gets SIGKILLed. Worker
processes always run under the supervisor
(:mod:`repro.sweep.backends.supervise`), which owns their lifecycles
directly — one duplex pipe per worker, so a dead worker is an EOF, not
a deadlock — and blames a death on the job its worker was running.
``max_retries`` (default 2) and ``job_timeout_s`` (default none) on a
:class:`~repro.sweep.plan.SweepPlan` (CLI: ``--max-retries``,
``--job-timeout``) tune that recovery:

* a **crashed worker** (abrupt exit, broken pipe) is replaced; the job
  it was running is retried with bounded retries and exponential
  backoff, and the rest of its chunk is requeued without penalty; a job
  that keeps killing workers is quarantined as a
  :class:`~repro.sweep.jobs.BatchError` row of kind
  :data:`~repro.sweep.jobs.WORKER_CRASH_KIND` instead of aborting the
  sweep;
* a **hung job** is killed at ``job_timeout_s`` and retried; a
  persistent hang becomes a ``timeout``-outcome row — a hung corner is
  data, same as a deadlock;
* faults are *injectable* deterministically
  (:class:`~repro.sweep.fault.FaultPlan`) so the recovery machinery is
  differential-tested byte-identical against fault-free runs.

``checkpoint`` (CLI: ``--checkpoint PATH``, with ``--checkpoint-every``
and ``--resume``) adds crash recovery for the *parent*: periodic atomic
snapshots of reducer state plus a completed-job bitmap, keyed by the
sweep's grid fingerprint (:mod:`repro.sweep.checkpoint`). A resumed
sweep skips finished jobs and reports reducer summaries byte-identical
to a never-interrupted run; a corrupt checkpoint reads as absent (clean
restart), a checkpoint from a *different* sweep refuses to resume. A
final snapshot that cannot be *written* is surfaced, not swallowed: the
session records it (``SweepSession.checkpoint_error``), warns, and
raises :class:`~repro.errors.CheckpointError` — a stale checkpoint
resumed later would silently redo work.

Witness pruning
---------------

Deadlock-dense grids mostly re-prove deadlocks they have already
proven. Giving a :class:`~repro.sweep.plan.SweepPlan` a
``witness_store`` (:class:`~repro.witness.WitnessStore`; CLI: ``repro
sweep --witness-store PATH``) lets the session answer such jobs from
*certificates* mined on earlier runs (:mod:`repro.witness`): a job a
stored :class:`~repro.witness.DeadlockWitness` covers emits its
deadlock row via :func:`~repro.sweep.jobs.witness_row` without
simulating, byte-identical to the simulated row — the certificate's
capacity band is exactly the set of capacities whose run replays the
witnessed trace. Pruning is restricted to
:data:`~repro.sweep.planner.MONOTONE_POLICIES` (static); FCFS — where
extra buffering can change the outcome, a pinned counterexample — is
exempt by construction: no certificate ever prunes an FCFS row. Mining
runs where the job ran, in process or *inside the workers* (the
``witness`` field of the sweep contract), so cold multiprocess sweeps
grow the store too. Skips and newly mined certificates are
counted on the session (``witness_pruned`` / ``witness_mined``; both
surface in ``repro sweep --json``) and compose with
``--checkpoint``/``--resume``. A frontier query without
``exhaustive`` gives the store no work: its crossing-off frontier rows
complete, and FCFS and ordered rows are never pruned or mined.

Repeated runs
-------------

Many jobs of a provisioning grid are the same run under a different
config: queues beyond a link's competing-message count are never taken,
and a capacity of at least the longest message never blocks a push.
With a queue per competing message FCFS grants every request at once,
as the static policy does, so its run is the static run.
:func:`~repro.sweep.jobs.canonical_key` clamps both and folds that
FCFS case into the static key, and the shared runner keeps a small
per-program memo of rows by key
(:class:`~repro.sweep.backends.RowMemo`), so each distinct run is
simulated once per memo and its repeats are served re-stamped with
their own index, policy, queues and capacity. Error rows and (while
mining) deadlocked rows are never served. Hits are counted on the
session (``memo_hits``) and printed by ``repro sweep --stream``.

The frontier planner
--------------------

Most provisioning sweeps exist to answer one question: the *minimal*
buffering at which each (policy, queues) line completes. The planner
(:mod:`repro.sweep.planner`) answers it without exhausting the capacity
axis. A :class:`~repro.sweep.planner.PlanSpec` names the program, the
grid axes and the execution knobs;
:class:`~repro.sweep.planner.FrontierPlanner` decides each static line
at compile time — crossing-off under the simulator's buffering gives
the least capacity c* at which the program completes
(:func:`~repro.core.crossing.least_capacity`) — and simulates only its
frontier point, raising if that run does not complete. An FCFS line
with a queue per competing message performs the static run, so it is
decided the same way. FCFS lines with fewer queues (where extra
buffering can *introduce* deadlock — a pinned counterexample) and
ordered lines are evaluated in full. A query is one
:class:`~repro.sweep.plan.SweepPlan` whose
:class:`~repro.sweep.summary.RunSummary` rows carry their
exhaustive-grid indices, so reducers compose unchanged and a planner
row is byte-identical to the grid's row at the same coordinates. CLI:
``repro frontier`` (``--exhaustive`` forces the full evaluation
baseline).
"""

from repro.sweep.backends import available_backends
from repro.sweep.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.sweep.fault import FaultPlan, Tolerance
from repro.sweep.grid import (
    iter_sweep_jobs,
    iter_sweep_labels,
    sweep_jobs,
    sweep_label,
    sweep_labels,
)
from repro.sweep.jobs import (
    WORKER_CRASH_KIND,
    BatchError,
    SimJob,
    job_fingerprint,
    witness_row,
)
from repro.sweep.plan import SweepPlan, SweepSession
from repro.sweep.planner import (
    MONOTONE_POLICIES,
    FrontierPlanner,
    PlanSpec,
    exhaustive_spec,
    find_frontier,
)
from repro.sweep.reducers import (
    CompletedCount,
    DeadlockRateByConfig,
    MakespanHistogram,
    PerConfigMakespan,
    QuantileReducer,
    StreamReducer,
    merge_reducers,
    parse_quantiles,
)
from repro.sweep.summary import RunSummary, summarize_result

__all__ = [
    "BatchError",
    "CompletedCount",
    "DeadlockRateByConfig",
    "FaultPlan",
    "FrontierPlanner",
    "MONOTONE_POLICIES",
    "MakespanHistogram",
    "PerConfigMakespan",
    "PlanSpec",
    "QuantileReducer",
    "RunSummary",
    "SimJob",
    "StreamReducer",
    "SweepCheckpoint",
    "SweepPlan",
    "SweepSession",
    "Tolerance",
    "WORKER_CRASH_KIND",
    "available_backends",
    "exhaustive_spec",
    "find_frontier",
    "iter_sweep_jobs",
    "iter_sweep_labels",
    "job_fingerprint",
    "merge_reducers",
    "parse_quantiles",
    "summarize_result",
    "sweep_fingerprint",
    "sweep_jobs",
    "sweep_label",
    "sweep_labels",
    "witness_row",
]
