"""Pluggable sweep execution: ensemble simulation at provisioning scale.

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
* **how to run it** — an execution *backend*
  (:mod:`repro.sweep.backends`), chosen per
  :class:`~repro.sweep.plan.SweepPlan` and driven by a
  :class:`~repro.sweep.plan.SweepSession`;
* **what to keep** — flat :class:`~repro.sweep.summary.RunSummary` rows
  (one per job, constant size), streaming reducers
  (:mod:`repro.sweep.reducers`) with an exact ``merge`` contract, and
  on-demand full results via :class:`~repro.sweep.plan.ResultHandle`.

The backend contract
--------------------

A backend (see :class:`repro.sweep.backends.ExecutionBackend`) maps an
iterable of jobs to an *ordered* stream of
``(index, row, result, witness)`` records
(:class:`~repro.sweep.backends.JobRecord`):

* records arrive in job order, whatever the worker scheduling;
* ``row`` — the job's :class:`~repro.sweep.summary.RunSummary` — must
  be **byte-identical across backends** for the same job list; it may
  come from this process or over a worker's pipe, but never differ;
* ``result`` is the full simulation result when the session asked for
  results (a job killed for hanging has none), else ``None``; a
  summary-only row builds one only to mine a deadlock;
* ``witness`` is a compact deadlock-certificate dict
  (:meth:`~repro.witness.DeadlockWitness.as_dict`) mined *where the
  job ran* — in process or inside the worker — when the session asked
  for it (the backend's ``mine`` flag) and the job deadlocked, else
  ``None`` — so summary-only streams warm the witness store at full
  speed without shipping full results; the parent merges under the
  store's subsumption rules;
* workers are forked, so they start with the parent's in-memory
  analysis cache and any crossing-engine pin; the fault plan travels
  on the :class:`~repro.sweep.fault.Tolerance`.

Built-in backends:

======== ==============================================================
serial   In-process, in order. The reference implementation: every
         other backend's rows are differential-tested against it.
pool     Chunks of jobs run on supervised worker processes
         (:mod:`repro.sweep.backends.supervise`), one pipe per worker
         and one message per chunk. Rows, mined certificates and (when
         requested) full results are pickled back through the pipe.
======== ==============================================================

The pool backend pulls lazy job streams incrementally — a generator is
never materialized — and recovers from worker deaths (see below).
``backend=None`` picks ``serial`` for one worker or on a one-CPU host,
``pool`` otherwise. A sweep that needs only a few full results streams
its rows and re-runs the jobs it wants
(:meth:`~repro.sweep.plan.SweepSession.iter_handles` says how).

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
kills), corners hang, the whole process gets SIGKILLed. The ``pool``
backend always runs under the supervisor
(:mod:`repro.sweep.backends.supervise`), which owns worker lifecycles
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
  :data:`~repro.sweep.jobs.WORKER_CRASH_KIND` (under
  ``on_error="collect"``) instead of aborting the sweep;
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
exempt by construction and always simulates. Mining runs in-process on
the serial backend and *inside the workers* on pool
(the ``witness`` field of the backend contract), so cold multiprocess
sweeps grow the store too. Skips and newly mined certificates are
counted on the session (``witness_pruned`` / ``witness_mined``; both
surface in ``repro sweep --json``) and compose with
``--checkpoint``/``--resume``. A frontier query without
``exhaustive`` gives the store no work: its static frontier rows
complete, and FCFS and ordered rows are never pruned or mined.

Repeated runs
-------------

Many jobs of a provisioning grid are the same run under a different
config: queues beyond a link's competing-message count are never taken,
and a capacity of at least the longest message never blocks a push.
:func:`~repro.sweep.jobs.canonical_key` clamps both, and the shared
runner keeps a small per-program memo of rows by key
(:class:`~repro.sweep.backends.RowMemo`), so each distinct run is
simulated once per memo and its repeats are served re-stamped with
their own index, queues and capacity. Full-result runs, error rows and
(while mining) deadlocked rows are never served. Hits are counted on
the session (``memo_hits``) and printed by ``repro sweep --stream``.

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
frontier point, raising if that run does not complete. FCFS (where
extra buffering can *introduce* deadlock — a pinned counterexample) and
ordered lines are evaluated in full. A query is one
:class:`~repro.sweep.plan.SweepPlan` whose
:class:`~repro.sweep.summary.RunSummary` rows carry their
exhaustive-grid indices, so reducers and backends compose unchanged and
a planner row is byte-identical to the grid's row at the same
coordinates. CLI: ``repro frontier`` (``--exhaustive`` forces the full
evaluation baseline).
"""

from repro.sweep.backends import available_backends, get_backend
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
from repro.sweep.plan import (
    ResultHandle,
    SweepOutcome,
    SweepPlan,
    SweepSession,
    simulate_many,
    simulate_stream,
)
from repro.sweep.planner import (
    MONOTONE_POLICIES,
    FrontierPlanner,
    FrontierReport,
    FrontierResult,
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
    validate_quantile_labels,
)
from repro.sweep.summary import RunSummary, summarize_result

__all__ = [
    "BatchError",
    "CompletedCount",
    "DeadlockRateByConfig",
    "FaultPlan",
    "FrontierPlanner",
    "FrontierReport",
    "FrontierResult",
    "MONOTONE_POLICIES",
    "MakespanHistogram",
    "PerConfigMakespan",
    "PlanSpec",
    "QuantileReducer",
    "ResultHandle",
    "RunSummary",
    "SimJob",
    "StreamReducer",
    "SweepCheckpoint",
    "SweepOutcome",
    "SweepPlan",
    "SweepSession",
    "Tolerance",
    "WORKER_CRASH_KIND",
    "available_backends",
    "exhaustive_spec",
    "find_frontier",
    "get_backend",
    "iter_sweep_jobs",
    "iter_sweep_labels",
    "job_fingerprint",
    "merge_reducers",
    "parse_quantiles",
    "simulate_many",
    "simulate_stream",
    "summarize_result",
    "sweep_fingerprint",
    "sweep_jobs",
    "sweep_label",
    "sweep_labels",
    "validate_quantile_labels",
    "witness_row",
]
