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
  be **byte-identical across backends** for the same job list; the
  transport (pipe, shared memory) may differ, the row may not;
* ``result`` is the full simulation result only when the session asked
  for results and the backend materializes them eagerly, else ``None``
  and the session hydrates on demand (deterministic in-parent
  re-execution); a summary-only row builds one only to mine a deadlock;
* ``witness`` is a compact deadlock-certificate dict
  (:meth:`~repro.witness.DeadlockWitness.as_dict`) mined *where the
  job ran* — in process or inside the worker — when the session asked
  for it (``WorkerContext.mine_witnesses``) and the job deadlocked, else
  ``None`` — so summary-only streams warm the witness store at full
  speed without shipping full results; the parent merges under the
  store's subsumption rules;
* worker processes apply the session's
  :class:`~repro.sweep.backends.WorkerContext` — the persistent
  analysis disk tier, the single-host shared-memory analysis arena
  (:mod:`repro.perf.shm_cache`), the mining flag, and any fault plan —
  before running jobs.

Built-in backends:

======== ==============================================================
serial   In-process, in order. The reference implementation: every
         other backend's rows are differential-tested against it.
pool     Chunks of jobs run on supervised worker processes
         (:mod:`repro.sweep.backends.supervise`), one pipe per worker
         and one message per chunk. Full results (when requested) are
         pickled back through the pipe — exact, but pipe-bound for
         large full-result sweeps.
shm      The same supervised workers, but they encode rows into a
         ``multiprocessing.shared_memory`` arena; only string-overflow
         rows (pathological error messages) ride the pipe. Full
         results are never shipped: handles re-execute on demand. The
         backend for sweeps where shipping every full result is the
         bottleneck.
======== ==============================================================

Both multiprocess backends pull lazy job streams incrementally — a
generator is never materialized — and recover from worker deaths (see
below). ``backend=None`` picks ``serial`` for one worker or on a
one-CPU host, ``pool`` otherwise.

The arena layout
----------------

The ``shm`` backend's arena (:class:`~repro.sweep.arena.SummaryArena`)
is a *segmented* sequence of fixed-width slots of
:data:`~repro.sweep.arena.ROW_SIZE` (256) bytes, one per job, written by
whichever worker ran that job (slots are disjoint — no locks) and
decoded directly by the parent. Segments of
:data:`~repro.sweep.arena.DEFAULT_SEGMENT_ROWS` slots are separate
shared-memory blocks named ``{base}_s{k}`` (segment 0 keeps the base
name), allocated on demand by the owner as the job stream advances
(``ensure_rows``) and unlinked once every slot in them has been drained
(``retire_below``) — so a streaming sweep's resident shared memory is
bounded by the in-flight window, not the grid size, and ``n_jobs``
never needs to be known up front. Workers attach lazily, mapping only
the segments their chunks actually touch. Within a segment each slot
is::

    offset  size  field
    ------  ----  -----------------------------------------------
         0     1  flags (WRITTEN | COMPLETED | DEADLOCKED |
                  TIMED_OUT | HAS_KIND | HAS_ERROR)
         1     8  time       (int64)        9     8  events (int64)
        17     8  words      (int64)       25     4  queues (int32)
        29     4  capacity   (int32)
        33  1+23  policy     (len byte + utf-8, max 23 bytes)
        57  1+31  error_kind (len byte + utf-8, max 31 bytes)
        89  2+165 error      (len u16 + utf-8, max 165 bytes)

Strings that exceed their field fall back to the pipe (never truncated);
an unwritten slot raises on decode instead of reading as a row of
zeros. See :mod:`repro.sweep.arena`.

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
and ``shm`` backends always run under the supervisor
(:mod:`repro.sweep.backends.supervise`), which owns worker lifecycles
directly — one duplex pipe per worker, so a dead worker is an EOF, not
a deadlock — and blames a death on the job its worker was running.
``max_retries`` (default 2) and ``job_timeout_s`` (default none) on a
:class:`~repro.sweep.plan.SweepPlan` (CLI: ``--max-retries``,
``--job-timeout``) tune that recovery:

* a **crashed worker** (abrupt exit, broken pipe, unwritten arena slot)
  is replaced; the job it was running is retried with bounded retries
  and exponential backoff, and the rest of its chunk is requeued
  without penalty; a job that keeps killing workers is
  quarantined as a :class:`~repro.sweep.jobs.BatchError` row of kind
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
the serial backend and *inside the workers* on pool/shm
(the ``witness`` field of the backend contract), so cold multiprocess
sweeps grow the store too. Skips and newly mined certificates are
counted on the session (``witness_pruned`` / ``witness_mined``; both
surface in ``repro sweep --json``), compose with
``--checkpoint``/``--resume``, and
seed the frontier planner's bisection bounds
(:meth:`~repro.witness.WitnessStore.monotone_bound`).

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
:class:`~repro.sweep.planner.FrontierPlanner` binary-searches each line
whose policy is proven monotone in capacity (static — 2 + log2(n)
probes instead of n) and falls back to full evaluation for the rest
(FCFS, where extra buffering can *introduce* deadlock — a pinned
counterexample). Every probe is an ordinary
:class:`~repro.sweep.plan.SweepPlan` job whose
:class:`~repro.sweep.summary.RunSummary` row carries its exhaustive-grid
index, so reducers and backends compose unchanged and a planner row is
byte-identical to the grid's row at the same coordinates. Probe points
share capacity-independent analysis artifacts (routes,
competing-message sets) through the analysis cache, so only the
capacity-dependent work is repaid per probe. CLI: ``repro frontier``
(``--exhaustive`` forces the full evaluation baseline).
"""

from repro.sweep.arena import ROW_SIZE, SummaryArena
from repro.sweep.backends import (
    WorkerContext,
    available_backends,
    get_backend,
)
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
    "ROW_SIZE",
    "ResultHandle",
    "RunSummary",
    "SimJob",
    "StreamReducer",
    "SummaryArena",
    "SweepCheckpoint",
    "SweepOutcome",
    "SweepPlan",
    "SweepSession",
    "Tolerance",
    "WORKER_CRASH_KIND",
    "WorkerContext",
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
