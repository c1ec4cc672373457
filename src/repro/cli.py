"""Command-line interface: classify, label and simulate program files.

The textual format is that of :mod:`repro.lang.parser`. Examples::

    python -m repro check  program.sysp            # crossing-off verdict
    python -m repro check  program.sysp --capacity 2   # with lookahead
    python -m repro label  program.sysp            # consistent labels
    python -m repro run    program.sysp --queues 2 --policy ordered
    python -m repro run    program.sysp --policy fcfs --trace
    python -m repro show   program.sysp            # paper-style listing
    python -m repro sweep  program.sysp --policies ordered,fcfs --queues 1,2
    python -m repro frontier program.sysp --queues 1,2 --capacity 0,1,2,4,8

``frontier`` answers the Section 8 sizing question directly: the minimal
queue capacity per (policy, queues) line. Static lines, and FCFS lines
with a queue per competing message (which perform the static run), are
decided by one crossing-off pass and confirmed by a single simulation
of the frontier point; other FCFS lines and ordered lines are fully
evaluated.

``--workers N`` runs a sweep or frontier query on N worker processes;
one worker, or a one-CPU host, runs it in-process. Either way prints
the same rows. Multiprocess sweeps always recover from worker deaths:
crashed workers are replaced and their jobs retried
(``--max-retries``), and with ``--job-timeout`` hung jobs are killed
and recorded as timeouts.
Long sweeps also run resumably (``--checkpoint PATH`` snapshots
progress atomically; ``--resume`` skips finished jobs after a crash or
Ctrl-C and reports aggregates byte-identical to an uninterrupted run).

Deadlock-dense sweeps can skip re-proving what they already know:
``--witness-store PATH`` persists deadlock certificates across runs;
jobs a stored certificate covers emit their deadlock row without
simulating (monotone static policy only — FCFS is exempt because
buffering can change its outcome), and ``repro witness {ls,show,prune}``
inspects the store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.arch.config import ArrayConfig
from repro.core.crossing import cross_off, uniform_lookahead
from repro.core.labeling import constraint_labeling, labels_as_str
from repro.core.schedule import summarize_schedule
from repro.errors import ConfigError, ReproError
from repro.lang.parser import parse_program
from repro.lang.printer import side_by_side
from repro.sim.queue_manager import POLICY_NAMES, check_policy_names
from repro.sim.runtime import simulate
from repro.sweep import (
    CompletedCount,
    DeadlockRateByConfig,
    FrontierPlanner,
    MakespanHistogram,
    PerConfigMakespan,
    PlanSpec,
    QuantileReducer,
    SweepPlan,
    SweepSession,
    exhaustive_spec,
    iter_sweep_jobs,
    iter_sweep_labels,
    parse_quantiles,
    sweep_jobs,
    sweep_label,
    sweep_labels,
)
from repro.viz.crossing_view import render_annotated, render_steps
from repro.viz.timeline import render_assignments, render_outcome
from repro.witness import WitnessStore


def _load(path: str):
    return parse_program(Path(path).read_text())


def _lookahead_for(program, capacity: int):
    return uniform_lookahead(program, capacity) if capacity > 0 else None


def cmd_show(args: argparse.Namespace) -> int:
    program = _load(args.file)
    print(side_by_side(program))
    for msg in sorted(program.messages.values()):
        print(f"  {msg}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    program = _load(args.file)
    capacity = _checked(args.capacity, "--capacity", 0)
    lookahead = _lookahead_for(program, capacity)
    result = cross_off(program, lookahead=lookahead)
    print(render_steps(result))
    if result.deadlock_free:
        analysis = summarize_schedule(program, result)
        print(
            f"deadlock-free: {analysis.total_pairs} transfers in "
            f"{analysis.transfer_rounds} rounds "
            f"(max parallelism {analysis.max_parallelism})"
        )
        return 0
    print("DEADLOCKED — annotated listing ([--] marks unreachable ops):")
    print(render_annotated(program, result))
    return 1


def cmd_label(args: argparse.Namespace) -> int:
    program = _load(args.file)
    capacity = _checked(args.capacity, "--capacity", 0)
    lookahead = _lookahead_for(program, capacity)
    labeling = constraint_labeling(program, lookahead=lookahead)
    print(labels_as_str(labeling))
    for label, names in labeling.groups():
        print(f"  label {label}: {', '.join(names)}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    program = _load(args.file)
    config = ArrayConfig(
        queues_per_link=_checked(args.queues, "--queues", 1),
        queue_capacity=_checked(args.capacity, "--capacity", 0),
        allow_extension=args.extension,
    )
    result = simulate(program, config=config, policy=args.policy)
    print(render_outcome(result))
    if args.trace:
        print(render_assignments(result.assignment_trace))
    return 0 if result.completed else 1


def _checked(value: int, flag: str, minimum: int) -> int:
    """``value``, or a :class:`ConfigError` when it is below ``minimum``.

    Checked here so an out-of-range flag prints one ``error:`` line
    and exits 2, instead of a traceback from deep in the run.
    """
    if value < minimum:
        raise ConfigError(f"{flag} must be >= {minimum}, got {value}")
    return value


def _int_list(raw: str, flag: str, minimum: int) -> list[int]:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = int(token)
        except ValueError:
            raise ConfigError(f"{flag} expects integers, got {token!r}") from None
        values.append(_checked(value, flag, minimum))
    return values


def _quantile_reducers(args) -> tuple:
    """The extra reducers ``--quantiles`` turns on, or ``()``."""
    if not args.quantiles:
        return ()
    fractions = parse_quantiles(args.quantiles)
    return (QuantileReducer(fractions), PerConfigMakespan())


def _fault_tolerance_kwargs(args) -> dict:
    """The :class:`SweepPlan` knobs carried by the fault-tolerance flags."""
    return dict(
        job_timeout_s=args.job_timeout,
        max_retries=args.max_retries,
        checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )


def _interrupted(rows, args, store: WitnessStore | None = None) -> int:
    """Ctrl-C during a sweep: tear down cleanly, report, exit 130.

    Closing the stream generator unwinds every layer's ``finally``:
    the supervisor terminates its workers and a checkpointed sweep
    writes one final snapshot — so an interrupted run is immediately
    resumable. Mined witnesses are durable progress too, so the store
    is saved as well.
    """
    rows.close()
    if store is not None:
        store.save()
    note = "interrupted — workers terminated"
    if args.checkpoint:
        note += (
            f"; progress saved to {args.checkpoint} (rerun with --resume)"
        )
    print(note, file=sys.stderr)
    return 130


def _witness_store(args) -> WitnessStore | None:
    return WitnessStore(args.witness_store) if args.witness_store else None


def _witness_report(store: WitnessStore | None, session) -> None:
    """Persist the store and print what pruning bought this run."""
    if store is None:
        return
    store.save()
    print(
        f"[witness] pruned {session.witness_pruned} known-deadlocked "
        f"job(s), mined {session.witness_mined} new certificate(s) "
        f"({len(store)} stored)"
    )


def _witness_json_fields(store: WitnessStore | None, session) -> dict:
    """Witness counters for ``--json`` payloads (empty without a store).

    Mining happens inside worker processes too, so the counters are
    meaningful with ``--workers`` as well as in process.
    """
    if store is None:
        return {}
    return {
        "witness_mined": session.witness_mined,
        "witness_pruned": session.witness_pruned,
        "witness_stored": len(store),
    }


def _print_row(label: str, row) -> None:
    if row.error_kind is not None:
        print(f"{label:<28} infeasible {row.error_kind}: {row.error}")
    else:
        print(
            f"{label:<28} {row.outcome:<10} t={row.time:<8} "
            f"events={row.events}"
        )


def _cmd_sweep_stream(args, program, policies, queues, capacities) -> int:
    """Streaming sweep: O(1) retained results, reducer summaries at the end.

    Jobs are generated lazily and every result is folded into the
    reducers the moment it arrives — a 10k-run sweep holds one summary
    row at a time no matter how long it runs.
    """
    reducers = (
        CompletedCount(),
        MakespanHistogram(),
        DeadlockRateByConfig(),
    ) + _quantile_reducers(args)
    outcomes = reducers[0]
    jobs = iter_sweep_jobs(
        program,
        policies=policies,
        queues=queues,
        capacities=capacities,
        repeat=args.repeat,
    )
    labels = iter_sweep_labels(
        policies=policies, queues=queues, capacities=capacities, repeat=args.repeat
    )
    store = _witness_store(args)
    plan = SweepPlan(
        jobs=jobs,
        reducers=reducers,
        workers=args.workers,
        chunk_size=32,
        witness_store=store,
        **_fault_tolerance_kwargs(args),
    )
    session = SweepSession(plan)
    rows = session.stream()
    try:
        if args.checkpoint:
            # A resumed stream skips finished jobs, so labels must be
            # looked up by row index, not zipped positionally. (The
            # checkpointed session materializes the job list anyway.)
            label_list = list(labels)
            for row in rows:
                _print_row(label_list[row.index], row)
        else:
            for label, row in zip(labels, rows):
                _print_row(label, row)
    except KeyboardInterrupt:
        return _interrupted(rows, args, store)
    _witness_report(store, session)
    if session.memo_hits:
        # A console line, not a --json field: the count depends on
        # chunking and on what a resumed run re-runs, while the --json
        # payload must not.
        print(
            f"[memo] {session.memo_hits} row(s) served from an earlier "
            "run with the same canonical key"
        )
    print(f"{outcomes.completed}/{outcomes.total} runs completed")
    for reducer in reducers:
        print(f"[{reducer.name}] {json.dumps(reducer.summary())}")
    if args.json:
        payload = {reducer.name: reducer.summary() for reducer in reducers}
        payload.update(_witness_json_fields(store, session))
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0 if outcomes.completed == outcomes.total else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    program = _load(args.file)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    queues = _int_list(args.queues, "--queues", 1)
    capacities = _int_list(args.capacity, "--capacity", 0)
    _checked(args.repeat, "--repeat", 1)
    # An empty grid would print "0/0 runs completed" and exit 0, which
    # claims every run completed; a repeated value would run and print
    # its grid points twice (--repeat is how a point runs again).
    for flag, values in (
        ("--policies", policies),
        ("--queues", queues),
        ("--capacity", capacities),
    ):
        if not values:
            raise ConfigError(f"{flag} needs at least one value")
        if len(set(values)) != len(values):
            raise ConfigError(
                f"{flag} repeats a value; --repeat runs a grid point again"
            )
    check_policy_names(policies)
    if args.stream:
        return _cmd_sweep_stream(args, program, policies, queues, capacities)
    jobs = sweep_jobs(
        program,
        policies=policies,
        queues=queues,
        capacities=capacities,
        repeat=args.repeat,
    )
    labels = sweep_labels(
        policies=policies,
        queues=queues,
        capacities=capacities,
        repeat=args.repeat,
    )
    extra_reducers = _quantile_reducers(args)
    # Under --checkpoint the visible rows of a resumed run cover only
    # the remaining jobs; a CompletedCount reducer (whose state rides
    # the checkpoint) keeps the completion tally — and the exit code —
    # covering the whole grid.
    outcomes = CompletedCount() if args.checkpoint else None
    store = _witness_store(args)
    plan = SweepPlan(
        jobs=jobs,
        reducers=((outcomes,) if outcomes else ()) + extra_reducers,
        workers=args.workers,
        witness_store=store,
        **_fault_tolerance_kwargs(args),
    )
    rows = []
    session = SweepSession(plan)
    stream = session.stream()
    try:
        for row in stream:
            label = labels[row.index]
            if row.error_kind is not None:
                rows.append((label, "infeasible", None, None))
            else:
                rows.append((label, row.outcome, row.time, row.events))
            _print_row(label, row)
    except KeyboardInterrupt:
        return _interrupted(stream, args, store)
    _witness_report(store, session)
    if outcomes is not None:
        completed, total = outcomes.completed, outcomes.total
    else:
        completed = sum(
            1 for _l, outcome, _t, _e in rows if outcome == "completed"
        )
        total = len(rows)
    print(f"{completed}/{total} runs completed")
    for reducer in extra_reducers:
        print(f"[{reducer.name}] {json.dumps(reducer.summary())}")
    if args.json:
        runs = [
            {"label": label, "outcome": outcome, "time": t, "events": e}
            for label, outcome, t, e in rows
        ]
        witness_fields = _witness_json_fields(store, session)
        if extra_reducers or witness_fields:
            # --quantiles / --witness-store upgrade the payload to an
            # object so the aggregates ride along with the per-run rows.
            payload = {"runs": runs}
            payload.update(
                {reducer.name: reducer.summary() for reducer in extra_reducers}
            )
            payload.update(witness_fields)
        else:
            payload = runs
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0 if completed == total else 1


def cmd_frontier(args: argparse.Namespace) -> int:
    """Minimal-buffering frontier per (policy, queues) line (Section 8).

    A static line's frontier is the least axis capacity at or above the
    program's c* from crossing-off, and only that point is simulated.
    An FCFS line with at least the widest competing count of queues
    performs the static run and is decided the same way. FCFS lines
    with fewer queues (where extra buffering can introduce a deadlock,
    a pinned counterexample) and ordered lines are evaluated in full —
    see :mod:`repro.sweep.planner`.
    """
    program = _load(args.file)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    queues = _int_list(args.queues, "--queues", 1)
    capacities = _int_list(args.capacity, "--capacity", 0)
    spec = PlanSpec(
        program,
        policies=policies,
        queues=queues,
        capacities=capacities,
        workers=args.workers,
    )
    if args.exhaustive:
        spec = exhaustive_spec(spec)
    report = FrontierPlanner(spec).run()
    for row in report.rows:
        _print_row(sweep_label(row.policy, row.queues, row.capacity), row)
    for line in report.lines:
        cap = line.frontier_capacity
        shared = (
            f", shared with q={line.shared_with}"
            if line.shared_with is not None
            else ""
        )
        print(
            f"frontier {line.policy} q={line.queues}: "
            + (f"cap={cap}" if cap is not None else "none (no capacity on "
               "the axis completes)")
            + f"  [{line.mode}, {line.jobs_executed} probes{shared}]"
        )
    print(f"executed {report.jobs_executed}/{report.grid_jobs} grid jobs")
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.as_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    complete = all(
        line.frontier_capacity is not None for line in report.lines
    )
    return 0 if complete else 1


def cmd_witness(args: argparse.Namespace) -> int:
    """Inspect or compact a deadlock-witness store (no simulation)."""
    store = WitnessStore(args.store)
    if args.witness_cmd == "ls":
        for w in store.witnesses():
            covers = (
                f"cap>={w.peak_occupancy}" if w.open_ray
                else f"cap={w.capacity}"
            )
            print(
                f"{w.witness_id}  {w.policy:<8} q={w.queues} "
                f"witnessed@{w.capacity} covers {covers:<9} "
                f"cells={','.join(w.cells)} msgs={','.join(w.messages)}"
            )
        stats = store.stats()
        print(
            f"{stats['witnesses']} witness(es) in "
            f"{stats['scopes']} scope(s)"
        )
        if stats["loads_rejected"]:
            print(
                f"warning: store file was corrupt and read as empty "
                f"({stats['loads_rejected']} rejected load(s))",
                file=sys.stderr,
            )
        return 0
    if args.witness_cmd == "show":
        witness = store.get(args.id)
        if witness is None:
            raise ConfigError(
                f"no witness matching id prefix {args.id!r} in {args.store}"
            )
        print(json.dumps(witness.as_dict(), indent=2, sort_keys=True))
        return 0
    # prune: drop certificates subsumed by a stronger stored one.
    removed = store.prune()
    store.save()
    print(f"pruned {removed} subsumed witness(es), {len(store)} kept")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deadlock avoidance for systolic communication (Kung 1988)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print the paper-style listing")
    show.add_argument("file")
    show.set_defaults(func=cmd_show)

    check = sub.add_parser("check", help="crossing-off deadlock classification")
    check.add_argument("file")
    check.add_argument(
        "--capacity", type=int, default=0,
        help="queue capacity for §8 lookahead (0 = strict §3 procedure)",
    )
    check.set_defaults(func=cmd_check)

    label = sub.add_parser("label", help="compute a consistent labeling")
    label.add_argument("file")
    label.add_argument("--capacity", type=int, default=0)
    label.set_defaults(func=cmd_label)

    run = sub.add_parser("run", help="simulate on a configured array")
    run.add_argument("file")
    run.add_argument("--queues", type=int, default=1, help="queues per link")
    run.add_argument("--capacity", type=int, default=0, help="words per queue")
    run.add_argument(
        "--policy", choices=POLICY_NAMES, default="ordered"
    )
    run.add_argument(
        "--extension", action="store_true", help="enable queue extension"
    )
    run.add_argument(
        "--trace", action="store_true", help="print the assignment timeline"
    )
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser(
        "sweep",
        help="batched ensemble: policy x queue-provisioning sweep",
    )
    sweep.add_argument("file")
    sweep.add_argument(
        "--policies", default="ordered",
        help="comma-separated assignment policies (ordered,static,fcfs)",
    )
    sweep.add_argument(
        "--queues", default="1", help="comma-separated queues-per-link values"
    )
    sweep.add_argument(
        "--capacity", default="0", help="comma-separated queue capacities"
    )
    sweep.add_argument(
        "--repeat", type=int, default=1, help="repetitions per combination"
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1, or any value on a one-CPU host, runs "
             "in-process with the shared analysis cache)",
    )
    sweep.add_argument(
        "--stream", action="store_true",
        help="stream per-run summary rows with O(1) memory (for sweeps too "
             "large to hold) and print reducer aggregates — outcome counts, "
             "makespan histogram, deadlock rate by config; with --json, "
             "writes the aggregates instead of per-run rows",
    )
    sweep.add_argument(
        "--quantiles", metavar="P50,P95,...", default=None,
        help="also report makespan quantiles (t-digest) and per-config "
             "makespan stats, e.g. --quantiles p50,p95,p99; adds "
             "'quantiles' and 'per-config-makespan' fields to --json "
             "output",
    )
    sweep.add_argument(
        "--job-timeout", dest="job_timeout", type=float, default=None,
        metavar="SEC",
        help="per-job wall-clock limit on worker processes: a job "
             "running longer has its worker killed and is retried, then "
             "recorded as a timeout row (default: no limit)",
    )
    sweep.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="extra attempts a job gets on worker processes after "
             "crashing or hanging its worker before being quarantined "
             "as a WorkerCrash or timeout row (default: 2)",
    )
    sweep.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="snapshot progress (reducer state + finished-job bitmap) "
             "atomically to PATH every --checkpoint-every rows and on "
             "exit, including Ctrl-C — an interrupted sweep is "
             "immediately resumable",
    )
    sweep.add_argument(
        "--checkpoint-every", type=int, default=64, metavar="N",
        help="rows between periodic checkpoint snapshots (default 64)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip jobs already recorded in --checkpoint PATH; reported "
             "aggregates are byte-identical to an uninterrupted run "
             "(a corrupt or missing checkpoint restarts cleanly; one "
             "from a different sweep refuses to resume)",
    )
    sweep.add_argument(
        "--witness-store", dest="witness_store", metavar="PATH", default=None,
        help="consult/grow a deadlock-witness store at PATH: jobs a "
             "stored certificate covers emit their known deadlock row "
             "without simulating (static policy only — FCFS is never "
             "pruned because extra buffering can change its outcome), "
             "and new deadlocks mined from this run are saved back",
    )
    sweep.add_argument("--json", help="write results to this JSON file")
    sweep.set_defaults(func=cmd_sweep)

    frontier = sub.add_parser(
        "frontier",
        help="minimal buffering per (policy, queues) line, decided by "
             "crossing-off where the static run allows",
        description="Find each (policy, queues) line's minimal completing "
                    "queue capacity on the given axis. A static line's "
                    "frontier is the least axis capacity at or above the "
                    "least capacity crossing-off finds deadlock-free "
                    "under the simulator's buffering; only that point "
                    "is simulated, once for all lines that perform the "
                    "same run (queue counts at or past the widest "
                    "competing count), and a line with fewer queues than "
                    "that count is infeasible. An FCFS line at or past "
                    "the widest competing count performs the static run "
                    "and is decided the same way. Other FCFS lines and "
                    "ordered lines are evaluated exhaustively: below that "
                    "count extra buffering can introduce an FCFS "
                    "deadlock. "
                    "Exit status 0 when every line has a frontier, 1 when "
                    "some line never completes.",
    )
    frontier.add_argument("file")
    frontier.add_argument(
        "--policies", default="static",
        help="comma-separated assignment policies (static, and fcfs "
             "at or past the widest competing count, are decided by "
             "crossing-off; ordered and other fcfs lines are fully "
             "evaluated)",
    )
    frontier.add_argument(
        "--queues", default="1", help="comma-separated queues-per-link values"
    )
    frontier.add_argument(
        "--capacity", default="0,1,2,4,8,16,32,64",
        help="comma-separated capacity axis to search (sorted, no "
             "duplicates)",
    )
    frontier.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the query's simulations (a query "
             "that runs a single one runs it in-process)",
    )
    frontier.add_argument(
        "--exhaustive", action="store_true",
        help="simulate every grid point, static lines included, instead "
             "of deciding static lines by crossing-off (the differential "
             "baseline; same frontier)",
    )
    frontier.add_argument(
        "--json",
        help="write the frontier report (per-line frontier, probes, "
             "jobs-executed vs grid cost) to this JSON file",
    )
    frontier.set_defaults(func=cmd_frontier)

    witness = sub.add_parser(
        "witness",
        help="inspect or compact a deadlock-witness store",
        description="Operate on the certificate file 'repro sweep "
                    "--witness-store' grows: list certificates with "
                    "their capacity bands, dump one as JSON, or drop "
                    "subsumed entries.",
    )
    witness_sub = witness.add_subparsers(dest="witness_cmd", required=True)
    witness_ls = witness_sub.add_parser(
        "ls", help="list stored certificates and their capacity bands"
    )
    witness_ls.add_argument("store", help="witness store file")
    witness_show = witness_sub.add_parser(
        "show", help="dump one certificate as JSON"
    )
    witness_show.add_argument("store", help="witness store file")
    witness_show.add_argument("id", help="witness id (unique prefix ok)")
    witness_prune = witness_sub.add_parser(
        "prune", help="drop certificates a stronger stored one subsumes"
    )
    witness_prune.add_argument("store", help="witness store file")
    witness.set_defaults(func=cmd_witness)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
