"""The repository benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid_serial --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (ops_per_s, op_ms_p50,
op_ms_p90, setup_s, peak_rss_mb, failed_frac) measured with tracing
off, over :data:`SEGMENTS` segments. Each segment sets the workload up
from a cold process state and runs its closed loop over the same inputs
for its share of ``--seconds``. Every time they report is in
host-reference seconds: wall time scaled by the host's speed at the
time, which calibration blocks run between ops measure
(:mod:`perfbench.hostclock`); the wall-clock figures are printed beside
them. ``--trace 1`` runs the workload twice over the same ops -- once
untraced, once with every layer's entry points wrapped
(:mod:`perfbench.trace`) -- and prints the per-layer metrics, in wall
time, the tracing overhead and the share of time no span covers; its
spans are written to ``.perfbench/``. Every run checks every op
against a reference computed on the serial path with analysis caching
off and checks the paper's invariants (:mod:`perfbench.checks`).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program
under test is imported from ``src/`` of the checkout this file sits in;
without one the benchmark exits with status 1 and prints no result.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import hostclock  # noqa: E402  (pure Python: no program code)
from perfbench.hostclock import HostClock  # noqa: E402

#: Segments per plain run. setup_s reports import time plus the median
#: set-up, ops_per_s the median segment rate, and the latency
#: percentiles pool every segment's ops, so a slow spell of the host
#: during one segment moves none of them much.
SEGMENTS = 3

#: Environment knobs that change what the program does. The benchmark
#: clears them so inputs come only from the seed and every run uses the
#: program's defaults (no disk tier, auto crossing backend, shm tier on).
PINNED_ENV = (
    "REPRO_ANALYSIS_DISK_CACHE",
    "REPRO_ANALYSIS_DISK_CACHE_MAX_BYTES",
    "REPRO_ANALYSIS_SHM_CACHE",
    "REPRO_ANALYSIS_SHM_CACHE_BYTES",
    "REPRO_CROSSING_BACKEND",
)

WORKLOAD_NAMES = ("grid_serial", "grid_mp", "analysis_cold", "frontier_witness")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import the program under test from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program to measure: {src / 'repro'} is missing"
        )
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    # Import everything the loop touches lazily (the columnar engine and
    # numpy, the multiprocess backends), so imports land in setup_s and
    # never in the first op.
    from repro.core import crossing_np
    from repro.sweep.backends import available_backends

    crossing_np.numpy_available()
    available_backends()
    from perfbench import trace, workloads

    return trace, workloads


def _peak_rss_mib(include_children: bool) -> float:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kib = max(peak_kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def _cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _stamp(args, workload, state, loadavg, segments) -> dict:
    import multiprocessing

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "seed": args.seed,
        "workload": args.workload,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": [round(x, 2) for x in loadavg],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "crossing_backend": workload.stamp(state),
        "mp_start_method": multiprocessing.get_start_method(),
        "workers": workload.workers,
        "segments": segments,
    }


def _setup(workloads, workload, seed: int, seconds: float):
    """Set up once from a cold process state; the state and its time.

    The time is in host-reference seconds: scaled by the host's speed,
    which calibration blocks measure right before and right after the
    set-up (:mod:`perfbench.hostclock`).
    """
    workloads.reset_process_state()
    blocks = hostclock.sample_blocks()
    start = time.perf_counter()
    state = workload.setup(seed, seconds)
    wall = time.perf_counter() - start
    blocks += hostclock.sample_blocks()
    return state, wall * hostclock.REFERENCE_BLOCK_S / hostclock.typical(blocks)


def _timed_loop(workload, state, seconds, max_ops=None, calibrate=True):
    """Run the workload's timed loop with the set-up's objects frozen.

    The loop runs ``seconds`` (or exactly ``max_ops`` ops when given),
    with calibration blocks between its ops unless ``calibrate`` is off
    (:class:`perfbench.hostclock.HostClock`). The input pool holds
    hundreds of programs no user process would hold at once. Frozen, the
    garbage collector stops traversing it, so a full collection costs
    what it would cost a user and the loop's time no longer depends on
    when one happens to fire.
    """
    gc.collect()
    gc.freeze()
    try:
        cpu = _cpu_seconds(resource.RUSAGE_SELF), _cpu_seconds(resource.RUSAGE_CHILDREN)
        start_ns = time.perf_counter_ns()
        deadline = math.inf if max_ops is not None else time.perf_counter() + seconds
        result = workload.loop(state, HostClock(calibrate), deadline, max_ops)
        result.extra["window_ns"] = (start_ns, time.perf_counter_ns())
        result.extra["cpu_s"] = (
            _cpu_seconds(resource.RUSAGE_SELF) - cpu[0],
            _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu[1],
        )
        return result
    finally:
        gc.unfreeze()


def _judge(workload, state, passes):
    """Check loops that ran over the same inputs against one reference.

    Returns the number of failed ops over every pass (an exception that
    ended a loop is one more), the failure notes, the reference's exact
    counts, and whether each pass's exact counts equal those of the
    reference's same ops.
    """
    ops = max(result.ops for result in passes)
    reference = workload.reference(state, ops)
    ref_counts = workload.counts(reference.outputs)
    failed = 0
    notes: Counter = Counter()
    counts_ok = True
    for result in passes:
        judgement = workload.judge(state, result, reference)
        failed += len(judgement.failed)
        notes.update(judgement.notes)
        if result.raised is not None:
            failed += 1
            notes[f"stream raised {result.raised}"] += 1
        counts = workload.counts(result.outputs)
        if counts != workload.counts(reference.outputs[: result.ops]):
            counts_ok = False
            notes["exact counts differ from reference"] += 1
            print(f"exact counts differ: run {json.dumps(counts)}", flush=True)
    return failed, notes, ref_counts, counts_ok


def _print_metric(name, value, unit, extra=""):
    print(f"{name:<26} {value:>14.6g} {unit:<6} {extra}".rstrip(), flush=True)


def _result(judged, attempted, metrics, agreement) -> dict:
    """Print the exact counts and failures; the run's final JSON object."""
    failed, notes, ref_counts, counts_ok = judged
    print("exact " + json.dumps(ref_counts) + (f" [{agreement}]" if counts_ok else " [DIFFERS]"))
    for note, count in notes.items():
        print(f"failure: {note} x{count}", flush=True)
    return {
        "correct": failed == 0 and counts_ok and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_plain(args, workloads, workload, import_s, loadavg):
    seconds = args.seconds / SEGMENTS
    segments, setup_times = [], []
    for k in range(SEGMENTS):
        state = None  # release the previous segment's inputs before the reset
        state, setup_time = _setup(workloads, workload, args.seed, seconds)
        setup_times.append(setup_time)
        if k == 0:
            stamp = _stamp(args, workload, state, loadavg, SEGMENTS)
            print("stamp " + json.dumps(stamp), flush=True)
        segments.append(_timed_loop(workload, state, seconds))
    peak = _peak_rss_mib(include_children=workload.workers > 1)
    judged = _judge(workload, state, segments)
    # Every time below is in host-reference seconds (perfbench.hostclock);
    # the wall-clock figures are printed beside them.
    rates = [seg.ops / (seg.host.busy_s * seg.host.factor) for seg in segments]
    latencies_ms = sorted(
        x * seg.host.factor * 1000.0 for seg in segments for x in seg.latencies_s
    )
    setup_s = import_s + statistics.median(setup_times)
    walls = ", ".join(
        f"{seg.ops} ops in {seg.host.busy_s:.3f} s wall at {seg.host.block_ms():.3f} ms/block"
        for seg in segments
    )
    metrics = {
        "ops_per_s": (statistics.median(rates), "ops/s", f"(median of segments: {walls})"),
        "op_ms_p50": (workloads.percentile(latencies_ms, 0.50), "ms", f"(n={len(latencies_ms)})"),
        "op_ms_p90": (workloads.percentile(latencies_ms, 0.90), "ms", f"(n={len(latencies_ms)})"),
        "setup_s": (setup_s, "s", f"(imports {import_s:.3f} s + median of set-ups {', '.join(f'{t:.3f}' for t in setup_times)})"),
        "peak_rss_mb": (peak, "MiB", ""),
    }
    for name, (value, unit, extra) in metrics.items():
        _print_metric(name, value, unit, extra)
    attempted = sum(seg.ops + (seg.raised is not None) for seg in segments)
    failed = judged[0]
    _print_metric(
        "failed_frac", failed / attempted if attempted else 1.0, "ratio",
        f"(failed {failed} of {attempted} attempted)",
    )
    metrics = {name: (value, unit) for name, (value, unit, _extra) in metrics.items()}
    return _result(judged, attempted, metrics, "= reference")


def run_traced(args, trace, workloads, workload, loadavg):
    # Pass 1, untraced: the ops that fit in half the run time. Neither
    # pass runs calibration blocks: per-layer numbers are wall time.
    seconds = args.seconds / 2
    state, _time = _setup(workloads, workload, args.seed, seconds)
    print("stamp " + json.dumps(_stamp(args, workload, state, loadavg, 1)), flush=True)
    untraced = _timed_loop(workload, state, seconds, calibrate=False)
    del state
    # Pass 2, traced: the same ops from a cold process state.
    tracer = trace.Tracer()
    tracer.install()
    try:
        workloads.reset_process_state()
        tracer.on = True
        state = workload.setup(args.seed, seconds)
        traced = _timed_loop(workload, state, math.inf, max_ops=untraced.ops, calibrate=False)
    finally:
        tracer.uninstall()
    # Both passes ran the same ops: each is judged against one reference,
    # so the traced run's exact counts must equal the untraced run's.
    judged = _judge(workload, state, [untraced, traced])
    parent_cpu_s, worker_cpu_s = traced.extra["cpu_s"]
    layer = tracer.layer_metrics(
        traced.extra["window_ns"],
        workload.workers,
        {"parent_cpu_s": parent_cpu_s, "worker_cpu_s": worker_cpu_s},
    )
    spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    metrics = layer_metrics(workload, traced, untraced, layer)
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    attempted = sum(r.ops + (r.raised is not None) for r in (untraced, traced))
    return _result(judged, attempted, metrics, "= reference, untraced = traced")


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def layer_metrics(workload, traced, untraced, layer) -> dict:
    """Every per-layer metric of BENCHMARK.json, in its order.

    Span-derived values come from ``layer``; the exact counts (simulated
    events and cycles, planner and witness totals) come from the traced
    loop's outputs, which the reference check has just confirmed.
    """
    counts = workload.counts(traced.outputs)
    jobs = counts.get("planner.jobs", 0)
    values = dict(layer)
    values.update(
        {
            "sim.events": counts.get("sim.events", 0),
            "sim.cycles": counts.get("sim.cycles", 0),
            "planner.jobs_per_query": counts.get("planner.jobs_per_query", 0.0),
            "planner.saved_ratio": counts.get("planner.grid_jobs", 0) / jobs if jobs else 0.0,
            "witness.mined": counts.get("witness.mined", 0),
            "witness.pruned": counts.get("witness.pruned", 0),
            "witness.seeded_lines": counts.get("witness.seeded_lines", 0),
            "witness.store_size": traced.extra.get("store_size", 0),
            "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
        }
    )
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}


def _stop_helpers(workloads) -> None:
    """Unlink the shared-memory arena and stop its resource tracker.

    The shared-memory analysis tier starts multiprocessing's resource
    tracker, a helper process that would exit on its own after this
    one; the benchmark stops it and waits for it instead. The arena is
    unlinked first, or unlinking it at exit would start a new tracker.
    """
    from multiprocessing import resource_tracker

    workloads.reset_process_state()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    trace, workloads = _import_program()
    import_s = time.perf_counter() - _PROCESS_START
    import_s *= hostclock.REFERENCE_BLOCK_S / hostclock.typical(hostclock.sample_blocks())
    workload = workloads.make_workload(args.workload, os.cpu_count() or 1)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        flush=True,
    )
    try:
        if args.trace:
            result = run_traced(args, trace, workloads, workload, loadavg)
        else:
            result = run_plain(args, workloads, workload, import_s, loadavg)
    finally:
        _stop_helpers(workloads)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
