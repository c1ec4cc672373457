"""E17 — cold-cache analysis throughput: the compile-time half at scale.

PR 1 made the run-time simulator fast; the compile-time crossing-off
procedure then dominated cold-cache ensemble runs (~85% of an uncached
buffered fir16x32 run was analysis). The incremental crossing engine —
one readiness-scan drive loop per stepping mode, rescanning only the
cells a crossing touched — targets exactly that.

Three claims, recorded into ``BENCH_core.json``:

* **cold crossing-off** — one sequential lookahead run over fir16x32
  (what ``constraint_labeling`` drives during buffered-config analysis)
  in single-digit milliseconds;
* **ensemble analysis** — 100 *distinct* fir-class programs fully
  analysed cold (capacities + constraint labeling, no cache reuse
  possible) at a rate that keeps classification off the critical path;
* **streamed sweep** — a large repeat sweep through
  :meth:`SweepSession.stream` with O(1) retained results sustains
  batch-runner throughput.

Expected shape: per-program cold analysis is several times faster than
the PR 1 baseline implied (51.5 ms uncached vs 7.4 ms cached per run —
~44 ms of analysis); streamed rows agree with the jobs' own runs.
"""

import time

from repro.algorithms.fir import fir_program
from repro.arch.config import ArrayConfig
from repro.arch.routing import default_router
from repro.arch.topology import ExplicitLinear
from repro.core.crossing import cross_off, route_capacities
from repro.core.labeling import constraint_labeling
from repro.sweep import (
    CompletedCount,
    SimJob,
    SweepPlan,
    SweepSession,
    iter_sweep_jobs,
)


def _fir_family(count: int):
    """``count`` structurally distinct fir-class programs."""
    programs = []
    taps, outputs = 4, 8
    for index in range(count):
        programs.append(fir_program(taps + index % 13, outputs + index))
    return programs


def _lookahead_for(program, capacity=2):
    router = default_router(ExplicitLinear(tuple(program.cells)))
    return route_capacities(program, router, capacity)


def test_cold_crossing_off_fir16x32(benchmark, core_metrics):
    prog = fir_program(16, 32)
    lookahead = _lookahead_for(prog)

    def run():
        return cross_off(prog, lookahead=lookahead, mode="sequential")

    result = benchmark(run)
    assert result.deadlock_free

    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        result = run()
        samples.append(time.perf_counter() - t0)
    seconds = min(samples)
    core_metrics(
        "cross_off_cold_fir16x32_cap2",
        events=result.pairs_crossed,
        seconds=seconds,
        pairs=result.pairs_crossed,
        ms_per_run=round(seconds * 1e3, 3),
    )


def test_cold_analysis_fir_ensemble(benchmark, core_metrics):
    """100 distinct fir-class programs, full cold analysis each."""
    programs = _fir_family(100)

    def analyse_all():
        labelings = []
        for prog in programs:
            labelings.append(
                constraint_labeling(prog, lookahead=_lookahead_for(prog))
            )
        return labelings

    labelings = benchmark(analyse_all)
    assert len(labelings) == len(programs)
    assert all(len(labeling) > 0 for labeling in labelings)

    t0 = time.perf_counter()
    analyse_all()
    seconds = time.perf_counter() - t0
    total_pairs = sum(p.total_words for p in programs)
    core_metrics(
        "analysis_cold_fir_ensemble_x100",
        events=total_pairs,
        seconds=seconds,
        programs=len(programs),
        ms_per_program=round(seconds / len(programs) * 1e3, 3),
    )


def test_streamed_sweep_matches_collected(benchmark, core_metrics):
    prog = fir_program(8, 16)
    repeat = 50

    def stream_sweep():
        outcomes = CompletedCount()
        jobs = iter_sweep_jobs(prog, queues=(1,), capacities=(2,), repeat=repeat)
        plan = SweepPlan(jobs=jobs, reducers=(outcomes,), chunk_size=32)
        for _row in SweepSession(plan).stream():
            pass
        return outcomes

    outcomes = benchmark(stream_sweep)
    assert outcomes.total == repeat
    assert outcomes.completed == repeat

    t0 = time.perf_counter()
    outcomes = stream_sweep()
    seconds = time.perf_counter() - t0
    core_metrics(
        "stream_sweep_fir8x16_x50",
        events=outcomes.total,
        seconds=seconds,
        runs_per_sec=round(outcomes.total / seconds),
    )


def test_streamed_outcomes_agree_with_batch():
    """Correctness guard: streamed rows classify as the jobs' runs do."""
    prog = fir_program(4, 8)
    jobs = [
        SimJob(prog, config=ArrayConfig(queue_capacity=2)) for _ in range(8)
    ]
    plan = SweepPlan(jobs=iter(jobs), chunk_size=32)
    rows = list(SweepSession(plan).stream())
    results = [job.run() for job in jobs]
    assert [r.completed for r in rows] == [r.completed for r in results]
    assert [r.time for r in rows] == [r.time for r in results]
