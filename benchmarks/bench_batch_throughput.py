"""E16 — fast-path core: engine dispatch, analysis caching, batch runner.

Three claims, each recorded into ``BENCH_core.json``:

* **engine dispatch** — the same-time FIFO fast lane processes pure
  ``after(0, ...)`` event streams at multi-million events/sec (the heap
  only sees strictly-future timestamps);
* **repeated-program ensembles** — simulating one program many times
  (policy ablations, Theorem-1 sweeps) amortises static analysis through
  the content-keyed cache; with buffered queues, whose analysis runs the
  full lookahead crossing-off, the cache still pays measurably — though
  far less dramatically than in PR 1, because the incremental crossing
  engine (see ``bench_crossing_cold.py``) made cold analysis itself
  ~5x cheaper;
* **batched ensembles** — a loop of :meth:`SimJob.run` over many
  distinct programs sustains the same throughput, the analysis cache
  shared across the batch.

Expected shape: cached ensemble beats uncached (the residual analysis
cost is real but no longer dominant); all ensemble runs complete;
dispatch rate far above workload event rates.
"""

import time

from conftest import recording_enabled

from repro import ArrayConfig, Simulator
from repro.algorithms.fir import fir_program, fir_registers
from repro.perf import clear_analysis_cache
from repro.sim.engine import Engine
from repro.sweep import SimJob
from repro.workloads import ensemble_programs

DISPATCH_EVENTS = 100_000
REPEAT_RUNS = 100


def _dispatch_chain(n: int) -> float:
    engine = Engine()
    remaining = [n]

    def chain():
        remaining[0] -= 1
        if remaining[0]:
            engine.after(0, chain)

    engine.after(0, chain)
    t0 = time.perf_counter()
    engine.run()
    dt = time.perf_counter() - t0
    assert engine.events_processed == n
    return dt


def test_engine_dispatch_rate(benchmark, core_metrics):
    dt = benchmark(lambda: _dispatch_chain(DISPATCH_EVENTS))
    core_metrics(
        "engine_same_time_dispatch", events=DISPATCH_EVENTS, seconds=dt
    )


def test_repeated_program_ensemble_cached(benchmark, core_metrics):
    """Same program 100x: the analysis cache pays after the first run.

    Buffered queues make static analysis run the full lookahead
    crossing-off, which is exactly what sweeps re-paid per run before
    the cache existed.
    """
    prog = fir_program(16, 32)
    regs = fir_registers(tuple(1.0 for _ in range(16)))
    config = ArrayConfig(queue_capacity=2)

    def cached_ensemble():
        clear_analysis_cache()
        jobs = [
            SimJob(prog, config=config, registers=regs)
            for _ in range(REPEAT_RUNS)
        ]
        return [job.run() for job in jobs]

    results = benchmark(cached_ensemble)
    assert len(results) == REPEAT_RUNS
    assert all(r.completed for r in results)
    assert all(r.time == results[0].time for r in results)

    if not recording_enabled():
        # Smoke mode: correctness only. Wall-clock ratios on a loaded CI
        # runner are noise, and the measurement itself costs seconds.
        return

    # Uncached cost, per run (the pre-cache world).
    uncached_runs = 3
    t0 = time.perf_counter()
    for _ in range(uncached_runs):
        result = Simulator(
            prog, config=config, registers=regs, reuse_analysis=False
        ).run()
        assert result.completed
    uncached_per_run = (time.perf_counter() - t0) / uncached_runs

    t0 = time.perf_counter()
    results = cached_ensemble()
    cached_total = time.perf_counter() - t0
    total_events = sum(r.events for r in results)
    total_words = sum(r.words_transferred for r in results)
    speedup = uncached_per_run * REPEAT_RUNS / cached_total
    core_metrics(
        "ensemble_repeated_fir16x32_cap2_x100",
        events=total_events,
        seconds=cached_total,
        words=total_words,
        uncached_ms_per_run=round(uncached_per_run * 1e3, 3),
        cached_ms_per_run=round(cached_total / REPEAT_RUNS * 1e3, 3),
        speedup_vs_uncached=round(speedup, 1),
    )
    # The cache must still pay end-to-end on repeated simulations of one
    # program. The bar was 5x when cold analysis cost ~44 ms/run; the
    # incremental crossing engine cut that to single-digit milliseconds,
    # so the residual cacheable cost bounds the ratio near 2x. Only
    # asserted on quiet recording machines — shared CI runners record
    # numbers for the relative regression guard but are too noisy for a
    # hard wall-clock ratio.
    import os

    if not os.environ.get("CI"):
        assert speedup >= 1.4


def test_distinct_program_ensemble_batched(benchmark, core_metrics):
    """40 distinct random programs, run one after another."""
    programs = ensemble_programs(40, cells=8, messages=12, max_length=4)
    config = ArrayConfig(queues_per_link=10)
    jobs = [SimJob(program, config=config) for program in programs]

    def batch():
        return [job.run() for job in jobs]

    results = benchmark(batch)
    assert len(results) == 40
    assert all(r.completed for r in results)

    t0 = time.perf_counter()
    results = batch()
    dt = time.perf_counter() - t0
    core_metrics(
        "ensemble_distinct_random_x40",
        events=sum(r.events for r in results),
        seconds=dt,
        words=sum(r.words_transferred for r in results),
    )
