"""Streaming result arena: the shm backend's bounded footprint.

``shm_stream_{10k,2k}`` — 10k jobs fed to the shm backend as a
*generator*, never materialized. Records rows/sec plus the arena's true
peak shared-memory footprint (``max_live_segments`` x segment bytes) and
the parent's ru_maxrss; asserts the peak stays at the in-flight window,
not the sweep length.

Smoke mode (no ``REPRO_BENCH_RECORD``) shrinks the sweep and checks only
correctness and the streaming peak bound.
"""

import os
import resource
import time

from conftest import recording_enabled

from repro import ArrayConfig
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.perf.analysis_cache import clear_analysis_cache
from repro.sweep import SimJob, SweepPlan, SweepSession
from repro.sweep.arena import ROW_SIZE

WORKERS = 2
CHUNK = 64
#: queue_capacity > 0 so the lookahead-capacities artifact is part of
#: every analysis (the Section 8 provisioning regime).
CONFIG = ArrayConfig(queue_capacity=2)


def cross_read_program(k: int) -> ArrayProgram:
    """A two-cell program that deadlocks at t=0 under every policy.

    A and B each read the message the other writes *last*, so the
    simulation pays only build + detection cost and the measurement
    stays on row transport. ``k`` payload messages set the program size.
    """
    cells = ["A", "B"]
    messages = [Message("B0", "A", "B", 1), Message("B1", "B", "A", 1)]
    a_ops = [R("B1", into="g")]
    b_ops = [R("B0", into="h")]
    for j in range(k):
        name = f"M{j}"
        messages.append(Message(name, "A", "B", 1))
        a_ops.append(W(name, constant=1.0))
        b_ops.append(R(name, into=f"x{j}"))
    a_ops.append(W("B0", constant=0.0))
    b_ops.append(W("B1", constant=0.0))
    return ArrayProgram(cells, messages, {"A": a_ops, "B": b_ops})


def test_streaming_shm_peak_rss(core_metrics, monkeypatch):
    """Generator job stream through the shm backend: bounded peak memory."""
    import repro.sweep.arena as arena_mod

    if recording_enabled():
        n_jobs, tag = (2_000, "2k") if os.environ.get("CI") else (10_000, "10k")
    else:
        n_jobs, tag = 200, "smoke"

    captured = []
    real_create = arena_mod.SummaryArena.create.__func__

    def recording_create(cls, n_rows, **kwargs):
        arena = real_create(cls, n_rows, **kwargs)
        captured.append(arena)
        return arena

    monkeypatch.setattr(
        arena_mod.SummaryArena, "create", classmethod(recording_create)
    )

    program = cross_read_program(4)

    def jobs():
        for _ in range(n_jobs):
            yield SimJob(program, config=CONFIG, policy="fcfs")

    try:
        plan = SweepPlan(
            jobs=jobs(), backend="shm", workers=WORKERS, chunk_size=CHUNK
        )
        t0 = time.perf_counter()
        seen = 0
        for row in SweepSession(plan).stream():
            assert row.deadlocked
            seen += 1
        wall = time.perf_counter() - t0
    finally:
        clear_analysis_cache()

    assert seen == n_jobs
    [arena] = captured
    segment_bytes = arena.segment_rows * ROW_SIZE
    window_rows = (WORKERS * 2 + 1) * CHUNK
    window_segments = -(-window_rows // arena.segment_rows) + 1
    # Peak footprint is the in-flight window, not the sweep length.
    assert arena.max_live_segments <= window_segments
    if not recording_enabled():
        return
    core_metrics(
        f"shm_stream_{tag}",
        events=seen,
        seconds=wall,
        rows=n_jobs,
        rows_per_sec=round(n_jobs / wall),
        arena_peak_bytes=arena.max_live_segments * segment_bytes,
        arena_peak_segments=arena.max_live_segments,
        arena_total_segments=-(-n_jobs // arena.segment_rows),
        ru_maxrss_mb=round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        workers=WORKERS,
    )
    print(
        f"[shm stream {tag}] {n_jobs/wall:.0f} rows/s, peak "
        f"{arena.max_live_segments} live segment(s) of "
        f"{-(-n_jobs // arena.segment_rows)} total"
    )
