"""Backend-differential harness: serial, pool and shm must agree.

The backend contract (see :mod:`repro.sweep.backends`) promises that
every execution backend produces *byte-identical* RunSummary rows and
reducer summaries for the same job list — the transport (in-process,
pool pipe, shared-memory arena) may differ, the data may not. This
harness pins that contract on a seed sweep corpus spanning every
outcome class (completed, deadlock, timeout, infeasible), plus the shm
backend's structural edges: arena codec round-trips, string overflow
spill to the pipe, unwritten-slot detection and on-demand hydration.
"""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ArrayConfig
from repro.algorithms.figures import fig7_program, fig8_program
from repro.errors import ConfigError, ReproError
from repro.sweep import (
    ROW_SIZE,
    CompletedCount,
    DeadlockRateByConfig,
    MakespanHistogram,
    PerConfigMakespan,
    QuantileReducer,
    ResultHandle,
    RunSummary,
    SimJob,
    SummaryArena,
    SweepPlan,
    SweepSession,
    available_backends,
    get_backend,
    sweep_jobs,
)
from repro.sweep.arena import ERROR_CAP, KIND_CAP, POLICY_CAP, decode_row, encode_row
from repro.sweep.backends import run_record
from repro.workloads import ensemble_programs

BACKENDS = ("serial", "pool", "shm")


def seed_corpus_jobs() -> list[SimJob]:
    """The seed sweep corpus: every outcome class, several programs.

    fig7 x {ordered, fcfs} x {1, 2} queues covers completed and
    deadlocked runs (fcfs q=1 deadlocks on Fig. 7); fig8 x {ordered,
    static} x {1, 2} covers infeasible corners (strict ordered/static
    with one queue need two); the random ensemble adds buffered-queue
    variety; the truncated jobs cover timeouts.
    """
    ensemble = ensemble_programs(3, cells=5, messages=8, max_length=3, base_seed=3)
    jobs: list[SimJob] = []
    jobs += sweep_jobs(
        fig7_program(), policies=("ordered", "fcfs"), queues=(1, 2)
    )
    jobs += sweep_jobs(
        fig8_program(), policies=("ordered", "static"), queues=(1, 2)
    )
    jobs += sweep_jobs(
        ensemble[0], queues=(1, 8), capacities=(0, 2), repeat=2
    )
    jobs += [SimJob(p, config=ArrayConfig(queues_per_link=8)) for p in ensemble]
    jobs += [
        SimJob(ensemble[1], config=ArrayConfig(queues_per_link=8), max_events=3)
    ]
    return jobs


def fresh_reducers():
    return (
        CompletedCount(),
        MakespanHistogram(bucket_width=8),
        DeadlockRateByConfig(),
        PerConfigMakespan(),
        QuantileReducer((0.5, 0.95, 0.99)),
    )


def run_backend(backend: str, jobs):
    reducers = fresh_reducers()
    plan = SweepPlan(
        jobs=jobs,
        reducers=reducers,
        backend=backend,
        workers=2,
        chunk_size=3,
    )
    outcome = SweepSession(plan).run()
    summaries = {r.name: r.summary() for r in reducers}
    return outcome, summaries


class TestBackendDifferential:
    @pytest.fixture(scope="class")
    def corpus(self):
        return seed_corpus_jobs()

    @pytest.fixture(scope="class")
    def per_backend(self, corpus):
        return {b: run_backend(b, corpus) for b in BACKENDS}

    def test_corpus_covers_every_outcome(self, per_backend):
        rows = per_backend["serial"][0].rows
        assert {row.outcome for row in rows} == {
            "completed",
            "deadlock",
            "timeout",
            "infeasible",
        }

    def test_rows_identical_across_backends(self, per_backend):
        serial_rows = per_backend["serial"][0].rows
        for backend in ("pool", "shm"):
            assert per_backend[backend][0].rows == serial_rows

    def test_rows_byte_identical_as_json(self, per_backend):
        def dump(outcome):
            return json.dumps(
                [row.__dict__ for row in outcome.rows], sort_keys=True
            ).encode()

        serial = dump(per_backend["serial"][0])
        for backend in ("pool", "shm"):
            assert dump(per_backend[backend][0]) == serial

    def test_reducer_summaries_byte_identical(self, per_backend):
        serial = json.dumps(per_backend["serial"][1], sort_keys=True).encode()
        for backend in ("pool", "shm"):
            current = json.dumps(
                per_backend[backend][1], sort_keys=True
            ).encode()
            assert current == serial

    def test_rows_are_in_job_order(self, per_backend, corpus):
        for backend in BACKENDS:
            rows = per_backend[backend][0].rows
            assert [row.index for row in rows] == list(range(len(corpus)))

    def test_shm_hydration_matches_serial_results(self, per_backend):
        serial_results = per_backend["serial"][0].results()
        shm_outcome = per_backend["shm"][0]
        assert not any(h.hydrated for h in shm_outcome.handles)
        shm_results = shm_outcome.results()
        assert all(h.hydrated for h in shm_outcome.handles)
        for got, want in zip(shm_results, serial_results):
            assert type(got) is type(want)
            if isinstance(want, Exception) or not hasattr(want, "received"):
                assert got == want  # BatchError
                continue
            assert got.completed == want.completed
            assert got.time == want.time
            assert got.events == want.events
            assert got.received == want.received
            assert got.assignment_trace == want.assignment_trace

    def test_stream_matches_run_rows(self, corpus):
        for backend in BACKENDS:
            plan = SweepPlan(
                jobs=corpus, backend=backend, workers=2, chunk_size=3
            )
            streamed = list(SweepSession(plan).stream())
            assert streamed == run_backend(backend, corpus)[0].rows


class TestSessionValidation:
    def test_unknown_backend_rejected(self, fig7):
        plan = SweepPlan(jobs=[SimJob(fig7)], backend="quantum")
        with pytest.raises(ConfigError, match="unknown execution backend"):
            SweepSession(plan)

    def test_invalid_workers_and_chunk_size(self, fig7):
        with pytest.raises(ConfigError):
            SweepSession(SweepPlan(jobs=[SimJob(fig7)], workers=0))
        with pytest.raises(ConfigError):
            SweepSession(SweepPlan(jobs=[SimJob(fig7)], chunk_size=0))
        with pytest.raises(ConfigError):
            SweepSession(SweepPlan(jobs=[SimJob(fig7)], on_error="bogus"))

    def test_backend_registry_lists_builtins(self):
        assert set(BACKENDS) <= set(available_backends())
        assert get_backend("serial").name == "serial"

    def test_auto_backend_resolution(self, fig7):
        assert SweepSession(SweepPlan(jobs=[])).backend.name == "serial"
        assert (
            SweepSession(SweepPlan(jobs=[], workers=3)).backend.name == "pool"
        )

    def test_auto_backend_is_serial_on_one_cpu(self, monkeypatch):
        import os

        def auto_backend():
            return SweepSession(SweepPlan(jobs=[], workers=3)).backend.name

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert auto_backend() == "serial"
        # An unknown CPU count counts as more than one.
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert auto_backend() == "pool"

    def test_empty_jobs(self):
        for backend in BACKENDS:
            plan = SweepPlan(jobs=[], backend=backend, workers=2)
            outcome = SweepSession(plan).run()
            assert outcome.rows == [] and outcome.handles == []

    def test_on_error_raise_propagates_from_every_backend(self, fig8):
        jobs = sweep_jobs(fig8, policies=("static",), queues=(1,))
        for backend in BACKENDS:
            plan = SweepPlan(
                jobs=jobs, backend=backend, workers=2, on_error="raise"
            )
            with pytest.raises(ConfigError):
                list(SweepSession(plan).stream())


def _row(**kw):
    base = dict(
        index=0, completed=True, deadlocked=False, timed_out=False,
        time=10, events=5, words=3, policy="ordered", queues=1, capacity=0,
    )
    base.update(kw)
    return RunSummary(**base)


class TestArenaCodec:
    def test_roundtrip_plain_row(self):
        buf = bytearray(ROW_SIZE * 2)
        row = _row(index=7, time=123, events=456, words=789)
        assert encode_row(buf, 1, row)
        assert decode_row(buf, 1, 7) == row

    def test_roundtrip_error_row(self):
        buf = bytearray(ROW_SIZE)
        row = _row(
            completed=False,
            error_kind="ConfigError",
            error="static policy needs 2 queues on link L, got 1",
        )
        assert encode_row(buf, 0, row)
        assert decode_row(buf, 0, 0) == row

    def test_empty_error_string_distinct_from_none(self):
        buf = bytearray(ROW_SIZE)
        row = _row(completed=False, error_kind="X", error="")
        assert encode_row(buf, 0, row)
        decoded = decode_row(buf, 0, 0)
        assert decoded.error == "" and decoded.error_kind == "X"
        row2 = _row(completed=False, error_kind=None, error=None)
        assert encode_row(buf, 0, row2)
        decoded2 = decode_row(buf, 0, 0)
        assert decoded2.error is None and decoded2.error_kind is None

    def test_overflow_returns_false(self):
        buf = bytearray(ROW_SIZE)
        assert not encode_row(buf, 0, _row(policy="p" * (POLICY_CAP + 1)))
        assert not encode_row(
            buf, 0, _row(error_kind="k" * (KIND_CAP + 1), completed=False)
        )
        assert not encode_row(
            buf, 0, _row(error="e" * (ERROR_CAP + 1), completed=False)
        )
        # Multibyte utf-8 overflows by *bytes*, not characters.
        assert not encode_row(buf, 0, _row(policy="é" * (POLICY_CAP // 2 + 1)))

    def test_unwritten_slot_raises(self):
        arena = SummaryArena.create(2)
        try:
            assert arena.write_row(0, _row())
            arena.read_row(0)
            with pytest.raises(ReproError, match="never written"):
                arena.read_row(1)
            with pytest.raises(ReproError, match="out of range"):
                arena.read_row(2)
        finally:
            arena.close()
            arena.unlink()

    @settings(max_examples=60, deadline=None)
    @given(
        time=st.integers(min_value=0, max_value=2**62),
        events=st.integers(min_value=0, max_value=2**62),
        words=st.integers(min_value=0, max_value=2**62),
        queues=st.integers(min_value=0, max_value=2**31 - 1),
        capacity=st.integers(min_value=0, max_value=2**31 - 1),
        completed=st.booleans(),
        deadlocked=st.booleans(),
        timed_out=st.booleans(),
        policy=st.text(max_size=POLICY_CAP),
        error=st.none() | st.text(max_size=40),
    )
    def test_roundtrip_property(
        self, time, events, words, queues, capacity,
        completed, deadlocked, timed_out, policy, error,
    ):
        row = RunSummary(
            index=3,
            completed=completed,
            deadlocked=deadlocked,
            timed_out=timed_out,
            time=time,
            events=events,
            words=words,
            policy=policy,
            queues=queues,
            capacity=capacity,
            error_kind=None if error is None else "Err",
            error=error,
        )
        buf = bytearray(ROW_SIZE)
        if encode_row(buf, 0, row):
            assert decode_row(buf, 0, 3) == row
        else:  # only a byte-budget overflow may refuse
            assert (
                len(policy.encode()) > POLICY_CAP
                or (error is not None and len(error.encode()) > ERROR_CAP)
            )


class TestSegmentedArena:
    """Segment-boundary edges of the growable arena."""

    def test_boundary_slots_roundtrip_across_segments(self):
        arena = SummaryArena.create(10, segment_rows=4)
        try:
            # Last slot of segment 0, first of segment 1, last valid slot.
            for slot in (3, 4, 9):
                assert arena.write_row(slot, _row(index=slot, time=slot))
                assert arena.read_row(slot).time == slot
            with pytest.raises(ReproError, match="out of range"):
                arena.read_row(10)
        finally:
            arena.close()
            arena.unlink()

    def test_segment_rows_must_be_positive(self):
        with pytest.raises(ReproError, match="segment_rows"):
            SummaryArena.create(1, segment_rows=0)

    def test_attacher_maps_segments_lazily_and_closes_them_all(self):
        arena = SummaryArena.create(9, segment_rows=4)
        try:
            for slot in range(9):
                assert arena.write_row(slot, _row(index=slot, events=slot))
            other = SummaryArena.attach(arena.name, 9, segment_rows=4)
            try:
                got = [other.read_row(slot).events for slot in range(9)]
                assert got == list(range(9))
            finally:
                other.close()
        finally:
            arena.close()
            arena.unlink()

    def test_unwritten_slot_in_lazily_attached_segment(self):
        arena = SummaryArena.create(8, segment_rows=4)
        try:
            other = SummaryArena.attach(
                arena.name, 8, segment_rows=4, lazy=True
            )
            try:
                with pytest.raises(ReproError, match="never written"):
                    other.read_row(5)  # segment 1 exists, slot untouched
            finally:
                other.close()
        finally:
            arena.close()
            arena.unlink()

    def test_unallocated_segment_reads_as_unwritten(self):
        from repro.errors import ArenaSlotUnwritten

        arena = SummaryArena.create(4, segment_rows=4)  # only segment 0
        try:
            other = SummaryArena.attach(
                arena.name, 12, segment_rows=4, lazy=True
            )
            try:
                with pytest.raises(ArenaSlotUnwritten, match="does not exist"):
                    other.read_row(8)  # segment 2 was never allocated
            finally:
                other.close()
        finally:
            arena.close()
            arena.unlink()

    def test_overflow_refusal_in_later_segment(self):
        arena = SummaryArena.create(6, segment_rows=2)
        try:
            big = _row(
                completed=False,
                error_kind="E",
                error="e" * (ERROR_CAP + 1),
            )
            assert not arena.write_row(5, big)  # slot in segment 2
            with pytest.raises(ReproError, match="never written"):
                arena.read_row(5)
        finally:
            arena.close()
            arena.unlink()

    def test_retire_below_frees_leading_segments(self):
        arena = SummaryArena.create(0, segment_rows=2)
        try:
            arena.ensure_rows(6)  # segments 0, 1, 2
            assert arena.max_live_segments == 3
            for slot in range(6):
                assert arena.write_row(slot, _row(index=slot))
            arena.retire_below(4)  # segments 0 and 1 are fully drained
            with pytest.raises(ReproError, match="retired"):
                arena.read_row(1)
            assert arena.read_row(4).index == 4
            # The freed segment names are really gone from the host.
            with pytest.raises(FileNotFoundError):
                SummaryArena.attach(f"{arena.name}_s1", 2, segment_rows=2)
            # Growth after retirement tracks *live* segments only.
            arena.ensure_rows(8)
            assert arena.max_live_segments == 3
        finally:
            arena.close()
            arena.unlink()

    def test_only_owner_grows_or_retires(self):
        arena = SummaryArena.create(2, segment_rows=2)
        try:
            other = SummaryArena.attach(arena.name, 2, segment_rows=2)
            try:
                with pytest.raises(ReproError, match="owner"):
                    other.ensure_rows(4)
                with pytest.raises(ReproError, match="owner"):
                    other.retire_below(2)
            finally:
                other.close()
        finally:
            arena.close()
            arena.unlink()


class TestShmStreaming:
    """The shm backend consumes a lazy job stream without materializing.

    Acceptance edges: generator input produces byte-identical rows to a
    materialized list, the stream is pulled incrementally (never more
    than the in-flight window ahead of the consumer), and peak shared
    memory stays at a few live segments however long the sweep is.
    """

    def test_generator_rows_byte_identical_to_list(self):
        jobs = [
            SimJob(fig7_program(), policy=policy)
            for policy in ("ordered", "fcfs")
        ] * 3

        plan_list = SweepPlan(
            jobs=jobs, backend="shm", workers=2, chunk_size=2
        )
        plan_gen = SweepPlan(
            jobs=iter(jobs), backend="shm", workers=2, chunk_size=2
        )
        assert list(SweepSession(plan_gen).stream()) == list(
            SweepSession(plan_list).stream()
        )

    def test_stream_pulled_incrementally_with_bounded_segments(
        self, monkeypatch
    ):
        import repro.sweep.arena as arena_mod

        monkeypatch.setattr(arena_mod, "DEFAULT_SEGMENT_ROWS", 2)
        captured = []
        real_create = arena_mod.SummaryArena.create.__func__

        def recording_create(cls, n_rows, **kwargs):
            arena = real_create(cls, n_rows, **kwargs)
            captured.append(arena)
            return arena

        monkeypatch.setattr(
            arena_mod.SummaryArena, "create", classmethod(recording_create)
        )

        n_jobs, workers, chunk = 24, 2, 2
        pulled = 0

        def gen():
            nonlocal pulled
            for _ in range(n_jobs):
                pulled += 1
                yield SimJob(fig7_program())

        plan = SweepPlan(
            jobs=gen(), backend="shm", workers=workers, chunk_size=chunk
        )
        seen = 0
        # The dispatch window holds workers*2 chunks plus the one being
        # built; anything pulled beyond that would mean materializing.
        bound = (workers * 2 + 1) * chunk
        for _row_ in SweepSession(plan).stream():
            seen += 1
            assert pulled <= seen + bound
        assert seen == n_jobs
        assert pulled == n_jobs
        [arena] = captured
        assert arena.n_rows == n_jobs
        # Peak footprint: the in-flight window's worth of segments (each
        # 2 rows here), nowhere near the 12 a materialized arena needs.
        assert arena.max_live_segments <= bound // 2 + 1


class TestShmOverflowSpill:
    def test_long_error_rows_spill_to_pipe_and_stay_exact(self, monkeypatch):
        """Rows the arena cannot hold must arrive via the pipe, unaltered."""
        import repro.sweep.backends.shm as shm_mod

        long_error = "x" * (ERROR_CAP + 50)
        real_run_record = shm_mod.run_record

        def lying_run_record(index, job, **kwargs):
            record = real_run_record(index, job, **kwargs)
            if index % 2 == 0:
                row = RunSummary(
                    **{**record.row.__dict__, "error_kind": "Fake", "error": long_error}
                )
                return record._replace(row=row)
            return record

        monkeypatch.setattr(shm_mod, "run_record", lying_run_record)
        jobs = [SimJob(fig7_program()) for _ in range(4)]
        plan = SweepPlan(jobs=jobs, backend="shm", workers=1, chunk_size=2)
        rows = list(SweepSession(plan).stream())
        assert [row.index for row in rows] == [0, 1, 2, 3]
        assert rows[0].error == long_error and rows[2].error == long_error
        assert rows[1].error is None and rows[3].error is None

    def test_spill_from_non_first_segment(self, monkeypatch):
        """Overflow rows spill through the pipe from *later* segments too."""
        import repro.sweep.arena as arena_mod
        import repro.sweep.backends.shm as shm_mod

        monkeypatch.setattr(arena_mod, "DEFAULT_SEGMENT_ROWS", 2)
        long_error = "x" * (ERROR_CAP + 50)
        real_run_record = shm_mod.run_record

        def lying_run_record(index, job, **kwargs):
            record = real_run_record(index, job, **kwargs)
            if index >= 4:  # slots in segment 2 and beyond
                row = RunSummary(
                    **{**record.row.__dict__, "error_kind": "Fake", "error": long_error}
                )
                return record._replace(row=row)
            return record

        monkeypatch.setattr(shm_mod, "run_record", lying_run_record)
        jobs = [SimJob(fig7_program()) for _ in range(6)]
        plan = SweepPlan(jobs=iter(jobs), backend="shm", workers=2, chunk_size=2)
        rows = list(SweepSession(plan).stream())
        assert [row.index for row in rows] == list(range(6))
        assert rows[4].error == long_error and rows[5].error == long_error
        assert rows[0].error is None and rows[3].error is None

    def test_unpicklable_chunk_falls_back_in_process(self):
        from repro import COMPUTE, ArrayProgram, Message, R, W

        lam = ArrayProgram(
            ["C1", "C2"],
            [Message("A", "C1", "C2", 1)],
            {
                "C1": [W("A", constant=2.0)],
                "C2": [R("A", into="x"), COMPUTE("y", lambda v: v + 1, ["x"])],
            },
        )
        jobs = [SimJob(fig7_program()), SimJob(lam)]
        plan = SweepPlan(jobs=jobs, backend="shm", workers=2, chunk_size=1)
        outcome = SweepSession(plan).run()
        assert [row.index for row in outcome.rows] == [0, 1]
        assert all(row.completed for row in outcome.rows)
        assert outcome.handles[1].result().registers["C2"]["y"] == 3.0


def _explode(value):
    raise ReproError("compute op failed mid-run")


def _teardown_job(policy: str, case: str) -> SimJob:
    """One job of ``case`` (an outcome, or where an error strikes)."""
    from repro.algorithms.figures import fig2_fir, fig2_registers, fig5_p3
    from repro.core.message import Message
    from repro.core.ops import COMPUTE, R, W
    from repro.core.program import ArrayProgram

    two = ArrayConfig(queues_per_link=2)
    if case == "completed":
        return SimJob(fig2_fir(), two, policy, registers=fig2_registers())
    if case == "deadlocked":
        return SimJob(fig5_p3(), two, policy)
    if case == "timed_out":
        return SimJob(fig2_fir(), two, policy, registers=fig2_registers(), max_events=5)
    if case == "setup_error":  # too few queues for the link's messages
        return SimJob(fig8_program(), ArrayConfig(queues_per_link=1), policy)
    assert case == "run_error"
    program = ArrayProgram(
        ["C1", "C2"],
        [Message("A", "C1", "C2", 1)],
        {
            "C1": [W("A", constant=2.0)],
            "C2": [R("A", into="x"), COMPUTE("y", _explode, ["x"])],
        },
    )
    return SimJob(program, two, policy)


#: Every outcome under every policy, plus both places an infeasible row
#: comes from: a set-up refusal (ordered and static check their queues;
#: FCFS has no set-up check to fail) and an error raised mid-run.
TEARDOWN_CASES = [
    (policy, case)
    for policy in ("ordered", "static", "fcfs")
    for case in ("completed", "deadlocked", "timed_out", "setup_error", "run_error")
    if not (policy == "fcfs" and case == "setup_error")
]


class TestRunRecordTeardown:
    """The runner frees each run by reference counting alone."""

    @pytest.mark.parametrize("policy, case", TEARDOWN_CASES)
    def test_no_cyclic_garbage_left(self, policy, case):
        job = _teardown_job(policy, case)
        modes = [
            {"want_result": False, "mine": False},
            {"want_result": True, "mine": True},
        ]
        # Warm the analysis cache first: only the run itself is on trial.
        first = run_record(0, job, collect_errors=True, **modes[0])
        expected = {
            "setup_error": "infeasible",
            "run_error": "infeasible",
            "deadlocked": "deadlock",
            "timed_out": "timeout",
        }.get(case, case)
        assert first.row.outcome == expected
        gc.collect()
        gc.disable()
        try:
            for mode in modes:
                record = run_record(0, job, collect_errors=True, **mode)
                assert record.row == first.row
                assert gc.collect() == 0, mode
            if not case.endswith("error"):
                job.run()
                assert gc.collect() == 0, "SimJob.run"
        finally:
            gc.enable()


class TestResultHandle:
    def test_materialized_handle_never_reruns(self, fig7):
        job = SimJob(fig7)
        sentinel = object()
        handle = ResultHandle(_row(), job, False, result=sentinel)
        assert handle.hydrated
        assert handle.result() is sentinel

    def test_lazy_handle_runs_once_and_caches(self, fig7):
        handle = ResultHandle(_row(), SimJob(fig7), False)
        first = handle.result()
        assert first.completed
        assert handle.result() is first


class TestWorkerContextCrossingBackend:
    """The crossing-backend preference rides WorkerContext to workers."""

    @pytest.fixture(autouse=True)
    def _restore_backend(self):
        from repro.core.crossing import configure_crossing_backend

        previous = configure_crossing_backend(None)
        yield
        configure_crossing_backend(previous)

    def test_capture_snapshots_configured_preference(self):
        from repro.core.crossing import configure_crossing_backend
        from repro.sweep.backends import WorkerContext

        assert WorkerContext.capture().crossing_backend is None
        configure_crossing_backend("interned")
        ctx = WorkerContext.capture()
        assert ctx.crossing_backend == "interned"
        # Explicit disk_cache path carries the preference too.
        assert WorkerContext.capture("/tmp/x").crossing_backend == "interned"

    def test_apply_installs_preference(self):
        from repro.core.crossing import configured_crossing_backend
        from repro.sweep.backends import WorkerContext

        WorkerContext(crossing_backend="interned").apply()
        assert configured_crossing_backend() == "interned"
        # A context with no preference leaves the current one alone.
        WorkerContext().apply()
        assert configured_crossing_backend() == "interned"

    def test_pool_workers_inherit_preference(self, fig7):
        from repro.core.crossing import configure_crossing_backend

        configure_crossing_backend("interned")
        plan = SweepPlan(
            jobs=sweep_jobs(fig7, policies=("ordered",), queues=(1, 2)),
            backend="pool",
            workers=2,
        )
        rows = [h.summary for h in SweepSession(plan).run().handles]
        assert [row.outcome for row in rows] == ["completed", "completed"]
