"""Backend-differential harness: serial and pool must agree.

The backend contract (see :mod:`repro.sweep.backends`) promises that
every execution backend produces *byte-identical* RunSummary rows and
reducer summaries for the same job list — a row may be built in
process or cross a worker's pipe, but the data may not differ. This
harness pins that contract on a seed sweep corpus spanning every
outcome class (completed, deadlock, timeout, infeasible), plus the
full results the pool backend ships and the in-process fallback for
chunks that cannot pickle.
"""

import gc
import json

import pytest

from repro import ArrayConfig
from repro.algorithms.figures import fig7_program, fig8_program
from repro.errors import ConfigError, ReproError
from repro.sweep import (
    CompletedCount,
    DeadlockRateByConfig,
    MakespanHistogram,
    PerConfigMakespan,
    QuantileReducer,
    ResultHandle,
    RunSummary,
    SimJob,
    SweepPlan,
    SweepSession,
    available_backends,
    get_backend,
    sweep_jobs,
)
from repro.sweep.backends import run_record
from repro.workloads import ensemble_programs

BACKENDS = ("serial", "pool")


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
        assert per_backend["pool"][0].rows == serial_rows

    def test_rows_byte_identical_as_json(self, per_backend):
        def dump(outcome):
            return json.dumps(
                [row.__dict__ for row in outcome.rows], sort_keys=True
            ).encode()

        serial = dump(per_backend["serial"][0])
        assert dump(per_backend["pool"][0]) == serial

    def test_reducer_summaries_byte_identical(self, per_backend):
        serial = json.dumps(per_backend["serial"][1], sort_keys=True).encode()
        pool = json.dumps(per_backend["pool"][1], sort_keys=True).encode()
        assert pool == serial

    def test_rows_are_in_job_order(self, per_backend, corpus):
        for backend in BACKENDS:
            rows = per_backend[backend][0].rows
            assert [row.index for row in rows] == list(range(len(corpus)))

    def test_pool_ships_every_full_result(self, per_backend):
        serial_results = per_backend["serial"][0].results()
        pool_outcome = per_backend["pool"][0]
        # Handles arrive materialized: nothing re-runs in the parent.
        assert all(h.hydrated for h in pool_outcome.handles)
        for got, want in zip(pool_outcome.results(), serial_results):
            assert type(got) is type(want)
            if not hasattr(want, "received"):
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
        assert available_backends() == ("pool", "serial")
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


class TestPoolFallback:
    """A chunk whose programs cannot pickle runs in the parent instead."""

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
        plan = SweepPlan(jobs=jobs, backend="pool", workers=2, chunk_size=1)
        outcome = SweepSession(plan).run()
        assert [row.index for row in outcome.rows] == [0, 1]
        assert all(row.completed for row in outcome.rows)
        # The in-parent chunk materializes its result like a worker does.
        assert outcome.handles[1].hydrated
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

    def test_apply_installs_preference(self):
        from repro.core.crossing import configured_crossing_backend
        from repro.sweep.backends import WorkerContext

        WorkerContext(crossing_backend="interned").apply()
        assert configured_crossing_backend() == "interned"
        # A context with no preference leaves the current one alone.
        WorkerContext().apply()
        assert configured_crossing_backend() == "interned"

    def test_session_leaves_parent_preference_alone(self, fig7):
        from repro.core.crossing import (
            configure_crossing_backend,
            configured_crossing_backend,
        )

        configure_crossing_backend("interned")
        session = SweepSession(
            SweepPlan(jobs=sweep_jobs(fig7, policies=("ordered",)))
        )
        configure_crossing_backend(None)
        rows = list(session.stream())
        assert [row.outcome for row in rows] == ["completed"]
        # The captured context is for workers; the parent's own
        # preference is the caller's to set.
        assert configured_crossing_backend() is None

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
