"""Differential harness: a sweep run in process and on workers agree.

The sweep contract (see :mod:`repro.sweep.backends`) promises that the
serial loop and the pool of supervised workers produce *byte-identical*
RunSummary rows and reducer summaries for the same job list — a row may
be built in process or cross a worker's pipe, but the data may not
differ. This harness pins each side with ``SweepPlan.backend`` and
checks that contract on a seed sweep corpus spanning every outcome
class (completed, deadlock, timeout, infeasible), plus the in-process
fallback for chunks that cannot pickle.
"""

import gc
import json
import multiprocessing

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
    SimJob,
    SweepPlan,
    SweepSession,
    available_backends,
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
    rows = list(SweepSession(plan).stream())
    summaries = {r.name: r.summary() for r in reducers}
    return rows, summaries


class TestBackendDifferential:
    @pytest.fixture(scope="class")
    def corpus(self):
        return seed_corpus_jobs()

    @pytest.fixture(scope="class")
    def per_backend(self, corpus):
        return {b: run_backend(b, corpus) for b in BACKENDS}

    def test_corpus_covers_every_outcome(self, per_backend):
        rows = per_backend["serial"][0]
        assert {row.outcome for row in rows} == {
            "completed",
            "deadlock",
            "timeout",
            "infeasible",
        }

    def test_rows_identical_across_backends(self, per_backend):
        assert per_backend["pool"][0] == per_backend["serial"][0]

    def test_rows_byte_identical_as_json(self, per_backend):
        def dump(rows):
            return json.dumps(
                [row.__dict__ for row in rows], sort_keys=True
            ).encode()

        serial = dump(per_backend["serial"][0])
        assert dump(per_backend["pool"][0]) == serial

    def test_reducer_summaries_byte_identical(self, per_backend):
        serial = json.dumps(per_backend["serial"][1], sort_keys=True).encode()
        pool = json.dumps(per_backend["pool"][1], sort_keys=True).encode()
        assert pool == serial

    def test_rows_are_in_job_order(self, per_backend, corpus):
        for backend in BACKENDS:
            rows = per_backend[backend][0]
            assert [row.index for row in rows] == list(range(len(corpus)))


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

    def test_backend_registry_lists_builtins(self):
        assert available_backends() == ("pool", "serial")

    def test_auto_backend_resolution(self, fig7):
        assert SweepSession(SweepPlan(jobs=[])).backend == "serial"
        assert SweepSession(SweepPlan(jobs=[], workers=3)).backend == "pool"

    def test_auto_backend_is_serial_on_one_cpu(self, monkeypatch):
        import os

        def auto_backend():
            return SweepSession(SweepPlan(jobs=[], workers=3)).backend

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert auto_backend() == "serial"
        # An unknown CPU count counts as more than one.
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert auto_backend() == "pool"

    def test_empty_jobs(self):
        for backend in BACKENDS:
            plan = SweepPlan(jobs=[], backend=backend, workers=2)
            assert list(SweepSession(plan).stream()) == []

    def test_errors_are_rows_or_raised_on_every_backend(self, fig7, fig8):
        """A ReproError is a row; anything else propagates in job order."""
        infeasible = sweep_jobs(fig8, policies=("static",), queues=(1,))
        # max_events="bad" makes the engine raise a TypeError.
        jobs = infeasible + [SimJob(fig7, max_events="bad"), SimJob(fig7)]
        for backend in BACKENDS:
            plan = SweepPlan(jobs=jobs, backend=backend, workers=2, chunk_size=1)
            rows = []
            with pytest.raises(TypeError):
                for row in SweepSession(plan).stream():
                    rows.append(row)
            assert [row.error_kind for row in rows] == ["ConfigError"]
            assert multiprocessing.active_children() == []


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
        rows = list(SweepSession(plan).stream())
        assert [row.index for row in rows] == [0, 1]
        assert all(row.completed for row in rows)

    def test_parsed_program_with_delays_runs_in_the_workers(self, monkeypatch):
        from repro.algorithms.figures import fig2_fir
        from repro.lang import parse_program, print_program
        from repro.sweep.backends.supervise import Supervisor

        inline = []
        real_run_inline = Supervisor._run_inline

        def recording_run_inline(self, items):
            inline.append(len(items))
            real_run_inline(self, items)

        monkeypatch.setattr(Supervisor, "_run_inline", recording_run_inline)
        program = parse_program(print_program(fig2_fir()))
        jobs = sweep_jobs(
            program,
            policies=("ordered", "static", "fcfs"),
            queues=(1, 2, 3),
            capacities=(0, 2),
            repeat=2,
        )
        rows = {
            backend: list(
                SweepSession(
                    SweepPlan(jobs=jobs, backend=backend, workers=2, chunk_size=4)
                ).stream()
            )
            for backend in BACKENDS
        }
        assert inline == []
        assert rows["pool"] == rows["serial"]


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
        modes = [{"mine": False}, {"mine": True}]
        # Warm the analysis cache first: only the run itself is on trial.
        first = run_record(0, job, **modes[0])
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
                record = run_record(0, job, **mode)
                assert record.row == first.row
                assert gc.collect() == 0, mode
            if not case.endswith("error"):
                job.run()
                assert gc.collect() == 0, "SimJob.run"
        finally:
            gc.enable()


def _pinned_to_columnar(_value):
    """1.0 when this process resolves a tiny program to columnar, else a
    :class:`ReproError` (an infeasible row).

    ``auto`` keeps fig7 on the interned engine, so only a
    :func:`~repro.core.crossing.configure_crossing_backend` pin makes
    it columnar.
    """
    from repro.core.crossing import resolve_backend

    if resolve_backend(fig7_program()) != "columnar":
        raise ReproError("this process lost the columnar pin")
    return 1.0


class TestForkedWorkersKeepThePin:
    """A pool worker is forked, so it starts with the parent's pin."""

    def test_pool_workers_inherit_the_pin(self):
        import multiprocessing

        from repro import COMPUTE, ArrayProgram, Message, R, W
        from repro.core.crossing import configure_crossing_backend
        from repro.core.crossing_np import numpy_available

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the parent's memory only under fork")
        if not numpy_available():
            pytest.skip("a columnar pin needs numpy")
        program = ArrayProgram(
            ["C1", "C2"],
            [Message("A", "C1", "C2", 1)],
            {
                "C1": [W("A", constant=2.0)],
                "C2": [R("A", into="x"), COMPUTE("y", _pinned_to_columnar, ["x"])],
            },
        )
        previous = configure_crossing_backend("columnar")
        try:
            plan = SweepPlan(
                jobs=[SimJob(program), SimJob(program)],
                backend="pool",
                workers=2,
                chunk_size=1,
            )
            rows = list(SweepSession(plan).stream())
        finally:
            configure_crossing_backend(previous)
        assert [row.completed for row in rows] == [True, True]
