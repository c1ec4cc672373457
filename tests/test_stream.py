"""Streaming reduction API: ordering, laziness, reducers, degradation."""

import types

import pytest

from repro import ArrayConfig, SimJob
from repro.errors import ConfigError
from repro.sweep import (
    BatchError,
    CompletedCount,
    DeadlockRateByConfig,
    MakespanHistogram,
    RunSummary,
    SweepPlan,
    SweepSession,
    iter_sweep_jobs,
    iter_sweep_labels,
    summarize_result,
    sweep_jobs,
    sweep_labels,
)
from repro.workloads import ensemble_programs


@pytest.fixture(scope="module")
def ensemble():
    return ensemble_programs(6, cells=5, messages=8, max_length=3, base_seed=3)


CONFIG = ArrayConfig(queues_per_link=8)


def stream(jobs, **plan_kwargs):
    return SweepSession(SweepPlan(jobs=jobs, **plan_kwargs)).stream()


class TestSimulateStream:
    def test_rows_in_job_order_and_match_job_runs(self, ensemble):
        jobs = [SimJob(p, config=CONFIG) for p in ensemble]
        rows = list(stream(iter(jobs)))
        assert [row.index for row in rows] == list(range(len(jobs)))
        for row, result in zip(rows, (job.run() for job in jobs)):
            assert row.completed == result.completed
            assert row.deadlocked == result.deadlocked
            assert row.time == result.time
            assert row.events == result.events
            assert row.words == result.words_transferred
            assert row.outcome == "completed"

    def test_is_a_lazy_generator(self, ensemble):
        jobs = (SimJob(p, config=CONFIG) for p in ensemble)
        counter = CompletedCount()
        rows = stream(jobs, reducers=(counter,), chunk_size=1)
        assert isinstance(rows, types.GeneratorType)
        assert counter.total == 0  # nothing ran yet
        first = next(rows)
        assert isinstance(first, RunSummary)
        assert counter.total == 1  # exactly one job ran and was reduced

    def test_workers_match_in_process(self, ensemble):
        jobs = [SimJob(p, config=CONFIG) for p in ensemble]
        serial = list(stream(iter(jobs)))
        parallel = list(stream(iter(jobs), workers=2, chunk_size=2))
        assert serial == parallel

    def test_reducers_see_every_row(self, ensemble):
        jobs = [SimJob(p, config=CONFIG) for p in ensemble]
        outcomes = CompletedCount()
        makespan = MakespanHistogram(bucket_width=8)
        rows = list(stream(iter(jobs), reducers=(outcomes, makespan)))
        assert outcomes.total == len(rows)
        assert outcomes.completed == sum(1 for r in rows if r.completed)
        assert makespan.count == outcomes.completed
        assert sum(makespan.buckets.values()) == makespan.count
        assert makespan.summary()["min"] == min(r.time for r in rows)
        assert makespan.summary()["max"] == max(r.time for r in rows)

    def test_large_lazy_sweep_streams_without_accumulation(self, ensemble):
        repeat = 600
        jobs = iter_sweep_jobs(ensemble[0], queues=(8,), repeat=repeat)
        outcomes = CompletedCount()
        times = set()
        for row in stream(
            jobs, reducers=(outcomes,), workers=2, chunk_size=64
        ):
            times.add(row.time)
        assert outcomes.total == repeat
        assert outcomes.completed == repeat
        assert len(times) == 1  # deterministic repeats

    def test_infeasible_corners_become_rows(self, ensemble):
        jobs = sweep_jobs(
            ensemble[0], policies=("static", "ordered"), queues=(1, 8)
        )
        rows = list(stream(iter(jobs)))
        outcomes = {row.outcome for row in rows}
        assert "infeasible" in outcomes
        infeasible = [r for r in rows if r.outcome == "infeasible"]
        assert all(r.error_kind == "ConfigError" for r in infeasible)

    def test_invalid_arguments_rejected(self, ensemble):
        jobs = [SimJob(ensemble[0], config=CONFIG)]
        with pytest.raises(ConfigError):
            list(stream(iter(jobs), workers=0))
        with pytest.raises(ConfigError):
            list(stream(iter(jobs), chunk_size=0))

    def test_unpicklable_chunk_runs_in_process(self, ensemble):
        from repro import COMPUTE, ArrayProgram, Message, R, W

        lam = ArrayProgram(
            ["C1", "C2"],
            [Message("A", "C1", "C2", 1)],
            {
                "C1": [W("A", constant=2.0)],
                "C2": [R("A", into="x"), COMPUTE("y", lambda v: v + 1, ["x"])],
            },
        )
        jobs = [SimJob(ensemble[0], config=CONFIG), SimJob(lam)]
        rows = list(stream(iter(jobs), workers=2, chunk_size=1))
        assert [row.index for row in rows] == [0, 1]
        assert all(row.completed for row in rows)

    def test_empty_stream(self):
        assert list(stream(iter(()))) == []


class TestReducers:
    def _row(self, **kw):
        base = dict(
            index=0, completed=True, deadlocked=False, timed_out=False,
            time=10, events=5, words=3, policy="ordered", queues=1, capacity=0,
        )
        base.update(kw)
        return RunSummary(**base)

    def test_completed_count_buckets_every_outcome(self):
        counter = CompletedCount()
        counter.update(self._row())
        counter.update(self._row(completed=False, deadlocked=True))
        counter.update(self._row(completed=False, timed_out=True))
        counter.update(
            self._row(completed=False, error_kind="ConfigError", error="x")
        )
        assert counter.summary() == {
            "total": 4,
            "completed": 1,
            "deadlock": 1,
            "timeout": 1,
            "infeasible": 1,
        }

    def test_makespan_histogram_ignores_failures(self):
        histogram = MakespanHistogram(bucket_width=10)
        histogram.update(self._row(time=5))
        histogram.update(self._row(time=15))
        histogram.update(self._row(time=15))
        histogram.update(self._row(completed=False, deadlocked=True, time=99))
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["histogram"] == {0: 1, 10: 2}
        assert summary["min"] == 5 and summary["max"] == 15

    def test_makespan_invalid_bucket_width(self):
        with pytest.raises(ConfigError):
            MakespanHistogram(bucket_width=0)

    def test_deadlock_rate_groups_by_config(self):
        rate = DeadlockRateByConfig()
        rate.update(self._row(policy="fcfs", completed=False, deadlocked=True))
        rate.update(self._row(policy="fcfs"))
        rate.update(self._row(policy="ordered"))
        summary = rate.summary()
        assert summary["fcfs q=1 cap=0"] == {
            "deadlocks": 1,
            "runs": 2,
            "rate": 0.5,
        }
        assert summary["ordered q=1 cap=0"]["rate"] == 0.0

    def test_summarize_result_flattens_batch_error(self):
        job = SimJob(program=None, config=ArrayConfig(queues_per_link=3))
        row = summarize_result(7, job, BatchError(kind="ConfigError", error="no"))
        assert row.index == 7
        assert row.outcome == "infeasible"
        assert row.queues == 3


class TestLazySweepGenerators:
    def test_iter_matches_list_forms(self, ensemble):
        kwargs = dict(
            policies=("ordered", "fcfs"), queues=(1, 2), capacities=(0,), repeat=2
        )
        assert list(
            iter_sweep_labels(**kwargs)
        ) == sweep_labels(**kwargs)
        lazy = list(iter_sweep_jobs(ensemble[0], **kwargs))
        eager = sweep_jobs(ensemble[0], **kwargs)
        assert lazy == eager

    def test_generators_are_lazy(self, ensemble):
        jobs = iter_sweep_jobs(ensemble[0], repeat=10**9)  # would never fit
        first = next(jobs)
        assert first.program is ensemble[0]
