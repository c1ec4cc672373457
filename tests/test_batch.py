"""Batched ensembles through a sweep: grid alignment, repeats, limits, errors."""

import pytest

from repro import ArrayConfig, SimJob, SweepPlan, SweepSession
from repro.sweep import sweep_jobs, sweep_labels
from repro.workloads import ensemble_programs


@pytest.fixture(scope="module")
def ensemble():
    return ensemble_programs(6, cells=5, messages=8, max_length=3, base_seed=3)


CONFIG = ArrayConfig(queues_per_link=8)


def sweep_rows(jobs, **plan_kwargs):
    return list(SweepSession(SweepPlan(jobs=jobs, **plan_kwargs)).stream())


class TestSweep:
    def test_sweep_jobs_align_with_labels(self, ensemble):
        program = ensemble[0]
        jobs = sweep_jobs(
            program,
            policies=("ordered", "fcfs"),
            queues=(1, 8),
            capacities=(0,),
            repeat=2,
        )
        labels = sweep_labels(
            policies=("ordered", "fcfs"), queues=(1, 8), capacities=(0,), repeat=2
        )
        assert len(jobs) == len(labels) == 8
        assert labels[0].startswith("ordered q=1")
        assert labels[-1].startswith("fcfs q=8")
        assert all(
            job.config.queues_per_link == int(label.split("q=")[1].split()[0])
            for job, label in zip(jobs, labels)
        )

    def test_sweep_repeats_are_deterministic(self, ensemble):
        program = ensemble[1]
        jobs = sweep_jobs(program, queues=(8,), repeat=3)
        rows = sweep_rows(jobs)
        assert len({(row.time, row.events) for row in rows}) == 1
        result = jobs[-1].run()
        assert (rows[-1].time, rows[-1].events) == (result.time, result.events)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_max_events_respected_per_job(self, ensemble, workers):
        jobs = [SimJob(p, config=CONFIG, max_events=3) for p in ensemble]
        backend = "serial" if workers == 1 else "pool"
        rows = sweep_rows(jobs, backend=backend, workers=workers)
        assert [row.index for row in rows] == list(range(len(jobs)))
        assert all(row.timed_out for row in rows)
        assert all(row.events == 3 for row in rows)


class TestErrorCollection:
    def test_infeasible_corner_collected_not_fatal(self, ensemble):
        program = ensemble[0]
        jobs = sweep_jobs(
            program, policies=("static", "ordered"), queues=(1, 8), capacities=(0,)
        )
        rows = sweep_rows(jobs)
        assert len(rows) == 4
        errors = [row for row in rows if row.error_kind is not None]
        assert errors and errors[0].error_kind == "ConfigError"
        assert not errors[0].completed
        assert any(row.completed for row in rows)
