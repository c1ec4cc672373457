"""Batched ensemble runner tests: ordering, broadcasting, workers, sweeps."""

import pytest

from repro import ArrayConfig, SimJob, simulate, simulate_many
from repro.errors import ConfigError
from repro.sweep import BatchError, sweep_jobs, sweep_labels
from repro.workloads import ensemble_programs


@pytest.fixture(scope="module")
def ensemble():
    return ensemble_programs(6, cells=5, messages=8, max_length=3, base_seed=3)


CONFIG = ArrayConfig(queues_per_link=8)


class TestSimulateMany:
    def test_results_in_input_order(self, ensemble):
        results = simulate_many(ensemble, CONFIG)
        assert len(results) == len(ensemble)
        singles = [simulate(p, config=CONFIG) for p in ensemble]
        for got, want in zip(results, singles):
            assert got.completed == want.completed
            assert got.time == want.time
            assert got.received == want.received

    def test_single_config_broadcasts(self, ensemble):
        results = simulate_many(ensemble, CONFIG)
        assert all(r.completed for r in results)

    def test_per_program_configs(self, ensemble):
        configs = [CONFIG] * len(ensemble)
        results = simulate_many(ensemble, configs)
        assert all(r.completed for r in results)

    def test_config_length_mismatch_raises(self, ensemble):
        with pytest.raises(ConfigError):
            simulate_many(ensemble, [CONFIG])

    def test_empty_input(self):
        assert simulate_many([]) == []

    def test_simjob_inputs(self, ensemble):
        jobs = [SimJob(p, config=CONFIG, policy="static") for p in ensemble]
        results = simulate_many(jobs)
        assert all(r.completed for r in results)

    def test_simjob_plus_configs_rejected(self, ensemble):
        jobs = [SimJob(p, config=CONFIG) for p in ensemble]
        with pytest.raises(ConfigError):
            simulate_many(jobs, CONFIG)

    def test_invalid_workers(self, ensemble):
        with pytest.raises(ConfigError):
            simulate_many(ensemble, CONFIG, workers=0)

    def test_invalid_chunk_size(self, ensemble):
        # chunk_size=0 used to crash deep inside the chunking helper
        # (range() with a zero step); it must be validated like workers.
        with pytest.raises(ConfigError, match="chunk_size"):
            simulate_many(ensemble, CONFIG, workers=2, chunk_size=0)
        with pytest.raises(ConfigError, match="chunk_size"):
            simulate_many(ensemble, CONFIG, workers=2, chunk_size=-3)

    def test_explicit_chunk_size_matches_serial(self, ensemble):
        serial = simulate_many(ensemble, CONFIG, workers=1)
        chunked = simulate_many(ensemble, CONFIG, workers=2, chunk_size=1)
        for a, b in zip(serial, chunked):
            assert a.completed == b.completed
            assert a.time == b.time
            assert a.received == b.received

    def test_pool_backend_matches_serial(self, ensemble):
        serial = simulate_many(ensemble, CONFIG, workers=1)
        via_pool = simulate_many(ensemble, CONFIG, workers=2, backend="pool")
        for a, b in zip(serial, via_pool):
            assert a.completed == b.completed
            assert a.time == b.time
            assert a.events == b.events
            assert a.received == b.received
            assert a.assignment_trace == b.assignment_trace

    def test_workers_match_serial(self, ensemble):
        serial = simulate_many(ensemble, CONFIG, workers=1)
        parallel = simulate_many(ensemble, CONFIG, workers=2)
        for a, b in zip(serial, parallel):
            assert a.completed == b.completed
            assert a.time == b.time
            assert a.events == b.events
            assert a.received == b.received
            assert a.assignment_trace == b.assignment_trace

    def test_max_events_respected_per_job(self, ensemble):
        jobs = [SimJob(p, config=CONFIG, max_events=3) for p in ensemble]
        results = simulate_many(jobs)
        assert all(r.timed_out for r in results)
        assert all(r.events == 3 for r in results)


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
        results = simulate_many(jobs)
        assert len({r.time for r in results}) == 1
        assert len({r.events for r in results}) == 1


class TestErrorCollection:
    def test_infeasible_corner_collected_not_fatal(self, ensemble):
        program = ensemble[0]
        jobs = sweep_jobs(
            program, policies=("static", "ordered"), queues=(1, 8), capacities=(0,)
        )
        results = simulate_many(jobs, on_error="collect")
        assert len(results) == 4
        errors = [r for r in results if isinstance(r, BatchError)]
        assert errors and errors[0].kind == "ConfigError"
        assert not errors[0].completed
        assert any(getattr(r, "completed", False) for r in results)

    def test_on_error_raise_is_default(self, ensemble):
        program = ensemble[0]
        jobs = sweep_jobs(program, policies=("static",), queues=(1,))
        with pytest.raises(ConfigError):
            simulate_many(jobs)

    def test_invalid_on_error_value(self, ensemble):
        with pytest.raises(ConfigError):
            simulate_many(ensemble, CONFIG, on_error="bogus")

    def test_mixed_picklability_falls_back_in_process(self, ensemble):
        from repro import ArrayProgram, Message, W, R, COMPUTE
        lam = ArrayProgram(
            ["C1", "C2"],
            [Message("A", "C1", "C2", 1)],
            {"C1": [W("A", constant=2.0)],
             "C2": [R("A", into="x"), COMPUTE("y", lambda v: v + 1, ["x"])]},
        )
        jobs = [SimJob(ensemble[0], config=CONFIG), SimJob(lam)]
        results = simulate_many(jobs, workers=2)
        assert all(r.completed for r in results)
        assert results[1].registers["C2"]["y"] == 3.0
