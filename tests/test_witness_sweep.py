"""Witness pruning through the sweep stack: differential byte-identity.

The contract under test: a sweep given a witness store produces rows and
reducer summaries *byte-identical* to the same sweep without one — the
store only changes how many jobs actually simulate. Pinned against the
serial baseline across backends and under checkpoint/resume
composition; a frontier query reports the store's counts; the acceptance
grid (2 policies x 64 capacities, deadlock-dense) must simulate at most
half its jobs on a warm store, with FCFS never pruned.
"""

import itertools
import json
import tracemalloc

import pytest

from repro import ArrayConfig
from repro.algorithms.figures import fig7_program
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.sweep import (
    CompletedCount,
    DeadlockRateByConfig,
    FrontierPlanner,
    MakespanHistogram,
    PlanSpec,
    SimJob,
    SweepPlan,
    SweepSession,
    sweep_jobs,
)
from repro.witness import WitnessStore


def cross_read():
    """Deadlocks at every capacity under every policy (circular read)."""
    msgs = [Message("M0", "A", "B", 1), Message("M1", "B", "A", 1)]
    progs = {
        "A": [R("M1", into="x"), W("M0", constant=1.0)],
        "B": [R("M0", into="y"), W("M1", constant=2.0)],
    }
    return ArrayProgram(["A", "B"], msgs, progs)


def burst_exchange():
    """Two cells exchanging 2-word bursts: static frontier at cap=2."""
    msgs = [Message("M0", "A", "B", 2), Message("M1", "B", "A", 2)]
    progs = {
        "A": [W("M0", constant=1.0)] * 2
        + [R("M1", into="a0"), R("M1", into="a1")],
        "B": [W("M1", constant=2.0)] * 2
        + [R("M0", into="b0"), R("M0", into="b1")],
    }
    return ArrayProgram(["A", "B"], msgs, progs)


def fresh_reducers():
    return (CompletedCount(), MakespanHistogram(), DeadlockRateByConfig())


def summaries_json(reducers) -> str:
    return json.dumps({r.name: r.summary() for r in reducers}, sort_keys=True)


def run_sweep(jobs, store=None, **plan_kwargs):
    reducers = fresh_reducers()
    session = SweepSession(
        SweepPlan(
            jobs=jobs, reducers=reducers, witness_store=store, **plan_kwargs
        )
    )
    rows = list(session.stream())
    return rows, summaries_json(reducers), session


class TestAcceptanceGrid:
    """The issue's acceptance bar, asserted in-test."""

    CAPACITIES = tuple(range(64))

    def grid(self, policies=("static", "fcfs")):
        return sweep_jobs(
            cross_read(),
            policies=policies,
            queues=(1,),
            capacities=self.CAPACITIES,
        )

    def test_warm_store_halves_the_simulated_jobs(self, tmp_path):
        jobs = self.grid()
        base_rows, base_summaries, _ = run_sweep(jobs)

        # Cold: the store starts empty, mines as it goes, prunes the
        # static tail it has already proven. Rows must not change.
        store = WitnessStore(tmp_path / "w.json")
        cold_rows, cold_summaries, cold = run_sweep(jobs, store)
        assert cold_rows == base_rows
        assert cold_summaries == base_summaries
        assert cold.witness_pruned >= 60
        assert cold.witness_mined >= 1
        store.save()

        # Warm: every static job is covered; only FCFS simulates.
        warm_store = WitnessStore(tmp_path / "w.json")
        warm_rows, warm_summaries, warm = run_sweep(jobs, warm_store)
        assert warm_rows == base_rows
        assert warm_summaries == base_summaries
        simulated = len(jobs) - warm.witness_pruned
        assert simulated <= len(jobs) // 2
        # FCFS is never pruned: all 64 prunes are the static half, and
        # the store never even holds an FCFS certificate.
        assert warm.witness_pruned == 64
        assert all(w.policy == "static" for w in warm_store.witnesses())

    def test_pruned_rows_at_the_end_of_the_grid(self, tmp_path):
        # Policy order reversed: every pruned (static) row now lands
        # *after* the backend's stream is exhausted — the flush path.
        jobs = self.grid(policies=("fcfs", "static"))
        base_rows, base_summaries, _ = run_sweep(jobs)
        store = WitnessStore(tmp_path / "w.json")
        run_sweep(self.grid(), store)  # mine on the forward grid
        rows, summaries, session = run_sweep(jobs, store)
        assert rows == base_rows
        assert summaries == base_summaries
        assert session.witness_pruned == 64
        assert [r.index for r in rows] == list(range(len(jobs)))


class TestBackendDifferential:
    @pytest.mark.parametrize("backend", ("pool",))
    def test_pruned_rows_byte_identical_across_backends(
        self, tmp_path, backend
    ):
        jobs = sweep_jobs(
            cross_read(),
            policies=("static", "fcfs"),
            queues=(1,),
            capacities=(0, 1, 2, 3),
        )
        base_rows, base_summaries, _ = run_sweep(jobs)
        store = WitnessStore(tmp_path / "w.json")
        run_sweep(jobs, store)  # warm it up on the serial baseline
        rows, summaries, session = run_sweep(
            jobs, store, backend=backend, workers=2, chunk_size=2
        )
        assert rows == base_rows
        assert summaries == base_summaries
        assert session.witness_pruned == 4  # the whole static line
        # The warm store withholds every static job, and worker-side
        # mining refuses FCFS (non-monotone), so nothing new mines.
        assert session.witness_mined == 0


class TestWorkerMining:
    """Cold multiprocess sweeps mine in-worker, matching serial exactly.

    The capacity axis runs *descending*, so the first-mined certificate
    (highest capacity, open ray: peak occupancy 0) subsumes every later
    one on every backend — the post-subsumption stores must therefore be
    *equal* to serial's, not merely equivalent, regardless of how far
    ahead a backend pulled jobs before the first certificate landed.
    """

    def jobs(self):
        return sweep_jobs(
            cross_read(),
            policies=("static",),
            queues=(1,),
            capacities=tuple(range(7, -1, -1)),
        )

    @staticmethod
    def dump(store):
        return [w.as_dict() for w in store.witnesses()]

    def test_serial_baseline_interleaves_mining_and_pruning(self):
        store = WitnessStore()
        _rows, _summaries, session = run_sweep(self.jobs(), store)
        # cap=7 simulates and mines the open ray; caps 6..0 all prune.
        assert session.witness_mined == 1
        assert session.witness_pruned == 7
        assert len(store) == 1

    @pytest.mark.parametrize(
        "backend,extra",
        [
            ("pool", {}),
            # max_retries engages the supervised executor underneath.
            ("pool", {"max_retries": 1}),
        ],
        ids=("pool", "supervised"),
    )
    def test_cold_store_matches_serial_post_subsumption(self, backend, extra):
        jobs = self.jobs()
        base_rows, base_summaries, _ = run_sweep(jobs)
        serial_store = WitnessStore()
        run_sweep(jobs, serial_store)

        store = WitnessStore()
        rows, summaries, session = run_sweep(
            jobs, store, backend=backend, workers=2, chunk_size=2, **extra
        )
        assert rows == base_rows
        assert summaries == base_summaries
        # Summary-only streams ship no results, so a nonzero mined count
        # can only have come through the worker-side witness payloads.
        assert session.witness_mined == 1
        assert self.dump(store) == self.dump(serial_store)


class TestStreamMemory:
    """A store-backed stream keeps no per-job state in the parent."""

    @staticmethod
    def traced_peak(n_jobs: int) -> int:
        job = SimJob(fig7_program(), ArrayConfig(queues_per_link=2), "static")
        session = SweepSession(
            SweepPlan(
                jobs=itertools.repeat(job, n_jobs),
                witness_store=WitnessStore(),
            )
        )
        stream = session.stream()
        next(stream)  # set-up and the first run are not on trial
        tracemalloc.start()
        try:
            for _row in stream:
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_sweep_size(self):
        small = self.traced_peak(1_000)
        large = self.traced_peak(10_000)
        # One retained int per job would add ~300 KiB for the extra
        # 9,000 jobs; a flat stream stays well inside this margin.
        assert large - small < 64 * 1024


class TestCheckpointComposition:
    def test_interrupt_resume_with_store_stays_byte_identical(self, tmp_path):
        jobs = sweep_jobs(
            cross_read(),
            policies=("static", "fcfs"),
            queues=(1,),
            capacities=(0, 1, 2, 3, 4, 5),
        )
        base_rows, base_summaries, _ = run_sweep(jobs)

        store = WitnessStore(tmp_path / "w.json")
        run_sweep(jobs, store)
        store.save()

        ck = str(tmp_path / "sweep.ckpt")
        first = fresh_reducers()
        warm = WitnessStore(tmp_path / "w.json")
        stream = SweepSession(
            SweepPlan(
                jobs=jobs,
                reducers=first,
                witness_store=warm,
                checkpoint=ck,
                checkpoint_every=2,
            )
        ).stream()
        head = list(itertools.islice(stream, 4))
        stream.close()  # interrupt: the finally writes a snapshot

        second = fresh_reducers()
        tail = list(
            SweepSession(
                SweepPlan(
                    jobs=jobs,
                    reducers=second,
                    witness_store=WitnessStore(tmp_path / "w.json"),
                    checkpoint=ck,
                    resume=True,
                )
            ).stream()
        )
        assert head + tail == base_rows
        assert summaries_json(second) == base_summaries

    def test_session_counters(self, tmp_path):
        jobs = sweep_jobs(
            cross_read(),
            policies=("static",),
            queues=(1,),
            capacities=(0, 1, 2, 3),
        )
        store = WitnessStore()
        _rows, _summaries, session = run_sweep(jobs, store)
        # cap=0 and cap=1 mine (closed point, then the open ray that
        # subsumes it); cap>=2 is covered by the ray and prunes.
        assert session.witness_mined == 2
        assert session.witness_pruned == 2
        assert len(store) == 1


class TestPlannerSeeding:
    """A frontier query reports the store's counts, and no store,
    however warm, seeds a line or changes what the query runs."""

    AXIS = (0, 1, 2, 3, 4)

    def spec(self, store=None, **kwargs):
        return PlanSpec(
            burst_exchange(),
            policies=("static",),
            queues=(1,),
            capacities=self.AXIS,
            witness_store=store,
            **kwargs,
        )

    def test_report_dict_carries_witness_fields(self):
        report = FrontierPlanner(self.spec()).run()
        payload = report.as_dict()
        assert payload["witness_seeded_lines"] == 0
        assert payload["witness_pruned"] == 0
        assert payload["witness_mined"] == 0

    def test_warm_store_changes_no_frontier_query(self):
        store = WitnessStore()
        run_sweep(
            sweep_jobs(
                burst_exchange(),
                policies=("static",),
                queues=(1,),
                capacities=(0, 1),
            ),
            store,
        )
        assert len(store) >= 1
        plain = FrontierPlanner(self.spec()).run()
        warm = FrontierPlanner(self.spec(store=store)).run()
        assert warm.rows == plain.rows
        assert warm.lines == plain.lines
        assert warm.jobs_executed == 1
        assert (
            warm.witness_seeded_lines,
            warm.witness_pruned,
            warm.witness_mined,
        ) == (0, 0, 0)


class TestMinePayloadUnit:
    """The worker-side mining hook, exercised directly in-parent."""

    def test_completed_run_yields_no_payload(self):
        from repro import ArrayConfig
        from repro.sweep.jobs import SimJob, mine_witness_payload

        job = SimJob(
            burst_exchange(),
            config=ArrayConfig(queue_capacity=2),
            policy="static",
        )
        result = job.run()
        assert result.completed
        assert mine_witness_payload(job, result) is None

    def test_deadlocked_static_run_yields_certificate_dict(self):
        from repro.sweep.jobs import SimJob, mine_witness_payload
        from repro.witness import DeadlockWitness

        job = SimJob(cross_read(), policy="static")
        result = job.run()
        assert result.deadlocked
        payload = mine_witness_payload(job, result)
        assert isinstance(payload, dict)
        # The compact dict round-trips into the same certificate the
        # parent would have mined from the full result.
        assert DeadlockWitness.from_dict(payload).as_dict() == payload

    def test_fcfs_refusal_propagates_as_none(self):
        from repro.sweep.jobs import SimJob, mine_witness_payload

        job = SimJob(cross_read(), policy="fcfs")
        result = job.run()
        assert result.deadlocked
        assert mine_witness_payload(job, result) is None

    def test_job_fingerprint_covers_register_files(self):
        from repro.sweep.jobs import SimJob, job_fingerprint

        bare = SimJob(cross_read())
        seeded = SimJob(
            cross_read(), registers={"A": {"x": 1.0}, "B": {"y": None}}
        )
        assert job_fingerprint(seeded) != job_fingerprint(bare)
        assert job_fingerprint(seeded) == job_fingerprint(
            SimJob(cross_read(), registers={"B": {"y": None}, "A": {"x": 1.0}})
        )
