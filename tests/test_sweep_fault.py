"""Fault-injection harness: the supervised executor under crash and hang.

Deterministically injects the two characteristic sweep failures —
worker crash (abrupt ``os._exit``) and hung job — via
:class:`repro.sweep.fault.FaultPlan` and pins the recovery contract:
a recovered sweep's rows and reducer summaries are byte-identical to a
fault-free serial run, poison jobs are quarantined as data instead of
aborting the sweep, and persistent hangs become timeout rows.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms.figures import fig7_program
from repro.errors import ConfigError
from repro.sweep import (
    WORKER_CRASH_KIND,
    CompletedCount,
    DeadlockRateByConfig,
    FaultPlan,
    MakespanHistogram,
    QuantileReducer,
    SimJob,
    SweepPlan,
    SweepSession,
    Tolerance,
    sweep_jobs,
)
from repro.sweep.fault import CRASH_EXIT_CODE

SUPERVISED = ("pool",)


def corpus_jobs() -> list[SimJob]:
    """A small grid covering completed, deadlocked and timeout rows."""
    jobs = sweep_jobs(
        fig7_program(), policies=("ordered", "fcfs"), queues=(1, 2), repeat=2
    )
    jobs.append(SimJob(fig7_program(), max_events=3))  # timeout corner
    return jobs


def fresh_reducers():
    return (
        CompletedCount(),
        MakespanHistogram(bucket_width=8),
        DeadlockRateByConfig(),
        QuantileReducer((0.5, 0.95)),
    )


def summaries_json(reducers) -> str:
    return json.dumps(
        {r.name: r.summary() for r in reducers}, sort_keys=True, default=str
    )


def run_plan(jobs, backend, **kwargs):
    reducers = fresh_reducers()
    plan = SweepPlan(
        jobs=jobs,
        reducers=reducers,
        backend=backend,
        workers=2,
        chunk_size=3,
        **kwargs,
    )
    rows = list(SweepSession(plan).stream())
    return rows, summaries_json(reducers)


@pytest.fixture(scope="module")
def baseline():
    jobs = corpus_jobs()
    rows, summaries = run_plan(jobs, "serial")
    return jobs, rows, summaries


class TestSupervisedDifferential:
    """Supervision without faults must change nothing observable."""

    @pytest.mark.parametrize("backend", SUPERVISED)
    def test_no_faults_matches_serial(self, baseline, backend):
        jobs, base_rows, base_summaries = baseline
        rows, summaries = run_plan(jobs, backend, max_retries=2)
        assert rows == base_rows
        assert summaries == base_summaries

    def test_serial_ignores_tolerance_and_faults(self, baseline, tmp_path):
        jobs, base_rows, base_summaries = baseline
        plan = FaultPlan(spool=str(tmp_path), crash={0: 1}, hang={1: 1})
        rows, summaries = run_plan(
            jobs, "serial", fault_plan=plan, job_timeout_s=5.0
        )
        # Serial is the fault-free reference: the plan is installed but
        # never fired (no supervised worker loop in-process).
        assert rows == base_rows
        assert summaries == base_summaries
        assert not os.listdir(tmp_path)


class TestCrashRecovery:
    @pytest.mark.parametrize("backend", SUPERVISED)
    def test_crashed_jobs_are_requeued(self, baseline, tmp_path, backend):
        jobs, base_rows, base_summaries = baseline
        spool = tmp_path / backend
        spool.mkdir()
        plan = FaultPlan(spool=str(spool), crash={1: 1, 5: 2})
        rows, summaries = run_plan(
            jobs, backend, fault_plan=plan, max_retries=3
        )
        assert rows == base_rows
        assert summaries == base_summaries
        fired = sorted(os.listdir(spool))
        # Every armed crash actually fired (plus the one clean re-probe
        # marker per fault key that finds the fault exhausted).
        assert any(m.startswith("crash-1-") for m in fired)
        assert any(m.startswith("crash-5-1") for m in fired)

    def test_poison_job_quarantined_as_row(self, baseline, tmp_path):
        jobs, base_rows, _ = baseline
        # Crashes forever: armed for more attempts than the budget.
        plan = FaultPlan(spool=str(tmp_path), crash={2: 99})
        rows, _ = run_plan(
            jobs, "pool", fault_plan=plan, max_retries=1
        )
        assert len(rows) == len(base_rows)
        poisoned = rows[2]
        assert poisoned.error_kind == WORKER_CRASH_KIND
        assert poisoned.outcome == "infeasible"
        assert str(CRASH_EXIT_CODE) in (poisoned.error or "")
        # Every other job is untouched by the quarantine.
        assert [r for i, r in enumerate(rows) if i != 2] == [
            r for i, r in enumerate(base_rows) if i != 2
        ]


class TestExactAttributionAndLazyPulls:
    @pytest.mark.parametrize("backend", SUPERVISED)
    def test_death_mid_chunk_blames_only_the_running_job(
        self, baseline, tmp_path, backend
    ):
        jobs, base_rows, _ = baseline
        # Job 4 is the middle of chunk [3, 4, 5]; with no retries, blaming
        # any other job of that chunk would quarantine a healthy job.
        plan = FaultPlan(spool=str(tmp_path), crash={4: 99})
        rows, _ = run_plan(jobs, backend, fault_plan=plan, max_retries=0)
        assert rows[4].error_kind == WORKER_CRASH_KIND
        assert rows[3] == base_rows[3] and rows[5] == base_rows[5]
        assert [r for i, r in enumerate(rows) if i != 4] == [
            r for i, r in enumerate(base_rows) if i != 4
        ]

    @pytest.mark.parametrize("backend", SUPERVISED)
    def test_many_deaths_on_more_workers_than_cores(self, tmp_path, backend):
        # Each worker writes its own progress slot; a stale or lost slot
        # write would blame (and, with no retries, quarantine) a healthy
        # job instead of the one that died.
        jobs = corpus_jobs() * 4
        crash = {1, 5, 9, 13, 22, 30, 35}
        serial = list(SweepSession(SweepPlan(jobs=jobs)).stream())
        plan = SweepPlan(
            jobs=jobs,
            backend=backend,
            workers=(os.cpu_count() or 1) + 2,
            chunk_size=3,
            fault_plan=FaultPlan(spool=str(tmp_path), crash=crash),
            max_retries=0,
        )
        rows = list(SweepSession(plan).stream())
        crashed = [
            i for i, row in enumerate(rows) if row.error_kind == WORKER_CRASH_KIND
        ]
        assert crashed == sorted(crash)
        assert [r for i, r in enumerate(rows) if i not in crash] == [
            r for i, r in enumerate(serial) if i not in crash
        ]

    @pytest.mark.parametrize("backend", SUPERVISED)
    def test_jobs_are_pulled_lazily_with_a_timeout_set(self, backend):
        n_jobs, workers, chunk = 24, 2, 2
        pulled = 0

        def gen():
            nonlocal pulled
            for _ in range(n_jobs):
                pulled += 1
                yield SimJob(fig7_program())

        plan = SweepPlan(
            jobs=gen(),
            backend=backend,
            workers=workers,
            chunk_size=chunk,
            job_timeout_s=30,
        )
        seen = 0
        # The dispatch window plus the chunk being pulled, never the
        # whole stream.
        bound = (workers * 2 + 1) * chunk
        for _row in SweepSession(plan).stream():
            seen += 1
            assert pulled <= seen + bound
        assert seen == pulled == n_jobs


class TestTimeouts:
    @pytest.mark.parametrize("backend", SUPERVISED)
    def test_hung_job_recovers_on_retry(self, baseline, tmp_path, backend):
        jobs, base_rows, base_summaries = baseline
        spool = tmp_path / backend
        spool.mkdir()
        plan = FaultPlan(spool=str(spool), hang={3: 1}, hang_s=30.0)
        rows, summaries = run_plan(
            jobs, backend, fault_plan=plan, job_timeout_s=0.5, max_retries=2
        )
        assert rows == base_rows
        assert summaries == base_summaries

    def test_persistent_hang_becomes_timeout_row(self, baseline, tmp_path):
        jobs, base_rows, _ = baseline
        plan = FaultPlan(spool=str(tmp_path), hang={4: 99}, hang_s=30.0)
        rows, _ = run_plan(
            jobs, "pool", fault_plan=plan, job_timeout_s=0.3, max_retries=1
        )
        hung = rows[4]
        assert hung.outcome == "timeout"
        assert hung.timed_out and not hung.completed and not hung.deadlocked
        assert hung.error_kind is None  # same bucket as a max_time expiry
        assert "timeout" in (hung.error or "")
        assert [r for i, r in enumerate(rows) if i != 4] == [
            r for i, r in enumerate(base_rows) if i != 4
        ]


class PlainBoom(Exception):
    """A picklable non-Repro bug: must cross the pipe verbatim."""


class UnpicklableBoom(Exception):
    """An exception whose payload defeats pickling (closure attribute)."""

    def __init__(self, message):
        super().__init__(message)
        self.payload = lambda: None


def _raise_plain(value):
    raise PlainBoom("original message intact")


def _raise_unpicklable(value):
    raise UnpicklableBoom("kaboom with context")


def _raise_memory_error(value):
    raise MemoryError("injected bug-class failure")


def _exit_process(value):
    os._exit(CRASH_EXIT_CODE)


def _compute_job(fn) -> SimJob:
    """A job whose simulation calls ``fn`` (a module-level, picklable
    callable) on a received value — the worker-side error injection."""
    from repro import COMPUTE, ArrayProgram, Message, R, W

    program = ArrayProgram(
        ["C1", "C2"],
        [Message("A", "C1", "C2", 1)],
        {
            "C1": [W("A", constant=2.0)],
            "C2": [R("A", into="x"), COMPUTE("y", fn, ["x"])],
        },
    )
    return SimJob(program)


class TestWorkerErrorNarrowing:
    """The worker's except blocks are narrowed, not blanket.

    Three pinned behaviors: a picklable bug crosses the pipe verbatim;
    an exception whose *payload* cannot pickle is substituted with a
    summary ``RuntimeError`` and counted in ``payload_drops``; and
    :exc:`MemoryError` is bug-class — it kills the worker (crash
    recovery territory) instead of being shipped as an ordinary error.
    """

    def _supervisor(self, jobs, **tol):
        from repro.sweep.backends.supervise import Supervisor

        return Supervisor(
            jobs,
            workers=1,
            chunk_size=1,
            mine=False,
            tolerance=Tolerance(**tol),
        )

    def test_picklable_error_crosses_verbatim(self):
        sup = self._supervisor([_compute_job(_raise_plain)])
        with pytest.raises(PlainBoom, match="original message intact"):
            list(sup.run())
        assert sup.stats()["payload_drops"] == 0

    def test_unpicklable_payload_substituted_and_counted(self):
        sup = self._supervisor(
            [SimJob(fig7_program()), _compute_job(_raise_unpicklable)]
        )
        records = []
        with pytest.raises(RuntimeError, match="UnpicklableBoom: kaboom"):
            for record in sup.run():
                records.append(record)
        # The healthy job's row still made it out, in order.
        assert [r.index for r in records] == [0]
        assert sup.stats()["payload_drops"] == 1

    def test_memory_error_kills_the_worker_not_the_contract(self):
        sup = self._supervisor(
            [SimJob(fig7_program()), _compute_job(_raise_memory_error)],
            max_retries=0,
        )
        rows = [record.row for record in sup.run()]
        # The MemoryError was never shipped as data: the worker died and
        # the job was quarantined through crash recovery instead.
        assert rows[1].error_kind == WORKER_CRASH_KIND
        assert rows[0].completed
        assert sup.stats()["payload_drops"] == 0


class TestDefaultSweepSurvivesWorkerDeath:
    """With no fault knob set, a job that kills its worker costs one row.

    The job's compute op exits the worker process; it must never run in
    the test process, so the serial reference runs without it.
    """

    CRASH_AT = 4

    def jobs(self):
        jobs = corpus_jobs()
        jobs.insert(self.CRASH_AT, _compute_job(_exit_process))
        return jobs

    @pytest.mark.parametrize("backend", SUPERVISED)
    def test_crash_becomes_a_row_and_the_rest_match_serial(
        self, baseline, backend
    ):
        _jobs, base_rows, _ = baseline
        plan = SweepPlan(
            jobs=self.jobs(), backend=backend, workers=2, chunk_size=3
        )
        rows = list(SweepSession(plan).stream())
        crashed = rows.pop(self.CRASH_AT)
        assert crashed.error_kind == WORKER_CRASH_KIND
        assert str(CRASH_EXIT_CODE) in (crashed.error or "")
        shifted = [
            row.index + (row.index >= self.CRASH_AT) for row in base_rows
        ]
        assert rows == [
            dataclasses.replace(row, index=index)
            for row, index in zip(base_rows, shifted)
        ]


class TestKnobValidation:
    def test_tolerance_validates(self):
        with pytest.raises(ConfigError, match="max_retries"):
            Tolerance(max_retries=-1)
        with pytest.raises(ConfigError, match="job_timeout_s"):
            Tolerance(job_timeout_s=0)
        assert Tolerance().backoff(1) == pytest.approx(0.05)
        assert Tolerance().backoff(3) == pytest.approx(0.2)
        assert Tolerance().backoff(9) == 2.0  # capped

    def test_plan_knobs_validate_at_session_creation(self):
        jobs = corpus_jobs()[:1]
        with pytest.raises(ConfigError, match="max_retries"):
            SweepSession(SweepPlan(jobs=jobs, max_retries=-2))
        with pytest.raises(ConfigError, match="job_timeout_s"):
            SweepSession(SweepPlan(jobs=jobs, job_timeout_s=-1.0))

    def test_fault_plan_normalization(self, tmp_path):
        plan = FaultPlan(spool=str(tmp_path), crash=[1, 4], hang={2: 3})
        assert plan.crash == {1: 1, 4: 1}
        assert plan.hang == {2: 3}
        with pytest.raises(ConfigError, match="times >= 1"):
            FaultPlan(spool=str(tmp_path), crash={1: 0})
        with pytest.raises(ConfigError, match="index >= 0"):
            FaultPlan(spool=str(tmp_path), hang=[-1])

    def test_fault_plan_fires_bounded_times(self, tmp_path, monkeypatch):
        from repro.sweep import fault as fault_mod

        slept = []
        monkeypatch.setattr(fault_mod.time, "sleep", slept.append)
        plan = FaultPlan(spool=str(tmp_path), hang={0: 2}, hang_s=7.0)
        for _ in range(5):
            plan.maybe_hang(0)
        assert slept == [7.0, 7.0]
        plan.maybe_hang(1)  # unarmed index
        assert slept == [7.0, 7.0]


#: A parent that starts a two-worker sweep, takes one row, records its
#: workers' pids and then waits to be killed.
_PARENT_SCRIPT = """
import multiprocessing, os, sys, time
from repro.algorithms.figures import fig7_program
from repro.sweep import SimJob, SweepPlan, SweepSession

if __name__ == "__main__":
    backend, out = sys.argv[1], sys.argv[2]
    plan = SweepPlan(
        jobs=[SimJob(fig7_program())] * 8,
        backend=backend,
        workers=2,
        chunk_size=1,
    )
    stream = SweepSession(plan).stream()
    next(stream)
    pids = " ".join(str(p.pid) for p in multiprocessing.active_children())
    with open(out + ".tmp", "w") as f:
        f.write(pids)
    os.replace(out + ".tmp", out)
    time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (not gone, not a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
class TestParentDeath:
    """Workers must not outlive a SIGKILLed parent."""

    @pytest.mark.parametrize("backend", SUPERVISED)
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path, backend):
        script = tmp_path / "parent.py"
        script.write_text(_PARENT_SCRIPT)
        out = tmp_path / "pids"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script), backend, str(out)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not out.exists():
                time.sleep(0.02)
            assert out.exists(), "the parent never reported its workers"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        pids = [int(pid) for pid in out.read_text().split()]
        assert len(pids) == 2
        alive = pids
        deadline = time.monotonic() + 10
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if _running(pid)]
        for pid in alive:  # never leak them past the test
            os.kill(pid, signal.SIGKILL)
        assert not alive, "workers outlived their killed parent"


class TestWorkerReaping:
    """Pool workers are reaped on every exit path of a stream."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        """The pids of every worker the supervisor starts in this test."""
        from repro.sweep.backends.supervise import Supervisor

        pids = []
        real_spawn = Supervisor._spawn

        def recording_spawn(self, wid):
            worker = real_spawn(self, wid)
            pids.append(worker.process.pid)
            return worker

        monkeypatch.setattr(Supervisor, "_spawn", recording_spawn)
        return pids

    @staticmethod
    def assert_reaped(spawned):
        assert spawned, "the sweep never started a worker"
        alive = {child.pid for child in multiprocessing.active_children()}
        assert not alive & set(spawned)

    def test_reaped_after_generator_close(self, spawned, baseline):
        jobs, _, _ = baseline
        stream = SweepSession(
            SweepPlan(jobs=jobs, backend="pool", workers=2, chunk_size=3)
        ).stream()
        next(stream)
        stream.close()  # mid-sweep teardown (what Ctrl-C does in the CLI)
        self.assert_reaped(spawned)

    def test_reaped_after_error_raise(self, spawned):
        # max_events="bad" makes the engine raise a TypeError, which is
        # not a ReproError and so propagates instead of becoming a row.
        jobs = corpus_jobs()[:3] + [SimJob(fig7_program(), max_events="bad")]
        session = SweepSession(
            SweepPlan(jobs=jobs, backend="pool", workers=2, chunk_size=1)
        )
        with pytest.raises(TypeError):
            list(session.stream())
        self.assert_reaped(spawned)

    def test_reaped_after_exhaustion(self, spawned, baseline):
        jobs, base_rows, _ = baseline
        rows, _ = run_plan(jobs, "pool")
        assert rows == base_rows
        self.assert_reaped(spawned)


class TestFaultPlanUnits:
    """The FaultPlan pieces that fire inside workers, tested in-parent."""

    def test_iterable_spec_normalizes_to_fire_once(self, tmp_path):
        from repro.sweep.fault import FaultPlan

        plan = FaultPlan(spool=str(tmp_path), hang=[3, 7], hang_s=0.0)
        assert plan.hang == {3: 1, 7: 1}

    def test_invalid_entries_rejected(self, tmp_path):
        from repro.errors import ConfigError
        from repro.sweep.fault import FaultPlan

        with pytest.raises(ConfigError, match="index >= 0"):
            FaultPlan(spool=str(tmp_path), crash={-1: 1})
        with pytest.raises(ConfigError, match="times >= 1"):
            FaultPlan(spool=str(tmp_path), crash={0: 0})

    def test_hang_fires_exactly_times_then_runs_clean(self, tmp_path):
        from repro.sweep.fault import FaultPlan

        plan = FaultPlan(spool=str(tmp_path), hang={5: 1}, hang_s=0.0)
        plan.maybe_hang(5)  # armed: claims attempt 0 and sleeps (0s)
        assert (tmp_path / "hang-5-0").exists()
        plan.maybe_hang(5)  # exhausted: claims attempt 1, no sleep
        assert (tmp_path / "hang-5-1").exists()
        plan.maybe_hang(0)  # unarmed index: no marker at all
        assert not (tmp_path / "hang-0-0").exists()
