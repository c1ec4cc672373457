"""Checkpoint/resume harness: interrupted sweeps must report exactly.

Pins the resumability contract of :mod:`repro.sweep.checkpoint`: a sweep
interrupted at any point — generator close, hard SIGKILL of the whole
CLI process — and resumed against its checkpoint yields the remaining
rows and reducer summaries *byte-identical* to a never-interrupted run;
a corrupt checkpoint (truncated, bit-flipped, foreign bytes) degrades to
a clean restart; a valid checkpoint for a different sweep refuses to
resume.
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms.figures import fig7_program
from repro.errors import CheckpointError, ConfigError
from repro.lang.printer import print_program
from repro.sweep import (
    CompletedCount,
    DeadlockRateByConfig,
    MakespanHistogram,
    QuantileReducer,
    SimJob,
    SweepCheckpoint,
    SweepPlan,
    SweepSession,
    sweep_fingerprint,
    sweep_jobs,
)


def corpus_jobs() -> list[SimJob]:
    jobs = sweep_jobs(
        fig7_program(), policies=("ordered", "fcfs"), queues=(1, 2), repeat=2
    )
    jobs.append(SimJob(fig7_program(), max_events=3))
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


def plan_for(jobs, reducers, **kwargs):
    return SweepPlan(jobs=jobs, reducers=reducers, **kwargs)


@pytest.fixture(scope="module")
def baseline():
    jobs = corpus_jobs()
    reducers = fresh_reducers()
    rows = list(SweepSession(plan_for(jobs, reducers)).stream())
    return jobs, rows, summaries_json(reducers)


class TestResumeByteIdentity:
    @pytest.mark.parametrize("backend", ("serial", "pool"))
    @pytest.mark.parametrize("cut", (1, 4, 8))
    def test_interrupt_then_resume(self, baseline, tmp_path, backend, cut):
        jobs, base_rows, base_summaries = baseline
        ck = str(tmp_path / f"{backend}-{cut}.ckpt")
        first = fresh_reducers()
        stream = SweepSession(
            plan_for(
                jobs,
                first,
                backend=backend,
                workers=2,
                chunk_size=3,
                checkpoint=ck,
                checkpoint_every=2,
            )
        ).stream()
        head = list(itertools.islice(stream, cut))
        stream.close()  # the finally writes a final snapshot
        assert os.path.exists(ck)

        second = fresh_reducers()
        tail = list(
            SweepSession(
                plan_for(
                    jobs,
                    second,
                    backend=backend,
                    workers=2,
                    chunk_size=3,
                    checkpoint=ck,
                    resume=True,
                )
            ).stream()
        )
        assert [r.index for r in tail] == list(range(cut, len(jobs)))
        assert head + tail == base_rows
        assert summaries_json(second) == base_summaries

    def test_resume_when_complete_restores_summaries(self, baseline, tmp_path):
        jobs, _, base_summaries = baseline
        ck = str(tmp_path / "done.ckpt")
        first = fresh_reducers()
        list(SweepSession(plan_for(jobs, first, checkpoint=ck)).stream())
        second = fresh_reducers()
        rows = list(
            SweepSession(
                plan_for(jobs, second, checkpoint=ck, resume=True)
            ).stream()
        )
        assert rows == []
        assert summaries_json(second) == base_summaries

    def test_without_resume_flag_checkpoint_is_overwritten(
        self, baseline, tmp_path
    ):
        jobs, base_rows, base_summaries = baseline
        ck = str(tmp_path / "fresh.ckpt")
        first = fresh_reducers()
        stream = SweepSession(plan_for(jobs, first, checkpoint=ck)).stream()
        next(stream)
        stream.close()
        # No --resume: the sweep starts over and runs everything.
        second = fresh_reducers()
        rows = list(SweepSession(plan_for(jobs, second, checkpoint=ck)).stream())
        assert rows == base_rows
        assert summaries_json(second) == base_summaries


class TestCorruptionTolerance:
    def _partial_checkpoint(self, jobs, tmp_path, name):
        ck = str(tmp_path / name)
        stream = SweepSession(
            plan_for(jobs, fresh_reducers(), checkpoint=ck)
        ).stream()
        list(itertools.islice(stream, 5))
        stream.close()
        return ck

    def _assert_clean_restart(self, jobs, ck, base_rows, base_summaries):
        reducers = fresh_reducers()
        rows = list(
            SweepSession(
                plan_for(jobs, reducers, checkpoint=ck, resume=True)
            ).stream()
        )
        assert rows == base_rows  # nothing was skipped
        assert summaries_json(reducers) == base_summaries

    def test_truncated_checkpoint_restarts_cleanly(self, baseline, tmp_path):
        jobs, base_rows, base_summaries = baseline
        ck = self._partial_checkpoint(jobs, tmp_path, "trunc.ckpt")
        blob = Path(ck).read_bytes()
        Path(ck).write_bytes(blob[: len(blob) // 2])
        self._assert_clean_restart(jobs, ck, base_rows, base_summaries)

    def test_bit_flipped_checkpoint_restarts_cleanly(self, baseline, tmp_path):
        jobs, base_rows, base_summaries = baseline
        ck = self._partial_checkpoint(jobs, tmp_path, "flip.ckpt")
        blob = bytearray(Path(ck).read_bytes())
        blob[len(blob) // 2] ^= 0x40
        Path(ck).write_bytes(bytes(blob))
        self._assert_clean_restart(jobs, ck, base_rows, base_summaries)

    def test_foreign_bytes_restart_cleanly(self, baseline, tmp_path):
        jobs, base_rows, base_summaries = baseline
        ck = str(tmp_path / "garbage.ckpt")
        Path(ck).write_bytes(b"not a checkpoint at all" * 10)
        self._assert_clean_restart(jobs, ck, base_rows, base_summaries)

    def test_missing_checkpoint_restarts_cleanly(self, baseline, tmp_path):
        jobs, base_rows, base_summaries = baseline
        ck = str(tmp_path / "never-written.ckpt")
        self._assert_clean_restart(jobs, ck, base_rows, base_summaries)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda blob: blob[: len(blob) // 2],  # truncated
            lambda blob: b"junk" * 50,  # foreign bytes
            lambda blob: blob[:9] + bytes([blob[9] ^ 0x40]) + blob[10:],
        ],
        ids=["truncated", "foreign", "bit-flip"],
    )
    def test_rejected_load_is_counted(self, tmp_path, corrupt):
        path = str(tmp_path / "counted.ckpt")
        reducers = fresh_reducers()
        ck = SweepCheckpoint(path, "fp", 8)
        ck.mark_done(0)
        ck.save(reducers)
        Path(path).write_bytes(corrupt(Path(path).read_bytes()))
        fresh = SweepCheckpoint(path, "fp", 8)
        assert fresh.resume(fresh_reducers()) == 0  # clean restart...
        assert fresh.stats()["loads_rejected"] == 1  # ...but observable

    def test_missing_file_is_not_counted_as_rejected(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path / "absent.ckpt"), "fp", 8)
        assert ck.resume(fresh_reducers()) == 0
        assert ck.stats() == {"n_jobs": 8, "done": 0, "loads_rejected": 0}

    def test_memory_error_propagates_not_swallowed(
        self, tmp_path, monkeypatch
    ):
        # The bare except this replaced would have read an OOM during
        # unpickling as "absent checkpoint" and silently redone the
        # whole sweep. Only the corruption classes may be swallowed.
        import pickle

        path = str(tmp_path / "oom.ckpt")
        ck = SweepCheckpoint(path, "fp", 8)
        ck.save(fresh_reducers())

        def exploding_loads(payload):
            raise MemoryError("simulated OOM during unpickle")

        monkeypatch.setattr(pickle, "loads", exploding_loads)
        fresh = SweepCheckpoint(path, "fp", 8)
        with pytest.raises(MemoryError):
            fresh.resume(fresh_reducers())
        assert fresh.loads_rejected == 0


class TestMismatchRefusal:
    def test_different_jobs_refuse_to_resume(self, baseline, tmp_path):
        jobs, _, _ = baseline
        ck = str(tmp_path / "grid.ckpt")
        stream = SweepSession(
            plan_for(jobs, fresh_reducers(), checkpoint=ck)
        ).stream()
        next(stream)
        stream.close()
        with pytest.raises(CheckpointError, match="different sweep"):
            list(
                SweepSession(
                    plan_for(
                        jobs[:3], fresh_reducers(), checkpoint=ck, resume=True
                    )
                ).stream()
            )

    def test_different_reducers_refuse_to_resume(self, baseline, tmp_path):
        # The reducer stack is folded into the grid fingerprint, so a
        # changed stack is caught as a different sweep.
        jobs, _, _ = baseline
        ck = str(tmp_path / "reducers.ckpt")
        stream = SweepSession(
            plan_for(jobs, fresh_reducers(), checkpoint=ck)
        ).stream()
        next(stream)
        stream.close()
        with pytest.raises(CheckpointError, match="different sweep"):
            list(
                SweepSession(
                    plan_for(
                        jobs, (CompletedCount(),), checkpoint=ck, resume=True
                    )
                ).stream()
            )

    def test_reducer_stack_check_guards_direct_use(self, tmp_path):
        # Second line of defense for callers constructing SweepCheckpoint
        # directly with a fingerprint that ignores reducers.
        path = str(tmp_path / "stack.ckpt")
        ck = SweepCheckpoint(path, "same-fp", 4)
        ck.save(fresh_reducers())
        with pytest.raises(CheckpointError, match="reducer stack"):
            SweepCheckpoint(path, "same-fp", 4).resume((CompletedCount(),))

    def test_job_count_check_guards_direct_use(self, tmp_path):
        path = str(tmp_path / "count.ckpt")
        reducers = fresh_reducers()
        SweepCheckpoint(path, "same-fp", 4).save(reducers)
        with pytest.raises(CheckpointError, match="4 jobs"):
            SweepCheckpoint(path, "same-fp", 9).resume(reducers)


class TestPlanValidation:
    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ConfigError, match="requires a checkpoint"):
            SweepSession(SweepPlan(jobs=corpus_jobs(), resume=True))

    def test_checkpoint_every_validated(self):
        with pytest.raises(ConfigError, match="checkpoint_every"):
            SweepSession(SweepPlan(jobs=corpus_jobs(), checkpoint_every=0))


class TestFinalSnapshotFailure:
    """A final snapshot that cannot be written must not pass silently.

    The sweep's rows are fine, but the checkpoint on disk is stale; a
    later ``--resume`` would silently redo (or double-count) work. The
    session must record the failure, warn, and raise
    :class:`CheckpointError` when nothing else is already propagating.
    """

    def _blocked_checkpoint_path(self, tmp_path) -> str:
        # The checkpoint's parent "directory" is a regular file, so
        # every snapshot write fails at makedirs with a real OSError.
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        return str(blocker / "sweep.ckpt")

    def _session(self, tmp_path):
        # checkpoint_every is huge: periodic saves never fire, so the
        # *final* snapshot in the stream's finally is the failing write.
        return SweepSession(
            plan_for(
                corpus_jobs(),
                fresh_reducers(),
                checkpoint=self._blocked_checkpoint_path(tmp_path),
                checkpoint_every=10_000,
            )
        )

    def test_exhausted_stream_raises_and_marks_session(self, tmp_path):
        session = self._session(tmp_path)
        rows = []
        with pytest.warns(RuntimeWarning, match="final checkpoint"):
            with pytest.raises(CheckpointError, match="final checkpoint"):
                for row in session.stream():
                    rows.append(row)
        # Every row was delivered before the failure surfaced.
        assert len(rows) == len(corpus_jobs())
        assert isinstance(session.checkpoint_error, OSError)

    def test_closed_stream_warns_and_marks_without_raising(self, tmp_path):
        # Ctrl-C teardown closes the generator; GeneratorExit is the
        # more fundamental event, so the failure is recorded and warned
        # about but close() still completes.
        session = self._session(tmp_path)
        stream = session.stream()
        next(stream)
        with pytest.warns(RuntimeWarning, match="final checkpoint"):
            stream.close()
        assert isinstance(session.checkpoint_error, OSError)

    def test_body_error_not_replaced_by_checkpoint_error(self, tmp_path):
        # An error propagating out of the stream body must survive a
        # failing final save (which is still recorded on the session).
        jobs = corpus_jobs() + [SimJob(fig7_program(), max_events="bad")]
        session = SweepSession(
            plan_for(
                jobs,
                fresh_reducers(),
                checkpoint=self._blocked_checkpoint_path(tmp_path),
                checkpoint_every=10_000,
            )
        )
        with pytest.warns(RuntimeWarning, match="final checkpoint"):
            with pytest.raises(TypeError):
                list(session.stream())
        assert isinstance(session.checkpoint_error, OSError)

    def test_healthy_session_has_no_checkpoint_error(self, tmp_path):
        ck = str(tmp_path / "ok.ckpt")
        session = SweepSession(
            plan_for(corpus_jobs(), fresh_reducers(), checkpoint=ck)
        )
        rows = list(session.stream())
        assert rows and os.path.exists(ck)
        assert session.checkpoint_error is None


class TestCheckpointUnit:
    def test_bitmap_roundtrip(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path / "u.ckpt"), "fp", 20, every=4)
        assert ck.remaining() == list(range(20))
        for i in (0, 7, 8, 19):
            ck.mark_done(i)
        assert all(ck.is_done(i) for i in (0, 7, 8, 19))
        assert not ck.is_done(1)
        assert ck.done_count() == 4
        assert ck.remaining() == [
            i for i in range(20) if i not in (0, 7, 8, 19)
        ]

    def test_maybe_save_cadence(self, tmp_path):
        path = tmp_path / "cadence.ckpt"
        ck = SweepCheckpoint(str(path), "fp", 20, every=4)
        saves = []
        for i in range(9):
            ck.mark_done(i)
            saves.append(ck.maybe_save(()))
        assert saves == [False] * 3 + [True] + [False] * 3 + [True, False]

    def test_save_resume_roundtrip(self, tmp_path):
        path = str(tmp_path / "rt.ckpt")
        jobs = corpus_jobs()
        reducers = fresh_reducers()
        fp = sweep_fingerprint(jobs, reducers)
        ck = SweepCheckpoint(path, fp, len(jobs))
        ck.mark_done(0)
        ck.mark_done(3)
        ck.save(reducers)
        # No stray temp files survive an atomic publish.
        assert [p.name for p in Path(str(tmp_path)).iterdir()] == ["rt.ckpt"]

        fresh = fresh_reducers()
        ck2 = SweepCheckpoint(path, fp, len(jobs))
        assert ck2.resume(fresh) == 2
        assert ck2.is_done(0) and ck2.is_done(3) and not ck2.is_done(1)
        assert summaries_json(fresh) == summaries_json(reducers)

    def test_fingerprint_sensitivity(self):
        jobs = corpus_jobs()
        reducers = fresh_reducers()
        fp = sweep_fingerprint(jobs, reducers)
        assert fp == sweep_fingerprint(list(jobs), fresh_reducers())
        assert fp != sweep_fingerprint(jobs[:-1], reducers)
        assert fp != sweep_fingerprint(jobs, (CompletedCount(),))
        tweaked = jobs[:-1] + [SimJob(fig7_program(), max_events=4)]
        assert fp != sweep_fingerprint(tweaked, reducers)


class TestCliSigkillResume:
    """End-to-end: SIGKILL the CLI mid-sweep, resume, compare bytes."""

    ARGS = [
        "--policies", "ordered,fcfs",
        "--queues", "1,2",
        "--capacity", "0,2",
        "--repeat", "3",
        "--stream",
        "--quantiles", "p50,p95",
        "--workers", "2",
    ]

    def _env(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_sigkill_then_resume_byte_identical(self, tmp_path):
        program = tmp_path / "fig7.sysp"
        program.write_text(print_program(fig7_program()))
        ref_json = tmp_path / "ref.json"
        res_json = tmp_path / "res.json"
        ck = tmp_path / "ck.bin"
        env = self._env()

        def cli(*extra):
            return subprocess.run(
                [sys.executable, "-m", "repro", "sweep", str(program)]
                + self.ARGS
                + list(extra),
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )

        ref = cli("--json", str(ref_json))
        assert ref.returncode in (0, 1), ref.stderr

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", str(program)]
            + self.ARGS
            + ["--checkpoint", str(ck), "--checkpoint-every", "4"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline and not ck.exists():
                time.sleep(0.02)
            assert ck.exists(), "checkpoint never appeared"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()

        res = cli(
            "--checkpoint", str(ck), "--resume", "--json", str(res_json)
        )
        assert res.returncode in (0, 1), res.stderr
        assert res_json.read_bytes() == ref_json.read_bytes()
