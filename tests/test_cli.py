"""CLI tests: check, label, run, show on program files."""

import json

import pytest

from repro.cli import main
from repro.lang import print_program
from repro.algorithms.figures import fig5_p3, fig6_cycle, fig7_program, fig8_program


@pytest.fixture
def fig7_file(tmp_path):
    path = tmp_path / "fig7.sysp"
    path.write_text(print_program(fig7_program()))
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.sysp"
    path.write_text(print_program(fig5_p3()))
    return str(path)


class TestShow:
    def test_show_lists_cells_and_messages(self, fig7_file, capsys):
        assert main(["show", fig7_file]) == 0
        out = capsys.readouterr().out
        assert "C1" in out and "C4" in out
        assert "C[4]" in out  # message summary


class TestCheck:
    def test_deadlock_free_exit_zero(self, fig7_file, capsys):
        assert main(["check", fig7_file]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free" in out
        assert "Step" in out

    def test_deadlocked_exit_one(self, p3_file, capsys):
        assert main(["check", p3_file]) == 1
        out = capsys.readouterr().out
        assert "DEADLOCKED" in out
        assert "[--]" in out

    def test_lookahead_capacity_flag(self, tmp_path, capsys):
        from repro.algorithms.figures import fig5_p1

        path = tmp_path / "p1.sysp"
        path.write_text(print_program(fig5_p1()))
        assert main(["check", str(path)]) == 1
        assert main(["check", str(path), "--capacity", "2"]) == 0


class TestLabel:
    def test_labels_printed(self, fig7_file, capsys):
        assert main(["label", fig7_file]) == 0
        out = capsys.readouterr().out
        assert "A=1 B=3 C=2" in out
        assert "label 1: A" in out


class TestRun:
    def test_ordered_completes(self, fig7_file, capsys):
        assert main(["run", fig7_file, "--policy", "ordered"]) == 0
        assert "completed" in capsys.readouterr().out

    def test_fcfs_deadlocks_exit_one(self, fig7_file, capsys):
        assert main(["run", fig7_file, "--policy", "fcfs"]) == 1
        assert "DEADLOCK" in capsys.readouterr().out

    def test_trace_flag(self, fig7_file, capsys):
        main(["run", fig7_file, "--trace"])
        out = capsys.readouterr().out
        assert "grant" in out

    def test_queues_flag(self, tmp_path, capsys):
        path = tmp_path / "fig8.sysp"
        path.write_text(print_program(fig8_program()))
        assert main(["run", str(path), "--queues", "2"]) == 0

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "/nonexistent/file.sysp"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_strict_ordered_shortfall_reports_error(self, tmp_path, capsys):
        path = tmp_path / "fig8.sysp"
        path.write_text(print_program(fig8_program()))
        # 1 queue but a size-2 same-label group: ConfigError -> exit 2.
        assert main(["run", str(path), "--queues", "1"]) == 2


class TestSweep:
    def test_sweep_table_and_exit(self, fig7_file, capsys):
        # FCFS with one queue deadlocks on Fig. 7 -> nonzero exit.
        code = main([
            "sweep", fig7_file, "--policies", "ordered,fcfs", "--queues", "1,2"
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "ordered q=1 cap=0" in out
        assert "fcfs q=1 cap=0" in out
        assert "deadlock" in out
        assert "3/4 runs completed" in out

    def test_sweep_all_completed_exit_zero(self, fig7_file, capsys):
        assert main(["sweep", fig7_file, "--policies", "ordered"]) == 0
        assert "1/1 runs completed" in capsys.readouterr().out

    def test_sweep_json_output(self, fig7_file, tmp_path, capsys):
        import json
        out_path = tmp_path / "sweep.json"
        main([
            "sweep", fig7_file, "--queues", "1,2", "--json", str(out_path)
        ])
        payload = json.loads(out_path.read_text())
        assert len(payload) == 2
        assert {"label", "outcome", "time", "events"} <= set(payload[0])

    def test_sweep_trailing_comma_tolerated(self, fig7_file, capsys):
        assert main(["sweep", fig7_file, "--queues", "1,2,"]) == 0
        assert "2/2 runs completed" in capsys.readouterr().out

    def test_sweep_non_integer_queues_clean_error(self, fig7_file, capsys):
        assert main(["sweep", fig7_file, "--queues", "1,x"]) == 2
        err = capsys.readouterr().err
        assert "--queues expects integers" in err


class TestSweepQuantiles:
    def test_stream_quantiles_printed_and_in_json(self, fig7_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "q.json"
        code = main([
            "sweep", fig7_file, "--queues", "1,2", "--repeat", "5",
            "--stream", "--quantiles", "p50,p95,p99", "--json", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[quantiles]" in out
        assert "[per-config-makespan]" in out
        payload = json.loads(out_path.read_text())
        assert {"quantiles", "per-config-makespan"} <= set(payload)
        quants = payload["quantiles"]["quantiles"]
        assert set(quants) == {"p50", "p95", "p99"}
        assert all(value is not None for value in quants.values())

    def test_eager_quantiles_wrap_json_payload(self, fig7_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "q.json"
        code = main([
            "sweep", fig7_file, "--queues", "1,2",
            "--quantiles", "p50", "--json", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[quantiles]" in out
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"runs", "quantiles", "per-config-makespan"}
        assert len(payload["runs"]) == 2
        assert {"label", "outcome", "time", "events"} <= set(payload["runs"][0])

    def test_json_shape_unchanged_without_quantiles(self, fig7_file, tmp_path):
        import json

        out_path = tmp_path / "plain.json"
        main(["sweep", fig7_file, "--queues", "1,2", "--json", str(out_path)])
        payload = json.loads(out_path.read_text())
        assert isinstance(payload, list) and len(payload) == 2

    def test_invalid_quantile_token_clean_error(self, fig7_file, capsys):
        assert main(["sweep", fig7_file, "--quantiles", "pfoo"]) == 2
        assert "quantiles expect" in capsys.readouterr().err

    def test_backend_flag_accepted(self, fig7_file, capsys):
        code = main([
            "sweep", fig7_file, "--queues", "1,2",
            "--backend", "pool", "--workers", "2",
        ])
        assert code == 0
        assert "2/2 runs completed" in capsys.readouterr().out
        # Only the built-in backends are choices; the parser refuses
        # anything else before a sweep starts.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", fig7_file, "--backend", "shm"])
        assert exc.value.code == 2
        assert "invalid choice: 'shm'" in capsys.readouterr().err


class TestSweepStream:
    def test_stream_rows_and_reducer_summaries(self, fig7_file, capsys):
        code = main([
            "sweep", fig7_file, "--policies", "ordered,fcfs",
            "--queues", "1,2", "--stream",
        ])
        out = capsys.readouterr().out
        assert code == 1  # fcfs q=1 deadlocks on Fig. 7
        assert "ordered q=1 cap=0" in out
        assert "deadlock" in out
        assert "3/4 runs completed" in out
        assert "[outcomes]" in out
        assert "[makespan]" in out
        assert "[deadlock-rate]" in out

    def test_stream_exit_zero_when_all_complete(self, fig7_file, capsys):
        assert main(["sweep", fig7_file, "--stream"]) == 0
        assert "1/1 runs completed" in capsys.readouterr().out

    def test_stream_repeat_scales_without_accumulation(self, fig7_file, capsys):
        code = main([
            "sweep", fig7_file, "--repeat", "50", "--stream",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "50/50 runs completed" in out
        assert '"total": 50' in out

    def test_stream_json_writes_reducer_aggregates(
        self, fig7_file, tmp_path, capsys
    ):
        import json

        out_path = tmp_path / "stream.json"
        main([
            "sweep", fig7_file, "--queues", "1,2", "--stream",
            "--json", str(out_path),
        ])
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"outcomes", "makespan", "deadlock-rate"}
        assert payload["outcomes"]["total"] == 2

    def test_stream_reports_infeasible_corners(self, tmp_path, capsys):
        from repro.lang import print_program

        path = tmp_path / "fig8.sysp"
        path.write_text(print_program(fig8_program()))
        code = main([
            "sweep", str(path), "--policies", "ordered", "--queues", "1,2",
            "--stream",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "infeasible" in out
        assert '"infeasible": 1' in out


class TestSweepFaultToleranceFlags:
    def test_job_timeout_and_max_retries_accepted(self, fig7_file, capsys):
        code = main([
            "sweep", fig7_file, "--policies", "ordered,fcfs",
            "--queues", "1,2", "--workers", "2",
            "--job-timeout", "30", "--max-retries", "1",
        ])
        out = capsys.readouterr().out
        assert code == 1  # fcfs q=1 still deadlocks; supervision changes nothing
        assert "3/4 runs completed" in out

    def test_checkpoint_resume_round_trip(self, fig7_file, tmp_path, capsys):
        ck = str(tmp_path / "sweep.ckpt")
        code = main([
            "sweep", fig7_file, "--policies", "ordered,fcfs",
            "--queues", "1,2", "--checkpoint", ck,
        ])
        first = capsys.readouterr().out
        assert code == 1
        assert "3/4 runs completed" in first
        # Resume against the finished checkpoint: no rows re-run, but the
        # tally (and exit code) still covers the whole grid via the
        # checkpointed CompletedCount reducer.
        code = main([
            "sweep", fig7_file, "--policies", "ordered,fcfs",
            "--queues", "1,2", "--checkpoint", ck, "--resume",
        ])
        resumed = capsys.readouterr().out
        assert code == 1
        assert "3/4 runs completed" in resumed
        assert "deadlock" not in resumed  # every row was skipped

    def test_stream_checkpoint_labels_follow_row_index(
        self, fig7_file, tmp_path, capsys
    ):
        ck = str(tmp_path / "stream.ckpt")
        code = main([
            "sweep", fig7_file, "--policies", "ordered,fcfs",
            "--queues", "1,2", "--stream", "--checkpoint", ck,
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "fcfs q=1 cap=0" in out
        assert "3/4 runs completed" in out

    def test_resume_without_checkpoint_clean_error(self, fig7_file, capsys):
        assert main(["sweep", fig7_file, "--resume"]) == 2
        assert "requires a checkpoint" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(
        self, fig7_file, tmp_path, capsys, monkeypatch
    ):
        from repro import cli as cli_mod

        closed = []

        class FakeSession:
            def __init__(self, plan):
                self.plan = plan

            def stream(self):
                def generator():
                    try:
                        yield
                    finally:
                        closed.append(True)

                gen = generator()
                next(gen)  # suspend at the yield so close() runs the finally

                class Raising:
                    def __iter__(self):
                        return self

                    def __next__(self):
                        raise KeyboardInterrupt

                    def close(self):
                        gen.close()

                return Raising()

        monkeypatch.setattr(cli_mod, "SweepSession", FakeSession)
        ck = str(tmp_path / "int.ckpt")
        code = cli_mod.main([
            "sweep", fig7_file, "--stream", "--checkpoint", ck,
        ])
        captured = capsys.readouterr()
        assert code == 130
        assert closed == [True]  # the stream was torn down
        assert "interrupted" in captured.err
        assert "--resume" in captured.err


@pytest.fixture
def burst_file(tmp_path):
    """Two cells exchanging 2-word bursts: static frontier at cap=2."""
    from repro.core.message import Message
    from repro.core.ops import R, W
    from repro.core.program import ArrayProgram

    msgs = [Message("M0", "A", "B", 2), Message("M1", "B", "A", 2)]
    progs = {
        "A": [W("M0", constant=1.0)] * 2 + [R("M1", into="a0"), R("M1", into="a1")],
        "B": [W("M1", constant=2.0)] * 2 + [R("M0", into="b0"), R("M0", into="b1")],
    }
    path = tmp_path / "burst.sysp"
    path.write_text(print_program(ArrayProgram(["A", "B"], msgs, progs)))
    return str(path)


class TestFrontier:
    def test_frontier_found_exit_zero(self, burst_file, capsys):
        code = main([
            "frontier", burst_file, "--queues", "1,2",
            "--capacity", "0,1,2,3,4,5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "frontier static q=1: cap=2" in out
        assert "frontier static q=2: cap=2" in out
        assert "[crossing-off" in out
        assert "grid jobs" in out

    def test_probe_rows_use_sweep_labels(self, burst_file, capsys):
        main(["frontier", burst_file, "--capacity", "0,1,2"])
        out = capsys.readouterr().out
        assert "static q=1 cap=2" in out  # frontier row, grid-format label

    def test_shared_lines_name_the_line_that_searched(self, burst_file, capsys):
        code = main([
            "frontier", burst_file, "--queues", "1,2",
            "--capacity", "0,1,2,3,4,5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "frontier static q=1: cap=2  [crossing-off, 1 probes]" in out
        assert (
            "frontier static q=2: cap=2  [crossing-off, 1 probes, shared with q=1]"
            in out
        )
        assert "executed 1/12 grid jobs" in out

    def test_no_frontier_exit_one(self, burst_file, capsys):
        code = main(["frontier", burst_file, "--capacity", "0,1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "none" in out

    def test_exhaustive_flag_runs_whole_grid(self, burst_file, capsys):
        code = main([
            "frontier", burst_file, "--capacity", "0,1,2,3,4,5",
            "--exhaustive",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[exhaustive, 6 probes]" in out
        assert "executed 6/6 grid jobs" in out

    def test_json_report(self, burst_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "frontier.json"
        code = main([
            "frontier", burst_file, "--queues", "1,2",
            "--capacity", "0,1,2,3,4,5,6,7", "--json", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["frontier"] == {"static q=1": 2, "static q=2": 2}
        assert payload["grid_jobs"] == 16
        assert payload["jobs_executed"] < payload["grid_jobs"]
        assert payload["lines"][0]["mode"] == "crossing-off"

    def test_fcfs_line_reported_exhaustive(self, fig7_file, capsys):
        code = main([
            "frontier", fig7_file, "--policies", "fcfs",
            "--queues", "2", "--capacity", "0,1,2",
        ])
        out = capsys.readouterr().out
        assert "[exhaustive, 3 probes]" in out
        assert code in (0, 1)

    def test_duplicate_capacities_clean_error(self, burst_file, capsys):
        assert main(["frontier", burst_file, "--capacity", "0,1,1"]) == 2
        assert "duplicates" in capsys.readouterr().err

    def test_workers_and_backend_flags(self, burst_file, capsys):
        code = main([
            "frontier", burst_file, "--capacity", "0,1,2,3",
            "--workers", "2", "--backend", "pool",
        ])
        assert code == 0
        assert "frontier static q=1: cap=2" in capsys.readouterr().out

    def test_witness_store_flag_is_gone(self, burst_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "frontier", burst_file, "--witness-store",
                str(tmp_path / "w.json"),
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutOfRangeNumbers:
    """Out-of-range numbers, empty lists and unknown policy names are
    one ``error:`` line and exit 2, with no run started."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--queues", "0"],
            ["run", "--capacity=-1"],
            ["sweep", "--queues", "1,0"],
            ["sweep", "--capacity=0,-1"],
            ["sweep", "--stream", "--queues", "0"],
            ["sweep", "--stream", "--capacity=-1"],
            ["sweep", "--queues", "1,2", "--repeat", "0"],
            ["sweep", "--stream", "--queues", "1,2", "--repeat", "0"],
            ["sweep", "--repeat=-2"],
            ["sweep", "--stream", "--repeat=-2"],
            ["sweep", "--queues", ","],
            ["sweep", "--capacity", ","],
            ["sweep", "--policies", ","],
            ["sweep", "--stream", "--policies", ","],
            ["sweep", "--policies", "bogus"],
            ["sweep", "--stream", "--policies", "ordered,bogus"],
            ["frontier", "--policies", "bogus"],
            ["frontier", "--policies", "static,bogus", "--exhaustive"],
            ["frontier", "--queues", "0"],
            ["frontier", "--capacity=-1,0"],
            ["frontier", "--workers", "0"],
            ["check", "--capacity=-1"],
            ["label", "--capacity=-1"],
        ],
        ids=" ".join,
    )
    def test_exits_two_with_one_error_line(self, fig7_file, capsys, argv):
        assert main([argv[0], fig7_file] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestCrossingBackendFlag:
    """``--crossing-backend`` is gone: the program picks its engine, and
    output never depends on which one runs."""

    @pytest.mark.parametrize("command", ["check", "label", "sweep", "frontier"])
    def test_flag_is_unrecognized(self, fig7_file, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, fig7_file, "--crossing-backend", "interned"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_check_backends_print_identically(self, fig7_file, capsys):
        from repro.core.crossing import configure_crossing_backend
        from repro.core.crossing_np import numpy_available

        outputs = []
        for backend in ("interned", "columnar"):
            if backend == "columnar" and not numpy_available():
                pytest.skip("columnar leg needs numpy")
            previous = configure_crossing_backend(backend)
            try:
                assert main(["check", fig7_file]) == 0
                assert main(["label", fig7_file]) == 0
            finally:
                configure_crossing_backend(previous)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


@pytest.fixture
def crossread_file(tmp_path):
    """Cross-reading cells: deadlocks at every capacity, every policy."""
    from repro.core.message import Message
    from repro.core.ops import R, W
    from repro.core.program import ArrayProgram

    msgs = [Message("M0", "A", "B", 1), Message("M1", "B", "A", 1)]
    progs = {
        "A": [R("M1", into="x"), W("M0", constant=1.0)],
        "B": [R("M0", into="y"), W("M1", constant=2.0)],
    }
    path = tmp_path / "crossread.sysp"
    path.write_text(print_program(ArrayProgram(["A", "B"], msgs, progs)))
    return str(path)


class TestWitnessCli:
    GRID = ["--policies", "static,fcfs", "--capacity", "0,1,2,3,4,5,6,7"]

    def test_sweep_with_store_prints_identical_rows(
        self, crossread_file, tmp_path, capsys
    ):
        store = str(tmp_path / "w.json")
        assert main(["sweep", crossread_file] + self.GRID) == 1
        baseline = capsys.readouterr().out
        assert main(
            ["sweep", crossread_file, "--witness-store", store] + self.GRID
        ) == 1
        cold = capsys.readouterr().out
        assert main(
            ["sweep", crossread_file, "--witness-store", store] + self.GRID
        ) == 1
        warm = capsys.readouterr().out
        # The per-row table is unchanged; only the [witness] line is new.
        strip = lambda out: [
            line for line in out.splitlines()
            if not line.startswith("[witness]")
        ]
        assert strip(cold) == strip(baseline)
        assert strip(warm) == strip(baseline)
        assert "[witness] pruned 8" in warm  # the whole static line
        assert "mined 0" in warm

    def test_witness_ls_show_prune(self, crossread_file, tmp_path, capsys):
        store = str(tmp_path / "w.json")
        main(["sweep", crossread_file, "--witness-store", store] + self.GRID)
        capsys.readouterr()

        assert main(["witness", "ls", store]) == 0
        out = capsys.readouterr().out
        assert "static" in out
        assert "cells=A,B" in out
        assert "1 witness(es)" in out
        witness_id = out.split()[0]

        assert main(["witness", "show", store, witness_id[:6]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["id"] == witness_id
        assert payload["policy"] == "static"

        assert main(["witness", "show", store, "zzzz"]) == 2
        assert "no witness matching" in capsys.readouterr().err

        assert main(["witness", "prune", store]) == 0
        assert "pruned 0" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ("pool",))
    def test_json_carries_witness_counters_per_backend(
        self, crossread_file, tmp_path, capsys, backend
    ):
        # Worker-side mining makes the counters meaningful on every
        # backend: a cold multiprocess sweep must report nonzero mined.
        store = str(tmp_path / "w.json")
        out_path = tmp_path / "sweep.json"
        multiproc = ["--backend", backend, "--workers", "2"]
        assert main(
            ["sweep", crossread_file, "--witness-store", store,
             "--json", str(out_path)] + self.GRID + multiproc
        ) == 1
        cold = json.loads(out_path.read_text())
        assert cold["witness_mined"] >= 1
        assert cold["witness_mined"] + cold["witness_pruned"] == 8
        assert cold["witness_stored"] >= 1
        assert len(cold["runs"]) == 16

        assert main(
            ["sweep", crossread_file, "--witness-store", store,
             "--json", str(out_path)] + self.GRID + multiproc
        ) == 1
        warm = json.loads(out_path.read_text())
        assert warm["witness_pruned"] == 8  # the whole static line
        assert warm["witness_mined"] == 0
        capsys.readouterr()

    def test_stream_json_carries_witness_counters(
        self, crossread_file, tmp_path, capsys
    ):
        store = str(tmp_path / "w.json")
        out_path = tmp_path / "stream.json"
        assert main(
            ["sweep", crossread_file, "--witness-store", store, "--stream",
             "--json", str(out_path)] + self.GRID
        ) == 1
        payload = json.loads(out_path.read_text())
        assert {"outcomes", "makespan", "deadlock-rate"} <= set(payload)
        assert payload["witness_mined"] >= 1
        assert payload["witness_mined"] + payload["witness_pruned"] == 8
        capsys.readouterr()

    def test_json_shape_unchanged_without_store(self, crossread_file, tmp_path):
        out_path = tmp_path / "plain.json"
        main(
            ["sweep", crossread_file, "--json", str(out_path)] + self.GRID
        )
        payload = json.loads(out_path.read_text())
        assert isinstance(payload, list) and len(payload) == 16
