"""Simulator integration tests: figure outcomes, values, counters."""

import pytest

from repro import (
    ArrayConfig,
    CommModel,
    Simulator,
    simulate,
)
from repro.algorithms.figures import (
    fig2_expected_outputs,
    fig2_fir,
    fig2_registers,
)
from repro.core.message import Message
from repro.core.ops import COMPUTE, R, W
from repro.core.program import ArrayProgram
from repro.errors import ConfigError, SimulationError


class TestFirEndToEnd:
    def test_completes_on_unbuffered_single_queue(self, fig2, unbuffered):
        result = simulate(fig2, config=unbuffered, registers=fig2_registers())
        assert result.completed
        assert not result.deadlocked

    def test_numeric_outputs(self, fig2):
        result = simulate(fig2, registers=fig2_registers())
        y1, y2 = fig2_expected_outputs()
        assert result.received["YA"] == [y1, y2]
        assert result.registers["HOST"]["y1"] == y1
        assert result.registers["HOST"]["y2"] == y2

    def test_custom_inputs_and_weights(self):
        xs = (2.0, -1.0, 0.5, 3.0)
        weights = (1.0, 2.0, -1.0)
        prog = fig2_fir(xs=xs)
        result = simulate(prog, registers=fig2_registers(weights))
        y1, y2 = fig2_expected_outputs(xs, weights)
        assert result.received["YA"] == [y1, y2]

    def test_words_transferred(self, fig2):
        result = simulate(fig2, registers=fig2_registers())
        assert result.words_transferred == fig2.total_words

    def test_all_policies_equivalent_outputs(self, fig2):
        expected = list(fig2_expected_outputs())
        for policy in ("ordered", "static", "fcfs"):
            result = simulate(fig2, policy=policy, registers=fig2_registers())
            assert result.completed, policy
            assert result.received["YA"] == expected, policy


class TestFig5Runtime:
    def test_p1_deadlocks_unbuffered(self, p1, unbuffered):
        result = simulate(p1, config=unbuffered, policy="fcfs")
        assert result.deadlocked
        assert result.blocked

    def test_p1_completes_with_buffered_separate_queues(self, p1, buffered2):
        result = simulate(p1, config=buffered2, policy="static")
        assert result.completed

    def test_p1_single_buffered_queue_still_deadlocks(self, p1):
        config = ArrayConfig(queues_per_link=1, queue_capacity=2)
        result = simulate(p1, config=config, policy="fcfs")
        assert result.deadlocked

    def test_p2_completes_with_buffering(self, p2, buffered2):
        result = simulate(p2, config=buffered2, policy="static")
        assert result.completed

    def test_p3_deadlocks_despite_generous_hardware(self, p3):
        config = ArrayConfig(queues_per_link=4, queue_capacity=16)
        result = simulate(p3, config=config, policy="static")
        assert result.deadlocked

    def test_deadlock_assert_raises(self, p3):
        result = simulate(p3, policy="fcfs")
        with pytest.raises(AssertionError):
            result.assert_completed()


class TestFig7Runtime:
    def test_fcfs_deadlocks(self, fig7, unbuffered):
        result = simulate(fig7, config=unbuffered, policy="fcfs")
        assert result.deadlocked

    def test_ordered_completes(self, fig7, unbuffered):
        result = simulate(fig7, config=unbuffered, policy="ordered")
        assert result.completed

    def test_ordered_assignment_order_on_shared_link(self, fig7, unbuffered):
        result = simulate(fig7, config=unbuffered, policy="ordered")
        grants = [
            e.message
            for e in result.assignment_trace
            if e.kind == "grant" and str(e.link) == "C3->C4"
        ]
        assert grants == ["C", "B"]  # label order, not arrival order

    def test_fcfs_wrong_order_on_shared_link(self, fig7, unbuffered):
        result = simulate(fig7, config=unbuffered, policy="fcfs")
        grants = [
            e.message
            for e in result.assignment_trace
            if e.kind == "grant" and str(e.link) == "C3->C4"
        ]
        assert grants == ["B"]  # B grabbed it; C never got on

    def test_think_time_rescues_fcfs(self, unbuffered):
        from repro.algorithms.figures import fig7_program

        # If C3 waits long enough before writing B, C's header wins the
        # race and even FCFS completes — the D1/D2 timing of the figure.
        slow = fig7_program(think_cycles=8)
        result = simulate(slow, config=unbuffered, policy="fcfs")
        assert result.completed


class TestFig8Fig9Runtime:
    def test_fig8_one_queue_deadlocks(self, fig8, unbuffered):
        assert simulate(fig8, config=unbuffered, policy="fcfs").deadlocked

    def test_fig8_two_queues_complete(self, fig8):
        config = ArrayConfig(queues_per_link=2)
        assert simulate(fig8, config=config, policy="ordered").completed

    def test_fig8_ordered_strict_rejects_one_queue(self, fig8, unbuffered):
        with pytest.raises(ConfigError):
            Simulator(fig8, config=unbuffered, policy="ordered")

    def test_fig8_ordered_lenient_deadlocks_on_one_queue(self, fig8, unbuffered):
        result = simulate(
            fig8, config=unbuffered, policy="ordered", strict=False
        )
        assert result.deadlocked

    def test_fig9_one_queue_deadlocks(self, fig9, unbuffered):
        assert simulate(fig9, config=unbuffered, policy="fcfs").deadlocked

    def test_fig9_two_queues_complete(self, fig9):
        config = ArrayConfig(queues_per_link=2)
        assert simulate(fig9, config=config, policy="static").completed


class TestMemoryModel:
    def test_systolic_zero_accesses(self, fig2):
        result = simulate(fig2, registers=fig2_registers())
        assert result.total_memory_accesses == 0

    def test_memory_model_four_per_word_through_cells(self, fig2):
        config = ArrayConfig(comm_model=CommModel.MEMORY_TO_MEMORY)
        result = simulate(fig2, config=config, registers=fig2_registers())
        # 15 words transferred, each with a read and a write end: 2 + 2.
        assert result.total_memory_accesses == 4 * fig2.total_words

    def test_memory_model_still_correct(self, fig2):
        config = ArrayConfig(comm_model=CommModel.MEMORY_TO_MEMORY)
        result = simulate(fig2, config=config, registers=fig2_registers())
        assert result.received["YA"] == list(fig2_expected_outputs())

    def test_memory_model_slower(self, fig2):
        fast = simulate(fig2, registers=fig2_registers())
        config = ArrayConfig(
            comm_model=CommModel.MEMORY_TO_MEMORY, memory_access_cycles=2
        )
        slow = simulate(fig2, config=config, registers=fig2_registers())
        assert slow.time > fast.time


class TestResultDetails:
    def test_queue_stats_exposed(self, fig6):
        result = simulate(fig6)
        assert any(s.words_pushed > 0 for s in result.queue_stats.values())

    def test_busy_cycles_and_utilization(self, fig2):
        result = simulate(fig2, registers=fig2_registers())
        assert result.busy_cycles["cell:C1"] > 0
        assert 0 < result.utilization("cell:C1") <= 1.0

    def test_summary_strings(self, fig6, p3):
        assert "completed" in simulate(fig6).summary()
        assert "DEADLOCK" in simulate(p3, policy="fcfs").summary()

    def test_timeout_reported(self, fig2):
        sim = Simulator(fig2, registers=fig2_registers())
        result = sim.run(max_events=3)
        assert result.timed_out
        assert not result.completed
        assert not result.deadlocked


class TestComputeOps:
    def test_compute_consumes_time(self):
        prog = ArrayProgram(
            ("C1", "C2"),
            [Message("A", "C1", "C2", 1)],
            {
                "C1": [COMPUTE("x", lambda: 5.0, [], cycles=10), W("A", from_register="x")],
                "C2": [R("A", into="got")],
            },
        )
        result = simulate(prog)
        assert result.completed
        assert result.registers["C2"]["got"] == 5.0
        assert result.time >= 10


class TestMultiHop:
    def test_three_hop_message(self):
        prog = ArrayProgram(
            ("C1", "C2", "C3", "C4"),
            [Message("M", "C1", "C4", 3)],
            {
                "C1": [W("M", constant=v) for v in (1.0, 2.0, 3.0)],
                "C4": [R("M", into=f"v{i}") for i in range(3)],
            },
        )
        result = simulate(prog)
        assert result.completed
        assert result.received["M"] == [1.0, 2.0, 3.0]
        # Words hop C1->C2->C3->C4: latency visible in the makespan.
        assert result.time >= 5

    @pytest.mark.parametrize("capacity", [0, 2])
    def test_falsy_values_cross_forwarders_intact(self, capacity):
        # Queues carry bare values, so None and 0.0 must not read as a
        # forwarder's empty hands on the two intermediate hops.
        values = (None, 0.0, 2.5)
        prog = ArrayProgram(
            ("C1", "C2", "C3", "C4"),
            [Message("M", "C1", "C4", len(values))],
            {
                "C1": [W("M", constant=v) for v in values],
                "C4": [R("M", into=f"v{i}") for i in range(len(values))],
            },
        )
        result = simulate(prog, config=ArrayConfig(queue_capacity=capacity))
        assert result.completed
        assert result.received == {"M": [None, 0.0, 2.5]}
        assert result.registers["C4"] == {"v0": None, "v1": 0.0, "v2": 2.5}

    def test_hop_latency_scales_makespan(self):
        def run(latency: int) -> int:
            prog = ArrayProgram(
                ("C1", "C2", "C3"),
                [Message("M", "C1", "C3", 1)],
                {"C1": [W("M")], "C3": [R("M")]},
            )
            config = ArrayConfig(hop_latency=latency)
            return simulate(prog, config=config).time

        assert run(5) > run(1)


class TestLifecycle:
    """build -> execute -> result -> close, and simulators are single-shot."""

    @staticmethod
    def fig7_fcfs(fig7) -> Simulator:
        config = ArrayConfig(queues_per_link=8, queue_capacity=2)
        return Simulator(fig7, config=config, policy="fcfs")

    def test_second_run_raises_instead_of_reporting_a_deadlock(self, fig7):
        # A second run used to restart the agents on the spent engine and
        # report this completed run as deadlocked with nothing blocked.
        sim = self.fig7_fcfs(fig7)
        first = sim.run()
        assert first.completed
        with pytest.raises(SimulationError, match="single-shot"):
            sim.run()
        with pytest.raises(SimulationError, match="single-shot"):
            sim.execute()
        assert sim.result() == first  # the refused re-run changed nothing

    def test_execute_exposes_the_row_fields_of_the_result(self, fig7):
        sim = self.fig7_fcfs(fig7)
        sim.execute()
        result = sim.result()
        for field in (
            "completed",
            "deadlocked",
            "timed_out",
            "time",
            "events",
            "words_transferred",
        ):
            assert getattr(sim, field) == getattr(result, field), field

    def test_result_before_execute_raises(self, fig7):
        with pytest.raises(SimulationError, match="execute"):
            self.fig7_fcfs(fig7).result()

    def test_closed_simulator_refuses_result_and_execute(self, fig7):
        sim = self.fig7_fcfs(fig7)
        sim.execute()
        sim.close()
        sim.close()  # idempotent
        with pytest.raises(SimulationError, match="closed"):
            sim.result()
        with pytest.raises(SimulationError, match="single-shot"):
            sim.execute()

    def test_close_drops_pending_events_of_a_timed_out_run(self, fig7):
        sim = self.fig7_fcfs(fig7)
        sim.execute(max_events=5)
        assert sim.timed_out and sim.engine.pending
        sim.close()
        assert sim.engine.pending == 0
        assert (sim.time, sim.events) == (sim.engine.now, 5)

    def test_close_before_execute_refuses_the_run(self, fig7):
        sim = self.fig7_fcfs(fig7)
        sim.close()
        with pytest.raises(SimulationError, match="single-shot"):
            sim.run()
