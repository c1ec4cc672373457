"""Simulator edge cases: overrides, bidirectional traffic, odd shapes."""

import pytest

from repro import ArrayConfig, Link, Simulator, simulate
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.errors import ProgramError, SimulationError


class TestLinkOverrides:
    def test_override_fixes_only_the_hot_link(self, fig8):
        # Fig. 8 needs 2 queues only on C2->C3; override just that link.
        config = ArrayConfig(
            queues_per_link=1,
            link_queue_overrides={Link("C2", "C3"): 2},
        )
        result = simulate(fig8, config=config, policy="ordered")
        assert result.completed


class TestBidirectionalTraffic:
    def test_same_interval_both_directions(self):
        # A rightward and a leftward message share the C1-C2 interval but
        # use per-direction queues; no interference.
        prog = ArrayProgram(
            ("C1", "C2"),
            [
                Message("R1", "C1", "C2", 3),
                Message("L1", "C2", "C1", 3),
            ],
            {
                "C1": [W("R1"), R("L1"), W("R1"), R("L1"), W("R1"), R("L1")],
                "C2": [R("R1"), W("L1"), R("R1"), W("L1"), R("R1"), W("L1")],
            },
        )
        result = simulate(prog)
        assert result.completed


class TestDegenerateShapes:
    def test_single_message_single_word(self):
        prog = ArrayProgram(
            ("C1", "C2"),
            [Message("M", "C1", "C2", 1)],
            {"C1": [W("M", constant=7.0)], "C2": [R("M", into="v")]},
        )
        result = simulate(prog)
        assert result.completed
        assert result.registers["C2"]["v"] == 7.0

    def test_cells_with_no_programs(self):
        prog = ArrayProgram(
            ("C1", "C2", "C3", "C4", "C5"),
            [Message("M", "C1", "C5", 2)],
            {"C1": [W("M")] * 2, "C5": [R("M")] * 2},
        )
        result = simulate(prog)
        assert result.completed

    def test_empty_program_completes_immediately(self):
        prog = ArrayProgram(("C1", "C2"), [], {})
        result = simulate(prog)
        assert result.completed
        assert result.time == 0

    def test_long_message_through_narrow_pipe(self):
        prog = ArrayProgram(
            ("C1", "C2", "C3"),
            [Message("M", "C1", "C3", 50)],
            {
                "C1": [W("M", constant=float(i)) for i in range(50)],
                "C3": [R("M", into="last")] * 50,
            },
        )
        result = simulate(prog)
        assert result.completed
        assert result.received["M"] == [float(i) for i in range(50)]
        assert result.registers["C3"]["last"] == 49.0


class TestLatencyKnobs:
    def test_op_latency_scales_makespan(self):
        def run(op_latency: int) -> int:
            prog = ArrayProgram(
                ("C1", "C2"),
                [Message("M", "C1", "C2", 5)],
                {"C1": [W("M")] * 5, "C2": [R("M")] * 5},
            )
            return simulate(prog, config=ArrayConfig(op_latency=op_latency)).time

        assert run(4) > run(1)

    def test_buffered_queue_decouples_sender(self):
        prog = ArrayProgram(
            ("C1", "C2"),
            [Message("M", "C1", "C2", 4)],
            {
                "C1": [W("M")] * 4,
                "C2": [R("M", cycles=5)] * 4,  # slow reader
            },
        )
        sync = simulate(prog, config=ArrayConfig(queue_capacity=0))
        buffered = simulate(prog, config=ArrayConfig(queue_capacity=4))
        assert sync.completed and buffered.completed
        # With buffering, the sender's busy time is not stretched by the
        # slow reader: the cell finishes writing long before the run ends.
        assert buffered.busy_cycles["cell:C1"] <= sync.time


class TestValidationAtSimLevel:
    def test_program_errors_surface_before_running(self):
        with pytest.raises(ProgramError):
            ArrayProgram(
                ("C1", "C2"),
                [Message("M", "C1", "C2", 2)],
                {"C1": [W("M")], "C2": [R("M"), R("M")]},
            )

    def test_simulator_rejects_reuse(self, fig6):
        sim = Simulator(fig6)
        first = sim.run()
        assert first.completed
        # Simulators are single-shot: a second run would restart the
        # agents on the spent engine, so it raises instead.
        with pytest.raises(SimulationError, match="single-shot"):
            sim.run()
