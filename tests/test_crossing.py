"""Crossing-off procedure tests: Sections 3 and 8.1, Figs. 4, 5, 6, 10."""

import pytest

from repro.core.crossing import (
    LookaheadConfig,
    cross_off,
    is_deadlock_free,
    uniform_lookahead,
)
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram


class TestFig4Trace:
    """The crossing-off run on the Fig. 2 filtering program."""

    def test_deadlock_free(self, fig2):
        assert cross_off(fig2).deadlock_free

    def test_twelve_steps(self, fig2):
        result = cross_off(fig2)
        assert result.step_count == 12

    def test_fifteen_pairs(self, fig2):
        assert cross_off(fig2).pairs_crossed == 15

    def test_double_steps_are_3_5_9(self, fig2):
        result = cross_off(fig2)
        doubles = [
            i for i, step in enumerate(result.steps, start=1) if len(step) == 2
        ]
        assert doubles == [3, 5, 9]

    def test_first_pair_is_xa(self, fig2):
        result = cross_off(fig2)
        first = result.steps[0]
        assert len(first) == 1
        assert first[0].message == "XA"
        assert first[0].sender == "HOST"
        assert first[0].receiver == "C1"

    def test_sequential_mode_same_classification(self, fig2):
        assert cross_off(fig2, mode="sequential").deadlock_free

    def test_sequential_crosses_one_pair_per_step(self, fig2):
        result = cross_off(fig2, mode="sequential")
        assert all(len(step) == 1 for step in result.steps)
        assert result.step_count == 15


class TestFig5Classification:
    def test_p1_deadlocked(self, p1):
        assert not is_deadlock_free(p1)

    def test_p2_deadlocked(self, p2):
        assert not is_deadlock_free(p2)

    def test_p3_deadlocked(self, p3):
        assert not is_deadlock_free(p3)

    def test_p1_no_executable_pair_at_start(self, p1):
        result = cross_off(p1)
        assert result.pairs_crossed == 0
        assert set(result.uncrossed) == {"C1", "C2"}

    def test_uncrossed_lists_all_ops(self, p1):
        result = cross_off(p1)
        assert len(result.uncrossed["C1"]) == 6
        assert len(result.uncrossed["C2"]) == 6


class TestFig6Cycle:
    def test_cycle_yet_deadlock_free(self, fig6):
        assert is_deadlock_free(fig6)

    def test_cycle_crossing_order(self, fig6):
        result = cross_off(fig6, mode="sequential")
        assert [p.message for p in result.crossings] == ["A", "B", "C", "D"]


class TestLookaheadFig10:
    """Section 8.1 on program P1 with two-word queues."""

    def test_p1_becomes_deadlock_free(self, p1):
        assert is_deadlock_free(p1, uniform_lookahead(p1, 2))

    def test_first_pair_is_b_skipping_two_writes(self, p1):
        result = cross_off(p1, lookahead=uniform_lookahead(p1, 2), mode="sequential")
        first = result.crossings[0]
        assert first.message == "B"
        assert first.sender_pos == 2  # W(B) behind two W(A)s
        assert first.receiver_pos == 0
        assert dict(first.skipped_sender) == {"A": 2}

    def test_second_pair_is_first_a(self, p1):
        result = cross_off(p1, lookahead=uniform_lookahead(p1, 2), mode="sequential")
        second = result.crossings[1]
        assert second.message == "A"
        assert second.sender_pos == 0
        assert second.receiver_pos == 1

    def test_third_pair_is_b_again_skipping_two(self, p1):
        result = cross_off(p1, lookahead=uniform_lookahead(p1, 2), mode="sequential")
        third = result.crossings[2]
        assert third.message == "B"
        assert third.sender_pos == 4
        assert dict(third.skipped_sender) == {"A": 2}

    def test_max_skipped_never_exceeds_bound(self, p1):
        result = cross_off(p1, lookahead=uniform_lookahead(p1, 2), mode="sequential")
        assert result.max_skipped["A"] == 2
        assert result.max_skipped["B"] == 0

    def test_capacity_one_insufficient_for_p1(self, p1):
        assert not is_deadlock_free(p1, uniform_lookahead(p1, 1))

    def test_rule_r1_p3_never_rescued(self, p3):
        assert not is_deadlock_free(p3, uniform_lookahead(p3, 10_000))

    def test_p2_rescued_by_capacity_two(self, p2):
        assert is_deadlock_free(p2, uniform_lookahead(p2, 2))

    def test_p2_capacity_one_insufficient(self, p2):
        # Both cells must buffer their full 2-word output before reading.
        assert not is_deadlock_free(p2, uniform_lookahead(p2, 1))


class TestLookaheadConfig:
    def test_per_message_capacity(self):
        cfg = LookaheadConfig(route_capacity={"A": 2.0}, default_capacity=1.0)
        assert cfg.capacity("A") == 2.0
        assert cfg.capacity("B") == 1.0


class TestRuleR2Accounting:
    def test_skip_budget_is_per_message(self):
        # C1 writes A, B, then C; C2 reads C, A, B. Locating W(C) skips one
        # write to A and one to B — allowed with capacity 1 each, even
        # though two writes are skipped in total.
        prog = ArrayProgram(
            ("C1", "C2"),
            [
                Message("A", "C1", "C2", 1),
                Message("B", "C1", "C2", 1),
                Message("C", "C1", "C2", 1),
            ],
            {
                "C1": [W("A"), W("B"), W("C")],
                "C2": [R("C"), R("A"), R("B")],
            },
        )
        assert not is_deadlock_free(prog)
        assert is_deadlock_free(prog, uniform_lookahead(prog, 1))

    def test_receiver_side_lookahead(self):
        # The receiver's R(A) sits behind its own write; lookahead must
        # skip the receiver-side write too (rule R1 allows it).
        prog = ArrayProgram(
            ("C1", "C2"),
            [
                Message("A", "C1", "C2", 1),
                Message("B", "C2", "C1", 1),
            ],
            {
                "C1": [W("A"), R("B")],
                "C2": [W("B"), R("A")],
            },
        )
        assert not is_deadlock_free(prog)
        result = cross_off(prog, lookahead=uniform_lookahead(prog, 1), mode="sequential")
        assert result.deadlock_free
        first = result.crossings[0]
        assert first.skipped_receiver or first.skipped_sender


class TestModeValidation:
    def test_unknown_mode(self, fig2):
        with pytest.raises(ValueError):
            cross_off(fig2, mode="bogus")


class TestObserver:
    def test_observer_sees_every_pair(self, fig6):
        seen = []
        cross_off(
            fig6,
            mode="sequential",
            observer=lambda state, pair: seen.append(pair.message),
        )
        assert seen == ["A", "B", "C", "D"]

    def test_parallel_mode_rejects_an_observer(self, fig6):
        # Only the sequential loop keeps the views an observer reads.
        with pytest.raises(ValueError, match="sequential"):
            cross_off(fig6, observer=lambda state, pair: None)

    def test_no_pick_parameter(self, fig7):
        with pytest.raises(TypeError):
            cross_off(fig7, mode="sequential", pick=lambda pairs: pairs[-1])
