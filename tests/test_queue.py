"""Unit tests for the hardware queue: handoff, buffering, extension."""

import pytest

from repro.arch.links import Link
from repro.arch.queue import HardwareQueue
from repro.errors import SimulationError


def make_queue(capacity: int, extension: bool = False) -> HardwareQueue:
    q = HardwareQueue(
        Link("C1", "C2"), 0, capacity, extension_allowed=extension,
        extension_penalty=3,
    )
    q.assign("A", expected_words=10)
    return q


class TestCapacityZero:
    def test_push_parks_without_reader(self):
        q = make_queue(0)
        fired = []
        assert q.try_push("w0", blocked=lambda: fired.append(1)) is False
        assert not fired
        assert q.has_word  # parked word is pop-visible

    def test_pop_takes_parked_word_and_resumes_writer(self):
        q = make_queue(0)
        fired = []
        q.try_push("w0", blocked=lambda: fired.append(1))
        word, penalty = q.pop()
        assert word == "w0"
        assert penalty == 0
        assert fired == [1]
        assert not q.has_word

    def test_parked_word_notifies_word_waiters(self):
        q = make_queue(0)
        pokes = []
        q.when_word(lambda: pokes.append(1))
        q.try_push("w0", blocked=lambda: None)
        assert pokes == [1]

    def test_double_park_is_a_bug_guard(self):
        q = make_queue(0)
        q.try_push("w0", blocked=lambda: None)
        with pytest.raises(SimulationError):
            q.try_push("w1", blocked=lambda: None)


class TestBuffered:
    def test_push_within_capacity(self):
        q = make_queue(2)
        assert q.try_push("w0", blocked=lambda: None) is True
        assert q.try_push("w1", blocked=lambda: None) is True
        assert q.occupancy == 2

    def test_push_beyond_capacity_parks(self):
        q = make_queue(1)
        q.try_push("w0", blocked=lambda: None)
        fired = []
        assert q.try_push("w1", blocked=lambda: fired.append(1)) is False
        word, _ = q.pop()
        assert word == "w0"
        assert fired == [1]  # parked word moved into the freed slot
        assert q.peek() == "w1"

    def test_fifo_order(self):
        q = make_queue(3)
        for i in range(3):
            q.try_push(f"w{i}", blocked=lambda: None)
        assert [q.pop()[0] for _ in range(3)] == ["w0", "w1", "w2"]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            make_queue(1).pop()


class TestAssignmentLifecycle:
    def test_assign_twice_rejected(self):
        q = make_queue(1)
        with pytest.raises(SimulationError):
            q.assign("B", 1)

    def test_push_unassigned_rejected(self):
        q = HardwareQueue(Link("C1", "C2"), 0, 1)
        with pytest.raises(SimulationError):
            q.try_push("w", blocked=lambda: None)

    def test_complete_after_all_words_passed(self):
        q = HardwareQueue(Link("C1", "C2"), 0, 1)
        q.assign("A", expected_words=2)
        for i in range(2):
            q.try_push(f"w{i}", blocked=lambda: None)
            q.pop()
        assert q.complete
        q.release()
        assert q.assigned is None

    def test_early_release_rejected(self):
        q = make_queue(1)
        with pytest.raises(SimulationError):
            q.release()

    def test_reassignment_after_release(self):
        q = HardwareQueue(Link("C1", "C2"), 0, 1)
        q.assign("A", 1)
        q.try_push("w", blocked=lambda: None)
        q.pop()
        q.release()
        q.assign("B", 1)
        assert q.assigned == "B"
        assert q.stats.assignments == 2


class TestExtension:
    def test_spill_beyond_capacity(self):
        q = make_queue(1, extension=True)
        q.try_push("w0", blocked=lambda: None)
        assert q.try_push("w1", blocked=lambda: None) is True  # spilled
        assert q.extended
        assert q.stats.extension_invocations == 1
        assert q.stats.spilled_words == 1

    def test_spilled_pop_pays_penalty(self):
        q = make_queue(1, extension=True)
        q.try_push("w0", blocked=lambda: None)
        q.try_push("w1", blocked=lambda: None)
        word, penalty = q.pop()
        assert word == "w0"
        assert penalty == 3

    def test_extension_clears_when_drained(self):
        q = make_queue(1, extension=True)
        q.try_push("w0", blocked=lambda: None)
        q.try_push("w1", blocked=lambda: None)
        q.pop()
        assert not q.extended  # back within physical capacity
        word, penalty = q.pop()
        assert penalty == 0

    def test_peak_tracking(self):
        q = make_queue(1, extension=True)
        for i in range(4):
            q.try_push(f"w{i}", blocked=lambda: None)
        assert q.stats.extension_peak_words == 3


class TestStats:
    def test_counters(self):
        q = make_queue(2)
        q.try_push("a", blocked=lambda: None)
        q.try_push("b", blocked=lambda: None)
        q.pop()
        assert q.stats.words_pushed == 2
        assert q.stats.words_popped == 1
        assert q.stats.peak_occupancy == 2

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            HardwareQueue(Link("C1", "C2"), 0, -1)
