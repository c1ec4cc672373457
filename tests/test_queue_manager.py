"""Queue-assignment policy unit tests (Section 7)."""

from fractions import Fraction

import pytest

from repro.arch.config import ArrayConfig
from repro.arch.links import Link
from repro.arch.queue import HardwareQueue, QueueStats
from repro.core.labeling import Labeling, label_groups
from repro.core.message import Message
from repro.errors import ConfigError, SimulationError
from repro.sim.engine import Engine
from repro.sim.queue_manager import (
    FCFSPolicy,
    OrderedPolicy,
    QueueManager,
    StaticPolicy,
    make_policy,
)
from repro.sim.runtime import Simulator


class FakeFlow:
    """Just enough of MessageFlow for the manager: one-hop route."""

    def __init__(self, name: str, length: int, link: Link) -> None:
        self.message = Message(name, link.src, link.dst, length)
        self.route = (link,)
        self.grants: list[HardwareQueue] = []

    def granted(self, hop: int, queue: HardwareQueue) -> None:
        self.grants.append(queue)


LINK = Link("C1", "C2")


def manager_with(policy, n_queues: int, competing, groups=None, capacity=4):
    mgr = QueueManager(policy, Engine())
    config = ArrayConfig(queues_per_link=n_queues, queue_capacity=capacity)
    mgr.add_link(LINK, config, competing, groups)
    return mgr


def drain(mgr: QueueManager, flow: FakeFlow) -> None:
    """Pass all of the flow's words through its granted queue and release."""
    queue = flow.grants[-1]
    for i in range(flow.message.length):
        queue.try_push(f"w{i}", blocked=lambda: None)
        queue.pop()
    mgr.release(queue)


class TestFCFS:
    def test_grant_in_arrival_order(self):
        mgr = manager_with(FCFSPolicy(), 1, ["A", "B"])
        a = FakeFlow("A", 1, LINK)
        b = FakeFlow("B", 1, LINK)
        mgr.request(b, 0)  # B arrives first
        mgr.request(a, 0)
        assert b.grants and not a.grants
        drain(mgr, b)
        assert a.grants  # A granted on release

    def test_multiple_free_queues(self):
        mgr = manager_with(FCFSPolicy(), 2, ["A", "B"])
        a, b = FakeFlow("A", 1, LINK), FakeFlow("B", 1, LINK)
        mgr.request(a, 0)
        mgr.request(b, 0)
        assert a.grants and b.grants
        assert a.grants[0] is not b.grants[0]

    def test_never_used_queues_before_released_ones(self):
        # The free pool hands out untouched queues in index order first,
        # then released queues in release order.
        mgr = manager_with(FCFSPolicy(), 3, ["A", "B", "C", "D"])
        a, b, c, d = (FakeFlow(n, 1, LINK) for n in "ABCD")
        mgr.request(a, 0)
        mgr.request(b, 0)
        assert (a.grants[0].index, b.grants[0].index) == (0, 1)
        drain(mgr, a)
        mgr.request(c, 0)
        assert c.grants[0].index == 2
        mgr.request(d, 0)
        assert d.grants[0] is a.grants[0]


class TestOrdered:
    def groups(self, **labels: int):
        """The label groups of the named messages, as set-up receives them."""
        labeling = Labeling({k: Fraction(v) for k, v in labels.items()})
        return label_groups(sorted(labels), labeling)

    def test_smaller_label_served_first(self):
        mgr = manager_with(
            OrderedPolicy(), 1, ["B", "C"], self.groups(B=3, C=2)
        )
        b, c = FakeFlow("B", 1, LINK), FakeFlow("C", 1, LINK)
        mgr.request(b, 0)  # B asks first but has the larger label
        assert not b.grants  # held: C not yet assigned
        mgr.request(c, 0)
        assert c.grants and not b.grants
        drain(mgr, c)
        assert b.grants

    def test_same_label_group_gets_separate_queues(self):
        mgr = manager_with(
            OrderedPolicy(), 2, ["A", "B"], self.groups(A=1, B=1)
        )
        a, b = FakeFlow("A", 1, LINK), FakeFlow("B", 1, LINK)
        mgr.request(a, 0)
        mgr.request(b, 0)
        assert a.grants[0] is not b.grants[0]

    def test_reservation_blocks_later_group(self):
        # Two queues, head group {A, B} same label, C label 2. Only A has
        # requested: one queue granted to A, the other reserved for B — C
        # must not steal it.
        mgr = manager_with(
            OrderedPolicy(), 2, ["A", "B", "C"], self.groups(A=1, B=1, C=2)
        )
        a, b, c = (FakeFlow(n, 1, LINK) for n in "ABC")
        mgr.request(a, 0)
        mgr.request(c, 0)
        assert a.grants and not c.grants  # free queue reserved for B
        mgr.request(b, 0)
        assert b.grants
        assert not c.grants  # both queues busy with the head group
        drain(mgr, a)
        assert c.grants  # head group complete and a queue freed

    def test_strict_rejects_oversized_group(self):
        with pytest.raises(ConfigError):
            manager_with(
                OrderedPolicy(strict=True),
                1,
                ["A", "B"],
                self.groups(A=1, B=1),
            )

    def test_lenient_allows_oversized_group(self):
        mgr = manager_with(
            OrderedPolicy(strict=False), 1, ["A", "B"], self.groups(A=1, B=1)
        )
        a = FakeFlow("A", 1, LINK)
        mgr.request(a, 0)
        assert a.grants  # it will simply never finish the group


class TestStatic:
    def test_prereserved_grant(self):
        mgr = manager_with(StaticPolicy(), 2, ["A", "B"])
        a, b = FakeFlow("A", 1, LINK), FakeFlow("B", 1, LINK)
        mgr.request(b, 0)
        mgr.request(a, 0)
        assert a.grants[0].index == 0  # deterministic by sorted name
        assert b.grants[0].index == 1

    def test_insufficient_queues_rejected(self):
        with pytest.raises(ConfigError):
            manager_with(StaticPolicy(), 1, ["A", "B"])


class TestLazyPool:
    def test_builds_only_granted_queues(self):
        mgr = manager_with(FCFSPolicy(), 8, ["A", "B"])
        a = FakeFlow("A", 1, LINK)
        mgr.request(a, 0)
        assert mgr.links[LINK].queues == a.grants

    def test_static_builds_one_queue_per_competing_message(self):
        mgr = manager_with(StaticPolicy(), 8, ["A", "B"])
        assert [q.index for q in mgr.links[LINK].queues] == [0, 1]

    def test_queue_stats_cover_every_configured_queue(self):
        mgr = manager_with(FCFSPolicy(), 3, ["A"])
        a = FakeFlow("A", 1, LINK)
        mgr.request(a, 0)
        drain(mgr, a)
        stats = dict(mgr.links[LINK].queue_stats())
        assert list(stats) == ["C1->C2#0", "C1->C2#1", "C1->C2#2"]
        assert stats["C1->C2#0"] is a.grants[0].stats
        assert stats["C1->C2#0"].assignments == 1
        assert stats["C1->C2#1"] == stats["C1->C2#2"] == QueueStats()

    def test_take_free_on_exhausted_pool_raises(self):
        mgr = manager_with(FCFSPolicy(), 1, ["A"])
        state = mgr.links[LINK]
        state.take_free()
        assert not state.has_free
        with pytest.raises(SimulationError):
            state.take_free()


class TestManager:
    def test_trace_records_grant_and_release(self):
        mgr = manager_with(FCFSPolicy(), 1, ["A"])
        a = FakeFlow("A", 1, LINK)
        mgr.request(a, 0)
        drain(mgr, a)
        kinds = [event.kind for event in mgr.trace]
        assert kinds == ["grant", "release"]
        assert mgr.trace[0].message == "A"

    def test_make_policy_names(self, fig7):
        assert make_policy("fcfs").name == "fcfs"
        assert make_policy("ordered").name == "ordered"
        assert make_policy("static").name == "static"
        with pytest.raises(ConfigError):
            make_policy("bogus")
        # A simulator takes a policy's name, never a policy object.
        known = r"\(known: ordered, static, fcfs\)"
        with pytest.raises(ConfigError, match="unknown assignment policy .*" + known):
            Simulator(fig7, policy=FCFSPolicy())
