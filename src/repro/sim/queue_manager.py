"""Run-time queue assignment: the manager and the three policies.

Section 7 of the paper describes *static* assignment (every competing
message gets its own queue before execution) and *dynamic* assignment
under two rules that make it compatible with a consistent labeling:

* **ordered assignment** — a message may be assigned a queue only after
  every competing message with a smaller label has been assigned one;
* **simultaneous assignment** — same-label messages get separate queues,
  effectively reserved as a group ("a cell can use some reservation scheme
  to reserve a queue to a message prior to the message's arrival").

The non-compatible **FCFS** policy grants free queues in arrival order; it
is the baseline that reproduces the queue-induced deadlocks of Figs. 7-9.

A simulator chooses its policy by name (:data:`POLICY_NAMES`, built by
:func:`make_policy`). A request is the pair ``(flow, hop)``, passed as
two arguments from :meth:`QueueManager.request` through the policy to
:meth:`QueueManager.grant`; FCFS and ordered keep the pair while it
waits. Ordered set-up takes each link's label groups from the
simulator's analysis entry.

Per-link policy state lives directly on the :class:`LinkState` (the
``policy_data`` slot) rather than in ``Link``-keyed side tables, so the
assignment hot path performs no hashing.

Each :class:`LinkState` is a lazy queue pool. The link keeps its
configured queue count, but a :class:`HardwareQueue` is built only when a
policy takes one, so a run costs the queues it uses rather than the
queues the hardware provides (a provisioning sweep configures up to
dozens per link, and most sit idle). Built queues are always the lowest
indices, in index order. The free pool grants exactly as an eager pool
of every configured queue would: queues never used, in index order,
then released queues, in release order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.arch.config import ArrayConfig
from repro.arch.links import Link
from repro.arch.queue import HardwareQueue, QueueStats
from repro.errors import ConfigError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.agents import MessageFlow
    from repro.sim.engine import Engine

#: Per-link label groups, ascending by label, members sorted by name.
LabelGroups = Sequence[Sequence[str]]


@dataclass(frozen=True, slots=True)
class AssignmentEvent:
    """One grant or release, for traces and the Fig. 7-9 timelines."""

    time: int
    kind: str  # "grant" | "release"
    link: Link
    queue_index: int
    message: str

    def __str__(self) -> str:
        return f"t={self.time} {self.kind} {self.link}#{self.queue_index} <- {self.message}"


class LinkState:
    """Mutable per-link assignment state shared with the policy.

    ``count`` is the configured number of queues; ``queues`` holds the
    ones built so far (indices ``0 .. len(queues) - 1``) and ``free`` the
    released ones, in release order. A queue index not yet built is
    free and never used.
    """

    __slots__ = ("link", "count", "queues", "free", "policy_data", "_config")

    def __init__(self, link: Link, config: ArrayConfig) -> None:
        self.link = link
        # ArrayConfig.queues_on, called only when some link is overridden.
        self.count = (
            config.queues_on(link)
            if config.link_queue_overrides
            else config.queues_per_link
        )
        self.queues: list[HardwareQueue] = []
        self.free: deque[HardwareQueue] = deque()
        self.policy_data: object = None
        self._config = config

    @property
    def has_free(self) -> bool:
        """True if :meth:`take_free` would succeed."""
        return len(self.queues) < self.count or bool(self.free)

    def build(self) -> HardwareQueue:
        """Build the lowest never-used queue; the caller now holds it."""
        cfg = self._config
        # Positional: keyword passing costs a third of the constructor.
        queue = HardwareQueue(
            self.link,
            len(self.queues),
            cfg.queue_capacity,
            cfg.allow_extension,
            cfg.extension_penalty,
        )
        self.queues.append(queue)
        return queue

    def take_free(self) -> HardwareQueue:
        """The next free queue: never-used ones first, then released ones."""
        if len(self.queues) < self.count:
            return self.build()
        if not self.free:
            raise SimulationError(f"no free queue on {self.link}")
        return self.free.popleft()

    def queue_stats(self) -> Iterator[tuple[str, QueueStats]]:
        """``(name, counters)`` for every configured queue, by index;
        queues never built report zero counters."""
        for queue in self.queues:
            yield str(queue), queue.stats
        link = str(self.link)
        for index in range(len(self.queues), self.count):
            yield f"{link}#{index}", QueueStats()


class AssignmentPolicy(ABC):
    """Strategy deciding when a requested queue is granted."""

    name = "abstract"

    @abstractmethod
    def setup_link(
        self,
        state: LinkState,
        competing: Sequence[str],
        groups: LabelGroups | None,
    ) -> None:
        """Prepare per-link data; called once per used link before t=0.

        ``groups`` are the link's label groups (ascending label, names
        sorted) from the analysis entry; policies that ignore labels get
        ``None``.
        """

    def check_links(
        self,
        links: Sequence[tuple[Link, Sequence[str]]],
        config: ArrayConfig,
        groups_table: Mapping[Link, LabelGroups] | None,
    ) -> None:
        """Raise the :class:`ConfigError` :meth:`setup_link` would raise
        first, setting up ``links`` (``(link, competing)`` pairs, in
        set-up order) under ``config`` with ``groups_table``'s groups,
        before any link state exists.

        A policy whose set-up cannot fail checks nothing.
        """

    @abstractmethod
    def on_request(
        self,
        manager: "QueueManager",
        state: LinkState,
        flow: "MessageFlow",
        hop: int,
    ) -> None:
        """``flow`` requests a queue on ``state.link``, its hop ``hop``."""

    @abstractmethod
    def on_release(self, manager: "QueueManager", state: LinkState) -> None:
        """A queue on ``state.link`` was just freed."""


class FCFSPolicy(AssignmentPolicy):
    """First-come-first-served: grant free queues in request order.

    Not compatible with any labeling — this is the naive baseline whose
    behaviour the lower halves of Figs. 7-9 depict.
    """

    name = "fcfs"

    def setup_link(self, state, competing, groups) -> None:
        state.policy_data = deque()

    def on_request(self, manager, state, flow, hop) -> None:
        state.policy_data.append((flow, hop))
        self._evaluate(manager, state)

    def on_release(self, manager, state) -> None:
        self._evaluate(manager, state)

    def _evaluate(self, manager, state) -> None:
        pending = state.policy_data
        while pending and state.has_free:
            flow, hop = pending.popleft()
            manager.grant(state, flow, hop)


class _OrderedLinkData:
    """Per-link state of the ordered policy (kept on ``LinkState``)."""

    __slots__ = ("groups", "gidx", "granted", "pending")

    def __init__(self, groups: LabelGroups) -> None:
        self.groups = groups
        self.gidx = 0
        self.granted: set[str] = set()
        self.pending: dict[str, tuple[MessageFlow, int]] = {}


class OrderedPolicy(AssignmentPolicy):
    """The paper's compatible dynamic scheme (ordered + simultaneous).

    Per link, competing messages are grouped by label. Only members of the
    lowest not-fully-granted group may receive queues; free queues are in
    effect reserved for that group until each member has been assigned,
    which realises both rules at once. ``strict`` enforces Theorem 1's
    assumption (ii) at setup (each group must fit in the link's queues);
    with ``strict=False`` an infeasible group simply never completes and
    the run deadlocks — useful for demonstrating why the assumption is
    needed.
    """

    name = "ordered"

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict

    def setup_link(self, state, competing, groups) -> None:
        if self.strict:
            _check_groups(state.link, groups, state.count)
        state.policy_data = _OrderedLinkData(groups)

    def check_links(self, links, config, groups_table) -> None:
        if not self.strict:
            return
        for link, _competing in links:
            _check_groups(link, groups_table[link], config.queues_on(link))

    def on_request(self, manager, state, flow, hop) -> None:
        state.policy_data.pending[flow.message.name] = (flow, hop)
        self._evaluate(manager, state)

    def on_release(self, manager, state) -> None:
        self._evaluate(manager, state)

    def _evaluate(self, manager, state) -> None:
        data: _OrderedLinkData = state.policy_data
        groups = data.groups
        granted = data.granted
        pending = data.pending
        while data.gidx < len(groups):
            group = groups[data.gidx]
            fully_granted = True
            for name in group:
                if name not in granted:
                    if name in pending and state.has_free:
                        flow, hop = pending.pop(name)
                        manager.grant(state, flow, hop)
                        granted.add(name)
                    else:
                        fully_granted = False
            if fully_granted:
                data.gidx += 1
                continue
            break  # remaining free queues stay reserved for this group


class StaticPolicy(AssignmentPolicy):
    """Section 7's static scheme: a dedicated queue per competing message.

    Assignment is fixed before execution; every request is granted
    immediately from the precomputed map. Requires enough queues on every
    link (checked at setup) — and is then automatically compatible with
    any consistent labeling, so Theorem 1 applies with no run-time rules.
    """

    name = "static"

    def setup_link(self, state, competing, groups) -> None:
        _check_static(state.link, competing, state.count)
        state.policy_data = {name: state.build() for name in competing}

    def check_links(self, links, config, groups_table) -> None:
        for link, competing in links:
            _check_static(link, competing, config.queues_on(link))

    def on_request(self, manager, state, flow, hop) -> None:
        manager.grant(state, flow, hop, state.policy_data[flow.message.name])

    def on_release(self, manager, state) -> None:
        pass  # reservations never move


def _check_static(link: Link, competing: Sequence[str], count: int) -> None:
    """Static set-up needs a queue per competing message on ``link``."""
    if len(competing) > count:
        raise ConfigError(
            f"link {link}: static assignment needs "
            f"{len(competing)} queues for {list(competing)}, only "
            f"{count} exist"
        )


def _check_groups(link: Link, groups: LabelGroups, count: int) -> None:
    """Theorem 1's assumption (ii): every same-label group on ``link``
    fits in its ``count`` queues."""
    for group in groups:
        if len(group) > count:
            raise ConfigError(
                f"link {link}: same-label group {list(group)} needs "
                f"{len(group)} queues, only {count} exist "
                f"(Theorem 1 assumption (ii))"
            )


class QueueManager:
    """Owns link states, dispatches requests to the policy, records a trace.

    Grants and releases are logged as plain ``(time, kind, link,
    queue_index, message)`` tuples, read off ``engine.now``; :attr:`trace`
    turns them into :class:`AssignmentEvent` records only when asked.
    """

    __slots__ = ("policy", "engine", "links", "_log")

    def __init__(self, policy: AssignmentPolicy, engine: "Engine") -> None:
        self.policy = policy
        self.engine = engine
        self.links: dict[Link, LinkState] = {}
        self._log: list[tuple[int, str, Link, int, str]] = []

    @property
    def trace(self) -> list[AssignmentEvent]:
        """Every grant and release so far, in the order they happened."""
        return [AssignmentEvent(*entry) for entry in self._log]

    def add_link(
        self,
        link: Link,
        config: ArrayConfig,
        competing: Sequence[str],
        groups: LabelGroups | None,
    ) -> None:
        """Register a link with ``config``'s queues and let the policy
        prepare it (``groups``: the link's label groups, or ``None``)."""
        state = LinkState(link, config)
        self.links[link] = state
        self.policy.setup_link(state, competing, groups)

    def request(self, flow: "MessageFlow", hop: int) -> None:
        """``flow`` asks for a queue on hop ``hop``; the policy decides."""
        self.policy.on_request(self, self.links[flow.route[hop]], flow, hop)

    def grant(
        self,
        state: LinkState,
        flow: "MessageFlow",
        hop: int,
        queue: HardwareQueue | None = None,
    ) -> None:
        """Bind a queue to ``flow``'s message and notify the flow.

        Without ``queue`` the link's free pool supplies one; a policy
        passing its own must have reserved it with :meth:`LinkState.build`.
        """
        if queue is None:
            queue = state.take_free()
        msg = flow.message
        queue.assign(msg.name, msg.length)
        self._log.append(
            (self.engine.now, "grant", state.link, queue.index, msg.name)
        )
        flow.granted(hop, queue)

    def release(self, queue: HardwareQueue) -> None:
        """Return a completed queue to its link's free pool."""
        state = self.links[queue.link]
        message = queue.assigned or "?"
        queue.release()
        state.free.append(queue)
        self._log.append(
            (self.engine.now, "release", state.link, queue.index, message)
        )
        self.policy.on_release(self, state)

    def close(self) -> None:
        """Drop pending requests and queue waiters: the run is over."""
        for state in self.links.values():
            state.policy_data = None
            for queue in state.queues:
                queue.drop_waiters()


#: The short names :func:`make_policy` builds a policy from.
POLICY_NAMES = ("ordered", "static", "fcfs")


def check_policy_names(names) -> None:
    """Raise :class:`ConfigError` naming the first unknown policy name."""
    for name in names:
        if name not in POLICY_NAMES:
            raise ConfigError(
                f"unknown assignment policy {name!r} "
                f"(known: {', '.join(POLICY_NAMES)})"
            )


def make_policy(name: str, strict: bool = True) -> AssignmentPolicy:
    """Policy factory from a short name: fcfs | ordered | static. Any
    other value raises :func:`check_policy_names`'s error."""
    check_policy_names((name,))
    if name == "fcfs":
        return FCFSPolicy()
    if name == "ordered":
        return OrderedPolicy(strict=strict)
    return StaticPolicy()
