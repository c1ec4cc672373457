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
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.arch.config import ArrayConfig
from repro.arch.links import Link
from repro.arch.queue import HardwareQueue, QueueStats
from repro.errors import ConfigError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.labeling import Labeling
    from repro.sim.agents import MessageFlow
    from repro.sim.engine import Engine

#: Per-link label groups, ascending by label, members sorted by name.
LabelGroups = Sequence[Sequence[str]]


@dataclass(frozen=True, slots=True)
class Request:
    """A message (flow) asking for a queue on one hop of its route."""

    flow: "MessageFlow"
    hop: int

    @property
    def message(self) -> str:
        return self.flow.message.name


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
        self.count = config.queues_on(link)
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
        queue = HardwareQueue(
            self.link,
            len(self.queues),
            capacity=cfg.queue_capacity,
            extension_allowed=cfg.allow_extension,
            extension_penalty=cfg.extension_penalty,
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
        labeling: "Labeling | None",
        groups: LabelGroups | None = None,
    ) -> None:
        """Prepare per-link data; called once per used link before t=0.

        ``groups`` optionally supplies precomputed label groups (ascending
        label, names sorted) so cached analyses skip the per-link grouping
        sort; policies that ignore labels ignore it.
        """

    @abstractmethod
    def on_request(self, manager: "QueueManager", state: LinkState, req: Request) -> None:
        """A flow requests a queue on ``state.link``."""

    @abstractmethod
    def on_release(self, manager: "QueueManager", state: LinkState) -> None:
        """A queue on ``state.link`` was just freed."""


class FCFSPolicy(AssignmentPolicy):
    """First-come-first-served: grant free queues in request order.

    Not compatible with any labeling — this is the naive baseline whose
    behaviour the lower halves of Figs. 7-9 depict.
    """

    name = "fcfs"

    def setup_link(self, state, competing, labeling, groups=None) -> None:
        state.policy_data = deque()

    def on_request(self, manager, state, req) -> None:
        state.policy_data.append(req)
        self._evaluate(manager, state)

    def on_release(self, manager, state) -> None:
        self._evaluate(manager, state)

    def _evaluate(self, manager, state) -> None:
        pending = state.policy_data
        while pending and state.has_free:
            manager.grant(state, pending.popleft())


class _OrderedLinkData:
    """Per-link state of the ordered policy (kept on ``LinkState``)."""

    __slots__ = ("groups", "gidx", "granted", "pending")

    def __init__(self, groups: LabelGroups) -> None:
        self.groups = groups
        self.gidx = 0
        self.granted: set[str] = set()
        self.pending: dict[str, Request] = {}


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

    def setup_link(self, state, competing, labeling, groups=None) -> None:
        if groups is None:
            if labeling is None:
                raise ConfigError("OrderedPolicy requires a labeling")
            groups = label_groups(competing, labeling)
        if self.strict:
            for group in groups:
                if len(group) > state.count:
                    raise ConfigError(
                        f"link {state.link}: same-label group {list(group)} needs "
                        f"{len(group)} queues, only {state.count} exist "
                        f"(Theorem 1 assumption (ii))"
                    )
        state.policy_data = _OrderedLinkData(groups)

    def on_request(self, manager, state, req) -> None:
        state.policy_data.pending[req.message] = req
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
                        manager.grant(state, pending.pop(name))
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

    def setup_link(self, state, competing, labeling, groups=None) -> None:
        if len(competing) > state.count:
            raise ConfigError(
                f"link {state.link}: static assignment needs "
                f"{len(competing)} queues for {list(competing)}, only "
                f"{state.count} exist"
            )
        state.policy_data = {name: state.build() for name in competing}

    def on_request(self, manager, state, req) -> None:
        queue = state.policy_data[req.message]
        manager.grant(state, req, queue)

    def on_release(self, manager, state) -> None:
        pass  # reservations never move


def label_groups(
    competing: Sequence[str], labeling: "Labeling"
) -> tuple[tuple[str, ...], ...]:
    """Group competing messages by label, ascending; names sorted."""
    by_label: dict[Fraction, list[str]] = {}
    for name in competing:
        by_label.setdefault(labeling.label(name), []).append(name)
    return tuple(
        tuple(sorted(names)) for _lab, names in sorted(by_label.items())
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
        labeling: "Labeling | None",
        groups: LabelGroups | None = None,
    ) -> None:
        """Register a link with ``config``'s queues and let the policy
        prepare it."""
        state = LinkState(link, config)
        self.links[link] = state
        self.policy.setup_link(state, competing, labeling, groups)

    def request(self, req: Request) -> None:
        """A flow asks for a queue on one hop; the policy decides."""
        link = req.flow.route[req.hop]
        self.policy.on_request(self, self.links[link], req)

    def grant(
        self,
        state: LinkState,
        req: Request,
        queue: HardwareQueue | None = None,
    ) -> None:
        """Bind a queue to the request's message and notify the flow.

        Without ``queue`` the link's free pool supplies one; a policy
        passing its own must have reserved it with :meth:`LinkState.build`.
        """
        if queue is None:
            queue = state.take_free()
        msg = req.flow.message
        queue.assign(msg.name, msg.length)
        self._log.append(
            (self.engine.now, "grant", state.link, queue.index, msg.name)
        )
        req.flow.granted(req.hop, queue)

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
    """Policy factory from a short name: fcfs | ordered | static."""
    if name == "fcfs":
        return FCFSPolicy()
    if name == "ordered":
        return OrderedPolicy(strict=strict)
    if name == "static":
        return StaticPolicy()
    raise ConfigError(f"unknown assignment policy {name!r}")
