"""Queue-requirement analysis (Sections 2.3, 7, 8).

Messages crossing the same interval in the same direction *compete* for
that link's queues. This module computes, per directed link:

* the competing message set;
* the **static** queue demand — one queue per competing message, the
  precondition of the static assignment scheme of Section 7;
* the **dynamic** queue demand — the size of the largest same-label group,
  which is what Theorem 1's assumption (ii) requires of the ordered +
  simultaneous dynamic scheme ("between two adjacent cells the number of
  queues cannot be less than the number of competing messages having the
  same label");
* the **queue-extension demand** of Section 8.1/R2 — for each message, how
  many skipped writes exceed the physical buffering along its route, which
  is exactly when iWarp's extension mechanism must be invoked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.config import ArrayConfig
from repro.arch.links import Link, Route
from repro.arch.routing import Router
from repro.core.crossing import LookaheadConfig, cross_off
from repro.core.labeling import Labeling, label_groups
from repro.core.program import ArrayProgram
from repro.errors import ConfigError


def message_routes(program: ArrayProgram, router: Router) -> dict[str, Route]:
    """The link sequence each message traverses."""
    return {
        msg.name: router.route(msg.sender, msg.receiver)
        for msg in program.messages.values()
    }


def competing_messages(
    program: ArrayProgram, router: Router
) -> dict[Link, list[str]]:
    """Messages crossing each directed link, sorted by name.

    Messages sharing a link in the same direction are the paper's
    *competing messages* (Section 2.3).
    """
    table: dict[Link, list[str]] = {}
    for name, route in message_routes(program, router).items():
        for link in route:
            table.setdefault(link, []).append(name)
    return {link: sorted(names) for link, names in table.items()}


def static_queue_demand(program: ArrayProgram, router: Router) -> dict[Link, int]:
    """Queues per link needed so no two messages ever share a queue."""
    return {
        link: len(names)
        for link, names in competing_messages(program, router).items()
    }


def dynamic_queue_demand(
    program: ArrayProgram, router: Router, labeling: Labeling
) -> dict[Link, int]:
    """Largest same-label competing group per link (assumption (ii))."""
    return {
        link: max(map(len, label_groups(names, labeling)), default=0)
        for link, names in competing_messages(program, router).items()
    }


@dataclass(frozen=True)
class QueueShortfall:
    """A link whose provisioned queues cannot meet a demand."""

    link: Link
    demand: int
    available: int
    messages: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"link {self.link}: needs {self.demand} queue(s) for "
            f"{list(self.messages)}, has {self.available}"
        )


def check_static_feasible(
    program: ArrayProgram, router: Router, config: ArrayConfig
) -> list[QueueShortfall]:
    """Links where static assignment is impossible (not enough queues)."""
    shortfalls = []
    competing = competing_messages(program, router)
    for link, demand in static_queue_demand(program, router).items():
        available = config.queues_on(link)
        if demand > available:
            shortfalls.append(
                QueueShortfall(link, demand, available, tuple(competing[link]))
            )
    return shortfalls


def check_assumption_ii(
    program: ArrayProgram,
    router: Router,
    labeling: Labeling,
    config: ArrayConfig,
) -> list[QueueShortfall]:
    """Links violating Theorem 1's assumption (ii) for the dynamic scheme.

    The simultaneous-assignment rule needs every same-label competing
    group to fit in the link's queues at once.
    """
    shortfalls = []
    competing = competing_messages(program, router)
    for link, demand in dynamic_queue_demand(program, router, labeling).items():
        available = config.queues_on(link)
        if demand > available:
            group = _largest_same_label_group(competing[link], labeling)
            shortfalls.append(QueueShortfall(link, demand, available, group))
    return shortfalls


def _largest_same_label_group(
    names: list[str], labeling: Labeling
) -> tuple[str, ...]:
    by_label: dict[object, list[str]] = {}
    for name in names:
        by_label.setdefault(labeling.label(name), []).append(name)
    best = max(by_label.values(), key=len)
    return tuple(sorted(best))


def require_assumption_ii(
    program: ArrayProgram,
    router: Router,
    labeling: Labeling,
    config: ArrayConfig,
) -> None:
    """Raise :class:`ConfigError` if assumption (ii) is violated."""
    shortfalls = check_assumption_ii(program, router, labeling, config)
    if shortfalls:
        raise ConfigError(
            "queue provisioning violates Theorem 1 assumption (ii): "
            + "; ".join(str(s) for s in shortfalls)
        )


@dataclass(frozen=True)
class ExtensionDemand:
    """Queue-extension need of one message (Section 8.1, rule R2)."""

    message: str
    skipped_writes: int
    physical_capacity: int
    needs_extension: bool

    @property
    def excess_words(self) -> int:
        """Words that must spill into local memory."""
        return max(0, self.skipped_writes - self.physical_capacity)


def extension_demand(
    program: ArrayProgram, router: Router, config: ArrayConfig
) -> dict[str, ExtensionDemand]:
    """Per-message queue-extension requirements.

    Runs the lookahead crossing-off with unbounded R2 to measure how many
    writes per message a maximally buffered execution skips, then compares
    against the physical buffering along each message's route. The
    extension mechanism "needs to be invoked only if the number of skipped
    write operations to the message is larger than the total size of the
    queues that the message will cross".
    """
    unbounded = LookaheadConfig(default_capacity=math.inf)
    result = cross_off(program, lookahead=unbounded, mode="sequential")
    routes = message_routes(program, router)
    out: dict[str, ExtensionDemand] = {}
    for name in program.messages:
        skipped = result.max_skipped.get(name, 0)
        physical = len(routes[name]) * config.queue_capacity
        out[name] = ExtensionDemand(
            message=name,
            skipped_writes=skipped,
            physical_capacity=physical,
            needs_extension=skipped > physical,
        )
    return out
