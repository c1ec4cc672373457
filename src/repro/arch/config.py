"""Array configuration: queue provisioning, latencies, communication model.

The number of queues between adjacent cells is fixed by the hardware while
the number of competing messages is program-dependent (Section 2.3) — this
object captures the hardware side. It also selects the communication model
(systolic vs memory-to-memory, Fig. 1) and its cost parameters so the
efficiency claim of Section 1 can be measured.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.arch.links import Link


class CommModel(enum.Enum):
    """The two communication models contrasted in Fig. 1."""

    SYSTOLIC = "systolic"
    MEMORY_TO_MEMORY = "memory-to-memory"


@dataclass(frozen=True)
class ArrayConfig:
    """Hardware parameters of a programmable systolic array.

    Attributes:
        queues_per_link: queues available on every directed link, unless
            overridden per-link via ``link_queue_overrides``.
        queue_capacity: words each queue buffers. 0 models the unbuffered
            latches of Sections 3-7; Section 8 uses >= 1.
        hop_latency: cycles for a word to advance one hop between queues.
        op_latency: cycles a cell spends issuing one R/W operation.
        allow_extension: enable the iWarp-style queue extension (spill to
            local memory) when a queue fills (Section 8.1).
        extension_penalty: extra cycles per spilled-word access.
        comm_model: systolic (direct queue access) or memory-to-memory.
        memory_access_cycles: cost of one local-memory access; under the
            memory-to-memory model every word transfer performs two such
            accesses at the sender and two at the receiver (Section 1).
        link_queue_overrides: per-link queue-count exceptions.
    """

    queues_per_link: int = 1
    queue_capacity: int = 0
    hop_latency: int = 1
    op_latency: int = 1
    allow_extension: bool = False
    extension_penalty: int = 4
    comm_model: CommModel = CommModel.SYSTOLIC
    memory_access_cycles: int = 1
    link_queue_overrides: Mapping[Link, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.queues_per_link < 1:
            raise ValueError("queues_per_link must be >= 1")
        for link, count in self.link_queue_overrides.items():
            if count < 1:
                raise ValueError(
                    f"queues_per_link must be >= 1 (override {count} on {link})"
                )
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if self.hop_latency < 1:
            raise ValueError("hop_latency must be >= 1")
        if self.op_latency < 1:
            raise ValueError("op_latency must be >= 1")
        if self.memory_access_cycles < 0:
            raise ValueError("memory_access_cycles must be >= 0")
        if self.extension_penalty < 0:
            raise ValueError("extension_penalty must be >= 0")

    def queues_on(self, link: Link) -> int:
        """Number of physical queues provisioned on ``link``."""
        return self.link_queue_overrides.get(link, self.queues_per_link)

    def with_(self, **changes) -> "ArrayConfig":
        """A copy of this config with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)

    @property
    def memory_accesses_per_word(self) -> int:
        """Local-memory accesses per transferred word under this model.

        Memory-to-memory needs at least four (input staging in + program
        read + program write + output staging out, Section 1); systolic
        communication needs none.
        """
        if self.comm_model is CommModel.MEMORY_TO_MEMORY:
            return 4
        return 0


#: Configuration used throughout Sections 3-7 of the paper: a single
#: unbuffered queue on every link.
UNBUFFERED_SINGLE_QUEUE = ArrayConfig(queues_per_link=1, queue_capacity=0)
