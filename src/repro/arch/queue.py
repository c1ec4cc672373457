"""Hardware queue model.

A queue is a bounded FIFO on a directed link, assigned to at most one
message at a time (Section 2.3). Capacity semantics follow the paper:

* ``capacity == 0`` — the "latch without buffering" of Sections 3-7: a
  write completes only when a read takes the word (synchronous handoff);
* ``capacity == k`` — the buffered queues of Section 8: up to ``k`` words
  are stored; a writer facing a full queue parks until space appears;
* *queue extension* (the iWarp mechanism, Section 8.1/R2): when enabled,
  a full queue spills into the receiving cell's local memory — capacity
  becomes logically unbounded at the price of ``extension_penalty`` extra
  cycles per spilled word.

The queue is engine-agnostic: blocked parties park callbacks, and state
changes invoke them. The simulator wraps callbacks so they re-schedule the
blocked agent.

The class sits on the simulator's per-word hot path, so it is slotted and
its bookkeeping is all O(1) counter arithmetic: completion is tracked by
``words_remaining`` counting down to zero rather than recomparing totals,
and stats accumulate into plain slotted integers. A waiter list exists
only while someone waits: notifying detaches it and calls each waiter.

A word is whatever the writer pushes; the simulator pushes the word's
value, since the queue carries one message's words at a time.

Each queue step has one definition: :meth:`HardwareQueue._accept`
stores a word (the buffered branch of :meth:`~HardwareQueue.try_push`,
an extension spill and a parked writer unparked by a pop all call it),
and :meth:`HardwareQueue._finish_pop` counts a pop and wakes readers
(the tail of every :meth:`~HardwareQueue.pop`). The simulator's agents
(:mod:`repro.sim.agents`) run the two common cases inline — a push into
a buffer with room and no parked writer, a pop with no parked writer and
no active extension — as copies of ``_accept`` and of ``popleft`` plus
``_finish_pop``. Every other case (the capacity-0 handoff, a parked
writer, an extension spill and its penalty) goes through
:meth:`~HardwareQueue.try_push` and :meth:`~HardwareQueue.pop`, the
queue's standalone API.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import Any, Callable

from repro.arch.links import Link
from repro.errors import SimulationError

Word = Any
Callback = Callable[[], None]


@dataclass(slots=True)
class QueueStats:
    """Counters accumulated by one hardware queue over a run."""

    words_pushed: int = 0
    words_popped: int = 0
    assignments: int = 0
    peak_occupancy: int = 0
    extension_invocations: int = 0
    extension_peak_words: int = 0
    spilled_words: int = 0


class HardwareQueue:
    """One physical queue on a directed link."""

    __slots__ = (
        "link",
        "index",
        "capacity",
        "extension_allowed",
        "extension_penalty",
        "assigned",
        "words_remaining",
        "_buffer",
        "_parked",
        "_word_waiters",
        "extended",
        "stats",
    )

    def __init__(
        self,
        link: Link,
        index: int,
        capacity: int,
        extension_allowed: bool = False,
        extension_penalty: int = 4,
    ) -> None:
        if capacity < 0:
            raise SimulationError("queue capacity must be >= 0")
        self.link = link
        self.index = index
        self.capacity = capacity
        self.extension_allowed = extension_allowed
        self.extension_penalty = extension_penalty
        self.assigned: str | None = None
        self.words_remaining: int = 0
        self._buffer: deque[Word] = deque()
        self._parked: tuple[Word, Callback] | None = None
        # Made by the first when_word, detached by notification. A
        # writer facing a full queue parks its word instead (try_push).
        self._word_waiters: list[Callback] | None = None
        self.extended = False
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    # Assignment lifecycle
    # ------------------------------------------------------------------

    def assign(self, message: str, expected_words: int) -> None:
        """Dedicate this queue to ``message`` for ``expected_words`` words."""
        if self.assigned is not None:
            raise SimulationError(
                f"queue {self} already assigned to {self.assigned!r}"
            )
        if self._buffer or self._parked:
            raise SimulationError(f"queue {self} assigned while non-empty")
        self.assigned = message
        self.words_remaining = expected_words
        self.extended = False
        self.stats.assignments += 1

    @property
    def complete(self) -> bool:
        """True once the assigned message's last word has passed through."""
        return self.assigned is not None and self.words_remaining <= 0

    def release(self) -> None:
        """Free the queue for reassignment (direction may be reset too)."""
        if not self.complete:
            raise SimulationError(
                f"queue {self} released before message {self.assigned!r} passed"
            )
        self.assigned = None
        self.words_remaining = 0
        self.extended = False

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Words currently stored (excluding a parked, un-accepted word)."""
        return len(self._buffer)

    def try_push(self, word: Word, blocked: Callback) -> bool:
        """Attempt to enqueue ``word``.

        Returns True if the word was accepted immediately. Otherwise the
        word and ``blocked`` are parked; ``blocked`` fires when a pop makes
        room (or takes the word directly for capacity-0 queues).
        """
        if self.assigned is None:
            raise SimulationError(f"push on unassigned queue {self}")
        if self._parked is not None:
            raise SimulationError(f"queue {self} already has a parked writer")
        if len(self._buffer) >= self.capacity:
            if not self.extension_allowed:
                self._parked = (word, blocked)
                # A parked word is pop-visible (capacity-0 handoff), so
                # waiting readers must be woken to take it.
                waiters = self._word_waiters
                if waiters:
                    self._word_waiters = None
                    for poke in waiters:
                        poke()
                return False
            stats = self.stats
            if not self.extended:
                self.extended = True
                stats.extension_invocations += 1
            stats.spilled_words += 1
            overflow = len(self._buffer) + 1 - self.capacity
            if overflow > stats.extension_peak_words:
                stats.extension_peak_words = overflow
        self._accept(word)
        return True

    def _accept(self, word: Word) -> None:
        """Store ``word`` and wake waiting readers."""
        self._buffer.append(word)
        stats = self.stats
        stats.words_pushed += 1
        occupancy = len(self._buffer)
        if occupancy > stats.peak_occupancy:
            stats.peak_occupancy = occupancy
        waiters = self._word_waiters
        if waiters:
            self._word_waiters = None
            for poke in waiters:
                poke()

    def peek(self) -> Word | None:
        """The word at the front, or None. Parked words are visible so that
        capacity-0 queues offer the writer's word to a waiting reader."""
        if self._buffer:
            return self._buffer[0]
        if self._parked is not None:
            return self._parked[0]
        return None

    @property
    def has_word(self) -> bool:
        """True if a pop would succeed right now."""
        return bool(self._buffer) or self._parked is not None

    def pop(self) -> tuple[Word, int]:
        """Remove and return the front word plus its extra access latency.

        The extra latency is nonzero only for words that were spilled via
        queue extension. Popping unparks a blocked writer if any.
        """
        buffer = self._buffer
        if buffer:
            word = buffer.popleft()
        elif self._parked is not None:
            word, resume = self._parked
            self._parked = None
            self.stats.words_pushed += 1
            self._finish_pop()
            resume()
            return word, 0
        else:
            raise SimulationError(f"pop on empty queue {self}")
        penalty = 0
        if self.extended and len(buffer) >= self.capacity:
            penalty = self.extension_penalty
        if self._parked is not None:
            parked_word, resume = self._parked
            self._parked = None
            self._accept(parked_word)
            resume()
        self._finish_pop()
        return word, penalty

    def _finish_pop(self) -> None:
        """Count a pop, end a drained extension and wake waiting readers."""
        self.stats.words_popped += 1
        self.words_remaining -= 1
        if self.extended and len(self._buffer) <= self.capacity:
            self.extended = False
        waiters = self._word_waiters
        if waiters:
            self._word_waiters = None
            for poke in waiters:
                poke()

    # ------------------------------------------------------------------
    # Waiting
    # ------------------------------------------------------------------

    def when_word(self, poke: Callback) -> None:
        """Invoke ``poke`` next time a word becomes available."""
        if self._word_waiters is None:
            self._word_waiters = [poke]
        else:
            self._word_waiters.append(poke)

    def drop_waiters(self) -> None:
        """Forget every waiter and the parked write: the run is over."""
        self._word_waiters = None
        self._parked = None

    def __str__(self) -> str:
        return f"{self.link}#{self.index}"

    def __repr__(self) -> str:
        who = self.assigned or "-"
        return f"<Queue {self} cap={self.capacity} assigned={who} occ={self.occupancy}>"
