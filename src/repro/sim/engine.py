"""Discrete-event simulation kernel.

A minimal, deterministic event engine with a three-lane scheduler:

* a **fast lane** — a plain FIFO for events scheduled at the current
  time (``after(0, ...)`` pokes, the overwhelming majority of traffic in
  the systolic simulator), which bypasses the heap entirely;
* a **timing wheel** — calendar buckets for near-future events. Delays
  in the simulator are small integers (queue hand-offs and compute
  latencies, typically 1-8 cycles), so a ring indexed by ``time & mask``
  absorbs them with O(1) push/pop and no heap traffic. The horizon is
  sizable per engine: :class:`~repro.sim.runtime.Simulator` auto-sizes
  it from the program's maximum op latency plus the config's fixed
  latencies, so workloads with long compute kernels (``cycles`` > 8)
  still ride the wheel instead of overflowing to the heap;
* a **heap lane** — ``(time, sequence, callback)`` entries for
  timestamps beyond the wheel horizon only (overflow).

The simulator's agents (:mod:`repro.sim.agents`) schedule their own next
step without calling :meth:`Engine.after`: with the fast lane on they
append to the FIFO (a poke, delay 0) or to the wheel bucket (a delay
within the horizon), keeping ``_wheel_count`` and ``_wheel_occupied`` as
``after`` does, and they call ``after`` for everything else. The lanes'
invariants below therefore hold for those appends too; a heap-only
engine (``fast_lane=False``) sends every agent event through ``after``.

Determinism is preserved exactly: events at equal times fire in
scheduling order. Three invariants make the lanes mergeable without
comparing sequence numbers:

* a heap entry at time ``t`` can only have been pushed while
  ``now < t - horizon`` (nearer futures go to the wheel), so every heap
  entry due *now* precedes every wheel entry due now in scheduling
  order — drain the heap first;
* a wheel entry at ``t`` was pushed while ``t - horizon <= now < t``,
  so it precedes every FIFO entry at ``t`` (same-time scheduling goes to
  the FIFO) — drain the bucket second, the FIFO last;
* a bucket is fully drained before time advances past it, and the
  horizon is smaller than the ring, so two pending timestamps never
  share a bucket.

Within each lane same-time entries keep scheduling order: the heap by
sequence number, bucket and FIFO deques by construction.

Quiescence (all lanes empty) with unfinished agents is how run-time
deadlock manifests; the kernel itself never decides deadlock, it just
stops.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from typing import Callable

Callback = Callable[[], None]

#: Default horizon: delays of 1..WHEEL_HORIZON cycles ride the timing
#: wheel; anything farther out overflows to the heap. The ring has (at
#: least) twice the horizon so a pending bucket can never collide with a
#: newly scheduled one.
WHEEL_HORIZON = 8

#: Adaptive horizons are clamped here: beyond this, ring memory stops
#: paying for itself and rare long delays can just take the heap.
MAX_WHEEL_HORIZON = 256


class StopReason(enum.Enum):
    """Why :meth:`Engine.run` returned."""

    QUIESCENT = "quiescent"
    MAX_EVENTS = "max-events"
    MAX_TIME = "max-time"


class Engine:
    """Three-lane event scheduler with integer timestamps.

    Args:
        fast_lane: route same-time events through the FIFO fast lane and
            near-future events through the timing wheel. ``False`` forces
            every event through the heap (the seed engine's behaviour) —
            kept for determinism cross-checks.
        horizon: delays of ``1..horizon`` ride the timing wheel; larger
            delays overflow to the heap. The ring is sized to the next
            power of two at least twice the horizon (clamped at
            :data:`MAX_WHEEL_HORIZON`), preserving the bucket-collision
            invariant for any horizon. Lane routing never changes event
            ordering, so any horizon produces byte-identical runs.
    """

    __slots__ = (
        "now",
        "events_processed",
        "_heap",
        "_fifo",
        "_wheel",
        "_wheel_count",
        "_wheel_occupied",
        "_seq",
        "_fast",
        "_horizon",
        "_slots",
        "_mask",
        "_ring_mask",
    )

    def __init__(
        self, fast_lane: bool = True, horizon: int = WHEEL_HORIZON
    ) -> None:
        if horizon < 1:
            raise ValueError(f"wheel horizon must be >= 1, got {horizon}")
        horizon = min(horizon, MAX_WHEEL_HORIZON)
        slots = 1
        while slots < 2 * horizon:
            slots <<= 1
        self.now: int = 0
        self.events_processed: int = 0
        self._heap: list[tuple[int, int, Callback]] = []
        self._fifo: deque[Callback] = deque()
        self._wheel: list[deque[Callback]] = [deque() for _ in range(slots)]
        self._wheel_count: int = 0
        self._wheel_occupied: int = 0  # bitmask of nonempty wheel slots
        self._seq: int = 0
        self._fast = fast_lane
        self._horizon = horizon
        self._slots = slots
        self._mask = slots - 1
        # Precomputed (1 << slots) - 1: with adaptive horizons the ring
        # can be hundreds of slots, and rebuilding this bigint on every
        # _next_wheel_time call is real work on the idle-advance path.
        self._ring_mask = (1 << slots) - 1

    @property
    def wheel_horizon(self) -> int:
        """Largest delay this engine's timing wheel absorbs."""
        return self._horizon

    def at(self, time: int, callback: Callback) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        delay = time - self.now
        if delay < 0:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        if self._fast:
            if delay == 0:
                self._fifo.append(callback)
                return
            if delay <= self._horizon:
                slot = time & self._mask
                self._wheel[slot].append(callback)
                self._wheel_count += 1
                self._wheel_occupied |= 1 << slot
                return
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, callback))

    def after(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if self._fast:
            if delay == 0:
                self._fifo.append(callback)
                return
            if 0 < delay <= self._horizon:
                slot = (self.now + delay) & self._mask
                self._wheel[slot].append(callback)
                self._wheel_count += 1
                self._wheel_occupied |= 1 << slot
                return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))

    @property
    def pending(self) -> int:
        """Number of scheduled events not yet fired."""
        return len(self._heap) + len(self._fifo) + self._wheel_count

    def clear(self) -> None:
        """Drop every pending event; ``now`` and the event count stay."""
        self._heap.clear()
        self._fifo.clear()
        if self._wheel_count:
            for bucket in self._wheel:
                bucket.clear()
            self._wheel_count = 0
            self._wheel_occupied = 0

    def _next_wheel_time(self) -> int | None:
        """Earliest nonempty wheel bucket within the horizon, if any.

        Pending wheel entries always lie in ``(now, now + horizon]``, so
        rotating the occupancy bitmask by ``now + 1`` turns "next
        nonempty slot" into "lowest set bit".
        """
        occupied = self._wheel_occupied
        if not occupied:
            return None
        slots = self._slots
        shift = (self.now + 1) & self._mask
        rotated = (
            (occupied >> shift) | (occupied << (slots - shift))
        ) & self._ring_mask
        return self.now + 1 + ((rotated & -rotated).bit_length() - 1)

    def run(
        self,
        max_events: int | None = None,
        max_time: int | None = None,
    ) -> StopReason:
        """Process events until quiescent or a limit is hit."""
        heap = self._heap
        fifo = self._fifo
        wheel = self._wheel
        pop = heapq.heappop
        popleft = fifo.popleft
        if (
            max_time is not None
            and self.now > max_time
            and (fifo or heap or self._wheel_count)
        ):
            # Only reachable when run() is re-entered with a tighter limit;
            # inside the loop `now` never advances past max_time.
            return StopReason.MAX_TIME
        events = self.events_processed
        limit = float("inf") if max_events is None else max_events
        while fifo or heap or self._wheel_count:
            # Heap entries due now precede wheel-bucket entries, which
            # precede FIFO entries, in scheduling order (see module
            # docstring); drain in that order. Processing cannot add to an
            # earlier lane at the current time: delay-0 goes to the FIFO
            # and positive delays land strictly in the future, so each
            # drain runs dry exactly once per timestamp.
            while heap and heap[0][0] == self.now:
                if events >= limit:
                    self.events_processed = events
                    return StopReason.MAX_EVENTS
                callback = pop(heap)[2]
                events += 1
                callback()
            slot = self.now & self._mask
            bucket = wheel[slot]
            if bucket:
                while bucket:
                    if events >= limit:
                        self.events_processed = events
                        return StopReason.MAX_EVENTS
                    callback = bucket.popleft()
                    self._wheel_count -= 1
                    events += 1
                    callback()
                # Fully drained (callbacks cannot refill the current
                # slot: the horizon is below the ring size).
                self._wheel_occupied &= ~(1 << slot)
            while fifo:
                if events >= limit:
                    self.events_processed = events
                    return StopReason.MAX_EVENTS
                callback = popleft()
                events += 1
                callback()
            # Advance to the next scheduled timestamp.
            time = heap[0][0] if heap else None
            wheel_time = self._next_wheel_time()
            if wheel_time is not None and (time is None or wheel_time < time):
                time = wheel_time
            if time is not None and time > self.now:
                if max_time is not None and time > max_time:
                    self.events_processed = events
                    return StopReason.MAX_TIME
                self.now = time
        self.events_processed = events
        return StopReason.QUIESCENT
