"""Host-speed calibration: loop time in host-reference seconds.

The benchmark shares a few cores of a host whose speed drifts: a fixed
pure-Python block runs up to 2x slower at some moments than at others,
the slow and fast spells lasting from tens of milliseconds to seconds,
and its CPU time tracks its wall time, so the CPU itself runs slower.
Wall times of the same code then spread between runs by more than any
bound a regression check can use.

:class:`HostClock` takes most of that drift out. Throughout a timed loop
it runs a fixed calibration block -- pure Python, no code of the program
under test -- between ops, once every :data:`INTERVAL_S` seconds, and
scales the loop's time and its op latencies by ``REFERENCE_BLOCK_S /
mean block time`` (:func:`typical`). A scaled time is what the loop
would have taken with the host at its reference speed: a change to the
program moves it as much as it moves wall time, while a slow spell of
the host, which slows the block as well, largely cancels. Block time is
left out of the loop's time, and a serial loop issues no op while a
block runs, so no op latency includes one.

In grid_mp the blocks run in the parent while both workers keep
working: a row in flight then waits out the block, and the block
measures the core the parent runs on, which tracks the workers' speed
less closely than a serial loop's blocks track the loop's.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Seconds of loop time between calibration blocks (1-2% overhead).
INTERVAL_S = 0.02

#: Steps of one calibration block, and the block time that defines the
#: reference speed (about the block's time on a 2.0 GHz Xeon vCPU in
#: its fast periods, Python 3.11; it takes ~0.35 ms in its slow ones).
BLOCK_STEPS = 150
REFERENCE_BLOCK_S = 0.0002

#: Blocks run back to back to take the host's speed outside a loop, as
#: around a set-up (~4-7 ms).
SAMPLE_BLOCKS = 20

_NAMES = tuple(f"m{i}" for i in range(64))


class _Event:
    __slots__ = ("time", "cell", "name")

    def __init__(self, time, cell, name) -> None:
        self.time = time
        self.cell = cell
        self.name = name

    def __lt__(self, other) -> bool:
        return self.time < other.time


def block_seconds() -> float:
    """Run one calibration block; its wall time.

    The block does the kind of work the program's hot loops do --
    allocate small slotted objects, push and pop a heap, count into a
    dict keyed by strings -- so a slow spell of the host slows both. The garbage
    collector is held off while it runs (the block makes no cycles), so
    a collection of the program's garbage is never timed as host speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        totals: dict = {}
        names = _NAMES
        for i in range(BLOCK_STEPS):
            heapq.heappush(heap, _Event((i * 7919) % 1000, i & 15, names[i & 63]))
            if len(heap) > 32:
                event = heapq.heappop(heap)
                totals[event.name] = totals.get(event.name, 0) + event.cell
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def typical(blocks) -> float:
    """The mean block time, less the fastest and slowest tenth of blocks.

    The blocks sample the host's speed evenly over time, so their mean
    is its mean speed while the ops ran; the median would jump between
    the host's fast and slow states, which alternate within seconds.
    Trimming drops blocks that an interrupt or another process cut into.
    """
    ordered = sorted(blocks)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut: len(ordered) - cut])


def sample_blocks() -> list[float]:
    """The times of :data:`SAMPLE_BLOCKS` blocks run back to back now."""
    return [block_seconds() for _ in range(SAMPLE_BLOCKS)]


class HostClock:
    """Runs calibration blocks through a timed loop and scales its times.

    The loop calls :meth:`start` before its first op, :meth:`tick` after
    every op returns and :meth:`stop` when it ends. Built with
    ``calibrate=False`` it runs no block and scales nothing (factor 1):
    the traced run's per-layer numbers are plain wall time, and the
    reference's planner re-run is not timed at all.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.busy_s = 0.0                 # loop wall time less the blocks
        self.blocks: list[float] = []     # block seconds, in loop order
        self._mark = 0.0

    def start(self) -> None:
        if self.calibrate:
            self.blocks.append(block_seconds())
        self._mark = time.perf_counter()

    def tick(self) -> None:
        if self.calibrate and time.perf_counter() - self._mark >= INTERVAL_S:
            self._close()

    def stop(self) -> None:
        self._close()

    def _close(self) -> None:
        self.busy_s += time.perf_counter() - self._mark
        if self.calibrate:
            self.blocks.append(block_seconds())
        self._mark = time.perf_counter()

    @property
    def factor(self) -> float:
        """The loop's scale factor to the reference speed."""
        if not self.calibrate:
            return 1.0
        return REFERENCE_BLOCK_S / typical(self.blocks)

    def block_ms(self) -> float:
        """Typical block time of the loop in ms: the host's speed then."""
        return typical(self.blocks) * 1e3 if self.blocks else 0.0
