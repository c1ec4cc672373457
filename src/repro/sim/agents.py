"""Simulation agents: cell executors, per-hop forwarders, message flows.

A cell program operates directly on the cell's I/O queues (the systolic
model); transfers through intermediate cells are carried by I/O processes
that are transparent to cell programs (Section 2.3) — here, one
:class:`ForwarderAgent` per intermediate hop of each message. A
:class:`MessageFlow` tracks the queue granted on each hop of a message's
route and wakes parties waiting on grants.

A word is its value. A queue carries one message at a time (Section
2.3), so nothing in it needs a message tag: a write pushes the value,
and a read appends it to ``received[op.message]``. A forwarder marks
empty hands with the module sentinel ``_EMPTY``, because a value may be
``None`` (every structure-only program) or ``0.0``.

Everything here is on the per-word hot path, so the classes are slotted,
waiters are reusable bound methods created once per agent, and wait
*reasons* are stored as cheap condition codes — the human-readable
description is only formatted when deadlock diagnosis actually asks for
it (see :meth:`_Agent.wait_reason`). A word transfer allocates no
closures, no strings and no wrapper objects.

In the common case one simulated event is one Python call: an agent's
``_run`` dispatches on its op, moves the word, wakes the queue's waiters,
clears its own wait and schedules its next step, all inline. Two queue
steps are inlined, each a copy of the :class:`~repro.arch.queue.
HardwareQueue` helper it names, in that helper's statement order
(callback order is part of determinism):

* a push into a buffer with room and no parked writer (``_accept``, the
  buffered branch of ``try_push``);
* a pop with no parked writer and no active extension (``popleft`` then
  ``_finish_pop``, the tail of ``pop``, with no penalty and no extension
  to clear).

Every other case — the capacity-0 handoff, a parked writer, an extension
spill and its penalty — calls the queue method, which stays the one
definition of those paths. So the inline queue steps serve buffered
queues only: at capacity 0 (``ArrayConfig()``'s default, the unbuffered
model of Sections 3-7) every write parks in ``try_push`` and every read
takes it through ``pop``, and only the dispatch, wait clearing and
scheduling are inline. Over a provisioning grid at capacities 0, 2 and
8, ~99% of buffered pushes and pops took the inline branch, none at
capacity 0. An agent scheduling itself appends to the engine's FIFO
(delay 0) or timing-wheel bucket as ``Engine.after`` would, and calls
``after`` when the fast lane is off or the delay is past the wheel's
horizon. Agents reach the engine through their ``engine`` slot, which
:meth:`~repro.sim.runtime.Simulator.execute` rebinds to the engine it
runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.arch.config import CommModel
from repro.arch.links import Route
from repro.arch.queue import HardwareQueue
from repro.core.message import Message
from repro.core.ops import Op, OpKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.sim.runtime import Simulator

Callback = Callable[[], None]

# Wait condition codes (the formatted description is derived on demand
# from these plus wait_queue/wait_grant — see _Agent.wait_reason).
_W_GRANT = "w-grant"
_W_FULL = "w-full"
_R_GRANT = "r-grant"
_R_EMPTY = "r-empty"
_F_UP_GRANT = "f-up-grant"
_F_UP_EMPTY = "f-up-empty"
_F_DOWN_GRANT = "f-down-grant"
_F_DOWN_FULL = "f-down-full"

_COMPUTE = OpKind.COMPUTE
_WRITE = OpKind.WRITE

#: A forwarder's empty hands (a held value may be ``None`` or ``0.0``).
_EMPTY = object()


class MessageFlow:
    """Run-time state of one message across its route."""

    __slots__ = (
        "sim",
        "message",
        "route",
        "last_hop",
        "queues",
        "requested",
        "_grant_waiters",
        "words_delivered",
    )

    def __init__(self, sim: "Simulator", message: Message, route: Route) -> None:
        self.sim = sim
        self.message = message
        self.route = route
        self.last_hop = len(route) - 1
        self.queues: list[HardwareQueue | None] = [None] * len(route)
        self.requested: list[bool] = [False] * len(route)
        # A hop's waiter list is made when the first party waits on it.
        self._grant_waiters: list[list[Callback] | None] = [None] * len(route)
        self.words_delivered = 0

    @property
    def hops(self) -> int:
        """Number of links (and queues) on the route."""
        return len(self.route)

    def request(self, hop: int) -> None:
        """Ask the manager for a queue on ``hop`` (idempotent)."""
        if not self.requested[hop]:
            self.requested[hop] = True
            self.sim.manager.request(self, hop)

    def granted(self, hop: int, queue: HardwareQueue) -> None:
        """Manager callback: ``queue`` now carries this message on ``hop``."""
        self.queues[hop] = queue
        waiters = self._grant_waiters[hop]
        if waiters:
            self._grant_waiters[hop] = None
            for poke in waiters:
                poke()

    def when_granted(self, hop: int, poke: Callback) -> None:
        """Invoke ``poke`` once a queue is granted on ``hop``."""
        if self.queues[hop] is not None:
            poke()
        elif self._grant_waiters[hop] is None:
            self._grant_waiters[hop] = [poke]
        else:
            self._grant_waiters[hop].append(poke)

    def close(self) -> None:
        """Drop the simulator back-link and grant waiters (run teardown)."""
        self.sim = None
        self._grant_waiters = []


class _Agent:
    """Base: deduplicated scheduling plus wait bookkeeping for diagnosis.

    Each subclass's ``_run`` is one event, and in the common case one
    call: it inlines the per-word steps the module docstring lists (the
    queue's ``_accept`` and ``_finish_pop``, the engine's FIFO and wheel
    appends), because a call frame per step was most of an event's
    cost. Three idioms recur at the inlined sites:

    * *queue release after pop* — a queue is released exactly when its
      ``words_remaining`` counter (kept by the pop) reaches zero while
      still assigned; only then may it carry another message.
    * *spend-and-continue scheduling* — after an operation, agents
      schedule ``_run`` directly (not via ``poke``): while an agent is
      spending cycles it is not registered as a waiter anywhere, so no
      poke can arrive mid-delay, and ``_scheduled`` stays True for the
      window so a (hypothetical) stray poke cannot double-fire. Every
      such delay is at least one cycle (``op_latency`` and
      ``hop_latency`` are >= 1 and no op or penalty is negative), so it
      lands on the timing wheel or, past its horizon, the heap.
    * *wait clearing* — the three stores of :meth:`_clear_wait`, guarded
      by ``waiting is not None``.
    """

    __slots__ = (
        "sim",
        "engine",
        "name",
        "done",
        "busy_cycles",
        "_scheduled",
        "waiting",
        "wait_queue",
        "wait_grant",
        "poke",
        "_run_cb",
    )

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.engine: Engine = sim.engine
        self.name = name
        self.done = False
        self.busy_cycles = 0
        self._scheduled = False
        self.waiting: str | None = None
        self.wait_queue: HardwareQueue | None = None
        self.wait_grant: tuple[MessageFlow, int] | None = None
        # Reusable bound-method waiters: one allocation per agent, not one
        # per wait/poke. Each subclass defines ``_run``, its one-event step.
        self.poke: Callback = self._poke
        self._run_cb: Callback = self._run

    def _poke(self) -> None:
        """Schedule one step at the current time (coalescing duplicates)."""
        if self._scheduled or self.done:
            return
        self._scheduled = True
        # Engine.after, its FIFO branch (delay 0).
        engine = self.engine
        if engine._fast:
            engine._fifo.append(self._run_cb)
        else:
            engine.after(0, self._run_cb)

    def wait_reason(self) -> str | None:
        """Human-readable description of the current wait, or ``None``.

        Formatted on demand from the stored wait state; by quiescence the
        queue/grant state an agent last waited on is exactly its current
        state, so this reproduces the eagerly-formatted description.
        """
        code = self.waiting
        if code is None:
            return None
        queue = self.wait_queue
        grant = self.wait_grant
        if code is _W_GRANT:
            flow, hop = grant
            return (
                f"{self.name} W({flow.message.name}): awaiting queue on "
                f"{flow.route[hop]}"
            )
        if code is _W_FULL:
            return (
                f"{self.name} W({queue.assigned}): queue {queue} full "
                f"(occupancy {queue.occupancy}/{queue.capacity})"
            )
        if code is _R_GRANT:
            flow, hop = grant
            return (
                f"{self.name} R({flow.message.name}): no queue granted on "
                f"{flow.route[hop]}"
            )
        if code is _R_EMPTY:
            return f"{self.name} R({queue.assigned}): queue {queue} empty"
        if code is _F_UP_GRANT:
            flow, hop = grant
            return (
                f"{self.name}: upstream queue not granted on {flow.route[hop]}"
            )
        if code is _F_UP_EMPTY:
            return f"{self.name}: upstream queue {queue} empty"
        if code is _F_DOWN_GRANT:
            flow, hop = grant
            return (
                f"{self.name}: header blocked, awaiting queue on "
                f"{flow.route[hop]}"
            )
        if code is _F_DOWN_FULL:
            return (
                f"{self.name}: downstream queue {queue} full "
                f"(occupancy {queue.occupancy}/{queue.capacity})"
            )
        return code  # pragma: no cover - unknown code, show it raw

    def _clear_wait(self) -> None:
        self.waiting = None
        self.wait_queue = None
        self.wait_grant = None

    def _wait_grant(self, flow: MessageFlow, hop: int, code: str) -> None:
        self.waiting = code
        self.wait_grant = (flow, hop)
        flow.when_granted(hop, self.poke)

    def _finish(self) -> None:
        self.done = True
        self._clear_wait()
        self.sim.agent_finished(self)

    def close(self) -> None:
        """Drop the simulator and engine back-links and the cached
        bound-method callbacks, each a reference cycle through this
        agent."""
        self.sim = None
        self.engine = None
        self.poke = None
        self._run_cb = None


class CellAgent(_Agent):
    """Executes one cell's program against its I/O queues."""

    __slots__ = (
        "cell",
        "ops",
        "pc",
        "registers",
        "memory_accesses",
        "_write_parked",
        "_write_latency",
        "_write_complete_cb",
        "_n_ops",
        "_op_latency",
        "_m2m_overhead",
        "_flow_ids",
        "_flows",
    )

    def __init__(
        self,
        sim: "Simulator",
        cell: str,
        name: str,
        ops: tuple[Op, ...],
        flow_ids: tuple[int | None, ...],
        flows: list[MessageFlow],
        registers: dict[str, float | None] | None = None,
    ) -> None:
        super().__init__(sim, name)
        self.cell = cell
        self.ops = ops
        self.pc = 0
        self.registers: dict[str, float | None] = dict(registers or {})
        self.memory_accesses = 0
        self._write_parked = False
        self._write_latency = 0
        self._write_complete_cb: Callback = self._write_complete
        self._n_ops = len(ops)
        cfg = sim.config
        self._op_latency = cfg.op_latency
        # Memory-to-memory staging cost per transfer, 0 under systolic.
        # Each transfer stages through local memory twice (OS copy plus
        # the program's own access) — half of the >= 4 accesses per word
        # that flow through a cell (Section 1).
        self._m2m_overhead = (
            2 * cfg.memory_access_cycles
            if cfg.comm_model is CommModel.MEMORY_TO_MEMORY
            else 0
        )
        # An R/W op's flow is ``flows[flow_ids[pc]]``: the plan's shared
        # indices into the run's flow list, resolved when the op runs.
        self._flow_ids = flow_ids
        self._flows = flows

    def start(self) -> None:
        """Schedule the first step at t=0."""
        if self.pc >= self._n_ops:
            self._finish()
        else:
            self.poke()

    def close(self) -> None:
        super().close()
        self._write_complete_cb = None

    def _run(self) -> None:
        # The hot path: the engine schedules this method directly, and the
        # common read and write run inline (see the module docstring).
        self._scheduled = False
        if self.done or self._write_parked:
            return
        pc = self.pc
        if pc >= self._n_ops:
            self._finish()
            return
        op = self.ops[pc]
        kind = op.kind
        if kind is _COMPUTE:
            if self.waiting is not None:
                self.waiting = None
                self.wait_queue = None
                self.wait_grant = None
            if op.func is not None and op.register is not None:
                args = [self.registers.get(r) for r in op.operands]
                if any(arg is None for arg in args):
                    # Structure-only runs carry no values; unknown in -> unknown out.
                    self.registers[op.register] = None
                else:
                    self.registers[op.register] = op.func(*args)
            cycles = op.cycles or 1
        elif kind is _WRITE:
            flow = self._flows[self._flow_ids[pc]]
            queue = flow.queues[0]
            if queue is None:
                flow.request(0)
                queue = flow.queues[0]
                if queue is None:
                    self._wait_grant(flow, 0, _W_GRANT)
                    return
            source = op.source
            value = source.resolve(self.registers) if source else None
            overhead = self._m2m_overhead
            if overhead:
                self.memory_accesses += 2
            cycles = self._op_latency + op.cycles + overhead
            buffer = queue._buffer
            if queue._parked is not None or len(buffer) >= queue.capacity:
                # The capacity-0 handoff, a full buffer or an extension
                # spill: the queue's own try_push decides.
                self._write_latency = cycles
                if queue.try_push(value, blocked=self._write_complete_cb):
                    self._write_complete()
                else:
                    self._write_parked = True
                    self.waiting = _W_FULL
                    self.wait_queue = queue
                return
            # HardwareQueue._accept (try_push's assigned check is moot:
            # a granted queue stays assigned until its last word is popped).
            buffer.append(value)
            stats = queue.stats
            stats.words_pushed += 1
            occupancy = len(buffer)
            if occupancy > stats.peak_occupancy:
                stats.peak_occupancy = occupancy
            waiters = queue._word_waiters
            if waiters:
                queue._word_waiters = None
                for poke in waiters:
                    poke()
            # _write_complete, up to its scheduling tail below.
            if self.waiting is not None:
                self.waiting = None
                self.wait_queue = None
                self.wait_grant = None
        else:
            flow = self._flows[self._flow_ids[pc]]
            last = flow.last_hop
            queue = flow.queues[last]
            if queue is None:
                self._wait_grant(flow, last, _R_GRANT)
                return
            buffer = queue._buffer
            parked = queue._parked
            if not (buffer or parked is not None):
                # Wait for a word: HardwareQueue.when_word.
                self.waiting = _R_EMPTY
                self.wait_queue = queue
                waiters = queue._word_waiters
                if waiters is None:
                    queue._word_waiters = [self.poke]
                else:
                    waiters.append(self.poke)
                return
            if self.waiting is not None:
                self.waiting = None
                self.wait_queue = None
                self.wait_grant = None
            if parked is None and not queue.extended:
                # HardwareQueue.pop's tail: popleft, then _finish_pop
                # (no parked writer and no active extension, so no
                # penalty and no extension to clear).
                value = buffer.popleft()
                queue.stats.words_popped += 1
                queue.words_remaining -= 1
                waiters = queue._word_waiters
                if waiters:
                    queue._word_waiters = None
                    for poke in waiters:
                        poke()
                penalty = 0
            else:
                value, penalty = queue.pop()
            if queue.words_remaining <= 0 and queue.assigned is not None:
                self.sim.manager.release(queue)
            flow.words_delivered += 1
            self.sim.received[op.message].append(value)
            if op.register is not None:
                self.registers[op.register] = value
            overhead = self._m2m_overhead
            if overhead:
                self.memory_accesses += 2
            cycles = self._op_latency + op.cycles + penalty + overhead
        self.pc = pc + 1
        self.busy_cycles += cycles
        self._scheduled = True
        # Engine.after, its wheel branch (cycles >= 1).
        engine = self.engine
        if engine._fast and cycles <= engine._horizon:
            slot = (engine.now + cycles) & engine._mask
            engine._wheel[slot].append(self._run_cb)
            engine._wheel_count += 1
            engine._wheel_occupied |= 1 << slot
        else:
            engine.after(cycles, self._run_cb)

    def _write_complete(self) -> None:
        """A pushed (or unparked) word was accepted — advance the program."""
        self._write_parked = False
        if self.waiting is not None:
            self._clear_wait()
        self.pc += 1
        cycles = self._write_latency
        self.busy_cycles += cycles
        self._scheduled = True
        self.engine.after(cycles, self._run_cb)


class ForwarderAgent(_Agent):
    """I/O process moving one message across one intermediate hop.

    Holds at most one word in flight (a register between queues:
    ``holding`` is its value, or ``_EMPTY``), popping from the queue on
    hop ``hop`` and pushing into hop ``hop + 1``. It
    requests the next hop's queue when it first holds a word — i.e. when
    the message's header arrives at the intermediate cell, which is
    exactly when Section 5 says assignment may be requested (and possibly
    blocked).
    """

    __slots__ = (
        "flow",
        "hop",
        "moved",
        "holding",
        "_push_parked",
        "_push_complete_cb",
        "_hop_latency",
    )

    def __init__(
        self, sim: "Simulator", flow: MessageFlow, hop: int, name: str
    ) -> None:
        super().__init__(sim, name)
        self.flow = flow
        self.hop = hop
        self.moved = 0
        self.holding: object = _EMPTY
        self._push_parked = False
        self._push_complete_cb: Callback = self._push_complete
        self._hop_latency = sim.config.hop_latency

    def start(self) -> None:
        """Arm the forwarder; it sleeps until words arrive."""
        self.poke()

    def close(self) -> None:
        super().close()
        self._push_complete_cb = None

    def _run(self) -> None:
        # The hot path, as in CellAgent._run: pop when empty-handed, else
        # push the held word.
        self._scheduled = False
        if self.done or self._push_parked:
            return
        flow = self.flow
        word = self.holding
        if word is _EMPTY:
            if self.moved >= flow.message.length:
                self._finish()
                return
            hop = self.hop
            queue = flow.queues[hop]
            if queue is None:
                self._wait_grant(flow, hop, _F_UP_GRANT)
                return
            buffer = queue._buffer
            parked = queue._parked
            if not (buffer or parked is not None):
                # Wait for a word: HardwareQueue.when_word.
                self.waiting = _F_UP_EMPTY
                self.wait_queue = queue
                waiters = queue._word_waiters
                if waiters is None:
                    queue._word_waiters = [self.poke]
                else:
                    waiters.append(self.poke)
                return
            if self.waiting is not None:
                self.waiting = None
                self.wait_queue = None
                self.wait_grant = None
            if parked is None and not queue.extended:
                # HardwareQueue.pop's tail, as in CellAgent._run.
                word = buffer.popleft()
                queue.stats.words_popped += 1
                queue.words_remaining -= 1
                waiters = queue._word_waiters
                if waiters:
                    queue._word_waiters = None
                    for poke in waiters:
                        poke()
                penalty = 0
            else:
                word, penalty = queue.pop()
            if queue.words_remaining <= 0 and queue.assigned is not None:
                self.sim.manager.release(queue)
            self.holding = word
            cycles = self._hop_latency + penalty
            self.busy_cycles += cycles
            self._scheduled = True
            # Engine.after, its wheel branch (cycles >= 1).
            engine = self.engine
            if engine._fast and cycles <= engine._horizon:
                slot = (engine.now + cycles) & engine._mask
                engine._wheel[slot].append(self._run_cb)
                engine._wheel_count += 1
                engine._wheel_occupied |= 1 << slot
            else:
                engine.after(cycles, self._run_cb)
            return
        nxt = self.hop + 1
        queue = flow.queues[nxt]
        if queue is None:
            flow.request(nxt)
            queue = flow.queues[nxt]
            if queue is None:
                self._wait_grant(flow, nxt, _F_DOWN_GRANT)
                return
        buffer = queue._buffer
        if queue._parked is not None or len(buffer) >= queue.capacity:
            # The capacity-0 handoff, a full buffer or an extension spill:
            # the queue's own try_push decides.
            if queue.try_push(word, blocked=self._push_complete_cb):
                self._push_complete()
            else:
                self._push_parked = True
                self.waiting = _F_DOWN_FULL
                self.wait_queue = queue
            return
        # HardwareQueue._accept.
        buffer.append(word)
        stats = queue.stats
        stats.words_pushed += 1
        occupancy = len(buffer)
        if occupancy > stats.peak_occupancy:
            stats.peak_occupancy = occupancy
        waiters = queue._word_waiters
        if waiters:
            queue._word_waiters = None
            for poke in waiters:
                poke()
        # _push_complete, with its _poke.
        if self.waiting is not None:
            self.waiting = None
            self.wait_queue = None
            self.wait_grant = None
        self.holding = _EMPTY
        self.moved += 1
        if not (self._scheduled or self.done):
            self._scheduled = True
            engine = self.engine
            if engine._fast:
                engine._fifo.append(self._run_cb)
            else:
                engine.after(0, self._run_cb)

    def _push_complete(self) -> None:
        """The held word was accepted downstream — go pop the next one."""
        self._push_parked = False
        if self.waiting is not None:
            self._clear_wait()
        self.holding = _EMPTY
        self.moved += 1
        self._poke()
