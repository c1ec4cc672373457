"""Reference oracle: the original op-by-op crossing-off implementation.

This is the seed implementation of :mod:`repro.core.crossing` preserved
verbatim (modulo class names). The production engine is incremental —
one readiness-scan drive loop per stepping mode, which rescans only the
cells a crossing touched — and must produce bit-identical
``steps``/``crossings``/``max_skipped`` output to this oracle in both
stepping modes. The property tests in ``test_crossing_equivalence.py``
run the two side by side over random programs.

Do not optimize this module: its value is being the obviously-correct
transliteration of Sections 3 and 8.1.
"""

from __future__ import annotations

from typing import Callable

from repro.core.crossing import (
    CrossingResult,
    LookaheadConfig,
    PairCrossing,
    PairObserver,
)
from repro.core.ops import Op, OpKind
from repro.core.program import ArrayProgram


class _Located:
    """A candidate operation found by scanning (possibly with lookahead)."""

    __slots__ = ("pos", "skipped")

    def __init__(self, pos: int, skipped: dict[str, int]) -> None:
        self.pos = pos
        self.skipped = skipped


class ReferenceCrossingState:
    """Mutable state of the procedure, implemented by direct scanning."""

    def __init__(
        self,
        program: ArrayProgram,
        lookahead: LookaheadConfig | None = None,
    ) -> None:
        self.program = program
        self.lookahead = lookahead
        self.seqs: dict[str, list[Op]] = {
            cell: program.transfers(cell) for cell in program.cells
        }
        self.crossed: dict[str, list[bool]] = {
            cell: [False] * len(seq) for cell, seq in self.seqs.items()
        }
        self.fronts: dict[str, int] = {cell: 0 for cell in program.cells}
        self.remaining_per_message: dict[str, int] = {
            name: 2 * msg.length for name, msg in program.messages.items()
        }
        self.last_crossed_message: dict[str, str | None] = {
            cell: None for cell in program.cells
        }
        self.max_skipped: dict[str, int] = {name: 0 for name in program.messages}
        self.total_remaining = sum(self.remaining_per_message.values())

    @property
    def done(self) -> bool:
        return self.total_remaining == 0

    def uncrossed_ops(self, cell: str) -> list[Op]:
        seq, crossed = self.seqs[cell], self.crossed[cell]
        return [op for op, done in zip(seq, crossed) if not done]

    def future_messages(self, cell: str, exclude: str | None = None) -> set[str]:
        out = {op.message for op in self.uncrossed_ops(cell)}
        out.discard(exclude or "")
        return out

    def _advance_front(self, cell: str) -> None:
        seq, crossed = self.seqs[cell], self.crossed[cell]
        front = self.fronts[cell]
        while front < len(seq) and crossed[front]:
            front += 1
        self.fronts[cell] = front

    def _locate(self, cell: str, kind: OpKind, message: str) -> _Located | None:
        seq, crossed = self.seqs[cell], self.crossed[cell]
        skipped: dict[str, int] = {}
        for pos in range(self.fronts[cell], len(seq)):
            if crossed[pos]:
                continue
            op = seq[pos]
            if op.kind is kind and op.message == message:
                return _Located(pos, skipped)
            if self.lookahead is None:
                return None
            if op.kind is OpKind.READ:
                return None  # R1: reads cannot be skipped
            count = skipped.get(op.message, 0) + 1
            if count > self.lookahead.capacity(op.message):
                return None  # R2: buffering along the route exhausted
            skipped[op.message] = count
        return None

    def executable_pair(self, message: str) -> PairCrossing | None:
        if self.remaining_per_message[message] == 0:
            return None
        msg = self.program.messages[message]
        write = self._locate(msg.sender, OpKind.WRITE, message)
        if write is None:
            return None
        read = self._locate(msg.receiver, OpKind.READ, message)
        if read is None:
            return None
        return PairCrossing(
            step=0,
            message=message,
            sender=msg.sender,
            sender_pos=write.pos,
            receiver=msg.receiver,
            receiver_pos=read.pos,
            skipped_sender=tuple(sorted(write.skipped.items())),
            skipped_receiver=tuple(sorted(read.skipped.items())),
        )

    def executable_pairs(self) -> list[PairCrossing]:
        pairs = []
        for name in sorted(self.program.messages):
            pair = self.executable_pair(name)
            if pair is not None:
                pairs.append(pair)
        return pairs

    def cross(self, pair: PairCrossing, step: int) -> PairCrossing:
        self.crossed[pair.sender][pair.sender_pos] = True
        self.crossed[pair.receiver][pair.receiver_pos] = True
        self._advance_front(pair.sender)
        self._advance_front(pair.receiver)
        self.remaining_per_message[pair.message] -= 2
        self.total_remaining -= 2
        self.last_crossed_message[pair.sender] = pair.message
        self.last_crossed_message[pair.receiver] = pair.message
        for msg_name, count in pair.skipped_sender + pair.skipped_receiver:
            self.max_skipped[msg_name] = max(self.max_skipped[msg_name], count)
        return PairCrossing(
            step=step,
            message=pair.message,
            sender=pair.sender,
            sender_pos=pair.sender_pos,
            receiver=pair.receiver,
            receiver_pos=pair.receiver_pos,
            skipped_sender=pair.skipped_sender,
            skipped_receiver=pair.skipped_receiver,
        )


def reference_cross_off(
    program: ArrayProgram,
    lookahead: LookaheadConfig | None = None,
    mode: str = "parallel",
    observer: PairObserver | None = None,
    pick: Callable[[list[PairCrossing]], PairCrossing] | None = None,
) -> CrossingResult:
    """The seed ``cross_off``: full re-scan of every message every step."""
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    state = ReferenceCrossingState(program, lookahead)
    steps: list[list[PairCrossing]] = []
    crossings: list[PairCrossing] = []
    while not state.done:
        pairs = state.executable_pairs()
        if not pairs:
            break
        step_no = len(steps) + 1
        if mode == "sequential":
            chosen = pick(pairs) if pick is not None else pairs[0]
            pairs = [chosen]
        this_step: list[PairCrossing] = []
        for pair in pairs:
            if observer is not None:
                observer(state, pair)
            stamped = state.cross(pair, step_no)
            this_step.append(stamped)
            crossings.append(stamped)
        steps.append(this_step)
    return CrossingResult(
        deadlock_free=state.done,
        steps=steps,
        crossings=crossings,
        uncrossed={
            cell: state.uncrossed_ops(cell)
            for cell in program.cells
            if state.uncrossed_ops(cell)
        },
        max_skipped=dict(state.max_skipped),
        lookahead_used=lookahead is not None,
    )
