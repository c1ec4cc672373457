"""Fluent builder for array programs.

Writing ``ArrayProgram`` literals is verbose: messages must be declared
with explicit lengths that match the operation counts. The builder infers
declarations from use — ``send``/``recv`` calls accumulate per-cell ops,
and :meth:`ProgramBuilder.build` derives each message's endpoints and
length, then validates the result through the normal constructor.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Sequence

from repro.core.message import Message
from repro.core.ops import COMPUTE, Op, OpKind, R, W
from repro.core.program import ArrayProgram
from repro.errors import ProgramError


def _idle() -> float:
    """A delay's compute: no operands and no effect.

    A module-level function, not a lambda, so a program with a delay
    pickles and can run on sweep worker processes.
    """
    return 0.0


class CellBuilder:
    """Accumulates one cell's statements; returned by ``builder.cell()``."""

    def __init__(self, owner: "ProgramBuilder", cell: str) -> None:
        self._owner = owner
        self.cell = cell
        self.ops: list[Op] = []

    def send(
        self,
        message: str,
        from_register: str | None = None,
        constant: float | None = None,
        times: int = 1,
    ) -> "CellBuilder":
        """Append ``times`` write operations to ``message``."""
        for _ in range(times):
            self.ops.append(W(message, from_register=from_register, constant=constant))
        self._owner.note_writer(message, self.cell)
        return self

    def recv(
        self, message: str, into: str | None = None, times: int = 1
    ) -> "CellBuilder":
        """Append ``times`` read operations from ``message``."""
        for _ in range(times):
            self.ops.append(R(message, into=into))
        self._owner.note_reader(message, self.cell)
        return self

    def compute(
        self,
        target: str,
        func: Callable[..., float],
        operands: Sequence[str] = (),
        cycles: int = 1,
    ) -> "CellBuilder":
        """Append a compute statement (invisible to the analyses)."""
        self.ops.append(COMPUTE(target, func, operands, cycles=cycles))
        return self

    def delay(self, cycles: int) -> "CellBuilder":
        """Append a pure time delay (compute with no effect)."""
        self.ops.append(COMPUTE("_", _idle, [], cycles=cycles))
        return self


class ProgramBuilder:
    """Builds a validated :class:`ArrayProgram` from fluent cell scripts.

    Example::

        b = ProgramBuilder("demo", cells=["C1", "C2"])
        b.cell("C1").send("A", times=2)
        b.cell("C2").recv("A", times=2)
        program = b.build()
    """

    def __init__(self, name: str, cells: Sequence[str]) -> None:
        self.name = name
        self.cells = list(cells)
        self._builders: dict[str, CellBuilder] = {}
        self._writers: dict[str, str] = {}
        self._readers: dict[str, str] = {}

    def cell(self, name: str) -> CellBuilder:
        """The (shared) builder for ``name``; created on first use."""
        if name not in self.cells:
            raise ProgramError(f"unknown cell {name!r}")
        if name not in self._builders:
            self._builders[name] = CellBuilder(self, name)
        return self._builders[name]

    def note_writer(self, message: str, cell: str) -> None:
        """Record (and cross-check) the sender of ``message``."""
        prior = self._writers.setdefault(message, cell)
        if prior != cell:
            raise ProgramError(
                f"message {message!r} written by both {prior!r} and {cell!r}"
            )

    def note_reader(self, message: str, cell: str) -> None:
        """Record (and cross-check) the receiver of ``message``."""
        prior = self._readers.setdefault(message, cell)
        if prior != cell:
            raise ProgramError(
                f"message {message!r} read by both {prior!r} and {cell!r}"
            )

    def build(self) -> ArrayProgram:
        """Derive message declarations and validate the whole program."""
        counts: dict[str, dict[OpKind, int]] = defaultdict(
            lambda: {OpKind.WRITE: 0, OpKind.READ: 0}
        )
        for builder in self._builders.values():
            for op in builder.ops:
                if op.is_transfer:
                    counts[op.message][op.kind] += 1
        messages = []
        for name, c in sorted(counts.items()):
            writes, reads = c[OpKind.WRITE], c[OpKind.READ]
            if name not in self._writers:
                raise ProgramError(f"message {name!r} is read but never written")
            if name not in self._readers:
                raise ProgramError(f"message {name!r} is written but never read")
            if writes != reads:
                raise ProgramError(
                    f"message {name!r}: {writes} writes vs {reads} reads"
                )
            messages.append(
                Message(name, self._writers[name], self._readers[name], writes)
            )
        programs = {
            cell: tuple(builder.ops) for cell, builder in self._builders.items()
        }
        return ArrayProgram(self.cells, messages, programs, name=self.name)
