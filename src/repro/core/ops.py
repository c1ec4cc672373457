"""Operation model for cell programs.

The paper abstracts a cell program to its sequence of write ``W(X)`` and
read ``R(X)`` operations on declared messages (Section 2.2). The deadlock
machinery uses only that syntactic information. For end-to-end validation
(e.g. checking the FIR filter of Fig. 2 numerically) the model also carries
optional *value* information: a read may store the received word into a
named cell register, a write may source its word from a register or a
constant, and ``Compute`` operations transform registers. Compute
operations are invisible to every compile-time analysis, exactly as the
paper drops the arithmetic statements from its listings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence


class OpKind(enum.Enum):
    """Kind of a cell-program operation."""

    READ = "R"
    WRITE = "W"
    COMPUTE = "C"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ValueSource:
    """Where a write operation takes its word from.

    Exactly one of ``register`` or ``constant`` is set. A write with no
    source sends ``None`` words, which is fine for programs that exercise
    only the communication structure.
    """

    register: str | None = None
    constant: float | None = None

    def __post_init__(self) -> None:
        if self.register is not None and self.constant is not None:
            raise ValueError("ValueSource takes a register or a constant, not both")

    def resolve(self, registers: dict[str, float | None]) -> float | None:
        """Produce the word value given the cell's current registers."""
        if self.register is not None:
            return registers.get(self.register)
        return self.constant


@dataclass(frozen=True)
class Op:
    """One statement of a cell program.

    Attributes:
        kind: read, write, or compute.
        message: message name for R/W operations (``""`` for compute).
        register: for a read, the destination register (optional); for a
            compute, the target register.
        source: for a write, where the word value comes from.
        func: for a compute, a callable applied to the operand registers.
        operands: for a compute, the register names passed to ``func``.
        cycles: extra simulated cycles this operation takes beyond the
            baseline queue access (models the arithmetic in Fig. 2).
    """

    kind: OpKind
    message: str = ""
    register: str | None = None
    source: ValueSource | None = None
    func: Callable[..., float] | None = field(default=None, compare=False)
    operands: tuple[str, ...] = ()
    cycles: int = 0

    def __post_init__(self) -> None:
        if self.kind in (OpKind.READ, OpKind.WRITE) and not self.message:
            raise ValueError(f"{self.kind.value} operation requires a message name")
        if self.kind is OpKind.COMPUTE and self.message:
            raise ValueError("compute operations do not name a message")
        if self.cycles < 0:
            raise ValueError(f"operation cycles must be >= 0, got {self.cycles}")

    @property
    def is_transfer(self) -> bool:
        """True for R/W operations — the ones the paper's analyses see."""
        return self.kind in (OpKind.READ, OpKind.WRITE)

    def __str__(self) -> str:
        if self.kind is OpKind.COMPUTE:
            target = self.register or "_"
            return f"C({target})"
        return f"{self.kind.value}({self.message})"


def R(message: str, into: str | None = None, cycles: int = 0) -> Op:
    """Read one word from ``message``, optionally into register ``into``."""
    return Op(OpKind.READ, message, register=into, cycles=cycles)


def W(
    message: str,
    from_register: str | None = None,
    constant: float | None = None,
    cycles: int = 0,
) -> Op:
    """Write one word to ``message``.

    The word value comes from ``from_register`` if given, else from
    ``constant``, else it is ``None`` (structure-only programs).
    """
    source: ValueSource | None = None
    if from_register is not None or constant is not None:
        source = ValueSource(register=from_register, constant=constant)
    return Op(OpKind.WRITE, message, source=source, cycles=cycles)


def COMPUTE(
    target: str,
    func: Callable[..., float],
    operands: Sequence[str],
    cycles: int = 1,
) -> Op:
    """Apply ``func`` to the named operand registers, storing into ``target``.

    Compute operations never block and are ignored by all compile-time
    analyses (crossing-off, labeling, consistency); they only consume
    simulated time.
    """
    return Op(
        OpKind.COMPUTE,
        register=target,
        func=func,
        operands=tuple(operands),
        cycles=cycles,
    )


def transfer_ops(ops: Sequence[Op]) -> list[Op]:
    """Project a statement sequence onto its R/W operations.

    This is the view every analysis in the paper operates on.
    """
    return [op for op in ops if op.is_transfer]
