"""Array programs: one operation sequence per cell, plus declared messages.

This is the paper's program abstraction (Section 2.2): an array program is
a set of cell programs, each a sequence of ``W``/``R`` statements on
messages declared ahead of execution. The host counts as a cell. All
write/read operations are known at compile time (data-independent control),
which is what makes the compile-time analyses possible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.message import Message
from repro.core.ops import Op, OpKind, transfer_ops
from repro.errors import ProgramError


@dataclass(frozen=True)
class CellProgram:
    """The statement sequence of one cell."""

    cell: str
    ops: tuple[Op, ...]

    def __post_init__(self) -> None:
        if not self.cell:
            raise ProgramError("cell name must be non-empty")

    def _transfer_tuple(self) -> tuple[Op, ...]:
        """The cached R/W projection (computed once; the dataclass is
        frozen and ``ops`` is a tuple, so it cannot go stale)."""
        cached = self.__dict__.get("_transfers_cache")
        if cached is None:
            cached = tuple(transfer_ops(self.ops))
            object.__setattr__(self, "_transfers_cache", cached)
        return cached

    @property
    def transfers(self) -> list[Op]:
        """R/W operations only — the analyses' view of this program.

        Callers get a fresh list they are free to mutate.
        """
        return list(self._transfer_tuple())

    @property
    def transfer_count(self) -> int:
        """Number of R/W operations, without materializing a list."""
        return len(self._transfer_tuple())

    def message_access_order(self) -> list[str]:
        """Message names in the order this cell touches them (R/W only)."""
        return [op.message for op in self.transfers]

    def count(self, kind: OpKind, message: str) -> int:
        """Number of operations of ``kind`` on ``message`` in this program."""
        return sum(
            1 for op in self.ops if op.kind is kind and op.message == message
        )

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)


class ArrayProgram:
    """A validated program for a whole array.

    Construction validates the paper's structural rules:

    * every R/W operation names a declared message;
    * ``W(X)`` appears only in the program of ``X``'s sender and ``R(X)``
      only in the program of ``X``'s receiver;
    * the number of ``W(X)`` operations equals ``X``'s declared length,
      and likewise for ``R(X)``.

    Cells with no statements are permitted (pass-through cells whose I/O
    processes still forward words).
    """

    def __init__(
        self,
        cells: Sequence[str],
        messages: Iterable[Message],
        programs: Mapping[str, Sequence[Op]],
        name: str = "program",
    ) -> None:
        self.name = name
        self.cells: tuple[str, ...] = tuple(cells)
        if len(set(self.cells)) != len(self.cells):
            raise ProgramError(f"duplicate cell names in {self.cells}")
        self.messages: dict[str, Message] = {}
        for msg in messages:
            if msg.name in self.messages:
                raise ProgramError(f"duplicate message declaration {msg.name!r}")
            self.messages[msg.name] = msg
        cell_set = set(self.cells)
        for msg in self.messages.values():
            if msg.sender not in cell_set:
                raise ProgramError(
                    f"message {msg.name!r}: sender {msg.sender!r} is not a cell"
                )
            if msg.receiver not in cell_set:
                raise ProgramError(
                    f"message {msg.name!r}: receiver {msg.receiver!r} is not a cell"
                )
        self.cell_programs: dict[str, CellProgram] = {}
        for cell in self.cells:
            ops = tuple(programs.get(cell, ()))
            self.cell_programs[cell] = CellProgram(cell, ops)
        unknown = set(programs) - cell_set
        if unknown:
            raise ProgramError(f"programs given for unknown cells: {sorted(unknown)}")
        self._validate()
        self._intern: InternTable | None = None
        self._fingerprint: str | None = None

    def _validate(self) -> None:
        for cell, prog in self.cell_programs.items():
            for op in prog.transfers:
                msg = self.messages.get(op.message)
                if msg is None:
                    raise ProgramError(
                        f"cell {cell!r}: operation {op} names undeclared message"
                    )
                if op.kind is OpKind.WRITE and cell != msg.sender:
                    raise ProgramError(
                        f"cell {cell!r} writes {msg.name!r} but its sender is "
                        f"{msg.sender!r}"
                    )
                if op.kind is OpKind.READ and cell != msg.receiver:
                    raise ProgramError(
                        f"cell {cell!r} reads {msg.name!r} but its receiver is "
                        f"{msg.receiver!r}"
                    )
        for msg in self.messages.values():
            writes = self.cell_programs[msg.sender].count(OpKind.WRITE, msg.name)
            reads = self.cell_programs[msg.receiver].count(OpKind.READ, msg.name)
            if writes != msg.length:
                raise ProgramError(
                    f"message {msg.name!r}: declared length {msg.length} but "
                    f"sender {msg.sender!r} writes {writes} words"
                )
            if reads != msg.length:
                raise ProgramError(
                    f"message {msg.name!r}: declared length {msg.length} but "
                    f"receiver {msg.receiver!r} reads {reads} words"
                )

    # ------------------------------------------------------------------
    # Views used by the analyses
    # ------------------------------------------------------------------

    def transfers(self, cell: str) -> list[Op]:
        """The R/W sequence of ``cell``."""
        return self.cell_programs[cell].transfers

    @property
    def intern(self) -> "InternTable":
        """This program's dense-int intern table (built once, lazily).

        Programs are immutable after construction, so the table can never
        go stale.
        """
        table = self._intern
        if table is None:
            table = InternTable(self)
            self._intern = table
        return table

    @property
    def fingerprint(self) -> str:
        """Stable digest of this program's structural content (computed once).

        Covers the cells, the messages in declaration order and every
        cell's operation sequence (kind, message, cycles, register,
        operands), but not compute callables or write values, which
        change no analysis and no run's timing. Declaration order is
        covered because the simulator issues same-cycle queue requests
        in it: under FCFS it can decide between deadlock and completion.
        The digest hashes *names*, never interned ids, since checkpoint
        grid fingerprints and witness-store scopes built from it persist
        across processes and releases.
        """
        digest = self._fingerprint
        if digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(repr(self.cells).encode())
            for msg in self.messages.values():
                h.update(
                    f"|m:{msg.name},{msg.sender},{msg.receiver},{msg.length}".encode()
                )
            for cell in self.cells:
                h.update(f"|c:{cell}".encode())
                for op in self.cell_programs[cell].ops:
                    h.update(
                        f";{op.kind.name},{op.message},{op.cycles},"
                        f"{op.register},{op.operands}".encode()
                    )
            digest = self._fingerprint = h.hexdigest()
        return digest

    @property
    def total_transfer_ops(self) -> int:
        """Total number of R/W operations across all cells."""
        return sum(p.transfer_count for p in self.cell_programs.values())

    @property
    def total_words(self) -> int:
        """Total number of words moved by the program (sum of lengths)."""
        return sum(m.length for m in self.messages.values())

    def message(self, name: str) -> Message:
        """Look up a declared message by name."""
        try:
            return self.messages[name]
        except KeyError:
            raise ProgramError(f"no message named {name!r}") from None

    def messages_touching(self, cell: str) -> list[Message]:
        """Messages whose sender or receiver is ``cell``."""
        return [
            m
            for m in self.messages.values()
            if m.sender == cell or m.receiver == cell
        ]

    def __repr__(self) -> str:
        return (
            f"ArrayProgram({self.name!r}, cells={len(self.cells)}, "
            f"messages={len(self.messages)}, ops={self.total_transfer_ops})"
        )


class InternTable:
    """Dense integer ids for one program's cells and messages.

    Built once per :class:`ArrayProgram` (lazily, through
    :attr:`ArrayProgram.intern`) and shared by every analysis over it.
    The id assignment is *content-defined* and deterministic — never an
    artifact of construction order:

    * **cell ids** follow the program's cell tuple order (itself part of
      the program's content);
    * **message ids** follow sorted message-name order, so comparing two
      ids orders exactly like comparing the names. Every "lowest message
      name first" tie-break in the crossing engine and labeling scheme
      therefore survives interning unchanged.

    Alongside the name<->id maps the table carries the flat views the
    hot analyses index by id: per-message endpoints/lengths, each cell's
    R/W sequence encoded as ``(is_write, message_id)`` pairs, per-cell
    transfer counts, and the maximum op latency (used to size the
    simulator's timing wheel).
    """

    __slots__ = (
        "cell_names",
        "cell_ids",
        "message_names",
        "message_ids",
        "senders",
        "receivers",
        "lengths",
        "encoded_transfers",
        "transfer_counts",
        "max_op_cycles",
        "_signed",
        "_columnar",
    )

    def __init__(self, program: "ArrayProgram") -> None:
        self.cell_names: tuple[str, ...] = program.cells
        self.cell_ids: dict[str, int] = {
            cell: cid for cid, cell in enumerate(program.cells)
        }
        names = sorted(program.messages)
        self.message_names: tuple[str, ...] = tuple(names)
        self.message_ids: dict[str, int] = {
            name: mid for mid, name in enumerate(names)
        }
        cell_ids = self.cell_ids
        self.senders: tuple[int, ...] = tuple(
            cell_ids[program.messages[name].sender] for name in names
        )
        self.receivers: tuple[int, ...] = tuple(
            cell_ids[program.messages[name].receiver] for name in names
        )
        self.lengths: tuple[int, ...] = tuple(
            program.messages[name].length for name in names
        )
        message_ids = self.message_ids
        encoded: list[tuple[tuple[bool, int], ...]] = []
        counts: list[int] = []
        max_cycles = 0
        for cell in program.cells:
            cell_program = program.cell_programs[cell]
            seq = tuple(
                (op.kind is OpKind.WRITE, message_ids[op.message])
                for op in cell_program._transfer_tuple()
            )
            encoded.append(seq)
            counts.append(len(seq))
            for op in cell_program.ops:
                if op.cycles > max_cycles:
                    max_cycles = op.cycles
        self.encoded_transfers: tuple[tuple[tuple[bool, int], ...], ...] = tuple(
            encoded
        )
        self.transfer_counts: tuple[int, ...] = tuple(counts)
        self.max_op_cycles: int = max_cycles
        # Derived encodings, built lazily and shared by every analysis
        # over the program (see signed_transfers / columnar).
        self._signed: tuple[list[int], ...] | None = None
        self._columnar = None

    @property
    def cell_count(self) -> int:
        return len(self.cell_names)

    @property
    def message_count(self) -> int:
        return len(self.message_names)

    @property
    def signed_transfers(self) -> tuple[list[int], ...]:
        """Per-cell sign-coded transfer sequences (built once, lazily).

        Writes encode as ``mid``, reads as ``~mid`` — one comparison
        (``x < 0``) replaces tuple unpacking in the crossing engine's
        nomination scans. The inner lists are read-only by contract
        (lists, not tuples: list indexing is what the hot scans do).
        """
        signed = self._signed
        if signed is None:
            signed = tuple(
                [mid if is_write else ~mid for is_write, mid in seq]
                for seq in self.encoded_transfers
            )
            self._signed = signed
        return signed

    def columnar(self):
        """The numpy columnar view of this table (built once, lazily).

        Returns a :class:`repro.core.crossing_np.ColumnarTables` — flat
        position arrays, cumulative write-count tables and capacity
        gather indexes shared zero-copy by every columnar crossing run
        over this program. Raises :class:`~repro.errors.ConfigError`
        when numpy is unavailable; callers gate on
        :func:`repro.core.crossing_np.numpy_available`.
        """
        tables = self._columnar
        if tables is None:
            from repro.core.crossing_np import ColumnarTables

            tables = ColumnarTables(self)
            self._columnar = tables
        return tables


@dataclass
class ProgramStats:
    """Summary statistics of an array program."""

    cells: int
    messages: int
    words: int
    transfer_ops: int
    max_ops_per_cell: int
    multi_hop_messages: int = 0

    @classmethod
    def of(cls, program: ArrayProgram) -> "ProgramStats":
        max_ops = max(
            (p.transfer_count for p in program.cell_programs.values()), default=0
        )
        return cls(
            cells=len(program.cells),
            messages=len(program.messages),
            words=program.total_words,
            transfer_ops=program.total_transfer_ops,
            max_ops_per_cell=max_ops,
        )
