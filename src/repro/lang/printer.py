"""Pretty-printing programs back to the textual format, and paper-style
side-by-side listings (the layout of Fig. 2)."""

from __future__ import annotations

from repro.core.ops import Op, OpKind
from repro.core.program import ArrayProgram


def format_op(op: Op) -> str:
    """One statement in the textual format."""
    if op.kind is OpKind.READ:
        if op.register:
            return f"R({op.message}) -> {op.register}"
        return f"R({op.message})"
    if op.kind is OpKind.WRITE:
        if op.source is not None and op.source.register is not None:
            return f"W({op.message}) <- {op.source.register}"
        if op.source is not None and op.source.constant is not None:
            return f"W({op.message}) <- {op.source.constant}"
        return f"W({op.message})"
    return f"delay {max(op.cycles, 1)}"


def print_program(program: ArrayProgram) -> str:
    """Serialize to the format :func:`repro.lang.parser.parse_program` reads.

    Compute statements survive only as delays — their functions are Python
    callables with no textual form, which is fine for the round-trip
    property the analyses need (transfer sequences are preserved exactly).
    ``message`` lines list the messages in declaration order, which the
    parser keeps: it decides which competing message an FCFS run serves
    first.
    """
    lines = [f"program {program.name}", "cells " + " ".join(program.cells), ""]
    for msg in program.messages.values():
        lines.append(
            f"message {msg.name} {msg.sender} -> {msg.receiver} length {msg.length}"
        )
    for cell in program.cells:
        ops = program.cell_programs[cell].ops
        if not ops:
            continue
        lines.append("")
        lines.append(f"cell {cell}:")
        for op in ops:
            lines.append(f"    {format_op(op)}")
    return "\n".join(lines) + "\n"


def side_by_side(program: ArrayProgram, width: int = 14) -> str:
    """The paper's listing layout: one column per cell (cf. Fig. 2)."""
    columns = {
        cell: [str(op) for op in program.cell_programs[cell].ops]
        for cell in program.cells
    }
    height = max((len(col) for col in columns.values()), default=0)
    header = "".join(cell.ljust(width) for cell in program.cells)
    rows = [header, "-" * (width * len(program.cells))]
    for i in range(height):
        row = "".join(
            (columns[cell][i] if i < len(columns[cell]) else "").ljust(width)
            for cell in program.cells
        )
        rows.append(row.rstrip())
    return "\n".join(rows) + "\n"
