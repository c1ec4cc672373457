"""Textual program format, mirroring the paper's listings.

Format (one section per cell, ``#`` comments allowed)::

    program fig6
    cells C1 C2 C3 C4

    cell C1:
        W(A)
        R(D)

    cell C2:
        R(A)
        W(B)
    ...

Message declarations are inferred exactly as the builder does (sender =
writing cell, receiver = reading cell, length = operation count). An
optional explicit block pins them down for cross-checking::

    message A C1 -> C2 length 1

and fixes declaration order: the messages it lists are declared first,
in the order listed, then any other message in sorted-name order.
Declaration order decides which competing message an FCFS run serves
first, so ``print_program`` writes one ``message`` line per message, in
declaration order, and a printed program parses back to the same runs.

Reads/writes may name registers — ``R(A) -> x`` stores into register x,
``W(A) <- x`` sources from it, ``W(A) <- 3.5`` writes a constant.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.core.message import Message
from repro.core.ops import Op, R, W
from repro.core.program import ArrayProgram
from repro.errors import ParseError
from repro.lang.builder import ProgramBuilder

_PROGRAM_RE = re.compile(r"^program\s+(\S+)$")
_CELLS_RE = re.compile(r"^cells\s+(.+)$")
_CELL_RE = re.compile(r"^cell\s+(\S+):$")
_MESSAGE_RE = re.compile(
    r"^message\s+(\S+)\s+(\S+)\s*->\s*(\S+)\s+length\s+(\d+)$"
)
_READ_RE = re.compile(r"^R\((\w+)\)(?:\s*->\s*(\w+))?$")
_WRITE_RE = re.compile(r"^W\((\w+)\)(?:\s*<-\s*(\S+))?$")
_DELAY_RE = re.compile(r"^delay\s+(\d+)$")


def parse_program(text: str) -> ArrayProgram:
    """Parse the textual format into a validated :class:`ArrayProgram`."""
    name = "program"
    cells: list[str] = []
    declared: dict[str, Message] = {}
    builder: ProgramBuilder | None = None
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if match := _PROGRAM_RE.match(line):
            name = match.group(1)
            continue
        if match := _CELLS_RE.match(line):
            if builder is not None:
                raise ParseError(f"line {lineno}: duplicate cells declaration")
            cells = match.group(1).split()
            builder = ProgramBuilder(name, cells)
            continue
        if match := _MESSAGE_RE.match(line):
            message = match.group(1)
            if message in declared:
                raise ParseError(f"line {lineno}: message {message!r} declared twice")
            declared[message] = Message(
                message, match.group(2), match.group(3), int(match.group(4))
            )
            continue
        if match := _CELL_RE.match(line):
            current = match.group(1)
            if builder is None:
                raise ParseError(f"line {lineno}: cell section before cells line")
            builder.cell(current)  # validates the name
            continue

        if builder is None or current is None:
            raise ParseError(f"line {lineno}: statement outside a cell section")
        cell = builder.cell(current)
        if match := _READ_RE.match(line):
            cell.recv(match.group(1), into=match.group(2))
        elif match := _WRITE_RE.match(line):
            source = match.group(2)
            if source is None:
                cell.send(match.group(1))
            else:
                try:
                    cell.send(match.group(1), constant=float(source))
                except ValueError:
                    cell.send(match.group(1), from_register=source)
        elif match := _DELAY_RE.match(line):
            cell.delay(int(match.group(1)))
        else:
            raise ParseError(f"line {lineno}: cannot parse {line!r}")

    if builder is None:
        raise ParseError("no cells declaration found")
    program = builder.build()
    _check_declared(program, declared.values())
    order = list(dict.fromkeys([*declared, *program.messages]))
    if order != list(program.messages):
        program = ArrayProgram(
            program.cells,
            [program.messages[name] for name in order],
            {cell: prog.ops for cell, prog in program.cell_programs.items()},
            name=program.name,
        )
    return program


def _check_declared(program: ArrayProgram, declared: Iterable[Message]) -> None:
    for msg in declared:
        actual = program.messages.get(msg.name)
        if actual is None:
            raise ParseError(f"declared message {msg.name!r} never used")
        if actual != msg:
            raise ParseError(
                f"message {msg.name!r}: declaration {msg} does not match use {actual}"
            )
