"""Random program generation for property tests and ensemble benches.

Deadlock-free programs are generated *by construction*: we sample a global
word-transfer schedule and append each word's ``W`` to the sender and
``R`` to the receiver as the schedule is drawn. Executing the crossing-off
procedure in schedule order then always finds the next pair at the cell
fronts, so the program is deadlock-free by induction (and the procedure's
confluence makes any other crossing order equivalent).

Two mutations produce the other classes the paper discusses:

* :func:`hoist_writes` moves writes earlier past other writes — the
  program may stop being deadlock-free under the strict procedure but
  remains deadlock-free under lookahead with sufficient buffering
  (Section 8's class);
* :func:`inject_read_cycle` splices the Fig. 5 / P3 circular-wait pattern
  into a program, making it deadlocked beyond repair (rule R1 territory).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.message import Message
from repro.core.ops import Op, OpKind, R, W
from repro.core.program import ArrayProgram
from repro.errors import ProgramError


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the random program family.

    Attributes:
        cells: number of cells in the linear array.
        messages: number of messages to declare.
        max_length: maximum words per message.
        max_span: maximum |sender - receiver| distance (1 = neighbours
            only; larger spans exercise multi-hop forwarding).
        burst: maximum consecutive words of one message scheduled together
            (bursts create interleavings, hence related messages).
        seed: RNG seed (generation is fully deterministic given the spec).
    """

    cells: int = 6
    messages: int = 8
    max_length: int = 5
    max_span: int = 3
    burst: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cells < 2:
            raise ValueError("need at least two cells")
        if self.messages < 1:
            raise ValueError("need at least one message")
        if self.max_length < 1 or self.burst < 1 or self.max_span < 1:
            raise ValueError("max_length, burst and max_span must be >= 1")


def _cell_names(n: int) -> tuple[str, ...]:
    return tuple(f"C{i + 1}" for i in range(n))


def random_program(spec: WorkloadSpec) -> ArrayProgram:
    """A random deadlock-free program over a linear array."""
    rng = random.Random(spec.seed)
    cells = _cell_names(spec.cells)
    messages: list[Message] = []
    for idx in range(spec.messages):
        src = rng.randrange(spec.cells)
        span = rng.randint(1, spec.max_span)
        if rng.random() < 0.5:
            dst = max(0, src - span)
        else:
            dst = min(spec.cells - 1, src + span)
        if dst == src:
            dst = src + 1 if src + 1 < spec.cells else src - 1
        length = rng.randint(1, spec.max_length)
        messages.append(Message(f"M{idx}", cells[src], cells[dst], length))

    ops: dict[str, list[Op]] = {cell: [] for cell in cells}
    remaining = {msg.name: msg.length for msg in messages}
    by_name = {msg.name: msg for msg in messages}
    live = [msg.name for msg in messages]
    while live:
        name = rng.choice(live)
        msg = by_name[name]
        burst = min(rng.randint(1, spec.burst), remaining[name])
        for _ in range(burst):
            ops[msg.sender].append(W(name))
            ops[msg.receiver].append(R(name))
        remaining[name] -= burst
        if remaining[name] == 0:
            live.remove(name)

    return ArrayProgram(
        cells, messages, ops, name=f"random-{spec.seed}"
    )


def hoist_writes(
    program: ArrayProgram, swaps: int, seed: int = 0
) -> ArrayProgram:
    """Move random writes one slot earlier past an adjacent write.

    Each swap exchanges two adjacent *write* operations (to different
    messages) in some cell. The result may require lookahead to classify
    as deadlock-free; the number of applied swaps bounds the extra
    buffering needed (each swap displaces one write past one other).
    Returns a new program; the input is untouched.
    """
    rng = random.Random(seed)
    new_ops = {
        cell: list(program.cell_programs[cell].ops) for cell in program.cells
    }
    applied = 0
    attempts = 0
    while applied < swaps and attempts < swaps * 20:
        attempts += 1
        cell = rng.choice(program.cells)
        seq = new_ops[cell]
        if len(seq) < 2:
            continue
        i = rng.randrange(len(seq) - 1)
        a, b = seq[i], seq[i + 1]
        if (
            a.kind is OpKind.WRITE
            and b.kind is OpKind.WRITE
            and a.message != b.message
        ):
            seq[i], seq[i + 1] = b, a
            applied += 1
    return ArrayProgram(
        program.cells,
        program.messages.values(),
        new_ops,
        name=f"{program.name}-hoisted",
    )


def inject_read_cycle(program: ArrayProgram, seed: int = 0) -> ArrayProgram:
    """Append a P3-style circular wait between two adjacent cells.

    Two fresh one-word messages are added, each cell reading the other's
    message before writing its own — the dependency no buffering or
    lookahead can break (Section 8.1, rule R1). The result is always a
    deadlocked program.
    """
    rng = random.Random(seed)
    idx = rng.randrange(len(program.cells) - 1)
    c1, c2 = program.cells[idx], program.cells[idx + 1]
    fwd = Message("DLK_F", c1, c2, 1)
    bwd = Message("DLK_B", c2, c1, 1)
    if "DLK_F" in program.messages:
        raise ProgramError("program already carries an injected cycle")
    new_ops = {
        cell: list(program.cell_programs[cell].ops) for cell in program.cells
    }
    new_ops[c1] += [R("DLK_B"), W("DLK_F")]
    new_ops[c2] += [R("DLK_F"), W("DLK_B")]
    return ArrayProgram(
        program.cells,
        list(program.messages.values()) + [fwd, bwd],
        new_ops,
        name=f"{program.name}-deadlocked",
    )


def spec_family(
    count: int,
    cells: int = 6,
    messages: int = 8,
    max_length: int = 5,
    max_span: int = 3,
    burst: int = 3,
    base_seed: int = 0,
) -> list[WorkloadSpec]:
    """``count`` specs differing only in seed — an ensemble definition."""
    return [
        WorkloadSpec(
            cells=cells,
            messages=messages,
            max_length=max_length,
            max_span=max_span,
            burst=burst,
            seed=base_seed + i,
        )
        for i in range(count)
    ]


def large_spec_family(
    sizes: tuple[int, ...] = (1000, 4000, 10000),
    messages_per_cell: float = 3.0,
    max_length: int = 4,
    max_span: int = 3,
    burst: int = 2,
    base_seed: int = 7,
) -> list[WorkloadSpec]:
    """The 1k-10k-cell analysis workload family, one spec per size.

    These are the programs the interned crossing engine targets: wide
    linear arrays with a few messages per cell, where per-step work must
    stay O(incident messages) for the analysis to finish in seconds.
    Used by ``benchmarks/bench_crossing_large.py`` and reproducible from
    the spec alone.
    """
    return [
        WorkloadSpec(
            cells=cells,
            messages=max(1, int(cells * messages_per_cell)),
            max_length=max_length,
            max_span=max_span,
            burst=burst,
            seed=base_seed + index,
        )
        for index, cells in enumerate(sizes)
    ]


def ensemble_programs(
    count: int,
    cells: int = 6,
    messages: int = 8,
    max_length: int = 5,
    max_span: int = 3,
    burst: int = 3,
    base_seed: int = 0,
) -> list[ArrayProgram]:
    """``count`` random deadlock-free programs, one per seed.

    The materialised form of :func:`spec_family`, for Theorem-1
    ensembles: wrap each program in a :class:`repro.sweep.SimJob` to
    sweep it.
    """
    return [
        random_program(spec)
        for spec in spec_family(
            count,
            cells=cells,
            messages=messages,
            max_length=max_length,
            max_span=max_span,
            burst=burst,
            base_seed=base_seed,
        )
    ]
