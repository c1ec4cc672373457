"""Seeded inputs for every workload: programs and the queries over them.

Everything here is a pure function of ``(seed, workload, index)``, so the
same seed always gives the same programs, in the same order, in any
process. Programs come from the repository's own generators
(:func:`random_program`, :func:`hoist_writes`, :func:`inject_read_cycle`);
the mix of variants cycles by index so every seed holds the same
proportions and only the random content changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.arch.routing import default_router
from repro.arch.topology import ExplicitLinear
from repro.core.program import ArrayProgram
from repro.core.requirements import competing_messages
from repro.workloads.random_programs import (
    WorkloadSpec,
    hoist_writes,
    inject_read_cycle,
    random_program,
)

#: The provisioning grid of grid_serial and grid_mp (Sections 7-8):
#: every program runs under each policy, from one queue per link up to
#: a queue-rich 32, at three capacities. Analysis keys depend only on
#: program x capacity, so each program's three keys are reused by all
#: 18 policy x queue combinations and sit well inside the 256-entry LRU.
GRID_POLICIES = ("ordered", "static", "fcfs")
GRID_QUEUES = (1, 2, 4, 8, 16, 32)
GRID_CAPACITIES = (0, 2, 8)

#: The capacity axis ``repro frontier`` searches by default.
FRONTIER_CAPACITIES = (0, 1, 2, 4, 8, 16, 32, 64)

#: analysis_cold program sizes in cells, spread evenly over this range
#: by a golden-ratio sequence that does not depend on the seed (so every
#: seed times the same size mix and op latencies form one continuous
#: distribution). With three messages per cell a program has ~15
#: transfer ops per cell: the columnar auto-threshold
#: (COLUMNAR_AUTO_MIN_OPS = 4096 transfer ops) falls near 273 cells,
#: so about a quarter of these programs run the columnar engine and the
#: rest the interned one.
COLD_CELLS = (60, 340)

#: Every COLD_LARGE_EVERY-th analysis_cold program is large instead,
#: spread over this range by its own golden-ratio sequence, so the
#: columnar engine is also timed well above its threshold. One in
#: sixteen keeps them above the 90th latency percentile, which stays a
#: statistic of the small programs.
COLD_LARGE_CELLS = (800, 1200)
COLD_LARGE_EVERY = 16

#: The queue capacity whose route-derived lookahead analysis_cold checks.
COLD_CAPACITY = 2

VARIANTS = ("free", "hoisted", "read-cycle")


def _rng(seed: int, workload: str, index: int) -> random.Random:
    # String seeds are hashed with SHA-512 by random.seed, so the stream
    # is stable across processes (hash() of a str is salted per process).
    return random.Random(f"perfbench/{workload}/{seed}/{index}")


def _variant(base: ArrayProgram, variant: str, rng: random.Random, swaps: int):
    if variant == "hoisted":
        return hoist_writes(base, swaps=swaps, seed=rng.getrandbits(32))
    if variant == "read-cycle":
        return inject_read_cycle(base, seed=rng.getrandbits(32))
    return base


def grid_program(seed: int, index: int) -> ArrayProgram:
    """Program ``index`` of the grid family: 16 cells, 32 messages."""
    rng = _rng(seed, "grid", index)
    spec = WorkloadSpec(
        cells=16, messages=32, max_length=4, max_span=3, burst=2,
        seed=rng.getrandbits(32),
    )
    return _variant(random_program(spec), VARIANTS[index % 3], rng, swaps=8)


def cold_cells(index: int) -> int:
    """The size of analysis_cold program ``index`` (seed-independent)."""
    if index % COLD_LARGE_EVERY == COLD_LARGE_EVERY - 1:
        low, high = COLD_LARGE_CELLS
        index //= COLD_LARGE_EVERY
    else:
        low, high = COLD_CELLS
    golden = 0.6180339887498949
    return low + int((index * golden) % 1.0 * (high - low))


def cold_program(seed: int, index: int) -> ArrayProgram:
    """Program ``index`` of analysis_cold; variants cycle by index."""
    rng = _rng(seed, "cold", index)
    cells = cold_cells(index)
    spec = WorkloadSpec(
        cells=cells, messages=3 * cells, max_length=4, max_span=3, burst=2,
        seed=rng.getrandbits(32),
    )
    return _variant(random_program(spec), VARIANTS[index % 3], rng, swaps=cells // 4)


@dataclass(frozen=True)
class FrontierInput:
    """One frontier_witness program and its two queue axes.

    ``narrow`` and ``wide`` start at the largest competing-message count
    on any link, the fewest queues the static policy accepts, so every
    line is feasible and its answer depends on buffering alone. ``wide``
    extends ``narrow``: the lines they share are the ones the witness
    store seeds on the second query.
    """

    program: ArrayProgram
    narrow: tuple[int, ...]
    wide: tuple[int, ...]


def frontier_input(seed: int, index: int) -> FrontierInput:
    """Program ``index`` of frontier_witness: 10 write-hoisted cells,
    every third one also carrying a read cycle (frontier nowhere)."""
    rng = _rng(seed, "frontier", index)
    spec = WorkloadSpec(
        cells=10, messages=14, max_length=5, max_span=2, burst=3,
        seed=rng.getrandbits(32),
    )
    program = hoist_writes(random_program(spec), swaps=20, seed=rng.getrandbits(32))
    if index % 3 == 2:
        program = inject_read_cycle(program, seed=rng.getrandbits(32))
    router = default_router(ExplicitLinear(tuple(program.cells)))
    need = max(len(names) for names in competing_messages(program, router).values())
    return FrontierInput(
        program,
        narrow=(need, need + 1),
        wide=(need, need + 1, need + 2, need + 3),
    )
