"""A/B equivalence: interned crossing engine vs the reference oracle.

The production engine in :mod:`repro.core.crossing` is an incremental
readiness-scan algorithm over dense interned ids, one drive loop per
stepping mode; ``tests/reference_crossing.py`` preserves the seed's
name-keyed, op-by-op scanning implementation. These properties pin the
two to bit-identical output — ``steps``, ``crossings`` (full
:class:`PairCrossing` equality, including skipped-write tuples),
``max_skipped``, ``uncrossed`` and the classification — across random
programs, deadlocked mutations, lookahead budgets and both stepping
modes, at three scales:

* the *small* strategy (`specs`) explores shapes densely;
* the *large* strategy (`large_specs`) drives wide cell counts and many
  messages per cell, the regime the interning targets;
* the deterministic *seed corpus* (`SEED_CORPUS`) runs fixed
  hundreds-of-cells programs on every test run, so a scale-dependent
  divergence fails reproducibly (each corpus entry is a plain
  :class:`WorkloadSpec` — replay by constructing it).

``TestPinnedShapes`` pins shapes the random families previously never
produced: cells with empty programs, single-message programs, and
message names whose lexicographic order diverges from declaration and
numeric order (the intern table assigns ids in sorted-name order — these
shapes break if id order ever leaks). The timing-wheel engine gets the
same treatment against the heap-only scheduler, including the
adaptive-horizon path for workloads with op latencies beyond the default
horizon.

Parallel mode gets its own hammer on top of the mode-sampling
properties: the bucketed step engine (readiness bits + nomination scans
+ per-step newly-executable bucket, see ``crossing.py``'s module
docstring) shares no code with the sequential drain, so
``test_large_parallel*`` pin ``mode="parallel"`` over the wide
`large_specs` family and every lookahead budget,
``test_parallel_step_batches_name_ordered`` asserts the step-batch
ordering invariant directly, and ``TestParallelStepBucketShapes`` pins
the structure's edges — an initially empty executable set, one step
that crosses everything, a message entering the bucket mid-run, and
batches whose name order diverges from declaration order.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_crossing import reference_cross_off

from repro import ArrayConfig, Simulator
from repro.core.crossing import (
    COLUMNAR_AUTO_MIN_OPS,
    CrossingState,
    configure_crossing_backend,
    cross_off,
    resolve_backend,
    uniform_lookahead,
)
from repro.core.crossing_np import numpy_available
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.errors import ConfigError, ProgramError
from repro.sim.engine import WHEEL_HORIZON, Engine
from repro.workloads import (
    WorkloadSpec,
    hoist_writes,
    inject_read_cycle,
    random_program,
)

specs = st.builds(
    WorkloadSpec,
    cells=st.integers(min_value=2, max_value=7),
    messages=st.integers(min_value=1, max_value=10),
    max_length=st.integers(min_value=1, max_value=4),
    max_span=st.integers(min_value=1, max_value=3),
    burst=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)

# Wide arrays with many messages per cell: many-digit message names
# ("M10" < "M2" lexicographically) and long lookahead windows, the
# shapes that stress the interned ids and scans rather than the pair
# logic.
large_specs = st.builds(
    WorkloadSpec,
    cells=st.integers(min_value=2, max_value=40),
    messages=st.integers(min_value=1, max_value=80),
    max_length=st.integers(min_value=1, max_value=5),
    max_span=st.integers(min_value=1, max_value=5),
    burst=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)

lookaheads = st.sampled_from([None, 0, 1, 2, 4, math.inf])

modes = st.sampled_from(["parallel", "sequential"])

RELAXED = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

LARGE = settings(
    max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

#: Fixed large programs checked on every run (no hypothesis shrinking at
#: this scale — a failure replays from the spec alone). Modes/lookaheads
#: are chosen per entry to keep the oracle's O(n^2) sequential scans
#: within a few seconds total.
SEED_CORPUS = [
    (
        WorkloadSpec(
            cells=120, messages=360, max_length=3, max_span=3, burst=2, seed=2024
        ),
        "sequential",
        2,
    ),
    (
        WorkloadSpec(
            cells=120, messages=360, max_length=3, max_span=3, burst=2, seed=2024
        ),
        "parallel",
        None,
    ),
    (
        WorkloadSpec(
            cells=250, messages=750, max_length=3, max_span=4, burst=2, seed=7
        ),
        "sequential",
        None,
    ),
    (
        WorkloadSpec(
            cells=250, messages=750, max_length=3, max_span=4, burst=2, seed=7
        ),
        "parallel",
        math.inf,
    ),
    (
        WorkloadSpec(
            cells=400, messages=1200, max_length=3, max_span=3, burst=2, seed=11
        ),
        "parallel",
        2,
    ),
    # Parallel-mode spread across the remaining budget shapes — the
    # bucketed step engine takes different code paths for no-lookahead
    # (front-only windows), zero/small budgets (R2 cutoffs inside the
    # window) and unbounded budgets (windows end only at reads).
    (
        WorkloadSpec(
            cells=120, messages=360, max_length=3, max_span=3, burst=2, seed=2024
        ),
        "parallel",
        0,
    ),
    (
        WorkloadSpec(
            cells=250, messages=750, max_length=3, max_span=4, burst=2, seed=7
        ),
        "parallel",
        1,
    ),
    (
        WorkloadSpec(
            cells=400, messages=1200, max_length=3, max_span=3, burst=2, seed=11
        ),
        "parallel",
        None,
    ),
    (
        WorkloadSpec(
            cells=400, messages=1200, max_length=3, max_span=3, burst=2, seed=11
        ),
        "parallel",
        math.inf,
    ),
]


def assert_identical(program, lookahead, mode):
    """Full-output equality of the two implementations."""
    expected = reference_cross_off(program, lookahead=lookahead, mode=mode)
    got = cross_off(program, lookahead=lookahead, mode=mode)
    assert got.deadlock_free == expected.deadlock_free
    assert got.steps == expected.steps
    assert got.crossings == expected.crossings
    assert got.max_skipped == expected.max_skipped
    assert got.uncrossed == expected.uncrossed
    assert got.lookahead_used == expected.lookahead_used


def _lookahead(program, capacity):
    return None if capacity is None else uniform_lookahead(program, capacity)


@given(specs, lookaheads, modes)
@RELAXED
def test_random_programs_identical(spec, capacity, mode):
    program = random_program(spec)
    assert_identical(program, _lookahead(program, capacity), mode)


@given(specs, lookaheads, modes)
@RELAXED
def test_hoisted_writes_identical(spec, capacity, mode):
    """Hoisting creates programs that exercise the lookahead skip paths."""
    program = hoist_writes(random_program(spec), swaps=4, seed=spec.seed + 1)
    assert_identical(program, _lookahead(program, capacity), mode)


@given(specs, lookaheads, modes)
@RELAXED
def test_deadlocked_programs_identical(spec, capacity, mode):
    """Deadlocked inputs must leave identical uncrossed remainders."""
    program = inject_read_cycle(random_program(spec), seed=spec.seed)
    assert_identical(program, _lookahead(program, capacity), mode)


@given(large_specs, lookaheads, modes)
@LARGE
def test_large_random_programs_identical(spec, capacity, mode):
    """Wide arrays, many messages per cell: the interning target regime."""
    program = random_program(spec)
    assert_identical(program, _lookahead(program, capacity), mode)


@given(large_specs, lookaheads, modes)
@LARGE
def test_large_hoisted_writes_identical(spec, capacity, mode):
    """Large programs driven through the lookahead skip machinery."""
    program = hoist_writes(random_program(spec), swaps=12, seed=spec.seed + 1)
    assert_identical(program, _lookahead(program, capacity), mode)


@given(large_specs, lookaheads)
@LARGE
def test_large_parallel_identical(spec, capacity):
    """Parallel mode pinned: the bucketed step engine vs the oracle.

    The mode-sampling properties above split their examples between the
    two modes; this one spends its whole budget on the engine the PR
    under test rewrote."""
    program = random_program(spec)
    assert_identical(program, _lookahead(program, capacity), "parallel")


@given(large_specs, lookaheads)
@LARGE
def test_large_parallel_hoisted_identical(spec, capacity):
    """Parallel mode through the skip machinery: hoisted writes force
    mid-window candidates, multi-message skipped tuples and R2 cutoffs
    inside the nomination scans."""
    program = hoist_writes(random_program(spec), swaps=12, seed=spec.seed + 3)
    assert_identical(program, _lookahead(program, capacity), "parallel")


@given(large_specs, lookaheads)
@LARGE
def test_large_parallel_deadlocked_identical(spec, capacity):
    """Deadlocked programs in parallel mode: the bucket must dry up at
    exactly the oracle's step, leaving identical uncrossed remainders."""
    program = inject_read_cycle(random_program(spec), seed=spec.seed)
    assert_identical(program, _lookahead(program, capacity), "parallel")


@given(large_specs, lookaheads)
@LARGE
def test_parallel_step_batches_name_ordered(spec, capacity):
    """Every parallel step batch comes out in ascending message-name
    order — the documented contract the sorted bucket drain implements
    (ids are assigned in sorted-name order, so this fails if id order
    ever diverges from name order, or the drain stops sorting)."""
    program = random_program(spec)
    result = cross_off(
        program, lookahead=_lookahead(program, capacity), mode="parallel"
    )
    for step in result.steps:
        names = [pair.message for pair in step]
        assert names == sorted(names)


@pytest.mark.parametrize(
    "spec,mode,capacity",
    SEED_CORPUS,
    ids=[f"{s.cells}c-{m}-cap{c}" for s, m, c in SEED_CORPUS],
)
def test_seed_corpus_identical(spec, mode, capacity):
    """Deterministic hundreds-of-cells programs, replayable from the spec."""
    program = random_program(spec)
    assert_identical(program, _lookahead(program, capacity), mode)


@given(specs)
@RELAXED
def test_sequential_observer_path_identical(spec):
    """Observers on the sequential loop see the oracle's pairs, in order."""
    program = random_program(spec)
    seen_ref: list[str] = []
    seen_inc: list[str] = []
    reference_cross_off(
        program,
        mode="sequential",
        observer=lambda state, pair: seen_ref.append(str(pair)),
    )
    cross_off(
        program,
        mode="sequential",
        observer=lambda state, pair: seen_inc.append(str(pair)),
    )
    assert seen_inc == seen_ref


class TestPaperFigures:
    """Exact-output equality on every figure program of the paper."""

    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    @pytest.mark.parametrize("capacity", [None, 1, 2, math.inf])
    def test_figures_identical(self, mode, capacity):
        from repro.algorithms.figures import all_figures

        for name, program in all_figures().items():
            assert_identical(program, _lookahead(program, capacity), mode)


class TestPinnedShapes:
    """Shapes the random families never produced before this harness.

    Each one is an intern-boundary hazard: ids are assigned per cell and
    per sorted message name, so programs where those orders diverge from
    declaration order — or where cells contribute nothing at all — must
    still match the name-keyed oracle bit for bit.
    """

    ALL_MODES = [("parallel", None), ("parallel", 2), ("sequential", None),
                 ("sequential", 2), ("sequential", math.inf)]

    def _check_all(self, program):
        for mode, capacity in self.ALL_MODES:
            assert_identical(program, _lookahead(program, capacity), mode)

    def test_empty_cells(self):
        """Cells with no operations at all (pass-through / unused cells)."""
        cells = ("C1", "C2", "C3", "C4", "C5")
        messages = [Message("A", "C2", "C4", 2), Message("B", "C4", "C2", 1)]
        programs = {
            "C2": [W("A"), W("A"), R("B")],
            "C4": [R("A"), R("A"), W("B")],
            # C1, C3, C5 stay empty.
        }
        program = ArrayProgram(cells, messages, programs, name="empty-cells")
        self._check_all(program)
        result = cross_off(program)
        assert result.deadlock_free

    def test_single_message_program(self):
        """One message, two cells — the smallest program possible."""
        cells = ("C1", "C2")
        messages = [Message("ONLY", "C1", "C2", 3)]
        programs = {"C1": [W("ONLY")] * 3, "C2": [R("ONLY")] * 3}
        program = ArrayProgram(cells, messages, programs, name="single-message")
        self._check_all(program)

    def test_lexicographic_vs_declaration_order(self):
        """Names whose sorted order differs from declaration *and* numeric
        order: "M10" < "M2" < "M9" lexicographically. Declared M9, M2,
        M10 — if intern ids ever leaked into tie-breaks in declaration
        order, the sequential "lowest name first" choice would diverge."""
        cells = ("C1", "C2", "C3")
        messages = [
            Message("M9", "C1", "C2", 1),
            Message("M2", "C2", "C3", 1),
            Message("M10", "C1", "C2", 1),
        ]
        programs = {
            "C1": [W("M9"), W("M10")],
            "C2": [R("M10"), R("M9"), W("M2")],
            "C3": [R("M2")],
        }
        program = ArrayProgram(cells, messages, programs, name="lex-order")
        self._check_all(program)
        # The first sequential crossing must be the lexicographically
        # smallest executable message — M10, not M9 or M2.
        seq = cross_off(program, lookahead=uniform_lookahead(program, 2),
                        mode="sequential")
        assert seq.crossings[0].message == "M10"

    def test_duplicate_message_names_rejected(self):
        """Duplicate message names across cells must be rejected at
        build time — the intern table's name<->id bijection (and the
        oracle's name keying) both assume global uniqueness, so the
        engines never see such a program."""
        with pytest.raises(ProgramError):
            ArrayProgram(
                ("C1", "C2", "C3"),
                [Message("X", "C1", "C2", 1), Message("X", "C2", "C3", 1)],
                {},
                name="dup-names",
            )


class TestParallelStepBucketShapes:
    """Edges of the bucketed parallel step structure, pinned.

    Each shape targets one invariant of the readiness-bit + bucket
    engine: seeding (nothing executable at all), a bucket that drains
    the entire program in one step, a message whose readiness arises
    only from another crossing's rescan (entering the bucket mid-run),
    and batch ordering when name order diverges from declaration order.
    All of them are also run through the oracle for bit-identity.
    """

    BUDGETS = [None, 0, 1, 2, math.inf]

    def _check_all(self, program):
        for capacity in self.BUDGETS:
            assert_identical(program, _lookahead(program, capacity), "parallel")

    def test_empty_executable_set_at_start(self):
        """A mutual read-before-write knot: the seed scans must push
        nothing, and the run must end at step zero with everything
        uncrossed — deadlock detected without a single step."""
        cells = ("C1", "C2")
        messages = [Message("A", "C1", "C2", 1), Message("B", "C2", "C1", 1)]
        programs = {
            "C1": [R("B"), W("A")],
            "C2": [R("A"), W("B")],
        }
        program = ArrayProgram(cells, messages, programs, name="empty-exec")
        self._check_all(program)
        result = cross_off(program, mode="parallel")
        assert not result.deadlock_free
        assert result.steps == []
        assert result.pairs_crossed == 0
        assert sorted(result.uncrossed) == ["C1", "C2"]

    def test_single_step_crosses_everything(self):
        """Six disjoint pairs, all executable at step 1: the whole
        program is one bucket drain, in name order."""
        cells = tuple(f"C{i}" for i in range(1, 13))
        messages = [
            Message(f"M{i}", f"C{2 * i - 1}", f"C{2 * i}", 1)
            for i in range(1, 7)
        ]
        programs: dict[str, list] = {}
        for i in range(1, 7):
            programs[f"C{2 * i - 1}"] = [W(f"M{i}")]
            programs[f"C{2 * i}"] = [R(f"M{i}")]
        program = ArrayProgram(cells, messages, programs, name="one-step")
        self._check_all(program)
        result = cross_off(program, mode="parallel")
        assert result.deadlock_free
        assert result.step_count == 1
        names = [pair.message for pair in result.steps[0]]
        assert names == sorted(f"M{i}" for i in range(1, 7))

    def test_message_becomes_executable_mid_run(self):
        """B's pair is not locatable at step 1 without lookahead — only
        A's crossing moves C1's front onto W(B), so B enters the bucket
        from the post-step rescan. With a budget of 1, B instead joins
        A's step by skipping A's uncrossed write."""
        cells = ("C1", "C2", "C3")
        messages = [Message("A", "C1", "C2", 1), Message("B", "C1", "C3", 1)]
        programs = {
            "C1": [W("A"), W("B")],
            "C2": [R("A")],
            "C3": [R("B")],
        }
        program = ArrayProgram(cells, messages, programs, name="mid-run")
        self._check_all(program)
        strict = cross_off(program, mode="parallel")
        assert strict.deadlock_free
        assert [len(step) for step in strict.steps] == [1, 1]
        assert [step[0].message for step in strict.steps] == ["A", "B"]
        relaxed = cross_off(
            program, lookahead=uniform_lookahead(program, 1), mode="parallel"
        )
        assert [len(step) for step in relaxed.steps] == [2]
        assert relaxed.steps[0][1].skipped_sender == (("A", 1),)
        assert relaxed.max_skipped["A"] == 1

    def test_lexicographic_vs_declaration_order_parallel(self):
        """Three simultaneously executable messages declared M9, M2,
        M10: the step batch must come out M10 < M2 < M9
        (lexicographic), not in declaration or numeric order."""
        cells = tuple(f"C{i}" for i in range(1, 7))
        messages = [
            Message("M9", "C1", "C2", 1),
            Message("M2", "C3", "C4", 1),
            Message("M10", "C5", "C6", 1),
        ]
        programs = {
            "C1": [W("M9")],
            "C2": [R("M9")],
            "C3": [W("M2")],
            "C4": [R("M2")],
            "C5": [W("M10")],
            "C6": [R("M10")],
        }
        program = ArrayProgram(cells, messages, programs, name="lex-par")
        self._check_all(program)
        result = cross_off(program, mode="parallel")
        assert result.step_count == 1
        assert [pair.message for pair in result.steps[0]] == ["M10", "M2", "M9"]


class TestTimingWheelDeterminism:
    """Timing-wheel engine vs heap-only: byte-identical simulations."""

    def _results(self, program, config=None, registers=None, policy="ordered"):
        out = []
        for fast in (True, False):
            sim = Simulator(
                program, config=config, policy=policy, registers=registers
            )
            sim.engine = Engine(fast_lane=fast)
            out.append(sim.run())
        return out

    def test_fir_identical_assignment_trace(self):
        from repro.algorithms.fir import fir_program, fir_registers

        program = fir_program(8, 16)
        registers = fir_registers(tuple(1.0 for _ in range(8)))
        wheel, heap = self._results(program, registers=registers)
        assert wheel.assignment_trace == heap.assignment_trace
        assert wheel.received == heap.received
        assert wheel.registers == heap.registers
        assert wheel.time == heap.time
        assert wheel.events == heap.events

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_programs_identical_traces(self, seed):
        spec = WorkloadSpec(cells=6, messages=12, max_length=3, seed=seed)
        program = random_program(spec)
        config = ArrayConfig(queues_per_link=8, queue_capacity=2)
        wheel, heap = self._results(program, config=config)
        assert wheel.assignment_trace == heap.assignment_trace
        assert wheel.received == heap.received
        assert wheel.time == heap.time
        assert wheel.events == heap.events

    def test_wheel_lane_actually_used(self):
        engine = Engine()
        engine.after(WHEEL_HORIZON, lambda: None)
        assert engine.pending == 1
        assert not engine._heap  # rode the wheel, not the heap
        engine.after(WHEEL_HORIZON + 1, lambda: None)
        assert len(engine._heap) == 1  # beyond the horizon: overflow

    def test_mixed_delays_fire_in_time_then_scheduling_order(self):
        engine = Engine()
        log: list[tuple[int, str]] = []
        for tag, delay in (
            ("a", 5), ("b", 2), ("c", 5), ("d", 12), ("e", 2), ("f", 0),
        ):
            engine.after(delay, lambda t=tag: log.append((engine.now, t)))
        engine.run()
        assert log == [(0, "f"), (2, "b"), (2, "e"), (5, "a"), (5, "c"), (12, "d")]

    def test_heap_overflow_precedes_wheel_entries_at_same_time(self):
        # An event scheduled far in advance for time t (heap) must fire
        # before one scheduled for t from nearby (wheel): it was
        # scheduled earlier.
        engine = Engine()
        log: list[str] = []
        engine.at(20, lambda: log.append("far"))  # beyond horizon -> heap
        engine.at(
            20 - WHEEL_HORIZON,
            lambda: engine.after(WHEEL_HORIZON, lambda: log.append("near")),
        )
        engine.run()
        assert log == ["far", "near"]

    def test_max_time_leaves_wheel_event_pending(self):
        from repro.sim.engine import StopReason

        engine = Engine()
        engine.after(4, lambda: None)
        assert engine.run(max_time=3) is StopReason.MAX_TIME
        assert engine.pending == 1
        assert engine.run() is StopReason.QUIESCENT
        assert engine.pending == 0

    def test_max_events_mid_bucket_resumes_cleanly(self):
        from repro.sim.engine import StopReason

        engine = Engine()
        log: list[int] = []
        for i in range(4):
            engine.after(2, lambda i=i: log.append(i))
        assert engine.run(max_events=2) is StopReason.MAX_EVENTS
        assert log == [0, 1]
        assert engine.run() is StopReason.QUIESCENT
        assert log == [0, 1, 2, 3]

    @staticmethod
    def _slow_ops_program(seed: int, cycles: int) -> ArrayProgram:
        """A random program whose every R/W op takes ``cycles`` cycles."""
        base = random_program(
            WorkloadSpec(cells=5, messages=10, max_length=3, seed=seed)
        )
        slowed = {
            cell: [
                replace(op, cycles=cycles)
                for op in base.cell_programs[cell].ops
            ]
            for cell in base.cells
        }
        return ArrayProgram(
            base.cells, base.messages.values(), slowed,
            name=f"{base.name}-cycles{cycles}",
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_latency_ops_identical_traces(self, seed):
        """cycles > WHEEL_HORIZON workloads: the adaptive horizon must be
        byte-identical to both the heap-only engine and a wheel pinned at
        the default horizon (where every op overflows to the heap)."""
        cycles = WHEEL_HORIZON + 12
        program = self._slow_ops_program(seed, cycles)
        config = ArrayConfig(queues_per_link=8, queue_capacity=2)
        results = []
        for engine in (None, Engine(fast_lane=False), Engine(horizon=WHEEL_HORIZON)):
            sim = Simulator(program, config=config)
            if engine is None:
                # Default build: the horizon auto-sizes past the op latency.
                assert sim.engine.wheel_horizon >= cycles + config.op_latency
            else:
                sim.engine = engine
            results.append(sim.run())
        adaptive, heap_only, fixed8 = results
        for other in (heap_only, fixed8):
            assert adaptive.assignment_trace == other.assignment_trace
            assert adaptive.received == other.received
            assert adaptive.time == other.time
            assert adaptive.events == other.events

    def test_adaptive_horizon_rides_wheel_for_long_delays(self):
        engine = Engine(horizon=32)
        engine.after(20, lambda: None)
        assert engine.pending == 1
        assert not engine._heap  # rode the (resized) wheel
        default = Engine()
        default.after(20, lambda: None)
        assert len(default._heap) == 1  # default horizon: heap overflow


# ---------------------------------------------------------------------------
# Columnar backend: interned/columnar A/B axis, pinned edges, machinery
# ---------------------------------------------------------------------------

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="columnar backend needs numpy"
)


def assert_backends_identical(program, lookahead, mode):
    """Field-for-field equality of the two backends on one input.

    Complements :func:`assert_identical` (each backend vs the oracle):
    this axis runs the interned and columnar engines head to head, so a
    shared misreading of the paper in both engine and oracle cannot
    hide a backend divergence (and vice versa).
    """
    a = cross_off(program, lookahead=lookahead, mode=mode, backend="interned")
    b = cross_off(program, lookahead=lookahead, mode=mode, backend="columnar")
    assert b.deadlock_free == a.deadlock_free
    assert b.steps == a.steps
    assert b.crossings == a.crossings
    assert b.max_skipped == a.max_skipped
    assert b.uncrossed == a.uncrossed
    assert b.lookahead_used == a.lookahead_used


@requires_numpy
@given(specs, lookaheads, modes)
@RELAXED
def test_backend_ab_random_identical(spec, capacity, mode):
    program = random_program(spec)
    assert_backends_identical(program, _lookahead(program, capacity), mode)


@requires_numpy
@given(specs, lookaheads, modes)
@RELAXED
def test_backend_ab_deadlocked_identical(spec, capacity, mode):
    program = inject_read_cycle(random_program(spec), seed=spec.seed)
    assert_backends_identical(program, _lookahead(program, capacity), mode)


@requires_numpy
@given(large_specs, lookaheads, modes)
@LARGE
def test_backend_ab_large_identical(spec, capacity, mode):
    """The columnar target regime, with hoisting for skip pressure."""
    program = hoist_writes(random_program(spec), swaps=12, seed=spec.seed + 5)
    assert_backends_identical(program, _lookahead(program, capacity), mode)


@requires_numpy
@pytest.mark.parametrize(
    "spec,mode,capacity",
    SEED_CORPUS,
    ids=[f"{s.cells}c-{m}-cap{c}" for s, m, c in SEED_CORPUS],
)
def test_seed_corpus_backend_ab(spec, mode, capacity):
    program = random_program(spec)
    assert_backends_identical(program, _lookahead(program, capacity), mode)


@requires_numpy
class TestColumnarEdges:
    """Pinned shapes for the columnar kernels' boundary paths."""

    ALL_MODES = [("parallel", None), ("parallel", 2), ("sequential", None),
                 ("sequential", 2), ("sequential", math.inf)]

    def _check_all(self, program):
        for mode, capacity in self.ALL_MODES:
            lookahead = _lookahead(program, capacity)
            assert_identical(program, lookahead, mode)
            assert_backends_identical(program, lookahead, mode)

    def test_empty_program(self):
        """No messages at all: the kernels' zero-size guards."""
        program = ArrayProgram(("C1", "C2"), [], {}, name="empty")
        self._check_all(program)
        result = cross_off(program, backend="columnar")
        assert result.deadlock_free
        assert result.crossings == []
        assert result.uncrossed == {}

    def test_single_message(self):
        cells = ("C1", "C2")
        messages = [Message("ONLY", "C1", "C2", 3)]
        programs = {"C1": [W("ONLY")] * 3, "C2": [R("ONLY")] * 3}
        self._check_all(
            ArrayProgram(cells, messages, programs, name="single-message")
        )

    def test_empty_cells_and_skips(self):
        """Unused cells plus a hoisted write exercising nonzero skips."""
        cells = ("C1", "C2", "C3", "C4")
        messages = [
            Message("A", "C2", "C3", 2),
            Message("B", "C2", "C3", 1),
        ]
        programs = {
            "C2": [W("A"), W("B"), W("A")],
            "C3": [R("B"), R("A"), R("A")],
        }
        self._check_all(
            ArrayProgram(cells, messages, programs, name="skip-edges")
        )

    def test_auto_threshold_boundary(self):
        """``auto`` flips to columnar exactly at COLUMNAR_AUTO_MIN_OPS."""
        spec = WorkloadSpec(
            cells=6, messages=8, max_length=3, max_span=3, burst=2, seed=3
        )
        small = random_program(spec)
        assert small.total_transfer_ops < COLUMNAR_AUTO_MIN_OPS
        assert resolve_backend(small) == "interned"
        assert resolve_backend(small, "columnar") == "columnar"
        length = COLUMNAR_AUTO_MIN_OPS // 2
        at = ArrayProgram(
            ("C1", "C2"),
            [Message("M", "C1", "C2", length)],
            {"C1": [W("M")] * length, "C2": [R("M")] * length},
            name="at-threshold",
        )
        assert at.total_transfer_ops == COLUMNAR_AUTO_MIN_OPS
        assert resolve_backend(at) == "columnar"
        under = ArrayProgram(
            ("C1", "C2"),
            [Message("M", "C1", "C2", length - 1)],
            {"C1": [W("M")] * (length - 1), "C2": [R("M")] * (length - 1)},
            name="under-threshold",
        )
        assert under.total_transfer_ops == COLUMNAR_AUTO_MIN_OPS - 2
        assert resolve_backend(under) == "interned"
        # Both resolutions produce identical output either way.
        self._check_all(at)


class TestBackendMachinery:
    """Resolution order and configuration knobs, backend-independent."""

    def test_configure_returns_previous_and_restores(self):
        previous = configure_crossing_backend("interned")
        try:
            assert configure_crossing_backend(None) == "interned"
        finally:
            configure_crossing_backend(previous)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            configure_crossing_backend("vectorized")
        program = ArrayProgram(("C1",), [], {}, name="tiny")
        with pytest.raises(ConfigError):
            resolve_backend(program, "vectorized")

    def test_env_var_resolution(self, monkeypatch):
        program = ArrayProgram(("C1",), [], {}, name="tiny")
        monkeypatch.setenv("REPRO_CROSSING_BACKEND", "interned")
        assert resolve_backend(program) == "interned"
        # Explicit argument and configured preference both win over env.
        previous = configure_crossing_backend("auto")
        try:
            assert resolve_backend(program) == resolve_backend(program, "auto")
        finally:
            configure_crossing_backend(previous)

    def test_explicit_columnar_without_numpy_errors(self):
        program = ArrayProgram(("C1",), [], {}, name="tiny")
        if numpy_available():
            assert resolve_backend(program, "columnar") == "columnar"
        else:
            with pytest.raises(ConfigError):
                resolve_backend(program, "columnar")
            # auto stays a silent fallback.
            assert resolve_backend(program) == "interned"
            assert cross_off(program).deadlock_free

    def test_crossing_state_resolves_engine(self):
        cells = ("C1", "C2")
        messages = [Message("M", "C1", "C2", 1)]
        programs = {"C1": [W("M")], "C2": [R("M")]}
        program = ArrayProgram(cells, messages, programs, name="state")
        state = CrossingState(program, engine="interned")
        assert state.engine == "interned"
        small_auto = CrossingState(program)
        assert small_auto.engine == "interned"  # under the auto threshold
        if numpy_available():
            assert CrossingState(program, engine="columnar").engine == "columnar"
