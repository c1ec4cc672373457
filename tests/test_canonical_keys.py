"""Canonical job keys and the sweep runner's row memo.

In the paper's queue model a message takes at most one queue on a link
and a queue carries one message at a time (Sections 2.3 and 7), so
queues beyond a link's competing count are never taken and a capacity of
at least the longest message never blocks a push or binds rule R2.
:func:`~repro.sweep.jobs.canonical_key` clamps both, and jobs with equal
keys must give the same summary row up to its ``index``, ``queues`` and
``capacity`` columns. These tests pin that claim (on the golden corpus
and over generated programs) and the row memo built on it
(:class:`~repro.sweep.backends.RowMemo`): every backend's rows stay
equal to plain simulations, errors are never served, and mining sees
every deadlock.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ArrayConfig, Simulator
from repro.algorithms.figures import fig7_program
from repro.arch.config import CommModel
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.errors import ConfigError, ReproError
from repro.sweep import (
    BatchError,
    SimJob,
    SweepPlan,
    SweepSession,
    summarize_result,
    sweep_jobs,
)
from repro.sweep.backends import RowMemo, run_record
from repro.sweep.jobs import canonical_key, program_shape
from repro.witness import DeadlockWitness, WitnessStore
from repro.workloads import (
    WorkloadSpec,
    hoist_writes,
    inject_read_cycle,
    random_program,
)
from test_golden_outputs import _sim_jobs

POLICIES = ("ordered", "static", "fcfs")


def simulated_row(index: int, job: SimJob):
    """``job``'s row from a plain run: no memo, no sweep machinery."""
    try:
        result = Simulator(
            job.program,
            config=job.config,
            policy=job.policy,
            registers=job.registers,
            strict=job.strict,
        ).run(max_events=job.max_events, max_time=job.max_time)
    except ReproError as exc:
        result = BatchError(kind=type(exc).__name__, error=str(exc))
    return summarize_result(index, job, result)


def restamp(row, index: int, job: SimJob):
    """``row`` as the memo serves it to ``job`` at ``index``."""
    config = job.config or ArrayConfig()
    return dataclasses.replace(
        row,
        index=index,
        queues=config.queues_per_link,
        capacity=config.queue_capacity,
    )


def key_of(job: SimJob) -> tuple:
    return canonical_key(job, program_shape(job.program))


def representative(job: SimJob) -> SimJob:
    """``job`` with every link's queues and the capacity clamped."""
    shape = program_shape(job.program)
    config = job.config or ArrayConfig()
    overrides = {}
    if config.link_queue_overrides:
        overrides = {
            link: min(config.queues_on(link), count)
            for link, count in shape.links
        }
    canonical = config.with_(
        queues_per_link=max(1, min(config.queues_per_link, shape.widest)),
        queue_capacity=min(config.queue_capacity, shape.longest),
        link_queue_overrides=overrides,
    )
    return dataclasses.replace(job, config=canonical)


def cross_read() -> ArrayProgram:
    """Two cells that each read before writing: deadlocks at any capacity."""
    msgs = [Message("M0", "A", "B", 1), Message("M1", "B", "A", 1)]
    progs = {
        "A": [R("M1", into="x"), W("M0", constant=1.0)],
        "B": [R("M0", into="y"), W("M1", constant=2.0)],
    }
    return ArrayProgram(["A", "B"], msgs, progs)


# ----------------------------------------------------------------------
# The key itself
# ----------------------------------------------------------------------


def test_golden_jobs_equal_their_canonical_representatives():
    """Each golden job's row is its representative's row, re-stamped."""
    clamped = 0
    for index, (job_id, program, registers, config, policy, strict) in enumerate(
        _sim_jobs()
    ):
        job = SimJob(
            program, config=config, policy=policy, registers=registers, strict=strict
        )
        rep = representative(job)
        assert key_of(rep) == key_of(job), job_id
        clamped += rep.config != job.config
        served = restamp(simulated_row(0, rep), index, job)
        assert served == simulated_row(index, job), job_id
    assert index == 383
    assert clamped > 100  # the corpus exercises both clamps


def test_golden_corpus_streams_through_the_memo_unchanged():
    """One serial stream of all 384 golden jobs, plain and override
    configs of a program mixed in one memo, equals plain simulations."""
    jobs = [
        SimJob(program, config=config, policy=policy, registers=registers, strict=strict)
        for _id, program, registers, config, policy, strict in _sim_jobs()
    ]
    rows, session = stream(jobs)
    assert rows == [simulated_row(i, job) for i, job in enumerate(jobs)]
    assert session.memo_hits == expected_memo_hits(jobs, rows) > 0


def test_key_clamps_queues_and_capacity_to_the_program():
    program = fig7_program()  # widest competing set 2, longest message 4
    shape = program_shape(program)
    assert (shape.widest, shape.longest) == (2, 4)

    def key(queues, capacity, **fields):
        config = ArrayConfig(queues_per_link=queues, queue_capacity=capacity, **fields)
        return canonical_key(SimJob(program, config=config), shape)

    assert key(2, 4) == key(7, 9) == key_of(
        SimJob(program, config=ArrayConfig(queues_per_link=5, queue_capacity=4))
    )
    assert key(1, 4) != key(2, 4)
    assert key(2, 3) != key(2, 4)
    assert key(2, 4) != key(2, 4, hop_latency=2)
    assert key(2, 4) != key(2, 4, allow_extension=True)
    # A job with no config keys as the default config.
    assert key_of(SimJob(program)) == key(1, 0)


def test_shape_is_memoized_on_the_program_and_travels_with_it(monkeypatch):
    import pickle

    from repro.perf.analysis_cache import GLOBAL_ANALYSIS_CACHE

    program = fig7_program()
    shape = program_shape(program)
    clone = pickle.loads(pickle.dumps(program))

    def no_lookup(*_args, **_kwargs):
        raise AssertionError("a memoized shape needs no analysis lookup")

    monkeypatch.setattr(GLOBAL_ANALYSIS_CACHE, "lookup", no_lookup)
    # The competing table does not depend on the config: any config
    # returns the memoized shape.
    assert program_shape(program, ArrayConfig(queue_capacity=9)) is shape
    assert program_shape(clone) == shape


def _override_config(shape, draw_counts, queues, capacity, base):
    overrides = {link: n for (link, _count), n in zip(shape.links, draw_counts) if n}
    return ArrayConfig(
        queues_per_link=queues,
        queue_capacity=capacity,
        link_queue_overrides=overrides,
        **base,
    )


@st.composite
def key_families(draw):
    """One generated program and a family of jobs varying queues and
    capacity around both saturation points, under one set of other
    fields (extension, memory-to-memory, latencies, strict, a small
    event budget); half the families add per-link override configs
    beside the plain ones."""
    spec = draw(
        st.builds(
            WorkloadSpec,
            cells=st.integers(min_value=2, max_value=6),
            messages=st.integers(min_value=1, max_value=8),
            max_length=st.integers(min_value=1, max_value=4),
            max_span=st.integers(min_value=1, max_value=3),
            burst=st.integers(min_value=1, max_value=3),
            seed=st.integers(min_value=0, max_value=10_000),
        )
    )
    program = random_program(spec)
    variant = draw(st.sampled_from(("free", "hoisted", "read-cycle")))
    if variant == "hoisted":
        program = hoist_writes(program, swaps=3, seed=spec.seed)
    elif variant == "read-cycle":
        program = inject_read_cycle(program, seed=spec.seed)
    base = dict(
        hop_latency=draw(st.sampled_from((1, 2))),
        op_latency=draw(st.sampled_from((1, 2))),
        allow_extension=draw(st.booleans()),
        comm_model=draw(st.sampled_from(tuple(CommModel))),
    )
    policy = draw(st.sampled_from(POLICIES))
    strict = draw(st.booleans())
    max_events = draw(st.sampled_from((5_000_000, 60)))
    shape = program_shape(program)
    override_counts = None
    if draw(st.booleans()):
        override_counts = [
            draw(st.integers(min_value=0, max_value=count + 1))
            for _link, count in shape.links
        ]
    configs = []
    for queues in range(1, shape.widest + 3):
        for capacity in sorted({0, 1, shape.longest - 1, shape.longest, shape.longest + 2}):
            configs.append(
                ArrayConfig(queues_per_link=queues, queue_capacity=capacity, **base)
            )
            if override_counts is not None:
                configs.append(
                    _override_config(shape, override_counts, queues, capacity, base)
                )
    jobs = [
        SimJob(
            program,
            config=config,
            policy=policy,
            strict=strict,
            max_events=max_events,
        )
        for config in configs
    ]
    return shape, jobs


@given(key_families())
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_equal_keys_give_equal_rows(family):
    """Equal keys give equal re-stamped rows (errors included); distinct
    unsaturated queue counts give distinct keys."""
    shape, jobs = family
    first: dict[tuple, tuple[SimJob, object]] = {}
    for index, job in enumerate(jobs):
        key = canonical_key(job, shape)
        row = simulated_row(index, job)
        if key in first:
            rep_job, rep_row = first[key]
            assert restamp(rep_row, index, job) == row, (job.config, rep_job.config)
        else:
            first[key] = (job, row)
    for a, b in itertools.combinations(jobs, 2):
        config_a, config_b = a.config, b.config
        if (
            not config_a.link_queue_overrides
            and config_a.queue_capacity == config_b.queue_capacity
            and config_a.queues_per_link != config_b.queues_per_link
            and min(config_a.queues_per_link, config_b.queues_per_link) < shape.widest
        ):
            assert canonical_key(a, shape) != canonical_key(b, shape)


# ----------------------------------------------------------------------
# The row memo
# ----------------------------------------------------------------------


def saturated_grid() -> list[SimJob]:
    """fig7 (widest 2, longest 4) under every policy at saturated queues
    and capacities, plus one unsaturated queue count whose static
    corners raise, each job listed twice."""
    return sweep_jobs(
        fig7_program(),
        policies=POLICIES,
        queues=(1, 2, 3, 5),
        capacities=(0, 4, 6),
        repeat=2,
    )


def expected_memo_hits(jobs, rows) -> int:
    """Jobs whose key repeats an earlier non-error job of their program."""
    seen: set[tuple] = set()
    hits = 0
    for job, row in zip(jobs, rows):
        key = key_of(job)
        if key in seen:
            hits += 1
        elif row.error_kind is None:
            seen.add(key)
    return hits


def stream(jobs, **plan):
    session = SweepSession(SweepPlan(jobs=jobs, **plan))
    return list(session.stream()), session


BACKENDS = [
    ("serial", {}),
    ("pool", {"workers": 2, "chunk_size": 7}),
    ("shm", {"workers": 2, "chunk_size": 7}),
    ("pool", {"workers": 2, "chunk_size": 7, "max_retries": 1}),
    ("shm", {"workers": 2, "chunk_size": 7, "max_retries": 1}),
]
BACKEND_IDS = ("serial", "pool", "shm", "supervised-pool", "supervised-shm")


@pytest.mark.parametrize("backend,knobs", BACKENDS, ids=BACKEND_IDS)
def test_memo_rows_equal_plain_simulations_on_every_backend(backend, knobs):
    jobs = saturated_grid()
    expected = [simulated_row(i, job) for i, job in enumerate(jobs)]
    rows, session = stream(jobs, backend=backend, **knobs)
    assert rows == expected
    assert any(row.error_kind for row in rows)
    # Every backend's memo serves repeats; how many depends on chunking.
    assert session.memo_hits > 0


def test_serial_memo_hits_are_exactly_the_repeated_keys():
    jobs = saturated_grid()
    rows, session = stream(jobs)
    hits = expected_memo_hits(jobs, rows)
    assert session.memo_hits == hits
    # 72 jobs make 12 distinct runs. The 6 static q=1 jobs raise, so
    # the 4 of them that repeat a key run again: 72 - 12 - 4 hits.
    assert sum(row.error_kind is not None for row in rows) == 6
    assert (len(jobs), hits) == (72, 56)


def test_full_result_runs_bypass_the_memo():
    jobs = saturated_grid()[:12]
    session = SweepSession(SweepPlan(jobs=jobs))
    outcome = session.run()
    assert session.memo_hits == 0
    assert outcome.rows == [simulated_row(i, job) for i, job in enumerate(jobs)]


def test_error_rows_are_never_served():
    """A job whose representative raised runs again and raises itself."""
    job = SimJob(
        fig7_program(), config=ArrayConfig(queues_per_link=1), policy="static"
    )
    memo = RowMemo()
    first = run_record(
        0, job, want_result=False, collect_errors=True, mine=False, memo=memo
    )
    assert first.row.error_kind == "ConfigError"
    assert not memo.rows
    with pytest.raises(ConfigError):
        run_record(
            1, job, want_result=False, collect_errors=False, mine=False, memo=memo
        )
    rows, session = stream([job, job], on_error="collect")
    assert [row.error_kind for row in rows] == ["ConfigError"] * 2
    assert session.memo_hits == 0
    with pytest.raises(ConfigError):
        stream([job, job], on_error="raise")


def test_memo_forgets_the_previous_program():
    memo = RowMemo()
    fig7 = SimJob(fig7_program(), config=ArrayConfig(queues_per_link=2))
    other = SimJob(cross_read(), config=ArrayConfig(queues_per_link=2))
    for index, job in enumerate((fig7, other, fig7)):
        record = run_record(
            index, job, want_result=False, collect_errors=True, mine=False, memo=memo
        )
        assert not record.memo_hit
    assert list(memo.rows) == [key_of(fig7)]


def mining_grid() -> list[SimJob]:
    """A program that deadlocks everywhere and one that completes at
    saturated static queues, capacities descending (the first mined
    certificate of each line then subsumes the rest on every backend)."""
    jobs = []
    for program in (cross_read(), fig7_program()):
        jobs += sweep_jobs(
            program,
            policies=("static",),
            queues=(2, 3),
            capacities=(6, 4, 0),
            repeat=2,
        )
    return jobs


@pytest.mark.parametrize("backend,knobs", BACKENDS[:3], ids=BACKEND_IDS[:3])
def test_mining_sees_every_deadlock(backend, knobs):
    """While mining, deadlocked rows are simulated (a certificate's scope
    carries the job's own queue count), so every backend's store equals
    the memo-free serial store; completed rows are still served."""
    jobs = mining_grid()
    expected = [simulated_row(i, job) for i, job in enumerate(jobs)]
    reference = WitnessStore()
    for index, job in enumerate(jobs):
        if reference.find(job) is None:
            record = run_record(
                index, job, want_result=False, collect_errors=True, mine=True
            )
            if record.witness is not None:
                reference.add(DeadlockWitness.from_dict(record.witness))
    store = WitnessStore()
    rows, session = stream(jobs, backend=backend, witness_store=store, **knobs)
    assert rows == expected
    dump = lambda s: [w.as_dict() for w in s.witnesses()]
    assert dump(store) == dump(reference)
    assert len(store) == 2  # one per queue count of the deadlocking line
    if backend == "serial":
        # fig7's 12 completed rows make 2 distinct runs; the deadlocked
        # rows are pruned or simulated, never served.
        assert sum(row.completed for row in rows) == 12
        assert session.memo_hits == 10
    else:
        assert session.memo_hits > 0
