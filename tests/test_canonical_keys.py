"""Canonical job keys and the sweep runner's row memo.

In the paper's queue model a message takes at most one queue on a link
and a queue carries one message at a time (Sections 2.3 and 7), so
queues beyond a link's competing count are never taken and a capacity of
at least the longest message never blocks a push or binds rule R2. With
a queue per competing message no request waits, so FCFS performs the
static run. :func:`~repro.sweep.jobs.canonical_key` clamps both counts
and folds that FCFS case into the static key, and jobs with equal keys
must give the same summary row up to its ``index``, ``policy``,
``queues`` and ``capacity`` columns. These tests pin that claim (on the
golden corpus and over generated programs, re-declared in other message
orders too) and the row memo built on it
(:class:`~repro.sweep.backends.RowMemo`): every backend's rows stay
equal to plain simulations, errors are never served, mining sees every
deadlock, and a program that re-declares its messages in another order
is never served the original's rows.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ArrayConfig, Simulator
from repro.algorithms.figures import fig7_program
from repro.arch.config import CommModel
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.errors import ReproError
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
        policy=job.policy,
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


def redeclared(program: ArrayProgram, order) -> ArrayProgram:
    """``program`` with its messages declared in ``order``."""
    return ArrayProgram(
        program.cells,
        [program.messages[name] for name in order],
        {cell: program.cell_programs[cell].ops for cell in program.cells},
        name=program.name,
    )


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
    assert index == 539
    assert clamped > 100  # the corpus exercises both clamps


def test_golden_corpus_streams_through_the_memo_unchanged():
    """One serial stream of all 540 golden jobs, plain and override
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


def test_fcfs_with_a_queue_per_competing_message_keys_as_static():
    program = fig7_program()  # widest competing set 2
    shape = program_shape(program)

    def key(policy, queues, **fields):
        config = ArrayConfig(queues_per_link=queues, **fields)
        return canonical_key(SimJob(program, config=config, policy=policy), shape)

    assert key("fcfs", 2) == key("fcfs", 7) == key("static", 2)
    assert key("fcfs", 1) != key("static", 1)
    assert key("fcfs", 1) != key("static", 2)
    # The ordered policy holds free queues back for the lowest label
    # group, so it never folds.
    assert key("ordered", 2) != key("static", 2)
    # With overrides the fold needs every link at its competing count.
    full = dict(shape.links)
    assert key("fcfs", 1, link_queue_overrides=full) == key(
        "static", 1, link_queue_overrides=full
    )
    short = dict(full)
    short[next(link for link, count in full.items() if count == 2)] = 1
    assert key("fcfs", 5, link_queue_overrides=short) != key(
        "static", 5, link_queue_overrides=short
    )


def test_shape_is_computed_once_per_entry_and_shared_by_copies(monkeypatch):
    import pickle

    from repro.perf.analysis_cache import GLOBAL_ANALYSIS_CACHE, default_entry

    program = fig7_program()
    shape = program_shape(program)
    assert default_entry(program).shape is shape
    # A pickled copy has the program's fingerprint, so it reads the same
    # entry and gets the same shape object.
    clone = pickle.loads(pickle.dumps(program))
    assert program_shape(clone) is shape

    lookups = []
    lookup = GLOBAL_ANALYSIS_CACHE.lookup

    def counted(*args, **kwargs):
        lookups.append(args[0])
        return lookup(*args, **kwargs)

    monkeypatch.setattr(GLOBAL_ANALYSIS_CACHE, "lookup", counted)
    memo = RowMemo()
    jobs = sweep_jobs(
        program, policies=POLICIES, queues=(1, 2, 3), capacities=(0, 4, 9)
    )
    keys = [memo.key(job) for job in jobs]
    # The memo reads the shape on its program switch; keying a job makes
    # no lookup of its own.
    assert memo.shape is shape
    assert lookups == [program]
    assert keys == [canonical_key(job, shape) for job in jobs]


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
    beside the plain ones. A family runs either the ordered policy or
    both static and FCFS, so FCFS jobs with a queue per competing
    message meet the static jobs whose key they share. Half the
    families also list every job again for the program re-declared in a
    drawn message order: the order same-cycle requests are issued in can
    change an FCFS run, so each job is keyed with its own program's
    shape."""
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
    policies = draw(st.sampled_from((("ordered",), ("static", "fcfs"))))
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
        for policy in policies
    ]
    if draw(st.booleans()):
        order = draw(st.permutations(list(program.messages)))
        other = redeclared(program, order)
        jobs += [dataclasses.replace(job, program=other) for job in jobs]
    return jobs


def order_sensitive_family() -> list[SimJob]:
    """A family the property always checks, since few generated ones
    are order-sensitive: FCFS at one queue per link completes this
    program as declared and deadlocks it with its messages declared in
    reverse."""
    program = random_program(
        WorkloadSpec(cells=4, messages=3, max_length=2, max_span=2, burst=2, seed=52)
    )
    reverse = redeclared(program, list(program.messages)[::-1])
    return [
        SimJob(each, config=ArrayConfig(queues_per_link=1), policy=policy)
        for each in (program, reverse)
        for policy in ("static", "fcfs")
    ]


@given(key_families())
@example(order_sensitive_family())
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_equal_keys_give_equal_rows(jobs):
    """Equal keys give equal re-stamped rows (errors included), across
    declaration orders too; distinct unsaturated queue counts give
    distinct keys."""
    shape = program_shape(jobs[0].program)
    first: dict[tuple, tuple[SimJob, object]] = {}
    for index, job in enumerate(jobs):
        key = key_of(job)
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
            assert key_of(a) != key_of(b)


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
    ("pool", {"workers": 2, "chunk_size": 7, "max_retries": 1}),
]
BACKEND_IDS = ("serial", "pool", "supervised-pool")


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
    # Each policy clamps to 2 queue counts x 2 capacities: 12 keys. At
    # q >= 2 (fig7's widest count) FCFS keys as static, so 72 jobs make
    # 10 distinct runs. The 6 static q=1 jobs raise, so the 4 of them
    # that repeat a key run again: 72 - 10 - 4 hits.
    assert sum(row.error_kind is not None for row in rows) == 6
    assert (len(jobs), hits) == (72, 58)


def test_error_rows_are_never_served():
    """A job whose representative raised runs again and raises itself."""
    job = SimJob(
        fig7_program(), config=ArrayConfig(queues_per_link=1), policy="static"
    )
    memo = RowMemo()
    for index in (0, 1):
        record = run_record(index, job, mine=False, memo=memo)
        assert record.row.error_kind == "ConfigError"
        assert not record.memo_hit
        assert not memo.rows
    rows, session = stream([job, job])
    assert [row.error_kind for row in rows] == ["ConfigError"] * 2
    assert session.memo_hits == 0


def test_memo_forgets_the_previous_program():
    memo = RowMemo()
    fig7 = SimJob(fig7_program(), config=ArrayConfig(queues_per_link=2))
    other = SimJob(cross_read(), config=ArrayConfig(queues_per_link=2))
    for index, job in enumerate((fig7, other, fig7)):
        record = run_record(index, job, mine=False, memo=memo)
        assert not record.memo_hit
    assert list(memo.rows) == [key_of(fig7)]


#: A program whose FCFS run at one queue per link deadlocks as declared
#: and completes with its messages declared in reverse order: which
#: competing message asks for the one queue first decides the run.
ORDER_SENSITIVE = WorkloadSpec(cells=8, messages=12, max_length=3, seed=68)


@pytest.mark.parametrize(
    "backend,knobs",
    [
        ("serial", {}),
        ("pool", {"workers": 2, "chunk_size": 2}),
        ("pool", {"workers": 2, "chunk_size": 1}),
    ],
    ids=("serial", "pool-one-chunk", "pool-two-chunks"),
)
def test_redeclared_program_is_never_served_the_original_row(backend, knobs):
    first = random_program(ORDER_SENSITIVE)
    second = redeclared(first, list(first.messages)[::-1])
    assert first.fingerprint != second.fingerprint
    jobs = [
        SimJob(program, config=ArrayConfig(queues_per_link=1), policy="fcfs")
        for program in (first, second)
    ]
    expected = [summarize_result(i, job, job.run()) for i, job in enumerate(jobs)]
    assert [row.outcome for row in expected] == ["deadlock", "completed"]
    rows, session = stream(jobs, backend=backend, **knobs)
    assert rows == expected
    assert session.memo_hits == 0


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


@pytest.mark.parametrize("backend,knobs", BACKENDS[:2], ids=BACKEND_IDS[:2])
def test_mining_sees_every_deadlock(backend, knobs):
    """While mining, deadlocked rows are simulated (a certificate's scope
    carries the job's own queue count), so every backend's store equals
    the memo-free serial store; completed rows are still served."""
    jobs = mining_grid()
    expected = [simulated_row(i, job) for i, job in enumerate(jobs)]
    reference = WitnessStore()
    for index, job in enumerate(jobs):
        if reference.find(job) is None:
            record = run_record(index, job, mine=True)
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
