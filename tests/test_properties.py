"""Property-based tests (hypothesis) over the core invariants.

These are the paper's claims stated as universally quantified properties
and hammered over the random-program family:

* generated programs are always deadlock-free (crossing-off completes);
* the constraint labeling is always consistent;
* Theorem 1: deadlock-free + consistent labeling + compatible assignment
  + assumption (ii) => the simulated run completes;
* crossing-off classification agrees with unbuffered run-time behaviour
  (confluence: a deadlocked program deadlocks under every policy);
* lookahead monotonicity: more buffering never un-classifies a program;
* the two halves agree exactly: with a queue per competing message, the
  crossing-off verdict under the simulator's own buffering
  (``simulator_capacities``) is deadlock-free exactly when the static
  run completes, and one crossing-off pass (``least_capacity``) finds
  the least capacity whose verdict is, because a parallel run resumed
  at raised budgets ends where a fresh run ends;
* with a queue per competing message, FCFS performs the static run:
  every row field but the policy agrees;
* parser/printer round-trips preserve transfer sequences.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (
    ArrayConfig,
    constraint_labeling,
    cross_off,
    is_consistent,
    is_deadlock_free,
    simulate,
    uniform_lookahead,
    verify_theorem1,
)
from repro.arch.routing import default_router
from repro.arch.topology import ExplicitLinear
from repro.core.crossing import (
    CrossingState,
    LookaheadConfig,
    _run_parallel_fast,
    least_capacity,
    simulator_capacities,
)
from repro.core.requirements import dynamic_queue_demand, static_queue_demand
from repro.lang import parse_program, print_program
from repro.sweep import SimJob, summarize_result
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

RELAXED = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


@given(specs)
@RELAXED
def test_generated_programs_are_deadlock_free(spec):
    assert is_deadlock_free(random_program(spec))


@given(specs)
@RELAXED
def test_constraint_labeling_always_consistent(spec):
    prog = random_program(spec)
    assert is_consistent(prog, constraint_labeling(prog))


@given(specs)
@RELAXED
def test_theorem1_holds_with_adequate_queues(spec):
    prog = random_program(spec)
    labeling = constraint_labeling(prog)
    router = default_router(ExplicitLinear(tuple(prog.cells)))
    demand = dynamic_queue_demand(prog, router, labeling)
    queues = max(demand.values(), default=1)
    report = verify_theorem1(prog, config=ArrayConfig(queues_per_link=queues))
    assert report.verified, report.premise_failures


@given(specs)
@RELAXED
def test_static_assignment_completes_with_full_provisioning(spec):
    prog = random_program(spec)
    router = default_router(ExplicitLinear(tuple(prog.cells)))
    demand = static_queue_demand(prog, router)
    queues = max(demand.values(), default=1)
    result = simulate(
        prog, config=ArrayConfig(queues_per_link=queues), policy="static"
    )
    assert result.completed


@given(specs)
@RELAXED
def test_injected_cycle_deadlocks_everywhere(spec):
    bad = inject_read_cycle(random_program(spec), seed=spec.seed)
    assert not is_deadlock_free(bad)
    assert not is_deadlock_free(bad, uniform_lookahead(bad, math.inf))
    # Run-time agrees (generous static provisioning removes queue effects).
    router = default_router(ExplicitLinear(tuple(bad.cells)))
    demand = static_queue_demand(bad, router)
    queues = max(demand.values(), default=1)
    result = simulate(
        bad, config=ArrayConfig(queues_per_link=queues), policy="static"
    )
    assert result.deadlocked


@given(specs, st.integers(min_value=1, max_value=6))
@RELAXED
def test_lookahead_monotone_in_capacity(spec, cap):
    prog = hoist_writes(random_program(spec), swaps=3, seed=spec.seed + 1)
    small = is_deadlock_free(prog, uniform_lookahead(prog, cap))
    large = is_deadlock_free(prog, uniform_lookahead(prog, cap + 1))
    assert not small or large  # classification can only grow with buffering


@given(specs)
@RELAXED
def test_lookahead_never_misclassifies_strictly_free(spec):
    prog = random_program(spec)
    assert is_deadlock_free(prog, uniform_lookahead(prog, 4))


@given(specs)
@RELAXED
def test_crossing_mode_agreement(spec):
    prog = random_program(spec)
    par = cross_off(prog, mode="parallel").deadlock_free
    seq = cross_off(prog, mode="sequential").deadlock_free
    assert par == seq


@given(specs)
@RELAXED
def test_crossing_counts_words(spec):
    prog = random_program(spec)
    result = cross_off(prog)
    assert result.pairs_crossed == prog.total_words


@given(specs)
@RELAXED
def test_print_parse_round_trip(spec):
    prog = random_program(spec)
    parsed = parse_program(print_program(prog))
    assert parsed.messages == prog.messages
    for cell in prog.cells:
        assert [str(o) for o in parsed.transfers(cell)] == [
            str(o) for o in prog.transfers(cell)
        ]


@given(specs)
@RELAXED
def test_simulation_is_deterministic(spec):
    prog = random_program(spec)
    router = default_router(ExplicitLinear(tuple(prog.cells)))
    demand = static_queue_demand(prog, router)
    config = ArrayConfig(queues_per_link=max(demand.values(), default=1))
    a = simulate(prog, config=config, policy="static")
    b = simulate(prog, config=config, policy="static")
    assert a.time == b.time
    assert a.events == b.events


@given(specs, st.integers(min_value=0, max_value=3))
@RELAXED
def test_buffering_never_hurts_static_completion(spec, capacity):
    """With a static per-message assignment, buffering only relaxes
    blocking: a fully provisioned run completes at every capacity."""
    prog = random_program(spec)
    router = default_router(ExplicitLinear(tuple(prog.cells)))
    demand = static_queue_demand(prog, router)
    queues = max(demand.values(), default=1)
    for cap in (capacity, capacity + 2):
        result = simulate(
            prog,
            config=ArrayConfig(queues_per_link=queues, queue_capacity=cap),
            policy="static",
        )
        assert result.completed


#: The two-way property's program family: spans up to 4 links, so
#: forwarders hold words, with hoisted writes and read cycles.
routed_specs = st.builds(
    WorkloadSpec,
    cells=st.integers(min_value=2, max_value=9),
    messages=st.integers(min_value=1, max_value=12),
    max_length=st.integers(min_value=1, max_value=4),
    max_span=st.integers(min_value=1, max_value=4),
    burst=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
variants = st.sampled_from(("free", "hoisted", "read-cycle"))

#: A point where route_capacities gives a false "deadlock": the run
#: completes on the one word a forwarder's register holds.
REGISTER_WORD_SPEC = WorkloadSpec(
    cells=4, messages=4, max_length=2, max_span=2, burst=2, seed=8
)


def variant_program(spec: WorkloadSpec, variant: str):
    prog = random_program(spec)
    if variant == "hoisted":
        prog = hoist_writes(prog, swaps=prog.total_words, seed=spec.seed)
    elif variant == "read-cycle":
        prog = inject_read_cycle(prog, seed=spec.seed)
    return prog


@given(routed_specs, variants, st.integers(min_value=0, max_value=4))
@example(REGISTER_WORD_SPEC, "hoisted", 0)
@settings(
    max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
def test_simulator_capacities_verdict_matches_static_runs(spec, variant, capacity):
    """Compile-time verdict <=> simulated static outcome, both ways.

    Queues are the largest competing count, so the static policy gives
    every message its own queue on every link and only buffering
    decides. The simulator buffers ``hops x capacity`` words in a
    message's queues plus one in each intermediate forwarder's register;
    with exactly that R2 bound, crossing-off classifies the program as
    the run behaves. (``route_capacities`` leaves the registers out and
    can call a completing run deadlocked.)
    """
    prog = variant_program(spec, variant)
    router = default_router(ExplicitLinear(tuple(prog.cells)))
    queues = max(static_queue_demand(prog, router).values(), default=1)
    verdict = cross_off(
        prog, lookahead=simulator_capacities(prog, router, capacity)
    ).deadlock_free
    result = simulate(
        prog,
        config=ArrayConfig(queues_per_link=queues, queue_capacity=capacity),
        policy="static",
    )
    assert verdict == result.completed


@given(routed_specs, variants)
@example(REGISTER_WORD_SPEC, "hoisted")
@settings(
    max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
def test_least_capacity_is_the_least_free_verdict(spec, variant):
    """One crossing-off pass finds what a scan of verdicts finds.

    At a capacity of the longest message every R2 budget covers every
    skip, so a capacity that frees the program frees it by then, and
    scanning one past it decides c*. The free capacities also form a
    suffix of the scan: the verdict is monotone in capacity.
    """
    prog = variant_program(spec, variant)
    router = default_router(ExplicitLinear(tuple(prog.cells)))
    scan = range(max(prog.intern.lengths, default=0) + 2)
    free = [
        c
        for c in scan
        if cross_off(
            prog, lookahead=simulator_capacities(prog, router, c)
        ).deadlock_free
    ]
    if free:
        assert free == list(range(free[0], scan.stop))
    assert least_capacity(prog, router) == (free[0] if free else None)


@given(
    routed_specs,
    variants,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@example(REGISTER_WORD_SPEC, "hoisted", 0, 1)
@settings(
    max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
def test_resumed_parallel_run_matches_a_fresh_one(spec, variant, low, raise_by):
    """Raising the R2 budgets and resuming ends where a fresh run ends.

    ``least_capacity`` rests on this: it runs the parallel loop to its
    closure at one capacity, raises the budgets and resumes on the same
    state. ``steps`` and ``max_skipped`` record the route taken, so only
    the crossed sets, remaining counts and verdict are compared.
    """
    prog = variant_program(spec, variant)
    router = default_router(ExplicitLinear(tuple(prog.cells)))
    high = low + raise_by

    def state_at(capacity):
        lookahead = simulator_capacities(prog, router, capacity)
        return CrossingState(prog, lookahead)

    fresh = state_at(high)
    _run_parallel_fast(fresh, [], [])
    resumed = state_at(low)
    _run_parallel_fast(resumed, [], [])
    resumed._cap = fresh._cap
    _run_parallel_fast(resumed, [], [])
    assert resumed._crossed == fresh._crossed
    assert resumed._remaining == fresh._remaining
    assert resumed.done == fresh.done


@given(
    routed_specs,
    variants,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=4),
)
@example(REGISTER_WORD_SPEC, "hoisted", 0, 0)
@settings(
    max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
def test_fcfs_with_a_queue_per_competing_message_is_the_static_run(
    spec, variant, extra, capacity
):
    """FCFS at or past the widest competing count == static, row for row.

    A message holds at most one queue per link, so with a queue per
    competing message no request finds the pool empty: FCFS grants
    inside the request, as the static policy does, and which queue a
    message gets changes no timing. ``canonical_key`` folds such FCFS
    jobs into the static run's key on this argument.
    """
    prog = variant_program(spec, variant)
    router = default_router(ExplicitLinear(tuple(prog.cells)))
    queues = max(static_queue_demand(prog, router).values(), default=1) + extra
    config = ArrayConfig(queues_per_link=queues, queue_capacity=capacity)
    rows = {}
    for policy in ("static", "fcfs"):
        job = SimJob(prog, config=config, policy=policy)
        rows[policy] = summarize_result(0, job, job.run())
    assert dataclasses.replace(rows["fcfs"], policy="static") == rows["static"]


def test_fcfs_buffering_can_hurt_completion():
    """Buffering is *not* monotone under naive FCFS assignment.

    Extra queue capacity reorders word arrivals, and FCFS grants queues
    in arrival order — so a program that completes on unbuffered
    rendezvous hardware can deadlock once queues buffer two words. This
    hypothesis-discovered counterexample (pinned here) is the paper's
    Section 7 argument for compile-time assignment in miniature: the
    ordered policy completes at both capacities on the same program.
    A long-standing sibling property ("FCFS completion is monotone in
    capacity") was false and is replaced by this regression test plus
    the static-policy monotonicity property above.
    """
    prog = random_program(
        WorkloadSpec(
            cells=6, messages=6, max_length=1, max_span=2, burst=1, seed=2
        )
    )
    base = simulate(
        prog,
        config=ArrayConfig(queues_per_link=2, queue_capacity=0),
        policy="fcfs",
    )
    more = simulate(
        prog,
        config=ArrayConfig(queues_per_link=2, queue_capacity=2),
        policy="fcfs",
    )
    assert base.completed
    assert more.deadlocked  # buffering introduced the deadlock
    for cap in (0, 2):
        ordered = simulate(
            prog,
            config=ArrayConfig(queues_per_link=1, queue_capacity=cap),
            policy="ordered",
        )
        assert ordered.completed
