"""The frontier planner: crossing-off == exhaustive grid, fallback honest.

The planner's whole claim is that it *decides* the same answer the
exhaustive provisioning grid *computes*: per (policy, queues) line, the
minimal capacity that completes. These tests pin that claim four ways:

* a differential corpus (closed-form burst programs + generated
  workloads) where planner and exhaustive-twin reports must agree on
  the frontier and on every shared row, byte for byte;
* a hypothesis property quantifying the same agreement over the random
  program family under the static policy;
* the FCFS fallback, kept honest by the pinned non-monotonicity
  counterexample (``test_properties.test_fcfs_buffering_can_hurt_completion``):
  on that program any reasoning from capacity monotonicity would *miss*
  the frontier that full evaluation finds;
* the completion check: a c* that lies makes the planner raise instead
  of answering.

The corpus includes saturating axes — queue counts at and past the
widest competing count, capacities past the longest message — where
lines share one frontier row, and cost pins that catch a planner which
stops sharing or simulates more than the frontier point.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import crossing
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.errors import ConfigError, SimulationError
from repro.sweep import (
    MONOTONE_POLICIES,
    CompletedCount,
    FrontierPlanner,
    PlanSpec,
    exhaustive_spec,
    find_frontier,
    sweep_labels,
)
from repro.sweep.backends.pool import PoolBackend
from repro.sweep.jobs import program_shape
from repro.sweep.planner import MODE_CROSSING_OFF, MODE_EXHAUSTIVE, probe_label
from repro.workloads import WorkloadSpec, hoist_writes, random_program

#: The pinned FCFS non-monotonicity counterexample of
#: tests/test_properties.py: completes at capacity 0, deadlocks at 2.
FCFS_COUNTEREXAMPLE = WorkloadSpec(
    cells=6, messages=6, max_length=1, max_span=2, burst=1, seed=2
)


def burst_exchange(k: int) -> ArrayProgram:
    """Two cells exchange k-word bursts; static frontier at cap=k."""
    msgs = [Message("M0", "A", "B", k), Message("M1", "B", "A", k)]
    progs = {
        "A": [W("M0", constant=1.0) for _ in range(k)]
        + [R("M1", into=f"a{i}") for i in range(k)],
        "B": [W("M1", constant=2.0) for _ in range(k)]
        + [R("M0", into=f"b{i}") for i in range(k)],
    }
    return ArrayProgram(["A", "B"], msgs, progs)


#: A capacity axis that runs past every generated program's longest
#: message (generated messages here are at most 3 words).
SATURATING_CAPACITIES = (0, 1, 2, 4, 8, 16)


def saturating_queues(program: ArrayProgram) -> tuple[int, ...]:
    """Queue counts below, at and past the widest competing count."""
    widest = program_shape(program).widest
    candidates = (1, widest - 1, widest, widest + 1, widest + 3)
    return tuple(sorted({q for q in candidates if q >= 1}))


def generated(seed: int, **fields) -> ArrayProgram:
    params = dict(cells=4, messages=6, max_length=2, max_span=2, burst=3)
    params.update(fields)
    program = random_program(WorkloadSpec(seed=seed, **params))
    return hoist_writes(program, swaps=4, seed=seed)


def assert_differential(spec: PlanSpec) -> tuple:
    """Planner vs exhaustive twin: same frontier, identical shared rows."""
    planned = FrontierPlanner(spec).run()
    grid = FrontierPlanner(exhaustive_spec(spec)).run()
    assert planned.frontier() == grid.frontier()
    assert grid.jobs_executed == grid.grid_jobs
    grid_rows = {row.index: row for row in grid.rows}
    for row in planned.rows:
        assert row == grid_rows[row.index]
    assert_frontier_is_least_completed_probe(planned)
    return planned, grid


def assert_frontier_is_least_completed_probe(report) -> None:
    for line in report.lines:
        completed = [cap for cap, outcome in line.probes if outcome == "completed"]
        expected = min(completed) if completed else None
        assert line.frontier_capacity == expected, line


class TestDifferentialCorpus:
    def test_burst_programs_frontier_at_burst_size(self):
        for k in (1, 3, 6):
            spec = PlanSpec(
                burst_exchange(k),
                policies=("static",),
                queues=(1, 2),
                capacities=tuple(range(10)),
            )
            planned, grid = assert_differential(spec)
            assert planned.frontier() == {
                "static q=1": k,
                "static q=2": k,
            }
            assert planned.jobs_executed < grid.jobs_executed

    def test_generated_workloads(self):
        for seed in (0, 7, 23, 91):
            prog = hoist_writes(
                random_program(
                    WorkloadSpec(
                        cells=4,
                        messages=6,
                        max_length=2,
                        max_span=2,
                        burst=3,
                        seed=seed,
                    )
                ),
                swaps=4,
                seed=seed,
            )
            spec = PlanSpec(
                prog,
                policies=("static",),
                queues=(1, 2),
                capacities=(0, 1, 2, 3, 4, 6, 8),
            )
            assert_differential(spec)

    def test_burst_programs_on_long_axis_with_three_queue_counts(self):
        for k in (1, 3, 6, 11):
            spec = PlanSpec(
                burst_exchange(k),
                policies=("static",),
                queues=(1, 2, 3),
                capacities=tuple(range(64)),
            )
            planned, _grid = assert_differential(spec)
            assert set(planned.frontier().values()) == {k}

    def test_generated_workloads_on_saturating_axes(self):
        programs = [generated(seed) for seed in (0, 7, 23, 91)] + [
            generated(seed, cells=5, messages=8, max_length=3)
            for seed in (3, 14)
        ]
        for prog in programs:
            assert program_shape(prog).longest < SATURATING_CAPACITIES[-1]
            spec = PlanSpec(
                prog,
                policies=("static",),
                queues=saturating_queues(prog),
                capacities=SATURATING_CAPACITIES,
            )
            assert_differential(spec)

    def test_logarithmic_cost_on_long_axis(self):
        spec = PlanSpec(
            burst_exchange(5),
            policies=("static",),
            queues=(1,),
            capacities=tuple(range(64)),
        )
        planned, grid = assert_differential(spec)
        # The frontier point alone, against the grid's 64.
        assert planned.jobs_executed == 1
        assert grid.jobs_executed == 64


class TestStaticPropertyAgreement:
    @given(
        st.builds(
            WorkloadSpec,
            cells=st.integers(min_value=2, max_value=6),
            messages=st.integers(min_value=1, max_value=8),
            max_length=st.integers(min_value=1, max_value=3),
            max_span=st.integers(min_value=1, max_value=2),
            burst=st.integers(min_value=1, max_value=3),
            seed=st.integers(min_value=0, max_value=10_000),
        )
    )
    @settings(
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_planner_frontier_equals_exhaustive(self, wspec):
        prog = hoist_writes(random_program(wspec), swaps=3, seed=wspec.seed)
        spec = PlanSpec(
            prog,
            policies=("static",),
            queues=(1, 2),
            capacities=(0, 1, 2, 4),
        )
        assert_differential(spec)

    @given(
        st.builds(
            WorkloadSpec,
            cells=st.integers(min_value=2, max_value=6),
            messages=st.integers(min_value=1, max_value=8),
            max_length=st.integers(min_value=1, max_value=3),
            max_span=st.integers(min_value=1, max_value=2),
            burst=st.integers(min_value=1, max_value=3),
            seed=st.integers(min_value=0, max_value=10_000),
        )
    )
    @settings(
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_planner_equals_exhaustive_on_saturating_axes(self, wspec):
        prog = hoist_writes(random_program(wspec), swaps=3, seed=wspec.seed)
        spec = PlanSpec(
            prog,
            policies=("static",),
            queues=saturating_queues(prog),
            capacities=SATURATING_CAPACITIES,
        )
        assert_differential(spec)


class TestSharedSearch:
    """Lines and capacities with equal canonical keys share one run."""

    def test_burst_long_axis_costs_one_search_over_distinct_points(self):
        # Widest competing count 1: q=2 runs what q=1 runs, so both
        # lines share the one frontier row at cap=11 (128 grid jobs).
        report = find_frontier(
            burst_exchange(11),
            policies=("static",),
            queues=(1, 2),
            capacities=tuple(range(64)),
        )
        assert report.frontier() == {"static q=1": 11, "static q=2": 11}
        assert report.jobs_executed == 1
        assert [line.shared_with for line in report.lines] == [None, 1]
        assert all(line.mode == MODE_CROSSING_OFF for line in report.lines)

    def test_equal_key_group_costs_its_first_line_alone(self):
        for prog in (burst_exchange(3), generated(7), generated(23)):
            widest = program_shape(prog).widest
            alone = find_frontier(
                prog, queues=(widest,), capacities=SATURATING_CAPACITIES
            )
            for k in (2, 3, 5):
                group = tuple(widest + extra for extra in range(k))
                shared = find_frontier(
                    prog, queues=group, capacities=SATURATING_CAPACITIES
                )
                assert shared.rows == alone.rows
                assert shared.jobs_executed == alone.jobs_executed
                (first,) = alone.lines
                for line in shared.lines:
                    assert line.probes == first.probes
                    assert line.frontier_capacity == first.frontier_capacity
                assert [line.shared_with for line in shared.lines] == [
                    None
                ] + [widest] * (k - 1)

    def test_lines_with_different_clamped_queues_search_themselves(self):
        prog = generated(7)
        widest = program_shape(prog).widest
        assert widest >= 2
        report = find_frontier(
            prog,
            queues=(widest - 1, widest, widest + 1),
            capacities=SATURATING_CAPACITIES,
        )
        assert [line.shared_with for line in report.lines] == [
            None,
            None,
            widest,
        ]

    def test_rows_only_for_executed_jobs_on_searching_lines(self):
        prog = generated(23)
        spec = PlanSpec(
            prog,
            queues=saturating_queues(prog),
            capacities=SATURATING_CAPACITIES,
        )
        report = FrontierPlanner(spec).run()
        width = len(SATURATING_CAPACITIES)
        searching = {
            i for i, line in enumerate(report.lines) if line.shared_with is None
        }
        assert len(searching) < len(report.lines)
        assert {row.index // width for row in report.rows} <= searching
        assert report.jobs_executed == sum(
            line.jobs_executed for line in report.lines
            if line.shared_with is None
        )

    def test_collapsed_capacities_are_probed_at_their_smallest(self):
        # Longest message 2: capacities 2..64 are one point, probed at 2.
        report = find_frontier(
            burst_exchange(2),
            queues=(1,),
            capacities=(0, 1, 2, 3, 4, 8, 64),
        )
        (line,) = report.lines
        assert line.frontier_capacity == 2
        assert {cap for cap, _outcome in line.probes} <= {0, 1, 2}
        assert {row.capacity for row in report.rows} <= {0, 1, 2}

    def test_exhaustive_lines_never_share_or_collapse(self):
        spec = PlanSpec(
            burst_exchange(2),
            policies=("static", "fcfs"),
            queues=(1, 2),
            capacities=(0, 1, 2, 3),
        )
        report = FrontierPlanner(spec).run()
        static, fcfs = report.lines[:2], report.lines[2:]
        assert [line.shared_with for line in static] == [None, 1]
        for line in fcfs:
            assert line.mode == MODE_EXHAUSTIVE
            assert line.shared_with is None
            assert [cap for cap, _ in line.probes] == [0, 1, 2, 3]
        grid = FrontierPlanner(exhaustive_spec(spec)).run()
        assert grid.jobs_executed == grid.grid_jobs == 16
        assert all(line.shared_with is None for line in grid.lines)

    def test_shared_with_in_report_dict(self):
        report = find_frontier(
            burst_exchange(1), queues=(1, 4), capacities=(0, 1, 2)
        )
        lines = report.as_dict()["lines"]
        assert [line["shared_with"] for line in lines] == [None, 1]


class TestSingleJobRounds:
    """A round of one probe runs in-process whatever ``workers`` says."""

    class PoolUsed(Exception):
        pass

    @pytest.fixture
    def pool_raises(self, monkeypatch):
        import os

        def execute(*_args, **_kwargs):
            raise self.PoolUsed

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(PoolBackend, "execute", execute)

    def test_shared_search_never_starts_workers(self, pool_raises):
        report = find_frontier(
            burst_exchange(3),
            queues=(1, 2, 3),
            capacities=tuple(range(8)),
            workers=2,
        )
        assert set(report.frontier().values()) == {3}

    def test_a_round_holding_a_whole_fcfs_axis_still_uses_the_pool(
        self, pool_raises
    ):
        with pytest.raises(self.PoolUsed):
            find_frontier(
                random_program(FCFS_COUNTEREXAMPLE),
                policies=("fcfs",),
                queues=(2,),
                capacities=(0, 1, 2),
                workers=2,
            )


class TestFcfsFallback:
    def test_fcfs_routes_to_full_evaluation(self):
        report = find_frontier(
            random_program(FCFS_COUNTEREXAMPLE),
            policies=("fcfs",),
            queues=(2,),
            capacities=(0, 1, 2),
        )
        (line,) = report.lines
        assert line.mode == MODE_EXHAUSTIVE
        assert line.jobs_executed == 3  # the whole axis, no bisection
        # The counterexample's signature: the *minimum* of the axis
        # completes while a larger capacity deadlocks — the exact shape
        # on which reasoning from monotonicity (trusting the top of the
        # axis) would answer "no frontier". Full evaluation finds cap=0.
        assert line.frontier_capacity == 0
        outcomes = dict(line.probes)
        assert outcomes[0] == "completed"
        assert outcomes[2] == "deadlock"

    def test_fcfs_is_not_in_monotone_policies(self):
        assert "fcfs" not in MONOTONE_POLICIES
        assert "static" in MONOTONE_POLICIES


class TestPlannerMechanics:
    def test_spec_validation(self):
        prog = burst_exchange(1)
        with pytest.raises(ConfigError):
            FrontierPlanner(PlanSpec(prog, policies=()))
        with pytest.raises(ConfigError):
            FrontierPlanner(PlanSpec(prog, queues=()))
        with pytest.raises(ConfigError):
            FrontierPlanner(PlanSpec(prog, capacities=()))
        with pytest.raises(ConfigError):
            FrontierPlanner(PlanSpec(prog, capacities=(0, 1, 1)))
        with pytest.raises(
            ConfigError,
            match=r"unknown assignment policy 'bogus' "
            r"\(known: ordered, static, fcfs\)",
        ):
            FrontierPlanner(PlanSpec(prog, policies=("static", "bogus")))
        for bad in (
            dict(queues=(1, 0)),
            dict(capacities=(-1, 0)),
            dict(workers=0),
            dict(chunk_size=0),
        ):
            with pytest.raises(ConfigError):
                FrontierPlanner(PlanSpec(prog, **bad))
        with pytest.raises(TypeError):  # ``exhaustive`` is the one knob
            PlanSpec(prog, monotone_policies=frozenset())

    def test_no_frontier_and_infeasible_lines_run_no_job(self):
        # burst 5 never completes below capacity 5: on an axis capped at
        # 3 crossing-off already says so, and nothing is simulated.
        report = find_frontier(
            burst_exchange(5),
            policies=("static",),
            queues=(1,),
            capacities=(0, 1, 2, 3),
        )
        (line,) = report.lines
        assert line.frontier_capacity is None
        assert line.mode == MODE_CROSSING_OFF
        assert line.probes == ()
        assert report.jobs_executed == 0
        # Fewer queues than the widest competing count: the static
        # set-up would raise at every capacity.
        prog = generated(7)
        widest = program_shape(prog).widest
        report = find_frontier(
            prog, queues=(widest - 1,), capacities=SATURATING_CAPACITIES
        )
        assert report.frontier() == {f"static q={widest - 1}": None}
        assert report.jobs_executed == 0
        # Each cell reads before it writes: R1 blocks every capacity.
        msgs = [Message("M0", "A", "B", 1), Message("M1", "B", "A", 1)]
        cross_read = ArrayProgram(["A", "B"], msgs, {
            "A": [R("M1", into="x"), W("M0", constant=1.0)],
            "B": [R("M0", into="y"), W("M1", constant=2.0)],
        })
        report = find_frontier(cross_read, queues=(1, 2), capacities=(0, 64))
        assert report.frontier() == {"static q=1": None, "static q=2": None}
        assert report.jobs_executed == 0
        grid = FrontierPlanner(
            exhaustive_spec(
                PlanSpec(
                    prog, queues=(widest - 1,), capacities=SATURATING_CAPACITIES
                )
            )
        ).run()
        assert {row.outcome for row in grid.rows} == {"infeasible"}

    def test_single_point_axis(self):
        report = find_frontier(
            burst_exchange(2),
            policies=("static",),
            queues=(1,),
            capacities=(2,),
        )
        (line,) = report.lines
        assert line.frontier_capacity == 2
        assert line.jobs_executed == 1

    def test_unsorted_capacities_are_searched_sorted(self):
        report = find_frontier(
            burst_exchange(2),
            policies=("static",),
            queues=(1,),
            capacities=(5, 0, 2, 1, 4),
        )
        assert report.capacities == (0, 1, 2, 4, 5)
        assert report.frontier() == {"static q=1": 2}

    def test_row_indices_and_labels_match_grid_geometry(self):
        caps = (0, 1, 2, 3)
        spec = PlanSpec(
            burst_exchange(2),
            policies=("static",),
            queues=(1, 2),
            capacities=caps,
        )
        labels = sweep_labels(
            policies=spec.policies, queues=spec.queues, capacities=caps
        )
        report = FrontierPlanner(spec).run()
        for row in report.rows:
            assert probe_label(row) == labels[row.index]

    def test_reducers_fed_executed_rows_in_emission_order(self):
        outcomes = CompletedCount()
        spec = PlanSpec(
            burst_exchange(2),
            policies=("static",),
            queues=(1,),
            capacities=(0, 1, 2, 3, 4),
            reducers=(outcomes,),
        )
        report = FrontierPlanner(spec).run()
        assert outcomes.total == report.jobs_executed
        assert outcomes.completed == sum(
            1 for row in report.rows if row.completed
        )

    def test_report_as_dict_round_trips_through_json(self):
        import json

        report = find_frontier(
            burst_exchange(1),
            policies=("static",),
            queues=(1,),
            capacities=(0, 1, 2),
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["frontier"] == {"static q=1": 1}
        assert payload["jobs_executed"] == report.jobs_executed

    def test_infeasible_corners_are_data(self):
        # One queue per link is too few for a static assignment with
        # two competing messages in some generated programs; the planner
        # must answer such a line ("no frontier"), not crash.
        prog = random_program(
            WorkloadSpec(
                cells=4, messages=8, max_length=1, max_span=2, burst=2, seed=5
            )
        )
        report = find_frontier(
            prog,
            policies=("static",),
            queues=(1,),
            capacities=(0, 2),
        )
        assert len(report.lines) == 1  # reached a verdict without raising


class TestCompletionCheck:
    """A frontier row that does not complete is an error, not an answer."""

    def test_lying_least_capacity_raises(self, monkeypatch):
        honest = crossing.least_capacity

        def one_too_low(program, router):
            return honest(program, router) - 1

        monkeypatch.setattr(crossing, "least_capacity", one_too_low)
        planner = FrontierPlanner(
            PlanSpec(burst_exchange(3), queues=(1, 2), capacities=tuple(range(8)))
        )
        with pytest.raises(SimulationError, match=r"static q=1: .*cap=2.*deadlock"):
            planner.run()

    def test_infeasible_frontier_row_names_its_error(self, monkeypatch):
        from repro.sweep import planner as planner_mod

        prog = generated(7)
        widest = program_shape(prog).widest
        assert widest >= 2
        # A shape that hides the competing messages: the planner then
        # simulates a static line that has too few queues.
        narrow = dataclasses.replace(program_shape(prog), widest=1)
        monkeypatch.setattr(planner_mod, "program_shape", lambda _p: narrow)
        planner = FrontierPlanner(
            PlanSpec(prog, queues=(1,), capacities=SATURATING_CAPACITIES)
        )
        with pytest.raises(SimulationError, match=r"infeasible \(ConfigError: "):
            planner.run()

    def test_one_session_per_query(self, monkeypatch):
        from repro.sweep import planner as planner_mod

        sessions = []
        real = planner_mod.SweepSession

        def counting(plan):
            sessions.append(plan)
            return real(plan)

        monkeypatch.setattr(planner_mod, "SweepSession", counting)
        find_frontier(
            burst_exchange(3),
            policies=("static", "fcfs"),
            queues=(1, 2),
            capacities=(0, 1, 2, 3, 4),
        )
        assert len(sessions) == 1
        find_frontier(burst_exchange(3), queues=(1,), capacities=(0, 1))
        assert len(sessions) == 1  # no frontier on the axis: no session
