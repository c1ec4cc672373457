"""Frontier planner cost: jobs executed vs the exhaustive grid.

The Section 8 sizing question — minimal queue capacity per
(policy, queues) line — costs the exhaustive grid ``lines x n_caps``
simulations. The planner (:mod:`repro.sweep.planner`) decides each
static-policy line by one crossing-off pass
(:func:`~repro.core.crossing.least_capacity`) and simulates only its
frontier point, once for all lines that perform the same run. Here both
lines run the same jobs (one competing message per link, so 1 and 2
queues are the same run), so the planner answers with 1 job against
the grid's 128 — and it must land on exactly the frontier the grid
finds.

This bench runs both on a burst-exchange workload (two cells exchange a
k-word burst of writes before any read, so the static frontier sits at
capacity k, mid-axis) and asserts:

* the planner's frontier equals the exhaustive grid's, per line;
* every planner row is byte-identical to the grid row at the same
  grid index;
* the planner executed >= 4x fewer jobs (the acceptance floor; the
  expected ratio here is 128x).

``REPRO_BENCH_RECORD=1`` records ``frontier_plan_64`` /
``frontier_grid_64`` into ``BENCH_core.json`` (events/sec over the jobs
each mode ran, wall seconds, the job counts and their ratio). Smoke mode
(CI ``--benchmark-disable``) runs the same assertions without touching
the baseline.
"""

import time

from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.sweep import FrontierPlanner, PlanSpec, exhaustive_spec

N_CAPS = 64
QUEUES = (1, 2)
BURST = 11  # frontier at cap=11, mid-axis


def burst_exchange(k: int) -> ArrayProgram:
    """Two cells exchange k-word bursts: all writes precede any read.

    Under the static policy both directions stall until a queue can
    absorb the whole burst, so the completion frontier sits at exactly
    ``capacity == k`` — a workload whose sizing answer is interesting
    (neither endpoint of the axis) and known in closed form.
    """
    msgs = [Message("M0", "A", "B", k), Message("M1", "B", "A", k)]
    progs = {
        "A": [W("M0", constant=1.0) for _ in range(k)]
        + [R("M1", into=f"a{i}") for i in range(k)],
        "B": [W("M1", constant=2.0) for _ in range(k)]
        + [R("M0", into=f"b{i}") for i in range(k)],
    }
    return ArrayProgram(["A", "B"], msgs, progs)


def _spec() -> PlanSpec:
    return PlanSpec(
        burst_exchange(BURST),
        policies=("static",),
        queues=QUEUES,
        capacities=tuple(range(N_CAPS)),
    )


def _run_both():
    spec = _spec()
    t0 = time.perf_counter()
    planned = FrontierPlanner(spec).run()
    plan_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    grid = FrontierPlanner(exhaustive_spec(spec)).run()
    grid_wall = time.perf_counter() - t0
    return planned, plan_wall, grid, grid_wall


def _check(planned, grid) -> None:
    assert planned.frontier() == grid.frontier()
    assert planned.frontier() == {f"static q={nq}": BURST for nq in QUEUES}
    grid_rows = {row.index: row for row in grid.rows}
    for row in planned.rows:
        assert row == grid_rows[row.index]
    assert grid.jobs_executed == grid.grid_jobs == len(QUEUES) * N_CAPS
    # The acceptance floor; expected 128x (1 job for both lines).
    assert planned.jobs_executed * 4 <= grid.jobs_executed, (
        planned.jobs_executed,
        grid.jobs_executed,
    )


def test_frontier_beats_grid_smoke(benchmark):
    """Frontier == grid at >= 4x fewer jobs (runs everywhere)."""
    planned, _pw, grid, _gw = _run_both()
    _check(planned, grid)
    benchmark(lambda: FrontierPlanner(_spec()).run())


def test_frontier_cost_recorded(core_metrics):
    """Record planner-vs-grid cost on the 64-point axis."""
    planned, plan_wall, grid, grid_wall = _run_both()
    _check(planned, grid)
    ratio = round(grid.jobs_executed / planned.jobs_executed, 2)
    core_metrics(
        "frontier_plan_64",
        events=sum(row.events for row in planned.rows),
        seconds=plan_wall,
        jobs=planned.jobs_executed,
        grid_jobs=grid.grid_jobs,
        jobs_saved_ratio=ratio,
    )
    core_metrics(
        "frontier_grid_64",
        events=sum(row.events for row in grid.rows),
        seconds=grid_wall,
        jobs=grid.jobs_executed,
    )
    print(
        f"[frontier] planner {planned.jobs_executed} jobs vs grid "
        f"{grid.jobs_executed} ({ratio}x fewer), frontier cap={BURST} "
        f"on both"
    )
