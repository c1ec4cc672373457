"""The benchmark's output checks catch corrupted outputs.

A corrupted row, verdict or frontier must count as a failed op; an
infeasible grid corner must not. Run with
``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses

import pytest

from perfbench import checks
from perfbench.inputs import FRONTIER_CAPACITIES, frontier_input, grid_program
from perfbench.workloads import (
    cold_op,
    exhaustive_rows,
    expected_lines,
    frontier_specs,
    reference_row,
)
from repro.arch.config import ArrayConfig
from repro.core.labeling import Labeling
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.sweep import FrontierPlanner, SimJob, iter_sweep_jobs
from repro.witness import WitnessStore


def _grid_rows(seed=3, index=0):
    """Rows of one grid program, from the reference path."""
    program = grid_program(seed, index)
    jobs = list(
        iter_sweep_jobs(
            program, policies=("ordered", "static"), queues=(1, 8), capacities=(0, 2)
        )
    )
    return [reference_row(i, job) for i, job in enumerate(jobs)]


def _facts(rows):
    return [None] * len(rows)


def test_digest_is_stable_across_processes():
    # hash() is salted per process; the digest must not be.
    assert checks.digest(("row", 1, None, True)) == checks.digest(("row", 1, None, True))
    assert checks.digest((1, 2)) == "6a3c1aa915c1564dfbb3558c"


def test_matching_rows_pass():
    rows = _grid_rows()
    judgement = checks.judge_grid(rows, list(rows), _facts(rows))
    assert judgement.failed == set()


@pytest.mark.parametrize("field,value", [("events", 1), ("time", 1), ("completed", None)])
def test_corrupted_row_counts_as_failed(field, value):
    rows = _grid_rows()
    bad = rows[2]
    corrupted = (not bad.completed) if value is None else getattr(bad, field) + value
    run = list(rows)
    run[2] = dataclasses.replace(bad, **{field: corrupted})
    judgement = checks.judge_grid(run, rows, _facts(rows))
    assert judgement.failed == {2}


def test_infeasible_corner_is_data_not_failure():
    # One queue per link is too few for the static policy: the row is a
    # ConfigError corner, and it must not count as a failure.
    program = grid_program(3, 0)
    job = SimJob(program, config=ArrayConfig(queues_per_link=1), policy="static")
    row = reference_row(0, job)
    assert row.error_kind == "ConfigError"
    assert checks.judge_grid([row], [row], [None]).failed == set()
    deadlocked = dataclasses.replace(row, error_kind="DeadlockedProgramError")
    assert checks.judge_grid([deadlocked], [deadlocked], [None]).failed == set()


def test_quarantined_row_counts_as_failed():
    rows = _grid_rows()
    crashed = dataclasses.replace(rows[0], error_kind="WorkerCrash", error="killed")
    judgement = checks.judge_grid([crashed], [crashed], [None])
    assert judgement.failed == {0}


def test_theorem1_violation_counts_as_failed():
    rows = _grid_rows()
    ordered = next(
        i for i, row in enumerate(rows) if row.policy == "ordered" and row.completed
    )
    stuck = dataclasses.replace(rows[ordered], completed=False, deadlocked=True)
    facts = _facts(rows)
    facts[ordered] = True
    run = list(rows)
    run[ordered] = stuck
    # Even a reference that agrees cannot excuse a Theorem 1 violation.
    reference = list(run)
    assert checks.judge_grid(run, reference, facts).failed == {ordered}


def _fig7_like():
    cells = ("C1", "C2")
    messages = [Message("A", "C1", "C2", 1), Message("B", "C1", "C2", 1)]
    ops = {"C1": [W("A"), W("B")], "C2": [R("A"), R("B")]}
    return ArrayProgram(cells, messages, ops)


def test_corrupted_verdict_counts_as_failed():
    program = _fig7_like()
    good = cold_op(program)
    assert checks.judge_cold([good], [good], [program]).failed == set()
    flipped = dataclasses.replace(good, strict=(False,) + good.strict[1:])
    assert checks.judge_cold([flipped], [good], [program]).failed == {0}
    raised = checks.ColdOutput(error="RuntimeError")
    assert checks.judge_cold([raised], [good], [program]).failed == {0}


def test_inconsistent_labeling_counts_as_failed():
    program = _fig7_like()
    good = cold_op(program)
    # B before A in no cell order: A must not get the larger label.
    backwards = Labeling({name: 2 - i for i, name in enumerate(sorted(program.messages))})
    bad = dataclasses.replace(good, labeling=backwards)
    judgement = checks.judge_cold([bad], [bad], [program])
    assert judgement.failed == {0}


def _frontier_queries():
    """Six queries (three programs), their outputs and both references."""
    inputs = [frontier_input(5, k) for k in range(3)]
    specs = frontier_specs(inputs, WitnessStore())
    outputs = [
        checks.FrontierOutput.from_report(FrontierPlanner(spec).run()) for spec in specs
    ]
    expected = []
    for item in inputs:
        rows = exhaustive_rows(item)
        expected += [expected_lines(rows, item.narrow), expected_lines(rows, item.wide)]
    return outputs, expected


def _found_line(outputs):
    """The first query and line with a frontier."""
    target = next(
        i for i, out in enumerate(outputs) if any(line[2] is not None for line in out.lines)
    )
    j = next(k for k, line in enumerate(outputs[target].lines) if line[2] is not None)
    return target, j


def _with_line(outputs, target, j, line):
    lines = list(outputs[target].lines)
    lines[j] = line
    run = list(outputs)
    run[target] = dataclasses.replace(outputs[target], lines=tuple(lines))
    return run


def test_planner_matches_exhaustive_reference():
    outputs, expected = _frontier_queries()
    assert checks.judge_frontier(outputs, outputs, expected).failed == set()


def test_corrupted_frontier_counts_as_failed():
    outputs, expected = _frontier_queries()
    target, j = _found_line(outputs)
    policy, queues, frontier, probes = outputs[target].lines[j]
    run = _with_line(outputs, target, j, (policy, queues, frontier + 1, probes))
    # The reference disagrees and the probe invariant breaks: one failed op.
    assert checks.judge_frontier(run, outputs, expected).failed == {target}


def test_frontier_skipped_by_planner_counts_as_failed():
    # A planner (or a witness seeding) that wrongly skips the true
    # frontier reports the next capacity up, with probes that agree
    # with it and a planner re-run that agrees too: only the exhaustive
    # reference can tell.
    outputs, expected = _frontier_queries()
    target, j = _found_line(outputs)
    policy, queues, frontier, probes = outputs[target].lines[j]
    higher = next(cap for cap in FRONTIER_CAPACITIES if cap > frontier)
    probes = ((higher, "completed"),)
    run = _with_line(outputs, target, j, (policy, queues, higher, probes))
    judgement = checks.judge_frontier(run, run, expected)
    assert judgement.failed == {target}
    assert set(judgement.notes) == {"frontier differs from exhaustive reference"}


def test_corrupted_probe_row_counts_as_failed():
    outputs, expected = _frontier_queries()
    target = 1
    index, _digest = outputs[target].rows[0]
    rows = ((index, "0" * 24),) + outputs[target].rows[1:]
    run = list(outputs)
    run[target] = dataclasses.replace(outputs[target], rows=rows)
    assert checks.judge_frontier(run, run, expected).failed == {target}


def test_frontier_invariant_counts_as_failed():
    outputs, expected = _frontier_queries()
    target, j = _found_line(outputs)
    policy, queues, frontier, probes = outputs[target].lines[j]
    # The frontier row reported as deadlocked: static monotonicity broken.
    probes = tuple((cap, "deadlock" if cap == frontier else o) for cap, o in probes)
    run = _with_line(outputs, target, j, (policy, queues, frontier, probes))
    assert checks.judge_frontier(run, run, expected).failed == {target}
