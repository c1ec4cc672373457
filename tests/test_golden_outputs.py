"""Golden-file regression: canonical analysis and simulation output.

The equivalence suite pins the interned crossing engine to the reference
oracle *relative* to each other; these tests pin the absolute output. A
canonical JSON rendering of each program's crossing trace — strict
parallel, lookahead-2 sequential, and lookahead-2 parallel (the bucketed
step engine with its skip machinery engaged) — plus exact labeling
fractions, normalized labels and schedule bounds is checked into
``tests/golden/`` — any engine change that silently perturbs a step, a
skipped-write tuple or a label fails on a one-line diff instead of deep
inside some downstream consumer.

The run-time half is pinned the same way: ``sim_results.json`` holds one
digest per simulation job of a fixed corpus (the Fig. 2 and Fig. 7-9
programs plus seeded random, write-hoisted and read-cycle programs, under
every policy, queue count and capacity of a small provisioning grid, some
also with slower hops and ops, memory-to-memory staging, queue extension
and a compute longer than any timing wheel). A digest covers the
*complete* :class:`SimulationResult` — every field, every dict in
insertion order, every ``queue_stats`` entry — so a change to how the
simulator builds or reports its queues must leave every result
byte-identical, not just the summary rows a sweep keeps. The corpus runs
twice: once as built, once on a heap-only engine swapped in after the
build.

Regenerate after an *intentional* behaviour change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_outputs.py

and review the diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.arch.config import ArrayConfig, CommModel
from repro.arch.links import Link
from repro.core.crossing import CrossingResult, cross_off, uniform_lookahead
from repro.core.labeling import constraint_labeling
from repro.core.program import ArrayProgram
from repro.core.schedule import analyze_schedule
from repro.errors import ReproError
from repro.sim.engine import MAX_WHEEL_HORIZON, Engine
from repro.sim.result import SimulationResult
from repro.sim.runtime import Simulator

GOLDEN_DIR = Path(__file__).parent / "golden"

UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"


def _fir():
    from repro.algorithms.fir import fir_program

    return fir_program(4, 8)


def _matvec():
    from repro.algorithms.matvec import matvec_program

    return matvec_program([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def _seqcompare():
    from repro.algorithms.seqcompare import lcs_program_for

    return lcs_program_for("GATTACA", "GCAT")


PROGRAMS = {
    "fir": _fir,
    "matvec": _matvec,
    "seqcompare": _seqcompare,
}


def _pair_doc(pair) -> dict:
    return {
        "message": pair.message,
        "sender": pair.sender,
        "sender_pos": pair.sender_pos,
        "receiver": pair.receiver,
        "receiver_pos": pair.receiver_pos,
        "skipped_sender": [list(item) for item in pair.skipped_sender],
        "skipped_receiver": [list(item) for item in pair.skipped_receiver],
    }


def _result_doc(result: CrossingResult) -> dict:
    return {
        "deadlock_free": result.deadlock_free,
        "step_count": result.step_count,
        "pairs_crossed": result.pairs_crossed,
        "steps": [[_pair_doc(p) for p in step] for step in result.steps],
        "max_skipped": result.max_skipped,
        "uncrossed": {
            cell: [str(op) for op in ops]
            for cell, ops in result.uncrossed.items()
        },
    }


def canonical_analysis(program: ArrayProgram) -> dict:
    """The full canonical analysis document for one program."""
    lookahead = uniform_lookahead(program, 2)
    strict = cross_off(program, mode="parallel")
    relaxed = cross_off(program, lookahead=lookahead, mode="sequential")
    relaxed_parallel = cross_off(program, lookahead=lookahead, mode="parallel")
    plain_labeling = constraint_labeling(program)
    relaxed_labeling = constraint_labeling(program, lookahead=lookahead)
    doc = {
        "program": program.name,
        "cells": list(program.cells),
        "messages": [
            {
                "name": msg.name,
                "sender": msg.sender,
                "receiver": msg.receiver,
                "length": msg.length,
            }
            for msg in (
                program.messages[name] for name in sorted(program.messages)
            )
        ],
        "strict_parallel": _result_doc(strict),
        "lookahead2_sequential": _result_doc(relaxed),
        "lookahead2_parallel": _result_doc(relaxed_parallel),
        "labeling": {
            "exact": {n: str(v) for n, v in plain_labeling.labels.items()},
            "normalized": plain_labeling.normalized(),
        },
        "labeling_lookahead2": {
            "exact": {n: str(v) for n, v in relaxed_labeling.labels.items()},
            "normalized": relaxed_labeling.normalized(),
        },
    }
    if strict.deadlock_free:
        schedule = analyze_schedule(program)
        doc["schedule"] = {
            "transfer_rounds": schedule.transfer_rounds,
            "total_pairs": schedule.total_pairs,
            "max_parallelism": schedule.max_parallelism,
            "mean_parallelism": round(schedule.mean_parallelism, 6),
            "busiest_cell": schedule.busiest_cell,
            "busiest_cell_ops": schedule.busiest_cell_ops,
        }
    return doc


def canonical_bytes(program: ArrayProgram) -> bytes:
    return (
        json.dumps(canonical_analysis(program), indent=2, sort_keys=True) + "\n"
    ).encode()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_golden_analysis_output(name):
    program = PROGRAMS[name]()
    produced = canonical_bytes(program)
    path = GOLDEN_DIR / f"{name}.json"
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes(produced)
        pytest.skip(f"golden file {path.name} regenerated")
    assert path.exists(), (
        f"missing golden file {path}; generate with REPRO_UPDATE_GOLDEN=1"
    )
    expected = path.read_bytes()
    assert produced == expected, (
        f"canonical analysis output for {name!r} diverged from "
        f"{path.name}; if the change is intentional, regenerate with "
        f"REPRO_UPDATE_GOLDEN=1 and review the diff"
    )


def test_golden_files_are_canonical_json():
    """Checked-in golden files must themselves be canonically formatted
    (sorted keys, two-space indent, trailing newline) so regeneration
    diffs stay minimal."""
    paths = sorted(GOLDEN_DIR.glob("*.json"))
    assert paths, f"no golden files in {GOLDEN_DIR}"
    for path in paths:
        raw = path.read_bytes()
        doc = json.loads(raw)
        assert raw == (
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        ).encode(), f"{path.name} is not canonically formatted"


# ----------------------------------------------------------------------
# Simulation results
# ----------------------------------------------------------------------

SIM_GOLDEN = GOLDEN_DIR / "sim_results.json"

POLICIES = ("ordered", "static", "fcfs")
QUEUES = (1, 2, 3, 8)
CAPACITIES = (0, 2)


def _sim_programs() -> dict[str, tuple[ArrayProgram, dict | None]]:
    """Corpus programs with their initial registers, keyed by a short id."""
    from repro.algorithms.figures import (
        fig2_fir,
        fig2_registers,
        fig7_program,
        fig8_program,
        fig9_program,
    )
    from repro.workloads import (
        WorkloadSpec,
        hoist_writes,
        inject_read_cycle,
        random_program,
    )

    programs = {
        "fig2": (fig2_fir(), fig2_registers()),
        "fig7": (fig7_program(), None),
        "fig8": (fig8_program(), None),
        "fig9": (fig9_program(), None),
    }
    for seed in (1, 2, 3):
        programs[f"random{seed}"] = (random_program(WorkloadSpec(seed=seed)), None)
    wide = WorkloadSpec(cells=8, messages=12, max_span=5, seed=8)
    programs["random-wide8"] = (random_program(wide), None)
    for seed in (4, 5):
        base = random_program(WorkloadSpec(seed=seed))
        programs[f"hoisted{seed}"] = (hoist_writes(base, swaps=4, seed=seed), None)
    for seed in (6, 7):
        base = random_program(WorkloadSpec(seed=seed))
        programs[f"cycle{seed}"] = (inject_read_cycle(base, seed=seed), None)
    return programs


#: Corpus programs that also run :func:`_timing_configs`.
TIMING_PROGRAMS = ("fig2", "fig7", "random2", "random-wide8", "hoisted5", "cycle7")

#: A compute this long overflows the engine's largest timing wheel.
LONG_COMPUTE_CYCLES = MAX_WHEEL_HORIZON + 44


def _timing_configs():
    """``(suffix, config)`` pairs off the unit-latency systolic grid.

    Memory-to-memory staging, slower hops and ops, and queue extension at
    capacities 0 and 2 with a large spill penalty: together they reach
    every delay shape the agents schedule and every branch of a queue's
    push and pop.
    """
    for queues in (2, 8):
        yield f"q{queues}/m2m", ArrayConfig(
            queues_per_link=queues,
            queue_capacity=2,
            comm_model=CommModel.MEMORY_TO_MEMORY,
            memory_access_cycles=2,
        )
        yield f"q{queues}/latency", ArrayConfig(
            queues_per_link=queues, queue_capacity=1, hop_latency=3, op_latency=2
        )
        for capacity in (0, 2):
            yield f"q{queues}/extension-c{capacity}", ArrayConfig(
                queues_per_link=queues,
                queue_capacity=capacity,
                allow_extension=True,
                extension_penalty=7,
            )


def _sim_jobs():
    """``(job_id, program, registers, config, policy, strict)`` per job.

    The provisioning grid runs every program; the extras add one
    queue-extension config and one per-link override config (each under
    every policy) and non-strict ordered runs, whose oversized label
    groups deadlock instead of being rejected at set-up. A few programs
    also run :func:`_timing_configs`, and Fig. 7 with a compute longer
    than the largest timing wheel runs a small grid, so some delays
    overflow to the engine's heap.
    """
    from repro.algorithms.figures import fig7_program

    extension = ArrayConfig(queues_per_link=2, queue_capacity=1, allow_extension=True)
    for name, (program, registers) in _sim_programs().items():
        for policy in POLICIES:
            for queues in QUEUES:
                for capacity in CAPACITIES:
                    config = ArrayConfig(
                        queues_per_link=queues, queue_capacity=capacity
                    )
                    job_id = f"{name}/{policy}/q{queues}/c{capacity}"
                    yield job_id, program, registers, config, policy, True
        cells = program.cells
        overrides = ArrayConfig(
            queues_per_link=2,
            link_queue_overrides={
                Link(cells[0], cells[1]): 1,
                Link(cells[1], cells[2]): 4,
            },
        )
        for policy in POLICIES:
            yield f"{name}/{policy}/extension", program, registers, extension, policy, True
            yield f"{name}/{policy}/overrides", program, registers, overrides, policy, True
        for queues in (1, 2):
            config = ArrayConfig(queues_per_link=queues)
            job_id = f"{name}/ordered-lenient/q{queues}/c0"
            yield job_id, program, registers, config, "ordered", False
        if name in TIMING_PROGRAMS:
            for suffix, config in _timing_configs():
                for policy in POLICIES:
                    yield f"{name}/{policy}/{suffix}", program, registers, config, policy, True
    long_compute = fig7_program(think_cycles=LONG_COMPUTE_CYCLES)
    for policy in POLICIES:
        for queues in (1, 2):
            for capacity in CAPACITIES:
                config = ArrayConfig(queues_per_link=queues, queue_capacity=capacity)
                job_id = f"fig7-think{LONG_COMPUTE_CYCLES}/{policy}/q{queues}/c{capacity}"
                yield job_id, long_compute, None, config, policy, True


def canonical_result(result: SimulationResult) -> dict:
    """Every field of ``result``; dicts become ``[key, value]`` lists so
    their insertion order is part of the record."""
    doc = {
        "completed": result.completed,
        "deadlocked": result.deadlocked,
        "timed_out": result.timed_out,
        "time": result.time,
        "events": result.events,
        "blocked": list(result.blocked),
        "wait_cycle": result.wait_cycle,
        "registers": [
            [cell, list(regs.items())] for cell, regs in result.registers.items()
        ],
        "received": list(result.received.items()),
        "queue_stats": [
            [key, dataclasses.astuple(stats)]
            for key, stats in result.queue_stats.items()
        ],
        "assignment_trace": [
            [e.time, e.kind, str(e.link), e.queue_index, e.message]
            for e in result.assignment_trace
        ],
        "memory_accesses": list(result.memory_accesses.items()),
        "busy_cycles": list(result.busy_cycles.items()),
        "words_transferred": result.words_transferred,
    }
    assert set(doc) == {f.name for f in dataclasses.fields(SimulationResult)}
    return doc


def sim_digest(program, registers, config, policy, strict, heap_only=False) -> str:
    """sha256 of one job's canonical result, or of its set-up error.

    With ``heap_only`` the simulator runs on a heap-only engine swapped in
    after the build, as the determinism cross-checks do.
    """
    try:
        sim = Simulator(
            program, config=config, policy=policy, registers=registers, strict=strict
        )
    except ReproError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
    else:
        if heap_only:
            sim.engine = Engine(fast_lane=False)
        doc = canonical_result(sim.run())
    raw = json.dumps(doc, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()


def test_golden_simulation_results():
    produced = {
        job_id: sim_digest(program, registers, config, policy, strict)
        for job_id, program, registers, config, policy, strict in _sim_jobs()
    }
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        SIM_GOLDEN.write_text(json.dumps(produced, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden file {SIM_GOLDEN.name} regenerated")
    assert SIM_GOLDEN.exists(), (
        f"missing golden file {SIM_GOLDEN}; generate with REPRO_UPDATE_GOLDEN=1"
    )
    expected = json.loads(SIM_GOLDEN.read_text())
    assert sorted(produced) == sorted(expected), "simulation corpus changed"
    diverged = sorted(k for k in expected if produced[k] != expected[k])
    assert not diverged, (
        f"{len(diverged)} of {len(expected)} simulation results diverged from "
        f"{SIM_GOLDEN.name}, e.g. {diverged[:5]}; if the change is intentional, "
        f"regenerate with REPRO_UPDATE_GOLDEN=1 and review the diff"
    )


def test_golden_simulation_results_on_the_heap_only_engine():
    """The whole corpus gives the same digests when every event goes
    through the heap: the lanes the agents append to directly change no
    event's order, and a swapped-in engine is the one the run uses."""
    expected = json.loads(SIM_GOLDEN.read_text())
    produced = {
        job_id: sim_digest(program, registers, config, policy, strict, heap_only=True)
        for job_id, program, registers, config, policy, strict in _sim_jobs()
    }
    assert sorted(produced) == sorted(expected), "simulation corpus changed"
    diverged = sorted(k for k in expected if produced[k] != expected[k])
    assert not diverged, (
        f"{len(diverged)} of {len(expected)} heap-only simulation results "
        f"diverged from {SIM_GOLDEN.name}, e.g. {diverged[:5]}"
    )


@pytest.mark.parametrize("mine", [False, True])
def test_run_record_matches_simulated_results(mine):
    """The sweep runner's rows equal rows of full runs.

    :func:`~repro.sweep.backends.run_record` reads each row off the
    stopped simulator instead of its :class:`SimulationResult`; over the
    whole corpus the row must equal ``summarize_result`` of a full
    ``Simulator(...).run()`` (set-up errors as :class:`BatchError` rows),
    and with ``mine`` the witness must be the one mined from it.
    """
    from repro.sweep import BatchError, SimJob, summarize_result
    from repro.sweep.backends import run_record
    from repro.sweep.jobs import mine_witness_payload

    for index, (job_id, program, registers, config, policy, strict) in enumerate(
        _sim_jobs()
    ):
        job = SimJob(
            program, config=config, policy=policy, registers=registers, strict=strict
        )
        try:
            expected = Simulator(
                program, config=config, policy=policy, registers=registers, strict=strict
            ).run(max_events=job.max_events, max_time=job.max_time)
        except ReproError as exc:
            expected = BatchError(kind=type(exc).__name__, error=str(exc))
        record = run_record(index, job, mine=mine)
        assert record.index == index
        assert record.row == summarize_result(index, job, expected), job_id
        witness = mine_witness_payload(job, expected) if mine else None
        assert record.witness == witness, job_id
