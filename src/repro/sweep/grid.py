"""The canonical provisioning grid: (policy x queues x capacity) x repeat.

Queue-provisioning questions (Sections 2.3 and 8 of the paper: how many
queues, how much buffering, before this program class deadlocks?) are
answered by sweeping this grid. Jobs and their human-readable labels
derive from one shared iterator so their positional alignment cannot
drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.arch.config import ArrayConfig
from repro.sweep.jobs import SimJob

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.program import ArrayProgram


def sweep_label(
    policy: str, queues: int, capacity: int, rep: int = 0, repeat: int = 1
) -> str:
    """The canonical human-readable label of one grid point.

    Shared by the exhaustive grid and the frontier planner
    (:mod:`repro.sweep.planner`), so a planner probe and the grid job at
    the same coordinates always print identically.
    """
    suffix = f" #{rep + 1}" if repeat > 1 else ""
    return f"{policy} q={queues} cap={capacity}{suffix}"


def _sweep_grid(
    policies: Sequence[str],
    queues: Sequence[int],
    capacities: Sequence[int],
    repeat: int,
):
    """The one canonical (policy, queues, capacity, label) iteration.

    Both :func:`sweep_jobs` and :func:`sweep_labels` derive from this
    grid, so their positional alignment cannot drift.
    """
    for pol in policies:
        for nq in queues:
            for cap in capacities:
                for rep in range(repeat):
                    yield pol, nq, cap, sweep_label(pol, nq, cap, rep, repeat)


def iter_sweep_jobs(
    program: "ArrayProgram",
    policies: Sequence[str] = ("ordered",),
    queues: Sequence[int] = (1,),
    capacities: Sequence[int] = (0,),
    registers: dict[str, dict[str, float | None]] | None = None,
    repeat: int = 1,
) -> Iterator[SimJob]:
    """Lazily generate the (policy x queues x capacity) x repeat sweep.

    The generator form feeds a :class:`~repro.sweep.plan.SweepPlan`
    whose :meth:`~repro.sweep.plan.SweepSession.stream` never holds the
    whole sweep in memory.
    """
    for pol, nq, cap, _label in _sweep_grid(policies, queues, capacities, repeat):
        yield SimJob(
            program,
            config=ArrayConfig(queues_per_link=nq, queue_capacity=cap),
            policy=pol,
            registers=registers,
        )


def iter_sweep_labels(
    policies: Sequence[str] = ("ordered",),
    queues: Sequence[int] = (1,),
    capacities: Sequence[int] = (0,),
    repeat: int = 1,
) -> Iterator[str]:
    """Lazy labels aligned with :func:`iter_sweep_jobs` order."""
    for _pol, _nq, _cap, label in _sweep_grid(policies, queues, capacities, repeat):
        yield label


def sweep_jobs(
    program: "ArrayProgram",
    policies: Sequence[str] = ("ordered",),
    queues: Sequence[int] = (1,),
    capacities: Sequence[int] = (0,),
    registers: dict[str, dict[str, float | None]] | None = None,
    repeat: int = 1,
) -> list[SimJob]:
    """The cartesian sweep (policy x queues x capacity) x repeat as jobs."""
    return list(
        iter_sweep_jobs(
            program,
            policies=policies,
            queues=queues,
            capacities=capacities,
            registers=registers,
            repeat=repeat,
        )
    )


def sweep_labels(
    policies: Sequence[str] = ("ordered",),
    queues: Sequence[int] = (1,),
    capacities: Sequence[int] = (0,),
    repeat: int = 1,
) -> list[str]:
    """Human-readable labels aligned with :func:`sweep_jobs` order."""
    return list(
        iter_sweep_labels(
            policies=policies, queues=queues, capacities=capacities, repeat=repeat
        )
    )
