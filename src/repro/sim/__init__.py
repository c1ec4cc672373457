"""Discrete-event simulation of programmable systolic arrays.

Ensemble execution (batched and streaming sweeps) lives in the
:mod:`repro.sweep` package.
"""

from repro.sim.engine import Engine, StopReason
from repro.sim.memory_model import ModelComparison, compare_models
from repro.sim.queue_manager import (
    AssignmentEvent,
    AssignmentPolicy,
    FCFSPolicy,
    OrderedPolicy,
    QueueManager,
    StaticPolicy,
    make_policy,
)
from repro.sim.result import SimulationResult
from repro.sim.runtime import Simulator, simulate
from repro.sim.words import Word

__all__ = [
    "AssignmentEvent",
    "AssignmentPolicy",
    "Engine",
    "FCFSPolicy",
    "ModelComparison",
    "OrderedPolicy",
    "QueueManager",
    "SimulationResult",
    "Simulator",
    "StaticPolicy",
    "StopReason",
    "Word",
    "compare_models",
    "make_policy",
    "simulate",
]
