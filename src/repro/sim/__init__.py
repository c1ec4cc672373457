"""Discrete-event simulation of programmable systolic arrays.

Ensemble execution (batched and streaming sweeps) lives in the
:mod:`repro.sweep` package.
"""

from repro.sim.engine import Engine, StopReason
from repro.sim.memory_model import ModelComparison, compare_models
from repro.sim.queue_manager import AssignmentEvent, QueueManager
from repro.sim.result import SimulationResult
from repro.sim.runtime import Simulator, simulate

__all__ = [
    "AssignmentEvent",
    "Engine",
    "ModelComparison",
    "QueueManager",
    "SimulationResult",
    "Simulator",
    "StopReason",
    "compare_models",
    "simulate",
]
