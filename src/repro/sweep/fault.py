"""Deterministic fault injection and fault-tolerance knobs for sweeps.

Million-job provisioning sweeps die in two characteristic ways: a
worker process crashes mid-job (OOM kill, interpreter abort), or a job
hangs past any useful wall clock. The supervised execution path
(:mod:`repro.sweep.backends.supervise`) recovers from both; this
module provides the pieces that make that recovery *testable*:

* :class:`FaultPlan` — a declarative, picklable plan of injected faults
  ("crash the worker running job 4, once; hang job 7, twice"). It
  travels to workers on the :class:`Tolerance`, and only the supervised
  worker loop reads it — never the parent, so result hydration and
  serial execution are immune by construction.
* :class:`Tolerance` — the supervisor's policy: retry budget, per-job
  wall-clock timeout and the fault plan. A retry waits
  :meth:`Tolerance.backoff` seconds: 0.05 s, doubling per attempt, at
  most 2 s.

Each fault fires a bounded number of times, coordinated across worker
*processes* (a requeued job lands on a different worker) through a
spool directory of ``O_EXCL``-created marker files: the first ``times``
attempts to run the job observe the fault, every later attempt runs
clean. That determinism is the whole point — a recovered sweep can be
differential-tested byte-identical against a fault-free one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigError

#: Exit code of a worker killed by an injected crash (visible in tests).
CRASH_EXIT_CODE = 86

#: Backoff before a failed job's first retry; it doubles per attempt,
#: up to :data:`_MAX_BACKOFF_S`.
_FIRST_BACKOFF_S = 0.05
_MAX_BACKOFF_S = 2.0


def _normalize(spec) -> dict[int, int]:
    """``{index: times}`` from a mapping or an iterable of indices."""
    if spec is None:
        return {}
    if isinstance(spec, Mapping):
        out = {int(k): int(v) for k, v in spec.items()}
    else:
        out = {int(index): 1 for index in spec}
    for index, times in out.items():
        if index < 0 or times < 1:
            raise ConfigError(
                f"fault entries need index >= 0 and times >= 1, "
                f"got index={index} times={times}"
            )
    return out


@dataclass(frozen=True)
class FaultPlan:
    """Declarative injected faults, keyed by executed-job index.

    ``crash`` and ``hang`` each accept an iterable of job indices (fire
    once per index) or an ``{index: times}`` mapping.
    ``spool`` is a directory (shared by every worker — a tmpdir) whose
    marker files count firings across processes and retries.
    """

    spool: str
    crash: Mapping[int, int] = field(default_factory=dict)
    hang: Mapping[int, int] = field(default_factory=dict)
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crash", _normalize(self.crash))
        object.__setattr__(self, "hang", _normalize(self.hang))

    def _fire(self, kind: str, index: int, times: int) -> bool:
        """Atomically claim the next attempt marker; True while armed.

        Marker files are created ``O_EXCL`` so exactly one process wins
        each attempt number, no matter which worker the retried job
        lands on.
        """
        attempt = 0
        while True:
            path = os.path.join(self.spool, f"{kind}-{index}-{attempt}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                attempt += 1
                continue
            os.close(fd)
            return attempt < times

    def maybe_crash(self, index: int) -> None:
        """Kill this worker process if a crash fault is armed for ``index``.

        ``os._exit`` (not ``sys.exit``) — the point is an abrupt death
        with no cleanup, exactly what an OOM kill looks like from the
        supervisor's side.
        """
        times = self.crash.get(index)
        if times is not None and self._fire("crash", index, times):
            os._exit(CRASH_EXIT_CODE)

    def maybe_hang(self, index: int) -> None:
        """Sleep ``hang_s`` if a hang fault is armed for ``index``.

        With a supervisor timeout below ``hang_s`` the worker is killed
        mid-sleep; without one this degrades to a very slow job.
        """
        times = self.hang.get(index)
        if times is not None and self._fire("hang", index, times):
            time.sleep(self.hang_s)


@dataclass(frozen=True)
class Tolerance:
    """Supervisor policy: retries, timeout, injected faults.

    Attributes:
        max_retries: extra attempts a job gets after its first failed
            one before being quarantined (0 = fail fast on the first
            crash/hang).
        job_timeout_s: per-job wall clock; a job running longer gets its
            worker killed and is retried, then recorded as a
            timeout-class row. ``None`` disables the timeout.
        fault_plan: deterministic injected faults, fired only in the
            supervised worker loop.
    """

    max_retries: int = 2
    job_timeout_s: float | None = None
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ConfigError(
                f"job_timeout_s must be > 0, got {self.job_timeout_s}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before requeueing a job's ``attempt``-th retry."""
        return min(
            _FIRST_BACKOFF_S * (2 ** max(0, attempt - 1)), _MAX_BACKOFF_S
        )
