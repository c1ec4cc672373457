"""In-process execution: the reference backend.

Not a consolation prize: repeated jobs over the same program hit the
content-keyed analysis cache (:mod:`repro.perf`), which is where
ensemble time went historically. Every other backend's rows must match
this one byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.sweep.backends import (
    ExecutionBackend,
    JobRecord,
    RowMemo,
    Tolerance,
    run_record,
)
from repro.sweep.jobs import SimJob


class SerialBackend(ExecutionBackend):
    """Run every job in the current process, in order.

    ``tolerance`` is accepted and ignored: there are no worker processes
    to lose, kill or retry, so the serial backend is the fault-free
    reference that the pool backend is differential-tested against.
    """

    name = "serial"

    def execute(
        self,
        jobs: Iterable[SimJob],
        *,
        collect_errors: bool,
        workers: int,
        chunk_size: int,
        mine: bool,
        tolerance: Tolerance,
    ) -> Iterator[JobRecord]:
        memo = RowMemo()
        for index, job in enumerate(jobs):
            yield run_record(
                index,
                job,
                collect_errors=collect_errors,
                mine=mine,
                memo=memo,
            )
