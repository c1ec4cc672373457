"""Checkpointed, resumable sweeps: periodic atomic snapshots of progress.

A million-job provisioning sweep that dies at job 900,000 — SIGKILL,
power loss, OOM — should cost 100,000 jobs, not a million. This module
snapshots the two things a streaming sweep actually accumulates:

* every reducer's exact state (:meth:`~repro.sweep.reducers.
  StreamReducer.snapshot_state` — *not* ``merge``, whose t-digest
  recompression is only rank-error-exact), and
* a completed-job bitmap, keyed by the sweep's **grid fingerprint** (a
  content hash of every job's program + run parameters plus the reducer
  stack), so a checkpoint can never be resumed against a different
  sweep by accident.

Because :class:`~repro.sweep.plan.SweepSession` folds rows strictly in
job order, the bitmap is always a prefix of the grid and a resumed run
feeds the remaining rows in the same order the uninterrupted run would
have — the final reducer summaries are therefore byte-identical to a
never-interrupted sweep, which is pinned by differential tests.

A snapshot must survive the crash it exists for, so it is written to a
temporary file and published with :func:`os.replace` (atomic on POSIX):
a reader sees the old snapshot or the new one, never half of one. It
carries a BLAKE2 checksum over the pickled payload, and any
corruption — truncation, bit flips, foreign bytes — reads as *absent*
(clean restart), never as an error, but is counted
(:meth:`SweepCheckpoint.stats`) rather than silently conflated with a
missing file. Deserialization failures are narrowed to the corruption
classes (:data:`_CORRUPT_LOAD_ERRORS`): a ``MemoryError`` or a bug in
a reducer's unpickling propagates instead of masquerading as a clean
restart. Only a well-formed checkpoint for a
*different* sweep raises (:class:`~repro.errors.CheckpointError`):
silently discarding it would silently re-run the sweep, and silently
using it would merge unrelated aggregates.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Sequence

from repro.errors import CheckpointError
from repro.sweep.jobs import SimJob, job_fingerprint
from repro.sweep.reducers import StreamReducer

#: Bump when the snapshot payload layout changes; old checkpoints then
#: read as absent instead of deserializing into garbage.
FORMAT_VERSION = 1

_MAGIC = b"RSWPCKPT"
_DIGEST_SIZE = 16


def sweep_fingerprint(
    jobs: Sequence[SimJob], reducers: Sequence[StreamReducer]
) -> str:
    """Content hash of the whole sweep: every job plus the reducer stack.

    Two invocations with the same program file, grid flags and reducers
    agree; anything that would change a row or an aggregate — another
    program, another policy list, a different reducer set — does not.
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(f"v{FORMAT_VERSION}:{len(jobs)}".encode())
    for job in jobs:
        h.update(job_fingerprint(job).encode())
        h.update(b"\x00")
    for reducer in reducers:
        h.update(type(reducer).__name__.encode())
        h.update(b"\x01")
    return h.hexdigest()


#: What corrupt checkpoint bytes can raise while deserializing: pickle
#: framing (``UnpicklingError``/``EOFError``/``ValueError``), and payloads
#: referencing renamed or missing classes across versions
#: (``AttributeError``/``ImportError``/``IndexError``). Anything
#: outside this set — ``MemoryError``, ``KeyboardInterrupt``, a bug in
#: a reducer's ``__setstate__`` — is NOT corruption and must propagate:
#: swallowing it would silently read a real failure as "absent
#: checkpoint = clean restart" and redo the whole sweep.
_CORRUPT_LOAD_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    AttributeError,
    ImportError,
    IndexError,
)


def _load_raw(path: str) -> tuple[dict | None, bool]:
    """``(payload, rejected)``: the state dict, or why there is none.

    ``(dict, False)`` for a well-formed file, ``(None, False)`` for a
    missing one (the normal cold start), ``(None, True)`` for a file
    that exists but failed validation — bad magic, checksum mismatch,
    unpicklable payload, foreign version — so the caller can count
    rejected loads instead of conflating them with absence.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None, False
    except OSError:
        return None, True  # unreadable is not the same as absent
    if len(blob) < len(_MAGIC) + _DIGEST_SIZE or not blob.startswith(_MAGIC):
        return None, True
    digest = blob[len(_MAGIC):len(_MAGIC) + _DIGEST_SIZE]
    payload = blob[len(_MAGIC) + _DIGEST_SIZE:]
    if hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest() != digest:
        return None, True  # truncated or bit-flipped: verified pre-unpickle
    try:
        state = pickle.loads(payload)
    except _CORRUPT_LOAD_ERRORS:
        return None, True
    if (
        not isinstance(state, dict)
        or state.get("version") != FORMAT_VERSION
    ):
        return None, True
    return state, False


class SweepCheckpoint:
    """One sweep's progress file: reducer states + a done bitmap.

    The writer side of the contract: :meth:`mark_done` after each row is
    folded, :meth:`maybe_save` on the configured cadence, :meth:`save`
    at teardown (the session calls it from a ``finally``, so Ctrl-C and
    ordinary exceptions both leave a fresh snapshot; only a hard kill
    falls back to the last periodic one).
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        n_jobs: int,
        every: int = 64,
    ) -> None:
        self.path = str(path)
        self.fingerprint = fingerprint
        self.n_jobs = n_jobs
        self.every = max(1, every)
        self.done = bytearray((n_jobs + 7) // 8)
        self._unsaved = 0
        #: checkpoint files that existed but failed validation at
        #: :meth:`resume` (treated as absent for recovery, but counted —
        #: a rejected load is observable, never silent)
        self.loads_rejected = 0

    # -- bitmap -----------------------------------------------------------

    def is_done(self, index: int) -> bool:
        return bool(self.done[index >> 3] & (1 << (index & 7)))

    def mark_done(self, index: int) -> None:
        self.done[index >> 3] |= 1 << (index & 7)
        self._unsaved += 1

    def done_count(self) -> int:
        return sum(bin(byte).count("1") for byte in self.done)

    def remaining(self) -> list[int]:
        """Indices still to run, ascending (job order)."""
        return [i for i in range(self.n_jobs) if not self.is_done(i)]

    # -- persistence ------------------------------------------------------

    def save(self, reducers: Sequence[StreamReducer]) -> None:
        """Atomically publish a snapshot (temp file + ``os.replace``)."""
        state = {
            "version": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "n_jobs": self.n_jobs,
            "done": bytes(self.done),
            "reducers": [
                (type(reducer).__name__, reducer.snapshot_state())
                for reducer in reducers
            ],
        }
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".ckpt-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(digest)
                handle.write(payload)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._unsaved = 0

    def maybe_save(self, reducers: Sequence[StreamReducer]) -> bool:
        """Save if ``every`` rows finished since the last snapshot."""
        if self._unsaved >= self.every:
            self.save(reducers)
            return True
        return False

    def resume(self, reducers: Sequence[StreamReducer]) -> int:
        """Load the checkpoint file and restore state in place.

        Returns the number of already-completed jobs (0 when the file is
        missing or corrupt — a clean restart). Raises
        :class:`~repro.errors.CheckpointError` when a *valid* checkpoint
        belongs to a different sweep or reducer stack.
        """
        state, rejected = _load_raw(self.path)
        if rejected:
            self.loads_rejected += 1
        if state is None:
            return 0
        if state["fingerprint"] != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path!r} belongs to a different sweep "
                f"(grid fingerprint {state['fingerprint']} != "
                f"{self.fingerprint}); refusing to resume"
            )
        if state["n_jobs"] != self.n_jobs:
            raise CheckpointError(
                f"checkpoint {self.path!r} covers {state['n_jobs']} jobs, "
                f"this sweep has {self.n_jobs}"
            )
        saved = state["reducers"]
        if len(saved) != len(reducers) or any(
            name != type(reducer).__name__
            for (name, _state), reducer in zip(saved, reducers)
        ):
            raise CheckpointError(
                f"checkpoint {self.path!r} was taken with a different "
                f"reducer stack ({[name for name, _ in saved]} != "
                f"{[type(r).__name__ for r in reducers]})"
            )
        for (_name, reducer_state), reducer in zip(saved, reducers):
            reducer.restore_state(reducer_state)
        self.done = bytearray(state["done"])
        self._unsaved = 0
        return self.done_count()

    def stats(self) -> dict:
        """Observability counters (load rejections are never silent)."""
        return {
            "n_jobs": self.n_jobs,
            "done": self.done_count(),
            "loads_rejected": self.loads_rejected,
        }
