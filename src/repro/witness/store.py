"""The witness store: persisted certificates with subsumption lookup.

A :class:`WitnessStore` holds :class:`~repro.witness.certificate.
DeadlockWitness` certificates indexed by *scope* (the capacity-neutral
job identity — program fingerprint, policy, queue count, registers,
limits) and answers one query, :meth:`find`: the certificate, if any,
whose capacity band covers a job row-exactly (see
:meth:`DeadlockWitness.covers_capacity`); the sweep session emits the
known deadlock row without simulating.

Certificates are added through :meth:`add`, which applies subsumption
in both directions: a new certificate already covered by a stored one
is dropped, and stored certificates the new one makes redundant are
pruned — the store stays minimal without a separate compaction pass
(:meth:`prune` exists for stores written by older code or merged by
hand).

Persistence is a single JSON file — human-auditable (``repro witness
ls`` / ``show`` render it), published atomically (temp file +
``os.replace``), versioned, and deterministic (sorted on save, content
ids). A corrupt or foreign file reads as *absent* — an empty store is
always safe, it merely prunes nothing — but the rejection is counted in
:meth:`stats`, never silent.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterator

from repro.witness.certificate import DeadlockWitness, witness_scope

#: Bump when the on-disk layout changes; old files then read as absent
#: (and are counted as rejected) instead of deserializing into garbage.
FORMAT_VERSION = 1

#: What a malformed store file can raise while being decoded: I/O
#: failures, JSON syntax, and payload-shape violations (missing keys,
#: wrong types). Anything else — ``MemoryError``, ``KeyboardInterrupt``
#: — is a bug or an interrupt, not corruption, and must propagate.
_CORRUPT_CLASSES = (ValueError, KeyError, TypeError)


class WitnessStore:
    """Deadlock certificates indexed by scope, with subsumption.

    ``path`` is optional: a pathless store is an in-memory cache for a
    single session (:meth:`save` is then a no-op). With a path, the
    constructor loads whatever the file holds; call :meth:`save` to
    publish additions.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._by_scope: dict[str, list[DeadlockWitness]] = {}
        #: corrupt/foreign store files rejected at load (read as empty)
        self.loads_rejected = 0
        #: certificates accepted by :meth:`add`
        self.added = 0
        #: new certificates dropped because a stored one subsumes them
        self.add_subsumed = 0
        #: stored certificates pruned because a new one subsumes them
        self.pruned = 0
        #: :meth:`find` calls answered with a certificate
        self.hits = 0
        if self.path is not None:
            self._load()

    # -- persistence ------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return  # absent is the normal cold-start case, not an error
        except OSError:
            self.loads_rejected += 1
            return
        try:
            payload = json.loads(blob)
            if payload["version"] != FORMAT_VERSION:
                raise ValueError(f"unknown version {payload['version']!r}")
            witnesses = [
                DeadlockWitness.from_dict(entry)
                for entry in payload["witnesses"]
            ]
        except _CORRUPT_CLASSES:
            # Corruption reads as an empty store — always safe (nothing
            # gets pruned that a certificate does not prove) — but the
            # rejection is observable, never silent.
            self.loads_rejected += 1
            return
        for witness in witnesses:
            self._by_scope.setdefault(witness.scope, []).append(witness)

    def save(self) -> None:
        """Atomically publish the store (no-op for pathless stores)."""
        if self.path is None:
            return
        payload = {
            "version": FORMAT_VERSION,
            "witnesses": [w.as_dict() for w in self.witnesses()],
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".witness-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- content ----------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(group) for group in self._by_scope.values())

    def witnesses(self) -> Iterator[DeadlockWitness]:
        """Every certificate, in deterministic (scope, capacity, id) order."""
        for scope in sorted(self._by_scope):
            yield from sorted(
                self._by_scope[scope],
                key=lambda w: (w.capacity, w.peak_occupancy, w.witness_id),
            )

    def get(self, witness_id: str) -> DeadlockWitness | None:
        """Look one certificate up by (a unique prefix of) its id."""
        matches = [
            w for w in self.witnesses()
            if w.witness_id.startswith(witness_id)
        ]
        return matches[0] if len(matches) == 1 else None

    def add(self, witness: DeadlockWitness) -> bool:
        """Insert a certificate; returns False when already subsumed.

        Subsumption runs both ways: a certificate a stored one covers
        is dropped, and stored certificates the new one covers are
        pruned, so each scope keeps only its frontier of knowledge.
        """
        group = self._by_scope.setdefault(witness.scope, [])
        for stored in group:
            if stored.subsumes(witness):
                self.add_subsumed += 1
                return False
        kept = [w for w in group if not witness.subsumes(w)]
        self.pruned += len(group) - len(kept)
        kept.append(witness)
        self._by_scope[witness.scope] = kept
        self.added += 1
        return True

    def prune(self) -> int:
        """Drop every stored certificate another one subsumes.

        :meth:`add` keeps the store minimal as it grows, so this is for
        stores assembled some other way (hand-merged files, older
        formats). Returns the number removed.
        """
        removed = 0
        for scope, group in list(self._by_scope.items()):
            kept = [
                w for w in group
                if not any(o is not w and o.subsumes(w) for o in group)
            ]
            removed += len(group) - len(kept)
            if kept:
                self._by_scope[scope] = kept
            else:
                del self._by_scope[scope]
        return removed

    # -- queries ----------------------------------------------------------

    def find(self, job) -> DeadlockWitness | None:
        """The certificate covering ``job`` row-exactly, or ``None``.

        Non-monotone policies (FCFS — the pinned counterexample) and
        configurations outside the band argument (queue extension,
        per-link overrides) never match, by construction: the check
        runs before any certificate is consulted, so no store content
        can ever prune them.
        """
        # An empty store answers nothing: return before building the
        # job's scope, which costs two dataclass copies and a hash.
        if not self._by_scope:
            return None
        from repro.arch.config import ArrayConfig
        from repro.sweep.planner import MONOTONE_POLICIES

        if job.policy not in MONOTONE_POLICIES:
            return None
        config = job.config or ArrayConfig()
        if config.allow_extension or config.link_queue_overrides:
            return None
        group = self._by_scope.get(witness_scope(job))
        if not group:
            return None
        for witness in group:
            if witness.covers_capacity(config.queue_capacity):
                self.hits += 1
                return witness
        return None

    def stats(self) -> dict:
        """Observability counters (load rejections are never silent)."""
        return {
            "witnesses": len(self),
            "scopes": len(self._by_scope),
            "added": self.added,
            "add_subsumed": self.add_subsumed,
            "pruned": self.pruned,
            "hits": self.hits,
            "loads_rejected": self.loads_rejected,
        }
