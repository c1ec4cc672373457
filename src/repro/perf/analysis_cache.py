"""Content-keyed cache of the simulator's static analyses.

Building a :class:`~repro.sim.runtime.Simulator` performs a batch of
static work — routing every message, computing competing-message sets,
deriving lookahead capacities, and running the constraint labeling. All
of it depends only on *program content*, the topology/router, and two
queue-provisioning bits of the config — never on run-time state. Sweeps,
policy ablations and Theorem-1 ensembles simulate the same program many
times, so this module memoizes the analyses under a content key:

    (program fingerprint, topology fingerprint, router class,
     queue_capacity, allow_extension)

The crossing *backend* (interned vs columnar, see
:func:`repro.core.crossing.resolve_backend`) is deliberately **not**
part of the key: the engines are pinned bit-identical by the
equivalence harness, so a labeling computed under one backend is the
labeling under the other — switching backends mid-process keeps every
cache entry valid and shared.

Fingerprints are BLAKE2 digests of the structural content (cells,
messages, per-cell operation sequences), so two structurally identical
programs share cache entries even if built independently. Entries are
computed lazily — a FCFS run never pays for a labeling — and shared
artifacts are immutable (tuples, frozen dataclasses) or treated as
read-only by every consumer.

The cache is bounded LRU and process-global; :func:`clear_analysis_cache`
resets it (useful in tests and long-lived services after memory
pressure).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.arch.config import ArrayConfig
from repro.arch.links import Link, Route
from repro.arch.routing import LinearRouter, RingRouter, Router, XYRouter
from repro.arch.topology import (
    ExplicitLinear,
    LinearArray,
    Mesh2D,
    RingArray,
    Topology,
    Torus2D,
)
from repro.core.crossing import LookaheadConfig, route_capacities
from repro.core.labeling import Labeling, constraint_labeling
from repro.core.program import ArrayProgram
from repro.core.requirements import competing_messages
from repro.errors import DeadlockedProgramError

_FINGERPRINT_ATTR = "_perf_fingerprint"


def program_fingerprint(program: ArrayProgram) -> str:
    """Stable digest of a program's structural content.

    Covers cells, message declarations, and every cell's operation
    sequence (kind, message, cycles, register, operands). Compute
    callables are excluded — they never influence routing, competition or
    labeling. The digest is memoized on the program instance (programs
    are immutable after construction).

    The digest hashes *names*, never interned ids: checkpoint grid
    fingerprints and witness-store scopes are built from it and persist
    across processes and releases, so it cannot depend on how any
    particular build assigned ids. (Intern order is itself content-
    derived — sorted names — but keeping ids out of the hash makes the
    independence unconditional.) The intern table is used only as the
    pre-sorted message iteration order.
    """
    cached = getattr(program, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(program.cells).encode())
    for name in program.intern.message_names:
        msg = program.messages[name]
        h.update(f"|m:{msg.name},{msg.sender},{msg.receiver},{msg.length}".encode())
    for cell in program.cells:
        h.update(f"|c:{cell}".encode())
        for op in program.cell_programs[cell].ops:
            h.update(
                f";{op.kind.name},{op.message},{op.cycles},"
                f"{op.register},{op.operands}".encode()
            )
    digest = h.hexdigest()
    try:
        setattr(program, _FINGERPRINT_ATTR, digest)
    except AttributeError:  # pragma: no cover - slotted subclass
        pass
    return digest


def topology_fingerprint(topology: Topology) -> str | None:
    """Identify a topology by type and cell layout, or ``None``.

    Only the built-in topology classes are known to be fully determined
    by (type, cells, dims). A custom subclass may wire the same cells
    differently, so it is uncacheable (returns ``None``) unless it opts
    in by exposing an ``analysis_fingerprint`` attribute that captures
    every parameter its wiring depends on.
    """
    cls = type(topology)
    token = getattr(topology, "analysis_fingerprint", None)
    parts = [f"{cls.__module__}.{cls.__qualname__}", repr(topology.cells)]
    if token is not None:
        parts.append(str(token))
    elif cls not in (ExplicitLinear, LinearArray, Mesh2D, RingArray, Torus2D):
        return None
    if isinstance(topology, Mesh2D):
        parts.append(f"{topology.rows}x{topology.cols}")
    return "|".join(parts)


def router_fingerprint(router: Router) -> str | None:
    """Identify a router by its class, or ``None`` for custom routers.

    The provided routers are pure functions of their topology, so the
    class path suffices. A custom :class:`Router` subclass may be
    parameterized (same class, different routes), so it is uncacheable
    (returns ``None``) unless it exposes an ``analysis_fingerprint``
    attribute covering every parameter its routes depend on.
    """
    cls = type(router)
    path = f"{cls.__module__}.{cls.__qualname__}"
    token = getattr(router, "analysis_fingerprint", None)
    if token is not None:
        return f"{path}|{token}"
    if cls in (LinearRouter, RingRouter, XYRouter):
        return path
    return None


@dataclass(frozen=True, slots=True)
class AnalysisKey:
    """The full content key one cache entry lives under."""

    program: str
    topology: str
    router: str
    queue_capacity: int
    allow_extension: bool


class AnalysisEntry:
    """Lazily-computed static analyses for one content key.

    All artifacts are effectively immutable and shared between every
    simulator that hits this entry:

    * ``routes`` — message name -> :class:`Route` (tuple of links);
    * ``competing`` — link -> tuple of competing message names;
    * ``capacities`` — the derived :class:`LookaheadConfig` (or ``None``
      for unbuffered, no-extension configs);
    * ``labeling`` — the constraint labeling (frozen dataclass);
    * ``ordered_groups`` — link -> per-label groups, precomputed for the
      ordered policy's setup.
    """

    __slots__ = (
        "_program",
        "_router",
        "_queue_capacity",
        "_allow_extension",
        "_lock",
        "_routes",
        "_competing",
        "_capacities",
        "_has_capacities",
        "_labeling",
        "_labeling_error",
        "_ordered_groups",
    )

    def __init__(
        self,
        program: ArrayProgram,
        router: Router,
        queue_capacity: int,
        allow_extension: bool,
    ) -> None:
        self._program = program
        self._router = router
        self._queue_capacity = queue_capacity
        self._allow_extension = allow_extension
        # Reentrant: the labeling computation reads `capacities` under the
        # same lock.
        self._lock = threading.RLock()
        self._routes: dict[str, Route] | None = None
        self._competing: dict[Link, tuple[str, ...]] | None = None
        self._capacities: LookaheadConfig | None = None
        self._has_capacities = False
        self._labeling: Labeling | None = None
        # (type, message) of a labeling that raised, so a later access
        # raises a fresh error instead of crossing off again.
        self._labeling_error: tuple[type, str] | None = None
        self._ordered_groups: dict[Link, tuple[tuple[str, ...], ...]] | None = None

    @property
    def routes(self) -> dict[str, Route]:
        """Route of every message (computed once)."""
        if self._routes is None:
            with self._lock:
                if self._routes is None:
                    program, router = self._program, self._router
                    self._routes = {
                        msg.name: router.route(msg.sender, msg.receiver)
                        for msg in program.messages.values()
                    }
        return self._routes

    @property
    def competing(self) -> dict[Link, tuple[str, ...]]:
        """Competing-message sets per directed link (computed once)."""
        if self._competing is None:
            with self._lock:
                if self._competing is None:
                    table = competing_messages(self._program, self._router)
                    self._competing = {
                        link: tuple(names) for link, names in table.items()
                    }
        return self._competing

    @property
    def capacities(self) -> LookaheadConfig | None:
        """Lookahead bounds for buffered/extended configs, else ``None``."""
        if not self._has_capacities:
            with self._lock:
                if not self._has_capacities:
                    if self._queue_capacity > 0 or self._allow_extension:
                        self._capacities = route_capacities(
                            self._program,
                            self._router,
                            self._queue_capacity,
                            allow_extension=self._allow_extension,
                        )
                    self._has_capacities = True
        return self._capacities

    @property
    def labeling(self) -> Labeling:
        """The constraint labeling under this entry's lookahead.

        A program the crossing-off classifies as deadlocked has no
        labeling: the :class:`~repro.errors.DeadlockedProgramError` is
        remembered, and every later access raises a fresh one of the
        same type and message instead of crossing off again.
        """
        if self._labeling is None:
            with self._lock:
                if self._labeling is None:
                    if self._labeling_error is not None:
                        kind, message = self._labeling_error
                        raise kind(message)
                    try:
                        labeling = constraint_labeling(
                            self._program, lookahead=self.capacities
                        )
                    except DeadlockedProgramError as exc:
                        self._labeling_error = (type(exc), str(exc))
                        raise
                    self._labeling = labeling
        return self._labeling

    def ordered_groups(
        self, labeling: Labeling
    ) -> dict[Link, tuple[tuple[str, ...], ...]]:
        """Per-link label groups for the ordered policy.

        Only cached when ``labeling`` is this entry's own auto-computed
        labeling — a caller-supplied labeling gets fresh groups.
        """
        from repro.sim.queue_manager import label_groups

        if labeling is not self._labeling:
            return {
                link: label_groups(names, labeling)
                for link, names in self.competing.items()
            }
        if self._ordered_groups is None:
            with self._lock:
                if self._ordered_groups is None:
                    groups = {
                        link: label_groups(names, labeling)
                        for link, names in self.competing.items()
                    }
                    self._ordered_groups = groups
        return self._ordered_groups


class AnalysisCache:
    """Bounded, thread-safe LRU of :class:`AnalysisEntry` objects."""

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[AnalysisKey, AnalysisEntry] = OrderedDict()

    def lookup(
        self,
        program: ArrayProgram,
        topology: Topology,
        router: Router,
        config: ArrayConfig,
    ) -> AnalysisEntry | None:
        """The (possibly shared) entry for this content key.

        Returns ``None`` when the topology or router cannot be
        fingerprinted (custom subclasses without an
        ``analysis_fingerprint`` token) — the caller must fall back to
        fresh analysis rather than risk sharing wrong routes.
        """
        topology_fp = topology_fingerprint(topology)
        router_fp = router_fingerprint(router)
        if topology_fp is None or router_fp is None:
            return None
        key = AnalysisKey(
            program=program_fingerprint(program),
            topology=topology_fp,
            router=router_fp,
            queue_capacity=config.queue_capacity,
            allow_extension=config.allow_extension,
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
            entry = AnalysisEntry(
                program, router, config.queue_capacity, config.allow_extension
            )
            self._entries[key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        """Current size and hit/miss counters."""
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        return len(self._entries)


#: Process-global cache used by :class:`repro.sim.runtime.Simulator` when
#: ``reuse_analysis=True`` (the default).
GLOBAL_ANALYSIS_CACHE = AnalysisCache()


def clear_analysis_cache() -> None:
    """Reset the process-global analysis cache."""
    GLOBAL_ANALYSIS_CACHE.clear()


def analysis_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the process-global cache."""
    return GLOBAL_ANALYSIS_CACHE.stats()
