"""Content-keyed cache of a program's static analyses.

Building a :class:`~repro.sim.runtime.Simulator` performs a batch of
static work — routing every message, computing competing-message sets,
deriving lookahead capacities, and running the constraint labeling. All
of it depends only on *program content*, the topology/router, and two
queue-provisioning bits of the config — never on run-time state. Sweeps,
policy ablations and Theorem-1 ensembles simulate the same program many
times, so this module memoizes the analyses under a content key:

    (program fingerprint, topology fingerprint, router class,
     queue_capacity, allow_extension)

Fingerprints are BLAKE2 digests of the structural content (cells,
messages in declaration order, per-cell operation sequences; see
:attr:`~repro.core.program.ArrayProgram.fingerprint`), so two
structurally identical programs share entries even if built
independently, and programs that share an entry perform the same runs.
Entries are computed lazily — a FCFS run never pays for a labeling — and
shared artifacts are immutable (tuples, frozen dataclasses) or treated
as read-only by every consumer. A simulator that cannot or may not share
reads a private entry the cache never stores or counts. A program's
entry on a job's default array (:func:`default_entry`) also answers its
:class:`ProgramShape` and c*, which hold at every capacity.

The crossing *backend* (interned vs columnar, see
:func:`repro.core.crossing.resolve_backend`) is deliberately **not**
part of the key: the engines are pinned bit-identical by the
equivalence harness, so a labeling computed under one backend is the
labeling under the other — switching backends mid-process keeps every
cache entry valid and shared.

A job's default array — the linear array in the program's cell order
under its default router — is made once per cell tuple and kept with the
cache as a :class:`DefaultArray`, fingerprints included
(:meth:`AnalysisCache.default_array`): every default build of a program
shares one topology and router, and a lookup with them skips
re-rendering their fingerprints.

The cache is bounded LRU and process-global; :func:`clear_analysis_cache`
resets it, default arrays included (useful in tests and long-lived
services after memory pressure).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.arch.config import ArrayConfig
from repro.arch.links import Link, Route
from repro.arch.routing import (
    LinearRouter,
    RingRouter,
    Router,
    XYRouter,
    default_router,
)
from repro.arch.topology import (
    ExplicitLinear,
    LinearArray,
    Mesh2D,
    RingArray,
    Topology,
    Torus2D,
)
from repro.core.crossing import LookaheadConfig, least_capacity, route_capacities
from repro.core.labeling import Labeling, constraint_labeling, label_groups
from repro.core.program import ArrayProgram
from repro.core.requirements import competing_messages
from repro.errors import DeadlockedProgramError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sim.runtime import BuildPlan


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


@dataclass(frozen=True)
class ProgramShape:
    """What a sweep's canonical key needs of one program.

    ``links`` pairs every link a message crosses with its number of
    competing messages, sorted by link; ``widest`` is the largest of
    those counts and ``longest`` the longest message, in words.
    """

    fingerprint: str
    links: tuple[tuple[Link, int], ...]
    widest: int
    longest: int


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
      ordered policy's setup;
    * ``plan`` — the simulator's structure-only
      :class:`~repro.sim.runtime.BuildPlan`, sharing the route tuples of
      ``routes``;
    * ``shape`` — the program's :class:`ProgramShape`, and
      ``least_capacity`` its c*; neither depends on the entry's
      capacity, so callers ask them of :func:`default_entry`.
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
        "_plan",
        "_shape",
        "_least_capacity",
        "_has_least_capacity",
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
        self._plan: BuildPlan | None = None
        self._shape: ProgramShape | None = None
        self._least_capacity: int | None = None
        self._has_least_capacity = False

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

    @property
    def plan(self) -> BuildPlan:
        """The simulator's build plan (computed once).

        Built from ``routes`` and ``competing``, so it holds structure
        only: every program this entry serves shares it.
        """
        if self._plan is None:
            with self._lock:
                if self._plan is None:
                    from repro.sim.runtime import build_plan

                    self._plan = build_plan(
                        self._program, self.routes, self.competing
                    )
        return self._plan

    @property
    def shape(self) -> ProgramShape:
        """The program's :class:`ProgramShape` (computed once)."""
        if self._shape is None:
            with self._lock:
                if self._shape is None:
                    program = self._program
                    links = tuple(
                        sorted(
                            (link, len(names))
                            for link, names in self.competing.items()
                        )
                    )
                    self._shape = ProgramShape(
                        fingerprint=program.fingerprint,
                        links=links,
                        widest=max((count for _link, count in links), default=0),
                        longest=max(program.intern.lengths, default=0),
                    )
        return self._shape

    @property
    def least_capacity(self) -> int | None:
        """:func:`~repro.core.crossing.least_capacity` of the program
        under this entry's router (computed once)."""
        if not self._has_least_capacity:
            with self._lock:
                if not self._has_least_capacity:
                    self._least_capacity = least_capacity(
                        self._program, self._router
                    )
                    self._has_least_capacity = True
        return self._least_capacity

    def ordered_groups(
        self, labeling: Labeling
    ) -> dict[Link, tuple[tuple[str, ...], ...]]:
        """Per-link label groups for the ordered policy.

        Only cached when ``labeling`` is this entry's own auto-computed
        labeling — a caller-supplied labeling gets fresh groups.
        """
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


class DefaultArray(NamedTuple):
    """A job's default array over one cell tuple: the linear topology in
    that order, its default router, and both fingerprints."""

    topology: ExplicitLinear
    router: Router
    topology_fingerprint: str
    router_fingerprint: str


class AnalysisCache:
    """Bounded, thread-safe LRU of :class:`AnalysisEntry` objects, and of
    the :class:`DefaultArray` of each cell tuple (bounded alike)."""

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[AnalysisKey, AnalysisEntry] = OrderedDict()
        self._arrays: OrderedDict[tuple[str, ...], DefaultArray] = OrderedDict()

    def default_array(self, cells: Sequence[str]) -> DefaultArray:
        """The shared linear array over ``cells`` and its default router.

        Made on first use per cell tuple; its topology and router are
        immutable, so every default build over these cells shares them.
        """
        cells = tuple(cells)
        with self._lock:
            array = self._arrays.get(cells)
            if array is not None:
                self._arrays.move_to_end(cells)
                return array
        topology = ExplicitLinear(cells)
        router = default_router(topology)
        array = DefaultArray(
            topology,
            router,
            topology_fingerprint(topology),
            router_fingerprint(router),
        )
        with self._lock:
            array = self._arrays.setdefault(cells, array)
            while len(self._arrays) > self.maxsize:
                self._arrays.popitem(last=False)
        return array

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
        ``analysis_fingerprint`` token) — the caller must build a private
        entry rather than risk sharing wrong routes. A topology and
        router that are a :class:`DefaultArray` of this cache use its
        stored fingerprints.
        """
        cells = topology.cells if type(topology) is ExplicitLinear else None
        # A caller may build an ExplicitLinear over a list: only a tuple
        # of cells can name a default array.
        array = self._arrays.get(cells) if type(cells) is tuple else None
        if array is not None and array.topology is topology and array.router is router:
            topology_fp = array.topology_fingerprint
            router_fp = array.router_fingerprint
        else:
            topology_fp = topology_fingerprint(topology)
            router_fp = router_fingerprint(router)
            if topology_fp is None or router_fp is None:
                return None
        key = AnalysisKey(
            program=program.fingerprint,
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
        """Drop every entry and default array, and reset the hit/miss
        counters."""
        with self._lock:
            self._entries.clear()
            self._arrays.clear()
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

_DEFAULT_CONFIG = ArrayConfig()


def default_entry(program: ArrayProgram) -> AnalysisEntry:
    """``program``'s shared entry at ``ArrayConfig()`` on a job's array.

    A sweep job has no topology field: it runs on the linear array in
    the program's cell order under that array's default router, the
    cache's :class:`DefaultArray` for those cells.
    """
    array = GLOBAL_ANALYSIS_CACHE.default_array(program.cells)
    return GLOBAL_ANALYSIS_CACHE.lookup(
        program, array.topology, array.router, _DEFAULT_CONFIG
    )


def clear_analysis_cache() -> None:
    """Reset the process-global analysis cache."""
    GLOBAL_ANALYSIS_CACHE.clear()


def analysis_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the process-global cache."""
    return GLOBAL_ANALYSIS_CACHE.stats()
