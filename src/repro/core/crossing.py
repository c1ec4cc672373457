"""The crossing-off procedure (Sections 3 and 8.1).

The procedure repeatedly finds *executable pairs* — a ``W(X)`` and ``R(X)``
that are both at the front of their cell programs — and crosses them off.
A program is deadlock-free iff every operation gets crossed off.

Section 8.1 relaxes the front requirement with *lookahead*: in locating a
pair's write or read operation we may skip into the middle of a cell
program, subject to

* **R1** — only write operations may be skipped (a skipped read could hide
  a value dependency, which no amount of buffering can fix);
* **R2** — the number of skipped (still-uncrossed) write operations to any
  message must not exceed the total size of the queues that message will
  cross, because each skipped write is a word that must sit in a buffer.

Two stepping modes are provided. ``parallel`` crosses every pair executable
at the start of a step simultaneously — this reproduces Fig. 4, whose steps
3, 5 and 9 each cross two pairs. ``sequential`` crosses one pair per step
and is the mode the labeling scheme of Section 6 drives.

Implementation
--------------

The procedure is an *incremental* engine rather than a per-step simulation
of the text, and it works entirely on **dense interned ids** rather than
name strings. Four ingredients make it fast on 1k-10k-cell programs:

* **interning** — cells and messages are mapped to dense ints by the
  program's :class:`~repro.core.program.InternTable` (cell ids in program
  order, message ids in *sorted-name* order, so id comparisons order
  exactly like name comparisons). Every per-(cell, kind, message)
  dict-of-dicts of the previous engine is flattened into plain lists
  indexed by those ids:

  - per *message* id (each message has exactly one sender and one
    receiver cell): sorted write/read positions (``_wpos``/``_rpos``)
    and monotone crossed-prefix counters (``_wcrossed``/``_rcrossed``);
  - per *cell* id: the crossed bitmap, the front pointer, the cell's
    read positions plus a crossed-reads counter (reads cross in per-cell
    program order thanks to R1), the ids of messages written in the cell
    (the R2 scan list), and the incident-message list driving dirty
    marking.

  Names appear only at the API boundary: :class:`PairCrossing`,
  ``uncrossed``, ``max_skipped`` and every public query translate ids
  back through the intern table. Nothing outside this module sees an id.
* **position indexes** — locating "the next uncrossed ``W(X)`` in this
  cell" is an O(1) probe, because operations of one (cell, kind, message)
  key are always crossed in program order (``executable_pair`` only ever
  locates the *first* uncrossed match), so a monotone crossed counter
  identifies the next candidate.
* **prefix write-counts** — an R2 check needs the number of uncrossed
  writes per message between a cell's front and the candidate position.
  With crossed operations forming a prefix of each message's write index,
  that count is ``bisect(positions, pos) - crossed``; the skipped region
  is never rescanned.
* **a dirty-message worklist** — a message's executable pair depends only
  on the state of its two endpoint cells, so its cached candidate is
  invalidated only when one of those cells changes. The general
  observer/pick loop is driven by this worklist; the sequential fast
  loop below replaces it with a readiness-scan drain (next section).

Sequential readiness drain
--------------------------

The sequential fast loop (which also hosts observer callbacks, so the
Section 6 labeling drive rides it) never re-derives candidates from a
dirty set. It keeps per-message-end readiness registers exactly like
the parallel stepper's — a locatable end's position and skipped-write
snapshot, refreshed by nomination scans — plus a min-heap of ids whose
two ends are both ready. Two properties make the heap exact without
lazy deletion:

* a locatable end stays locatable until its own operation crosses
  (crossings only shrink skip regions and advance the
  first-uncrossed-read bound), so a heap entry is never stale when
  popped — the popped minimum id *is* the lowest executable name;
* after crossing at position ``p`` of a cell, the rescan resumes from
  the next uncrossed position after ``p`` with the crossed end's
  skipped-write snapshot as its running counts — the window prefix
  below ``p`` is untouched by the crossing, so the snapshot *is* the
  scan state there, and no position is ever scanned twice from the
  front.

Cell positions already visited are hopped over by per-cell
successor-skip jump lists with path compression (invariant: a position
is uncrossed iff it maps to itself, which is also how ``uncrossed`` is
reconstructed); amortized, a whole run does O(total ops · α) scan work.

Columnar backend
----------------

:mod:`repro.core.crossing_np` provides a numpy *columnar* backend with
bit-identical output: the intern table's encoded sequences are exported
once per program as flat position/count arrays (sign-coded ops,
per-message sorted write/read positions, per-cell read positions and
sorted write-mid lists, and a cumulative write-count table that answers
every R2 prefix query with one gather and one subtract), the parallel
mode steps as whole-array boolean masks with batch crossing, the
sequential mode drains the same readiness structure from a vectorized
seed, and ``PairCrossing``/``uncrossed``/``max_skipped`` materialize
lazily at the result boundary. Selection: the ``backend`` argument of
:func:`cross_off` / ``CrossingState(engine=...)`` >
:func:`configure_crossing_backend` > the ``REPRO_CROSSING_BACKEND``
environment variable (``interned``, ``columnar`` or ``auto``; default
``auto``). ``auto`` picks columnar when numpy imports and the program
has at least ``COLUMNAR_AUTO_MIN_OPS`` transfer ops (conversion must
amortize); without numpy it silently falls back to the interned engine,
while an *explicit* ``columnar`` raises
:class:`~repro.errors.ConfigError`. Observer/pick callbacks always pin
the interned engine (they need the live incremental state). The
bit-identity contract is enforced by the same differential harness that
gates the interned fast loops: identical ``steps``/``crossings``/
``uncrossed``/``max_skipped`` on every corpus, both modes, every
lookahead budget — analysis caches therefore never key on the backend.

Bucketed parallel step flush
----------------------------

Maximal-parallel stepping (cross every pair executable at step start) is
driven by a *bucketed* executable structure instead of the dirty
worklist, so a step costs O(pairs crossed + cells dirtied) rather than
re-deriving and re-sorting candidates from the whole dirty set:

* per message end there is a **readiness bit** (``_ready_w`` for the
  sender end, ``_ready_r`` for the receiver end): the end's next
  uncrossed operation is locatable *right now* under R1/R2;
* a message whose two bits are both set is executable; on that
  transition its id enters the **newly-executable bucket** exactly once
  (an ``in_bucket`` flag suppresses duplicates);
* at step start the bucket *is* the executable set — everything
  executable before was crossed by the previous step — so sorting it
  costs O(newly executable · log), never O(all executable), and the
  drain yields the batch in ascending id == ascending name order, the
  same order :meth:`CrossingState.executable_pairs` documents;
* each batch member's entry (positions + skipped-write tuples) was
  recorded by the latest nomination scan of its endpoint cells; neither
  cell changed since (changed cells are always rescanned), so the
  stored entry equals a recomputation against the step-start state;
* after the batch is crossed, only the **changed cells** are rescanned:
  one pass over each cell's lookahead window ``[front, first uncrossed
  read]`` re-nominates every locatable end in that cell (cumulative
  uncrossed-write counts give the R2 cutoff), refreshing readiness bits
  and feeding the bucket for the next step.

The invariants that make the bits safe to carry across steps: an end's
readiness depends only on its own cell's state; crossings only shrink
skip regions and advance the first-uncrossed-read bound, so a ready end
stays ready until its own operation is crossed (the apply clears both
bits of the crossed message, and the post-step rescans of its two cells
re-nominate whatever is locatable next). The general
observer/pick loop keeps the dirty worklist; its step-start snapshots
merge a sorted previous snapshot with a min-heap of newly executable
ids in O(previous + changed) instead of re-sorting.

The original scan-based implementation is preserved as a reference oracle
in ``tests/reference_crossing.py``; property tests assert bit-identical
``steps``/``crossings``/``max_skipped`` in both modes.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Protocol

from repro.core.ops import Op
from repro.core.program import ArrayProgram
from repro.errors import ConfigError

#: Below this many transfer ops, ``auto`` keeps the interned engine —
#: the columnar conversion would not amortize on a one-shot analysis.
COLUMNAR_AUTO_MIN_OPS = 4096

_BACKEND_NAMES = ("auto", "interned", "columnar")

_configured_backend: str | None = None


def configure_crossing_backend(backend: str | None) -> str | None:
    """Set the process-wide crossing-backend preference.

    ``backend`` is ``"auto"``, ``"interned"``, ``"columnar"`` or ``None``
    (clear the preference). Per-call ``backend=`` arguments still win;
    the ``REPRO_CROSSING_BACKEND`` environment variable is consulted only
    when neither is set. Returns the previous preference so callers can
    restore it.
    """
    global _configured_backend
    if backend is not None and backend not in _BACKEND_NAMES:
        raise ConfigError(
            f"unknown crossing backend {backend!r}; "
            f"choose one of {', '.join(_BACKEND_NAMES)}"
        )
    previous = _configured_backend
    _configured_backend = backend
    return previous


def configured_crossing_backend() -> str | None:
    """The process-wide preference set by :func:`configure_crossing_backend`."""
    return _configured_backend


def resolve_backend(program: ArrayProgram, backend: str | None = None) -> str:
    """Resolve the crossing backend for one run over ``program``.

    Resolution order: explicit ``backend`` argument, then
    :func:`configure_crossing_backend`, then ``REPRO_CROSSING_BACKEND``,
    then ``"auto"``. ``auto`` returns ``"columnar"`` when numpy imports
    and the program has at least :data:`COLUMNAR_AUTO_MIN_OPS` transfer
    ops, else ``"interned"`` (silent fallback — the zero-dependency
    install never errors). An explicit ``"columnar"`` without numpy
    raises :class:`~repro.errors.ConfigError`.
    """
    name = backend if backend is not None else _configured_backend
    if name is None:
        name = os.environ.get("REPRO_CROSSING_BACKEND") or "auto"
    if name not in _BACKEND_NAMES:
        raise ConfigError(
            f"unknown crossing backend {name!r}; "
            f"choose one of {', '.join(_BACKEND_NAMES)}"
        )
    if name == "interned":
        return "interned"
    from repro.core import crossing_np

    if name == "columnar":
        if not crossing_np.numpy_available():
            raise ConfigError(
                "crossing backend 'columnar' requires numpy (install the "
                "repro[fast] extra); use 'interned' or 'auto' for the "
                "pure-Python engine"
            )
        return "columnar"
    if (
        crossing_np.numpy_available()
        and program.total_transfer_ops >= COLUMNAR_AUTO_MIN_OPS
    ):
        return "columnar"
    return "interned"


@dataclass(frozen=True)
class LookaheadConfig:
    """Lookahead parameters for the crossing-off procedure.

    ``route_capacity`` bounds skipped writes per message (rule R2): it maps
    each message name to the total buffering along its route. Messages not
    present get ``default_capacity``. Use ``math.inf`` for the
    queue-extension regime where spilling makes buffering unbounded.
    """

    route_capacity: dict[str, float] = field(default_factory=dict)
    default_capacity: float = 0.0

    def capacity(self, message: str) -> float:
        """R2 bound for ``message``."""
        return self.route_capacity.get(message, self.default_capacity)


class PairCrossing(NamedTuple):
    """One crossed-off executable pair.

    A named tuple rather than a dataclass: the parallel fast loop
    materializes one per crossing, and tuple construction is the cheaper
    of the two by ~3x at 10k-cell batch sizes.
    """

    step: int
    message: str
    sender: str
    sender_pos: int
    receiver: str
    receiver_pos: int
    skipped_sender: tuple[tuple[str, int], ...] = ()
    skipped_receiver: tuple[tuple[str, int], ...] = ()

    @property
    def skipped_messages(self) -> set[str]:
        """Messages over whose writes this pair's location skipped."""
        return {m for m, _count in self.skipped_sender} | {
            m for m, _count in self.skipped_receiver
        }

    def __str__(self) -> str:
        return (
            f"step {self.step}: {self.message} "
            f"[W@{self.sender}:{self.sender_pos}, R@{self.receiver}:{self.receiver_pos}]"
        )


@dataclass
class CrossingResult:
    """Outcome of running the crossing-off procedure."""

    deadlock_free: bool
    steps: list[list[PairCrossing]]
    crossings: list[PairCrossing]
    uncrossed: dict[str, list[Op]]
    max_skipped: dict[str, int]
    lookahead_used: bool

    @property
    def step_count(self) -> int:
        """Number of steps the procedure took."""
        return len(self.steps)

    @property
    def pairs_crossed(self) -> int:
        """Total executable pairs crossed off."""
        return len(self.crossings)

    def pairs_in_step(self, step: int) -> list[PairCrossing]:
        """Pairs crossed in 1-based ``step``."""
        return self.steps[step - 1]


class _LastCrossedView(Mapping):
    """Read-only name-keyed view of the per-cell last-crossed message."""

    __slots__ = ("_state",)

    def __init__(self, state: "CrossingState") -> None:
        self._state = state

    def __getitem__(self, cell: str) -> str | None:
        state = self._state
        mid = state._last_crossed[state.intern.cell_ids[cell]]
        return None if mid < 0 else state.intern.message_names[mid]

    def __iter__(self) -> Iterator[str]:
        return iter(self._state.intern.cell_names)

    def __len__(self) -> int:
        return len(self._state.intern.cell_names)


class CrossingState:
    """Mutable state of the procedure over one program.

    Exposes the queries the Section 6 labeling scheme needs while it drives
    a sequential crossing-off run. Pairs passed to :meth:`cross` must come
    from :meth:`executable_pair`/:meth:`executable_pairs` of this state —
    the incremental indexes rely on operations being crossed first-uncrossed
    first, and :meth:`cross` rejects anything else.

    Internally everything is indexed by the program's interned cell and
    message ids (see the module docstring for the layout); the public
    queries and results speak names.
    """

    __slots__ = (
        "program",
        "lookahead",
        "engine",
        "intern",
        "total_remaining",
        "_senders",
        "_receivers",
        "_enc",
        "_crossed",
        "_fronts",
        "_remaining",
        "_last_crossed",
        "_max_skipped",
        "_wpos",
        "_wcrossed",
        "_rpos",
        "_rcrossed",
        "_cell_reads",
        "_cell_reads_crossed",
        "_cell_write_mids",
        "_cap",
        "_executable",
        "_exec_order",
        "_exec_added",
        "_dirty",
        "_incident",
    )

    def __init__(
        self,
        program: ArrayProgram,
        lookahead: LookaheadConfig | None = None,
        engine: str | None = None,
    ) -> None:
        self.program = program
        self.lookahead = lookahead
        # The resolved kernel preference for drivers over this state
        # (cross_off consults the same resolution). The incremental
        # query API below is always the interned implementation; the
        # columnar kernels live in repro.core.crossing_np and are
        # dispatched at the cross_off boundary.
        self.engine = resolve_backend(program, engine)
        intern = program.intern
        self.intern = intern
        ncells = len(intern.cell_names)
        nmsgs = len(intern.message_names)
        self._senders = intern.senders
        self._receivers = intern.receivers
        enc = intern.encoded_transfers
        self._enc = enc
        self._crossed: list[bytearray] = [bytearray(len(seq)) for seq in enc]
        self._fronts: list[int] = [0] * ncells
        self._remaining: list[int] = [2 * length for length in intern.lengths]
        self.total_remaining = sum(self._remaining)
        self._last_crossed: list[int] = [-1] * ncells
        self._max_skipped: list[int] = [0] * nmsgs
        # --- incremental indexes (see _ensure_indexes; the bucketed
        # parallel loop derives everything from `enc` and the crossed
        # bitmaps, so the position indexes are built on first use by the
        # worklist paths) ---
        self._wcrossed: list[int] = [0] * nmsgs
        self._rcrossed: list[int] = [0] * nmsgs
        self._cell_reads_crossed: list[int] = [0] * ncells
        self._wpos: list[list[int]] | None = None
        self._rpos: list[list[int]] | None = None
        self._cell_reads: list[list[int]] | None = None
        self._cell_write_mids: list[list[int]] | None = None
        # R2 bounds resolved to a per-id list once; None without lookahead.
        self._cap: list[float] | None = (
            None
            if lookahead is None
            else [lookahead.capacity(name) for name in intern.message_names]
        )
        # Candidate worklist: each message's executable pair is cached in
        # `_executable` as a lightweight (sender_pos, receiver_pos,
        # skipped_sender, skipped_receiver) id-tuple (absence = no pair)
        # and recomputed only for ids in `_dirty` — a message is dirtied
        # exactly when one of its endpoint cells changes.
        self._executable: dict[int, tuple] = {}
        self._dirty: set[int] = set(range(nmsgs))
        # Step-start snapshot state for executable_pairs(): the previous
        # snapshot (id-sorted, lazily pruned) plus a min-heap of ids that
        # (re)entered `_executable` since — merging the two is
        # O(previous + changed), never a re-sort of the whole set.
        self._exec_order: list[int] = []
        self._exec_added: list[int] = []
        # Incident lists (dirty marking for the worklist paths) are built
        # on first use — the bucketed parallel loop never needs them —
        # and pruned as messages finish, so dirty marking only ever walks
        # live messages.
        self._incident: list[list[int]] | None = None

    def _ensure_indexes(self) -> None:
        """Build the per-message position indexes on first use.

        The per-(message, kind) sorted position lists, each cell's read
        positions and its R2 scan list are what :meth:`_locate_end` and
        the worklist machinery probe; they are derived purely from the
        immutable encoded transfer sequences, so building them at any
        point of a run is safe (the monotone crossed counters live
        separately and are maintained from construction).
        """
        if self._wpos is not None:
            return
        nmsgs = len(self.intern.message_names)
        wpos: list[list[int]] = [[] for _ in range(nmsgs)]
        rpos: list[list[int]] = [[] for _ in range(nmsgs)]
        cell_reads: list[list[int]] = []
        cell_write_mids: list[list[int]] = []
        for seq in self._enc:
            reads_here: list[int] = []
            wmids: list[int] = []
            for pos, (is_write, mid) in enumerate(seq):
                if is_write:
                    positions = wpos[mid]
                    if not positions:
                        wmids.append(mid)
                    positions.append(pos)
                else:
                    rpos[mid].append(pos)
                    reads_here.append(pos)
            cell_reads.append(reads_here)
            cell_write_mids.append(wmids)
        self._wpos = wpos
        self._rpos = rpos
        self._cell_reads = cell_reads
        self._cell_write_mids = cell_write_mids

    def _ensure_incident(self) -> list[list[int]]:
        """Build the per-cell incident-message lists on first use."""
        incident = self._incident
        if incident is None:
            incident = [[] for _ in range(len(self.intern.cell_names))]
            for mid in range(len(self.intern.message_names)):
                if self._remaining[mid] > 0:
                    incident[self._senders[mid]].append(mid)
                    incident[self._receivers[mid]].append(mid)
            self._incident = incident
        return incident

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every R/W operation has been crossed off."""
        return self.total_remaining == 0

    @property
    def fronts(self) -> dict[str, int]:
        """Front pointer of every cell, by name (boundary view)."""
        return dict(zip(self.intern.cell_names, self._fronts))

    @property
    def remaining_per_message(self) -> dict[str, int]:
        """Uncrossed R+W operation count per message, by name."""
        return dict(zip(self.intern.message_names, self._remaining))

    @property
    def max_skipped(self) -> dict[str, int]:
        """Peak skipped-write count per message, by name."""
        return dict(zip(self.intern.message_names, self._max_skipped))

    @property
    def last_crossed_message(self) -> Mapping[str, str | None]:
        """Per-cell name of the most recently crossed message (O(1) view)."""
        return _LastCrossedView(self)

    def uncrossed_ops(self, cell: str) -> list[Op]:
        """Remaining (uncrossed) operations of ``cell``, in program order."""
        crossed = self._crossed[self.intern.cell_ids[cell]]
        return [
            op
            for op, done in zip(self.program.transfers(cell), crossed)
            if not done
        ]

    def future_messages(self, cell: str, exclude: str | None = None) -> set[str]:
        """Messages ``cell`` will still access, optionally excluding one.

        Computed on demand from the cell's crossed bitmap — cell programs
        are short, and dropping the per-op remaining-count bookkeeping
        this query used to rely on keeps the apply paths lean.
        """
        cid = self.intern.cell_ids[cell]
        names = self.intern.message_names
        crossed = self._crossed[cid]
        out = {
            names[mid]
            for pos, (_is_write, mid) in enumerate(self._enc[cid])
            if not crossed[pos]
        }
        out.discard(exclude or "")
        return out

    def _locate_end(
        self, cid: int, positions: list[int], key_crossed: int
    ) -> tuple[int, tuple[tuple[int, int], ...]] | None:
        """Find the next uncrossed op of one pair end in cell ``cid``.

        ``positions``/``key_crossed`` are the message's write index (sender
        end) or read index (receiver end). Without lookahead only the
        front operation qualifies. With lookahead the candidate may sit
        deeper, subject to no uncrossed read before it (R1) and
        per-message skipped-write budgets (R2), both answered from the
        indexes without scanning the skipped region. Returns ``(pos,
        skipped)`` with ``skipped`` as an id-sorted tuple (which is also
        name-sorted: message ids follow sorted-name order).
        """
        if key_crossed >= len(positions):
            return None
        pos = positions[key_crossed]
        if pos == self._fronts[cid]:
            # Everything before the front is crossed: nothing was skipped.
            return (pos, ())
        cap = self._cap
        if cap is None:
            return None
        # R1: an uncrossed read before `pos` blocks the skip.
        reads = self._cell_reads[cid]
        reads_crossed = self._cell_reads_crossed[cid]
        if reads_crossed < len(reads) and reads[reads_crossed] < pos:
            return None
        # R2: uncrossed writes per message in [front, pos) from the prefix
        # counts — crossed writes form a prefix of each message's index.
        skipped: list[tuple[int, int]] = []
        wpos = self._wpos
        wcrossed = self._wcrossed
        for mid in self._cell_write_mids[cid]:
            count = bisect_left(wpos[mid], pos) - wcrossed[mid]
            if count > 0:
                if count > cap[mid]:
                    return None  # R2: buffering along the route exhausted
                skipped.append((mid, count))
        skipped.sort()
        return (pos, tuple(skipped))

    def _compute_entry(self, mid: int) -> tuple | None:
        """Locate both ends of message ``mid``'s executable pair, if any."""
        if self._remaining[mid] == 0:
            return None
        write = self._locate_end(
            self._senders[mid], self._wpos[mid], self._wcrossed[mid]
        )
        if write is None:
            return None
        read = self._locate_end(
            self._receivers[mid], self._rpos[mid], self._rcrossed[mid]
        )
        if read is None:
            return None
        return (write[0], read[0], write[1], read[1])

    def _flush_dirty(self) -> None:
        """Re-locate every dirtied message, updating the executable set.

        Ids that (re)enter the executable set are also pushed into
        ``_exec_added`` — the "newly executable" bucket the next
        :meth:`executable_pairs` snapshot merges with the previous one.
        """
        dirty = self._dirty
        if not dirty:
            return
        self._ensure_indexes()
        executable = self._executable
        compute = self._compute_entry
        added = self._exec_added
        for mid in dirty:
            entry = compute(mid)
            if entry is None:
                executable.pop(mid, None)
            else:
                if mid not in executable:
                    heappush(added, mid)
                executable[mid] = entry
        dirty.clear()

    def _as_pair(self, mid: int, entry: tuple, step: int = 0) -> PairCrossing:
        intern = self.intern
        names = intern.message_names
        cells = intern.cell_names
        sender_pos, receiver_pos, skipped_sender, skipped_receiver = entry
        if skipped_sender:
            skipped_sender = tuple((names[m], c) for m, c in skipped_sender)
        if skipped_receiver:
            skipped_receiver = tuple(
                (names[m], c) for m, c in skipped_receiver
            )
        return PairCrossing(
            step,
            names[mid],
            cells[self._senders[mid]],
            sender_pos,
            cells[self._receivers[mid]],
            receiver_pos,
            skipped_sender,
            skipped_receiver,
        )

    def executable_pair(self, message: str) -> PairCrossing | None:
        """The executable pair for ``message``, if one exists right now."""
        mid = self.intern.message_ids[message]
        if mid in self._dirty:
            self._dirty.discard(mid)
            self._ensure_indexes()
            entry = self._compute_entry(mid)
            if entry is None:
                self._executable.pop(mid, None)
            else:
                if mid not in self._executable:
                    heappush(self._exec_added, mid)
                self._executable[mid] = entry
        cached = self._executable.get(mid)
        if cached is None:
            return None
        return self._as_pair(mid, cached)

    def executable_pairs(self) -> list[PairCrossing]:
        """All currently executable pairs, ordered by message name.

        The id order (== name order, by intern construction) comes from
        merging the previous snapshot with the newly-executable bucket —
        O(previous + changed) per call — rather than sorting the whole
        executable set; stale ids and duplicates drop out during the
        merge, and the merged list becomes the next snapshot.
        """
        self._flush_dirty()
        executable = self._executable
        order = self._exec_order
        added = self._exec_added
        merged: list[int] = []
        i = 0
        size = len(order)
        prev = -1
        while added or i < size:
            if added and (i >= size or added[0] <= order[i]):
                mid = heappop(added)
            else:
                mid = order[i]
                i += 1
            if mid != prev and mid in executable:
                merged.append(mid)
                prev = mid
        self._exec_order = merged
        return [self._as_pair(mid, executable[mid]) for mid in merged]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _apply_cross(
        self, mid: int, sender_pos: int, receiver_pos: int,
        skipped_sender: tuple, skipped_receiver: tuple,
    ) -> None:
        """Mutation core shared by :meth:`cross` and the fast loop.

        ``skipped_*`` tuples carry interned ids, not names.
        """
        dirty = self._dirty
        fronts = self._fronts
        senders = self._senders
        receivers = self._receivers
        sender = senders[mid]
        receiver = receivers[mid]
        for cid, pos, is_write in (
            (sender, sender_pos, True),
            (receiver, receiver_pos, False),
        ):
            if is_write:
                self._wcrossed[mid] += 1
            else:
                self._rcrossed[mid] += 1
                self._cell_reads_crossed[cid] += 1
            crossed_list = self._crossed[cid]
            crossed_list[pos] = True
            self._last_crossed[cid] = mid
            # The front moves iff the crossed op *was* the front.
            if pos == fronts[cid]:
                size = len(crossed_list)
                front = pos + 1
                while front < size and crossed_list[front]:
                    front += 1
                fronts[cid] = front
                # The front moved: every incident message's eligibility
                # (front fast path, skip region) may have changed.
                dirty.update(self._incident[cid])
            else:
                # Front unchanged: a message's candidate in this cell is
                # affected only if the crossed position lies *before* its
                # first uncrossed op here — R1/R2 look solely at the
                # region up to the candidate, and the first-uncrossed
                # pointers of other messages did not move. Each incident
                # message keys exactly one index in this cell: its write
                # index if this cell is its sender, its read index if its
                # receiver (sender == receiver is impossible).
                wpos = self._wpos
                wcrossed = self._wcrossed
                rpos = self._rpos
                rcrossed = self._rcrossed
                for m in self._incident[cid]:
                    if m in dirty:
                        continue
                    if senders[m] == cid:
                        positions = wpos[m]
                        k = wcrossed[m]
                    else:
                        positions = rpos[m]
                        k = rcrossed[m]
                    if k < len(positions) and pos < positions[k]:
                        dirty.add(m)
        # The crossed message's own candidate always changes (and must be
        # dropped once its remaining count reaches zero) — the positional
        # probes above miss it when its final operation in a cell crossed.
        dirty.add(mid)
        remaining = self._remaining
        remaining[mid] -= 2
        if remaining[mid] == 0:
            # Finished: stop dirty marking from ever touching it again.
            self._incident[sender].remove(mid)
            self._incident[receiver].remove(mid)
        self.total_remaining -= 2
        if skipped_sender or skipped_receiver:
            max_skipped = self._max_skipped
            for m, count in skipped_sender + skipped_receiver:
                if count > max_skipped[m]:
                    max_skipped[m] = count

    def cross(self, pair: PairCrossing, step: int) -> PairCrossing:
        """Cross off ``pair``'s two operations, returning it stamped with
        the step number."""
        self._ensure_indexes()
        intern = self.intern
        message_ids = intern.message_ids
        mid = message_ids.get(pair.message)
        valid = (
            mid is not None
            and pair.sender == intern.cell_names[self._senders[mid]]
            and pair.receiver == intern.cell_names[self._receivers[mid]]
        )
        if valid:
            for positions, key_crossed, pos in (
                (self._wpos[mid], self._wcrossed[mid], pair.sender_pos),
                (self._rpos[mid], self._rcrossed[mid], pair.receiver_pos),
            ):
                if key_crossed >= len(positions) or positions[key_crossed] != pos:
                    valid = False
                    break
        if not valid:
            raise ValueError(
                f"pair {pair} does not cross the first uncrossed "
                f"operation on {pair.message!r} of its endpoint cells; "
                f"only pairs returned by executable_pair(s) can be crossed"
            )
        self._ensure_incident()
        self._apply_cross(
            mid,
            pair.sender_pos,
            pair.receiver_pos,
            tuple((message_ids[name], c) for name, c in pair.skipped_sender),
            tuple((message_ids[name], c) for name, c in pair.skipped_receiver),
        )
        return PairCrossing(
            step=step,
            message=pair.message,
            sender=pair.sender,
            sender_pos=pair.sender_pos,
            receiver=pair.receiver,
            receiver_pos=pair.receiver_pos,
            skipped_sender=pair.skipped_sender,
            skipped_receiver=pair.skipped_receiver,
        )


class PairObserver(Protocol):
    """Hook invoked just before each pair is crossed off (labeling uses it)."""

    def __call__(self, state: CrossingState, pair: PairCrossing) -> None: ...


def _run_parallel_fast(
    state: CrossingState,
    steps: list[list[PairCrossing]],
    crossings: list[PairCrossing],
) -> None:
    """Bucketed maximal-parallel stepping (the analysis fast path).

    Implements the structure described under "Bucketed parallel step
    flush" in the module docstring with everything in locals — this
    function and the scan closure below are the hottest loops of the
    whole compile-time analysis at 10k cells. Output is bit-identical
    to driving :meth:`CrossingState.executable_pairs` +
    :meth:`CrossingState.cross` step by step:

    * the bucket holds exactly the messages that became executable since
      the previous step (deduplicated by ``in_bucket``); sorting it
      (O(new log new), never the whole executable set) yields the
      step batch in ascending id == ascending name order;
    * each batch member's candidate entry (positions + skipped-write
      tuples, id-sorted == name-sorted) was recorded by the last
      nomination scan of its endpoint cells — both unchanged since, so
      the stored entry equals what a step-start recomputation would
      locate;
    * crossing only shrinks skip regions and advances
      first-uncrossed-read bounds, so a located end stays located until
      its own operation crosses — readiness bits survive across steps
      and only the cells a batch touched are rescanned.
    """
    intern = state.intern
    names = intern.message_names
    cells = intern.cell_names
    nmsgs = len(names)
    enc_all = state._enc
    crossed_all = state._crossed
    fronts = state._fronts
    cap = state._cap
    senders = state._senders
    receivers = state._receivers
    remaining = state._remaining
    max_skipped = state._max_skipped
    ready_w = bytearray(nmsgs)
    ready_r = bytearray(nmsgs)
    in_bucket = bytearray(nmsgs)
    bucket: list[int] = []
    bucket_push = bucket.append
    w_cand_pos = [0] * nmsgs
    w_cand_skip: list[tuple] = [()] * nmsgs
    r_cand_pos = [0] * nmsgs
    r_cand_skip: list[tuple] = [()] * nmsgs
    changed_flag = bytearray(len(cells))
    pair_new = PairCrossing

    def scan(cids) -> None:
        """Re-nominate every locatable pair end in each cell of ``cids``.

        Per cell, one pass over the lookahead window ``[front, first
        uncrossed read]``: the first uncrossed operation of each (kind,
        message) key met before the R2 cutoff is that end's candidate.
        Cumulative uncrossed-write counts give each candidate's skipped
        tuple and the cutoff — once skipping one more write of some
        message would exceed its capacity, nothing deeper can be
        located; the first uncrossed read nominates its receiver end
        and ends the window (R1). (Batched over cells so the per-step
        rescan pays one call, not one per changed cell.)
        """
        for cid in cids:
            enc = enc_all[cid]
            size = len(enc)
            crossed = crossed_all[cid]
            # Advance the front lazily over ops the batch crossed — the
            # apply loop leaves front movement to the rescan.
            pos = fronts[cid]
            while pos < size and crossed[pos]:
                pos += 1
            fronts[cid] = pos
            counts: dict[int, int] | None = None
            while pos < size:
                if not crossed[pos]:
                    is_write, mid = enc[pos]
                    if not is_write:
                        # The cell's first uncrossed read: necessarily
                        # this message's next read, hence its
                        # receiver-end candidate — and the end of the
                        # window (R1).
                        ready_r[mid] = 1
                        r_cand_pos[mid] = pos
                        if not counts:
                            r_cand_skip[mid] = ()
                        elif len(counts) == 1:
                            r_cand_skip[mid] = tuple(counts.items())
                        else:
                            r_cand_skip[mid] = tuple(sorted(counts.items()))
                        if ready_w[mid] and not in_bucket[mid]:
                            in_bucket[mid] = 1
                            bucket_push(mid)
                        break
                    if counts is None or mid not in counts:
                        # This message's next write, locatable in budget.
                        ready_w[mid] = 1
                        w_cand_pos[mid] = pos
                        if not counts:
                            w_cand_skip[mid] = ()
                        elif len(counts) == 1:
                            w_cand_skip[mid] = tuple(counts.items())
                        else:
                            w_cand_skip[mid] = tuple(sorted(counts.items()))
                        if ready_r[mid] and not in_bucket[mid]:
                            in_bucket[mid] = 1
                            bucket_push(mid)
                    if cap is None:
                        break  # no lookahead: the front op is the window
                    if counts is None:
                        counts = {}
                    skipped = counts.get(mid, 0) + 1
                    counts[mid] = skipped
                    if skipped > cap[mid]:
                        break  # R2: deeper candidates would overfill mid
                pos += 1

    scan(range(len(cells)))
    total_remaining = state.total_remaining
    while bucket:
        # Step-start snapshot: the bucket *is* the executable set (what
        # was executable before is crossed; what is executable now was
        # pushed by the rescans), already deduplicated.
        bucket.sort()
        step_no = len(steps) + 1
        this_step: list[PairCrossing] = []
        stamp = this_step.append
        changed: list[int] = []
        changed_push = changed.append
        for mid in bucket:
            in_bucket[mid] = 0
            sender = senders[mid]
            receiver = receivers[mid]
            sender_pos = w_cand_pos[mid]
            receiver_pos = r_cand_pos[mid]
            skip_s = w_cand_skip[mid]
            skip_r = r_cand_skip[mid]
            # --- apply: crossed bits + readiness only; front movement
            # and the worklist-path counters are left to the rescans
            # (this runner owns its state — the result reads nothing
            # but the crossed bitmaps, remaining counts, max_skipped).
            ready_w[mid] = 0
            ready_r[mid] = 0
            remaining[mid] -= 2
            total_remaining -= 2
            crossed_all[sender][sender_pos] = 1
            crossed_all[receiver][receiver_pos] = 1
            if not changed_flag[sender]:
                changed_flag[sender] = 1
                changed_push(sender)
            if not changed_flag[receiver]:
                changed_flag[receiver] = 1
                changed_push(receiver)
            # --- materialize (ids -> names only here) -----------------
            if skip_s:
                for m, count in skip_s:
                    if count > max_skipped[m]:
                        max_skipped[m] = count
                skip_s = tuple([(names[m], c) for m, c in skip_s])
            if skip_r:
                for m, count in skip_r:
                    if count > max_skipped[m]:
                        max_skipped[m] = count
                skip_r = tuple([(names[m], c) for m, c in skip_r])
            stamp(
                pair_new(
                    step_no,
                    names[mid],
                    cells[sender],
                    sender_pos,
                    cells[receiver],
                    receiver_pos,
                    skip_s,
                    skip_r,
                )
            )
        crossings.extend(this_step)
        steps.append(this_step)
        bucket.clear()
        for cid in changed:
            changed_flag[cid] = 0
        scan(changed)
    state.total_remaining = total_remaining


def _run_sequential_fast(
    state: CrossingState,
    steps: list[list[PairCrossing]],
    crossings: list[PairCrossing],
    observer: PairObserver | None,
) -> None:
    """Readiness-scan sequential drain (see the module docstring).

    One pair per step, always the lowest executable message name: the
    heap of both-ends-ready ids is exact (a located end stays located
    until its own op crosses), so the popped minimum needs no
    re-validation. After each crossing the two endpoint cells are
    rescanned *from the crossed position*, restarting from the crossed
    end's skipped-write snapshot; successor-skip jump lists (position
    uncrossed iff it maps to itself) keep scans on uncrossed ops only.

    Observer callbacks run here too (the labeling drive): each gets the
    unstamped pair before mutation, exactly like the general loop, and
    may read the documented state views (``future_messages``,
    ``last_crossed_message``, ``fronts``, ``uncrossed_ops``,
    ``max_skipped``, ``remaining_per_message``) — all maintained per
    crossing. The worklist caches (``executable_pair(s)``) are *not*
    refreshed on this path; observers needing those run through the
    general ``pick`` loop.
    """
    intern = state.intern
    names = intern.message_names
    cells = intern.cell_names
    nmsgs = len(names)
    enc = intern.signed_transfers
    nxt = [list(range(len(seq) + 1)) for seq in enc]
    senders = state._senders
    receivers = state._receivers
    cap = state._cap
    crossed_all = state._crossed
    fronts = state._fronts
    last_crossed = state._last_crossed
    wcrossed = state._wcrossed
    rcrossed = state._rcrossed
    cell_reads_crossed = state._cell_reads_crossed
    remaining = state._remaining
    max_skipped = state._max_skipped
    ready_w = bytearray(nmsgs)
    ready_r = bytearray(nmsgs)
    in_heap = bytearray(nmsgs)
    w_pos = [0] * nmsgs
    r_pos = [0] * nmsgs
    w_skip: list[tuple] = [()] * nmsgs
    r_skip: list[tuple] = [()] * nmsgs
    heap: list[int] = []
    pair_new = PairCrossing

    def scan(cid: int, start: int, counts: dict[int, int] | None) -> None:
        """Nominate every locatable end at/after ``start`` in ``cid``.

        ``counts`` carries the skipped-write tally of the window below
        ``start`` (``None`` = fresh window from the front). Stops at the
        first uncrossed read (R1, nominating its receiver end) or at the
        first write that exhausts an R2 budget; on the way, the first
        uncrossed write of each message met is nominated with the
        current tally as its id-sorted skip snapshot.
        """
        seq = enc[cid]
        size = len(seq)
        nx = nxt[cid]
        j = start
        if j >= size:
            return
        pos = nx[j]
        if pos != j:
            while nx[pos] != pos:
                pos = nx[pos]
            while nx[j] != pos:
                nx[j], j = pos, nx[j]
        while pos < size:
            mid = seq[pos]
            if mid < 0:
                mid = ~mid
                ready_r[mid] = 1
                r_pos[mid] = pos
                if not counts:
                    r_skip[mid] = ()
                elif len(counts) == 1:
                    r_skip[mid] = tuple(counts.items())
                else:
                    r_skip[mid] = tuple(sorted(counts.items()))
                if ready_w[mid] and not in_heap[mid]:
                    in_heap[mid] = 1
                    heappush(heap, mid)
                return
            if counts is None:
                ready_w[mid] = 1
                w_pos[mid] = pos
                w_skip[mid] = ()
                if ready_r[mid] and not in_heap[mid]:
                    in_heap[mid] = 1
                    heappush(heap, mid)
                if cap is None:
                    return  # no lookahead: the front op is the window
                counts = {mid: 1}
                if cap[mid] < 1:
                    return
            else:
                k = counts.get(mid)
                if k is None:
                    ready_w[mid] = 1
                    w_pos[mid] = pos
                    if len(counts) == 1:
                        w_skip[mid] = tuple(counts.items())
                    else:
                        w_skip[mid] = tuple(sorted(counts.items()))
                    if ready_r[mid] and not in_heap[mid]:
                        in_heap[mid] = 1
                        heappush(heap, mid)
                    counts[mid] = 1
                    if cap[mid] < 1:
                        return
                else:
                    k += 1
                    counts[mid] = k
                    if k > cap[mid]:
                        return  # R2: deeper candidates would overfill mid
            j = pos + 1
            pos = nx[j]
            if pos != j:
                while nx[pos] != pos:
                    pos = nx[pos]
                while nx[j] != pos:
                    nx[j], j = pos, nx[j]

    for cid in range(len(cells)):
        scan(cid, 0, None)
    total_remaining = state.total_remaining
    while heap:
        mid = heappop(heap)
        in_heap[mid] = 0
        ready_w[mid] = 0
        ready_r[mid] = 0
        sp = w_pos[mid]
        rp = r_pos[mid]
        ss = w_skip[mid]
        sr = r_skip[mid]
        s = senders[mid]
        r = receivers[mid]
        step_no = len(steps) + 1
        # --- materialize (ids -> names only here) ---------------------
        skip_s = tuple((names[m], c) for m, c in ss) if ss else ()
        skip_r = tuple((names[m], c) for m, c in sr) if sr else ()
        stamped = pair_new(
            step_no, names[mid], cells[s], sp, cells[r], rp, skip_s, skip_r
        )
        if observer is not None:
            # The general loop hands observers the unstamped pair (the
            # step number is assigned by the crossing), before mutation.
            observer(state, stamped._replace(step=0))
        # --- apply ----------------------------------------------------
        wcrossed[mid] += 1
        rcrossed[mid] += 1
        cell_reads_crossed[r] += 1
        remaining[mid] -= 2
        total_remaining -= 2
        last_crossed[s] = mid
        last_crossed[r] = mid
        crossed_all[s][sp] = 1
        crossed_all[r][rp] = 1
        nxt[s][sp] = sp + 1
        nxt[r][rp] = rp + 1
        for cid, pos in ((s, sp), (r, rp)):
            if fronts[cid] == pos:
                nx = nxt[cid]
                j = pos + 1
                front = nx[j]
                if front != j:
                    while nx[front] != front:
                        front = nx[front]
                    while nx[j] != front:
                        nx[j], j = front, nx[j]
                fronts[cid] = front
        if ss or sr:
            for m, c in ss:
                if c > max_skipped[m]:
                    max_skipped[m] = c
            for m, c in sr:
                if c > max_skipped[m]:
                    max_skipped[m] = c
        steps.append([stamped])
        crossings.append(stamped)
        # --- rescan from the crossed positions ------------------------
        scan(s, sp + 1, dict(ss) if ss else None)
        scan(r, rp + 1, dict(sr) if sr else None)
    state.total_remaining = total_remaining


def cross_off(
    program: ArrayProgram,
    lookahead: LookaheadConfig | None = None,
    mode: str = "parallel",
    observer: PairObserver | None = None,
    pick: Callable[[list[PairCrossing]], PairCrossing] | None = None,
    backend: str | None = None,
) -> CrossingResult:
    """Run the crossing-off procedure on ``program``.

    Args:
        program: the program under analysis.
        lookahead: enable Section 8.1 lookahead with the given R2 bounds;
            ``None`` reproduces the strict Section 3 procedure.
        mode: ``"parallel"`` crosses all pairs executable at step start
            (Fig. 4's stepping); ``"sequential"`` crosses one pair per step.
        observer: called with the live state before each pair is crossed —
            the Section 6 labeling scheme plugs in here.
        pick: sequential-mode tie-breaker among executable pairs; defaults
            to lowest message name (which reproduces the paper's choice of
            A as the first pair in the Fig. 7 walkthrough).
        backend: kernel selection — ``"interned"``, ``"columnar"`` or
            ``"auto"`` (see "Columnar backend" in the module docstring);
            ``None`` defers to :func:`configure_crossing_backend` /
            ``REPRO_CROSSING_BACKEND``. Output never depends on the
            backend; observer/pick callbacks pin the interned engine.

    Returns:
        A :class:`CrossingResult`; ``deadlock_free`` is True iff every
        operation was crossed off.
    """
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    if observer is None and pick is None:
        if resolve_backend(program, backend) == "columnar":
            from repro.core import crossing_np

            return crossing_np.columnar_cross_off(program, lookahead, mode)
    elif backend is not None and backend not in _BACKEND_NAMES:
        raise ConfigError(
            f"unknown crossing backend {backend!r}; "
            f"choose one of {', '.join(_BACKEND_NAMES)}"
        )
    state = CrossingState(program, lookahead, engine="interned")
    steps: list[list[PairCrossing]] = []
    crossings: list[PairCrossing] = []
    if pick is None and mode == "sequential":
        _run_sequential_fast(state, steps, crossings, observer)
    elif pick is None and observer is None:
        _run_parallel_fast(state, steps, crossings)
    else:
        while not state.done:
            pairs = state.executable_pairs()
            if not pairs:
                break
            step_no = len(steps) + 1
            if mode == "sequential":
                chosen_pair = pick(pairs) if pick is not None else pairs[0]
                pairs = [chosen_pair]
            this_step = []
            for pair in pairs:
                if observer is not None:
                    observer(state, pair)
                stamped = state.cross(pair, step_no)
                this_step.append(stamped)
                crossings.append(stamped)
            steps.append(this_step)
    uncrossed: dict[str, list[Op]] = {}
    for cell in program.cells:
        remaining_ops = state.uncrossed_ops(cell)
        if remaining_ops:
            uncrossed[cell] = remaining_ops
    return CrossingResult(
        deadlock_free=state.done,
        steps=steps,
        crossings=crossings,
        uncrossed=uncrossed,
        max_skipped=state.max_skipped,
        lookahead_used=lookahead is not None,
    )


def is_deadlock_free(
    program: ArrayProgram, lookahead: LookaheadConfig | None = None
) -> bool:
    """Classify ``program`` per Section 3.2 (or 8.1 with lookahead)."""
    return cross_off(program, lookahead=lookahead).deadlock_free


def uniform_lookahead(program: ArrayProgram, capacity: float) -> LookaheadConfig:
    """A lookahead config giving every message the same R2 bound.

    Convenience for single-hop examples like Fig. 10 where each message
    crosses one queue of the given capacity.
    """
    return LookaheadConfig(
        route_capacity={name: capacity for name in program.messages},
        default_capacity=capacity,
    )


def route_capacities(
    program: ArrayProgram,
    router,
    queue_capacity: int,
    allow_extension: bool = False,
) -> LookaheadConfig:
    """R2 bounds derived from actual routes: hops x per-queue capacity.

    With queue extension enabled the bound is infinite — the spill
    mechanism implements arbitrarily long logical queues (Section 8.1).

    This is the paper's queue model, and the ordered policy labels with
    it. The simulator buffers one word more per intermediate hop (see
    :func:`simulator_capacities`), so this bound is sound but not
    complete for simulated runs: it can call a program deadlocked that
    the simulator completes.
    """
    caps: dict[str, float] = {}
    for msg in program.messages.values():
        hops = len(router.route(msg.sender, msg.receiver))
        caps[msg.name] = math.inf if allow_extension else float(hops * queue_capacity)
    return LookaheadConfig(route_capacity=caps)


def simulator_capacities(
    program: ArrayProgram, router, queue_capacity: int
) -> LookaheadConfig:
    """R2 bounds matching the simulator's buffering exactly.

    A message crossing ``hops`` links holds ``hops x queue_capacity``
    words in its queues, as in :func:`route_capacities`, plus one word
    in the register of each of its ``hops - 1`` intermediate forwarders
    (:class:`~repro.sim.agents.ForwarderAgent`). With this bound the
    crossing-off verdict agrees with the simulated static outcome when
    every link has a queue per competing message. It describes the
    simulator, not the paper's queue model, so
    :func:`route_capacities` stays the ordered policy's labeling input.
    """
    caps: dict[str, float] = {}
    for msg in program.messages.values():
        hops = len(router.route(msg.sender, msg.receiver))
        caps[msg.name] = float(hops * queue_capacity + hops - 1)
    return LookaheadConfig(route_capacity=caps)
