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
name strings. Cells and messages are mapped to dense ints by the
program's :class:`~repro.core.program.InternTable` (cell ids in program
order, message ids in *sorted-name* order, so id comparisons order
exactly like name comparisons), and the state is plain lists indexed by
those ids: per cell the crossed bitmap, the front pointer and the
last-crossed message; per message (each has exactly one sender and one
receiver cell) the remaining-operation count, the peak skipped-write
count and the R2 bound. Names appear only at the API boundary:
:class:`PairCrossing`, ``uncrossed``, ``max_skipped`` and every public
query translate ids back through the intern table. Nothing outside this
module sees an id.

Each stepping mode has one drive loop, and both locate pairs the same
way: a *nomination scan* walks a cell's lookahead window ``[front, first
uncrossed read]`` once, and the first uncrossed operation of each (kind,
message) met before the R2 cutoff is that pair end's candidate, with the
running per-message count of uncrossed writes as its skip snapshot.

Sequential readiness drain
--------------------------

The sequential loop (which also hosts observer callbacks, so the
Section 6 labeling drive rides it) keeps per-message-end readiness
registers — a locatable end's position and skipped-write snapshot,
refreshed by nomination scans — plus a min-heap of ids whose two ends
are both ready. Two properties make the heap exact without lazy
deletion:

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
:class:`~repro.errors.ConfigError`. Observer callbacks always pin the
interned engine (they read the live state between crossings). The
bit-identity contract is enforced by the same differential harness that
gates the interned fast loops: identical ``steps``/``crossings``/
``uncrossed``/``max_skipped`` on every corpus, both modes, every
lookahead budget — analysis caches therefore never key on the backend.

Bucketed parallel step flush
----------------------------

Maximal-parallel stepping (cross every pair executable at step start) is
driven by a *bucketed* executable structure, so a step costs O(pairs
crossed + cells dirtied) rather than re-deriving and re-sorting the
candidates of every message:

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
  order in which the reference oracle crosses a step's pairs;
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
re-nominate whatever is locatable next).

The same invariants make the loop resumable, which is how
:func:`least_capacity` answers Section 8's sizing question: run to the
closure at one capacity, raise the R2 budgets, and run again on the
same state.

The original scan-based implementation is preserved as a reference oracle
in ``tests/reference_crossing.py``; property tests assert bit-identical
``steps``/``crossings``/``max_skipped`` in both modes.
"""

from __future__ import annotations

import math
import os
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Protocol

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

    The two drive loops (:func:`_run_parallel_fast` and
    :func:`_run_sequential_fast`) mutate it. The sequential loop keeps
    the public views below current after every crossing, so an observer
    — the Section 6 labeling scheme — can read them while it drives a
    run.

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
        "_cap",
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
        # (cross_off consults the same resolution). The state itself is
        # always the interned implementation; the columnar kernels live
        # in repro.core.crossing_np and are dispatched at the cross_off
        # boundary.
        self.engine = resolve_backend(program, engine)
        intern = program.intern
        self.intern = intern
        ncells = len(intern.cell_names)
        self._senders = intern.senders
        self._receivers = intern.receivers
        enc = intern.encoded_transfers
        self._enc = enc
        self._crossed: list[bytearray] = [bytearray(len(seq)) for seq in enc]
        self._fronts: list[int] = [0] * ncells
        self._remaining: list[int] = [2 * length for length in intern.lengths]
        self.total_remaining = sum(self._remaining)
        self._last_crossed: list[int] = [-1] * ncells
        self._max_skipped: list[int] = [0] * len(intern.message_names)
        # R2 bounds resolved to a per-id list once; None without lookahead.
        self._cap: list[float] | None = (
            None
            if lookahead is None
            else [lookahead.capacity(name) for name in intern.message_names]
        )

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
    to recomputing every executable pair at each step start, as the
    reference oracle does:

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

    The loop can resume a stalled state: its first scan starts at each
    cell's front and skips crossed positions, so a run on a state that
    an earlier run left stalled, with larger R2 budgets in ``_cap``,
    ends with the same crossed bitmaps and remaining counts as a fresh
    run at those budgets. (``steps`` and ``max_skipped`` record the
    route taken, so they differ.)
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
            # is left to the rescans (no observer runs in this mode —
            # the result reads nothing but the crossed bitmaps,
            # remaining counts and max_skipped).
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

    Observer callbacks run here (the labeling drive): each gets the
    unstamped pair (step 0) before mutation, as the reference oracle
    hands it, and may read the documented state views
    (``future_messages``, ``last_crossed_message``, ``fronts``,
    ``uncrossed_ops``, ``max_skipped``, ``remaining_per_message``) —
    all maintained per crossing.
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
            # Observers get the unstamped pair (the step number is
            # assigned by the crossing), before mutation.
            observer(state, stamped._replace(step=0))
        # --- apply ----------------------------------------------------
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
    backend: str | None = None,
) -> CrossingResult:
    """Run the crossing-off procedure on ``program``.

    Args:
        program: the program under analysis.
        lookahead: enable Section 8.1 lookahead with the given R2 bounds;
            ``None`` reproduces the strict Section 3 procedure.
        mode: ``"parallel"`` crosses all pairs executable at step start
            (Fig. 4's stepping); ``"sequential"`` crosses one pair per
            step, always the lowest executable message name (which
            reproduces the paper's choice of A as the first pair in the
            Fig. 7 walkthrough).
        observer: called with the live state before each pair is crossed —
            the Section 6 labeling scheme plugs in here. Sequential mode
            only.
        backend: kernel selection — ``"interned"``, ``"columnar"`` or
            ``"auto"`` (see "Columnar backend" in the module docstring);
            ``None`` defers to :func:`configure_crossing_backend` /
            ``REPRO_CROSSING_BACKEND``. Output never depends on the
            backend; an observer pins the interned engine.

    Returns:
        A :class:`CrossingResult`; ``deadlock_free`` is True iff every
        operation was crossed off.

    Raises:
        ValueError: on an unknown ``mode``, or an observer with
            ``mode="parallel"``.
    """
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    if observer is None:
        if resolve_backend(program, backend) == "columnar":
            from repro.core import crossing_np

            return crossing_np.columnar_cross_off(program, lookahead, mode)
    elif mode == "parallel":
        raise ValueError("an observer needs mode='sequential'")
    elif backend is not None and backend not in _BACKEND_NAMES:
        raise ConfigError(
            f"unknown crossing backend {backend!r}; "
            f"choose one of {', '.join(_BACKEND_NAMES)}"
        )
    state = CrossingState(program, lookahead, engine="interned")
    steps: list[list[PairCrossing]] = []
    crossings: list[PairCrossing] = []
    if mode == "sequential":
        _run_sequential_fast(state, steps, crossings, observer)
    else:
        _run_parallel_fast(state, steps, crossings)
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


def least_capacity(program: ArrayProgram, router) -> int | None:
    """The least uniform queue capacity whose verdict is deadlock-free.

    Returns the least ``c`` for which ``cross_off(program,
    simulator_capacities(program, router, c))`` is deadlock-free, or
    ``None`` when no ``c`` is: an uncrossed read then blocks every
    remaining pair (R1), which no buffering lifts.

    One pass finds it. Start at ``c = 0`` and run the parallel loop to
    its closure. If operations remain, take every live message whose two
    ends are locatable with R2 ignored. Skipping ``k`` writes of a
    message ``m`` that crosses ``hops_m`` links needs ``k <= hops_m x c
    + hops_m - 1``, that is ``c >= ceil((k - (hops_m - 1)) / hops_m) =
    k // hops_m``; a message's need is the largest over the messages it
    skips. Raise ``c`` to the least need and resume the loop on the same
    state. This is exact because a locatable end stays locatable until
    it crosses and a larger budget only admits more pairs: the closure
    at each capacity is unique and extends the one below it, and no
    capacity below the least need admits a new pair.
    """
    state = CrossingState(
        program, simulator_capacities(program, router, 0), engine="interned"
    )
    # The budget at c = 0 is hops - 1 per message.
    hops = [int(budget) + 1 for budget in state._cap]
    capacity = 0
    while True:
        _run_parallel_fast(state, [], [])
        if state.done:
            return capacity
        capacity = _least_need(state, hops)
        if capacity is None:
            return None
        state._cap = [float(h * capacity + h - 1) for h in hops]


def _least_need(state: CrossingState, hops: list[int]) -> int | None:
    """The least capacity at which the stalled ``state`` has a pair to cross.

    Walks each cell once from its front over uncrossed operations, with
    R2 ignored. The locatable ends are the first uncrossed write of each
    message before the cell's first uncrossed read (R1), and that read.
    An end needs the largest ``k // hops_m`` over the ``k`` uncrossed
    writes of each message ``m`` before it, and a pair needs the larger
    of its two ends. Returns the least need over messages with both ends
    located, or ``None`` when no message has both.
    """
    w_need = [-1] * len(hops)
    r_need = [-1] * len(hops)
    fronts = state._fronts
    crossed_all = state._crossed
    for cid, enc in enumerate(state._enc):
        crossed = crossed_all[cid]
        counts: dict[int, int] = {}
        need = 0
        for pos in range(fronts[cid], len(enc)):
            if crossed[pos]:
                continue
            is_write, mid = enc[pos]
            if not is_write:
                r_need[mid] = need
                break
            k = counts.get(mid, 0) + 1
            if k == 1:
                w_need[mid] = need
            counts[mid] = k
            if k // hops[mid] > need:
                need = k // hops[mid]
    return min(
        (max(w, r) for w, r in zip(w_need, r_need) if w >= 0 and r >= 0),
        default=None,
    )
