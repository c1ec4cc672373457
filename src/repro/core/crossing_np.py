"""Columnar (numpy) backend for the crossing-off procedure.

This module is the optional fast kernel behind
:func:`repro.core.crossing.cross_off`: bit-identical output to the
interned engine, produced from flat numpy arrays instead of per-object
Python structures. It is selected by the backend dispatch in
:mod:`repro.core.crossing` (``backend="columnar"``, or ``"auto"`` on
large programs); nothing here is public API beyond what that dispatch
calls.

Layout
------

:class:`ColumnarTables` converts a program's
:class:`~repro.core.program.InternTable` once (cached on the table, so
every analysis over the same program shares the arrays zero-copy):

* per-cell **sign-coded op sequences** (write -> ``mid``, read ->
  ``~mid``: one ``x < 0`` test replaces tuple unpacking) — shared with
  the interned engine via ``InternTable.signed_transfers``;
* per-message **sorted write/read position arrays** (``wpos_flat`` /
  ``rpos_flat`` with offset vectors), which locate a message's next
  write or read without a scan;
* per-cell **read-position arrays** (the R1 bound: the first uncrossed
  read ends every lookahead window) and **sorted write-mid lists** (the
  R2 scan set);
* a **cumulative write-count table** (``cum_flat``): for every cell
  ``c``, position ``p`` and cell-write-mid slot ``i``, the number of
  writes of that message at positions ``< p``. Because crossed writes
  always form a prefix of a message's write index, the *dynamic* R2
  count is one gather and one subtract — ``cum[c, p, i] -
  crossed[mid]`` — with no window scan and no per-position bisect.

Kernels
-------

* **sequential** — the readiness-scan drain: a min-heap of executable
  message ids, two readiness bitmaps, and nomination scans that resume
  from the crossed position with *no carried window state* — each
  visited write recomputes its R2 count as one gather from the
  cumulative table minus the crossed counter, crossing positions are
  the static ``k``-th position-array entries, and skip snapshots are
  a pure function of the log, rebuilt vectorized only when a result
  field that needs them is read (provably equal to the frozen
  nomination-time state).
  Successor-skip jump lists (with path compression) make every scan
  visit only uncrossed operations. The seed pass (initial nominations
  of all cells) is fully vectorized; the drain itself is inherently
  serial (each crossing is chosen by exact min-id order and
  immediately affects its two cells), so its per-pair work is O(1)
  dict-free, allocation-light Python over packed int logs.
* **parallel** — fully vectorized stepping: per step, every live
  message's two candidate ends are checked as boolean masks (R1 from
  per-cell first-uncrossed-read gathers, R2 from the cumulative table
  minus the crossed counters, segment-reduced per candidate), and the
  whole step batch is crossed with array writes. No front pointers and
  no crossed bitmaps are maintained at all — the per-message crossed
  counter *is* the state.

Both kernels defer materialization: the hot loops log packed ints and
arrays, and ``PairCrossing`` tuples / ``uncrossed`` / ``max_skipped``
are constructed only when a :class:`CrossingResult` field is first
accessed (:class:`_LazyColumnarResult`).

A note on ``lookahead=None``: the strict Section 3 procedure is exactly
the Section 8.1 procedure with every R2 budget at zero (no skipped
write is allowed, and R1 already forbids skipped reads), so the kernels
run the capacity-vector path with zeros instead of carrying a separate
no-lookahead branch. The equivalence suite pins this against both the
interned engine and the reference oracle.
"""

from __future__ import annotations

import gc

from heapq import heappop, heappush
from itertools import chain
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.crossing import LookaheadConfig
    from repro.core.program import ArrayProgram

# Safe despite the mutual reference: crossing.py only imports this
# module lazily, inside the dispatch functions.
from repro.core.crossing import CrossingResult, PairCrossing

_np = None
_np_checked = False

#: Sentinel position larger than any real op position.
_BIG = 1 << 60


def numpy_available() -> bool:
    """True when numpy can be imported (checked once, lazily)."""
    global _np, _np_checked
    if not _np_checked:
        try:
            import numpy
        except ImportError:
            numpy = None
        _np = numpy
        _np_checked = True
    return _np is not None


def _require_numpy():
    if not numpy_available():
        raise ConfigError(
            "the columnar crossing backend requires numpy "
            "(install the repro[fast] extra); use backend='interned' "
            "or 'auto' for the pure-Python engine"
        )
    return _np


class ColumnarTables:
    """Flat numpy views of one program's intern table (built once).

    Everything here is immutable after construction and shared by every
    columnar crossing run over the program; per-run state (crossed
    counters, jump lists, logs) lives in the kernels.
    """

    __slots__ = (
        "intern",
        "signed",
        "ncells",
        "nmsgs",
        "total_ops",
        "pack_shift",
        "clen",
        "lengths",
        "senders",
        "receivers",
        "wpos_flat",
        "wpos_off",
        "rpos_flat",
        "rpos_off",
        "creads_flat",
        "creads_off",
        "creads_cnt",
        "cw_flat",
        "cw_off",
        "cw_cnt",
        "cum_flat",
        "cum_base",
        "first_read",
        "op_off",
        "statw",
        "slot_col",
        "_drain_lists",
    )

    def __init__(self, intern) -> None:
        np = _require_numpy()
        self.intern = intern
        self.signed = intern.signed_transfers
        ncells = len(intern.cell_names)
        nmsgs = len(intern.message_names)
        self.ncells = ncells
        self.nmsgs = nmsgs
        clen = np.array(intern.transfer_counts, dtype=np.int64)
        self.clen = clen
        total = int(clen.sum())
        self.total_ops = total
        maxlen = int(clen.max()) if ncells else 0
        self.pack_shift = max(maxlen, 1).bit_length()
        self.lengths = np.array(intern.lengths, dtype=np.int64)
        self.senders = np.array(intern.senders, dtype=np.int64)
        self.receivers = np.array(intern.receivers, dtype=np.int64)
        ops = np.fromiter(
            chain.from_iterable(self.signed), dtype=np.int64, count=total
        )
        cell_of = np.repeat(np.arange(ncells, dtype=np.int64), clen)
        op_base = np.zeros(ncells + 1, dtype=np.int64)
        np.cumsum(clen, out=op_base[1:])
        self.op_off = op_base
        pos_local = np.arange(total, dtype=np.int64) - np.repeat(
            op_base[:-1], clen
        )
        is_w = ops >= 0
        mids_all = np.where(is_w, ops, ~ops)
        # --- per-message sorted position arrays -----------------------
        w_cells = cell_of[is_w]
        w_mids = mids_all[is_w]
        w_posl = pos_local[is_w]
        order = np.argsort(w_mids, kind="stable")
        self.wpos_flat = w_posl[order]
        woff = np.zeros(nmsgs + 1, dtype=np.int64)
        np.cumsum(np.bincount(w_mids, minlength=nmsgs), out=woff[1:])
        self.wpos_off = woff
        r_mask = ~is_w
        r_cells = cell_of[r_mask]
        r_mids = mids_all[r_mask]
        r_posl = pos_local[r_mask]
        order = np.argsort(r_mids, kind="stable")
        self.rpos_flat = r_posl[order]
        roff = np.zeros(nmsgs + 1, dtype=np.int64)
        np.cumsum(np.bincount(r_mids, minlength=nmsgs), out=roff[1:])
        self.rpos_off = roff
        # --- per-cell read positions (R1) -----------------------------
        # Reads are already cell-major, position-ascending in flat order.
        self.creads_flat = r_posl
        creads_cnt = np.bincount(r_cells, minlength=ncells)
        self.creads_cnt = creads_cnt
        creads_off = np.zeros(ncells + 1, dtype=np.int64)
        np.cumsum(creads_cnt, out=creads_off[1:])
        self.creads_off = creads_off
        first_read = np.full(ncells, _BIG, dtype=np.int64)
        has = creads_cnt > 0
        if r_posl.size:
            first_read[has] = r_posl[creads_off[:-1][has]]
        self.first_read = first_read
        # --- per-cell sorted write-mid lists (R2 scan sets) -----------
        keys = w_cells * max(nmsgs, 1) + w_mids
        ukeys = np.unique(keys)
        cw_cells = ukeys // max(nmsgs, 1)
        self.cw_flat = ukeys % max(nmsgs, 1)
        cw_cnt = np.bincount(cw_cells, minlength=ncells)
        self.cw_cnt = cw_cnt
        cw_off = np.zeros(ncells + 1, dtype=np.int64)
        np.cumsum(cw_cnt, out=cw_off[1:])
        self.cw_off = cw_off
        # --- cumulative write-count table (R2 prefix counts) ----------
        # Column-major ragged layout: for cell c, slot i, position p the
        # entry lives at cum_base[c] + i*(clen[c]+1) + p and holds the
        # number of writes of message cw_flat[cw_off[c]+i] in cell c at
        # positions < p. One pad row per column keeps the builder's
        # scatter (at q+1) in range for writes at the last position.
        col_len = clen + 1
        block = cw_cnt * col_len
        cum_base = np.zeros(ncells + 1, dtype=np.int64)
        np.cumsum(block, out=cum_base[1:])
        self.cum_base = cum_base
        total_cum = int(cum_base[-1])
        delta = np.zeros(total_cum, dtype=np.int64)
        colpos = np.zeros(total, dtype=np.int64)
        if w_mids.size:
            slot = np.searchsorted(ukeys, keys) - cw_off[w_cells]
            colpos[is_w] = (
                cum_base[w_cells] + slot * col_len[w_cells] + w_posl
            )
            delta[colpos[is_w] + 1] = 1
        g = np.cumsum(delta)
        ncols = int(cw_cnt.sum())
        col_cells = np.repeat(np.arange(ncells, dtype=np.int64), cw_cnt)
        col_starts = cum_base[col_cells] + (
            np.arange(ncols, dtype=np.int64) - np.repeat(cw_off[:-1], cw_cnt)
        ) * col_len[col_cells]
        self.cum_flat = (
            g - np.repeat(g[col_starts], col_len[col_cells])
            if ncols
            else g
        ).astype(np.int32)
        self.slot_col = col_starts
        # Per-op static prefix counts: for every write op, the number
        # of earlier writes of its own message in its cell (reads never
        # consult their slot). The sequential drain turns a write visit
        # into the dynamic R2 count with one flat load and a subtract:
        # ``statw[op] - crossed[mid]``.
        self.statw = self.cum_flat[colpos]
        self._drain_lists = None

    def drain_lists(self):
        """Plain-list mirrors of the static tables the sequential drain
        indexes per visit (built once per program; a numpy scalar gather
        costs several times a list load in the hot loop)."""
        dl = self._drain_lists
        if dl is None:
            dl = (
                self.statw.tolist(),
                self.op_off.tolist(),
                self.wpos_flat.tolist(),
                self.wpos_off.tolist(),
                self.rpos_flat.tolist(),
                self.rpos_off.tolist(),
            )
            self._drain_lists = dl
        return dl

    def caps_vector(self, lookahead: "LookaheadConfig | None"):
        """Per-message R2 budgets as a float vector (zeros = strict §3)."""
        np = _np
        if lookahead is None:
            return np.zeros(self.nmsgs, dtype=np.float64)
        return np.array(
            [lookahead.capacity(name) for name in self.intern.message_names],
            dtype=np.float64,
        )

    def _r2_segments(self, cells_arr, p_arr, crossed):
        """R2 counts for one candidate set, as ragged segments.

        For each candidate row (a cell and a position in it), one
        segment over the cell's write-mids: ``counts = static prefix
        count at p - crossed writes``. Returns ``(rows, mids, counts)``
        concatenated over all candidates.
        """
        np = _np
        nw = self.cw_cnt[cells_arr]
        total = int(nw.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        rows = np.repeat(np.arange(cells_arr.size, dtype=np.int64), nw)
        starts = np.cumsum(nw) - nw
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, nw)
        mids = self.cw_flat[np.repeat(self.cw_off[:-1][cells_arr], nw) + within]
        static = self.cum_flat[
            np.repeat(self.cum_base[:-1][cells_arr], nw)
            + within * np.repeat(self.clen[cells_arr] + 1, nw)
            + np.repeat(p_arr, nw)
        ]
        return rows, mids, static.astype(np.int64) - crossed[mids]


# ---------------------------------------------------------------------------
# Sequential kernel
# ---------------------------------------------------------------------------


def _seed_side(t, caps, zeros, ok, endpoints, p):
    """Clear R2 violators from one side's R1 survivors (in place)."""
    np = _np
    cand = np.flatnonzero(ok)
    if cand.size == 0:
        return
    rows, mids, cnt = t._r2_segments(endpoints[cand], p[cand], zeros)
    viol = cnt > caps[mids]
    if viol.any():
        good = np.bincount(rows[viol], minlength=cand.size) == 0
        ok[cand[~good]] = False


def _sequential_seed(t, caps):
    """Vectorized initial nominations: every message's two first ends.

    Equivalent to one nomination scan per cell (each message's first
    write is locatable iff no uncrossed read precedes it and the static
    prefix counts fit the budgets; its first read iff it *is* the
    cell's first read and the counts fit). Returns the drain's starting
    state — the heap of executable ids plus the two readiness bitmaps;
    positions and skip snapshots are never registered at all (see
    :func:`_sequential_drain`).
    """
    np = _np
    nmsgs = t.nmsgs
    if nmsgs == 0 or t.wpos_flat.size == 0:
        return [], bytearray(nmsgs), bytearray(nmsgs)
    zeros = np.zeros(nmsgs, dtype=np.int64)
    pw = t.wpos_flat[t.wpos_off[:-1]]
    pr = t.rpos_flat[t.rpos_off[:-1]]
    ok_w = pw < t.first_read[t.senders]
    ok_r = pr == t.first_read[t.receivers]
    _seed_side(t, caps, zeros, ok_w, t.senders, pw)
    _seed_side(t, caps, zeros, ok_r, t.receivers, pr)
    # flatnonzero is ascending, which is already a valid min-heap.
    heap = np.flatnonzero(ok_w & ok_r).tolist()
    return heap, bytearray(ok_w.tobytes()), bytearray(ok_r.tobytes())


def _sequential_drain(t, capf, seed):
    """The readiness-scan drain (one pair per step, lowest id first).

    The hot loop keeps *no* per-window state at all. It rests on two
    facts about the procedure:

    * a message's crossed words are always its earliest ones, so the
      dynamic R2 count of message ``m`` before position ``p`` equals
      ``cum[column(m), p] - crossed[m]`` — one gather from the static
      cumulative table minus the per-message crossed counter. The
      engine's running ``counts`` dict (and the restart snapshots that
      re-seed it) disappear: each visited write recomputes its count
      in O(1), and nomination is simply ``count == 0`` (this write is
      the message's first uncrossed one).
    * for the same reason a crossing's positions are the static
      ``k``-th entries of the message's write/read position arrays, so
      the per-end position registers disappear too. Readiness is two
      bitmaps, and a message is in the heap exactly when both bits are
      set (push decisions are made *before* a nomination sets its own
      bit; located ends stay located until their own op crosses, so
      heap entries are always valid at pop).

    Skip snapshots are not tracked at all: they are a pure function of
    the log (the crossed counter of ``m`` at crossing ``i`` is the
    number of ``m``-crossings in ``log[:i]``), so
    :func:`_rebuild_skiplog` reconstructs them vectorized — and only
    when a result field that needs them is actually read.

    The log is one packed int per crossing (``(mid << 2*shift) |
    (sender_pos << shift) | recv_pos``); nothing is materialized here.
    The two rescan bodies are written out inline (twice): the scan runs
    twice per crossing and call overhead is a measurable share of the
    drain at the 10k scale. ``capf`` holds integer budget floors
    (``count > cap`` iff ``count > floor(cap)`` for integer counts).
    """
    enc = t.signed
    heap, ready_w, ready_r = seed
    nxt = [list(range(len(seq) + 1)) for seq in enc]
    sizes = [len(seq) for seq in enc]
    senders = t.intern.senders
    receivers = t.intern.receivers
    shift = t.pack_shift
    shift2 = 2 * shift
    log: list[int] = []
    log_append = log.append
    statw, opoff, wposf, woff, rposf, roff = t.drain_lists()
    kcnt = [0] * t.nmsgs

    while heap:
        top = heappop(heap)
        ready_w[top] = 0
        ready_r[top] = 0
        kk = kcnt[top]
        kcnt[top] = kk + 1
        sp = wposf[woff[top] + kk]
        rp = rposf[roff[top] + kk]
        log_append((top << shift2) | (sp << shift) | rp)
        s = senders[top]
        nxt[s][sp] = sp + 1
        r = receivers[top]
        nxt[r][rp] = rp + 1

        # --- sender rescan ---
        size = sizes[s]
        j = sp + 1
        if j < size:
            seq = enc[s]
            nx = nxt[s]
            pos = nx[j]
            if pos != j:
                while nx[pos] != pos:
                    pos = nx[pos]
                while nx[j] != pos:
                    nx[j], j = pos, nx[j]
            fo = opoff[s]
            while pos < size:
                mid = seq[pos]
                if mid < 0:
                    mid = ~mid
                    if ready_w[mid] and not ready_r[mid]:
                        heappush(heap, mid)
                    ready_r[mid] = 1
                    break
                c0 = statw[fo + pos] - kcnt[mid]
                if c0 <= 0:
                    if ready_r[mid] and not ready_w[mid]:
                        heappush(heap, mid)
                    ready_w[mid] = 1
                    if capf[mid] < 1:
                        break
                elif c0 >= capf[mid]:
                    break
                j = pos + 1
                pos = nx[j]
                if pos != j:
                    while nx[pos] != pos:
                        pos = nx[pos]
                    while nx[j] != pos:
                        nx[j], j = pos, nx[j]

        # --- receiver rescan (same body) ---
        size = sizes[r]
        j = rp + 1
        if j < size:
            seq = enc[r]
            nx = nxt[r]
            pos = nx[j]
            if pos != j:
                while nx[pos] != pos:
                    pos = nx[pos]
                while nx[j] != pos:
                    nx[j], j = pos, nx[j]
            fo = opoff[r]
            while pos < size:
                mid = seq[pos]
                if mid < 0:
                    mid = ~mid
                    if ready_w[mid] and not ready_r[mid]:
                        heappush(heap, mid)
                    ready_r[mid] = 1
                    break
                c0 = statw[fo + pos] - kcnt[mid]
                if c0 <= 0:
                    if ready_r[mid] and not ready_w[mid]:
                        heappush(heap, mid)
                    ready_w[mid] = 1
                    if capf[mid] < 1:
                        break
                elif c0 >= capf[mid]:
                    break
                j = pos + 1
                pos = nx[j]
                if pos != j:
                    while nx[pos] != pos:
                        pos = nx[pos]
                    while nx[j] != pos:
                        nx[j], j = pos, nx[j]
    return log, nxt


def _rebuild_skiplog(t, log):
    """Vectorized reconstruction of the sequential skip snapshots.

    The drain records nothing but the packed log; the snapshot a
    crossing was nominated under is recoverable because (a) the crossed
    counter of message ``m`` at crossing ``i`` is the number of
    ``m``-crossings in ``log[:i]``, and (b) pop-time counts equal the
    frozen nomination-time snapshot — a cell's counts change only with
    crossings in that cell, and every such crossing rescans the cell,
    re-nominating (and thereby refreshing) every still-located end.

    For every crossing and both of its cells, one segment over the
    cell's write-mids gathers ``static prefix - crossed before i``
    (the per-(m, i) crossed counts come from one composite-key
    searchsorted over the log). Returns the engine-shaped skiplog:
    ``{crossing_index: (sender_skips, receiver_skips)}``, id-ascending
    pairs, nonempty entries only.
    """
    np = _np
    n = len(log)
    if n == 0 or not t.cw_flat.size:
        return {}
    shift = t.pack_shift
    arr = np.array(log, dtype=np.int64)
    mids = arr >> (2 * shift)
    mask = (1 << shift) - 1
    poss = np.concatenate([(arr >> shift) & mask, arr & mask])
    cells = np.concatenate([t.senders[mids], t.receivers[mids]])
    idx = np.arange(n, dtype=np.int64)
    cross_i = np.concatenate([idx, idx])
    nw = t.cw_cnt[cells]
    total = int(nw.sum())
    if total == 0:
        return {}
    starts = np.cumsum(nw) - nw
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, nw)
    ix = np.repeat(t.cw_off[:-1][cells], nw) + within
    m = t.cw_flat[ix]
    static = t.cum_flat[t.slot_col[ix] + np.repeat(poss, nw)].astype(
        np.int64
    )
    # crossed count of m before crossing i: rank of i among m's own
    # crossings, via composite keys (occurrences are log-ordered, so
    # a stable sort by mid keeps them ascending per message).
    order = np.argsort(mids, kind="stable")
    occ_keys = mids[order] * (n + 1) + order
    occ_off = np.zeros(t.nmsgs + 1, dtype=np.int64)
    np.cumsum(np.bincount(mids, minlength=t.nmsgs), out=occ_off[1:])
    kbef = (
        np.searchsorted(occ_keys, m * (n + 1) + np.repeat(cross_i, nw))
        - occ_off[m]
    )
    cnt = static - kbef
    keep = cnt > 0
    seg_row = np.repeat(
        np.arange(2 * n, dtype=np.int64), nw
    )[keep]
    side_s: dict[int, list] = {}
    side_r: dict[int, list] = {}
    for row, mm, cc in zip(
        seg_row.tolist(), m[keep].tolist(), cnt[keep].tolist()
    ):
        if row < n:
            side_s.setdefault(row, []).append((mm, cc))
        else:
            side_r.setdefault(row - n, []).append((mm, cc))
    return {
        i: (tuple(side_s.get(i, ())), tuple(side_r.get(i, ())))
        for i in side_s.keys() | side_r.keys()
    }


# ---------------------------------------------------------------------------
# Parallel kernel
# ---------------------------------------------------------------------------


def _parallel_drain(t, caps):
    """Vectorized maximal-parallel stepping.

    Per step, the candidate masks are recomputed from scratch over every
    live message — with crossed writes forming per-message prefixes,
    both rules are pure gathers (R1: the candidate position against its
    cell's first uncrossed read; R2: cumulative prefix counts minus the
    crossed counters, segment-reduced per candidate) — and the whole
    step batch is applied with two fancy-indexed increments. State is
    just ``k`` (crossed pairs per message) and ``cell_rc`` (crossed
    reads per cell).
    """
    np = _np
    nmsgs = t.nmsgs
    L = t.lengths
    S = t.senders
    R = t.receivers
    k = np.zeros(nmsgs, dtype=np.int64)
    cell_rc = np.zeros(t.ncells, dtype=np.int64)
    creads_flat = t.creads_flat
    creads_cnt = t.creads_cnt
    creads_off = t.creads_off
    chunks: list[tuple] = []

    def first_uncrossed_read(cells):
        j = cell_rc[cells]
        cnt = creads_cnt[cells]
        has = j < cnt
        if not creads_flat.size:
            return np.full(cells.size, _BIG, dtype=np.int64)
        # Clip masked-out gathers (cells with no uncrossed reads) into
        # range; their values are discarded by the mask.
        idx = np.minimum(
            creads_off[:-1][cells] + np.minimum(j, np.maximum(cnt - 1, 0)),
            creads_flat.size - 1,
        )
        return np.where(has, creads_flat[idx], _BIG)

    while True:
        alive = np.flatnonzero(k < L)
        if not alive.size:
            break
        ka = k[alive]
        pw = t.wpos_flat[t.wpos_off[:-1][alive] + ka]
        pr = t.rpos_flat[t.rpos_off[:-1][alive] + ka]
        m1 = (pw < first_uncrossed_read(S[alive])) & (
            pr == first_uncrossed_read(R[alive])
        )
        sub = alive[m1]
        if not sub.size:
            break
        psw = pw[m1]
        psr = pr[m1]
        rows_w, mids_w, cnt_w = t._r2_segments(S[sub], psw, k)
        rows_r, mids_r, cnt_r = t._r2_segments(R[sub], psr, k)
        bad = np.zeros(sub.size, dtype=bool)
        viol = cnt_w > caps[mids_w]
        if viol.any():
            bad |= np.bincount(rows_w[viol], minlength=sub.size) > 0
        viol = cnt_r > caps[mids_r]
        if viol.any():
            bad |= np.bincount(rows_r[viol], minlength=sub.size) > 0
        keep = ~bad
        ex = sub[keep]
        if not ex.size:
            break
        rowmap = np.cumsum(keep) - 1
        sel = keep[rows_w] & (cnt_w > 0)
        wsk = (rowmap[rows_w[sel]], mids_w[sel], cnt_w[sel])
        sel = keep[rows_r] & (cnt_r > 0)
        rsk = (rowmap[rows_r[sel]], mids_r[sel], cnt_r[sel])
        chunks.append((ex, psw[keep], psr[keep], wsk, rsk))
        k[ex] += 1
        # Read ends are unique per cell within a step (each is its
        # cell's single first uncrossed read), so a plain fancy-indexed
        # increment is exact.
        cell_rc[R[ex]] += 1
    return chunks, k


# ---------------------------------------------------------------------------
# Deferred materialization
# ---------------------------------------------------------------------------


class _LazyColumnarResult(CrossingResult):
    """A :class:`CrossingResult` whose list/dict fields build on demand.

    The kernels log packed ints and arrays; ``steps``, ``crossings``,
    ``uncrossed`` and ``max_skipped`` are materialized (and cached) the
    first time they are read, so analyses that only need the verdict —
    ``deadlock_free``, ``pairs_crossed`` — never pay the 10k-scale
    tuple-construction floor. Field-for-field identical to an eagerly
    built result (the properties shadow the dataclass fields; this
    ``__init__`` deliberately does not call the dataclass one).
    """

    __slots__ = (
        "deadlock_free",
        "lookahead_used",
        "_program",
        "_tables",
        "_payload",
        "_mode",
        "_steps",
        "_crossings",
        "_uncrossed",
        "_max_skipped",
        "_skiplog",
        "_count",
    )

    def __init__(
        self, program, tables, mode, deadlock_free, lookahead_used, payload
    ) -> None:
        self.deadlock_free = deadlock_free
        self.lookahead_used = lookahead_used
        self._program = program
        self._tables = tables
        self._mode = mode
        self._payload = payload
        self._steps = None
        self._crossings = None
        self._uncrossed = None
        self._max_skipped = None
        self._skiplog = None
        if mode == "sequential":
            self._count = len(payload[0])
        else:
            self._count = sum(len(chunk[0]) for chunk in payload[0])

    # -- result protocol ------------------------------------------------

    @property
    def step_count(self) -> int:
        if self._mode == "sequential":
            return self._count
        return len(self._payload[0])

    @property
    def pairs_crossed(self) -> int:
        return self._count

    def pairs_in_step(self, step: int):
        return self.steps[step - 1]

    @property
    def steps(self):
        if self._steps is None:
            self._materialize()
        return self._steps

    @property
    def crossings(self):
        if self._crossings is None:
            self._materialize()
        return self._crossings

    @property
    def max_skipped(self):
        if self._max_skipped is None:
            t = self._tables
            vec = [0] * t.nmsgs
            if self._mode == "sequential":
                for ss, sr in self._skips().values():
                    for m, c in ss:
                        if c > vec[m]:
                            vec[m] = c
                    for m, c in sr:
                        if c > vec[m]:
                            vec[m] = c
            else:
                for _ex, _pw, _pr, wsk, rsk in self._payload[0]:
                    for _rows, mids, counts in (wsk, rsk):
                        for m, c in zip(mids.tolist(), counts.tolist()):
                            if c > vec[m]:
                                vec[m] = c
            self._max_skipped = dict(zip(t.intern.message_names, vec))
        return self._max_skipped

    @property
    def uncrossed(self):
        if self._uncrossed is None:
            self._uncrossed = self._build_uncrossed()
        return self._uncrossed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossingResult(deadlock_free={self.deadlock_free}, "
            f"steps=<{self.step_count}>, crossings=<{self._count}>, "
            f"lookahead_used={self.lookahead_used}, backend='columnar')"
        )

    # -- builders --------------------------------------------------------

    def _skips(self):
        """The sequential skiplog, rebuilt (and cached) on first use."""
        sk = self._skiplog
        if sk is None:
            sk = _rebuild_skiplog(self._tables, self._payload[0])
            self._skiplog = sk
        return sk

    def _materialize(self) -> None:
        t = self._tables
        intern = t.intern
        names = intern.message_names
        cells = intern.cell_names
        senders = intern.senders
        receivers = intern.receivers
        crossings: list = []
        add = crossings.append
        if self._mode == "sequential":
            log = self._payload[0]
            skiplog = self._skips()
            shift = t.pack_shift
            mask = (1 << shift) - 1
            for i, packed in enumerate(log):
                mid = packed >> (2 * shift)
                ss, sr = skiplog.get(i, ((), ()))
                # The drain rebuilds snapshots from the per-cell
                # write-mid lists, which are id-ascending; id order ==
                # name order (interning is sorted), so the engine's
                # name-sorted skip tuples fall out of a plain map.
                if ss:
                    ss = tuple((names[m], c) for m, c in ss)
                if sr:
                    sr = tuple((names[m], c) for m, c in sr)
                add(
                    PairCrossing(
                        i + 1,
                        names[mid],
                        cells[senders[mid]],
                        (packed >> shift) & mask,
                        cells[receivers[mid]],
                        packed & mask,
                        ss,
                        sr,
                    )
                )
            self._steps = [[pair] for pair in crossings]
        else:
            steps: list[list] = []
            for step_no, (ex, pw, pr, wsk, rsk) in enumerate(
                self._payload[0], start=1
            ):
                this_step: list = []
                stamp = this_step.append
                skips_s = _group_skips(names, *wsk, ex.size)
                skips_r = _group_skips(names, *rsk, ex.size)
                for row, (mid, sp, rp) in enumerate(
                    zip(ex.tolist(), pw.tolist(), pr.tolist())
                ):
                    pair = PairCrossing(
                        step_no,
                        names[mid],
                        cells[senders[mid]],
                        sp,
                        cells[receivers[mid]],
                        rp,
                        skips_s[row],
                        skips_r[row],
                    )
                    stamp(pair)
                    add(pair)
                steps.append(this_step)
            self._steps = steps
        self._crossings = crossings

    def _build_uncrossed(self):
        program = self._program
        if self.deadlock_free:
            return {}
        t = self._tables
        intern = t.intern
        per_cell: dict[int, list[int]] = {}
        if self._mode == "sequential":
            nxt = self._payload[1]
            for cid, seq in enumerate(t.signed):
                nx = nxt[cid]
                left = [p for p in range(len(seq)) if nx[p] == p]
                if left:
                    per_cell[cid] = left
        else:
            np = _np
            k = self._payload[1]
            for mid in np.flatnonzero(k < t.lengths).tolist():
                done = int(k[mid])
                lo, hi = int(t.wpos_off[mid]), int(t.wpos_off[mid + 1])
                per_cell.setdefault(intern.senders[mid], []).extend(
                    t.wpos_flat[lo + done : hi].tolist()
                )
                lo, hi = int(t.rpos_off[mid]), int(t.rpos_off[mid + 1])
                per_cell.setdefault(intern.receivers[mid], []).extend(
                    t.rpos_flat[lo + done : hi].tolist()
                )
        out: dict[str, list] = {}
        for cell in program.cells:
            cid = intern.cell_ids[cell]
            positions = per_cell.get(cid)
            if positions:
                transfers = program.transfers(cell)
                out[cell] = [transfers[p] for p in sorted(positions)]
        return out


def _group_skips(names, rows, mids, counts, nrows):
    """Per-row name-keyed skip tuples from one step's skip arrays."""
    out = [()] * nrows
    if rows.size:
        for r, m, c in zip(rows.tolist(), mids.tolist(), counts.tolist()):
            out[r] = out[r] + ((names[m], c),)
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def columnar_cross_off(
    program: "ArrayProgram",
    lookahead: "LookaheadConfig | None" = None,
    mode: str = "parallel",
):
    """Run the columnar kernels; bit-identical to the interned engine."""
    _require_numpy()
    tables = program.intern.columnar()
    caps = tables.caps_vector(lookahead)
    # The kernels' allocations (heap entries, packed log ints, lazy
    # skip tuples) are enough young objects at 10k cells to trigger
    # dozens of gen-0 collections. Nothing the kernels build is
    # cyclic, so deferring collection to the end is safe.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if mode == "sequential":
            # Integer budget floors: for integer counts and caps >= 0,
            # ``count > cap`` iff ``count > floor(cap)`` (inf stays a
            # never-breaking sentinel).
            capf = [int(v) if v < _BIG else _BIG for v in caps.tolist()]
            seed = _sequential_seed(tables, caps)
            payload = _sequential_drain(tables, capf, seed)
            deadlock_free = 2 * len(payload[0]) == tables.total_ops
        else:
            chunks, k = _parallel_drain(tables, caps)
            payload = (chunks, k)
            deadlock_free = (
                bool((k == tables.lengths).all())
                if tables.nmsgs
                else (tables.total_ops == 0)
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    return _LazyColumnarResult(
        program,
        tables,
        mode,
        deadlock_free,
        lookahead is not None,
        payload,
    )
