"""The consistent message labeling scheme of Section 6 (and 8.2).

Messages get positive labels such that every cell program accesses
messages in nondecreasing label order; the run-time queue assignment then
serves competing messages in label order. The scheme drives a sequential
crossing-off run and labels each message the first time one of its pairs
is crossed:

* **1a** — if neither endpoint will access an already-labeled message in
  the remainder of its program, the new message gets a label larger than
  every label in use;
* **1b** — otherwise it gets a label strictly between the last-accessed
  label and the smallest labeled future access ("the number may have to be
  a real number between two consecutive integers" — we use exact
  :class:`fractions.Fraction` midpoints);
* **1c** — its whole related class receives the same label;
* **1d** — with lookahead, messages whose writes were skipped in locating
  the pair also receive the same label (Section 8.2), so the compatible
  assignment gives them separate queues.

The result is verified against the Section 5 consistency definition before
being returned; a violation raises :class:`LabelingError` (the paper proves
this cannot happen for deadlock-free programs — the check is a guard).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.core.crossing import (
    CrossingState,
    LookaheadConfig,
    PairCrossing,
    cross_off,
)
from repro.core.program import ArrayProgram
from repro.core.related import related_map
from repro.errors import DeadlockedProgramError, LabelingError


@dataclass(frozen=True)
class Labeling:
    """An assignment of labels to every message of a program.

    ``groups()`` and ``normalized()`` are derived views computed once and
    cached on the instance (via ``object.__setattr__`` — the dataclass is
    frozen but labelings are immutable after construction, so the cache
    can never go stale). Callers receive fresh shallow copies, so the
    cached values cannot be corrupted from outside.
    """

    labels: dict[str, Fraction]

    def label(self, message: str) -> Fraction:
        """Label of ``message``."""
        try:
            return self.labels[message]
        except KeyError:
            raise LabelingError(f"no label for message {message!r}") from None

    def groups(self) -> list[tuple[Fraction, tuple[str, ...]]]:
        """Label classes, ascending by label, members sorted by name."""
        cached = self.__dict__.get("_groups_cache")
        if cached is None:
            by_label: dict[Fraction, list[str]] = {}
            for name, lab in self.labels.items():
                by_label.setdefault(lab, []).append(name)
            cached = tuple(
                (lab, tuple(sorted(names)))
                for lab, names in sorted(by_label.items())
            )
            object.__setattr__(self, "_groups_cache", cached)
        return list(cached)

    def normalized(self) -> dict[str, int]:
        """Dense integer ranks (1-based) preserving order and equality.

        Fig. 7's walkthrough labels (A, C, B) = (1, 2, 3); normalization
        recovers exactly such small integers from fraction labels.
        """
        cached = self.__dict__.get("_normalized_cache")
        if cached is None:
            ranks = {lab: i + 1 for i, (lab, _names) in enumerate(self.groups())}
            cached = {name: ranks[lab] for name, lab in self.labels.items()}
            object.__setattr__(self, "_normalized_cache", cached)
        return dict(cached)

    def same_label(self, a: str, b: str) -> bool:
        """True if ``a`` and ``b`` share a label."""
        return self.label(a) == self.label(b)

    def __len__(self) -> int:
        return len(self.labels)


def label_groups(
    names: Sequence[str], labeling: Labeling
) -> tuple[tuple[str, ...], ...]:
    """Group ``names`` (a link's competing messages) by label, ascending;
    names sorted."""
    by_label: dict[Fraction, list[str]] = {}
    for name in names:
        by_label.setdefault(labeling.label(name), []).append(name)
    return tuple(
        tuple(sorted(group)) for _lab, group in sorted(by_label.items())
    )


def trivial_labeling(program: ArrayProgram) -> Labeling:
    """Give every message the same label.

    The paper notes this is always consistent but makes the compatible
    assignment maximally stringent: every competing message on a link then
    needs its own queue simultaneously.
    """
    return Labeling({name: Fraction(1) for name in program.messages})


def label_messages(
    program: ArrayProgram,
    lookahead: LookaheadConfig | None = None,
) -> Labeling:
    """Run the Section 6 labeling scheme on a deadlock-free program.

    When several pairs are executable the lowest message name crosses
    first. The paper leaves the choice open ("how to pick an optimal one
    ... is an issue"); this one matches its Fig. 7 example.

    Args:
        program: the program to label.
        lookahead: lookahead parameters, if the Section 8 relaxation is in
            effect; skipped-write messages then share labels (step 1d).

    Raises:
        DeadlockedProgramError: if the crossing-off procedure cannot
            complete — labeling is defined only for deadlock-free programs.
        LabelingError: if the produced labeling fails the consistency
            check (a guard; the scheme guarantees this cannot occur).
    """
    related = related_map(program)
    labels: dict[str, Fraction] = {}

    def assign(message: str, value: Fraction) -> None:
        labels[message] = value

    def observer(state: CrossingState, pair: PairCrossing) -> None:
        name = pair.message
        if name not in labels:
            value = _choose_label(state, pair, labels)
            assign(name, value)
            for member in related[name]:  # step 1c
                if member not in labels:
                    assign(member, value)
        # Step 1d: skipped-write messages share the pair's label.
        for skipped in sorted(pair.skipped_messages):
            if skipped not in labels:
                assign(skipped, labels[name])

    result = cross_off(
        program, lookahead=lookahead, mode="sequential", observer=observer
    )
    if not result.deadlock_free:
        raise DeadlockedProgramError(
            f"program {program.name!r} is not deadlock-free; labeling is "
            f"undefined (remaining ops in cells {sorted(result.uncrossed)})"
        )
    missing = set(program.messages) - set(labels)
    if missing:
        raise LabelingError(f"messages never labeled: {sorted(missing)}")
    labeling = Labeling(labels)
    from repro.core.consistency import check_consistency

    violations = check_consistency(program, labeling)
    if violations:
        raise LabelingError(
            f"scheme produced an inconsistent labeling: {violations[0]}"
        )
    return labeling


def _choose_label(
    state: CrossingState, pair: PairCrossing, labels: dict[str, Fraction]
) -> Fraction:
    """Steps 1a/1b: pick the label value for ``pair.message``."""
    future = state.future_messages(pair.sender, exclude=pair.message) | (
        state.future_messages(pair.receiver, exclude=pair.message)
    )
    labeled_future = sorted(labels[m] for m in future if m in labels)
    lower = Fraction(0)
    for cell in (pair.sender, pair.receiver):
        last = state.last_crossed_message[cell]
        if last is not None and last in labels:
            lower = max(lower, labels[last])
    if not labeled_future:
        # Step 1a: larger than all labels currently in use.
        in_use = max(labels.values(), default=Fraction(0))
        return max(in_use, lower) + 1
    # Step 1b: strictly between lower and the smallest labeled future label.
    upper = labeled_future[0]
    if not lower < upper:
        raise LabelingError(
            f"cannot place label for {pair.message!r}: needs a value in "
            f"({lower}, {upper})"
        )
    return (lower + upper) / 2


def labels_as_str(labeling: Labeling) -> str:
    """Compact single-line rendering, e.g. ``A=1 B=3 C=2``."""
    norm = labeling.normalized()
    return " ".join(f"{name}={norm[name]}" for name in sorted(norm))


# ---------------------------------------------------------------------------
# Constraint-based labeling (robust alternative to the Section 6 scheme)
# ---------------------------------------------------------------------------
#
# The literal Section 6 procedure is sensitive to which executable pair it
# picks when several exist: step 1a can hand a message a large label before
# a *later-discovered* chain of future constraints caps it below an
# already-used value, and the procedure gets stuck even though a consistent
# labeling exists (see tests/test_labeling.py for a concrete program). The
# paper leaves the pick unspecified ("how to pick an optimal one ... is an
# issue"). `constraint_labeling` sidesteps the order dependence entirely:
#
#   consistency  <=>  for every cell, for every pair of consecutively
#                     accessed messages a then b:  label(a) <= label(b).
#
# Those pairwise constraints form a digraph over messages. Any cycle forces
# equality (this subsumes the paper's related-messages rule: B..A..B yields
# B<=A<=B), so condensing strongly connected components and numbering them
# in topological order yields the *finest* consistent labeling — and it
# always exists, for every valid program. Lookahead's step-1d equalities
# (skipped-write messages share the pair's label) are added as two-way
# edges. On every worked example in the paper this reproduces the exact
# labels the text derives (A=1, C=2, B=3 for Fig. 7; A=B for Figs. 8-9).


def constraint_labeling(
    program: ArrayProgram,
    lookahead: LookaheadConfig | None = None,
) -> Labeling:
    """The finest consistent labeling, by constraint condensation.

    The constraint graph is built and condensed over the program's
    interned message ids (see :class:`~repro.core.program.InternTable`);
    since ids follow sorted-name order, every smallest-name tie-break
    below is a plain integer comparison, and names reappear only in the
    returned :class:`Labeling`.

    Args:
        program: the program to label (need not be deadlock-free — unlike
            the Section 6 scheme, the constraints exist statically —
            except when ``lookahead`` is given, which requires running the
            crossing-off procedure to discover skipped writes).
        lookahead: if the Section 8 relaxation is in effect, messages
            skipped while locating pairs are forced label-equal (step 1d).

    Raises:
        DeadlockedProgramError: only when ``lookahead`` is given and the
            program is not deadlock-free even with it.
    """
    intern = program.intern
    count = len(intern.message_names)
    edges: set[tuple[int, int]] = set()
    for seq in intern.encoded_transfers:
        prev = -1
        for _is_write, mid in seq:
            if prev >= 0 and prev != mid:
                edges.add((prev, mid))
            prev = mid
    if lookahead is not None:
        result = cross_off(program, lookahead=lookahead, mode="sequential")
        if not result.deadlock_free:
            raise DeadlockedProgramError(
                f"program {program.name!r} is not deadlock-free under the "
                f"given lookahead; labeling is undefined"
            )
        message_ids = intern.message_ids
        for pair in result.crossings:
            # Iterate the skipped tuples directly — building the
            # skipped_messages set per pair is measurable on
            # ensemble-scale analysis, and duplicates are free in a set
            # of edges anyway.
            pair_mid = message_ids[pair.message]
            for skipped, _count in pair.skipped_sender:
                skipped_mid = message_ids[skipped]
                edges.add((pair_mid, skipped_mid))
                edges.add((skipped_mid, pair_mid))
            for skipped, _count in pair.skipped_receiver:
                skipped_mid = message_ids[skipped]
                edges.add((pair_mid, skipped_mid))
                edges.add((skipped_mid, pair_mid))
    component_of, members = _condense(count, edges)
    order = _topological(component_of, members, edges)
    names = intern.message_names
    labels: dict[str, Fraction] = {}
    for rank, component in enumerate(order, start=1):
        value = Fraction(rank)
        for mid in members[component]:
            labels[names[mid]] = value
    return Labeling(labels)


def _condense(
    count: int, edges: set[tuple[int, int]]
) -> tuple[list[int], list[list[int]]]:
    """Strongly connected components over nodes ``0..count-1`` (Tarjan).

    Returns ``(component_of, members)``: the component index of each node
    and each component's member list.
    """
    adjacency: list[list[int]] = [[] for _ in range(count)]
    for a, b in sorted(edges):
        adjacency[a].append(b)
    index: list[int] = [-1] * count
    low: list[int] = [0] * count
    on_stack: list[bool] = [False] * count
    stack: list[int] = []
    component_of: list[int] = [-1] * count
    members: list[list[int]] = []
    counter = [0]

    def strongconnect(root: int) -> None:
        work = [(root, iter(adjacency[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, nbrs = work[-1]
            advanced = False
            for nxt in nbrs:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = len(members)
                comp_members: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp_members.append(member)
                    component_of[member] = comp
                    if member == node:
                        break
                members.append(comp_members)

    for node in range(count):
        if index[node] < 0:
            strongconnect(node)
    return component_of, members


def _topological(
    component_of: list[int],
    members: list[list[int]],
    edges: set[tuple[int, int]],
) -> list[int]:
    """Kahn's algorithm over the condensation, smallest-id-first ties.

    Message ids follow sorted-name order, so popping the component with
    the smallest member id is exactly the "lexicographically smallest
    message" tie-break that reproduces the paper's Fig. 7 walkthrough
    labels.
    """
    import heapq

    comp_count = len(members)
    comp_min = [min(member_ids) for member_ids in members]
    indegree = [0] * comp_count
    out: list[set[int]] = [set() for _ in range(comp_count)]
    for a, b in edges:
        ca, cb = component_of[a], component_of[b]
        if ca != cb and cb not in out[ca]:
            out[ca].add(cb)
            indegree[cb] += 1
    heap = [
        (comp_min[comp], comp)
        for comp in range(comp_count)
        if indegree[comp] == 0
    ]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _key, comp = heapq.heappop(heap)
        order.append(comp)
        for succ in out[comp]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, (comp_min[succ], succ))
    return order
