"""Streaming reducers: O(1)-state aggregates over RunSummary rows.

Every reducer implements three methods:

* ``update(row)`` — fold one :class:`~repro.sweep.summary.RunSummary`
  into the aggregate (called in job order by
  :class:`~repro.sweep.plan.SweepSession`);
* ``merge(other)`` — absorb another reducer of the same type and
  parameters, so partial aggregates computed independently (sharded
  sweeps run in separate sessions/processes) combine into one. For the counting reducers the
  merge is *exact*: merged state equals the single-pass state over the
  concatenated rows, regardless of how the rows were partitioned. For
  :class:`QuantileReducer` the merge combines t-digest centroids — exact
  while the digest is uncompressed (small inputs), within the digest's
  rank-error bound beyond that;
* ``summary()`` — a JSON-able dict of the aggregate.

``name`` labels the reducer in CLI output and JSON payloads.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigError
from repro.sweep.summary import RunSummary


class StreamReducer:
    """Base class for O(1)-state streaming aggregators.

    Subclasses override :meth:`update` (called once per
    :class:`~repro.sweep.summary.RunSummary`, in job order),
    :meth:`merge` (absorb a same-typed reducer, for worker-local or
    sharded reduction) and :meth:`summary` (a JSON-able dict of the
    aggregate). ``name`` labels the reducer in CLI output.
    """

    name = "reducer"

    def update(self, row: RunSummary) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def merge(self, other: "StreamReducer") -> None:  # pragma: no cover
        raise NotImplementedError

    def summary(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def snapshot_state(self) -> dict:
        """This reducer's exact state, for checkpoint serialization.

        The default — a shallow copy of ``__dict__`` — is exact for
        every built-in reducer because checkpoints pickle the snapshot
        immediately (the pickle is the deep copy). Restoring a snapshot
        and folding the remaining rows, in order, reproduces the
        uninterrupted run's state bit for bit; this, not ``merge`` (whose
        t-digest recompression is only rank-error-exact), is why resumed
        sweeps report byte-identical summaries.
        """
        return dict(self.__dict__)

    def restore_state(self, state: dict) -> None:
        """Overwrite this reducer's state in place with a snapshot.

        In place matters: callers hold references to the reducer objects
        they passed into the plan (the CLI prints their summaries), so a
        resume must not swap the objects out from under them.
        """
        self.__dict__.clear()
        self.__dict__.update(state)

    def _require_mergeable(self, other: "StreamReducer") -> None:
        if type(other) is not type(self):
            raise ConfigError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )


def merge_reducers(
    into: StreamReducer, *others: StreamReducer
) -> StreamReducer:
    """Fold ``others`` into ``into`` (left to right) and return it."""
    for other in others:
        into.merge(other)
    return into


class CompletedCount(StreamReducer):
    """Counts per outcome: completed / deadlock / timeout / infeasible."""

    name = "outcomes"

    def __init__(self) -> None:
        self.total = 0
        self.completed = 0
        self.deadlocked = 0
        self.timed_out = 0
        self.infeasible = 0

    def update(self, row: RunSummary) -> None:
        self.total += 1
        if row.error_kind is not None:
            self.infeasible += 1
        elif row.completed:
            self.completed += 1
        elif row.deadlocked:
            self.deadlocked += 1
        else:
            self.timed_out += 1

    def merge(self, other: StreamReducer) -> None:
        self._require_mergeable(other)
        self.total += other.total
        self.completed += other.completed
        self.deadlocked += other.deadlocked
        self.timed_out += other.timed_out
        self.infeasible += other.infeasible

    def summary(self) -> dict:
        return {
            "total": self.total,
            "completed": self.completed,
            "deadlock": self.deadlocked,
            "timeout": self.timed_out,
            "infeasible": self.infeasible,
        }


class MakespanHistogram(StreamReducer):
    """Histogram of completed-run makespans in fixed-width buckets."""

    name = "makespan"

    def __init__(self, bucket_width: int = 16) -> None:
        if bucket_width < 1:
            raise ConfigError(f"bucket_width must be >= 1, got {bucket_width}")
        self.bucket_width = bucket_width
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total_time = 0
        self.min_time: int | None = None
        self.max_time: int | None = None

    def update(self, row: RunSummary) -> None:
        if not row.completed:
            return
        self.count += 1
        self.total_time += row.time
        bucket = (row.time // self.bucket_width) * self.bucket_width
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        if self.min_time is None or row.time < self.min_time:
            self.min_time = row.time
        if self.max_time is None or row.time > self.max_time:
            self.max_time = row.time

    def merge(self, other: StreamReducer) -> None:
        self._require_mergeable(other)
        if other.bucket_width != self.bucket_width:
            raise ConfigError(
                f"cannot merge histograms with bucket widths "
                f"{self.bucket_width} and {other.bucket_width}"
            )
        self.count += other.count
        self.total_time += other.total_time
        for bucket, n in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        if other.min_time is not None and (
            self.min_time is None or other.min_time < self.min_time
        ):
            self.min_time = other.min_time
        if other.max_time is not None and (
            self.max_time is None or other.max_time > self.max_time
        ):
            self.max_time = other.max_time

    def summary(self) -> dict:
        return {
            "bucket_width": self.bucket_width,
            "count": self.count,
            "min": self.min_time,
            "max": self.max_time,
            "mean": (self.total_time / self.count) if self.count else None,
            "histogram": dict(sorted(self.buckets.items())),
        }


class DeadlockRateByConfig(StreamReducer):
    """Deadlock rate grouped by (policy, queues, capacity).

    Infeasible corners never simulated are excluded from the
    denominator — the rate answers "of the runs that executed under
    this config, how many deadlocked".
    """

    name = "deadlock-rate"

    def __init__(self) -> None:
        self.groups: dict[tuple[str, int, int], list[int]] = {}

    def update(self, row: RunSummary) -> None:
        if row.error_kind is not None:
            return
        key = (row.policy, row.queues, row.capacity)
        cell = self.groups.setdefault(key, [0, 0])
        cell[1] += 1
        if row.deadlocked:
            cell[0] += 1

    def merge(self, other: StreamReducer) -> None:
        self._require_mergeable(other)
        for key, (deadlocks, runs) in other.groups.items():
            cell = self.groups.setdefault(key, [0, 0])
            cell[0] += deadlocks
            cell[1] += runs

    def summary(self) -> dict:
        return {
            f"{policy} q={queues} cap={capacity}": {
                "deadlocks": deadlocks,
                "runs": runs,
                "rate": deadlocks / runs,
            }
            for (policy, queues, capacity), (deadlocks, runs) in sorted(
                self.groups.items()
            )
        }


class PerConfigMakespan(StreamReducer):
    """Makespan statistics of completed runs, per (policy, queues, cap).

    The provisioning companion to :class:`DeadlockRateByConfig`: once a
    config is known not to deadlock, this answers "and how fast does it
    run" — count, min, mean, max completion time per grid point, with an
    exact merge (plain sums and extrema).
    """

    name = "per-config-makespan"

    def __init__(self) -> None:
        # key -> [count, total_time, min_time, max_time]
        self.groups: dict[tuple[str, int, int], list[int]] = {}

    def update(self, row: RunSummary) -> None:
        if not row.completed:
            return
        key = (row.policy, row.queues, row.capacity)
        cell = self.groups.get(key)
        if cell is None:
            self.groups[key] = [1, row.time, row.time, row.time]
            return
        cell[0] += 1
        cell[1] += row.time
        if row.time < cell[2]:
            cell[2] = row.time
        if row.time > cell[3]:
            cell[3] = row.time

    def merge(self, other: StreamReducer) -> None:
        self._require_mergeable(other)
        for key, (count, total, lo, hi) in other.groups.items():
            cell = self.groups.get(key)
            if cell is None:
                self.groups[key] = [count, total, lo, hi]
                continue
            cell[0] += count
            cell[1] += total
            if lo < cell[2]:
                cell[2] = lo
            if hi > cell[3]:
                cell[3] = hi

    def summary(self) -> dict:
        return {
            f"{policy} q={queues} cap={capacity}": {
                "count": count,
                "min": lo,
                "mean": total / count,
                "max": hi,
            }
            for (policy, queues, capacity), (count, total, lo, hi) in sorted(
                self.groups.items()
            )
        }


def _quantile_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.999 -> "p99.9"`` (float-noise tolerant)."""
    return "p" + format(round(q * 100, 6), ".10g")


def validate_quantile_labels(fractions: Sequence[float]) -> None:
    """Reject distinct fractions whose summary labels would collide.

    ``_quantile_label`` rounds to 6 decimal places of percent, so two
    requested quantiles closer than 5e-9 (e.g. ``0.5`` and
    ``0.5000000004``) would both print as ``p50`` and one would silently
    overwrite the other in the summary dict. That is a caller error —
    surfaced here rather than as a vanished dict key.
    """
    by_label: dict[str, float] = {}
    for q in fractions:
        label = _quantile_label(q)
        seen = by_label.setdefault(label, q)
        if seen != q:
            raise ConfigError(
                f"quantiles {seen!r} and {q!r} both format as {label!r}; "
                "their summary entries would collide"
            )


def parse_quantiles(raw: str) -> tuple[float, ...]:
    """Parse ``"p50,p95,p99"`` (or bare ``"50,95"``) into fractions.

    Exact duplicates (``"p50,p50"``, or ``"p50,50"`` after
    normalization) are dropped, keeping first occurrence order; distinct
    quantiles that would collide to one summary label are rejected (see
    :func:`validate_quantile_labels`).
    """
    fractions: list[float] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        body = token[1:] if token[0] in "pP" else token
        try:
            percent = float(body)
        except ValueError:
            raise ConfigError(
                f"quantiles expect p-labels like p50 or p99.9, got {token!r}"
            ) from None
        if not 0.0 < percent <= 100.0:
            raise ConfigError(
                f"quantile {token!r} out of range (0, 100]"
            )
        # Round away the division noise (99.9/100 != 0.999 in floats) so
        # labels round-trip: p99.9 -> 0.999 -> "p99.9".
        fraction = round(percent / 100.0, 12)
        if fraction not in fractions:
            fractions.append(fraction)
    if not fractions:
        raise ConfigError("no quantiles given")
    validate_quantile_labels(fractions)
    return tuple(fractions)


class QuantileReducer(StreamReducer):
    """Streaming makespan quantiles via a merging t-digest.

    Completed-run makespans accumulate as weighted centroids compressed
    with the usual :math:`k_1` scale function (Dunning's merging
    digest): centroid weights are tight near the tails and loose near
    the median, so p95/p99 — the provisioning quantiles — stay accurate
    at a bounded memory cost of O(``compression``) centroids no matter
    how many runs stream through.

    While fewer than ~``compression``/π values have been absorbed, every
    centroid is a single observation and quantiles (and merges) are
    *exact*; past that the estimate carries the digest's usual rank
    error of a few parts per ``compression``. ``merge`` combines two
    digests by pooling centroids and recompressing — the mechanism that
    lets sharded sweeps reduce locally and combine.
    """

    name = "quantiles"

    def __init__(
        self,
        quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
        *,
        compression: int = 200,
    ) -> None:
        if compression < 10:
            raise ConfigError(
                f"compression must be >= 10, got {compression}"
            )
        for q in quantiles:
            if not 0.0 <= q <= 1.0:
                raise ConfigError(f"quantile {q!r} out of range [0, 1]")
        validate_quantile_labels(quantiles)
        self.quantiles = tuple(quantiles)
        self.compression = compression
        self.count = 0
        self.min_time: int | None = None
        self.max_time: int | None = None
        self._centroids: list[tuple[float, float]] = []  # (mean, weight)
        self._buffer: list[float] = []
        self._buffer_cap = 4 * compression

    def update(self, row: RunSummary) -> None:
        if not row.completed:
            return
        self.add(row.time)

    def add(self, value: float) -> None:
        """Absorb one observation (exposed for non-row use)."""
        self.count += 1
        if self.min_time is None or value < self.min_time:
            self.min_time = value
        if self.max_time is None or value > self.max_time:
            self.max_time = value
        self._buffer.append(value)
        if len(self._buffer) >= self._buffer_cap:
            self._compress()

    def _k(self, q: float) -> float:
        # k_1 scale function: fine resolution at the tails.
        return (self.compression / (2 * math.pi)) * math.asin(2 * q - 1)

    def _compress(self, force: bool = False) -> None:
        # The lazy guard is only sound while _centroids is known sorted;
        # merge() concatenates two sorted lists (not sorted overall) and
        # must force a pass.
        if (
            not force
            and not self._buffer
            and len(self._centroids) <= self.compression
        ):
            return
        pending = self._centroids + [(v, 1.0) for v in self._buffer]
        self._buffer = []
        if not pending:
            return
        pending.sort()
        total = sum(w for _m, w in pending)
        merged: list[tuple[float, float]] = []
        cur_mean, cur_w = pending[0]
        w_before = 0.0  # weight strictly left of the current centroid
        k_lo = self._k(0.0)
        for mean, w in pending[1:]:
            q_hi = (w_before + cur_w + w) / total
            if self._k(q_hi) - k_lo <= 1.0:
                # Weighted-mean absorb keeps the digest deterministic:
                # pending is sorted, so the fold order is canonical.
                cur_mean += (mean - cur_mean) * (w / (cur_w + w))
                cur_w += w
            else:
                merged.append((cur_mean, cur_w))
                w_before += cur_w
                k_lo = self._k(w_before / total)
                cur_mean, cur_w = mean, w
        merged.append((cur_mean, cur_w))
        self._centroids = merged

    def merge(self, other: StreamReducer) -> None:
        self._require_mergeable(other)
        if other.compression != self.compression:
            raise ConfigError(
                f"cannot merge digests with compressions "
                f"{self.compression} and {other.compression}"
            )
        self.count += other.count
        if other.min_time is not None and (
            self.min_time is None or other.min_time < self.min_time
        ):
            self.min_time = other.min_time
        if other.max_time is not None and (
            self.max_time is None or other.max_time > self.max_time
        ):
            self.max_time = other.max_time
        self._centroids = self._centroids + other._centroids
        self._buffer = self._buffer + other._buffer
        self._compress(force=True)

    def quantile(self, q: float) -> float | None:
        """The estimated ``q``-quantile of absorbed values, or ``None``.

        Interpolates between centroid midpoints: centroid *i* of weight
        :math:`w_i` sits at cumulative rank
        :math:`\\sum_{j<i} w_j + w_i/2`; ranks outside the first/last
        midpoint clamp to the exact tracked min/max.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile {q!r} out of range [0, 1]")
        if self.count == 0:
            return None
        self._compress()
        cents = self._centroids
        total = float(self.count)
        target = q * total
        cum = 0.0
        prev_mid = 0.0
        prev_mean = float(self.min_time)
        for mean, w in cents:
            mid = cum + w / 2.0
            if target <= mid:
                if mid == prev_mid:
                    value = mean
                else:
                    frac = (target - prev_mid) / (mid - prev_mid)
                    value = prev_mean + (mean - prev_mean) * frac
                return min(max(value, self.min_time), self.max_time)
            cum += w
            prev_mid = mid
            prev_mean = mean
        return float(self.max_time)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "min": self.min_time,
            "max": self.max_time,
            "quantiles": {
                _quantile_label(q): self.quantile(q) for q in self.quantiles
            },
        }
