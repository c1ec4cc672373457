"""Reducer merge contract and t-digest quantiles.

Two regimes matter for :class:`QuantileReducer`:

* **exact** — while the digest holds fewer values than its compression
  threshold (singleton centroids), quantiles equal the closed-form
  midpoint-interpolation over the sorted values, and ``merge`` is
  exactly associative: any partition of the observations yields the
  same summary. Hypothesis pins both below the threshold.
* **compressed** — beyond the threshold the digest guarantees only
  bounded rank error; a seeded 5000-value stream checks the estimate
  stays within a 3% rank window of the exact quantile.

For the counting reducers (outcomes, histogram, deadlock rate,
per-config makespan) ``merge`` must be exact at any size: merged state
over any partition equals the single-pass state.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sweep import (
    CompletedCount,
    DeadlockRateByConfig,
    MakespanHistogram,
    PerConfigMakespan,
    QuantileReducer,
    RunSummary,
    merge_reducers,
    parse_quantiles,
)

QUANTS = (0.5, 0.95, 0.99)


def make_row(index, completed, deadlocked, time, policy, queues, capacity, err):
    return RunSummary(
        index=index,
        completed=completed,
        deadlocked=deadlocked and not completed,
        timed_out=not completed and not deadlocked and err is None,
        time=time,
        events=time * 2,
        words=time,
        policy=policy,
        queues=queues,
        capacity=capacity,
        error_kind="ConfigError" if err else None,
        error="boom" if err else None,
    )


row_strategy = st.builds(
    make_row,
    index=st.integers(min_value=0, max_value=10**6),
    completed=st.booleans(),
    deadlocked=st.booleans(),
    time=st.integers(min_value=0, max_value=500),
    policy=st.sampled_from(["ordered", "fcfs", "static"]),
    queues=st.sampled_from([1, 2, 8]),
    capacity=st.sampled_from([0, 2]),
    err=st.booleans(),
)

REDUCER_FACTORIES = (
    CompletedCount,
    lambda: MakespanHistogram(bucket_width=8),
    DeadlockRateByConfig,
    PerConfigMakespan,
    lambda: QuantileReducer(QUANTS),
)


def single_pass(factory, rows):
    reducer = factory()
    for row in rows:
        reducer.update(row)
    return reducer


class TestMergeContract:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(row_strategy, max_size=40),
        cut=st.integers(min_value=0, max_value=40),
    )
    def test_merge_of_any_split_equals_single_pass(self, rows, cut):
        cut = min(cut, len(rows))
        for factory in REDUCER_FACTORIES:
            left = single_pass(factory, rows[:cut])
            right = single_pass(factory, rows[cut:])
            left.merge(right)
            assert left.summary() == single_pass(factory, rows).summary()

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(row_strategy, max_size=36),
        cuts=st.tuples(
            st.integers(min_value=0, max_value=36),
            st.integers(min_value=0, max_value=36),
        ),
    )
    def test_merge_is_associative(self, rows, cuts):
        a, b = sorted(min(c, len(rows)) for c in cuts)
        parts = [rows[:a], rows[a:b], rows[b:]]
        for factory in REDUCER_FACTORIES:
            left_first = single_pass(factory, parts[0])
            left_first.merge(single_pass(factory, parts[1]))
            left_first.merge(single_pass(factory, parts[2]))

            right_first = single_pass(factory, parts[1])
            right_first.merge(single_pass(factory, parts[2]))
            outer = single_pass(factory, parts[0])
            outer.merge(right_first)
            assert left_first.summary() == outer.summary()

    def test_merge_rejects_foreign_types_and_params(self):
        with pytest.raises(ConfigError):
            CompletedCount().merge(DeadlockRateByConfig())
        with pytest.raises(ConfigError):
            MakespanHistogram(bucket_width=8).merge(
                MakespanHistogram(bucket_width=16)
            )
        with pytest.raises(ConfigError):
            QuantileReducer(QUANTS, compression=100).merge(
                QuantileReducer(QUANTS, compression=200)
            )

    def test_per_config_makespan_merges_a_shared_config(self):
        """Shards that share a config fold its count, total and extrema;
        a config in one shard only is copied. The second shard holds both
        a lower minimum and a higher maximum of the shared config, so
        each extremum comparison takes its replacing branch. Merged
        either way round, they equal one reducer fed both shards' rows."""
        left_rows = [
            make_row(0, True, False, 20, "static", 2, 0, False),
            make_row(1, True, False, 30, "static", 2, 0, False),
            make_row(2, True, False, 7, "fcfs", 1, 2, False),
        ]
        right_rows = [
            make_row(3, True, False, 10, "static", 2, 0, False),
            make_row(4, True, False, 40, "static", 2, 0, False),
            make_row(5, True, False, 25, "static", 2, 0, False),
        ]
        both = single_pass(PerConfigMakespan, left_rows + right_rows)
        assert both.summary()["static q=2 cap=0"] == {
            "count": 5, "min": 10, "mean": 25.0, "max": 40,
        }
        for first, second in ((left_rows, right_rows), (right_rows, left_rows)):
            merged = single_pass(PerConfigMakespan, first)
            merged.merge(single_pass(PerConfigMakespan, second))
            assert merged.groups == both.groups
            assert merged.summary() == both.summary()

    def test_merge_reducers_helper_folds_left(self):
        shards = []
        for base in range(3):
            shard = CompletedCount()
            shard.update(make_row(base, True, False, 10, "ordered", 1, 0, False))
            shards.append(shard)
        merged = merge_reducers(*shards)
        assert merged is shards[0]
        assert merged.summary()["total"] == 3


def exact_quantile(values, q):
    """Midpoint-interpolation quantile (the digest's exact-regime form)."""
    v = sorted(values)
    n = len(v)
    t = q * n
    if t <= 0.5:
        return v[0]
    if t >= n - 0.5:
        return v[-1]
    idx = t - 0.5
    lo = math.floor(idx)
    frac = idx - lo
    return v[lo] + (v[lo + 1] - v[lo]) * frac


class TestQuantileReducer:
    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=60
        ),
        q=st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0]),
    )
    def test_exact_below_compression_threshold(self, values, q):
        digest = QuantileReducer((q,), compression=400)
        for value in values:
            digest.add(value)
        assert digest.quantile(q) == pytest.approx(
            exact_quantile(values, q), abs=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=1, max_size=60
        ),
        cut=st.integers(min_value=0, max_value=60),
    )
    def test_merge_exact_in_singleton_regime(self, values, cut):
        cut = min(cut, len(values))
        whole = QuantileReducer(QUANTS, compression=400)
        for v in values:
            whole.add(v)
        left = QuantileReducer(QUANTS, compression=400)
        right = QuantileReducer(QUANTS, compression=400)
        for v in values[:cut]:
            left.add(v)
        for v in values[cut:]:
            right.add(v)
        left.merge(right)
        assert left.summary() == whole.summary()

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=2, max_size=60
        ),
        cut=st.integers(min_value=1, max_value=59),
    )
    def test_merge_of_flushed_shards_stays_sorted_and_exact(self, values, cut):
        """Regression: merging two already-flushed digests must re-sort.

        summary() flushes each shard's buffer into centroids; a merge
        then concatenates two sorted centroid lists whose ranges
        overlap, which is NOT sorted overall — the compress pass must
        run anyway or quantile() walks non-monotone ranks.
        """
        cut = min(cut, len(values) - 1)
        left = QuantileReducer(QUANTS, compression=400)
        right = QuantileReducer(QUANTS, compression=400)
        for v in values[:cut]:
            left.add(v)
        for v in values[cut:]:
            right.add(v)
        left.summary(), right.summary()  # flush both buffers
        left.merge(right)
        for q in QUANTS:
            assert left.quantile(q) == pytest.approx(
                exact_quantile(values, q), abs=1e-9
            )

    def test_compressed_regime_bounded_rank_error(self):
        rng = random.Random(20260729)
        values = [rng.lognormvariate(3.0, 1.0) for _ in range(5000)]
        digest = QuantileReducer(QUANTS, compression=200)
        for v in values:
            digest.add(v)
        ordered = sorted(values)
        for q in QUANTS:
            estimate = digest.quantile(q)
            lo = ordered[max(0, int((q - 0.03) * 5000))]
            hi = ordered[min(4999, int((q + 0.03) * 5000))]
            assert lo <= estimate <= hi, (q, lo, estimate, hi)

    def test_compressed_merge_bounded_rank_error(self):
        rng = random.Random(42)
        values = [rng.gauss(100, 25) for _ in range(6000)]
        shards = [QuantileReducer(QUANTS, compression=200) for _ in range(3)]
        for i, v in enumerate(values):
            shards[i % 3].add(v)
        merged = merge_reducers(*shards)
        assert merged.count == 6000
        ordered = sorted(values)
        for q in QUANTS:
            estimate = merged.quantile(q)
            lo = ordered[max(0, int((q - 0.03) * 6000))]
            hi = ordered[min(5999, int((q + 0.03) * 6000))]
            assert lo <= estimate <= hi, (q, lo, estimate, hi)

    def test_memory_stays_bounded(self):
        digest = QuantileReducer((0.5,), compression=100)
        for v in range(50_000):
            digest.add(v)
        digest.quantile(0.5)  # flush
        assert len(digest._centroids) <= 300
        assert digest.count == 50_000
        assert digest.min_time == 0 and digest.max_time == 49_999

    def test_empty_digest(self):
        digest = QuantileReducer(QUANTS)
        assert digest.quantile(0.5) is None
        summary = digest.summary()
        assert summary["count"] == 0
        assert summary["quantiles"] == {"p50": None, "p95": None, "p99": None}

    def test_only_completed_rows_counted(self):
        digest = QuantileReducer((0.5,))
        digest.update(make_row(0, True, False, 10, "ordered", 1, 0, False))
        digest.update(make_row(1, False, True, 99, "ordered", 1, 0, False))
        digest.update(make_row(2, False, False, 99, "ordered", 1, 0, True))
        assert digest.count == 1
        assert digest.quantile(0.5) == 10

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            QuantileReducer((1.5,))
        with pytest.raises(ConfigError):
            QuantileReducer((0.5,), compression=5)
        with pytest.raises(ConfigError):
            QuantileReducer((0.5,)).quantile(-0.1)

    def test_summary_labels(self):
        digest = QuantileReducer((0.5, 0.95, 0.999))
        digest.add(1)
        assert set(digest.summary()["quantiles"]) == {"p50", "p95", "p99.9"}


class TestParseQuantiles:
    def test_p_labels_and_bare_numbers(self):
        assert parse_quantiles("p50,p95,p99") == (0.5, 0.95, 0.99)
        assert parse_quantiles("50, 99.9") == (0.5, 0.999)

    def test_invalid_tokens_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantiles("pfoo")
        with pytest.raises(ConfigError):
            parse_quantiles("p0")
        with pytest.raises(ConfigError):
            parse_quantiles("150")
        with pytest.raises(ConfigError):
            parse_quantiles(",")

    def test_exact_duplicates_deduped_keeping_order(self):
        # "p50,p50" and the p-prefixed/bare mix both normalize to one
        # fraction; the summary would otherwise carry duplicate work
        # for a single "p50" key.
        assert parse_quantiles("p50,p50") == (0.5,)
        assert parse_quantiles("p95,50,p95,p50") == (0.95, 0.5)

    def test_label_collisions_rejected(self):
        # Distinct fractions closer than _quantile_label's 6-decimal
        # percent rounding would silently overwrite each other's
        # summary entry ("p50" twice); that is a caller error.
        with pytest.raises(ConfigError, match="collide"):
            parse_quantiles("p50,p50.0000000004")
        with pytest.raises(ConfigError, match="collide"):
            QuantileReducer((0.5, 0.5000000000004))

    def test_near_but_distinct_quantiles_still_allowed(self):
        # Above the rounding granularity, close quantiles are distinct
        # labels and must keep working.
        assert parse_quantiles("p50,p50.0001") == (0.5, 0.500001)
        digest = QuantileReducer((0.5, 0.500001))
        digest.add(1)
        assert set(digest.summary()["quantiles"]) == {"p50", "p50.0001"}
