"""Witness certificates and the store: mining, bands, subsumption,
persistence.

The soundness surface lives here: a certificate may only be minted for
runs the capacity arguments cover (deadlocked, explained by a cycle,
monotone static policy, uniform capacity), its band must cover exactly
the capacities that replay the witnessed trace, and a corrupt store must
read as empty — never prune anything — while staying observable.
"""

import dataclasses
import json

import pytest

from repro.arch.config import ArrayConfig
from repro.core.message import Message
from repro.core.ops import R, W
from repro.core.program import ArrayProgram
from repro.sweep import SimJob, summarize_result, witness_row
from repro.witness import (
    DeadlockWitness,
    WitnessStore,
    mine_witness,
    witness_scope,
)


def cross_read():
    """Two cells each reading before writing: the canonical Fig. 7-style
    circular wait — deadlocks at every capacity under every policy."""
    msgs = [Message("M0", "A", "B", 1), Message("M1", "B", "A", 1)]
    progs = {
        "A": [R("M1", into="x"), W("M0", constant=1.0)],
        "B": [R("M0", into="y"), W("M1", constant=2.0)],
    }
    return ArrayProgram(["A", "B"], msgs, progs)


def one_way():
    """A completes-everywhere program: a single forwarded message."""
    msgs = [Message("M", "A", "B", 1)]
    progs = {"A": [W("M", constant=1.0)], "B": [R("M", into="x")]}
    return ArrayProgram(["A", "B"], msgs, progs)


def deadlock_job(policy="static", capacity=1, queues=1, **config_kwargs):
    config = ArrayConfig(
        queues_per_link=queues, queue_capacity=capacity, **config_kwargs
    )
    return SimJob(cross_read(), config=config, policy=policy)


def mined(policy="static", capacity=1, **config_kwargs):
    job = deadlock_job(policy=policy, capacity=capacity, **config_kwargs)
    return mine_witness(job, job.run())


def make_witness(scope="s", capacity=1, peak=0, **overrides):
    fields = dict(
        scope=scope,
        program_fp="fp",
        policy="static",
        queues=1,
        capacity=capacity,
        peak_occupancy=peak,
        cycle=("cell:A", "cell:B"),
        cells=("A", "B"),
        messages=("M0", "M1"),
        time=0,
        events=2,
        words=0,
    )
    fields.update(overrides)
    return DeadlockWitness(**fields)


class TestMining:
    def test_certificate_fields(self):
        job = deadlock_job(capacity=1)
        result = job.run()
        assert result.deadlocked
        witness = mine_witness(job, result)
        assert witness is not None
        assert witness.scope == witness_scope(job)
        assert witness.policy == "static"
        assert witness.queues == 1
        assert witness.capacity == 1
        assert witness.peak_occupancy == 0  # both cells read first
        assert witness.cycle == ("cell:A", "cell:B")
        assert witness.cells == ("A", "B")
        assert witness.messages == ("M0", "M1")
        assert witness.time == result.time
        assert witness.events == result.events
        assert witness.words == result.words_transferred

    def test_fcfs_never_mined(self):
        job = deadlock_job(policy="fcfs")
        result = job.run()
        assert result.deadlocked  # the deadlock is real, just not minable
        assert mine_witness(job, result) is None

    def test_completed_run_not_mined(self):
        job = SimJob(
            one_way(),
            config=ArrayConfig(queues_per_link=1, queue_capacity=1),
            policy="static",
        )
        result = job.run()
        assert result.completed
        assert mine_witness(job, result) is None

    def test_queue_extension_not_mined(self):
        job = deadlock_job(allow_extension=True)
        result = job.run()
        assert result.deadlocked
        assert mine_witness(job, result) is None

    def test_link_override_not_mined(self):
        # The guard reads only the config: a per-link override breaks
        # the uniform-capacity band argument whatever the run did.
        job = deadlock_job()
        result = job.run()
        overridden = dataclasses.replace(
            job, config=job.config.with_(link_queue_overrides={("A", "B"): 2})
        )
        assert mine_witness(overridden, result) is None

    def test_no_cycle_not_mined(self):
        job = deadlock_job()
        result = job.run()
        chained = dataclasses.replace(result, wait_cycle=None)
        assert mine_witness(job, chained) is None

    def test_scope_masks_only_capacity(self):
        base = deadlock_job(capacity=0)
        assert witness_scope(base) == witness_scope(deadlock_job(capacity=7))
        assert witness_scope(base) != witness_scope(
            deadlock_job(capacity=0, policy="fcfs")
        )
        assert witness_scope(base) != witness_scope(
            deadlock_job(capacity=0, queues=2)
        )

    def test_cycle_members_decode_forwarder_names(self):
        # Multi-hop cycles include forwarder agents: the message rides
        # in the agent name (fwd:<message>:<hop>), not the blocked line.
        from repro.witness.certificate import _cycle_members

        cells, messages = _cycle_members(
            ("cell:A", "fwd:M5:2", "cell:B"),
            [
                "cell:A W(M0): awaiting queue on ('A', 'B')",
                "cell:C R(M9): not on the cycle",
            ],
        )
        assert cells == ("A", "B")
        assert messages == ("M0", "M5")

    def test_cycle_canonicalization_is_rotation_invariant(self):
        job = deadlock_job()
        result = job.run()
        rotated = dataclasses.replace(
            result, wait_cycle=["cell:B", "cell:A", "cell:B"]
        )
        assert mine_witness(job, rotated).cycle == ("cell:A", "cell:B")


class TestCapacityBand:
    def test_closed_witness_covers_only_itself(self):
        # peak == capacity: a push might have blocked, the trace is
        # capacity-constrained, nothing generalizes.
        witness = make_witness(capacity=2, peak=2)
        assert not witness.open_ray
        assert witness.covers_capacity(2)
        assert not witness.covers_capacity(1)
        assert not witness.covers_capacity(3)

    def test_open_ray_covers_everything_above_peak(self):
        witness = make_witness(capacity=4, peak=2)
        assert witness.open_ray
        for cap in (2, 3, 4, 5, 1000):
            assert witness.covers_capacity(cap)
        assert not witness.covers_capacity(1)

    def test_subsumption(self):
        wide = make_witness(capacity=4, peak=0)
        narrow = make_witness(capacity=3, peak=2)
        closed = make_witness(capacity=2, peak=2)
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)  # weaker bound, higher peak
        assert wide.subsumes(closed)
        assert not closed.subsumes(wide)  # a point cannot cover a ray
        assert not wide.subsumes(make_witness(scope="other", capacity=2))

    def test_open_witness_below_does_not_subsume_higher_capacity(self):
        # Covers the jobs, but its dominance bound (planner seeding) is
        # weaker — the higher-capacity witness must survive an add.
        low = make_witness(capacity=1, peak=0)
        high = make_witness(capacity=2, peak=0)
        assert not low.subsumes(high)
        assert high.subsumes(low)

    def test_witness_id_stable_and_content_sensitive(self):
        assert make_witness().witness_id == make_witness().witness_id
        assert (
            make_witness(capacity=3).witness_id
            != make_witness(capacity=4).witness_id
        )

    def test_dict_roundtrip(self):
        witness = mined(capacity=2)
        payload = witness.as_dict()
        assert payload["id"] == witness.witness_id
        assert DeadlockWitness.from_dict(payload) == witness
        json.dumps(payload)  # JSON-ready, no tuples or exotic types


class TestStore:
    def test_add_keeps_the_strongest_certificate(self):
        store = WitnessStore()
        w0, w1, w2 = mined(capacity=0), mined(capacity=1), mined(capacity=2)
        assert store.add(w0)
        # cap=1 (open ray from peak 0) covers cap=0 and dominates it.
        assert store.add(w1)
        assert store.pruned == 1 and len(store) == 1
        # cap=2 strengthens the dominance bound further; cap=1 goes.
        assert store.add(w2)
        assert len(store) == 1
        assert next(store.witnesses()) == w2
        # Re-adding anything weaker is a no-op.
        assert not store.add(w1)
        assert store.add_subsumed == 1

    def test_find_respects_band_and_policy(self):
        store = WitnessStore()
        store.add(mined(capacity=1))
        covered = deadlock_job(capacity=5)
        assert store.find(covered) is not None
        assert store.hits == 1
        # FCFS is exempt before any certificate is consulted.
        assert store.find(deadlock_job(policy="fcfs", capacity=5)) is None
        # So are configs outside the band argument.
        assert store.find(deadlock_job(capacity=5, allow_extension=True)) is None
        # Different scope (queue count) never matches.
        assert store.find(deadlock_job(capacity=5, queues=2)) is None

    def test_find_closed_witness_is_a_point(self):
        job = deadlock_job(capacity=5)
        store = WitnessStore()
        store.add(make_witness(scope=witness_scope(job), capacity=5, peak=5))
        assert store.find(job) is not None
        assert store.find(deadlock_job(capacity=4)) is None
        assert store.find(deadlock_job(capacity=6)) is None

    def test_empty_store_find_builds_no_scope(self, monkeypatch):
        from repro.witness import store as store_mod

        def no_scope(job):
            raise AssertionError("an empty store built a scope")

        monkeypatch.setattr(store_mod, "witness_scope", no_scope)
        assert WitnessStore().find(deadlock_job(capacity=5)) is None

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "w.json"
        store = WitnessStore(path)
        witness = mined(capacity=2)
        store.add(witness)
        store.save()
        reloaded = WitnessStore(path)
        assert list(reloaded.witnesses()) == [witness]
        assert reloaded.loads_rejected == 0
        # No temp files left behind by the atomic publish.
        assert [p.name for p in tmp_path.iterdir()] == ["w.json"]

    def test_missing_file_is_a_clean_cold_start(self, tmp_path):
        store = WitnessStore(tmp_path / "absent.json")
        assert len(store) == 0
        assert store.loads_rejected == 0

    @pytest.mark.parametrize(
        "blob",
        [
            b"\x00\x01garbage",
            b"not json at all",
            b"[1, 2, 3]",
            json.dumps({"version": 99, "witnesses": []}).encode(),
            json.dumps({"version": 1, "witnesses": [{"scope": "s"}]}).encode(),
        ],
    )
    def test_corrupt_file_reads_empty_but_counted(self, tmp_path, blob):
        path = tmp_path / "w.json"
        path.write_bytes(blob)
        store = WitnessStore(path)
        assert len(store) == 0
        assert store.loads_rejected == 1
        assert store.stats()["loads_rejected"] == 1

    def test_pathless_save_is_noop(self):
        WitnessStore().save()  # must not raise

    def test_loads_close_their_files(self, tmp_path):
        # A file left for the garbage collector to close raises
        # ResourceWarning (shown under ``python -X dev``).
        import warnings

        from repro.sweep import CompletedCount, SweepCheckpoint

        checkpoint_path = str(tmp_path / "sweep.ckpt")
        checkpoint = SweepCheckpoint(checkpoint_path, "fp", 8)
        checkpoint.mark_done(0)
        checkpoint.save([CompletedCount()])
        store_path = tmp_path / "w.json"
        store = WitnessStore(store_path)
        store.add(mined(capacity=2))
        store.save()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            resumed = SweepCheckpoint(checkpoint_path, "fp", 8)
            assert resumed.resume([CompletedCount()]) == 1
            assert len(WitnessStore(store_path)) == 1
        assert [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ] == []

    def test_prune_compacts_hand_merged_stores(self, tmp_path):
        # add() keeps a store minimal; a file assembled by hand (or by
        # merging two stores) may hold subsumed entries.
        weak, strong = mined(capacity=0), mined(capacity=2)
        path = tmp_path / "merged.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "witnesses": [weak.as_dict(), strong.as_dict()],
                }
            )
        )
        store = WitnessStore(path)
        assert len(store) == 2
        assert store.prune() == 1
        assert list(store.witnesses()) == [strong]
        store.save()
        assert len(WitnessStore(path)) == 1

    def test_get_by_unique_prefix(self):
        store = WitnessStore()
        witness = mined(capacity=1)
        store.add(witness)
        assert store.get(witness.witness_id) == witness
        assert store.get(witness.witness_id[:4]) == witness
        assert store.get("zzzz") is None
        # An ambiguous prefix refuses to guess.
        other = make_witness(scope="other")
        store.add(other)
        assert store.get("") is None

    def test_stats_counters(self):
        store = WitnessStore()
        store.add(mined(capacity=1))
        store.add(mined(capacity=0))  # subsumed
        store.find(deadlock_job(capacity=9))
        stats = store.stats()
        assert stats["witnesses"] == 1
        assert stats["scopes"] == 1
        assert stats["added"] == 1
        assert stats["add_subsumed"] == 1
        assert stats["hits"] == 1


class TestWitnessRow:
    def test_row_matches_simulated_row_exactly(self):
        # The acceptance property at its smallest: inside the band the
        # synthesized row equals the simulated one, field for field.
        witness = mined(capacity=1)
        for capacity in (1, 3, 7):
            job = deadlock_job(capacity=capacity)
            assert witness.covers_capacity(capacity)
            simulated = summarize_result(5, job, job.run())
            assert witness_row(5, job, witness) == simulated

    def test_row_carries_this_jobs_config(self):
        witness = mined(capacity=1)
        row = witness_row(0, deadlock_job(capacity=6, queues=1), witness)
        assert row.capacity == 6
        assert row.deadlocked and not row.completed and not row.timed_out
        assert row.error_kind is None and row.error is None
