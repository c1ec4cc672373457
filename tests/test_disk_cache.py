"""Disk-tier analysis cache: round trips, corruption, versioning,
size-bounded LRU eviction, batch."""

import os
import pickle

import pytest

from repro import ArrayConfig, simulate
from repro.algorithms.fir import fir_program, fir_registers
from repro.perf import (
    GLOBAL_ANALYSIS_CACHE,
    DiskAnalysisCache,
    active_disk_cache,
    clear_analysis_cache,
    configure_disk_cache,
)
from repro.perf.disk_cache import (
    ENV_VAR,
    FORMAT_VERSION,
    MAX_BYTES_ENV_VAR,
    reset_disk_cache_state,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_analysis_cache()
    reset_disk_cache_state()
    yield
    clear_analysis_cache()
    configure_disk_cache(None)
    reset_disk_cache_state()


def _run(program, registers, capacity=2):
    return simulate(
        program,
        config=ArrayConfig(queue_capacity=capacity),
        registers=registers,
    )


class TestRoundTrip:
    def test_restart_skips_reanalysis(self, tmp_path):
        disk = configure_disk_cache(tmp_path)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        first = _run(program, registers)
        assert disk.stats()["stores"] == 1
        # Simulate a fresh process: the in-memory cache is gone, the
        # disk tier is not.
        clear_analysis_cache()
        from repro.arch.routing import default_router
        from repro.arch.topology import ExplicitLinear

        topology = ExplicitLinear(tuple(program.cells))
        entry = GLOBAL_ANALYSIS_CACHE.lookup(
            program,
            topology,
            default_router(topology),
            ArrayConfig(queue_capacity=2),
        )
        # The labeling arrived preloaded from disk before any simulation
        # ran in this "process" — nothing recomputed it.
        assert disk.stats()["hits"] == 1
        assert entry._labeling is not None
        second = _run(program, registers)
        assert first.received == second.received
        assert first.assignment_trace == second.assignment_trace
        assert first.time == second.time

    def test_unchanged_entry_not_rewritten(self, tmp_path):
        disk = configure_disk_cache(tmp_path)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        _run(program, registers)
        stores = disk.stats()["stores"]
        _run(program, registers)  # in-memory hit, nothing new computed
        assert disk.stats()["stores"] == stores

    def test_results_identical_to_fresh_analysis(self, tmp_path):
        configure_disk_cache(tmp_path)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        _run(program, registers)
        clear_analysis_cache()
        from_disk = _run(program, registers)
        configure_disk_cache(None)
        clear_analysis_cache()
        fresh = _run(program, registers)
        assert from_disk.received == fresh.received
        assert from_disk.registers == fresh.registers
        assert from_disk.assignment_trace == fresh.assignment_trace
        assert from_disk.time == fresh.time
        assert from_disk.events == fresh.events

    def test_distinct_configs_distinct_entries(self, tmp_path):
        disk = configure_disk_cache(tmp_path)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        _run(program, registers, capacity=0)
        _run(program, registers, capacity=2)
        assert len(disk) == 2


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        disk = configure_disk_cache(tmp_path)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        expected = _run(program, registers)
        for entry in tmp_path.glob("*.analysis.pkl"):
            entry.write_bytes(b"\x80garbage")
        clear_analysis_cache()
        result = _run(program, registers)
        assert result.received == expected.received
        assert disk.stats()["misses"] >= 1

    def test_version_mismatch_is_a_miss(self, tmp_path):
        disk = configure_disk_cache(tmp_path)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        _run(program, registers)
        (path,) = tmp_path.glob("*.analysis.pkl")
        payload = pickle.loads(path.read_bytes())
        payload["version"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        clear_analysis_cache()
        hits_before = disk.stats()["hits"]
        _run(program, registers)
        assert disk.stats()["hits"] == hits_before  # stale format ignored

    def test_truncated_entry_rejected_and_recomputed(self, tmp_path):
        disk = configure_disk_cache(tmp_path)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        expected = _run(program, registers)
        (path,) = tmp_path.glob("*.analysis.pkl")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        clear_analysis_cache()
        hits_before = disk.stats()["hits"]
        result = _run(program, registers)  # recomputed, never deserialized
        assert result.received == expected.received
        assert result.time == expected.time
        assert disk.stats()["hits"] == hits_before
        # The fresh analysis was re-published over the truncated entry,
        # and a later restart reads it back cleanly.
        clear_analysis_cache()
        _run(program, registers)
        assert disk.stats()["hits"] == hits_before + 1

    def test_bit_flipped_artifacts_fail_checksum(self, tmp_path):
        disk = configure_disk_cache(tmp_path)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        expected = _run(program, registers)
        (path,) = tmp_path.glob("*.analysis.pkl")
        payload = pickle.loads(path.read_bytes())
        blob = bytearray(payload["artifacts"])
        # Flip one bit deep inside the artifact payload: the outer
        # envelope still unpickles, so only the checksum stands between
        # the flip and deserializing garbage.
        blob[len(blob) // 2] ^= 0x40
        payload["artifacts"] = bytes(blob)
        path.write_bytes(pickle.dumps(payload))
        clear_analysis_cache()
        rejected_before = disk.stats()["rejected"]
        result = _run(program, registers)
        assert disk.stats()["rejected"] == rejected_before + 1
        assert result.received == expected.received
        assert result.assignment_trace == expected.assignment_trace

    def test_checksum_optional_but_verified_when_present(self, tmp_path):
        from repro.perf import AnalysisKey

        key = AnalysisKey("p", "t", "r", 0, False)
        unchecked = DiskAnalysisCache(tmp_path, checksum=False)
        assert unchecked.store(key, {"x": 1})
        (path,) = tmp_path.glob("*.analysis.pkl")
        assert pickle.loads(path.read_bytes())["checksum"] is None
        # Entries written without a digest still load (by either reader).
        assert unchecked.load(key) == {"x": 1}
        checked = DiskAnalysisCache(tmp_path)  # checksum=True default
        assert checked.load(key) == {"x": 1}
        # And a checksummed entry read by a checksum=False instance is
        # still verified: the flag gates writing, never verification.
        assert checked.store(key, {"x": 2})
        payload = pickle.loads(path.read_bytes())
        assert payload["checksum"] is not None
        payload["artifacts"] = payload["artifacts"][:-1] + b"\x00"
        path.write_bytes(pickle.dumps(payload))
        assert unchecked.load(key) is None
        assert unchecked.stats()["rejected"] == 1

    def test_no_tmp_files_left_behind(self, tmp_path):
        configure_disk_cache(tmp_path)
        _run(fir_program(4, 8), fir_registers((1.0,) * 4))
        assert not list(tmp_path.glob("*.tmp"))

    def test_unpicklable_artifacts_degrade_gracefully(self, tmp_path):
        disk = DiskAnalysisCache(tmp_path)
        from repro.perf import AnalysisKey

        key = AnalysisKey("p", "t", "r", 0, False)
        assert disk.store(key, {"labeling": lambda: None}) is False
        assert disk.load(key) is None

    def test_clear_removes_entries(self, tmp_path):
        disk = configure_disk_cache(tmp_path)
        _run(fir_program(4, 8), fir_registers((1.0,) * 4))
        assert len(disk) == 1
        assert disk.clear() == 1
        assert len(disk) == 0


class TestErrorAccounting:
    """Corruption is a counted miss; genuine bugs propagate."""

    def _stored_key(self, disk):
        from repro.perf import AnalysisKey

        key = AnalysisKey("p", "t", "r", 0, False)
        assert disk.store(key, {"x": 1})
        return key

    def test_cold_miss_is_not_a_load_error(self, tmp_path):
        from repro.perf import AnalysisKey

        disk = DiskAnalysisCache(tmp_path)
        assert disk.load(AnalysisKey("absent", "t", "r", 0, False)) is None
        stats = disk.stats()
        assert stats["misses"] == 1
        assert stats["load_errors"] == 0

    def test_corrupt_entry_counted_as_load_error(self, tmp_path):
        disk = DiskAnalysisCache(tmp_path)
        key = self._stored_key(disk)
        (path,) = tmp_path.glob("*.analysis.pkl")
        path.write_bytes(b"\x80garbage")
        assert disk.load(key) is None
        stats = disk.stats()
        assert stats["load_errors"] == 1
        assert stats["misses"] == 1

    def test_unreadable_entry_counted_as_load_error(self, tmp_path):
        disk = DiskAnalysisCache(tmp_path)
        key = self._stored_key(disk)
        path = tmp_path / f"{_entry_path(disk, key).name}"
        path.unlink()
        path.mkdir()  # read_bytes now raises IsADirectoryError (OSError)
        assert disk.load(key) is None
        assert disk.stats()["load_errors"] == 1

    def test_failed_store_counted(self, tmp_path):
        disk = DiskAnalysisCache(tmp_path)
        from repro.perf import AnalysisKey

        key = AnalysisKey("p", "t", "r", 0, False)
        assert disk.store(key, {"labeling": lambda: None}) is False
        assert disk.stats()["store_errors"] == 1

    def test_bug_class_exception_propagates_from_load(
        self, tmp_path, monkeypatch
    ):
        """A MemoryError (or any programming error) inside
        deserialization must not be swallowed as a cache miss."""
        import pickle as pickle_mod

        disk = DiskAnalysisCache(tmp_path)
        key = self._stored_key(disk)

        def bomb(raw):
            raise MemoryError("boom")

        monkeypatch.setattr(pickle_mod, "loads", bomb)
        with pytest.raises(MemoryError):
            disk.load(key)

    def test_bug_class_exception_propagates_from_artifacts(
        self, tmp_path, monkeypatch
    ):
        import pickle as pickle_mod

        disk = DiskAnalysisCache(tmp_path)
        key = self._stored_key(disk)
        real_loads = pickle_mod.loads
        calls = {"n": 0}

        def bomb_second(raw):
            calls["n"] += 1
            if calls["n"] == 1:
                return real_loads(raw)  # outer envelope parses fine
            raise ZeroDivisionError("bug in __setstate__")

        monkeypatch.setattr(pickle_mod, "loads", bomb_second)
        with pytest.raises(ZeroDivisionError):
            disk.load(key)
        # The propagated bug was not miscounted as a miss.
        assert disk.stats()["load_errors"] == 0


def _entry_path(cache, key):
    return cache._path(key)


def _age(path, seconds):
    """Push ``path``'s mtime ``seconds`` into the past (deterministic
    LRU ordering without sleeping)."""
    stat = path.stat()
    os.utime(path, (stat.st_atime, stat.st_mtime - seconds))


class TestEviction:
    """Size-bounded LRU-by-mtime eviction."""

    def _keys(self, n):
        from repro.perf import AnalysisKey

        return [AnalysisKey(f"p{i}", "t", "r", 0, False) for i in range(n)]

    def _entry_bytes(self, tmp_path):
        """Size of one stored entry for these keys (they are uniform)."""
        probe = DiskAnalysisCache(tmp_path / "probe")
        (key,) = self._keys(1)
        assert probe.store(key, {"x": 0})
        return _entry_path(probe, key).stat().st_size

    def test_unbounded_by_default(self, tmp_path):
        disk = DiskAnalysisCache(tmp_path)
        for i, key in enumerate(self._keys(8)):
            assert disk.store(key, {"x": i})
        assert len(disk) == 8
        assert disk.stats()["evictions"] == 0

    def test_store_evicts_oldest_beyond_budget(self, tmp_path):
        size = self._entry_bytes(tmp_path)
        disk = DiskAnalysisCache(tmp_path, max_bytes=2 * size)
        k0, k1, k2 = self._keys(3)
        disk.store(k0, {"x": 0})
        _age(_entry_path(disk, k0), 30)
        disk.store(k1, {"x": 1})
        _age(_entry_path(disk, k1), 20)
        disk.store(k2, {"x": 2})
        assert len(disk) == 2
        assert disk.load(k0) is None  # oldest evicted
        assert disk.load(k1) == {"x": 1}
        assert disk.load(k2) == {"x": 2}
        assert disk.stats()["evictions"] == 1

    def test_load_refreshes_recency(self, tmp_path):
        size = self._entry_bytes(tmp_path)
        disk = DiskAnalysisCache(tmp_path, max_bytes=2 * size)
        k0, k1, k2 = self._keys(3)
        disk.store(k0, {"x": 0})
        _age(_entry_path(disk, k0), 30)
        disk.store(k1, {"x": 1})
        _age(_entry_path(disk, k1), 20)
        # Touch k0: it becomes the most recently *used* entry, so the
        # next over-budget store evicts k1 instead.
        assert disk.load(k0) == {"x": 0}
        disk.store(k2, {"x": 2})
        assert disk.load(k0) == {"x": 0}
        assert disk.load(k1) is None
        assert disk.load(k2) == {"x": 2}

    def test_newest_entry_never_evicted(self, tmp_path):
        """A single artifact larger than the whole budget degrades to a
        one-entry cache rather than evicting what was just written."""
        disk = DiskAnalysisCache(tmp_path, max_bytes=1)
        (key,) = self._keys(1)
        assert disk.store(key, {"x": list(range(1000))})
        assert disk.load(key) == {"x": list(range(1000))}
        assert disk.stats()["evictions"] == 0

    def test_just_stored_entry_spared_by_identity_not_mtime(self, tmp_path):
        """Coarse filesystem timestamps can make the just-written file
        sort *older* than an existing entry; eviction must spare it by
        path identity, not by mtime position."""
        size = self._entry_bytes(tmp_path)
        disk = DiskAnalysisCache(tmp_path, max_bytes=size)
        k0, k1 = self._keys(2)
        disk.store(k0, {"x": 0})
        # Simulate a coarse/ahead clock: the existing entry claims a
        # mtime far in the future, i.e. "newer" than anything stored now.
        path0 = _entry_path(disk, k0)
        stat = path0.stat()
        os.utime(path0, (stat.st_atime, stat.st_mtime + 3600))
        disk.store(k1, {"x": 1})
        assert disk.load(k1) == {"x": 1}  # just stored: must survive
        assert disk.load(k0) is None  # the stale-but-"newer" entry went
        assert disk.stats()["evictions"] == 1

    def test_eviction_keeps_round_trips_working(self, tmp_path):
        """End-to-end: a tiny budget under real simulation traffic keeps
        the newest analysis loadable and the directory bounded."""
        size = self._entry_bytes(tmp_path / "probe2")
        configure_disk_cache(tmp_path, max_bytes=size)
        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        _run(program, registers, capacity=0)
        for entry in tmp_path.glob("*.analysis.pkl"):
            _age(entry, 30)
        _run(program, registers, capacity=2)
        disk = active_disk_cache()
        assert len(disk) <= 2  # entry sizes differ; budget ~1 probe entry
        clear_analysis_cache()
        second = _run(program, registers, capacity=2)
        assert second.completed

    def test_under_budget_stores_skip_directory_scan(self, tmp_path):
        """Once the running size estimate is synced, stores that stay
        under the budget must not walk the directory at all."""
        size = self._entry_bytes(tmp_path)
        disk = DiskAnalysisCache(tmp_path, max_bytes=100 * size)
        keys = self._keys(5)
        disk.store(keys[0], {"x": 0})  # first bounded store: resync scan
        scans = []
        original = disk._evict_to_budget
        disk._evict_to_budget = lambda **kw: scans.append(1) or original(**kw)
        for i, key in enumerate(keys[1:], start=1):
            assert disk.store(key, {"x": i})
        assert scans == []  # estimate stayed under budget: no walks
        assert len(disk) == 5

    def test_max_bytes_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "4096")
        reset_disk_cache_state()
        disk = active_disk_cache()
        assert disk is not None
        assert disk.max_bytes == 4096

    def test_invalid_env_budget_means_unbounded(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "a-lot")
        reset_disk_cache_state()
        disk = active_disk_cache()
        assert disk is not None
        assert disk.max_bytes is None

    def test_configure_budget_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "4096")
        disk = configure_disk_cache(tmp_path, max_bytes=123456)
        assert disk.max_bytes == 123456
        # Reconfiguring the same directory with a different budget must
        # rebuild rather than silently keep the old bound.
        disk2 = configure_disk_cache(tmp_path, max_bytes=654321)
        assert disk2.max_bytes == 654321

    def test_configure_without_budget_reads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "2048")
        disk = configure_disk_cache(tmp_path)
        assert disk.max_bytes == 2048


class TestActivation:
    def test_disabled_by_default(self):
        assert active_disk_cache() is None

    def test_env_var_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "cache"))
        reset_disk_cache_state()
        disk = active_disk_cache()
        assert disk is not None
        assert disk.directory == tmp_path / "cache"
        assert disk.directory.is_dir()

    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "env"))
        configured = configure_disk_cache(tmp_path / "explicit")
        assert active_disk_cache() is configured
        assert configured.directory == tmp_path / "explicit"

    def test_configure_none_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        configure_disk_cache(None)
        assert active_disk_cache() is None


class TestBatchIntegration:
    def test_simulate_many_warms_the_disk_tier(self, tmp_path):
        from repro.sweep import SimJob, simulate_many

        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        jobs = [
            SimJob(
                program,
                config=ArrayConfig(queue_capacity=2),
                registers=registers,
            )
            for _ in range(3)
        ]
        results = simulate_many(jobs, disk_cache=str(tmp_path))
        assert all(r.completed for r in results)
        disk = active_disk_cache()
        assert disk is not None and len(disk) == 1
        # A restarted batch (fresh in-memory cache) reuses the entry.
        clear_analysis_cache()
        results2 = simulate_many(jobs, disk_cache=str(tmp_path))
        assert [r.time for r in results2] == [r.time for r in results]
        assert disk.stats()["hits"] >= 1

    def test_worker_processes_share_the_tier(self, tmp_path):
        from repro.sweep import SimJob, simulate_many

        program = fir_program(4, 8)
        registers = fir_registers((1.0,) * 4)
        jobs = [
            SimJob(
                program,
                config=ArrayConfig(queue_capacity=2),
                registers=registers,
            )
            for _ in range(4)
        ]
        results = simulate_many(jobs, workers=2, disk_cache=str(tmp_path))
        assert all(r.completed for r in results)
        disk = active_disk_cache()
        assert disk is not None and len(disk) == 1
