"""Unit tests for the on-disk result cache."""

import errno

import pytest

from repro.cache import (
    ResultCache,
    active_cache,
    cache_context,
    code_fingerprint,
    default_cache_dir,
    stable_key,
)
from repro.config import TuningConfig
from repro.hw.presets import INTEL_E7505, PE2650


class TestStableKey:
    def test_deterministic(self):
        cfg = TuningConfig.stock(9000)
        assert stable_key("ns", cfg, 42) == stable_key("ns", cfg, 42)

    def test_any_config_field_changes_key(self):
        base = TuningConfig.fully_tuned(8160)
        seen = {stable_key(base)}
        for change in ({"mtu": 9000}, {"mmrbc": 512},
                       {"smp_kernel": True}, {"tcp_rmem": 65536},
                       {"interrupt_coalescing_us": 0.0},
                       {"tcp_timestamps": False}, {"tso": True},
                       {"txqueuelen": 5000}, {"sack": True}):
            key = stable_key(base.replace(**change))
            assert key not in seen, change
            seen.add(key)

    def test_topology_inputs_change_key(self):
        cfg = TuningConfig.stock()
        assert stable_key(cfg, PE2650) != stable_key(cfg, INTEL_E7505)
        assert stable_key("a", cfg) != stable_key("b", cfg)

    def test_float_bits_matter_but_int_is_not_float(self):
        assert stable_key(1) != stable_key(1.0)
        assert stable_key(0.1) == stable_key(0.1)

    def test_nested_structures(self):
        assert stable_key({"a": [1, (2, 3)]}) == stable_key({"a": [1, [2, 3]]})
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x", 1)
        assert cache.get(key) == (False, None)
        assert cache.put(key, {"v": [1.5, "two"]})
        assert cache.get(key) == (True, {"v": [1.5, "two"]})

    def test_corrupted_entry_recomputed_not_crashed(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.put(key, "payload")
        victim = cache._file(key)
        victim.write_bytes(b"not a cache entry at all")
        hit, value = cache.get(key)
        assert (hit, value) == (False, None)
        assert not victim.exists()  # bad entry dropped
        assert cache.errors == 1
        cache.put(key, "payload")  # recompute path works again
        assert cache.get(key) == (True, "payload")

    def test_truncated_entry_detected(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.put(key, list(range(1000)))
        blob = cache._file(key).read_bytes()
        cache._file(key).write_bytes(blob[:len(blob) // 2])
        assert cache.get(key) == (False, None)
        assert cache.errors == 1

    def test_unpicklable_value_is_skipped_silently(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        assert not cache.put(key, lambda: None)
        assert cache.errors == 1
        assert cache.get(key) == (False, None)

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        keys = [cache.key(i) for i in range(3)]
        for k in keys:
            cache.put(k, k)
        assert cache.invalidate(keys[0])
        assert not cache.invalidate(keys[0])
        assert cache.clear() == 2
        assert cache.stats().entries == 0

    def test_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.get(key)
        cache.put(key, "v")
        cache.get(key)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.size_bytes > 0
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.hit_rate == 0.5


class TestActivation:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert active_cache() is None

    def test_env_enables_default_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = active_cache()
        assert cache is not None
        assert cache.path == tmp_path / "c"

    def test_context_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        with cache_context(False):
            assert active_cache() is None
        mine = ResultCache(tmp_path / "mine")
        with cache_context(mine):
            assert active_cache() is mine

    def test_none_context_inherits(self, tmp_path):
        mine = ResultCache(tmp_path / "mine")
        with cache_context(mine):
            with cache_context(None):
                assert active_cache() is mine

    def test_bad_argument_rejected(self):
        with pytest.raises(TypeError):
            with cache_context("yes please"):
                pass

    def test_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == ".repro-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path


class TestCodeFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "deadbeef")
        assert code_fingerprint() == "deadbeef"


class TestShardedLayout:
    def test_entries_land_in_key_prefix_shards(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        keys = [cache.key(i) for i in range(8)]
        for k in keys:
            cache.put(k, k)
        for k in keys:
            assert cache._file(k) == tmp_path / "c" / k[:2] / f"{k}.pkl"
            assert cache._file(k).is_file()
        # nothing at the flat v1 location
        assert not list((tmp_path / "c").glob("*.pkl"))

    def test_keys_enumeration(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        keys = sorted(cache.key(i) for i in range(5))
        for k in keys:
            cache.put(k, k)
        assert cache.keys() == keys

    def test_second_handle_sees_stored_entries(self, tmp_path):
        a = ResultCache(tmp_path / "c")
        key = a.key("x")
        a.put(key, "value")
        b = ResultCache(tmp_path / "c")
        assert b.get(key) == (True, "value")
        assert b.stats().entries == 1

    def test_stats_keys_and_files_agree_across_handles(self, tmp_path):
        # A handle holding shard state from an earlier write must not
        # lose a later write when another handle churns the same shard.
        root = tmp_path / "c"
        b = ResultCache(root)
        shard = b.key(0)[:2]
        same = (k for k in (b.key(i) for i in range(100_000))
                if k[:2] == shard)
        first, second, churn = next(same), next(same), next(same)
        b.put(first, "b1")
        a = ResultCache(root)
        for _ in range(20):
            a.put(churn, "a")
            a.invalidate(churn)
        c = ResultCache(root)
        assert c.stats().entries == 1
        b.put(second, "b2")
        fresh = ResultCache(root)
        on_disk = sorted(path.stem for path in root.glob("*/*.pkl"))
        assert on_disk == sorted([first, second])
        assert fresh.stats().entries == len(fresh.keys()) == len(on_disk)
        assert fresh.keys() == on_disk
        # c sees the entry written after its first stats()
        assert c.stats().entries == 2

    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import repro.cache.store as store_mod
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")

        def disk_full(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store_mod.os, "write", disk_full)
        assert not cache.put(key, "value")
        monkeypatch.undo()
        assert cache.errors == 1
        assert not list((tmp_path / "c").rglob("*.tmp"))
        assert cache.get(key) == (False, None)
        assert cache.stats().entries == 0


class TestEviction:
    def test_lru_eviction_order(self, tmp_path):
        cache = ResultCache(tmp_path / "c", max_bytes=10_000_000)
        blob = "x" * 1000
        keys = [cache.key(i) for i in range(5)]
        now = [1000.0]

        def clock():
            now[0] += 1.0
            return now[0]

        import repro.cache.store as store_mod
        orig = store_mod.time.time
        store_mod.time.time = clock
        try:
            for k in keys:
                cache.put(k, blob)
            # touch keys[0] so keys[1] becomes the LRU victim
            assert cache.get(keys[0])[0]
            cache.max_bytes = cache.stats().size_bytes - 1
            cache._evict_to_cap()
        finally:
            store_mod.time.time = orig
        assert cache.evictions == 1
        assert cache.get(keys[1]) == (False, None)   # LRU evicted
        assert cache.get(keys[0])[0]                  # refreshed survivor
        for k in keys[2:]:
            assert cache.get(k)[0]

    def test_put_evicts_down_to_cap(self, tmp_path):
        cache = ResultCache(tmp_path / "c", max_bytes=3000)
        keys = [cache.key(i) for i in range(6)]
        for k in keys:
            cache.put(k, "y" * 900)  # ~1 KB each, cap fits ~3
        stats = cache.stats()
        assert stats.size_bytes <= 3000
        assert stats.evictions >= 3
        # the newest entry is always protected from its own eviction pass
        assert cache.get(keys[-1])[0]

    def test_no_cap_means_no_eviction(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        cache = ResultCache(tmp_path / "c")
        for i in range(10):
            cache.put(cache.key(i), "z" * 2000)
        assert cache.evictions == 0
        assert cache.stats().entries == 10

    def test_env_cap_parsed(self, monkeypatch):
        from repro.cache import cache_max_bytes
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert cache_max_bytes() == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        assert cache_max_bytes() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert cache_max_bytes() is None


class TestHotTier:
    def test_repeat_reads_skip_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.put(key, {"v": 1})
        assert cache.get(key)[0]          # disk read, populates hot tier
        cache._file(key).unlink()         # remove the backing file
        assert cache.get(key) == (True, {"v": 1})  # still answered
        assert cache.hot_hits == 1

    def test_put_does_not_populate_hot_tier(self, tmp_path):
        # Corruption detection depends on reads going to disk after a
        # put: the first get must validate the file, not trust memory.
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.put(key, "value")
        cache._file(key).write_bytes(b"garbage")
        assert cache.get(key) == (False, None)
        assert cache.errors == 1

    def test_bounded_by_entries(self, tmp_path, monkeypatch):
        import repro.cache.store as store_mod
        monkeypatch.setattr(store_mod, "_HOT_ENTRIES", 2)
        cache = ResultCache(tmp_path / "c")
        keys = [cache.key(i) for i in range(3)]
        for k in keys:
            cache.put(k, k)
            assert cache.get(k)[0]
        assert cache.hot_hits == 0
        # the last two reads are still hot; the first was evicted
        for k in reversed(keys):
            assert cache.get(k)[0]
        assert cache.hot_hits == 2

    def test_bounded_by_bytes(self):
        from repro.cache.store import _HotTier
        tier = _HotTier(max_entries=10, max_bytes=100)
        tier.put("big", "v", 101)         # larger than the whole tier
        assert tier.get("big") == (False, None)
        tier.put("a", "a", 60)
        tier.put("b", "b", 60)            # over 100 bytes: "a" goes
        assert tier.get("a") == (False, None)
        assert tier.get("b") == (True, "b")

    def test_invalidate_purges_hot_tier(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.put(key, "v")
        assert cache.get(key)[0]
        assert cache.invalidate(key)
        assert cache.get(key) == (False, None)


class TestIndexReconciliation:
    """The entry files are the only state: stats, keys and lookups agree
    with them whichever handle wrote or removed them."""

    def test_missing_index_rebuilt_from_scan(self, tmp_path):
        a = ResultCache(tmp_path / "c")
        keys = [a.key(i) for i in range(4)]
        for k in keys:
            a.put(k, k)
        assert not list((tmp_path / "c").glob("*/index.jsonl"))
        # an index left by an older checkout is inert
        stale = a._file(keys[0]).parent / "index.jsonl"
        stale.write_text('{"k":"%s","n":1,"t":0}\n' % ("f" * 64))
        b = ResultCache(tmp_path / "c")
        assert b.stats().entries == len(keys)
        for k in keys:
            assert b.get(k) == (True, k)

    def test_dangling_index_record_reconciled(self, tmp_path):
        a = ResultCache(tmp_path / "c")
        key = a.key("x")
        a.put(key, "v")
        a._file(key).unlink()  # file gone, index record remains
        b = ResultCache(tmp_path / "c")
        assert b.get(key) == (False, None)
        assert b.stats().entries == 0  # record dropped on reconcile
