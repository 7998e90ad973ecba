"""Tests of the LRU model cache and its ModelStore integration."""

import threading

import numpy as np
import pytest

from repro.api import ImputationService, LRUModelCache, ModelStore
from repro.baselines.simple import MeanImputer
from repro.exceptions import ValidationError


class TestLRUModelCache:
    def test_unbounded_by_default(self):
        cache = LRUModelCache()
        for index in range(100):
            cache.put(f"m{index}", index)
        assert len(cache) == 100
        assert cache.stats()["evictions"] == 0

    def test_evicts_least_recently_used(self):
        cache = LRUModelCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")                 # refresh a: b is now the LRU tail
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_hit_miss_accounting(self):
        cache = LRUModelCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        # Presence probes must not distort the hit rate.
        assert "a" in cache
        assert cache.stats()["hits"] == 1

    def test_pop_and_clear(self):
        cache = LRUModelCache()
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a", "gone") == "gone"
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LRUModelCache(maxsize=0)
        with pytest.raises(ValueError):
            LRUModelCache(max_bytes=0)

    def test_byte_accounting(self):
        cache = LRUModelCache()
        cache.put("a", 1, nbytes=100)
        cache.put("b", 2)              # unknown size counts as 0 bytes
        stats = cache.stats()
        assert stats["bytes"] == 100
        assert stats["max_bytes"] is None
        cache.pop("a")
        assert cache.stats()["bytes"] == 0

    def test_byte_budget_evicts_lru(self):
        cache = LRUModelCache(max_bytes=250)
        cache.put("a", 1, nbytes=100)
        cache.put("b", 2, nbytes=100)
        cache.get("a")                 # refresh a: b is now the LRU tail
        cache.put("c", 3, nbytes=100)  # 300 bytes > 250 -> evict b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats()["bytes"] == 200
        assert cache.stats()["evictions"] == 1

    def test_lone_oversize_entry_is_kept(self):
        cache = LRUModelCache(max_bytes=50)
        cache.put("big", 1, nbytes=500)
        # A single over-budget model stays resident: evicting the only
        # entry would make the cache useless (thrash on every request).
        assert "big" in cache
        cache.put("bigger", 2, nbytes=600)
        assert "bigger" in cache and "big" not in cache

    def test_peek_does_not_distort_stats_or_recency(self):
        cache = LRUModelCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        before = cache.stats()
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert cache.peek("missing", "default") == "default"
        after = cache.stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        # peek("a") must NOT have refreshed a's recency: a is still the
        # LRU tail and gets evicted first.
        cache.put("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_thread_safety_smoke(self):
        cache = LRUModelCache(maxsize=8)
        errors = []

        def worker(worker_index):
            try:
                for index in range(200):
                    key = f"m{(worker_index * 7 + index) % 16}"
                    cache.put(key, index)
                    cache.get(key)
            except Exception as error:     # pragma: no cover - fail loud
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8


class TestModelStoreEviction:
    def _fitted(self, tensor):
        return MeanImputer().fit(tensor)

    def test_bound_requires_directory(self):
        with pytest.raises(ValidationError):
            ModelStore(max_cached_models=2)
        with pytest.raises(ValidationError):
            ImputationService(max_cached_models=2)
        with pytest.raises(ValidationError):
            ModelStore(max_cached_bytes=1 << 20)

    def test_byte_bound_evicts_and_reloads(self, tmp_path, small_panel):
        from repro.core.config import DeepMVIConfig
        from repro.core.imputer import DeepMVIImputer

        incomplete = small_panel.with_missing(
            np.arange(small_panel.values.size).reshape(
                small_panel.values.shape) % 17 == 0)
        store = ModelStore(str(tmp_path), max_cached_bytes=1)
        for index in range(2):
            imputer = DeepMVIImputer(config=DeepMVIConfig.fast(),
                                     auto_window=False).fit(incomplete)
            store.put(f"model-{index}", imputer, method="deepmvi")
            # Charged in full on the first put: the tables are built with
            # the model, so they are already part of its footprint.
            assert imputer.fast_path_tables.nbytes > 0
            assert store.cache_stats()["bytes"] == imputer.memory_nbytes()
        stats = store.cache_stats()
        # A 1-byte budget keeps exactly the most recent model resident
        # (a lone over-budget entry is never evicted) ...
        assert stats["size"] == 1 and stats["evictions"] == 1
        # ... and the evicted one still serves via cold reload, charged in
        # full again: its tables come back with the artifact.
        reloaded = store.get("model-0")
        assert reloaded.fast_path_tables is not None
        assert reloaded.memory_nbytes() == imputer.memory_nbytes()
        assert store.cache_stats()["bytes"] == reloaded.memory_nbytes()
        assert reloaded.impute(incomplete) is not None

    def test_evicted_model_reloads_from_disk(self, tmp_path, small_panel):
        store = ModelStore(str(tmp_path), max_cached_models=2)
        for index in range(3):
            store.put(f"model-{index}", self._fitted(small_panel),
                      method="mean")
        stats = store.cache_stats()
        assert stats["size"] == 2 and stats["evictions"] == 1
        # The evicted model is still servable — cold-loaded from its
        # artifact — and every id remains listed.
        assert sorted(store.list_models()) == \
            ["model-0", "model-1", "model-2"]
        reloaded = store.get("model-0")
        completed = reloaded.impute(small_panel)
        np.testing.assert_array_equal(completed.values, small_panel.values)
        # Reloading inserted model-0 back into the cache, evicting another.
        assert store.cache_stats()["size"] == 2

    def test_hot_models_never_touch_disk(self, tmp_path, small_panel):
        store = ModelStore(str(tmp_path), max_cached_models=2)
        store.put("hot", self._fitted(small_panel), method="mean")
        before = store.cache_stats()["misses"]
        for _ in range(5):
            store.get("hot")
        stats = store.cache_stats()
        assert stats["misses"] == before
        assert stats["hits"] >= 5

    def test_service_passes_bound_through(self, tmp_path, small_panel):
        service = ImputationService(store_dir=str(tmp_path),
                                    max_cached_models=1)
        first = service.fit(small_panel, method="mean")
        second = service.fit(small_panel, method="interpolation")
        assert service.store.cache_stats()["size"] == 1
        # Both models still serve (one via cold reload).
        assert service.impute(small_panel, model_id=first).completed \
            is not None
        assert service.impute(small_panel, model_id=second).completed \
            is not None
        assert service.describe()["model_cache"]["evictions"] >= 1
