"""Tests for the persistent result cache."""

import dataclasses
import json
import os

from repro.core.config import SMTConfig
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cache_enabled_by_default,
    default_cache_dir,
    result_from_dict,
    result_key,
    result_to_dict,
)
from repro.experiments.parallel import RunSpec, execute_runs, run_spec
from repro.experiments.runner import RunBudget

TINY = RunBudget(warmup_cycles=100, measure_cycles=400,
                 functional_warmup_instructions=2000, rotations=1)
SPEC = RunSpec(config=SMTConfig(n_threads=1), rotation=0, budget=TINY)


def _entry_path(cache):
    names = [n for n in os.listdir(cache.directory) if n.endswith(".json")]
    assert len(names) == 1
    return os.path.join(cache.directory, names[0])


class TestSerialization:
    def test_round_trip_is_field_identical(self):
        result = run_spec(SPEC)
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(result)

    def test_per_thread_keys_are_ints(self):
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(run_spec(SPEC))))
        )
        assert all(
            isinstance(k, int) for k in rebuilt.committed_per_thread
        )


class TestResultKey:
    def test_key_is_content_hash(self):
        key = result_key(SPEC.config, 0, TINY)
        assert key == result_key(SMTConfig(n_threads=1), 0, TINY)
        assert len(key) == 64 and int(key, 16) >= 0

    def test_extras_change_key(self):
        assert result_key(SPEC.config, 0, TINY) != result_key(
            SPEC.config, 0, TINY, extras={"dcache_mshrs": 4}
        )


class TestCacheStore:
    def test_put_get(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = run_spec(SPEC)
        cache.put(SPEC.key(), result)
        assert SPEC.key() in cache
        got = cache.get(SPEC.key())
        assert dataclasses.asdict(got) == dataclasses.asdict(result)

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(str(tmp_path)).get("0" * 64) is None

    def test_corrupted_entry_recomputed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        expected = execute_runs([SPEC], jobs=1, cache=cache)[0]
        with open(_entry_path(cache), "w") as fh:
            fh.write("{ not json at all")
        fresh = ResultCache(str(tmp_path))
        recomputed = execute_runs([SPEC], jobs=1, cache=fresh)[0]
        assert fresh.stats()["misses"] == 1
        assert dataclasses.asdict(recomputed) == dataclasses.asdict(expected)
        # The recompute repaired the entry on disk.
        assert ResultCache(str(tmp_path)).get(SPEC.key()) is not None

    def test_checksum_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        path = _entry_path(cache)
        with open(path) as fh:
            entry = json.load(fh)
        entry["result"]["committed"] = entry["result"]["committed"] + 1
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert ResultCache(str(tmp_path)).get(SPEC.key()) is None
        assert not os.path.exists(path)  # tampered entry evicted

    def test_stale_schema_version_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        path = _entry_path(cache)
        with open(path) as fh:
            entry = json.load(fh)
        entry["version"] = CACHE_SCHEMA_VERSION - 1
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert ResultCache(str(tmp_path)).get(SPEC.key()) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        assert os.listdir(cache.directory) == [f"{SPEC.key()}.json"]


class TestQuarantine:
    def test_garbage_entry_quarantined_not_raised(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        path = _entry_path(cache)
        with open(path, "w") as fh:
            fh.write("{ truncated mid-wri")
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(SPEC.key()) is None
        assert fresh.stats()["quarantined"] == 1
        assert os.path.exists(path + ".corrupt")

    def test_tampered_payload_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        path = _entry_path(cache)
        with open(path) as fh:
            entry = json.load(fh)
        entry["result"]["committed"] += 1
        with open(path, "w") as fh:
            json.dump(entry, fh)
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(SPEC.key()) is None
        assert fresh.stats()["quarantined"] == 1
        assert os.path.exists(path + ".corrupt")

    def test_quarantined_entries_invisible(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        with open(_entry_path(cache), "w") as fh:
            fh.write("garbage")
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(SPEC.key()) is None
        assert len(fresh) == 0
        assert SPEC.key() not in fresh

    def test_recompute_repairs_quarantined_slot(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        expected = execute_runs([SPEC], jobs=1, cache=cache)[0]
        with open(_entry_path(cache), "w") as fh:
            fh.write("garbage")
        fresh = ResultCache(str(tmp_path))
        recomputed = execute_runs([SPEC], jobs=1, cache=fresh)[0]
        assert dataclasses.asdict(recomputed) == dataclasses.asdict(expected)
        assert fresh.get(SPEC.key()) is not None
        # The corrupt evidence survives alongside the repaired entry.
        assert any(n.endswith(".corrupt") for n in os.listdir(str(tmp_path)))

    def test_stale_version_deleted_not_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        path = _entry_path(cache)
        with open(path) as fh:
            entry = json.load(fh)
        entry["version"] = CACHE_SCHEMA_VERSION - 1
        with open(path, "w") as fh:
            json.dump(entry, fh)
        fresh = ResultCache(str(tmp_path))
        assert fresh.get(SPEC.key()) is None
        assert fresh.stats()["quarantined"] == 0
        assert not os.path.exists(path + ".corrupt")

    def test_clear_removes_quarantined_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(SPEC.key(), run_spec(SPEC))
        with open(_entry_path(cache), "w") as fh:
            fh.write("garbage")
        cache.get(SPEC.key())  # quarantines
        assert ResultCache(str(tmp_path)).clear() == 1
        assert os.listdir(str(tmp_path)) == []


class TestSharedDirectory:
    """One store holds every job kind; each kind reads only its own
    entries, and the store counts and clears them all."""

    def test_each_kind_reads_only_its_own_entries(self, tmp_path):
        from repro.multicore.driver import (
            ArrivalConfig,
            MulticoreRunSpec,
        )

        cell = MulticoreRunSpec(
            n_cores=1, allocator="LOAD", config=SMTConfig(n_threads=1),
            quantum=100, max_cycles=2000,
            arrival=ArrivalConfig(jobs=1, rate_per_kcycle=1.0,
                                  service_instructions=50))
        result = cell.run()
        document = result.to_dict()
        key = "a" * 64
        store = ResultCache(str(tmp_path))
        store.put(key, result, "multicore")
        assert len(store) == 1 and key in store
        assert store.get(key) is None  # no run entry under that key
        assert store.get(key, "multicore").to_dict() == document
        assert sorted(os.listdir(str(tmp_path))) == [f"{key}.doc.json"]

        store.put(key, run_spec(SPEC))
        assert len(store) == 2
        assert store.get(key, "multicore").to_dict() == document
        assert store.get(key) is not None
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get(key) is None and store.get(key, "multicore") is None


class TestEnvironment:
    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)

    def test_no_cache_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert cache_enabled_by_default() is True
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_enabled_by_default() is False
