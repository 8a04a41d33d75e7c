"""Determinism tests for the parallel experiment engine.

The engine's contract: results are field-identical no matter how they
were produced — serially, sharded across a worker pool, or replayed
from the persistent cache.
"""

import dataclasses

import pytest

from repro.core.config import SMTConfig, scheme
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunSpec, execute_runs, run_spec
from repro.experiments.runner import RunBudget, run_configs

TINY = RunBudget(warmup_cycles=100, measure_cycles=600,
                 functional_warmup_instructions=3000, rotations=2)


def _specs():
    return [
        RunSpec(config=SMTConfig(n_threads=2), rotation=r, budget=TINY)
        for r in range(2)
    ] + [
        RunSpec(config=scheme("ICOUNT", 2, 8, n_threads=2), rotation=0,
                budget=TINY),
    ]


def _fields(result):
    return dataclasses.asdict(result)


@pytest.fixture
def no_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    parallel.configure(jobs=None, use_cache=None)
    yield
    parallel.configure(jobs=None, use_cache=None)


class TestDeterminism:
    def test_parallel_matches_serial(self, no_cache_env):
        specs = _specs()
        serial = execute_runs(specs, jobs=1, use_cache=False)
        pooled = execute_runs(specs, jobs=2, use_cache=False)
        assert [_fields(r) for r in serial] == [_fields(r) for r in pooled]

    def test_cache_round_trip_matches(self, no_cache_env, tmp_path):
        specs = _specs()
        cache = ResultCache(str(tmp_path))
        fresh = execute_runs(specs, jobs=1, cache=cache)
        assert cache.stats()["stores"] == len(specs)
        replayed = execute_runs(specs, jobs=1, cache=cache)
        assert cache.stats()["hits"] == len(specs)
        assert [_fields(r) for r in fresh] == [_fields(r) for r in replayed]

    def test_run_spec_is_pure(self, no_cache_env):
        spec = _specs()[0]
        assert _fields(run_spec(spec)) == _fields(run_spec(spec))

    def test_duplicate_specs_simulated_once(self, no_cache_env, tmp_path):
        spec = _specs()[0]
        cache = ResultCache(str(tmp_path))
        results = execute_runs([spec, spec, spec], jobs=1, cache=cache)
        assert cache.stats()["stores"] == 1
        assert results[0] is results[1] is results[2]

    def test_run_config_uses_cache(self, no_cache_env, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        batch = [(None, SMTConfig(n_threads=1))]
        (first,) = run_configs(batch, budget=TINY)
        (again,) = run_configs(batch, budget=TINY)
        assert first.ipc == again.ipc
        assert len(ResultCache(str(tmp_path))) == TINY.rotations


class TestPersistentPool:
    def test_small_batches_reuse_the_pool(self, no_cache_env, monkeypatch):
        # The pool is sized by `jobs`, not by a batch's miss count, so
        # a batch with fewer misses than `jobs` keeps the pool (and its
        # workers' warm images) instead of re-forking a smaller one.
        forks = []
        real_pool = parallel._pool

        def counting_pool(processes):
            forks.append(processes)
            return real_pool(processes)

        parallel.shutdown_pool()
        monkeypatch.setattr(parallel, "_pool", counting_pool)
        specs = [RunSpec(config=SMTConfig(n_threads=1), rotation=r,
                         budget=TINY) for r in range(15)]
        batches = [specs[:6], specs[6:9], specs[9:]]
        try:
            produced = [execute_runs(batch, jobs=4, use_cache=False)
                        for batch in batches]
        finally:
            parallel.shutdown_pool()
        assert forks == [4]
        for batch, results in zip(batches, produced):
            assert ([_fields(r) for r in results]
                    == [_fields(run_spec(spec)) for spec in batch])


class TestRunSpecKeys:
    def test_key_is_stable(self):
        a, b = _specs()[0], _specs()[0]
        assert a.key() == b.key()

    def test_key_distinguishes_config(self):
        base = _specs()[0]
        other = dataclasses.replace(base, config=SMTConfig(n_threads=4))
        assert base.key() != other.key()

    def test_key_distinguishes_rotation_and_budget(self):
        base = _specs()[0]
        assert base.key() != dataclasses.replace(base, rotation=5).key()
        bigger = dataclasses.replace(
            base, budget=dataclasses.replace(TINY, measure_cycles=700)
        )
        assert base.key() != bigger.key()

    def test_key_distinguishes_mshr_override(self):
        base = _specs()[0]
        assert base.key() != dataclasses.replace(base, dcache_mshrs=4).key()

    def test_key_distinguishes_checked_runs(self):
        # A cached unchecked result says nothing about whether the run
        # passes the sanitizer, so checked runs get their own identity.
        base = _specs()[0]
        checked = dataclasses.replace(base, check_invariants=True)
        assert base.key() != checked.key()


class TestSanitizedRuns:
    """``check_invariants`` runs are observationally identical to
    unchecked runs — same SimResult, any execution path."""

    def test_sanitizer_does_not_change_results(self, no_cache_env):
        base = _specs()[0]
        checked = dataclasses.replace(base, check_invariants=True)
        assert _fields(run_spec(base)) == _fields(run_spec(checked))

    def test_serial_pool_and_cache_replay_identical(self, no_cache_env,
                                                    tmp_path):
        specs = [
            dataclasses.replace(spec, check_invariants=True)
            for spec in _specs()
        ]
        serial = execute_runs(specs, jobs=1, use_cache=False)
        pooled = execute_runs(specs, jobs=2, use_cache=False)
        cache = ResultCache(str(tmp_path))
        stored = execute_runs(specs, jobs=1, cache=cache)
        replayed = execute_runs(specs, jobs=1, cache=cache)
        assert cache.stats()["hits"] == len(specs)
        reference = [_fields(r) for r in serial]
        for produced in (pooled, stored, replayed):
            assert [_fields(r) for r in produced] == reference

    def test_violation_propagates_from_pool_worker(self, no_cache_env,
                                                   monkeypatch):
        from repro.verify.sanitizer import InvariantViolation
        import repro.experiments.parallel as parallel_module

        def broken_run_spec(spec):
            raise InvariantViolation("iq-overflow", "boom", 7, tid=1)

        monkeypatch.setattr(parallel_module, "run_spec_fast",
                            broken_run_spec)
        with pytest.raises(InvariantViolation) as excinfo:
            execute_runs(_specs()[:1], jobs=1, use_cache=False)
        assert excinfo.value.invariant == "iq-overflow"


class TestKnobs:
    def test_default_jobs_env(self, monkeypatch):
        parallel.configure(jobs=None)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert parallel.default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS.*garbage"):
            assert parallel.default_jobs() == 1

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        parallel.configure(jobs=2, use_cache=False)
        try:
            assert parallel.default_jobs() == 2
            assert parallel.default_use_cache() is False
        finally:
            parallel.configure(jobs=None, use_cache=None)

    def test_no_cache_env(self, monkeypatch):
        parallel.configure(use_cache=None)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert parallel.default_use_cache() is False

    def test_check_invariants_env_and_configure(self, monkeypatch):
        parallel.configure(check_invariants=None)
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert parallel.default_check_invariants() is False
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert parallel.default_check_invariants() is True
        parallel.configure(check_invariants=False)
        try:
            assert parallel.default_check_invariants() is False
        finally:
            parallel.configure(check_invariants=None)


class TestProgress:
    def test_callback_sees_monotonic_completion(self, no_cache_env):
        specs = _specs()
        snapshots = []
        execute_runs(specs, jobs=1, use_cache=False,
                     progress=snapshots.append)
        # One snapshot after the (empty) cache scan, one per run.
        assert len(snapshots) == len(specs) + 1
        assert snapshots[0].completed == 0
        assert [s.completed for s in snapshots] == list(range(len(specs) + 1))
        assert all(s.total == len(specs) for s in snapshots)
        assert snapshots[-1].completed == snapshots[-1].total
        elapsed = [s.elapsed for s in snapshots]
        assert elapsed == sorted(elapsed)

    def test_callback_reports_cache_hits_on_replay(self, no_cache_env,
                                                   tmp_path):
        specs = _specs()
        cache = ResultCache(str(tmp_path))
        execute_runs(specs, jobs=1, cache=cache)
        snapshots = []
        execute_runs(specs, jobs=1, cache=cache, progress=snapshots.append)
        # Fully cached batch: a single snapshot, everything a hit.
        assert len(snapshots) == 1
        assert snapshots[0].cache_hits == len(specs)
        assert snapshots[0].completed == len(specs)
        assert snapshots[0].simulated == 0

    def test_callback_fires_from_pooled_path(self, no_cache_env):
        specs = _specs()
        snapshots = []
        execute_runs(specs, jobs=2, use_cache=False,
                     progress=snapshots.append)
        assert snapshots[-1].completed == len(specs)

    def test_configured_default_progress(self, no_cache_env):
        snapshots = []
        parallel.configure(progress=snapshots.append)
        try:
            execute_runs(_specs()[:1], jobs=1, use_cache=False)
        finally:
            parallel.configure(progress=None)
        assert snapshots and snapshots[-1].completed == 1

    def test_progress_str_and_printer(self, no_cache_env):
        progress = parallel.BatchProgress(total=6, completed=4,
                                          cache_hits=3, elapsed=1.25)
        assert str(progress) == "4/6 runs (3 cache hits, 1.2s)"
        assert progress.simulated == 1
        import io
        buf = io.StringIO()
        parallel.progress_printer(prefix="fig3: ", stream=buf)(progress)
        assert buf.getvalue() == "fig3: 4/6 runs (3 cache hits, 1.2s)\n"
