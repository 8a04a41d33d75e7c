"""Warm-image capture/restore: bit-identical to a fresh functional warmup.

The whole design of :mod:`repro.workloads.images` rests on one claim —
restoring a captured image into a fresh simulator is indistinguishable
from running functional warmup in it.  These tests hold that claim at
``SimResult`` granularity and pin the store's bookkeeping (keys, LRU
cap, kill switch, engine integration).
"""

import dataclasses

import pytest

from repro.core.config import scheme
from repro.core.simulator import Simulator
from repro.experiments.parallel import (
    RunSpec,
    execute_runs,
    run_spec,
    run_spec_fast,
    shutdown_pool,
    warm_key,
)
from repro.experiments.runner import RunBudget
from repro.workloads import images
from repro.workloads.mixes import standard_mix

BUDGET = RunBudget(warmup_cycles=200, measure_cycles=1200,
                   functional_warmup_instructions=6000, rotations=1)
WARM = BUDGET.functional_warmup_instructions


@pytest.fixture(autouse=True)
def clean_store():
    images.clear()
    yield
    images.clear()


def _sim(n_threads=4, rotation=0):
    config = scheme("ICOUNT", 2, 8, n_threads=n_threads)
    return Simulator(config, standard_mix(n_threads, rotation))


def _finish(sim):
    return sim.run(warmup_cycles=BUDGET.warmup_cycles,
                   measure_cycles=BUDGET.measure_cycles,
                   functional_warmup_instructions=0)


def _fields(result):
    return dataclasses.asdict(result)


class TestCaptureRestore:
    def test_restore_equals_fresh_warmup(self):
        reference = _sim()
        reference.functional_warmup(WARM)
        image = images.capture(reference, WARM)
        restored = _sim()
        images.restore(restored, image)
        assert _fields(_finish(restored)) == _fields(_finish(reference))

    def test_one_image_serves_many_simulators(self):
        donor = _sim()
        donor.functional_warmup(WARM)
        image = images.capture(donor, WARM)
        results = []
        for _ in range(3):
            sim = _sim()
            images.restore(sim, image)
            results.append(_fields(_finish(sim)))
        assert results[0] == results[1] == results[2]

    def test_restore_rejects_started_simulator(self):
        donor = _sim()
        donor.functional_warmup(WARM)
        image = images.capture(donor, WARM)
        started = _sim()
        started.run_cycles(5)
        with pytest.raises(RuntimeError):
            images.restore(started, image)

    def test_restore_rejects_thread_count_mismatch(self):
        donor = _sim(n_threads=4)
        donor.functional_warmup(WARM)
        image = images.capture(donor, WARM)
        with pytest.raises(ValueError):
            images.restore(_sim(n_threads=8), image)


class TestStore:
    def test_warm_via_image_miss_then_hit(self):
        first = _sim()
        assert images.warm_via_image(first, "k", WARM) is False
        second = _sim()
        assert images.warm_via_image(second, "k", WARM) is True
        assert _fields(_finish(first)) == _fields(_finish(second))

    def test_lru_cap(self):
        donor = _sim()
        donor.functional_warmup(WARM)
        image = images.capture(donor, WARM)
        for i in range(images._MAX_IMAGES + 5):
            images.put(f"k{i}", image)
        assert images.size() == images._MAX_IMAGES
        assert images.lookup("k0") is None  # oldest evicted
        assert images.lookup(f"k{images._MAX_IMAGES + 4}") is not None

    def test_generation_advances_on_put(self):
        donor = _sim()
        donor.functional_warmup(WARM)
        before = images.generation()
        images.put("k", images.capture(donor, WARM))
        assert images.generation() > before

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_WARM_IMAGES", "1")
        assert not images.images_enabled()
        spec = RunSpec(scheme("ICOUNT", 2, 8, n_threads=2), 0, BUDGET)
        result = run_spec_fast(spec)
        assert images.size() == 0  # bypassed the store entirely
        assert _fields(result) == _fields(run_spec(spec))


class TestWarmKey:
    def test_timed_budget_excluded(self):
        # Runs differing only in the timed window share a warm state.
        config = scheme("ICOUNT", 2, 8, n_threads=4)
        a = RunSpec(config, 0, BUDGET)
        b = RunSpec(config, 0, dataclasses.replace(BUDGET,
                                                   measure_cycles=5000))
        assert warm_key(a) == warm_key(b)
        assert a.key() != b.key()

    def test_workload_identity_included(self):
        config = scheme("ICOUNT", 2, 8, n_threads=4)
        base = RunSpec(config, 0, BUDGET)
        assert warm_key(base) != warm_key(dataclasses.replace(base,
                                                              rotation=1))
        assert warm_key(base) != warm_key(dataclasses.replace(base, seed=7))
        other = RunSpec(scheme("RR", 2, 8, n_threads=4), 0, BUDGET)
        assert warm_key(base) != warm_key(other)


class TestEngineIntegration:
    def test_run_spec_fast_equals_reference(self):
        spec = RunSpec(scheme("ICOUNT", 2, 8, n_threads=4), 0, BUDGET)
        reference = run_spec(spec)
        cold = run_spec_fast(spec)   # image miss: warms and captures
        warm = run_spec_fast(spec)   # image hit: restores
        assert images.hits == 1 and images.misses == 1
        assert _fields(cold) == _fields(warm) == _fields(reference)

    def test_pooled_equals_serial_equals_reference(self):
        specs = [RunSpec(scheme("ICOUNT", 2, 8, n_threads=2), rot, BUDGET)
                 for rot in range(3)]
        reference = [_fields(run_spec(s)) for s in specs]
        serial = execute_runs(specs, jobs=1, use_cache=False)
        pooled = execute_runs(specs, jobs=2, use_cache=False)
        shutdown_pool()
        assert [_fields(r) for r in serial] == reference
        assert [_fields(r) for r in pooled] == reference

    # Where a pooled batch warms: a warm state several runs share is
    # computed once in the pool parent, any other in its run's worker.
    @pytest.fixture
    def parent_warmups(self, monkeypatch):
        # Forked workers append to their own copy of the list, so it
        # records only the warmups run in this (the parent) process.
        calls = []
        real = Simulator.functional_warmup

        def counting(sim, *args, **kwargs):
            calls.append(args)
            return real(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "functional_warmup", counting)
        shutdown_pool()
        yield calls
        shutdown_pool()

    def test_unshared_states_warm_in_workers(self, parent_warmups):
        specs = [RunSpec(scheme("ICOUNT", 2, 8, n_threads=2), rot, BUDGET)
                 for rot in range(3)]
        pooled = execute_runs(specs, jobs=2, use_cache=False)
        assert parent_warmups == []
        assert images.size() == 0
        assert ([_fields(r) for r in pooled]
                == [_fields(run_spec(spec)) for spec in specs])

    @pytest.mark.parametrize("variant", [
        {"budget": dataclasses.replace(BUDGET, measure_cycles=1500)},
        {"dcache_mshrs": 2},
    ], ids=["measure_cycles", "dcache_mshrs"])
    def test_shared_state_warms_once_in_parent(self, parent_warmups,
                                               variant):
        config = scheme("ICOUNT", 2, 8, n_threads=2)
        shared = RunSpec(config, 0, BUDGET)
        specs = [shared, dataclasses.replace(shared, **variant),
                 RunSpec(config, 1, BUDGET)]
        assert warm_key(specs[0]) == warm_key(specs[1])
        pooled = execute_runs(specs, jobs=2, use_cache=False)
        assert len(parent_warmups) == 1
        assert images.size() == 1
        assert images.lookup(warm_key(shared)) is not None
        assert ([_fields(r) for r in pooled]
                == [_fields(run_spec(spec)) for spec in specs])
