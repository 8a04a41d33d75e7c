"""Warm-image capture/restore: bit-identical to a fresh functional warmup.

The whole design of :mod:`repro.workloads.images` rests on one claim —
restoring a captured image into a fresh simulator is indistinguishable
from running functional warmup in it.  These tests hold that claim at
``SimResult`` granularity and pin the store's bookkeeping (keys, LRU
cap, kill switch, engine integration).
"""

import dataclasses
import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.config import (
    FETCH_POLICIES,
    ISSUE_POLICIES,
    SPECULATION_MODES,
    SMTConfig,
    scheme,
)
from repro.core.simulator import Simulator
from repro.experiments.parallel import (
    WARM_CONFIG_FIELDS,
    RunSpec,
    build_simulator,
    execute_runs,
    run_spec,
    run_spec_fast,
    shutdown_pool,
    warm_key,
)
from repro.experiments.runner import RunBudget
from repro.verify.sanitizer import PipelineSanitizer
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

    def test_restore_rejects_warmed_simulator(self):
        # Restore fills only the image's ways into empty tag stores.
        donor = _sim()
        donor.functional_warmup(WARM)
        image = images.capture(donor, WARM)
        warmed = _sim()
        warmed.functional_warmup(100)
        with pytest.raises(RuntimeError):
            images.restore(warmed, image)

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


#: Values to try for every SMTConfig field outside the warm set.
OUTSIDE_WARM_SET = {
    "fetch_policy": st.sampled_from(FETCH_POLICIES + ("HYSTERESIS",)),
    "fetch_threads": st.integers(1, 4),
    "fetch_per_thread": st.sampled_from([2, 4, 8]),
    "fetch_width": st.sampled_from([4, 8]),
    "decode_width": st.sampled_from([4, 8]),
    "rename_width": st.sampled_from([4, 8]),
    "itag": st.booleans(),
    "iq_size": st.sampled_from([16, 32, 64]),
    "bigq": st.booleans(),
    "issue_policy": st.sampled_from(ISSUE_POLICIES),
    "int_units": st.sampled_from([4, 6]),
    "ls_units": st.sampled_from([2, 4]),
    "fp_units": st.sampled_from([2, 3]),
    "infinite_fus": st.booleans(),
    "commit_width": st.sampled_from([4, 8]),
    "excess_registers": st.sampled_from([32, 100]),
    "phys_regs_total": st.sampled_from([None, 200]),
    "smt_pipeline": st.booleans(),
    "optimistic_issue": st.booleans(),
    "perfect_branch_prediction": st.booleans(),
    "speculation": st.sampled_from(SPECULATION_MODES),
    "infinite_memory_bandwidth": st.booleans(),
    "disambiguation_bits": st.sampled_from([8, 10]),
    "seed": st.integers(0, 5),
}

#: A changed value for every SMTConfig field inside the warm set.
WARM_SET_CHANGES = {
    "btb_entries": 128, "btb_assoc": 2, "pht_entries": 1024,
    "history_bits": 10, "ras_depth": 8, "btb_thread_tags": False,
    "shared_history": True,
}

BASE = RunSpec(scheme("ICOUNT", 2, 8, n_threads=2), 1, BUDGET)


def _warm_image(spec):
    """The image functional warmup leaves in the simulator
    ``run_spec_fast`` builds for ``spec``."""
    sim = build_simulator(spec)
    if spec.check_invariants:
        PipelineSanitizer(sim)
    sim.functional_warmup(spec.budget.functional_warmup_instructions)
    return images.capture(sim, spec.budget.functional_warmup_instructions)


@pytest.fixture(scope="module")
def base_image():
    return _warm_image(BASE)


class TestWarmKey:
    def test_timed_budget_excluded(self):
        # Runs differing only in the timed window share a warm state.
        config = scheme("ICOUNT", 2, 8, n_threads=4)
        a = RunSpec(config, 0, BUDGET)
        b = RunSpec(config, 0, dataclasses.replace(BUDGET,
                                                   measure_cycles=5000))
        assert warm_key(a) == warm_key(b)
        assert a.key() != b.key()

    def test_every_config_field_is_classified(self):
        # n_threads reaches the key through the program list.
        fields = {f.name for f in dataclasses.fields(SMTConfig)}
        assert set(WARM_CONFIG_FIELDS) == set(WARM_SET_CHANGES)
        assert fields == (set(WARM_CONFIG_FIELDS) | set(OUTSIDE_WARM_SET)
                          | {"n_threads"})

    def test_warm_inputs_change_the_key(self):
        key = warm_key(BASE)
        for name, value in WARM_SET_CHANGES.items():
            config = dataclasses.replace(BASE.config, **{name: value})
            changed = dataclasses.replace(BASE, config=config)
            assert warm_key(changed) != key, name
        assert warm_key(dataclasses.replace(BASE, rotation=2)) != key
        assert warm_key(dataclasses.replace(BASE, seed=7)) != key
        more_threads = dataclasses.replace(BASE.config, n_threads=3)
        assert warm_key(dataclasses.replace(BASE, config=more_threads)) \
            != key
        longer = dataclasses.replace(BUDGET, functional_warmup_instructions=
                                     WARM + 1)
        assert warm_key(dataclasses.replace(BASE, budget=longer)) != key

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(changes=st.fixed_dictionaries({}, optional=OUTSIDE_WARM_SET),
           rotation_lap=st.integers(0, 2),
           dcache_mshrs=st.sampled_from([None, 2]),
           check_invariants=st.booleans())
    def test_fields_outside_the_warm_set_share_key_and_image(
            self, base_image, changes, rotation_lap, dcache_mshrs,
            check_invariants):
        if changes.get("ls_units", 0) > changes.get("int_units", 6):
            changes["ls_units"] = changes["int_units"]
        spec = RunSpec(dataclasses.replace(BASE.config, **changes),
                       BASE.rotation + 8 * rotation_lap, BUDGET,
                       dcache_mshrs=dcache_mshrs,
                       check_invariants=check_invariants)
        assert warm_key(spec) == warm_key(BASE)
        assert _warm_image(spec) == base_image

    def test_run_spec_fast_equals_run_spec_across_a_shared_key(self):
        specs = [
            BASE,
            RunSpec(scheme("RR", 1, 8, n_threads=2, bigq=True,
                           perfect_branch_prediction=True), 9, BUDGET),
            RunSpec(SMTConfig(n_threads=2, smt_pipeline=False,
                              speculation="no_wrong_path", itag=True,
                              infinite_memory_bandwidth=True), 1, BUDGET,
                    dcache_mshrs=2, check_invariants=True),
        ]
        assert len({warm_key(spec) for spec in specs}) == 1
        for spec in specs:
            assert _fields(run_spec_fast(spec)) == _fields(run_spec(spec))
        assert images.misses == 1 and images.hits == len(specs) - 1


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

    @staticmethod
    def drain_restores_shared_states(tmp_path, parent_warmups, monkeypatch,
                                     timeout):
        """A durable ``jobs=1`` batch of four runs with one warm state:
        the drain warms it here, before it forks its worker, and every
        run restores it in the worker."""
        from repro.experiments import parallel

        restores = tmp_path / "restores.log"
        real_restore = images.restore

        def logged(sim, image):
            with open(restores, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real_restore(sim, image)

        monkeypatch.setattr(images, "restore", logged)
        specs = [RunSpec(scheme(policy, 2, 8, n_threads=2), rotation,
                         BUDGET)
                 for rotation in (0, 8) for policy in ("ICOUNT", "RR")]
        assert len({warm_key(spec) for spec in specs}) == 1
        parallel.configure(fabric_dir=str(tmp_path / "fab"), timeout=timeout)
        try:
            drained = execute_runs(specs, jobs=1, use_cache=False)
        finally:
            parallel.configure(fabric_dir=None, timeout=None)
        assert len(parent_warmups) == 1
        pids = restores.read_text().split()
        assert len(pids) == len(specs) and str(os.getpid()) not in pids
        assert ([_fields(r) for r in drained]
                == [_fields(run_spec(spec)) for spec in specs])

    def test_fabric_drain_restores_shared_states(self, tmp_path,
                                                 parent_warmups,
                                                 monkeypatch):
        self.drain_restores_shared_states(tmp_path, parent_warmups,
                                          monkeypatch, timeout=None)

    def test_timed_drain_restores_shared_states(self, tmp_path,
                                                parent_warmups,
                                                monkeypatch):
        """Under a timeout, every run restores the state too."""
        self.drain_restores_shared_states(tmp_path, parent_warmups,
                                          monkeypatch, timeout=120)

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
