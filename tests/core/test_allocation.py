"""Allocation and lifetime guards for the simulator.

Campaigns build thousands of short-lived simulators, so each one must be
cheap for CPython's garbage collector:

* building one adds only a few hundred GC-tracked objects — every cache
  level keeps its tags in one flat list, not one list per set (the 2 MB
  L3 alone has 32,768 sets);
* a finished simulator is freed by reference counting the moment its
  last reference goes — the pipeline units refer back to it weakly, so
  it sits in no reference cycle waiting for a full collection.

Every check runs with the collector disabled, so an automatic collection
cannot free a cycle behind the test's back.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.core.config import FETCH_POLICIES, ISSUE_POLICIES, SMTConfig, scheme
from repro.experiments import parallel
from repro.experiments.runner import RunBudget
from repro.multicore import driver as mc_driver
from repro.multicore.driver import (
    ArrivalConfig,
    MulticoreRunSpec,
    OpenSystemDriver,
)

BUDGET = RunBudget(warmup_cycles=100, measure_cycles=300,
                   functional_warmup_instructions=1000, rotations=1)

#: Tracked objects one 8-thread simulator may add.  The per-set tag
#: store added ~35,000; the flat one adds ~250.
MAX_TRACKED_PER_BUILD = 1000


@contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_and_release(config: SMTConfig, use_fast_step: bool = True):
    """Run a small simulation, drop it, and return weak references to
    the simulator and the objects it owns."""
    sim = parallel.build_simulator(parallel.RunSpec(config, 0, BUDGET))
    sim.use_fast_step = use_fast_step
    sim.run(warmup_cycles=BUDGET.warmup_cycles,
            measure_cycles=BUDGET.measure_cycles,
            functional_warmup_instructions=(
                BUDGET.functional_warmup_instructions))
    refs = {name: weakref.ref(obj) for name, obj in (
        ("simulator", sim), ("fetch", sim.fetch_unit),
        ("issue", sim.issue_unit), ("execute", sim.execute_unit),
        ("retire", sim.retire_unit), ("hierarchy", sim.hierarchy),
    )}
    del sim
    return refs


def alive(refs):
    return sorted(name for name, ref in refs.items() if ref() is not None)


def test_build_adds_few_tracked_objects():
    spec = parallel.RunSpec(SMTConfig(n_threads=8), 0, BUDGET)
    parallel.build_simulator(spec)  # generate and cache the programs
    with collector_off():
        before = len(gc.get_objects())
        sim = parallel.build_simulator(spec)
        added = len(gc.get_objects()) - before
    assert sim.cfg.n_threads == 8
    assert added < MAX_TRACKED_PER_BUILD, added


@pytest.mark.parametrize("fetch_policy", FETCH_POLICIES)
def test_fetch_policies_free_by_refcount(fetch_policy):
    with collector_off():
        refs = run_and_release(scheme(fetch_policy, 2, 8, n_threads=4))
        assert alive(refs) == []


@pytest.mark.parametrize("issue_policy", ISSUE_POLICIES)
def test_issue_policies_free_by_refcount(issue_policy):
    with collector_off():
        refs = run_and_release(scheme("ICOUNT", 2, 8, n_threads=4,
                                      issue_policy=issue_policy))
        assert alive(refs) == []


def test_reference_loop_and_itag_free_by_refcount():
    config = scheme("ICOUNT", 2, 8, n_threads=4, itag=True)
    with collector_off():
        refs = run_and_release(config, use_fast_step=False)
        assert alive(refs) == []


def test_open_system_driver_keeps_only_live_cores(monkeypatch):
    built = []

    def recording_build_core(*args, **kwargs):
        sim = build_core(*args, **kwargs)
        built.append(weakref.ref(sim))
        return sim

    build_core = mc_driver.build_core
    monkeypatch.setattr(mc_driver, "build_core", recording_build_core)
    spec = MulticoreRunSpec(
        n_cores=2, allocator="PAIRING", config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=20_000, seed=3,
        arrival=ArrivalConfig(jobs=6, rate_per_kcycle=2.0,
                              service_instructions=250, seed=3),
    )
    with collector_off():
        driver = OpenSystemDriver(spec)
        while not driver.done() and driver.clock < spec.max_cycles:
            driver.tick()
            live = {id(core.sim) for core in driver.cores
                    if core.sim is not None}
            reachable = {id(ref()) for ref in built if ref() is not None}
            assert reachable == live, driver.clock
    assert driver.done()
    assert len(built) > spec.n_cores  # cores really were rebuilt
