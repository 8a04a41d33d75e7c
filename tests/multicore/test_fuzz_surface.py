"""The multicore sanitizer/fuzz surface.

* every core runs under :class:`PipelineSanitizer` in multicore mode
  (``check_invariants=True`` attaches one per rebuild, and a corrupted
  pipeline is actually caught);
* the ``repro fuzz --multicore`` config space covers core counts and
  allocator specs, and cases are pure functions of their seed;
* injected driver bugs — a double-allocated job and a job lost on a
  core drain — are caught by the driver's invariant checker, proving
  the checks are live, not decorative.
"""

import pytest

from repro.core.config import SMTConfig
from repro.experiments import parallel
from repro.multicore.driver import (
    DONE,
    RUNNING,
    ArrivalConfig,
    CoreState,
    DriverInvariantError,
    MulticoreRunSpec,
    OpenSystemDriver,
)
from repro.verify import fuzz
from repro.verify.sanitizer import PipelineSanitizer


def tiny_spec(**overrides):
    fields = dict(
        n_cores=2, allocator="ROUND_ROBIN",
        config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=15_000, seed=5,
        arrival=ArrivalConfig(jobs=4, rate_per_kcycle=2.0,
                              service_instructions=200, seed=5),
    )
    fields.update(overrides)
    return MulticoreRunSpec(**fields)


def run_until_allocated(driver, want=2):
    while sum(len(c.resident) for c in driver.cores) < want:
        assert driver.clock < driver.spec.max_cycles, "never allocated"
        driver.tick()
    return driver


# ----------------------------------------------------------------------
# Sanitizer on every core.  Every core is stepped in the driver process
# here, so each core's simulator is in reach; test_windows.py covers
# cores stepped by helper processes.
# ----------------------------------------------------------------------
def built_sims(monkeypatch, spec):
    """Run ``spec`` with one core owner; every simulator each core was
    built with, checked to include every core."""
    monkeypatch.setattr(parallel, "core_owners", lambda n_cores: 1)
    built = {index: [] for index in range(spec.n_cores)}
    build = CoreState._build

    def recording_build(core, *args):
        build(core, *args)
        built[core.index].append(core.sim)

    monkeypatch.setattr(CoreState, "_build", recording_build)
    OpenSystemDriver(spec).run()
    assert all(built.values()), {i: len(s) for i, s in built.items()}
    return [sim for sims in built.values() for sim in sims]


def test_check_invariants_attaches_sanitizer_to_every_core(monkeypatch):
    for sim in built_sims(monkeypatch, tiny_spec(check_invariants=True)):
        assert isinstance(sim.sanitizer, PipelineSanitizer)
        # The sanitizer forces the reference step path.
        assert sim.telemetry is None
        assert sim.sanitizer.cycles_checked > 0


def test_sanitizer_catches_corrupted_core_pipeline(monkeypatch):
    """Corrupt one core's pipeline mid-run, each core in turn: the
    per-core sanitizer must raise, and the driver must not swallow it."""
    from repro.verify.sanitizer import InvariantViolation

    monkeypatch.setattr(parallel, "core_owners", lambda n_cores: 1)
    build = CoreState._build
    for victim in (0, 1):
        def corrupting_build(core, *args, victim=victim):
            build(core, *args)
            sim = core.sim
            if core.index != victim:
                return

            def corrupt(uop):
                # A queue entry whose tid points past the thread list
                # is structural corruption the sweep must flag.
                if sim.int_queue.entries:
                    sim.int_queue.entries[0].tid = 7

            sim.add_commit_listener(corrupt)

        monkeypatch.setattr(CoreState, "_build", corrupting_build)
        driver = OpenSystemDriver(tiny_spec(check_invariants=True))
        with pytest.raises((InvariantViolation, IndexError, KeyError)):
            driver.run()
        assert any(job.core == victim for job in driver.jobs)


def test_multicore_run_without_sanitizer_uses_fast_step(monkeypatch):
    for sim in built_sims(monkeypatch, tiny_spec(check_invariants=False)):
        assert sim.sanitizer is None
        assert sim.use_fast_step


# ----------------------------------------------------------------------
# Fuzz config space.
# ----------------------------------------------------------------------
def test_multicore_fuzz_cases_are_pure_functions_of_seed():
    for seed in range(30):
        assert fuzz.generate_multicore_case(seed) \
            == fuzz.generate_multicore_case(seed)


def test_multicore_fuzz_space_covers_cores_and_allocators():
    cases = [fuzz.generate_multicore_case(seed) for seed in range(120)]
    assert {case.n_cores for case in cases} >= {1, 2, 3}
    names = {case.allocator.split(":")[0] for case in cases}
    assert names >= {"RANDOM", "ROUND_ROBIN", "LOAD", "PAIRING"}
    assert any(":" in case.allocator for case in cases), \
        "parameterised allocator specs never drawn"
    specs = [case.run_spec() for case in cases[:10]]
    assert all(spec.check_invariants for spec in specs)


@pytest.mark.fuzz
def test_multicore_fuzz_smoke_is_clean():
    summary = fuzz.fuzz_run(seeds=5, max_cycles=4000, multicore=True)
    assert summary.clean, [f.outcome.describe() for f in summary.failures]
    assert summary.ok == 5
    assert summary.total_commits > 0


# ----------------------------------------------------------------------
# Injected driver bugs: the invariant checks must catch them.
# ----------------------------------------------------------------------
def test_injected_double_allocation_is_caught():
    driver = OpenSystemDriver(tiny_spec())
    run_until_allocated(driver, want=1)
    victim = next(
        job for core in driver.cores for job in core.resident
    )
    other = driver.cores[(victim.core + 1) % len(driver.cores)]
    other.resident.append(victim)     # the bug: resident on two cores
    with pytest.raises(DriverInvariantError, match="double allocation"):
        driver.check_invariants()


def test_injected_lost_job_on_core_drain_is_caught():
    """Drain a core without retiring its jobs: each one is RUNNING but
    resident nowhere — the conservation check must flag it."""
    driver = OpenSystemDriver(tiny_spec())
    run_until_allocated(driver, want=1)
    core = next(c for c in driver.cores if c.resident)
    lost = core.resident[0]
    core.resident.clear()             # the bug: drain without retire
    core.sim = None
    assert lost.state == RUNNING
    with pytest.raises(DriverInvariantError,
                       match="conservation|lost"):
        driver.check_invariants()


def test_injected_overfilled_core_is_caught():
    driver = OpenSystemDriver(tiny_spec())
    run_until_allocated(driver, want=2)
    core = max(driver.cores, key=lambda c: len(c.resident))
    donor = next(
        job for c in driver.cores for job in c.resident
    )
    while len(core.resident) <= core.capacity:
        core.resident.append(donor)
    with pytest.raises(DriverInvariantError, match="capacity"):
        driver.check_invariants()


def test_injected_time_travel_is_caught():
    driver = OpenSystemDriver(tiny_spec())
    driver.run()
    finished = next(j for j in driver.jobs if j.state == DONE)
    finished.finish_cycle = finished.start_cycle - 1
    with pytest.raises(DriverInvariantError, match="timeline"):
        driver.check_invariants()


def test_clean_run_passes_every_invariant():
    driver = OpenSystemDriver(tiny_spec())
    result = driver.run()
    driver.check_invariants()         # terminal state is consistent too
    assert result.jobs_completed == result.jobs_total
