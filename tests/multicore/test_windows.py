"""Stepping cores by window, in the driver process or in helpers.

* Pinned results: a SHA-256 over the canonical JSON of
  ``MulticoreResult.to_dict()`` for a small grid of specs, computed
  before cores were stepped by window, holds at every number of core
  owners *P* (picked by patching ``parallel.core_owners``).
* Failures: a core that raises in a helper makes the driver raise the
  same exception at the same tick as in one process; a helper that dies
  makes the driver raise instead of hanging.
* Lifecycle: no helper outlives ``run()``, an exception, or a dropped
  driver, and a helper whose driver is SIGKILLed exits by itself.
* Placement: ``core_owners`` keeps pooled, supervised and threaded
  callers to one process.
"""

import gc
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.config import SMTConfig
from repro.experiments import parallel
from repro.experiments.supervise import Supervisor
from repro.multicore import driver as mc_driver
from repro.multicore.driver import (
    ArrivalConfig,
    JobSpec,
    MulticoreRunSpec,
    OpenSystemDriver,
)
from repro.verify.sanitizer import InvariantViolation


def spec(**overrides):
    fields = dict(
        n_cores=2, allocator="PAIRING", config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=20_000, seed=3,
        arrival=ArrivalConfig(jobs=6, rate_per_kcycle=2.0,
                              service_instructions=200, seed=3),
    )
    fields.update(overrides)
    return MulticoreRunSpec(**fields)


def trace(*jobs):
    """Jobs ``(arrival, profile, service, workload seed)`` in id order."""
    return tuple(
        JobSpec(job_id=i, arrival_cycle=arrival, profile=profile,
                service_instructions=service, workload_seed=seed)
        for i, (arrival, profile, service, seed) in enumerate(jobs))


GRID = {
    f"{allocator}/C{n}": spec(n_cores=n, allocator=allocator)
    for n in (1, 2, 3, 4)
    for allocator in ("RANDOM", "ROUND_ROBIN", "LOAD",
                      "PAIRING:miss_weight=2.0")
}
GRID["trace/C3"] = spec(
    n_cores=3, allocator="LOAD", arrival=None,
    trace=trace((0, "alvinn", 300, 0), (0, "doduc", 200, 1),
                (100, "ora", 250, 0), (900, "tomcatv", 200, 0),
                (950, "espresso", 150, 2), (4000, "tex", 300, 0)))
GRID["checked/C2"] = spec(
    check_invariants=True,
    arrival=ArrivalConfig(jobs=4, rate_per_kcycle=2.0,
                          service_instructions=150, seed=3))
GRID["cutoff/C2"] = spec(      # max_cycles ends the run with jobs left
    max_cycles=2400,
    arrival=ArrivalConfig(jobs=6, rate_per_kcycle=4.0,
                          service_instructions=400, seed=3))

PINNED = {
    "RANDOM/C1": "49131d6f7f833caff682f92b839e0ac1d1068d1c76b4d67e9a4f4804ba825a74",
    "ROUND_ROBIN/C1": "1a83ab618b1ec7966f311af040179298f1406fe61d4d489b2dae33efcae57652",
    "LOAD/C1": "0fe76b4302e4627ae921da80f53d612f58f55d980563b861ee23285efe37260e",
    "PAIRING:miss_weight=2.0/C1": "909b473600b8b1b4ef1b8c907dcc8c3fcb01bd1d90d2e0efbd2697b58c833ffc",
    "RANDOM/C2": "09626a3ea4da81f293a5e907539c26fdf4a35d6bbe551a03c88a2ab44a48b24e",
    "ROUND_ROBIN/C2": "083ad002ee20fe522d6833e4ec8b56234401f66fae13f0b89a7b6c2a4445fe82",
    "LOAD/C2": "5eff2e45734731ce6b26242f80ea24016d7abb3f5818e492a761d00fc750ef36",
    "PAIRING:miss_weight=2.0/C2": "509aa00b2955117e2ce14259d9708dc17e84cb5d99b12e1cfc2861f2baa574d6",
    "RANDOM/C3": "41277c935168eedbe5d6aadd84441c5c19fe6ce0a6531261b2dcf404af08b24e",
    "ROUND_ROBIN/C3": "5f14193439fcc7a811bc4651920e11c0cb960ab37fa13bf585de8adf6748a65e",
    "LOAD/C3": "f71e8856d0a3b9c247d62200ed804052d3c2f26b65e838dcaefd650f544be04f",
    "PAIRING:miss_weight=2.0/C3": "fe8c344945a7702f561b30ce8af1820d42b18599fc05fd80e9f2f8cad8258d67",
    "RANDOM/C4": "ae729d6f26bc8725245e05827e2ba60020aa5471df5500b269b52e95e7368b3a",
    "ROUND_ROBIN/C4": "d3eac076a15c41d093ae4a51e08e2e8c80be517c62b2fb6e2f42073540927d13",
    "LOAD/C4": "89353e8468e10de847fd17b6284ee84911d550fcf0ef6f877ca16a04cb6d5df4",
    "PAIRING:miss_weight=2.0/C4": "16ad807aab13a4ed5ad290052b6f13b0df7bbb6223e3e82c9c4eced573e5d544",
    "trace/C3": "1c8ee90167c48752893cf83304fc0e7ae8ce2426297b0dcd9cbabef4ea2d1166",
    "checked/C2": "7c45ce87a02d7cf00be5bf5c0ea087ff7ebcc8a11243f9062c1d695e9f4badfd",
    "cutoff/C2": "6a9fdc4487c759ca19e2cda415807a11bef06215a12caa5ea9368eebf294c0f0",
}


def owners(monkeypatch, count):
    monkeypatch.setattr(parallel, "core_owners", lambda n_cores: count)


def digest(result):
    blob = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def live_helpers():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("core-owner-")]


# ----------------------------------------------------------------------
# Pinned results at every P.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,count", [
    (label, count) for label in GRID for count in (1, 2, 3)
    if count < 3 or GRID[label].n_cores >= 3
])
def test_results_match_the_pinned_hashes(monkeypatch, label, count):
    owners(monkeypatch, count)
    result = OpenSystemDriver(GRID[label]).run()
    assert digest(result) == PINNED[label]
    assert not live_helpers()


def test_pinned_grid_covers_a_cut_off_run():
    result = OpenSystemDriver(GRID["cutoff/C2"])
    assert result.run().unfinished > 0


# ----------------------------------------------------------------------
# Failures.
# ----------------------------------------------------------------------
#: Two cores, one job each from cycle 0 (ROUND_ROBIN places job 0 on
#: core 0 and job 1 on core 1), still running when a third arrival
#: ends the first window at cycle 600.
TWO_JOBS = spec(
    allocator="ROUND_ROBIN", check_invariants=True, arrival=None,
    trace=trace((0, "alvinn", 2000, 0), (0, "tex", 2000, 0),
                (600, "ora", 200, 0)))


def corrupt_cores_running(monkeypatch, profile, after_cycle=300):
    """Patch ``build_core`` so a core running ``profile`` breaks its
    ICOUNT accounting once it has run ``after_cycle`` cycles, which the
    core's sanitizer reports.  Patched before any helper is forked, so
    helpers inherit it."""
    build = mc_driver.build_core

    def corrupting_build_core(config, programs, check_invariants=False):
        sim = build(config, programs, check_invariants=check_invariants)
        if any(program.name == profile for program in programs):
            def corrupt(uop):
                if sim.cycle >= after_cycle:
                    sim.threads[0].unissued_count += 1
            sim.add_commit_listener(corrupt)
        return sim

    monkeypatch.setattr(mc_driver, "build_core", corrupting_build_core)


def failure(driver):
    """Tick ``driver`` until it raises; the exception and the clock."""
    with pytest.raises(Exception) as caught:
        driver.run()
    return type(caught.value), driver.clock


def test_helper_core_exception_matches_one_process(monkeypatch):
    corrupt_cores_running(monkeypatch, "tex")
    owners(monkeypatch, 1)
    alone = failure(OpenSystemDriver(TWO_JOBS))
    owners(monkeypatch, 2)
    driver = OpenSystemDriver(TWO_JOBS)
    assert failure(driver) == alone
    assert alone[0] is InvariantViolation
    assert driver.jobs[1].core == 1          # the helper's core failed
    assert not live_helpers()


def test_dead_helper_makes_the_driver_raise(monkeypatch):
    owners(monkeypatch, 2)
    driver = OpenSystemDriver(TWO_JOBS)
    driver.tick()                            # forks core 1's helper
    (helper,) = live_helpers()
    os.kill(helper.pid, signal.SIGKILL)
    helper.join(10)
    assert not helper.is_alive()
    with pytest.raises(RuntimeError, match="helper process failed"):
        driver.run()
    assert not live_helpers()


# ----------------------------------------------------------------------
# Lifecycle and placement.
# ----------------------------------------------------------------------
def test_helper_owns_its_core_and_stops_with_the_run(monkeypatch):
    owners(monkeypatch, 2)
    driver = OpenSystemDriver(TWO_JOBS)
    driver.tick()
    assert len(live_helpers()) == 1
    local, helper_core = driver.cores
    assert local.resident and local.sim is not None
    assert helper_core.resident and helper_core.sim is None
    driver.run()
    assert driver.done()
    assert not live_helpers()


def test_dropped_driver_stops_its_helpers(monkeypatch):
    owners(monkeypatch, 2)
    driver = OpenSystemDriver(TWO_JOBS)
    driver.tick()
    assert live_helpers()
    del driver
    gc.collect()
    assert not live_helpers()


def _drive_forever(pid_path):
    """A driver process whose helper announces itself, then runs one
    window of millions of cycles."""
    parallel.core_owners = lambda n_cores: 2
    build = mc_driver.build_core
    driver_pid = os.getpid()

    def announcing_build_core(*args, **kwargs):
        if os.getpid() != driver_pid:
            with open(pid_path + ".tmp", "w") as handle:
                handle.write(str(os.getpid()))
            os.replace(pid_path + ".tmp", pid_path)
        return build(*args, **kwargs)

    mc_driver.build_core = announcing_build_core
    OpenSystemDriver(spec(
        allocator="ROUND_ROBIN", max_cycles=10_000_000, arrival=None,
        trace=trace((0, "alvinn", 10**7, 0), (0, "tex", 10**7, 0)),
    )).run()


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_helper_exits_when_its_driver_is_killed(tmp_path):
    pid_path = str(tmp_path / "helper.pid")
    child = multiprocessing.get_context("fork").Process(
        target=_drive_forever, args=(pid_path,))
    child.start()
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(pid_path):
            assert time.monotonic() < deadline, "the helper never started"
            assert child.is_alive(), "the driver process exited"
            time.sleep(0.05)
        with open(pid_path) as handle:
            helper = int(handle.read())
        time.sleep(0.5)                      # well inside the window
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.join(10)
    assert not child.is_alive()
    deadline = time.monotonic() + 10
    while _running(helper):
        assert time.monotonic() < deadline, "helper outlived its driver"
        time.sleep(0.05)


def _owners_in_child(_payload, _watchdog):
    return parallel.core_owners(4)


def test_core_owners_is_one_where_forking_is_unsafe():
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(parallel.core_owners, (4,)) == 1
    outcome = Supervisor(_owners_in_child).run([("p", None)])["p"]
    assert outcome.ok and outcome.result == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert parallel.core_owners(4) == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert parallel.core_owners(1) == 1
    assert parallel.core_owners(64) <= len(os.sched_getaffinity(0))
