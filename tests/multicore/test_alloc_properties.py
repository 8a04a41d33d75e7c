"""Property tests of the allocation layer (hypothesis).

Four pinned invariants:

* **conservation** — at every driver tick, every arrived job is in
  exactly one place (queued, resident on one core, or done); nothing
  is lost, nothing is duplicated;
* **capacity** — no allocator ever places more jobs on a core than it
  has hardware contexts;
* **ROUND_ROBIN fairness** — while no core fills up, allocation counts
  across cores never differ by more than one;
* **PAIRING determinism** — identical telemetry snapshots produce the
  identical choice, every time.

The allocator-level properties drive :class:`CoreView` sequences
directly (fast, thousands of examples); conservation runs tiny real
driver ticks, so it exercises the genuine bookkeeping rather than a
model of it.
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.config import SMTConfig
from repro.multicore.alloc import (
    TELEMETRY_KEYS,
    CoreView,
    allocator_names,
    make_allocator,
)
from repro.multicore.driver import (
    DONE,
    ArrivalConfig,
    MulticoreRunSpec,
    OpenSystemDriver,
)

# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------
ALLOCATORS = sorted(allocator_names())

telemetry = st.fixed_dictionaries({
    "ipc": st.floats(0.0, 8.0, allow_nan=False),
    "iq": st.floats(0.0, 1.0, allow_nan=False),
    "miss": st.floats(0.0, 1.0, allow_nan=False),
})


@st.composite
def machines(draw, max_cores=5, max_capacity=4):
    """A CoreView list with at least one free context somewhere."""
    n_cores = draw(st.integers(1, max_cores))
    capacity = draw(st.integers(1, max_capacity))
    views = []
    for index in range(n_cores):
        resident = draw(st.integers(0, capacity))
        views.append(CoreView(
            index=index, resident=resident, capacity=capacity,
            telemetry=tuple(
                draw(telemetry) for _ in range(resident)
            ),
        ))
    if all(view.free == 0 for view in views):
        lucky = draw(st.integers(0, n_cores - 1))
        views[lucky] = dataclasses.replace(
            views[lucky], resident=capacity - 1,
            telemetry=views[lucky].telemetry[:capacity - 1],
        )
    return views


class _FakeJob:
    def __init__(self, snapshot):
        self.telemetry = snapshot


# ----------------------------------------------------------------------
# Capacity: every allocator, any machine shape.
# ----------------------------------------------------------------------
@given(spec=st.sampled_from(ALLOCATORS), views=machines(),
       seed=st.integers(0, 2**16), snapshot=telemetry)
@settings(max_examples=300, deadline=None)
def test_allocator_never_overfills_a_core(spec, views, seed, snapshot):
    allocator = make_allocator(spec, seed=seed)
    choice = allocator.choose(_FakeJob(snapshot), views)
    chosen = views[choice]
    assert chosen.index == choice
    assert chosen.free > 0, (
        f"{spec} chose core {choice} with no free context"
    )


@given(spec=st.sampled_from(ALLOCATORS), views=machines(),
       seed=st.integers(0, 2**16), snapshot=telemetry)
@settings(max_examples=200, deadline=None)
def test_sequential_fill_respects_capacity_bounds(spec, views, seed,
                                                  snapshot):
    """Keep allocating until the machine is full: every intermediate
    state stays within per-core bounds."""
    allocator = make_allocator(spec, seed=seed)
    views = list(views)
    while any(view.free > 0 for view in views):
        choice = allocator.choose(_FakeJob(snapshot), views)
        assert views[choice].free > 0
        views[choice] = dataclasses.replace(
            views[choice], resident=views[choice].resident + 1,
            telemetry=views[choice].telemetry + (snapshot,),
        )
        for view in views:
            assert 0 <= view.resident <= view.capacity


# ----------------------------------------------------------------------
# ROUND_ROBIN fairness.
# ----------------------------------------------------------------------
@given(n_cores=st.integers(1, 6), n_jobs=st.integers(1, 40),
       capacity=st.integers(7, 12))
@settings(max_examples=200, deadline=None)
def test_round_robin_fairness_invariant(n_cores, n_jobs, capacity):
    """With no core ever full, per-core allocation counts never differ
    by more than one at any prefix of the allocation sequence."""
    allocator = make_allocator("ROUND_ROBIN")
    counts = [0] * n_cores
    for _ in range(min(n_jobs, n_cores * capacity)):
        views = [
            CoreView(index=i, resident=counts[i], capacity=capacity)
            for i in range(n_cores)
        ]
        if not any(view.free > 0 for view in views):
            break
        counts[allocator.choose(object(), views)] += 1
        assert max(counts) - min(counts) <= 1, counts


# ----------------------------------------------------------------------
# PAIRING determinism.
# ----------------------------------------------------------------------
@given(views=machines(), snapshot=telemetry,
       seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
       weights=st.fixed_dictionaries({
           "miss_weight": st.floats(0.0, 8.0, allow_nan=False),
           "iq_weight": st.floats(0.0, 8.0, allow_nan=False),
           "ipc_weight": st.floats(0.0, 8.0, allow_nan=False),
       }))
@settings(max_examples=300, deadline=None)
def test_pairing_is_deterministic_given_identical_telemetry(
        views, snapshot, seeds, weights):
    """Same snapshots -> same choice: across fresh instances, repeated
    calls, and different seeds (PAIRING uses no randomness)."""
    spec = ("PAIRING:" + ",".join(
        f"{k}={v!r}" for k, v in sorted(weights.items())
    ))
    job = _FakeJob(snapshot)
    first = make_allocator(spec, seed=seeds[0]).choose(job, views)
    again = make_allocator(spec, seed=seeds[0]).choose(job, views)
    other_seed = make_allocator(spec, seed=seeds[1]).choose(job, views)
    assert first == again == other_seed
    allocator = make_allocator(spec, seed=seeds[0])
    assert [allocator.choose(job, views) for _ in range(3)] \
        == [first] * 3


def test_core_views_carry_only_the_telemetry_keys():
    """The snapshots a real driver offers PAIRING hold its signals and
    none of the driver's own bookkeeping."""
    run = MulticoreRunSpec(
        n_cores=2, allocator="PAIRING", config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=20_000, seed=3,
        arrival=ArrivalConfig(jobs=6, rate_per_kcycle=2.0,
                              service_instructions=300, seed=3),
    )
    driver = OpenSystemDriver(run)
    choose = driver.allocator.choose
    seen = []

    def recording_choose(job, cores):
        seen.extend(dict(snapshot) for core in cores
                    for snapshot in core.telemetry)
        return choose(job, cores)

    driver.allocator.choose = recording_choose
    driver.run()
    assert any(any(snapshot.values()) for snapshot in seen), \
        "no trained snapshot was offered"
    assert all(sorted(snapshot) == sorted(TELEMETRY_KEYS)
               for snapshot in seen), seen


# ----------------------------------------------------------------------
# Conservation, on the real driver.
# ----------------------------------------------------------------------
@given(spec=st.sampled_from(ALLOCATORS),
       n_cores=st.integers(1, 3),
       seed=st.integers(0, 2**10),
       jobs=st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_driver_conserves_jobs_every_tick(spec, n_cores, seed, jobs):
    """Every arrived job is allocated exactly once or still queued; the
    driver's own invariant checker (which raises on any breach) runs
    after every tick, and the terminal state accounts for every job."""
    run = MulticoreRunSpec(
        n_cores=n_cores, allocator=spec,
        config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=12_000, seed=seed,
        arrival=ArrivalConfig(jobs=jobs, rate_per_kcycle=2.0,
                              service_instructions=150, seed=seed),
    )
    driver = OpenSystemDriver(run)
    while not driver.done() and driver.clock < run.max_cycles:
        driver.tick()          # raises DriverInvariantError on breach
        placed = sum(len(core.resident) for core in driver.cores)
        done = sum(1 for job in driver.jobs if job.state == DONE)
        queued = len(driver._queue)
        pending = len(driver._pending)
        assert placed + done + queued + pending == len(driver.jobs)
    result = driver.result()
    assert result.jobs_completed + result.unfinished == result.jobs_total
    assert sorted(result.completion_order) == sorted(
        record.job_id for record in result.jobs
        if record.finish is not None
    )
