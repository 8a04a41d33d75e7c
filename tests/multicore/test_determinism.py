"""Bit-determinism of the multicore layer.

Two identical runs must produce identical job-completion orders and
identical export documents; the allocation study must produce the same
documents under ``--jobs 2`` and ``--jobs 1`` (the engine returns
results in spec order); and the result cache must key allocator spec
and arrival seed apart.
"""

import copy
import json

import pytest

from repro.core.config import SMTConfig
from repro.experiments import export, parallel
from repro.experiments.allocation import allocation_study
from repro.experiments.cache import ResultCache, multicore_key
from repro.experiments.runner import RunBudget
from repro.multicore.driver import (
    ArrivalConfig,
    MulticoreResult,
    MulticoreRunSpec,
    OpenSystemDriver,
    generate_arrivals,
)

BUDGET = RunBudget(warmup_cycles=500, measure_cycles=4000,
                   functional_warmup_instructions=10000, rotations=1)


def tiny_spec(allocator="PAIRING", seed=3, **overrides):
    fields = dict(
        n_cores=2, allocator=allocator,
        config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=20_000, seed=seed,
        arrival=ArrivalConfig(jobs=5, rate_per_kcycle=2.0,
                              service_instructions=250, seed=seed),
    )
    fields.update(overrides)
    return MulticoreRunSpec(**fields)


def test_arrivals_are_pure_functions_of_config():
    config = ArrivalConfig(jobs=12, rate_per_kcycle=1.5,
                           service_instructions=300, seed=11)
    assert generate_arrivals(config) == generate_arrivals(config)
    other = ArrivalConfig(jobs=12, rate_per_kcycle=1.5,
                          service_instructions=300, seed=12)
    assert generate_arrivals(config) != generate_arrivals(other)


@pytest.mark.parametrize("allocator",
                         ["RANDOM", "ROUND_ROBIN", "LOAD", "PAIRING"])
def test_identical_runs_identical_completion_order_and_document(allocator):
    spec = tiny_spec(allocator=allocator)
    first = OpenSystemDriver(spec).run()
    second = OpenSystemDriver(spec).run()
    assert first.completion_order == second.completion_order
    doc_a = export.multicore_document(first, spec=spec)
    doc_b = export.multicore_document(second, spec=spec)
    assert json.dumps(doc_a, sort_keys=True) \
        == json.dumps(doc_b, sort_keys=True)


def test_result_round_trips_through_dict():
    result = OpenSystemDriver(tiny_spec()).run()
    clone = MulticoreResult.from_dict(
        json.loads(json.dumps(result.to_dict()))
    )
    assert clone.to_dict() == result.to_dict()
    assert clone.latency() == result.latency()


def test_allocation_study_identical_under_jobs_1_and_2():
    """The study fans out over a pool; worker count must not leak into
    the results (map preserves spec order, runs are deterministic)."""
    kwargs = dict(
        budget=BUDGET,
        allocators=("ROUND_ROBIN", "PAIRING"),
        core_counts=(1, 2),
        loads=(("moderate", 2.0),),
    )
    try:
        parallel.configure(jobs=1, use_cache=False)
        serial = allocation_study(**kwargs)
        parallel.configure(jobs=2)
        pooled = allocation_study(**kwargs)
    finally:
        parallel.configure(jobs=None, use_cache=None)
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(pooled, sort_keys=True)
    document_a = export.multicore_experiment_document("allocation", serial)
    document_b = export.multicore_experiment_document("allocation", pooled)
    assert document_a == document_b


# ----------------------------------------------------------------------
# Cache keys: allocator spec and arrival seed are load-bearing.
# ----------------------------------------------------------------------
def test_cache_keys_distinct_per_allocator_and_arrival_seed():
    base = tiny_spec(allocator="LOAD", seed=1)
    keys = {
        multicore_key(base),
        multicore_key(tiny_spec(allocator="ROUND_ROBIN", seed=1)),
        multicore_key(tiny_spec(allocator="PAIRING", seed=1)),
        multicore_key(tiny_spec(allocator="PAIRING:miss_weight=2.0",
                                seed=1)),
        multicore_key(tiny_spec(allocator="LOAD", seed=2)),
    }
    assert len(keys) == 5
    # Same inputs -> same key.
    assert multicore_key(base) == multicore_key(copy.deepcopy(base))


def test_execute_runs_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    spec = tiny_spec()
    (first,) = parallel.execute_runs([spec], jobs=1, use_cache=True)
    cache = ResultCache()
    assert cache.get(multicore_key(spec), "multicore") is not None
    (second,) = parallel.execute_runs([spec], jobs=1, use_cache=True)
    assert second.to_dict() == first.to_dict()
    # A different allocator misses and recomputes.
    (other,) = parallel.execute_runs([tiny_spec(allocator="RANDOM")],
                                     jobs=1, use_cache=True)
    assert other.allocator == "RANDOM"
