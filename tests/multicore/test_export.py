"""Export and spec-grammar edge cases for the multicore layer.

* allocator spec grammar errors name the valid registry entries, in
  the grammar the fetch policies share;
* loading a multicore document rejects unknown schemas and versions;
* loading an experiment document rejects a multicore one (naming the
  kind it found) instead of silently misreading it.
"""

import json

import pytest

from repro.core.config import SMTConfig
from repro.experiments import export
from repro.multicore.alloc import (
    ALLOCATORS,
    allocator_names,
    make_allocator,
)
from repro.multicore.driver import (
    ArrivalConfig,
    MulticoreRunSpec,
    OpenSystemDriver,
)


def tiny_result():
    spec = MulticoreRunSpec(
        n_cores=2, allocator="LOAD", config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=10_000, seed=2,
        arrival=ArrivalConfig(jobs=3, rate_per_kcycle=2.0,
                              service_instructions=150, seed=2),
    )
    return spec, OpenSystemDriver(spec).run()


# ----------------------------------------------------------------------
# Spec grammar errors list the registry.
# ----------------------------------------------------------------------
def test_unknown_allocator_error_lists_registry_names():
    with pytest.raises(ValueError) as excinfo:
        make_allocator("BOGUS")
    message = str(excinfo.value)
    for name in allocator_names():
        assert name in message
    assert "repro allocators" in message


def test_unknown_allocator_in_run_spec_lists_registry_names():
    with pytest.raises(ValueError) as excinfo:
        MulticoreRunSpec(
            n_cores=1, allocator="NOPE", config=SMTConfig(n_threads=1),
            arrival=ArrivalConfig(jobs=1, rate_per_kcycle=1.0,
                                  service_instructions=100),
        )
    for name in allocator_names():
        assert name in str(excinfo.value)


@pytest.mark.parametrize("spec,fragment", [
    ("PAIRING:miss_weight", "malformed allocator option"),
    ("PAIRING:=1.0", "malformed allocator option"),
    ("PAIRING:", "empty segment"),
    ("PAIRING:miss_weight=1.0:", "empty segment"),
    ("PAIRING:miss_weight=1.0,miss_weight=2.0", "duplicate"),
    ("PAIRING:miss_weight=abc", "not a number"),
    ("PAIRING:bogus_knob=1.0", "valid options"),
    ("LOAD:anything=1", "valid options: (none)"),
    ("", "non-empty string"),
])
def test_malformed_spec_errors_are_specific(spec, fragment):
    with pytest.raises(ValueError) as excinfo:
        ALLOCATORS.validate(spec)
    assert fragment in str(excinfo.value)


def test_parse_alloc_spec_round_trip():
    name, arms, params = ALLOCATORS.parse(
        "PAIRING:miss_weight=2.0,iq_weight=0.1")
    assert name == "PAIRING" and arms is None
    assert params == {"miss_weight": "2.0", "iq_weight": "0.1"}
    allocator = make_allocator("PAIRING:miss_weight=2.0")
    assert allocator.miss_weight == 2.0
    assert allocator.spec == "PAIRING:miss_weight=2.0"


def test_option_segments_may_repeat_as_for_fetch_policies():
    allocator = make_allocator("PAIRING:miss_weight=1:iq_weight=2")
    assert (allocator.miss_weight, allocator.iq_weight) == (1.0, 2.0)
    with pytest.raises(ValueError, match="duplicate allocator option"):
        make_allocator("PAIRING:miss_weight=1:miss_weight=2")


def test_negative_pairing_weight_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        make_allocator("PAIRING:miss_weight=-1.0")


# ----------------------------------------------------------------------
# Multicore documents: write, load, reject.
# ----------------------------------------------------------------------
def test_multicore_document_round_trip(tmp_path):
    spec, result = tiny_result()
    path = tmp_path / "run.json"
    written = export.multicore_document(result, spec=spec)
    export.write(str(path), written)
    loaded = export.load(str(path), export.MULTICORE_SCHEMA)
    # Compare through a JSON round trip: profile tuples become lists.
    assert loaded == json.loads(json.dumps(written))
    assert loaded["schema"] == export.MULTICORE_SCHEMA
    assert loaded["schema_version"] == export.SCHEMA_VERSION
    assert loaded["result"]["allocator"] == "LOAD"
    assert loaded["spec"]["allocator"] == "LOAD"
    assert "latency" in loaded["result"]
    assert len(loaded["result"]["cores"]) == 2


def test_multicore_loader_rejects_unknown_schema_version(tmp_path):
    spec, result = tiny_result()
    path = tmp_path / "run.json"
    document = export.multicore_document(result)
    document["schema_version"] = export.SCHEMA_VERSION + 1
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="unsupported .* schema version"):
        export.load(str(path), export.MULTICORE_SCHEMA)


def test_multicore_loader_rejects_wrong_schema(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({
        "schema": export.EXPERIMENT_SCHEMA,
        "schema_version": export.SCHEMA_VERSION,
        "rows": [],
    }))
    with pytest.raises(ValueError, match="expected schema"):
        export.load(str(path), export.MULTICORE_SCHEMA)


def test_experiment_load_rejects_multicore_documents(tmp_path):
    """Loading an experiment document must refuse a multicore one —
    naming the kind it found, which a schema-free load accepts — and
    refuse unknown versions."""
    _, result = tiny_result()
    path = tmp_path / "allocation.json"
    export.write(str(path), export.multicore_document(result))
    with pytest.raises(ValueError) as excinfo:
        export.load(str(path), export.EXPERIMENT_SCHEMA)
    assert "got 'repro.multicore'" in str(excinfo.value)
    assert export.load(str(path))["schema"] == export.MULTICORE_SCHEMA

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({
        "schema": export.MULTICORE_EXPERIMENT_SCHEMA,
        "schema_version": 999,
        "rows": [],
    }))
    with pytest.raises(ValueError):
        export.load(str(stale), export.EXPERIMENT_SCHEMA)
    with pytest.raises(ValueError, match="unsupported"):
        export.load(str(stale), export.MULTICORE_EXPERIMENT_SCHEMA)


def test_multicore_experiment_export_round_trip(tmp_path):
    _, result_a = tiny_result()
    documents = [result_a.to_dict(), result_a.to_dict()]
    paths = export.export_experiment(
        export.multicore_experiment_document("allocation", documents),
        str(tmp_path),
    )
    assert [p.endswith("allocation.json") for p in paths] == [True, False]
    loaded = export.load(paths[0], export.MULTICORE_EXPERIMENT_SCHEMA)
    assert loaded["schema"] == export.MULTICORE_EXPERIMENT_SCHEMA
    assert len(loaded["rows"]) == 2
    assert loaded["rows"][0]["allocator"] == "LOAD"
    assert loaded["rows"][0]["latency_total_p50"] \
        == result_a.latency()["total"]["p50"]
    with open(paths[1]) as handle:
        header = handle.readline()
    assert "latency_total_p99" in header
