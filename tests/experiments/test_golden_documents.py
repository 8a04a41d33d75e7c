"""Golden export documents: every checked-in artifact keeps loading.

``tests/fixtures/documents/`` holds one document per schema at the
version its layout dates from (``export.SCHEMA_SINCE``) and one at the
version today's writers stamp, built by ``make_documents.py`` in that
directory.  Each must load with and without naming its schema, and
still carry the fields the CLI, the scripts and CI read.  Moving a
kind's ``SCHEMA_SINCE`` past a fixture fails here: that is the moment
to decide what becomes of the older artifacts.
"""

import json
import os
import re

import pytest

from repro.experiments import export
from repro.sched.campaign import report_results
from repro.verify.fuzz import FuzzCase, load_corpus_case

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "documents")
NAME = re.compile(r"^(?P<schema>repro\.\w+)\.v(?P<version>\d+)\.json$")
PATHS = sorted(os.path.join(FIXTURES, name)
               for name in os.listdir(FIXTURES) if NAME.match(name))


def _identity(path):
    match = NAME.match(os.path.basename(path))
    return match["schema"], int(match["version"])


def _check_run(document, path):
    result = document["result"]
    assert result["ipc"] > 0 and result["n_threads"] == 2
    assert document["telemetry"]["samples"]
    assert document["metrics"]["histograms"]
    assert document["policy"] == {"adaptive": False, "policy": "ICOUNT"}


def _check_experiment(document, path):
    assert document["experiment"] == "fig3"
    assert [(row["line"], row["threads"]) for row in document["rows"]] == [
        ("ICOUNT.2.8", 1), ("ICOUNT.2.8", 2)]
    assert all(row["ipc"] > 0 for row in document["rows"])
    assert export.csv_text(document["rows"]).startswith("avg_queue_")


def _check_violation(document, path):
    assert document["violation"]["invariant"] == "iq-overflow"
    assert document["violation"]["cycle"] == 321
    assert FuzzCase.from_dict(document["case"]).seed == 3
    assert document["context"] == "fuzz seed 3"


def _check_multicore(document, path):
    result = document["result"]
    assert result["allocator"] == document["spec"]["allocator"] == "PAIRING"
    assert result["n_cores"] == len(result["cores"]) == 2
    assert result["jobs_completed"] == result["jobs_total"] == 3
    assert result["latency"]["total"]["p99"] > 0


def _check_multicore_experiment(document, path):
    rows = document["rows"]
    assert [row["allocator"] for row in rows] == ["LOAD", "PAIRING"]
    assert all(row["n_cores"] == 2 and row["latency_total_p99"] > 0
               for row in rows)
    assert [run["load"] for run in document["runs"]] == ["moderate"] * 2


def _check_fabric(document, path):
    assert document["counts"] == {"done": 1}
    assert [row["state"] for row in document["tasks"]] == ["done"]
    (result,) = report_results(document["tasks"])
    assert result.ipc > 0
    assert export.fabric_report_bytes(document)


def _check_service_status(document, path):
    counts = document["counts"]
    assert (counts["done"], counts["total"]) == (1, 1)
    assert counts["pending"] == counts["leased"] == counts["failed"] \
        == counts["quarantined"] == 0
    assert document["all_terminal"] is True
    assert [row["state"] for row in document["tasks"]] == ["done"]


def _check_service_stats(document, path):
    assert document["server"]["draining"] is False
    assert document["counters"]["submits"] == 1


def _check_fuzz_case(document, path):
    case, loaded = load_corpus_case(path)
    assert loaded == document
    assert case == FuzzCase.from_dict(document["case"])
    assert document["note"] == "golden fixture"


CHECKS = {
    export.RUN_SCHEMA: _check_run,
    export.EXPERIMENT_SCHEMA: _check_experiment,
    export.VIOLATION_SCHEMA: _check_violation,
    export.MULTICORE_SCHEMA: _check_multicore,
    export.MULTICORE_EXPERIMENT_SCHEMA: _check_multicore_experiment,
    export.FABRIC_SCHEMA: _check_fabric,
    export.SERVICE_STATUS_SCHEMA: _check_service_status,
    export.SERVICE_STATS_SCHEMA: _check_service_stats,
    export.FUZZ_CASE_SCHEMA: _check_fuzz_case,
}


@pytest.mark.parametrize("path", PATHS,
                         ids=[os.path.basename(p) for p in PATHS])
def test_fixture_loads_and_keeps_its_fields(path):
    schema, version = _identity(path)
    document = export.load(path)
    assert export.load(path, schema) == document
    assert (document["schema"], document["schema_version"]) == \
        (schema, version)
    CHECKS[schema](document, path)


def test_every_kind_has_a_fixture_at_its_since_version():
    present = {_identity(path) for path in PATHS}
    assert set(CHECKS) == set(export.SCHEMA_SINCE)
    for schema, since in export.SCHEMA_SINCE.items():
        assert (schema, since) in present, (schema, since)
        assert (schema, export.SCHEMA_VERSION) in present, schema


def _layout(value, path=""):
    """The key paths of a JSON value: its layout without the data."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}", item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(path + "[]", item) for item in value]
    else:
        items = []
    return {path}.union(*(_layout(item, sub) for sub, item in items))


def test_versions_of_one_kind_share_one_layout():
    by_schema = {}
    for path in PATHS:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        by_schema.setdefault(document["schema"], []).append(
            _layout(document))
    for schema, layouts in by_schema.items():
        assert all(layout == layouts[0] for layout in layouts), schema


def test_fixtures_stay_small():
    assert sum(os.path.getsize(path) for path in PATHS) < 100_000
