"""BENCHMARK.json validation against the contract and the layer map."""

import copy

import pytest

from bench import catalog


@pytest.fixture(scope="module")
def doc():
    return catalog.load_benchmark()


def test_checked_in_benchmark_is_valid(doc):
    assert catalog.validate(doc) == []


def test_workloads_are_the_three_named_ones(doc):
    from bench.workloads import WORKLOADS

    names = [w["name"] for w in doc["workloads"]]
    assert names == ["fig3-sweep", "serve-campaign", "multicore-open"]
    assert sorted(names) == sorted(WORKLOADS)


def test_every_per_layer_metric_maps_to_an_end_to_end_metric(doc):
    e2e = {m["name"] for m in catalog.end_to_end(doc)}
    workloads = {w["name"] for w in doc["workloads"]}
    for metric in catalog.per_layer(doc):
        moves, where, holds = catalog.MOVES[metric["name"]]
        assert set(moves) <= e2e
        assert set(where) | set(holds) <= workloads
        if not metric["name"].startswith(("model.", "bench.")):
            assert moves and where, metric["name"]


def broken(doc, mutate):
    doc = copy.deepcopy(doc)
    mutate(doc)
    return catalog.validate(doc)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["per_layer"][0].update(name="bad name!"), "bad name"),
    (lambda d: d["per_layer"][1].update(name=d["per_layer"][0]["name"]),
     "used twice"),
    (lambda d: d["per_layer"][0].update(name="9" * 65), "bad name"),
    (lambda d: d["end_to_end"].extend(
        {"name": f"extra{i}", "unit": "s", "better": "lower", "bound": 0.1}
        for i in range(13)), "1-16"),
    (lambda d: d["per_layer"].extend(
        {"name": f"extra{i}", "unit": "count", "better": "lower"}
        for i in range(129)), "1-128"),
    (lambda d: d["end_to_end"][1].pop("bound"), "exactly name"),
    (lambda d: d["end_to_end"][1].update(bound=0.3), "bound must"),
    (lambda d: d["end_to_end"][1].update(bound=0), "bound must"),
    (lambda d: d["end_to_end"][1].update(bound=None), "bound must"),
    (lambda d: d["end_to_end"][0].update(bound=0.05), "largest bound"),
    (lambda d: d["end_to_end"].pop(0), "setup_s"),
    (lambda d: d["end_to_end"][1].update(better="faster"), "better"),
    (lambda d: d["end_to_end"][1].update(unit="furlongs per fortnight"),
     "bad unit"),
    (lambda d: d["per_layer"].append(
        {"name": "core.unmapped", "unit": "s", "better": "lower"}),
     "no entry in the layer mapping"),
    (lambda d: d["workloads"].pop(), "unknown workload"),
    (lambda d: d["workloads"][0].update(why="x" * 201), "one line"),
    (lambda d: d.update(extra=1), "top-level keys"),
    (lambda d: d.update(run_seconds=61), "run_seconds"),
    (lambda d: d.update(paths=["/abs"]), "bad path"),
    (lambda d: d.update(paths=["../up"]), "bad path"),
])
def test_validation_catches(doc, mutate, fragment):
    problems = broken(doc, mutate)
    assert any(fragment in p for p in problems), problems


def test_mapping_to_unknown_end_to_end_metric_is_caught(doc,
                                                        monkeypatch):
    moves = dict(catalog.MOVES)
    moves["core.calls"] = (("no_such_metric",), ("fig3-sweep",), ())
    monkeypatch.setattr(catalog, "MOVES", moves)
    assert any("unknown metric" in p for p in catalog.validate(doc))
