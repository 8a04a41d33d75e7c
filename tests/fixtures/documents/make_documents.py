#!/usr/bin/env python
"""Write the golden export documents this directory holds.

For every registered schema (``export.SCHEMA_SINCE``) one document is
built from tiny runs through the current ``*_document`` builder and
written as ``<schema>.v<SCHEMA_VERSION>.json``.  When the schema's
layout dates from an older version, the same document restamped with
that version is written as ``<schema>.v<since>.json`` too: that the two
are one layout is what ``SCHEMA_SINCE`` asserts.

Existing files are never rewritten.  A fixture stands for what an
earlier writer produced, and ``tests/experiments/test_golden_documents.py``
holds that every one of them still loads.  After a ``SCHEMA_VERSION``
bump, run this once to add the new version's files:

    PYTHONPATH=src python tests/fixtures/documents/make_documents.py
"""

import os
import tempfile

from repro.core.config import SMTConfig, scheme
from repro.core.histograms import MetricsCollector
from repro.core.simulator import Simulator
from repro.core.telemetry import TelemetrySampler
from repro.experiments import export
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import RunBudget, run_configs
from repro.multicore.driver import (
    ArrivalConfig,
    MulticoreRunSpec,
    OpenSystemDriver,
)
from repro.sched.campaign import (
    CampaignConfig,
    campaign_report,
    status_document,
    submit_specs,
)
from repro.sched.state import load_state
from repro.sched.worker import Worker
from repro.service.server import COUNTER_NAMES
from repro.verify.fuzz import corpus_document, generate_case
from repro.verify.sanitizer import InvariantViolation
from repro.workloads.mixes import standard_mix

HERE = os.path.dirname(os.path.abspath(__file__))
TINY = RunBudget(warmup_cycles=100, measure_cycles=300,
                 functional_warmup_instructions=1000, rotations=1)


def _run_document():
    sim = Simulator(scheme("ICOUNT", 2, 8, n_threads=2), standard_mix(2, 0))
    metrics = MetricsCollector(sim)
    telemetry = TelemetrySampler(sim, interval=100)
    sim.run(warmup_cycles=100, measure_cycles=300,
            functional_warmup_instructions=1000)
    telemetry.finish()
    return export.run_document(sim.result(), telemetry=telemetry,
                               metrics=metrics,
                               policy=sim.policy_engine.telemetry())


def _experiment_document():
    points = run_configs(
        [("ICOUNT.2.8", scheme("ICOUNT", 2, 8, n_threads=n))
         for n in (1, 2)],
        budget=TINY, jobs=1, use_cache=False,
    )
    return export.experiment_document("fig3", points)


def _multicore_run(allocator):
    spec = MulticoreRunSpec(
        n_cores=2, allocator=allocator, config=SMTConfig(n_threads=2),
        quantum=150, max_cycles=10_000, seed=2,
        arrival=ArrivalConfig(jobs=3, rate_per_kcycle=2.0,
                              service_instructions=150, seed=2),
    )
    return spec, OpenSystemDriver(spec).run()


def _multicore_experiment_document():
    cells = []
    for allocator in ("LOAD", "PAIRING"):
        cell = _multicore_run(allocator)[1].to_dict()
        cell["load"] = "moderate"
        cells.append(cell)
    return export.multicore_experiment_document("allocation", cells)


def _campaign_documents():
    """The fabric report and the status of one drained tiny campaign."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "golden")
        store = ResultCache(os.path.join(scratch, "cache"))
        submit_specs(directory, [RunSpec(config=SMTConfig(n_threads=1),
                                         rotation=0, budget=TINY)],
                     CampaignConfig(name="golden"))
        Worker(directory, cache=store, worker_id="w0").serve(drain=True)
        return (campaign_report(directory, cache=store),
                status_document(load_state(directory)))


def _service_stats_document():
    counters = {name: 0 for name in COUNTER_NAMES}
    counters.update(connections_total=3, frames=3, submits=1,
                    submitted_tasks=1, status_served=2)
    return export.service_stats_document(
        server={"directory": "golden", "endpoints": [["unix", "serve.sock"]],
                "protocol_version": 1, "pid": 1, "draining": False,
                "uptime": 1.5},
        counters=dict(counters, followers_active=0, follower_lag_bytes=0),
    )


def _violation_document():
    violation = InvariantViolation(
        "iq-overflow", "queue holds 40 entries", 321, tid=1,
        details={"occupancy": 40, "capacity": 32},
    )
    return export.violation_document(
        violation, case=generate_case(3, max_cycles=500).to_dict(),
        context="fuzz seed 3")


def build_documents():
    """One current document per registered schema."""
    fabric, status = _campaign_documents()
    spec, result = _multicore_run("PAIRING")
    documents = [
        _run_document(),
        _experiment_document(),
        _violation_document(),
        export.multicore_document(result, spec=spec),
        _multicore_experiment_document(),
        fabric,
        status,
        _service_stats_document(),
        corpus_document(generate_case(3, max_cycles=500),
                        note="golden fixture"),
    ]
    assert sorted(d["schema"] for d in documents) == \
        sorted(export.SCHEMA_SINCE)
    return documents


def main():
    written = 0
    for document in build_documents():
        schema = document["schema"]
        for version in sorted({export.SCHEMA_SINCE[schema],
                               export.SCHEMA_VERSION}):
            path = os.path.join(HERE, f"{schema}.v{version}.json")
            if os.path.exists(path):
                continue
            export.write(path, dict(document, schema_version=version))
            print(f"wrote {os.path.relpath(path)}")
            written += 1
    print(f"{written} new fixture(s)")


if __name__ == "__main__":
    main()
