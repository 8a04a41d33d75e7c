"""Multicore cells as engine jobs: the payload codec the campaign
journal stores, and durable mode (journal, resume, failed cells)
reaching the allocation study."""

import json
import os

import pytest

from repro.core.config import SMTConfig
from repro.experiments import export, parallel
from repro.experiments.allocation import allocation_study
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import RunBudget
from repro.multicore.driver import (
    ArrivalConfig,
    JobSpec,
    MulticoreResult,
    MulticoreRunSpec,
)
from repro.sched.campaign import (
    campaign_report,
    default_result_store,
    report_results,
    spec_from_payload,
)
from repro.sched.journal import read_records
from repro.workloads import mixes

TINY = RunBudget(warmup_cycles=100, measure_cycles=400,
                 functional_warmup_instructions=2000, rotations=1)

#: A two-cell grid: one core, one load, two allocators.
GRID = dict(allocators=("LOAD", "PAIRING"), core_counts=(1,),
            loads=(("moderate", 1.0),))


def arrival_spec():
    return MulticoreRunSpec(
        n_cores=2, allocator="PAIRING:miss_weight=2.0",
        config=SMTConfig(n_threads=2), quantum=150, max_cycles=20_000,
        seed=3, check_invariants=True,
        arrival=ArrivalConfig(jobs=5, rate_per_kcycle=2.0,
                              service_instructions=250, seed=3,
                              profiles=("espresso", "tomcatv")),
    )


def trace_spec():
    return MulticoreRunSpec(
        n_cores=1, allocator="LOAD", config=SMTConfig(n_threads=2),
        trace=(JobSpec(job_id=0, arrival_cycle=0, profile="xlisp",
                       service_instructions=100),
               JobSpec(job_id=1, arrival_cycle=50, profile="tex",
                       service_instructions=120, workload_seed=4)),
    )


@pytest.mark.parametrize("make", [arrival_spec, trace_spec],
                         ids=["arrival-with-profiles", "trace"])
def test_payload_json_round_trip_keeps_key(make):
    spec = make()
    payload = json.loads(json.dumps(spec.to_payload()))
    assert payload["kind"] == "multicore"
    restored = spec_from_payload(payload)
    assert restored.key() == spec.key()
    assert restored == spec


def test_unknown_kind_is_rejected():
    payload = dict(trace_spec().to_payload(), kind="bogus")
    with pytest.raises(ValueError, match="bogus"):
        spec_from_payload(payload)


@pytest.fixture
def durable(tmp_path):
    """The fabric on, caching off, one forked worker; reset afterwards."""
    directory = str(tmp_path / "campaign")
    parallel.configure(jobs=1, use_cache=False, fabric_dir=directory)
    try:
        yield directory
    finally:
        parallel.configure(jobs=None, use_cache=None, fabric_dir=None,
                           timeout=None, max_attempts=None)


def events(directory, event):
    return [r for r in read_records(directory) if r.get("event") == event]


def test_durable_allocation_study_journals_cells_and_resumes(durable):
    documents = allocation_study(TINY, **GRID)
    assert len(events(durable, "done")) == 2
    assert len(events(durable, "lease")) == 2

    again = allocation_study(TINY, **GRID)
    assert len(events(durable, "lease")) == 2   # the rerun claimed nothing
    assert again == documents
    assert [d["allocator"] for d in documents] == ["LOAD", "PAIRING"]


def test_multicore_report_round_trips(durable, tmp_path):
    documents = allocation_study(TINY, **GRID)
    path = str(tmp_path / "report.json")
    export.write(path, campaign_report(
        durable, cache=default_result_store(durable)))
    rows = export.load(path, export.FABRIC_SCHEMA)["tasks"]
    assert [row["kind"] for row in rows] == ["multicore"] * 2
    results = report_results(rows)
    assert all(isinstance(r, MulticoreResult) for r in results)
    assert [dict(r.to_dict(), load="moderate") for r in results] \
        == documents


def test_failed_cell_is_left_out_and_counted(durable, monkeypatch):
    parallel.configure(max_attempts=1)
    real_run = MulticoreRunSpec.run

    def broken(spec):
        if spec.allocator == "PAIRING":
            raise RuntimeError("injected cell crash")
        return real_run(spec)

    monkeypatch.setattr(MulticoreRunSpec, "run", broken)
    documents = allocation_study(TINY, **GRID)
    assert [d["allocator"] for d in documents] == ["LOAD"]
    report = campaign_report(durable, cache=default_result_store(durable))
    assert report["counts"] == {"done": 1, "failed": 1}
    failed = [row for row in report["tasks"] if row["state"] == "failed"]
    assert failed[0]["label"].startswith("PAIRING/")
    assert failed[0]["failure_kind"] == "crash"


def test_timeout_drain_builds_programs_before_the_fork(durable, monkeypatch):
    """A timed ``jobs=1`` drain forks its worker, as every drain does.
    The drain parent builds the tasks' programs first, so the worker
    inherits them and generates none."""
    parallel.configure(timeout=60, max_attempts=1)
    drain_pid = os.getpid()
    generate = mixes.generate_program

    def generate_before_fork(*args, **kwargs):
        if os.getpid() != drain_pid:
            raise RuntimeError("a program was generated after the fork")
        return generate(*args, **kwargs)

    monkeypatch.setattr(mixes, "_PROGRAM_CACHE", {})
    monkeypatch.setattr(mixes, "generate_program", generate_before_fork)
    run = RunSpec(config=SMTConfig(n_threads=2), rotation=3, budget=TINY)
    results = parallel.execute_runs([run, trace_spec()])
    assert [type(r).__name__ for r in results] \
        == ["SimResult", "MulticoreResult"]
    assert len(events(durable, "done")) == 2
