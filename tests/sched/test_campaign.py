"""Campaign client operations and the fabric execution path."""

import dataclasses
import json
import os

import pytest

from repro.experiments import export, parallel
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import execute_runs, run_spec
from repro.sched import fabric
from repro.sched.campaign import (
    CampaignConfig,
    campaign_report,
    collect_results,
    report_results,
    report_rows,
    spec_from_payload,
    submit_specs,
)
from repro.sched.journal import read_records
from repro.sched.state import load_state
from repro.sched.worker import Worker
from repro.verify.chaos import corrupt_cache_entry

from tests.sched.conftest import tiny_spec


def drained_campaign(tmp_path, specs, run_fn, **knobs):
    directory = str(tmp_path / "campaign")
    knobs.setdefault("backoff", 0.0)
    submit_specs(directory, specs, CampaignConfig(**knobs))
    worker = Worker(directory, run_fn=run_fn, heartbeats=False)
    worker.serve(drain=True, install_signals=False)
    return directory, worker.cache


class TestSubmission:
    def test_submit_is_idempotent_per_key(self, tmp_path, tiny_specs):
        directory = str(tmp_path)
        assert submit_specs(directory, tiny_specs) == len(tiny_specs)
        assert submit_specs(directory, tiny_specs) == 0
        assert submit_specs(directory,
                            tiny_specs + [tiny_spec(rotation=9)]) == 1
        assert len(load_state(directory).tasks) == len(tiny_specs) + 1

    def test_first_submit_persists_config(self, tmp_path, tiny_specs):
        directory = str(tmp_path)
        config = CampaignConfig(name="exp", lease_ttl=5.0, max_attempts=7,
                                poison_threshold=2, backoff=1.5)
        submit_specs(directory, tiny_specs, config)
        # A later submit with different knobs must not rewrite them.
        submit_specs(directory, [tiny_spec(rotation=9)],
                     CampaignConfig(name="other", lease_ttl=999.0))
        state = load_state(directory)
        assert CampaignConfig.from_state(state) == config

    def test_config_round_trip_through_journal(self, tmp_path, tiny_specs):
        config = CampaignConfig(name="rt", lease_ttl=3.25, max_attempts=9,
                                poison_threshold=4, backoff=0.125)
        directory = str(tmp_path)
        submit_specs(directory, tiny_specs, config)
        assert CampaignConfig.from_state(load_state(directory)) == config

    def test_spec_payload_round_trip(self, tiny_specs):
        for spec in tiny_specs:
            restored = spec_from_payload(
                json.loads(json.dumps(spec.to_payload())))
            assert restored.key() == spec.key()
            assert restored.budget == spec.budget
            assert dataclasses.asdict(restored.config) == \
                dataclasses.asdict(spec.config)

    def test_run_payload_keeps_its_six_fields_and_names_no_kind(
            self, tmp_path, tiny_specs):
        # Journals written before job kinds existed hold exactly these
        # fields; a payload without a kind is a run.
        spec = tiny_specs[0]
        assert set(spec.to_payload()) == {
            "config", "rotation", "budget", "seed", "dcache_mshrs",
            "check_invariants"}
        submit_specs(str(tmp_path), [spec])
        assert load_state(str(tmp_path)).tasks[spec.key()].kind == "run"

    def test_label_names_scheme_threads_rotation(self):
        spec = tiny_spec(rotation=2)
        label = spec.label()
        assert "/T1/rot2" in label
        assert spec.config.scheme_name in label


class TestConfigValidation:
    @pytest.mark.parametrize("knobs", [
        {"lease_ttl": "soon"}, {"lease_ttl": 0}, {"lease_ttl": True},
        {"backoff": -1.0}, {"backoff": "fast"},
        {"max_attempts": -3}, {"max_attempts": 0}, {"max_attempts": 2.5},
        {"poison_threshold": 0}, {"poison_threshold": "3"},
        {"timeout": 0}, {"timeout": -5.0}, {"timeout": "1m"},
    ])
    def test_bad_values_rejected(self, knobs):
        with pytest.raises(ValueError, match=next(iter(knobs))):
            CampaignConfig(**knobs)

    def test_good_values_accepted(self):
        config = CampaignConfig(lease_ttl=1, backoff=0, max_attempts=1,
                                poison_threshold=1, timeout=0.5)
        assert config.timeout == 0.5
        assert CampaignConfig().timeout is None


class TestResultCollection:
    def test_collect_results_in_submit_order(self, tmp_path, tiny_specs,
                                             stub_run_fn, tiny_results):
        directory, cache = drained_campaign(tmp_path, tiny_specs,
                                            stub_run_fn)
        results = collect_results(load_state(directory), cache)
        assert [r.ipc for r in results] == \
            [tiny_results[s.key()].ipc for s in tiny_specs]

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path, tiny_specs,
                                               stub_run_fn):
        directory, cache = drained_campaign(tmp_path, tiny_specs,
                                            stub_run_fn)
        corrupted = corrupt_cache_entry(cache.directory, 1)
        assert corrupted in {spec.key() for spec in tiny_specs}
        reruns = []

        def rerun(spec):
            reruns.append(spec.key())
            return stub_run_fn(spec)

        results = collect_results(load_state(directory), cache,
                                  run_fn=rerun)
        assert all(r is not None for r in results)
        assert len(reruns) == 1
        # ... and the store was healed in passing.
        assert collect_results(load_state(directory), cache,
                               rerun_missing=False).count(None) == 0

    def test_missing_entry_without_rerun_is_none(self, tmp_path, tiny_specs,
                                                 stub_run_fn):
        directory, cache = drained_campaign(tmp_path, tiny_specs,
                                            stub_run_fn)
        corrupt_cache_entry(cache.directory, 0)
        results = collect_results(load_state(directory), cache,
                                  rerun_missing=False)
        assert results.count(None) == 1


class TestReport:
    def test_report_rows_carry_no_operational_noise(self, tmp_path,
                                                    tiny_specs,
                                                    stub_run_fn):
        directory, cache = drained_campaign(tmp_path, tiny_specs,
                                            stub_run_fn)
        state = load_state(directory)
        rows = report_rows(state, collect_results(state, cache))
        for row in rows:
            assert set(row) == {"key", "label", "state", "failure_kind",
                                "result"}
            assert row["state"] == "done"
            assert row["failure_kind"] is None

    def test_report_results_inverts_rows(self, tmp_path, tiny_specs,
                                         stub_run_fn, tiny_results):
        directory, cache = drained_campaign(tmp_path, tiny_specs,
                                            stub_run_fn)
        state = load_state(directory)
        rows = report_rows(state, collect_results(state, cache))
        restored = report_results(rows)
        assert [r.ipc for r in restored] == \
            [tiny_results[s.key()].ipc for s in tiny_specs]

    def test_failed_task_reports_kind_and_null_result(self, tmp_path,
                                                      tiny_specs):
        def broken(spec):
            raise RuntimeError("nope")

        directory, cache = drained_campaign(tmp_path, tiny_specs[:1],
                                            broken, max_attempts=1)
        state = load_state(directory)
        rows = report_rows(state, collect_results(state, cache,
                                                  rerun_missing=False))
        assert rows[0]["state"] == "failed"
        assert rows[0]["failure_kind"] == "crash"
        assert rows[0]["result"] is None

    def test_fabric_document_round_trip(self, tmp_path, tiny_specs,
                                        stub_run_fn):
        directory, cache = drained_campaign(tmp_path, tiny_specs,
                                            stub_run_fn)
        document = campaign_report(directory, cache=cache)
        assert document["schema"] == export.FABRIC_SCHEMA
        assert document["counts"] == {"done": len(tiny_specs)}
        path = str(tmp_path / "report.json")
        export.write(path, document)
        loaded = export.load(path, export.FABRIC_SCHEMA)
        assert export.fabric_report_bytes(loaded) == \
            export.fabric_report_bytes(document)

    def test_load_report_rejects_wrong_schema(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": "repro.run",
                       "schema_version": export.SCHEMA_VERSION}, fh)
        with pytest.raises(ValueError):
            export.load(path, export.FABRIC_SCHEMA)


class TestFabricExecution:
    @pytest.fixture(autouse=True)
    def reset_fabric(self):
        yield
        parallel.configure(fabric_dir=None)

    @staticmethod
    def durable_runs(specs, directory):
        parallel.configure(fabric_dir=directory)
        return execute_runs(specs, jobs=1, use_cache=False)

    def test_fabric_matches_engine_results(self, tmp_path, tiny_specs,
                                           stub_run_fn, tiny_results,
                                           monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel.run_spec_fast",
                            stub_run_fn)
        results = self.durable_runs(tiny_specs, str(tmp_path / "fab"))
        assert [r.ipc for r in results] == \
            [tiny_results[s.key()].ipc for s in tiny_specs]

    def test_fabric_serves_duplicate_specs(self, tmp_path, tiny_specs,
                                           stub_run_fn, monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel.run_spec_fast",
                            stub_run_fn)
        batch = list(tiny_specs) + [tiny_specs[0]]
        results = self.durable_runs(batch, str(tmp_path / "fab"))
        assert len(results) == len(batch)
        assert results[0].ipc == results[-1].ipc
        # One campaign task per distinct key, not per batch slot.
        assert len(load_state(str(tmp_path / "fab")).tasks) == \
            len(tiny_specs)

    def test_execute_runs_delegates_when_fabric_configured(
            self, tmp_path, tiny_specs, monkeypatch):
        """With a ``fabric_dir`` the front half hands the misses to the
        fabric's drain, with that directory."""
        directory = str(tmp_path / "fab")
        drained = []

        def fake_drain(where, misses, cache, jobs, finished):
            drained.append(where)
            for j, spec in enumerate(misses):
                finished(j, spec.key())

        monkeypatch.setattr(fabric, "drain_misses", fake_drain)
        parallel.configure(fabric_dir=directory)
        assert execute_runs(tiny_specs, use_cache=False) == \
            [spec.key() for spec in tiny_specs]
        assert drained == [directory]

    def test_resumed_campaign_skips_completed_work(self, tmp_path,
                                                   tiny_specs,
                                                   stub_run_fn,
                                                   monkeypatch):
        directory = str(tmp_path / "fab")
        monkeypatch.setattr("repro.experiments.parallel.run_spec_fast",
                            stub_run_fn)
        first = self.durable_runs(tiny_specs, directory)
        second = self.durable_runs(tiny_specs, directory)
        leases = [record for record in read_records(directory)
                  if record.get("event") == "lease"]
        assert len(leases) == len(tiny_specs)  # resume recomputed nothing
        assert [r.ipc for r in first] == [r.ipc for r in second]
