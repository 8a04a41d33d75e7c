"""Tests for result export and text charts."""

import json
import os
import tempfile

import pytest

from repro.core.simulator import SimResult, CacheStats
from repro.experiments import export
from repro.experiments.export import ascii_chart, csv_text, to_rows
from repro.experiments.runner import ExperimentPoint


def fake_point(label, threads, ipc):
    cache = CacheStats(accesses=100, misses=10, miss_rate=0.1, mpki=5.0)
    result = SimResult(
        config_name=label, n_threads=threads, cycles=1000,
        committed=int(ipc * 1000), ipc=ipc,
        useful_fetch_per_cycle=ipc, fetch_per_cycle=ipc * 1.1,
        wrong_path_fetched_frac=0.1, wrong_path_issued_frac=0.05,
        squashed_optimistic_frac=0.02, int_iq_full_frac=0.2,
        fp_iq_full_frac=0.0, avg_queue_population=25.0,
        out_of_registers_frac=0.03, branch_mispredict_rate=0.08,
        jump_mispredict_rate=0.1, icache=cache, dcache=cache,
        l2=cache, l3=cache,
    )
    return ExperimentPoint(label=label, n_threads=threads, ipc=ipc,
                           results=[result])


@pytest.fixture
def data():
    return {
        "RR.1.8": [fake_point("RR.1.8", 1, 2.0), fake_point("RR.1.8", 8, 3.5)],
        "ICOUNT.2.8": [fake_point("ICOUNT.2.8", 1, 2.0),
                       fake_point("ICOUNT.2.8", 8, 5.2)],
    }


class TestRows:
    def test_one_row_per_point(self, data):
        rows = to_rows(data)
        assert len(rows) == 4

    def test_row_contents(self, data):
        rows = to_rows(data)
        row = next(r for r in rows if r["line"] == "ICOUNT.2.8"
                   and r["threads"] == 8)
        assert row["ipc"] == 5.2
        assert row["dcache_miss_rate"] == 0.1


class TestCsvJson:
    def test_csv_text(self, data):
        text = csv_text(to_rows(data))
        assert text.splitlines()[0].startswith("line,threads,ipc")
        assert len(text.splitlines()) == 5

    def test_write_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data"):
            csv_text([])
        # The export checks the rows before it writes either file.
        with pytest.raises(ValueError, match="no data"):
            export.export_experiment(
                export.experiment_document("fig3", {}), str(tmp_path))
        assert os.listdir(tmp_path) == []


class TestAsciiChart:
    def test_chart_contains_markers_and_legend(self, data):
        chart = ascii_chart(data, title="IPC vs threads")
        assert "IPC vs threads" in chart
        assert "A = RR.1.8" in chart
        assert "B = ICOUNT.2.8" in chart
        assert "(threads)" in chart

    def test_higher_series_plots_higher(self, data):
        chart = ascii_chart(data)
        lines = chart.splitlines()
        # B's 8-thread point (5.2, the peak) should appear above A's 3.5.
        b_rows = [i for i, l in enumerate(lines) if "B" in l and "|" in l]
        a_rows = [i for i, l in enumerate(lines) if "A" in l and "|" in l]
        assert min(b_rows) < min(a_rows)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart({})


class TestRunDocument:
    def _small_run(self):
        from repro.core.config import scheme
        from repro.core.histograms import MetricsCollector
        from repro.core.simulator import Simulator
        from repro.core.telemetry import TelemetrySampler
        from repro.workloads.mixes import standard_mix

        sim = Simulator(scheme("ICOUNT", 2, 8, n_threads=2),
                        standard_mix(2, 0))
        metrics = MetricsCollector(sim)
        telemetry = TelemetrySampler(sim, interval=100)
        sim.run(warmup_cycles=200, measure_cycles=600,
                functional_warmup_instructions=2000)
        telemetry.finish()
        return sim.result(), telemetry, metrics

    def test_round_trip(self, tmp_path):
        result, telemetry, metrics = self._small_run()
        path = os.path.join(tmp_path, "run.json")
        written = export.run_document(
            result, telemetry=telemetry, metrics=metrics)
        export.write(path, written)
        loaded = export.load(path, export.RUN_SCHEMA)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["schema"] == export.RUN_SCHEMA
        assert loaded["schema_version"] == export.SCHEMA_VERSION
        assert loaded["result"]["ipc"] == pytest.approx(result.ipc)
        assert loaded["result"]["fetch_active_frac"] > 0
        assert loaded["result"]["icache_miss_stall_events"] > 0
        assert loaded["telemetry"]["interval"] == 100
        assert len(loaded["telemetry"]["samples"]) == len(telemetry.samples)
        assert any("issue" in name
                   for name in loaded["metrics"]["histograms"])

    def test_telemetry_and_metrics_optional(self, tmp_path):
        result, _, _ = self._small_run()
        path = os.path.join(tmp_path, "bare.json")
        export.write(path, export.run_document(result))
        loaded = export.load(path, export.RUN_SCHEMA)
        assert "telemetry" not in loaded and "metrics" not in loaded
        assert "policy" not in loaded

    def test_policy_section_round_trips(self, tmp_path):
        """Schema v2: adaptive runs export choice counts and switches."""
        from repro.core.config import scheme
        from repro.core.simulator import Simulator
        from repro.workloads.mixes import standard_mix

        sim = Simulator(
            scheme("BANDIT:interval=100", 2, 8, n_threads=2),
            standard_mix(2, 0),
        )
        sim.run(warmup_cycles=200, measure_cycles=600,
                functional_warmup_instructions=2000)
        path = os.path.join(tmp_path, "adaptive.json")
        export.write(path, export.run_document(
            sim.result(), policy=sim.policy_engine.telemetry()))
        loaded = export.load(path, export.RUN_SCHEMA)
        policy = loaded["policy"]
        assert policy["adaptive"] is True
        assert policy["spec"] == "BANDIT:interval=100"
        assert sum(policy["choice_counts"].values()) == policy["intervals"]
        assert len(policy["switch_events"]) <= policy["switch_count"]

    def test_wrong_schema_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as f:
            json.dump({"schema": "repro.experiment", "schema_version": 1}, f)
        with pytest.raises(ValueError, match="expected schema"):
            export.load(path, export.RUN_SCHEMA)

    def test_wrong_version_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "old.json")
        with open(path, "w") as f:
            json.dump({"schema": "repro.run", "schema_version": 99}, f)
        with pytest.raises(ValueError, match="version"):
            export.load(path, export.RUN_SCHEMA)

    def test_non_object_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "list.json")
        with open(path, "w") as f:
            json.dump([1, 2, 3], f)
        with pytest.raises(ValueError, match="JSON object"):
            export.load(path, export.RUN_SCHEMA)
        with pytest.raises(ValueError, match="JSON object"):
            export.load(path)


class TestViolationDocument:
    def _violation(self):
        from repro.verify.sanitizer import InvariantViolation
        return InvariantViolation(
            "iq-overflow", "queue holds 40 entries", 321, tid=1,
            details={"occupancy": 40, "capacity": 32},
        )

    def test_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "violation.json")
        case = {"seed": 17, "n_threads": 4}
        written = export.violation_document(
            self._violation(), case=case, context="fuzz seed 17")
        export.write(path, written)
        loaded = export.load(path, export.VIOLATION_SCHEMA)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["schema"] == export.VIOLATION_SCHEMA
        assert loaded["schema_version"] == export.SCHEMA_VERSION
        assert loaded["violation"]["invariant"] == "iq-overflow"
        assert loaded["violation"]["cycle"] == 321
        assert loaded["case"] == case
        assert loaded["context"] == "fuzz seed 17"

    def test_accepts_prebuilt_dict(self):
        document = export.violation_document(self._violation().to_dict())
        assert document["violation"]["invariant"] == "iq-overflow"

    def test_wrong_schema_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as f:
            json.dump({"schema": "repro.run", "schema_version": 1}, f)
        with pytest.raises(ValueError, match="expected schema"):
            export.load(path, export.VIOLATION_SCHEMA)


class TestExperimentDocument:
    def test_export_and_load(self, data, tmp_path):
        paths = export.export_experiment(
            export.experiment_document("fig3", data), str(tmp_path))
        assert paths == [os.path.join(tmp_path, "fig3.json"),
                         os.path.join(tmp_path, "fig3.csv")]
        loaded = export.load(paths[0], export.EXPERIMENT_SCHEMA)
        assert loaded["schema"] == export.EXPERIMENT_SCHEMA
        assert loaded["experiment"] == "fig3"
        assert len(loaded["rows"]) == 4
        assert {"fetch_active_frac", "icache_miss_stall_events"} <= set(
            loaded["rows"][0])
        with open(paths[1]) as f:
            assert len(f.readlines()) == 5

    def test_run_artifact_rejected_by_experiment_loader(self, tmp_path):
        path = os.path.join(tmp_path, "run.json")
        with open(path, "w") as f:
            json.dump({"schema": "repro.run", "schema_version": 1}, f)
        with pytest.raises(ValueError, match="expected schema"):
            export.load(path, export.EXPERIMENT_SCHEMA)


class TestAsFigureData:
    def test_dict_of_lists_passes_through(self, data):
        normalised = export.as_figure_data(data)
        assert normalised == data

    def test_bare_list_grouped_by_label(self):
        points = [fake_point("A", 1, 1.0), fake_point("A", 2, 2.0),
                  fake_point("B", 1, 1.5)]
        normalised = export.as_figure_data(points)
        assert sorted(normalised) == ["A", "B"]
        assert len(normalised["A"]) == 2

    def test_dict_of_points_keyed_by_label(self):
        table = {1: fake_point("ICOUNT.2.8", 1, 1.0),
                 8: fake_point("ICOUNT.2.8", 8, 5.0)}
        normalised = export.as_figure_data(table)
        assert list(normalised) == ["ICOUNT.2.8"]
        assert len(normalised["ICOUNT.2.8"]) == 2

    def test_unknown_shape_rejected(self):
        with pytest.raises(TypeError):
            export.as_figure_data(42)


class TestServiceDocuments:
    def _status(self):
        tasks = [
            {"key": "a" * 8, "status": "done", "terminal": True},
            {"key": "b" * 8, "status": "pending", "terminal": False},
        ]
        return export.service_status_document(
            "svc", {"done": 1, "pending": 1}, tasks,
            workers={"w0": "alive"})

    def test_status_document_shape(self):
        document = self._status()
        assert document["schema"] == export.SERVICE_STATUS_SCHEMA
        assert document["schema_version"] == export.SCHEMA_VERSION
        assert document["name"] == "svc"
        assert document["all_terminal"] is False
        assert document["counts"] == {"done": 1, "pending": 1}
        assert document["workers"] == {"w0": "alive"}

    def test_all_terminal_requires_tasks(self):
        empty = export.service_status_document("svc", {}, [])
        assert empty["all_terminal"] is False
        done = export.service_status_document(
            "svc", {"done": 1},
            [{"key": "a", "status": "done", "terminal": True}])
        assert done["all_terminal"] is True

    def test_status_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "status.json")
        with open(path, "w") as f:
            json.dump(self._status(), f)
        assert export.load(path, export.SERVICE_STATUS_SCHEMA) == \
            self._status()

    def test_stats_round_trip_and_wrong_schema(self, tmp_path):
        document = export.service_stats_document(
            {"directory": "/camp", "draining": False},
            {"submits": 2, "busy_rejects": 0})
        assert document["schema"] == export.SERVICE_STATS_SCHEMA
        assert document["counters"] == {"busy_rejects": 0, "submits": 2}
        path = os.path.join(tmp_path, "stats.json")
        with open(path, "w") as f:
            json.dump(document, f)
        assert export.load(path, export.SERVICE_STATS_SCHEMA) == document
        with pytest.raises(ValueError, match="expected schema"):
            export.load(path, export.SERVICE_STATUS_SCHEMA)


class TestSchemaVersions:
    # Each kind with the version its current layout dates from, pinned
    # by hand: moving an entry of ``export.SCHEMA_SINCE`` must fail here.
    KINDS = {
        export.RUN_SCHEMA: 2,
        export.EXPERIMENT_SCHEMA: 1,
        export.VIOLATION_SCHEMA: 1,
        export.MULTICORE_SCHEMA: 3,
        export.MULTICORE_EXPERIMENT_SCHEMA: 3,
        export.FABRIC_SCHEMA: 4,
        export.SERVICE_STATUS_SCHEMA: 5,
        export.SERVICE_STATS_SCHEMA: 5,
        export.FUZZ_CASE_SCHEMA: 1,
    }

    def test_table_matches_export(self):
        assert export.SCHEMA_SINCE == self.KINDS

    def _write(self, tmp_path, schema, version):
        path = os.path.join(tmp_path, "doc.json")
        with open(path, "w") as f:
            json.dump({"schema": schema, "schema_version": version}, f)
        return path

    @pytest.mark.parametrize("schema", sorted(KINDS))
    def test_loads_every_version_since_its_layout(self, schema, tmp_path):
        # A bump for one kind must not strand older artifacts of others.
        for version in range(self.KINDS[schema], export.SCHEMA_VERSION + 1):
            path = self._write(tmp_path, schema, version)
            assert export.load(path, schema)["schema_version"] == version
            assert export.load(path)["schema"] == schema

    @pytest.mark.parametrize("schema", sorted(KINDS))
    def test_versions_outside_its_range_rejected(self, schema, tmp_path):
        since = self.KINDS[schema]
        for version in (since - 1, export.SCHEMA_VERSION + 1, True,
                        str(export.SCHEMA_VERSION), None):
            path = self._write(tmp_path, schema, version)
            with pytest.raises(ValueError, match="schema version"):
                export.load(path, schema)
            with pytest.raises(ValueError, match="schema version"):
                export.load(path)

    def test_unregistered_schema_rejected_naming_what_was_found(
            self, tmp_path):
        path = self._write(tmp_path, "repro.campaign", 5)
        with pytest.raises(ValueError, match="expected schema one of .*"
                                             "got 'repro.campaign'"):
            export.load(path)
        with pytest.raises(ValueError, match="expected schema"):
            export.write(path, {"schema": "repro.campaign",
                                "schema_version": 5})

    def test_write_sorts_keys_and_ends_with_newline(self, tmp_path):
        path = os.path.join(tmp_path, "stats.json")
        document = export.service_stats_document({"b": 1, "a": 2}, {})
        export.write(path, document)
        with open(path) as f:
            text = f.read()
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
