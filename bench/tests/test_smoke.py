"""Every workload end to end at its smoke size, traced and untraced."""

import json
import os
import subprocess
import sys

from bench import catalog

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_smoke_run_is_correct_and_reports_every_metric(tmp_path):
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--reps", "1", "--trace",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0

    benchmark = catalog.load_benchmark()
    document = json.loads(out.read_text())
    assert set(document["host"]) >= {"nproc", "python", "platform"}
    for workload in (w["name"] for w in benchmark["workloads"]):
        result = document["workloads"][workload]
        assert result["failed"] == 0 and not result["problems"]
        assert result["end_to_end"]["error_rate"]["median"] == 0
        for metric in benchmark["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["median"] > 0
        for metric in benchmark["per_layer"]:
            assert result["per_layer"][metric["name"]]["value"] is not None
            assert f"{workload}/{metric['name']}" in last["metrics"]
        with open(os.path.join(ROOT, "bench", "out",
                               f"{workload}.trace.json")) as handle:
            events = json.load(handle)["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
    status = document["workloads"]["serve-campaign"]["per_layer"]
    assert status["status_p50_ms"]["value"] > 0
    assert status["status_p95_ms"]["beyond"] >= 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "bench")):
        if name.endswith(".py") or name.endswith(".json"):
            (bench / name).write_bytes(
                open(os.path.join(ROOT, "bench", name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig3-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
