"""The tracer: span nesting, flushing, layer metrics and installation."""

import json
import os
import subprocess
import sys

from bench import trace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_wrapped_calls_nest_and_flush(tmp_path):
    tracer = trace.Tracer(str(tmp_path), "rep-1")

    inner = tracer.wrap("journal.append", lambda x: x * 2)
    outer = tracer.wrap("worker.finish", lambda task: inner(3),
                        trace=lambda args: args[0].key)

    class Task:
        key = "task-key"

    assert outer(Task()) == 6
    assert inner(1) == 2
    tracer.enabled = False
    assert inner(5) == 10          # disabled: nothing recorded
    tracer.flush()
    spans = trace.load_spans(str(tmp_path))
    assert [s["name"] for s in spans] == [
        "journal.append", "worker.finish", "journal.append"]
    child, parent, alone = spans
    assert child["parent"] == parent["id"] and parent["parent"] is None
    assert child["trace"] == parent["trace"] == "task-key"
    assert alone["trace"] == "rep-1" and alone["parent"] is None
    assert all(s["end"] >= s["start"] for s in spans)


def test_failed_call_is_recorded_and_reraised(tmp_path):
    tracer = trace.Tracer(str(tmp_path), "rep")

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("cache.get", boom)
    try:
        wrapped()
    except KeyError:
        pass
    else:
        raise AssertionError("exception swallowed")
    tracer.flush()
    (span,) = trace.load_spans(str(tmp_path))
    assert span["attrs"] == {"error": True}


def _span(sid, name, start, end, parent=None, pid=1, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "pid": pid, "tid": 1, "trace": "t",
            "attrs": attrs}


def test_layer_metrics_from_spans():
    spans = [
        _span("1", "worker.serve", 0.0, 10.0, pid=2),
        _span("2", "worker.claim", 1.0, 2.0, "1", pid=2),
        _span("3", "journal.replay", 1.2, 1.8, "2", pid=2),
        _span("4", "journal.read", 1.2, 1.5, "3", pid=2, records=300),
        _span("5", "worker.execute", 2.0, 8.0, "1", pid=2),
        _span("6", "core.run_cycles", 2.5, 7.5, "5", pid=2, n=1000),
        _span("7", "service.status", 3.0, 3.01),
    ]
    m = trace.layer_metrics(spans, (0.0, 20.0), main_pid=1)
    assert m["worker.claim_ms"] == (1000.0, 1)
    assert m["worker.claim_frac"][0] == 0.1
    assert m["journal.records"] == (300, 1)
    assert abs(m["journal.replay_us_per_record"][0] - 2000.0) < 1e-6
    assert abs(m["core.host_us_per_cycle"][0] - 5000.0) < 1e-6
    assert m["multicore.tick_ms"] == (None, 0)          # never called
    assert m["worker.idle_s"][0] == 3.0                 # 10 - 1 - 6
    assert abs(m["bench.unattributed_frac"][0] - 0.5) < 1e-9
    shares = [v for k, (v, _) in m.items() if k.startswith("layer.")]
    assert abs(sum(shares) - 1.0) < 1e-9


def test_chrome_trace_shape(tmp_path):
    path = tmp_path / "t.json"
    spans = [_span("1", "pool.batch", 1.0, 2.0),
             _span("2", "pool.run", 1.1, 1.9, "1", pid=9)]
    trace.write_chrome_trace(str(path), spans, origin=1.0, main_pid=1)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["pool.batch", "pool.run"]
    assert complete[1]["args"]["parent"] == "1"
    assert complete[0]["ts"] == 0 and complete[0]["dur"] == 1e6
    assert {e["pid"] for e in events if e["ph"] == "M"} == {1, 9}


INSTALLED = r"""
import sys
from bench import trace
tracer = trace.install(sys.argv[1], "probe")
from repro.experiments import parallel, runner
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunBudget
from repro.core.config import SMTConfig
assert runner.execute_runs is parallel.execute_runs
assert runner.execute_runs.__wrapped__ is not None
budget = RunBudget(warmup_cycles=20, measure_cycles=50,
                   functional_warmup_instructions=100, rotations=1)
specs = [parallel.RunSpec(config=SMTConfig(n_threads=t), rotation=0,
                          budget=budget) for t in (1, 2)]
results = parallel.execute_runs(specs, jobs=2, cache=ResultCache(sys.argv[2]))
parallel.shutdown_pool()
assert all(r is not None for r in results)
tracer.flush()
"""


def test_install_patches_by_name_imports_and_forked_workers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (os.path.join(ROOT, "src"), ROOT)))
    subprocess.run([sys.executable, "-c", INSTALLED, str(tmp_path / "spans"),
                    str(tmp_path / "cache")], check=True, env=env, cwd=ROOT,
                   timeout=120)
    spans = trace.load_spans(str(tmp_path / "spans"))
    names = {s["name"] for s in spans}
    assert {"pool.batch", "pool.parent_warm", "pool.run", "cache.put",
            "core.run_cycles", "core.build", "images.capture"} <= names
    batch = next(s for s in spans if s["name"] == "pool.batch")
    runs = [s for s in spans if s["name"] == "pool.run"]
    assert len(runs) == 2
    assert all(s["pid"] != batch["pid"] for s in runs)      # forked workers
    assert all(s["parent"] == batch["id"] for s in runs)
