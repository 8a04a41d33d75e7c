"""Layer spans recorded from outside the program.

:func:`install` wraps public functions of the ``repro`` layers (and the
pool's private parent-side warm step).  Each name is replaced in its
defining module *and* in every already-loaded ``repro`` module that
imported it by name; modules imported later read the replaced
attribute, so callers pick up the wrapper however they reach the
function.  Processes forked after
:func:`install` inherit the wrappers; a spawned child calls
:func:`install` itself before it starts work.

Every wrapped call records a span: name, start, end, its own id, the id
of the span that was open when it started (its parent, possibly in the
forking process), and a trace id (one per benchmark rep, or the task
key for campaign tasks).  Spans stay in memory and are appended to
``spans-<pid>.jsonl`` in the trace directory when the process's
outermost span ends (forked workers, which may be killed between
tasks) or when :meth:`Tracer.flush` is called (the rep process and
spawned workers, at exit).
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench.stats import covered, nearest_rank, self_times

#: Span-name prefix -> layer.
LAYERS = {
    "core": "core",
    "warmup": "workloads",
    "images": "workloads",
    "mixes": "workloads",
    "pool": "pool",
    "cache": "cache",
    "journal": "journal",
    "worker": "worker",
    "service": "service",
    "multicore": "multicore",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def _task_key(args: Sequence[Any]) -> Optional[str]:
    task = args[1] if len(args) > 1 else None
    return getattr(task, "key", None)


# (module, attribute, span name, attrs(args, result) -> dict | None,
#  trace(args) -> trace id | None)
Target = Tuple[str, str, str, Optional[Callable], Optional[Callable]]

TARGETS: Tuple[Target, ...] = (
    ("repro.core.simulator", "Simulator.__init__", "core.build", None, None),
    ("repro.core.simulator", "Simulator.run_cycles", "core.run_cycles",
     lambda args, _r: {"n": args[1]}, None),
    ("repro.core.simulator", "Simulator.functional_warmup",
     "warmup.functional", None, None),
    ("repro.experiments.parallel", "run_spec", "core.run_spec", None, None),
    ("repro.workloads.images", "capture", "images.capture", None, None),
    ("repro.workloads.images", "restore", "images.restore", None, None),
    ("repro.workloads.synthetic", "generate_program", "mixes.program_build",
     None, None),
    ("repro.experiments.parallel", "execute_runs", "pool.batch", None, None),
    ("repro.experiments.parallel", "_ensure_images", "pool.parent_warm",
     None, None),
    ("repro.experiments.parallel", "run_spec_fast", "pool.run", None, None),
    ("repro.experiments.cache", "ResultCache.get", "cache.get",
     lambda _a, result: {"hit": result is not None}, None),
    ("repro.experiments.cache", "ResultCache.put", "cache.put", None, None),
    ("repro.sched.journal", "JournalWriter.append", "journal.append",
     None, None),
    ("repro.sched.journal", "read_records", "journal.read",
     lambda _a, result: {"records": len(result)}, None),
    ("repro.sched.state", "load_state", "journal.replay", None, None),
    ("repro.sched.worker", "Worker.serve", "worker.serve", None, None),
    ("repro.sched.worker", "Worker.claim_task", "worker.claim",
     lambda _a, task: {"trace": task.key} if task is not None else None,
     None),
    ("repro.sched.worker", "Worker.execute", "worker.execute", None,
     _task_key),
    ("repro.sched.worker", "Worker.finish_task", "worker.finish", None,
     _task_key),
    ("repro.service.client", "ServiceClient.submit", "service.submit",
     None, None),
    ("repro.service.client", "ServiceClient.status", "service.status",
     None, None),
    ("repro.service.client", "ServiceClient.results", "service.results",
     None, None),
    ("repro.multicore.driver", "OpenSystemDriver.tick", "multicore.tick",
     None, None),
    ("repro.multicore.driver", "OpenSystemDriver.check_invariants",
     "multicore.check", None, None),
    ("repro.multicore.machine", "build_core", "multicore.rebuild",
     None, None),
)

#: Context managers whose *acquisition* is the span (the wait for the
#: campaign flock); the held region is covered by sibling spans.
ACQUIRE_TARGETS = (("repro.sched.journal", "lock_journal",
                    "journal.lock_wait"),)

class Tracer:
    """In-memory span recorder for one process and its forks."""

    def __init__(self, directory: str, trace_id: str):
        self.directory = directory
        self.trace_id = trace_id
        self.main_pid = os.getpid()
        #: Off, wrapped calls record nothing (correctness checks and
        #: probes run after the timed region this way).
        self.enabled = True
        self._spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The parent flushes what it recorded; a lock another thread
        # held at fork time would never be released here.
        self._spans = []
        self._lock = threading.Lock()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace: Optional[str] = None) -> Dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = {
            "name": name,
            "id": f"{os.getpid()}.{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "trace": trace or (parent["trace"] if parent else self.trace_id),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start": time.perf_counter(),
        }
        stack.append(frame)
        return frame

    def end(self, frame: Dict[str, Any],
            attrs: Optional[Dict[str, Any]] = None) -> None:
        frame["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        if attrs:
            attrs = dict(attrs)
            frame["trace"] = attrs.pop("trace", frame["trace"])
            if attrs:
                frame["attrs"] = attrs
        with self._lock:
            self._spans.append(frame)
        pid = os.getpid()
        if pid != self.main_pid and not any(f["pid"] == pid for f in stack):
            self.flush()

    def flush(self) -> None:
        """Append this process's recorded spans to its spans file."""
        with self._lock:
            spans, self._spans = self._spans, []
        if not spans:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None,
             trace: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self.begin(name, trace(args) if trace else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(frame, {"error": True})
                raise
            self.end(frame, attrs(args, result) if attrs else None)
            return result

        return traced

    def wrap_acquire(self, name: str, fn: Callable) -> Callable:
        @contextlib.contextmanager
        def traced(*args, **kwargs):
            if not self.enabled:
                with fn(*args, **kwargs):
                    yield
                return
            with contextlib.ExitStack() as stack:
                frame = self.begin(name)
                try:
                    stack.enter_context(fn(*args, **kwargs))
                finally:
                    self.end(frame)
                yield

        return functools.wraps(fn)(traced)


def _replace_everywhere(original: Any, replacement: Any) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(directory: str, trace_id: str) -> Tracer:
    """Wrap every target and return the process's tracer."""
    tracer = Tracer(directory, trace_id)
    for module_name, attr, span, attrs, trace in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, method, tracer.wrap(
                span, vars(owner)[method], attrs, trace))
        else:
            original = getattr(module, attr)
            _replace_everywhere(
                original, tracer.wrap(span, original, attrs, trace))
    for module_name, attr, span in ACQUIRE_TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        _replace_everywhere(original, tracer.wrap_acquire(span, original))
    from repro.multicore import alloc

    for cls in alloc.Allocator.__subclasses__():
        if "choose" in vars(cls):
            cls.choose = tracer.wrap("multicore.alloc", vars(cls)["choose"])
    return tracer


# ----------------------------------------------------------------------
# Reading spans back.
# ----------------------------------------------------------------------
def load_spans(directory: str) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path, "r", encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def write_chrome_trace(path: str, spans: Sequence[Dict[str, Any]],
                       origin: float, main_pid: int) -> None:
    """Spans as Chrome trace-event JSON (opens in Perfetto)."""
    events: List[Dict[str, Any]] = []
    for pid in sorted({span["pid"] for span in spans} | {main_pid}):
        label = "bench rep" if pid == main_pid else f"process {pid}"
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    for span in spans:
        events.append({
            "name": span["name"],
            "cat": layer_of(span["name"]),
            "ph": "X",
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"],
            "args": dict(span.get("attrs") or {}, id=span["id"],
                         parent=span["parent"], trace=span["trace"]),
        })
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# ----------------------------------------------------------------------
# Per-layer metrics from spans.
# ----------------------------------------------------------------------
Metric = Tuple[Optional[float], int]   # (value, sample count)


def layer_metrics(spans: Sequence[Dict[str, Any]], window: Tuple[float, float],
                  main_pid: int) -> Dict[str, Metric]:
    """Every span-derived per-layer metric as ``(value, samples)``.

    Latencies (``_ms``/``_us``) are nearest-rank p50 (or p95) over the
    spans of that name and are ``None`` when the workload never made
    the call; totals (``_s``) and counts are 0 then.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durs(name: str) -> List[float]:
        return [s["end"] - s["start"] for s in by_name.get(name, ())]

    def total(name: str) -> Metric:
        values = durs(name)
        return sum(values), len(values)

    def pct(name: str, scale: float, p: float = 50) -> Metric:
        values = durs(name)
        if not values:
            return None, 0
        return nearest_rank(values, p) * scale, len(values)

    def count(name: str) -> Metric:
        n = len(by_name.get(name, ()))
        return n, n

    def share(part: float, whole: float, n: int) -> Metric:
        return (part / whole if whole > 0 else 0.0), n

    out: Dict[str, Metric] = {}
    run_s, calls = total("core.run_cycles")
    cycles = sum(s["attrs"]["n"] for s in by_name.get("core.run_cycles", ()))
    out["core.run_cycles_s"] = run_s, calls
    out["core.calls"] = calls, calls
    out["core.host_us_per_cycle"] = (
        (run_s / cycles * 1e6 if cycles else None), cycles)
    out["core.build_ms"] = pct("core.build", 1e3)
    out["core.builds"] = count("core.build")

    out["warmup.functional_s"] = total("warmup.functional")
    out["warmup.calls"] = count("warmup.functional")
    out["images.capture_ms"] = pct("images.capture", 1e3)
    out["images.restore_ms"] = pct("images.restore", 1e3)
    out["images.captures"] = count("images.capture")
    out["images.restores"] = count("images.restore")
    out["mixes.program_build_s"] = total("mixes.program_build")

    batch_s, batches = total("pool.batch")
    worker_runs = [s for s in by_name.get("pool.run", ())
                   if s["pid"] != main_pid]
    busy = sum(s["end"] - s["start"] for s in worker_runs)
    workers = len({s["pid"] for s in worker_runs})
    out["pool.batch_s"] = batch_s, batches
    out["pool.parent_warm_s"] = total("pool.parent_warm")
    out["pool.worker_busy_s"] = busy, len(worker_runs)
    out["pool.utilization"] = share(busy, batch_s * workers, len(worker_runs))

    gets = by_name.get("cache.get", ())
    hits = sum(1 for s in gets if (s.get("attrs") or {}).get("hit"))
    out["cache.put_ms"] = pct("cache.put", 1e3)
    out["cache.get_ms"] = pct("cache.get", 1e3)
    out["cache.puts"] = count("cache.put")
    out["cache.gets"] = count("cache.get")
    out["cache.hit_frac"] = share(hits, len(gets), len(gets))

    replay_s, replays = total("journal.replay")
    records = sum(s["attrs"]["records"] for s in by_name.get("journal.read", ()))
    out["journal.appends"] = count("journal.append")
    out["journal.append_ms"] = pct("journal.append", 1e3)
    out["journal.lock_wait_ms"] = pct("journal.lock_wait", 1e3)
    out["journal.lock_wait_p95_ms"] = pct("journal.lock_wait", 1e3, 95)
    out["journal.replays"] = replays, replays
    out["journal.replay_ms"] = pct("journal.replay", 1e3)
    out["journal.replay_s"] = replay_s, replays
    out["journal.records"] = records, replays
    out["journal.replay_us_per_record"] = (
        (replay_s / records * 1e6 if records else None), records)

    serve_s, _ = total("worker.serve")
    claim_s, claims = total("worker.claim")
    execute_s, executes = total("worker.execute")
    finish_s, _ = total("worker.finish")
    out["worker.claim_ms"] = pct("worker.claim", 1e3)
    out["worker.claim_p95_ms"] = pct("worker.claim", 1e3, 95)
    out["worker.claim_s"] = claim_s, claims
    out["worker.claim_frac"] = share(claim_s, serve_s, claims)
    out["worker.execute_s"] = execute_s, executes
    out["worker.finish_ms"] = pct("worker.finish", 1e3)
    out["worker.idle_s"] = (max(0.0, serve_s - claim_s - execute_s - finish_s),
                            len(by_name.get("worker.serve", ())))

    out["service.submit_ms"] = pct("service.submit", 1e3)
    out["service.status_ms"] = pct("service.status", 1e3)
    out["service.results_ms"] = pct("service.results", 1e3)

    tick_s, ticks = total("multicore.tick")
    stepped = sum(s["end"] - s["start"]
                  for s in by_name.get("core.run_cycles", ())
                  if s["pid"] == main_pid) if ticks else 0.0
    out["multicore.ticks"] = ticks, ticks
    out["multicore.tick_ms"] = pct("multicore.tick", 1e3)
    out["multicore.rebuilds"] = count("multicore.rebuild")
    out["multicore.rebuild_ms"] = pct("multicore.rebuild", 1e3)
    out["multicore.step_frac"] = share(stepped, tick_s, ticks)
    out["multicore.alloc_us"] = pct("multicore.alloc", 1e6)
    out["multicore.check_ms"] = pct("multicore.check", 1e3)

    selfs = self_times(spans)
    per_layer = dict.fromkeys(LAYER_NAMES, 0.0)
    for span in spans:
        per_layer[layer_of(span["name"])] += selfs[span["id"]]
    whole = sum(per_layer.values())
    for layer, value in per_layer.items():
        out[f"layer.{layer}_frac"] = share(value, whole, len(spans))

    lo, hi = window
    busy_window = covered(((s["start"], s["end"]) for s in spans), lo, hi)
    out["bench.unattributed_frac"] = share(hi - lo - busy_window, hi - lo,
                                           len(spans))
    return out
