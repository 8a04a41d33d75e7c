"""One benchmark rep, in a fresh process started by ``bench/run.py``.

    python3 bench/rep.py --workload NAME --seed N --rep I --t0 T --out FILE
                         [--trace-dir DIR --chrome FILE] [--smoke]

runs in the rep's work directory (the parent sets the working directory
and environment) and writes one JSON record to ``--out``.  ``--t0`` is
the parent's wall clock just before it started this process, so
``setup_s`` covers interpreter start, imports and workload set-up.

    python3 bench/rep.py --serve-worker DIR --trace-dir D --trace-id ID

is the traced serve-campaign's drain worker: the tracer is installed
first, then the same worker ``repro worker DIR --drain --poll 0.05``
runs.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict  # noqa: E402

from bench import coreprobe  # noqa: E402
from bench.workloads import THINK_S, WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def serve_worker(args: argparse.Namespace) -> int:
    from bench.trace import install

    tracer = install(args.trace_dir, args.trace_id)
    from repro.sched.worker import Worker

    try:
        Worker(args.serve_worker, poll_interval=THINK_S).serve(drain=True)
    finally:
        tracer.flush()
    return 0


def run_rep(args: argparse.Namespace) -> Dict[str, Any]:
    tracer = None
    trace = None
    if args.trace_dir:
        from bench.trace import install

        trace = {"dir": args.trace_dir,
                 "id": f"{args.workload}-seed{args.seed}-rep{args.rep}"}
        tracer = install(trace["dir"], trace["id"])
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.rep,
                                        trace)
    try:
        workload.setup()
        setup_s = time.time() - args.t0
        start = time.perf_counter()
        workload.run()
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.enabled = False
        workload.stop()
    rss = peak_rss_mb()
    outcome = workload.check()
    wall = end - start
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "rep": args.rep,
        "traced": tracer is not None,
        "setup_s": setup_s,
        "wall_s": wall,
        "sim_kips": outcome.committed / wall / 1000.0,
        "peak_rss_mb": rss,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / max(1, outcome.attempted),
        "problems": outcome.problems,
        "digest": outcome.digest,
        "model": {
            "model.committed": outcome.committed,
            "model.cycles": outcome.cycles,
            "model.ipc": (outcome.committed / outcome.cycles
                          if outcome.cycles else 0.0),
            "model.job_p99_kcycles": outcome.job_p99_kcycles,
        },
    }
    latencies = outcome.extra.get("status_latencies_s")
    if latencies:
        record["status_latencies_ms"] = [x * 1e3 for x in latencies]
    if tracer is not None:
        record["layers"] = traced_metrics(args, tracer, outcome, start, end)
    return record


def traced_metrics(args, tracer, outcome, start: float,
                   end: float) -> Dict[str, Any]:
    """Per-layer metrics as ``{name: [value, samples]}``."""
    from bench.trace import layer_metrics, load_spans, write_chrome_trace

    sim = coreprobe.sampled_simulator(args.seed)
    stages = coreprobe.stage_fractions(sim)
    subsystems = coreprobe.subsystem_fractions(sim)
    tracer.flush()
    spans = load_spans(args.trace_dir)
    origin = min([start] + [span["start"] for span in spans])
    write_chrome_trace(args.chrome, spans, origin, os.getpid())
    layers = {name: list(value) for name, value in
              layer_metrics(spans, (start, end), os.getpid()).items()}
    cycles = coreprobe.PROBE_CYCLES
    for stage, share in stages.items():
        layers[f"core.stage.{stage}_frac"] = [share, cycles]
    for subsystem, share in subsystems.items():
        name = "core.self_frac" if subsystem == "core" else \
            f"{subsystem}.frac"
        layers[name] = [share, cycles]
    for name in ("service.connections", "service.busy_rejects"):
        value = outcome.extra.get(name, 0)
        layers[name] = [value, value]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-dir")
    parser.add_argument("--chrome")
    parser.add_argument("--serve-worker", metavar="DIR")
    parser.add_argument("--trace-id", default="")
    args = parser.parse_args(argv)
    if args.serve_worker:
        return serve_worker(args)
    if not args.workload or not args.out:
        parser.error("--workload and --out are required")
    if args.t0 is None:
        args.t0 = time.time()
    try:
        record = run_rep(args)
    except Exception:  # noqa: BLE001 - reported to the parent as a failure
        traceback.print_exc()
        record = {"workload": args.workload, "seed": args.seed,
                  "rep": args.rep, "error": traceback.format_exc()}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 1 if "error" in record or record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
