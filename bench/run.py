"""Run the benchmark workloads and report every metric.

    PYTHONPATH=src python bench/run.py [--workload NAME]... [--seed N]
        [--reps N] [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]

Each rep of each workload runs in a fresh child process (``rep.py``)
with a throwaway ``REPRO_CACHE_DIR`` and work directory under
``bench/out/work``; reps go round-robin across the workloads so host
drift lands on all of them.  ``--reps`` is the minimum number of reps;
with ``--seconds`` a workload keeps adding reps while the next one is
expected to end within that many seconds.  End-to-end metrics are
medians over the untraced reps.  With ``--trace`` each workload then
runs once more with layer spans recorded, which gives the per-layer
metrics and ``bench/out/<workload>.trace.json``.

Every metric is printed with its unit, median, quartiles and sample
count.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json, or its per-layer metrics under ``--trace``).
The exit code is non-zero on any correctness failure.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = ROOT

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from bench import catalog, stats  # noqa: E402

SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(BENCH, "out")
REP = os.path.join(BENCH, "rep.py")
DIGESTS = os.path.join(BENCH, "digests.json")
#: A rep that has not finished by then is killed and counted failed.
REP_TIMEOUT_S = 100.0


def child_env(workdir: str) -> Dict[str, str]:
    """The environment of a rep: no inherited ``REPRO_*`` knobs, the
    source tree on the path, caches and temp files in the work dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    return env


def run_child(workload: str, seed: int, rep: int, smoke: bool,
              traced: bool) -> Dict[str, Any]:
    """One rep in a fresh process; its record (``error`` on failure)."""
    workdir = os.path.join(OUT_DIR, "work", f"{workload}-{rep}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "tmp"))
    out = os.path.join(workdir, "rep.json")
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--out", out]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--trace-dir", os.path.join(workdir, "spans"),
                "--chrome", os.path.join(OUT_DIR, f"{workload}.trace.json")]
    error = None
    cmd += ["--t0", repr(time.time())]   # setup_s counts from here
    try:
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(workdir),
                                stdout=sys.stderr, start_new_session=True)
        try:
            proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            error = f"rep timed out after {REP_TIMEOUT_S:.0f}s"
        finally:
            # The rep leads its own process group: nothing it started
            # survives it, whatever way it ended.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        try:
            with open(out, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            record = {"error": error or f"rep exited {proc.returncode} "
                                        f"without a record"}
        if error:
            record["error"] = error
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def schedule(workloads: List[str], args: argparse.Namespace
             ) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced reps, round-robin across workloads."""
    reps: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    costs: Dict[str, List[float]] = {w: [] for w in workloads}

    def wants_more(workload: str) -> bool:
        done = len(costs[workload])
        if done < args.reps:
            return True
        spent = sum(costs[workload])
        return spent + statistics.median(costs[workload]) <= args.seconds

    active = list(workloads)
    while active:
        for workload in active:
            started = time.monotonic()
            record = run_child(workload, args.seed, len(reps[workload]),
                               args.smoke, traced=False)
            costs[workload].append(time.monotonic() - started)
            reps[workload].append(record)
            _progress(record)
        active = [w for w in active if wants_more(w)]
    return reps


def _progress(record: Dict[str, Any]) -> None:
    if "error" in record:
        line = f"error: {record['error'].strip().splitlines()[-1]}"
    else:
        line = (f"setup {record['setup_s']:.3f}s wall {record['wall_s']:.3f}s"
                + (" (traced)" if record["traced"] else ""))
    print(f"  {record.get('workload', '?')} rep {record.get('rep', '?')}: "
          f"{line}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------
def summarize(workload: str, reps: List[Dict[str, Any]],
              traced: Optional[Dict[str, Any]], benchmark: Dict[str, Any],
              recorded: Dict[str, Any], seed: int,
              smoke: bool) -> Dict[str, Any]:
    ok = [r for r in reps if "error" not in r]
    everything = reps + ([traced] if traced is not None else [])
    problems = [r["error"].strip().splitlines()[-1]
                for r in everything if "error" in r]
    problems += [p for r in everything for p in r.get("problems", ())]
    attempted = sum(r.get("attempted", 1) for r in everything)
    failed = sum(r.get("failed", 1) if "error" not in r else 1
                 for r in everything)

    digests = sorted({r["digest"] for r in everything if "digest" in r})
    if len(digests) > 1:
        failed += 1
        problems.append(f"reps disagree on the output digest: {digests}")
    digest = digests[0] if len(digests) == 1 else None
    expected = None if smoke else \
        recorded.get("digests", {}).get(workload, {}).get(str(seed))

    e2e: Dict[str, Any] = {}
    for metric in catalog.end_to_end(benchmark):
        values = [r[metric["name"]] for r in ok if metric["name"] in r]
        if values:
            e2e[metric["name"]] = dict(stats.summary(values),
                                       unit=metric["unit"])
    found: Dict[str, Any] = {}
    beyond: Dict[str, int] = {}
    latencies = [x for r in ok for x in r.get("status_latencies_ms", ())]
    if latencies:
        p95 = stats.tail(latencies, 95)
        found["status_p50_ms"] = [stats.nearest_rank(latencies, 50),
                                  len(latencies)]
        found["status_p95_ms"] = [p95["value"], len(latencies)]
        beyond["status_p95_ms"] = p95["beyond"]
    traced_ok = traced is not None and "error" not in traced
    if traced_ok:
        found.update(traced["layers"])
        found.update({k: [v, 1] for k, v in traced["model"].items()})
        walls = [r["wall_s"] for r in ok]
        if walls:
            found["bench.trace_overhead"] = [
                traced["wall_s"] / statistics.median(walls), len(walls)]
    layers: Dict[str, Any] = {}
    for metric in catalog.per_layer(benchmark):
        name = metric["name"]
        if traced_ok or name in found:
            value, n = found.get(name, (None, 0))
            layers[name] = {"value": value, "n": n, "unit": metric["unit"]}
            if name in beyond:
                layers[name]["beyond"] = beyond[name]
    return {
        "reps": [{k: v for k, v in r.items() if k != "status_latencies_ms"}
                 for r in reps],
        "traced": traced is not None,
        "end_to_end": e2e,
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digest,
        "recorded_digest": expected,
        "model_changed": bool(expected and digest and expected != digest),
    }


def print_report(workload: str, seed: int, result: Dict[str, Any]) -> None:
    print(f"== {workload} (seed {seed}) ==")
    print(f"  {'metric':32} {'unit':>11} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>6}")
    for name, s in result["end_to_end"].items():
        print(f"  {name:32} {s['unit']:>11} {s['median']:12.6g} "
              f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:6d}")
    if result["per_layer"]:
        print(f"  {'per-layer':32} {'unit':>11} {'value':>12} "
              f"{'':>12} {'':>12} {'n':>6}")
        for name, m in result["per_layer"].items():
            value = "-" if m["value"] is None else f"{m['value']:12.6g}"
            note = ""
            if "beyond" in m:
                note = f"  {m['beyond']} beyond" + (
                    "" if m["beyond"] >= stats.MIN_BEYOND
                    else ", too few for a tail")
            print(f"  {name:32} {m['unit']:>11} {value:>12} {'':>12} "
                  f"{'':>12} {m['n']:6d}{note}")
    digest = result["digest"] or "-"
    if result["model_changed"]:
        print(f"  digest {digest}: model changed (recorded "
              f"{result['recorded_digest']})")
    elif result["recorded_digest"]:
        print(f"  digest {digest}: matches the recorded seed-{seed} digest")
    else:
        print(f"  digest {digest}")
    rate = result["failed"] / max(1, result["attempted"])
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed (error rate {rate:.4g})")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def host_metadata() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads and report every metric.")
    parser.add_argument("--workload", action="append", default=None,
                        metavar="NAME", help="workload to run (repeatable; "
                        "default: every workload in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0; 7 is held out)")
    parser.add_argument("--reps", type=int, default=3,
                        help="minimum untraced reps per workload")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="add reps while the next one ends within "
                             "this many seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run one traced rep per "
                        "workload and report per-layer metrics")
    parser.add_argument("--out", help="write every rep and summary as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes that finish in seconds")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    # A rep leads its own process group; unwinding through run_child's
    # cleanup is what stops it when this process is told to stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    benchmark = catalog.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)

    reps = schedule(workloads, args)
    traced = {}
    if args.trace:
        for workload in workloads:
            traced[workload] = run_child(workload, args.seed,
                                         len(reps[workload]), args.smoke,
                                         traced=True)
            _progress(traced[workload])

    results = {}
    for workload in workloads:
        results[workload] = summarize(
            workload, reps[workload], traced.get(workload), benchmark,
            recorded, args.seed, args.smoke)
        print_report(workload, args.seed, results[workload])

    if args.out:
        document = {
            "schema": "repro-bench-results",
            "version": 1,
            "git_sha": git_sha(),
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "host": host_metadata(),
            "seed": args.seed,
            "smoke": args.smoke,
            "workloads": results,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")

    wanted = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    metrics: Dict[str, Any] = {}
    for workload, result in results.items():
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for metric in wanted:
            name = metric["name"]
            if args.trace:
                value = result["per_layer"].get(name, {}).get("value")
            else:
                value = result["end_to_end"].get(name, {}).get("median")
            if value is None:
                continue
            metrics[prefix + name] = {"value": value, "unit": metric["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    complete = len(metrics) == len(wanted) * len(workloads)
    if not metrics:
        print("error: no rep produced a result", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and complete else 1


if __name__ == "__main__":
    sys.exit(main())
