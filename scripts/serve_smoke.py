#!/usr/bin/env python
"""Service smoke test: a real ``repro serve`` process end to end.

The in-process service suite (``tests/service/``) covers every verb,
fault, and drain path on an event loop it owns.  This script supplies
the guarantees only a real OS process can give: a server reached
through an actual Unix socket by a client in another process, token
auth carried via the environment, and a **real SIGTERM** that must
drain cleanly — handlers installed by the CLI, not by a test harness.

Sequence:

1. Build the fault-free baseline: submit the spec grid straight to the
   filesystem journal and drain it in this process with a worker on
   the reference path (``run_fn=parallel.run_spec``: every task runs
   its own functional warmup); capture the canonical report bytes.
2. Start ``repro serve`` on a Unix socket with ``REPRO_SERVE_TOKEN``
   set.  Submit the same grid through the sync client (token picked up
   from the environment), drain with a worker subprocess, and fetch
   the report over the socket.  The grid runs two fetch schemes per
   rotation, so this worker restores a warm image for every second
   task.
3. Assert the socket-fetched report is **bit-identical** to the
   filesystem baseline — which also holds warm-image restores equal to
   fresh warmups.
4. SIGTERM the server: it must exit 0 and print its drain summary.

Run:  PYTHONPATH=src python scripts/serve_smoke.py [--threads 2]
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.core.config import scheme
from repro.experiments import export, parallel
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import RunBudget
from repro.sched.campaign import CampaignConfig, campaign_report, submit_specs
from repro.sched.worker import Worker
from repro.service.client import ServiceClient, ServiceError

SMOKE_BUDGET = RunBudget(warmup_cycles=200, measure_cycles=1000,
                         functional_warmup_instructions=5000, rotations=1)

#: Both paths must submit under the same campaign name — the name is
#: part of the canonical report document.
SMOKE_CONFIG = CampaignConfig(name="serve-smoke", lease_ttl=10.0)

SMOKE_TOKEN = "serve-smoke-token"


def smoke_specs(threads: int):
    # Two fetch schemes per rotation share one warm state.
    return [
        RunSpec(config=scheme(policy, 2, 8, n_threads=threads),
                rotation=rotation, budget=SMOKE_BUDGET)
        for rotation in range(2)
        for policy in ("RR", "ICOUNT")
    ]


def drain(directory: str, env) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", "worker", directory,
         "--poll", "0.1", "--id", "sock-worker", "--drain"],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=600)


def wait_for_socket(client: ServiceClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.ping()
            return
        except ServiceError:
            time.sleep(0.1)
    raise SystemExit("FAIL: server socket never came up")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), os.pardir,
                                 "src"),
                    env.get("PYTHONPATH", "")) if p)
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    env["REPRO_SERVE_TOKEN"] = SMOKE_TOKEN
    specs = smoke_specs(args.threads)

    print(f"[1/4] filesystem baseline ({len(specs)} runs, no warm "
          "images)")
    baseline_dir = os.path.join(workdir, "baseline")
    submit_specs(baseline_dir, specs, SMOKE_CONFIG)
    Worker(baseline_dir, worker_id="fs-worker", poll_interval=0.1,
           run_fn=parallel.run_spec).serve(drain=True)
    baseline = export.fabric_report_bytes(campaign_report(baseline_dir))

    print("[2/4] repro serve on a Unix socket, token auth from env")
    serve_dir = os.path.join(workdir, "served")
    sock = os.path.join(workdir, "serve.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", serve_dir,
         "--unix", sock],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        client = ServiceClient(sock, token=SMOKE_TOKEN)
        wait_for_socket(client)
        try:
            ServiceClient(sock, token="wrong", retries=0).ping()
        except ServiceError as error:
            if error.kind != "auth":
                raise SystemExit(f"FAIL: wrong token got {error.kind!r}, "
                                 "expected 'auth'")
        else:
            raise SystemExit("FAIL: wrong token was accepted")
        ack = client.submit(specs, SMOKE_CONFIG)
        print(f"      submitted {ack['added']}/{ack['total']} over "
              "the socket")

        print("[3/4] worker drains the served campaign")
        drain(serve_dir, env)
        served = client.report_bytes()
        if served != baseline:
            print("FAIL: socket-fetched report differs from filesystem "
                  "baseline", file=sys.stderr)
            return 1
        print(f"      report bit-identical to baseline "
              f"({len(served)} bytes)")

        print("[4/4] SIGTERM the server: clean drain expected")
        server.send_signal(signal.SIGTERM)
        try:
            output, _ = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            print("FAIL: server did not drain within 30s of SIGTERM",
                  file=sys.stderr)
            return 1
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)

    if server.returncode != 0:
        print(f"FAIL: server exited {server.returncode} after SIGTERM\n"
              f"{output}", file=sys.stderr)
        return 1
    if "drained:" not in output:
        print(f"FAIL: server never printed its drain summary\n{output}",
              file=sys.stderr)
        return 1
    print(f"serve smoke OK: auth enforced, socket submission drained, "
          f"report bit-identical, SIGTERM drained cleanly "
          f"({output.strip().splitlines()[-1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
