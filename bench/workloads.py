"""The benchmark workloads.

Each workload is one class with four steps, run once per rep in a
fresh process by ``bench/rep.py``:

* ``setup()`` — imports, input generation from the seed, program
  generation, and (for the campaign) the server socket.  Counted in
  ``setup_s``.
* ``run()`` — the timed region, the only part in ``wall_s``.
* ``stop()`` — stops every process the workload started.
* ``check()`` — correctness checks against the reference paths, after
  timing; returns an :class:`Outcome`.

All load comes from the rep process: the spec grid, the arrival seed and
the campaign batch.  At most two processes simulate at a time and the
campaign client holds one connection at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Simulating processes per workload (the host has two CPUs).
JOBS = 2


@dataclass
class Outcome:
    """What one rep's checks found, and the model numbers it produced."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    committed: int = 0
    cycles: int = 0
    digest: str = ""
    job_p99_kcycles: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# fig3-sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Size:
    rotations: int
    warmup: int
    measure: int
    functional: int


class Fig3Sweep:
    """The Figure 3 grid (RR.1.8 at 1-8 threads plus the unmodified
    superscalar) as one closed batch through the parallel engine."""

    name = "fig3-sweep"
    FULL = Fig3Size(rotations=2, warmup=1000, measure=8000, functional=30000)
    SMOKE = Fig3Size(rotations=1, warmup=100, measure=400, functional=1000)

    def __init__(self, seed: int, smoke: bool, rep_index: int,
                 trace: Optional[Dict[str, str]] = None):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.rep_index = rep_index
        self.results: List[Any] = []

    def setup(self) -> None:
        from repro.core.config import SMTConfig
        from repro.experiments import parallel
        from repro.experiments.cache import ResultCache
        from repro.experiments.runner import RunBudget
        from repro.workloads.mixes import standard_mix

        size = self.size
        budget = RunBudget(warmup_cycles=size.warmup,
                           measure_cycles=size.measure,
                           functional_warmup_instructions=size.functional,
                           rotations=size.rotations)
        configs = [SMTConfig(n_threads=t) for t in (1, 2, 4, 6, 8)]
        configs.append(SMTConfig(n_threads=1, smt_pipeline=False))
        self.specs = [
            parallel.RunSpec(config=config, rotation=rotation,
                             budget=budget, seed=self.seed)
            for config in configs for rotation in range(size.rotations)
        ]
        for spec in self.specs:
            standard_mix(spec.config.n_threads, spec.rotation, spec.seed)
        self.cache = ResultCache(os.path.abspath("results"))

    def run(self) -> None:
        from repro.experiments import parallel

        self.results = parallel.execute_runs(self.specs, jobs=JOBS,
                                             cache=self.cache)

    def stop(self) -> None:
        from repro.experiments import parallel

        parallel.shutdown_pool()

    def check(self) -> Outcome:
        from repro.experiments.cache import result_to_dict
        from repro.experiments.parallel import run_spec

        out = Outcome(attempted=len(self.specs) + 1)
        missing = sum(1 for r in self.results if r is None)
        if len(self.results) != len(self.specs) or missing:
            out.fail(f"{missing} of {len(self.specs)} runs returned nothing",
                     max(1, missing))
        done = [r for r in self.results if r is not None]
        out.committed = sum(r.committed for r in done)
        out.cycles = sum(r.cycles for r in done)
        index = self.rep_index % len(self.specs)
        if index < len(self.results):
            reference = run_spec(self.specs[index])
            if self.results[index] != reference:
                out.fail(f"run {index} differs from the plain run_spec")
        out.digest = _digest(_canonical(
            [result_to_dict(r) if r is not None else None
             for r in self.results]))
        return out


# ----------------------------------------------------------------------
# serve-campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSize:
    rotations: int     # consecutive rotations per (scheme, threads) pair
    warmup: int
    measure: int
    functional: int


#: Fetch schemes of the campaign grid, as (policy, num1, num2).
SERVE_SCHEMES = (("RR", 1, 8), ("ICOUNT", 2, 8), ("BRCOUNT", 2, 8),
                 ("MISSCOUNT", 2, 8), ("IQPOSN", 2, 8), ("ICOUNT", 1, 8))
#: Client think time between status polls, seconds.
THINK_S = 0.05
CAMPAIGN_DIR = "campaign"
SOCKET = "c.sock"


class ServeCampaign:
    """A campaign through ``repro serve``: one client submits, polls
    status in a closed loop while two drain workers run the tasks, and
    fetches the canonical report bytes."""

    name = "serve-campaign"
    FULL = ServeSize(rotations=16, warmup=100, measure=400, functional=2000)
    SMOKE = ServeSize(rotations=1, warmup=50, measure=100, functional=200)

    def __init__(self, seed: int, smoke: bool, rep_index: int,
                 trace: Optional[Dict[str, str]] = None):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.rep_index = rep_index
        #: With tracing, the server runs on a thread of this process and
        #: the workers are bench processes that install the tracer.
        self.trace = trace
        self.traced = trace is not None
        self.server: Any = None
        self.client: Any = None
        self.workers: List[subprocess.Popen] = []
        self._logs: List[Any] = []
        self.latencies: List[float] = []
        self.status_errors = 0
        self.last_status: Optional[Dict[str, Any]] = None
        self.report = b""
        self.stats: Dict[str, Any] = {}

    def setup(self) -> None:
        from repro.core.config import scheme
        from repro.experiments.parallel import RunSpec
        from repro.experiments.runner import RunBudget
        from repro.service.client import ServiceClient, ServiceError

        size = self.size
        budget = RunBudget(warmup_cycles=size.warmup,
                           measure_cycles=size.measure,
                           functional_warmup_instructions=size.functional,
                           rotations=1)
        configs = [scheme(policy, num1, num2, n_threads=threads)
                   for threads in (1, 2)
                   for policy, num1, num2 in SERVE_SCHEMES]
        # The seed picks the batch, not the programs: a window of
        # consecutive rotations starting at the seed, submitted in a
        # seeded order.  Sixteen rotations hold each of the eight
        # program rotations twice, so every seed simulates the same
        # work; new programs per seed moved it by 21% (IQR over seeds
        # 0-9), which sim_kips would report as speed.
        self.specs = [
            RunSpec(config=config, rotation=self.seed + k, budget=budget)
            for config in configs for k in range(size.rotations)
        ]
        random.Random(self.seed).shuffle(self.specs)
        if self.traced:
            from repro.service.server import ServerThread

            self.server = ServerThread(CAMPAIGN_DIR, unix_path=SOCKET,
                                       use_env_token=False).start()
        else:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", CAMPAIGN_DIR,
                 "--unix", SOCKET],
                stdout=subprocess.DEVNULL, stderr=self._log("serve.err"))
        probe = ServiceClient(SOCKET, retries=0, timeout=5.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                probe.ping()
                break
            except (ServiceError, OSError):
                if time.monotonic() > deadline or self._server_gone():
                    raise RuntimeError("campaign server did not come up")
                time.sleep(0.01)
        self.client = ServiceClient(SOCKET)

    def _server_gone(self) -> bool:
        return (not self.traced and self.server is not None
                and self.server.poll() is not None)

    def _log(self, path: str) -> Any:
        handle = open(path, "w", encoding="utf-8")
        self._logs.append(handle)
        return handle

    def _worker_command(self) -> List[str]:
        if self.traced:
            return [sys.executable, os.path.join(BENCH_DIR, "rep.py"),
                    "--serve-worker", CAMPAIGN_DIR,
                    "--trace-dir", self.trace["dir"],
                    "--trace-id", self.trace["id"]]
        return [sys.executable, "-m", "repro", "worker", CAMPAIGN_DIR,
                "--drain", "--poll", str(THINK_S)]

    def run(self) -> None:
        from repro.service.client import ServiceError

        self.client.submit(self.specs)
        for index in range(JOBS):
            self.workers.append(subprocess.Popen(
                self._worker_command(), stdout=subprocess.DEVNULL,
                stderr=self._log(f"worker{index}.err")))
        while True:
            started = time.perf_counter()
            try:
                self.last_status = self.client.status()
                self.latencies.append(time.perf_counter() - started)
            except ServiceError:
                self.status_errors += 1
            if all(w.poll() is not None for w in self.workers):
                break
            time.sleep(THINK_S)
        self.report = self.client.report_bytes(rerun_missing=False)

    def stop(self) -> None:
        if self.client is not None:
            try:
                self.stats = self.client.stats()["counters"]
            except (OSError, RuntimeError):  # ServiceError: best effort
                self.stats = {}
        for worker in self.workers:
            _terminate(worker)
        if self.traced:
            if self.server is not None:
                self.server.stop()
        elif self.server is not None:
            _terminate(self.server, signal.SIGTERM)
        for handle in self._logs:
            handle.close()

    def check(self) -> Outcome:
        from repro.experiments.cache import result_from_dict
        from repro.experiments.export import fabric_report_bytes
        from repro.experiments.parallel import run_spec
        from repro.sched.campaign import campaign_report

        n = len(self.specs)
        out = Outcome(attempted=n + len(self.latencies) + self.status_errors
                      + 2)
        if self.status_errors:
            out.fail(f"{self.status_errors} status request(s) failed",
                     self.status_errors)
        for index, worker in enumerate(self.workers):
            if worker.returncode != 0:
                out.fail(f"worker {index} exited {worker.returncode}")
        counts = (self.last_status or {}).get("counts", {})
        if counts.get("done") != n or counts.get("total") != n:
            out.fail(f"final status not all done: {counts}",
                     max(1, n - int(counts.get("done") or 0)))
        try:
            rows = json.loads(self.report)["tasks"]
        except (ValueError, KeyError):
            rows = []
        incomplete = sum(1 for row in rows
                         if row.get("state") != "done" or not row.get("result"))
        if len(rows) != n or incomplete:
            out.fail(f"report incomplete: {incomplete} of {len(rows)} rows "
                     f"lack a result ({n} submitted)",
                     max(1, incomplete, n - len(rows)))
        local = fabric_report_bytes(
            campaign_report(CAMPAIGN_DIR, rerun_missing=False))
        if local != self.report:
            out.fail("socket report differs from the journal's report")
        for index in (2 * self.rep_index % n, (2 * self.rep_index + 1) % n):
            if index < len(rows) and rows[index].get("result"):
                if result_from_dict(rows[index]["result"]) != run_spec(
                        self.specs[index]):
                    out.fail(f"task {index} differs from the plain run_spec")
        results = [row["result"] for row in rows if row.get("result")]
        out.committed = sum(r["committed"] for r in results)
        out.cycles = sum(r["cycles"] for r in results)
        out.digest = _digest(self.report)
        out.extra = {
            "status_latencies_s": self.latencies,
            "service.connections": self.stats.get("connections_total", 0),
            "service.busy_rejects": self.stats.get("busy_rejects", 0),
        }
        return out


# ----------------------------------------------------------------------
# multicore-open
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MulticoreSize:
    jobs: int
    service_instructions: int


#: Mean arrival rate, jobs per kcycle: about 80% of the ~0.43 jobs/kcycle
#: two PAIRING cores of four contexts complete at this service demand.
ARRIVAL_RATE = 0.35
#: Simulated-cycle guard; a run that needs more has lost jobs.
MAX_CYCLES = 10_000_000


class MulticoreOpen:
    """The open-system driver on two 4-context cores with the PAIRING
    allocator, fed seeded Poisson arrivals, ticked directly."""

    name = "multicore-open"
    FULL = MulticoreSize(jobs=64, service_instructions=3000)
    SMOKE = MulticoreSize(jobs=4, service_instructions=300)

    def __init__(self, seed: int, smoke: bool, rep_index: int,
                 trace: Optional[Dict[str, str]] = None):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.rep_index = rep_index
        self.error: Optional[str] = None

    def setup(self) -> None:
        from repro.core.config import SMTConfig
        from repro.multicore.driver import (
            ArrivalConfig,
            MulticoreRunSpec,
            OpenSystemDriver,
        )
        from repro.workloads.mixes import cached_program
        from repro.workloads.profiles import profile_names

        self.spec = MulticoreRunSpec(
            n_cores=2, allocator="PAIRING",
            config=SMTConfig(n_threads=4), quantum=200,
            max_cycles=MAX_CYCLES,
            arrival=ArrivalConfig(
                jobs=self.size.jobs, rate_per_kcycle=ARRIVAL_RATE,
                service_instructions=self.size.service_instructions,
                seed=self.seed),
        )
        for name in profile_names():
            cached_program(name, 0)
        self.driver = OpenSystemDriver(self.spec)

    def run(self) -> None:
        from repro.multicore.driver import DriverInvariantError

        driver = self.driver
        try:
            while not driver.done() and driver.clock < MAX_CYCLES:
                driver.tick()
        except DriverInvariantError as exc:
            self.error = f"driver invariant broken: {exc}"

    def stop(self) -> None:
        pass

    def check(self) -> Outcome:
        result = self.driver.result()
        out = Outcome(attempted=result.jobs_total)
        if self.error:
            out.fail(self.error)
        if result.jobs_completed != result.jobs_total:
            out.fail(f"{result.unfinished} of {result.jobs_total} jobs "
                     f"unfinished", result.unfinished)
        out.committed = sum(core.commits for core in result.cores)
        out.cycles = result.cycles
        out.job_p99_kcycles = result.latency()["total"]["p99"] / 1000.0
        out.digest = _digest(_canonical(result.to_dict()))
        return out


def _terminate(proc: subprocess.Popen, sig: int = signal.SIGKILL,
               timeout: float = 20.0) -> None:
    """Stop ``proc`` (no-op if it already exited) and wait for it."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


WORKLOADS = {cls.name: cls for cls in (Fig3Sweep, ServeCampaign,
                                       MulticoreOpen)}
