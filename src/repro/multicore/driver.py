"""Open-system workload driver for the multicore machine.

Jobs arrive over time (from a seeded arrival distribution or a JSONL
trace), wait in a FIFO queue, get allocated to a core by a registry
allocation policy, run until their thread has committed its service
demand, and retire — simulating service traffic against an N-core SMT
machine and reporting latency/throughput distributions instead of
steady-state IPC.

Model
-----
Time advances in fixed *quanta* (driver ticks).  Each tick:

1. jobs whose arrival cycle has passed join the queue (FIFO by
   ``(arrival_cycle, job_id)``);
2. the allocator places queued jobs onto cores with free hardware
   contexts (one decision per job, in queue order);
3. every core whose resident set changed is (re)built — an allocation
   event flushes the core, modelling the context-switch drain; jobs
   keep their cumulative committed-instruction progress across
   rebuilds;
4. every occupied core advances one quantum (through the standard
   ``run_cycles`` path, so the fast-step loop applies whenever no
   sanitizer is attached);
5. jobs whose committed instructions reached their service demand
   retire (completion is detected at quantum granularity, like an OS
   scheduler tick);
6. per-job telemetry snapshots (IPC proxy, IQ pressure, outstanding
   miss rate) are refreshed for the PAIRING policy;
7. the driver's own invariants are checked (conservation, single
   allocation, per-core capacity) — a breach raises
   :class:`DriverInvariantError` immediately.

Cores are stepped a *window* at a time: the ticks up to the next
possible allocation (the tick that admits the next pending arrival,
one tick while jobs wait, never past ``max_cycles``), during which a
core depends on its own jobs alone.  At a window's first tick each
occupied core's *owner* — the driver process, or a helper forked from
it (core *i* to owner *i* mod *P*, :func:`repro.experiments.parallel.
core_owners`) — runs steps 3-5 through the window and reports each
tick; the driver replays the reports tick by tick through steps 1, 2
and 5-7, so results are bit-identical at every *P*.

Determinism: a run is a pure function of its
:class:`MulticoreRunSpec`.  Arrivals derive from ``random.Random``
seeded by the spec, allocator randomness from ``crc32(seed, spec)``,
cores step deterministically, and every iteration order is explicit
(core index, job id) — so two identical runs produce identical
completion orders and identical export documents, and the experiment
engine (:func:`repro.experiments.parallel.execute_runs`) can memoise
results in the content-addressed result cache.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import SMTConfig
from repro.core.simulator import Simulator
from repro.isa.program import Program
from repro.multicore.alloc import (
    ALLOCATORS,
    AllocationError,
    Allocator,
    CoreView,
    make_allocator,
)
from repro.multicore.machine import build_core
from repro.workloads.mixes import cached_program
from repro.workloads.profiles import PROFILES, profile_names

#: States a job moves through (strictly forward).
QUEUED, RUNNING, DONE = "queued", "running", "done"

#: EWMA weight of the newest telemetry observation.
_TELEMETRY_ALPHA = 0.5

#: Outstanding-miss normalisation: 4+ in-flight misses saturate the
#: signal (matches MISSCOUNT's practical range).
_MISS_SCALE = 4.0


class DriverInvariantError(RuntimeError):
    """The driver's own bookkeeping broke an invariant.

    Distinct from the per-core
    :class:`~repro.verify.sanitizer.InvariantViolation`: this guards
    the allocation layer (job conservation, single placement, capacity
    bounds), not the pipeline.
    """

    def __init__(self, message: str, details: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.details = details or {}


# ----------------------------------------------------------------------
# Job specification and arrival processes.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One job of the open system, fully specified and picklable."""

    job_id: int
    arrival_cycle: int
    profile: str                   # workload profile name
    service_instructions: int      # committed instructions to completion
    workload_seed: int = 0

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown workload profile {self.profile!r}; valid: "
                f"{', '.join(profile_names())}"
            )
        if self.arrival_cycle < 0:
            raise ValueError("arrival_cycle must be >= 0")
        if self.service_instructions < 1:
            raise ValueError("service_instructions must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ArrivalConfig:
    """A seeded open-system arrival process.

    ``rate_per_kcycle`` is the mean arrival rate (jobs per 1000
    cycles); interarrival gaps are exponential, profiles are drawn
    uniformly from ``profiles`` (default: the full benchmark set), and
    everything derives from ``seed``.
    """

    jobs: int
    rate_per_kcycle: float
    service_instructions: int
    seed: int = 0
    profiles: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("arrival config needs at least one job")
        if self.rate_per_kcycle <= 0:
            raise ValueError("arrival rate must be positive")
        if self.service_instructions < 1:
            raise ValueError("service_instructions must be >= 1")
        for name in self.profiles or ():
            if name not in PROFILES:
                raise ValueError(
                    f"unknown workload profile {name!r}; valid: "
                    f"{', '.join(profile_names())}"
                )


def generate_arrivals(config: ArrivalConfig) -> Tuple[JobSpec, ...]:
    """Derive the job list an :class:`ArrivalConfig` describes (pure)."""
    import random

    rng = random.Random(0xA11C0000 ^ config.seed)
    names = config.profiles or profile_names()
    mean_gap = 1000.0 / config.rate_per_kcycle
    clock = 0.0
    specs = []
    for job_id in range(config.jobs):
        clock += rng.expovariate(1.0 / mean_gap)
        specs.append(JobSpec(
            job_id=job_id,
            arrival_cycle=int(clock),
            profile=rng.choice(names),
            service_instructions=config.service_instructions,
            workload_seed=0,
        ))
    return tuple(specs)


def load_trace(path: str) -> Tuple[JobSpec, ...]:
    """Load a JSONL arrival trace.

    One JSON object per line: ``{"arrival": int, "profile": str,
    "service": int}`` with optional ``"seed"`` (workload generator
    seed).  Job ids are assigned in file order.
    """
    specs = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}")
            try:
                specs.append(JobSpec(
                    job_id=len(specs),
                    arrival_cycle=int(record["arrival"]),
                    profile=record["profile"],
                    service_instructions=int(record["service"]),
                    workload_seed=int(record.get("seed", 0)),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad trace record: {exc}")
    if not specs:
        raise ValueError(f"{path}: empty arrival trace")
    return tuple(specs)


# ----------------------------------------------------------------------
# Run specification (the cacheable identity of one driver run).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MulticoreRunSpec:
    """One open-system multicore run, fully specified and picklable.

    Exactly one of ``arrival`` / ``trace`` supplies the jobs.  The
    ``config`` template's ``n_threads`` is the per-core context
    capacity; every other field carries through to each core.  A job of
    the experiment engine (see :class:`~repro.experiments.parallel.RunSpec`).
    """

    kind: ClassVar[str] = "multicore"

    n_cores: int
    allocator: str
    config: SMTConfig
    quantum: int = 200
    max_cycles: int = 200_000
    seed: int = 0
    arrival: Optional[ArrivalConfig] = None
    trace: Optional[Tuple[JobSpec, ...]] = None
    check_invariants: bool = False

    def __post_init__(self):
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if self.quantum < 1:
            raise ValueError("quantum must be >= 1")
        if self.max_cycles < self.quantum:
            raise ValueError("max_cycles must cover at least one quantum")
        if (self.arrival is None) == (self.trace is None):
            raise ValueError(
                "exactly one of arrival / trace must supply the jobs"
            )
        # Fail on unknown allocators at construction time, with the
        # registry's message (mirrors SMTConfig's fetch-policy check).
        ALLOCATORS.validate(self.allocator)

    # ------------------------------------------------------------------
    def jobs(self) -> Tuple[JobSpec, ...]:
        if self.trace is not None:
            return self.trace
        return generate_arrivals(self.arrival)

    def fingerprint(self) -> Dict[str, Any]:
        """Everything that determines the run, canonically serialised
        (the document-cache key hashes this)."""
        return {
            "n_cores": self.n_cores,
            "allocator": self.allocator,
            "config": dataclasses.asdict(self.config),
            "quantum": self.quantum,
            "max_cycles": self.max_cycles,
            "seed": self.seed,
            "check_invariants": self.check_invariants,
            "jobs": [spec.to_dict() for spec in self.jobs()],
            # Workload generator identity: profile knobs feed the
            # programs, so recalibration invalidates cached runs.
            "profiles": {
                name: dataclasses.asdict(PROFILES[name])
                for name in sorted({s.profile for s in self.jobs()})
            },
        }

    def key(self) -> str:
        from repro.experiments.cache import multicore_key

        return multicore_key(self)

    def label(self) -> str:
        source = (f"rate{self.arrival.rate_per_kcycle:g}" if self.arrival
                  else f"trace{len(self.trace)}")
        return f"{self.allocator}/C{self.n_cores}/{source}"

    def to_payload(self) -> Dict[str, Any]:
        """The spec as journal JSON, tagged with its ``kind``."""
        return dict(dataclasses.asdict(self), kind=self.kind)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "MulticoreRunSpec":
        fields = {k: v for k, v in payload.items() if k != "kind"}
        fields["config"] = SMTConfig(**fields["config"])
        arrival, trace = fields["arrival"], fields["trace"]
        if arrival is not None:
            profiles = arrival["profiles"]
            fields["arrival"] = ArrivalConfig(**dict(arrival, profiles=(
                None if profiles is None else tuple(profiles))))
        if trace is not None:
            fields["trace"] = tuple(JobSpec(**job) for job in trace)
        return cls(**fields)

    def programs(self) -> List[Program]:
        """The distinct workload programs the jobs run.  They are
        memoised per process, so a child forked after this call
        inherits them instead of generating them again."""
        needed = dict.fromkeys((job.profile, job.workload_seed)
                               for job in self.jobs())
        return [cached_program(profile, seed) for profile, seed in needed]

    def run(self) -> "MulticoreResult":
        return OpenSystemDriver(self).run()


# ----------------------------------------------------------------------
# Runtime records.
# ----------------------------------------------------------------------
class Job:
    """Mutable runtime state of one :class:`JobSpec`."""

    __slots__ = ("spec", "state", "core", "start_cycle",
                 "finish_cycle", "committed", "telemetry", "telemetry_base")

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.state = QUEUED          # becomes RUNNING, then DONE
        self.core: Optional[int] = None
        self.start_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None
        self.committed = 0
        #: Signal snapshot for PAIRING (EWMA over quanta the job ran).
        self.telemetry: Dict[str, float] = {"ipc": 0.0, "iq": 0.0,
                                            "miss": 0.0}
        #: ``committed`` at the last telemetry update.
        self.telemetry_base = 0.0

    @property
    def job_id(self) -> int:
        return self.spec.job_id


class CoreState:
    """One core's slot bookkeeping and usage counters, and — in the
    process that owns the core — its simulator."""

    __slots__ = ("index", "capacity", "resident", "reports", "signals",
                 "busy_cycles", "cycles", "commits", "jobs_served",
                 "sim", "built_for", "counts")

    def __init__(self, index: int, capacity: int):
        self.index = index
        self.capacity = capacity
        self.resident: List[Job] = []
        #: The current window's reports for the ticks not yet replayed.
        self.reports: Deque[Any] = deque()
        #: The replayed tick's telemetry signals (None: idle or retired).
        self.signals: Optional[Tuple[int, List[int], List[int]]] = None
        self.busy_cycles = 0
        self.cycles = 0
        self.commits = 0
        self.jobs_served = 0
        # Owner side: None in the driver process for helper-owned cores.
        self.sim: Optional[Simulator] = None
        self.built_for: Tuple[int, ...] = ()   # job ids ``sim`` runs
        self.counts: List[int] = []            # committed, per thread

    def view(self) -> CoreView:
        return CoreView(
            index=self.index,
            resident=len(self.resident),
            capacity=self.capacity,
            telemetry=tuple(dict(job.telemetry) for job in self.resident),
        )

    # ------------------------------------------------------------------
    # Owner side.
    # ------------------------------------------------------------------
    def step_window(self, jobs: List[Tuple[JobSpec, int]], ticks: int,
                    spec: "MulticoreRunSpec",
                    parent: Optional[int] = None) -> List[Any]:
        """Simulate this core for up to ``ticks`` quanta, given its
        resident ``(JobSpec, committed)`` pairs in allocation order, and
        return one report per occupied tick: ``(committed per job,
        signals)`` (see :func:`_signals`; None if a job retired), or the
        exception the core stopped on.  In a helper, ``parent`` is the
        driver's pid, checked between quanta."""
        reports: List[Any] = []
        try:
            while jobs and len(reports) < ticks:
                if parent is not None and os.getppid() != parent:
                    os._exit(1)
                if tuple(job.job_id for job, _ in jobs) != self.built_for:
                    self._build(jobs, spec)
                self.sim.run_cycles(spec.quantum)
                counts = list(self.counts)
                jobs = [(job, count) for (job, _), count in zip(jobs, counts)
                        if count < job.service_instructions]
                reports.append((counts, None if len(jobs) < len(counts)
                                else _signals(self.sim)))
        except Exception as exc:  # noqa: BLE001 - the driver re-raises it
            reports.append(exc)
            jobs = []
        if not jobs:
            self.sim, self.built_for = None, ()
        return reports

    def _build(self, jobs: List[Tuple[JobSpec, int]],
               spec: "MulticoreRunSpec") -> None:
        programs = [cached_program(job.profile, job.workload_seed)
                    for job, _ in jobs]
        sim = build_core(spec.config, programs,
                         check_invariants=spec.check_invariants)
        counts = self.counts = [count for _, count in jobs]

        def on_commit(uop, _counts=counts):
            _counts[uop.tid] += 1

        sim.add_commit_listener(on_commit)
        self.sim = sim
        self.built_for = tuple(job.job_id for job, _ in jobs)


def _signals(sim: Simulator) -> Tuple[int, List[int], List[int]]:
    """PAIRING's raw signals after a quantum: the issue queues' total
    capacity, and per thread its IQ entries and outstanding misses
    (``misscount`` prunes completed misses, so it is read only here)."""
    owned = [0] * len(sim.threads)
    for queue in (sim.int_queue, sim.fp_queue):
        for uop in queue.entries:
            owned[uop.tid] += 1
    return (sim.int_queue.capacity + sim.fp_queue.capacity, owned,
            [thread.misscount(sim.cycle) for thread in sim.threads])


def _serve(conn: Any, parent: int, cores: List[CoreState],
           spec: "MulticoreRunSpec") -> None:
    """A helper process: simulate each window the driver sends for the
    cores this helper owns, until the driver stops it or is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        while not conn.poll(1.0):
            if os.getppid() != parent:
                return
        try:
            ticks, work = conn.recv()
        except EOFError:     # the driver is gone
            return
        conn.send({index: cores[index].step_window(jobs, ticks, spec, parent)
                   for index, jobs in work.items()})


def _stop_helpers(helpers: Dict[int, Any]) -> None:
    """Stop and reap a driver's helper processes (idempotent)."""
    while helpers:
        _, (process, conn) = helpers.popitem()
        process.terminate()
        process.join()
        conn.close()


# ----------------------------------------------------------------------
# Results.
# ----------------------------------------------------------------------
def percentiles(values: Sequence[float],
                points=(50, 90, 99)) -> Dict[str, float]:
    """Nearest-rank percentiles (deterministic; empty input -> zeros)."""
    out = {}
    ordered = sorted(values)
    n = len(ordered)
    for p in points:
        if not n:
            out[f"p{p}"] = 0.0
            continue
        rank = max(1, -(-p * n // 100))  # ceil(p/100 * n)
        out[f"p{p}"] = float(ordered[min(rank, n) - 1])
    return out


@dataclass
class JobRecord:
    """One job's lifecycle, in cycles."""

    job_id: int
    profile: str
    arrival: int
    start: Optional[int]
    finish: Optional[int]
    committed: int
    core: Optional[int]

    @property
    def queue_cycles(self) -> Optional[int]:
        return None if self.start is None else self.start - self.arrival

    @property
    def service_cycles(self) -> Optional[int]:
        if self.start is None or self.finish is None:
            return None
        return self.finish - self.start

    @property
    def total_cycles(self) -> Optional[int]:
        return None if self.finish is None else self.finish - self.arrival

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id, "profile": self.profile,
            "arrival": self.arrival, "start": self.start,
            "finish": self.finish, "committed": self.committed,
            "core": self.core,
        }


@dataclass
class CoreUsage:
    core: int
    busy_cycles: int
    cycles: int
    commits: int
    jobs_served: int

    @property
    def utilization(self) -> float:
        return self.busy_cycles / self.cycles if self.cycles else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "core": self.core, "busy_cycles": self.busy_cycles,
            "cycles": self.cycles, "commits": self.commits,
            "jobs_served": self.jobs_served,
            "utilization": round(self.utilization, 6),
        }


@dataclass
class MulticoreResult:
    """Everything one open-system run produces."""

    allocator: str
    n_cores: int
    contexts_per_core: int
    quantum: int
    seed: int
    cycles: int
    jobs_total: int
    jobs_completed: int
    completion_order: List[int]
    jobs: List[JobRecord]
    cores: List[CoreUsage]

    # ------------------------------------------------------------------
    @property
    def unfinished(self) -> int:
        return self.jobs_total - self.jobs_completed

    @property
    def throughput_per_kcycle(self) -> float:
        if not self.cycles:
            return 0.0
        return 1000.0 * self.jobs_completed / self.cycles

    @property
    def mean_utilization(self) -> float:
        if not self.cores:
            return 0.0
        return sum(c.utilization for c in self.cores) / len(self.cores)

    def latency(self) -> Dict[str, Dict[str, float]]:
        """Queue/service/total latency percentiles over completed jobs."""
        done = [j for j in self.jobs if j.finish is not None]
        return {
            "queue": percentiles([j.queue_cycles for j in done]),
            "service": percentiles([j.service_cycles for j in done]),
            "total": percentiles([j.total_cycles for j in done]),
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "allocator": self.allocator,
            "n_cores": self.n_cores,
            "contexts_per_core": self.contexts_per_core,
            "quantum": self.quantum,
            "seed": self.seed,
            "cycles": self.cycles,
            "jobs_total": self.jobs_total,
            "jobs_completed": self.jobs_completed,
            "unfinished": self.unfinished,
            "completion_order": list(self.completion_order),
            "throughput_per_kcycle": round(self.throughput_per_kcycle, 6),
            "mean_utilization": round(self.mean_utilization, 6),
            "latency": self.latency(),
            "jobs": [j.to_dict() for j in self.jobs],
            "cores": [c.to_dict() for c in self.cores],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MulticoreResult":
        jobs = [JobRecord(
            job_id=j["job_id"], profile=j["profile"], arrival=j["arrival"],
            start=j["start"], finish=j["finish"], committed=j["committed"],
            core=j["core"],
        ) for j in data["jobs"]]
        cores = [CoreUsage(
            core=c["core"], busy_cycles=c["busy_cycles"],
            cycles=c["cycles"], commits=c["commits"],
            jobs_served=c["jobs_served"],
        ) for c in data["cores"]]
        return cls(
            allocator=data["allocator"], n_cores=data["n_cores"],
            contexts_per_core=data["contexts_per_core"],
            quantum=data["quantum"], seed=data["seed"],
            cycles=data["cycles"], jobs_total=data["jobs_total"],
            jobs_completed=data["jobs_completed"],
            completion_order=list(data["completion_order"]),
            jobs=jobs, cores=cores,
        )

    def summary(self) -> str:
        latency = self.latency()
        return (
            f"{self.allocator} x{self.n_cores}: "
            f"{self.jobs_completed}/{self.jobs_total} jobs in "
            f"{self.cycles} cycles, "
            f"p50/p99 latency {latency['total']['p50']:.0f}/"
            f"{latency['total']['p99']:.0f} cyc, "
            f"util {self.mean_utilization:.0%}, "
            f"{self.throughput_per_kcycle:.2f} jobs/kcyc"
        )


# ----------------------------------------------------------------------
# The driver.
# ----------------------------------------------------------------------
class OpenSystemDriver:
    """Runs one :class:`MulticoreRunSpec` to completion."""

    def __init__(self, spec: MulticoreRunSpec):
        self.spec = spec
        self.allocator: Allocator = make_allocator(
            spec.allocator, seed=spec.seed
        )
        self.capacity = spec.config.n_threads
        self.cores = [
            CoreState(i, self.capacity) for i in range(spec.n_cores)
        ]
        self.jobs = [Job(s) for s in sorted(
            spec.jobs(), key=lambda s: (s.arrival_cycle, s.job_id)
        )]
        if len({job.job_id for job in self.jobs}) != len(self.jobs):
            raise ValueError("duplicate job ids in the arrival set")
        self._pending: List[Job] = list(self.jobs)   # not yet arrived
        self._queue: List[Job] = []
        self.clock = 0
        self.completion_order: List[int] = []
        self.allocations = 0
        #: Processes that step cores (*P*), decided at the first window.
        self._owners: Optional[int] = None
        self._window_left = 0        # ticks of the window not yet replayed
        #: Owner index -> (process, connection) of each forked helper.
        self._helpers: Dict[int, Tuple[Any, Any]] = {}
        weakref.finalize(self, _stop_helpers, self._helpers)

    # ------------------------------------------------------------------
    # Per-tick phases.
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        while self._pending and \
                self._pending[0].spec.arrival_cycle <= self.clock:
            self._queue.append(self._pending.pop(0))

    def _allocate(self) -> None:
        while self._queue:
            views = [core.view() for core in self.cores]
            if not any(view.free > 0 for view in views):
                break
            job = self._queue[0]
            choice = self.allocator.choose(job, views)
            if not 0 <= choice < len(self.cores):
                raise AllocationError(
                    f"allocator {self.allocator.spec!r} chose core "
                    f"{choice} of {len(self.cores)}"
                )
            core = self.cores[choice]
            if len(core.resident) >= core.capacity:
                raise AllocationError(
                    f"allocator {self.allocator.spec!r} chose full core "
                    f"{choice}"
                )
            self._queue.pop(0)
            job.state = RUNNING
            job.core = choice
            job.start_cycle = self.clock
            core.resident.append(job)
            self.allocations += 1

    def _step_window(self) -> None:
        """Have each occupied core's owner simulate it through the window
        that starts at this tick, and queue the reports for replay."""
        spec = self.spec
        if self._queue:
            ticks = 1                # a retirement may admit the next job
        else:
            horizon = spec.max_cycles
            if self._pending:
                horizon = min(horizon, self._pending[0].spec.arrival_cycle)
            ticks = max(1, -(-(horizon - self.clock) // spec.quantum))
        if self._owners is None:
            from repro.experiments.parallel import core_owners

            self._owners = core_owners(len(self.cores))
        work: Dict[int, Dict[int, List[Tuple[JobSpec, int]]]] = {}
        for core in self.cores:
            if core.resident:
                work.setdefault(core.index % self._owners, {})[core.index] = [
                    (job.spec, job.committed) for job in core.resident]
        local = work.pop(0, {})
        try:
            for owner, cores in work.items():
                self._helper(owner).send((ticks, cores))
            reports = {index: self.cores[index].step_window(jobs, ticks, spec)
                       for index, jobs in local.items()}
            for owner in work:
                reports.update(self._helpers[owner][1].recv())
        except (EOFError, OSError) as exc:
            raise RuntimeError("a core-stepping helper process failed") from exc
        for index, window in reports.items():
            self.cores[index].reports = deque(window)
        self._window_left = ticks

    def _helper(self, owner: int) -> Any:
        """The connection to ``owner``'s helper process, forked the first
        time the owner is given a core."""
        if owner not in self._helpers:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_serve, name=f"core-owner-{owner}", daemon=True,
                args=(theirs, os.getpid(), self.cores, self.spec))
            process.start()
            theirs.close()
            self._helpers[owner] = (process, ours)
        return self._helpers[owner][1]

    def _replay(self) -> None:
        """Advance every core one quantum from its window's reports."""
        quantum = self.spec.quantum
        for core in self.cores:
            core.cycles += quantum
            core.signals = None
            if not core.reports:
                continue
            report = core.reports.popleft()
            if isinstance(report, Exception):
                raise report
            core.busy_cycles += quantum
            committed, core.signals = report
            for job, count in zip(core.resident, committed):
                core.commits += count - job.committed
                job.committed = count

    def _retire(self) -> None:
        for core in self.cores:
            finished = [
                job for job in core.resident
                if job.committed >= job.spec.service_instructions
            ]
            for job in finished:
                core.resident.remove(job)
                core.jobs_served += 1
                job.state = DONE
                job.finish_cycle = self.clock + self.spec.quantum
                self.completion_order.append(job.job_id)

    def _update_telemetry(self) -> None:
        alpha = _TELEMETRY_ALPHA
        quantum = self.spec.quantum
        for core in self.cores:
            if core.signals is None:
                # Idle, or a retirement already invalidated tids this
                # tick; the survivors refresh next quantum on the
                # rebuilt core.
                continue
            capacity, owned, misses = core.signals
            for tid, job in enumerate(core.resident):
                delta = job.committed - job.telemetry_base
                observed = {
                    "ipc": delta / quantum,
                    "iq": owned[tid] / capacity if capacity else 0.0,
                    "miss": min(1.0, misses[tid] / _MISS_SCALE),
                }
                for key, value in observed.items():
                    old = job.telemetry.get(key, 0.0)
                    job.telemetry[key] = (1 - alpha) * old + alpha * value
                job.telemetry_base = float(job.committed)

    # ------------------------------------------------------------------
    # Driver invariants (the allocation layer's own sanitizer).
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`DriverInvariantError` on any bookkeeping breach.

        Checked every tick; also callable from tests after injecting
        corruption (double allocation, lost jobs) to prove the checks
        catch it.
        """
        placements: Dict[int, int] = {}
        for core in self.cores:
            if len(core.resident) > core.capacity:
                raise DriverInvariantError(
                    f"core {core.index} holds {len(core.resident)} jobs, "
                    f"capacity {core.capacity}",
                    {"core": core.index},
                )
            for job in core.resident:
                if job.job_id in placements:
                    raise DriverInvariantError(
                        f"job {job.job_id} resident on cores "
                        f"{placements[job.job_id]} and {core.index} "
                        f"(double allocation)",
                        {"job": job.job_id},
                    )
                placements[job.job_id] = core.index
                if job.state != RUNNING or job.core != core.index:
                    raise DriverInvariantError(
                        f"job {job.job_id} resident on core {core.index} "
                        f"but state={job.state!r} core={job.core!r}",
                        {"job": job.job_id},
                    )
        queued = {job.job_id for job in self._queue}
        pending = {job.job_id for job in self._pending}
        for job in self.jobs:
            jid = job.job_id
            placed = jid in placements
            states = [jid in pending, jid in queued, placed,
                      job.state == DONE]
            if sum(states) != 1:
                where = ("pending" if states[0] else "",
                         "queued" if states[1] else "",
                         "running" if states[2] else "",
                         "done" if states[3] else "")
                raise DriverInvariantError(
                    f"job {jid} conservation breach: present in "
                    f"{[w for w in where if w] or ['nowhere']} "
                    f"(exactly one expected)",
                    {"job": jid, "state": job.state},
                )
            if job.state == RUNNING and not placed:
                raise DriverInvariantError(
                    f"job {jid} is RUNNING but resident on no core "
                    f"(lost on core drain)",
                    {"job": jid},
                )
            if job.state == DONE and (job.finish_cycle is None
                                      or job.start_cycle is None
                                      or job.finish_cycle < job.start_cycle
                                      or job.start_cycle
                                      < job.spec.arrival_cycle):
                raise DriverInvariantError(
                    f"job {jid} finished with inconsistent timeline "
                    f"(arrival {job.spec.arrival_cycle}, start "
                    f"{job.start_cycle}, finish {job.finish_cycle})",
                    {"job": jid},
                )

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One driver quantum (admit, allocate, step, retire, check).

        The first tick of a window simulates the whole window; helpers
        are stopped once the last job retires or anything raises.
        """
        try:
            self._admit()
            self._allocate()
            if not self._window_left:
                self._step_window()
            self._window_left -= 1
            self._replay()
            self._retire()
            self._update_telemetry()
            self.clock += self.spec.quantum
            self.check_invariants()
        except BaseException:
            _stop_helpers(self._helpers)
            raise
        if self._helpers and self.done():
            _stop_helpers(self._helpers)

    def done(self) -> bool:
        return all(job.state == DONE for job in self.jobs)

    # ------------------------------------------------------------------
    def run(self) -> MulticoreResult:
        while not self.done() and self.clock < self.spec.max_cycles:
            self.tick()
        _stop_helpers(self._helpers)
        return self.result()

    # ------------------------------------------------------------------
    def result(self) -> MulticoreResult:
        records = [
            JobRecord(
                job_id=job.job_id,
                profile=job.spec.profile,
                arrival=job.spec.arrival_cycle,
                start=job.start_cycle,
                finish=job.finish_cycle,
                committed=job.committed,
                core=job.core,
            )
            for job in sorted(self.jobs, key=lambda j: j.job_id)
        ]
        usage = [
            CoreUsage(
                core=core.index, busy_cycles=core.busy_cycles,
                cycles=core.cycles, commits=core.commits,
                jobs_served=core.jobs_served,
            )
            for core in self.cores
        ]
        return MulticoreResult(
            allocator=self.spec.allocator,
            n_cores=self.spec.n_cores,
            contexts_per_core=self.capacity,
            quantum=self.spec.quantum,
            seed=self.spec.seed,
            cycles=self.clock,
            jobs_total=len(self.jobs),
            jobs_completed=sum(1 for j in self.jobs if j.state == DONE),
            completion_order=list(self.completion_order),
            jobs=records,
            cores=usage,
        )
