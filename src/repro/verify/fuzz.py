"""Differential fuzzing of the timing pipeline against the oracle.

Each fuzz *case* is a seed-derived point in (machine configuration x
workload mix x run length) space.  Running a case builds the simulator,
attaches a :class:`~repro.verify.sanitizer.PipelineSanitizer` (which
holds per-thread shadow emulators in lockstep with the committed
stream), and steps the machine; any structural invariant breach or
architectural divergence surfaces as a failing
:class:`FuzzOutcome`.

Failures are *shrunk*: a greedy pass repeatedly simplifies the case
toward the default configuration — fewer cycles, fewer threads, knobs
back to their defaults — keeping each simplification only if the case
still fails.  The minimal reproducer is written into the committed
``tests/corpus/`` golden-regression directory (schema-versioned JSON)
which the test suite replays forever after.

The multicore allocation surface (:class:`MulticoreFuzzCase`: core
counts x allocator specs x arrival streams, every core sanitized and the
driver's invariants armed) runs through the same campaign loop with
``multicore=True``; its cases are not shrunk.

Determinism: a case is a pure function of its seed, and running a case
is a pure function of the case, so any corpus entry or reported seed
reproduces exactly.

Entry points: ``repro fuzz [--multicore]`` (CLI, which CI runs), or
:func:`fuzz_run` directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import (
    FETCH_POLICIES,
    ISSUE_POLICIES,
    SPECULATION_MODES,
    SMTConfig,
)
from repro.core.simulator import SimulationAborted, Simulator, Watchdog
from repro.experiments import export
from repro.experiments.supervise import Supervisor, TaskOutcome
from repro.sched.journal import JournalWriter, read_records
from repro.verify.sanitizer import InvariantViolation, PipelineSanitizer
from repro.workloads.profiles import PROFILES, profile_names

#: The fetch-policy config space: every static policy plus adaptive
#: meta-policy specs (short intervals so several switch decisions land
#: inside a fuzz-length run).  Shrinking simplifies towards "RR".
FUZZ_FETCH_POLICIES = FETCH_POLICIES + (
    "HYSTERESIS:interval=120,dwell=2",
    "BANDIT:interval=100",
    "BANDIT:interval=100,mode=ucb",
    "TOURNAMENT:ICOUNT/BRCOUNT:interval=100",
)

#: A case that runs this many cycles with zero commits is reported as
#: stalled (a forward-progress bug) rather than ok.
_STALL_CYCLES = 1000


# ----------------------------------------------------------------------
# Case definition and generation.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCase:
    """One differential-fuzz point, fully specified and picklable."""

    seed: int
    n_threads: int
    fetch_policy: str
    fetch_threads: int
    fetch_per_thread: int
    issue_policy: str
    bigq: bool
    itag: bool
    smt_pipeline: bool
    optimistic_issue: bool
    speculation: str
    excess_registers: int
    perfect_branch_prediction: bool
    infinite_fus: bool
    infinite_memory_bandwidth: bool
    workload_names: Tuple[str, ...]
    workload_seed: int
    functional_warmup: int
    max_cycles: int
    check_interval: int = 1

    # ------------------------------------------------------------------
    def config(self) -> SMTConfig:
        return SMTConfig(
            n_threads=self.n_threads,
            fetch_policy=self.fetch_policy,
            fetch_threads=self.fetch_threads,
            fetch_per_thread=self.fetch_per_thread,
            issue_policy=self.issue_policy,
            bigq=self.bigq,
            itag=self.itag,
            smt_pipeline=self.smt_pipeline,
            optimistic_issue=self.optimistic_issue,
            speculation=self.speculation,
            excess_registers=self.excess_registers,
            perfect_branch_prediction=self.perfect_branch_prediction,
            infinite_fus=self.infinite_fus,
            infinite_memory_bandwidth=self.infinite_memory_bandwidth,
            # Adaptive meta-policies derive their exploration RNG from
            # the config seed, keeping each case a pure function of it.
            seed=self.seed,
        )

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["workload_names"] = list(self.workload_names)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown fuzz-case fields: {sorted(unknown)}")
        data = dict(data)
        data["workload_names"] = tuple(data["workload_names"])
        return cls(**data)

    def content_hash(self) -> str:
        """Stable identity (used to name corpus files)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def generate_case(seed: int, max_cycles: int = 3000,
                  check_interval: int = 1) -> FuzzCase:
    """Derive a random case from ``seed`` (pure: same seed, same case)."""
    rng = random.Random(0x5EED0000 + seed)
    n_threads = rng.choice((1, 1, 2, 2, 3, 4, 4, 6, 8))
    names = profile_names()
    workloads = tuple(rng.choice(names) for _ in range(n_threads))
    return FuzzCase(
        seed=seed,
        n_threads=n_threads,
        fetch_policy=rng.choice(FUZZ_FETCH_POLICIES),
        fetch_threads=rng.choice((1, 1, 2, 2, 2, 4)),
        fetch_per_thread=rng.choice((2, 4, 8, 8)),
        issue_policy=rng.choice(ISSUE_POLICIES),
        bigq=rng.random() < 0.25,
        itag=rng.random() < 0.25,
        smt_pipeline=rng.random() >= 0.15,
        optimistic_issue=rng.random() >= 0.15,
        speculation=rng.choice(
            SPECULATION_MODES if rng.random() < 0.3 else ("full",)
        ),
        excess_registers=rng.choice((32, 64, 100, 100, 200)),
        perfect_branch_prediction=rng.random() < 0.1,
        infinite_fus=rng.random() < 0.1,
        infinite_memory_bandwidth=rng.random() < 0.1,
        workload_names=workloads,
        workload_seed=rng.randrange(4),
        functional_warmup=rng.choice((0, 0, 2000, 5000)),
        max_cycles=max_cycles,
        check_interval=check_interval,
    )


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
@dataclass
class FuzzOutcome:
    """What happened when a case ran."""

    ok: bool
    status: str                      # "ok" | "violation" | "error" | "stalled"
    cycles_run: int
    commits: int
    violation: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def describe(self) -> str:
        if self.status == "ok":
            return (f"ok ({self.commits} commits over "
                    f"{self.cycles_run} cycles)")
        if self.status == "violation":
            return str(InvariantViolation.from_dict(self.violation))
        if self.status == "stalled":
            return (f"stalled: zero commits over {self.cycles_run} cycles")
        return f"error: {self.error}"


def build_case_simulator(case: FuzzCase) -> Simulator:
    from repro.workloads.synthetic import generate_program

    programs = [
        generate_program(PROFILES[name], seed=case.workload_seed)
        for name in case.workload_names
    ]
    return Simulator(case.config(), programs)


def run_case(case: FuzzCase,
             watchdog: Optional[Watchdog] = None) -> FuzzOutcome:
    """Run one case under the sanitizer; never raises on a sim bug.

    A campaign-supervisor ``watchdog`` attaches as the simulator's abort
    hook; its :class:`SimulationAborted` is *not* a sim bug and
    propagates, so the supervisor records a structured timeout failure.
    """
    try:
        sim = build_case_simulator(case)
        sanitizer = PipelineSanitizer(
            sim, check_oracle=True, check_interval=case.check_interval,
        )
        if watchdog is not None:
            watchdog.attach(sim)
        if case.functional_warmup:
            sim.functional_warmup(case.functional_warmup)
        for _ in range(case.max_cycles):
            sim.step()
    except SimulationAborted:
        raise
    except InvariantViolation as violation:
        return FuzzOutcome(
            ok=False, status="violation", cycles_run=sim.cycle,
            commits=sanitizer.commits_checked,
            violation=violation.to_dict(),
        )
    except Exception as exc:  # noqa: BLE001 - the fuzzer reports anything
        return FuzzOutcome(
            ok=False, status="error", cycles_run=0, commits=0,
            error=f"{type(exc).__name__}: {exc}",
        )
    commits = sanitizer.commits_checked
    if commits == 0 and case.max_cycles >= _STALL_CYCLES:
        return FuzzOutcome(
            ok=False, status="stalled", cycles_run=sim.cycle, commits=0,
        )
    return FuzzOutcome(
        ok=True, status="ok", cycles_run=sim.cycle, commits=commits,
    )


# ----------------------------------------------------------------------
# Shrinking.
# ----------------------------------------------------------------------
def _cycle_reductions(case: FuzzCase,
                      outcome: FuzzOutcome) -> List[FuzzCase]:
    candidates = []
    if outcome.violation is not None:
        at = outcome.violation.get("cycle", case.max_cycles)
        if at + 1 < case.max_cycles:
            candidates.append(dataclasses.replace(case, max_cycles=at + 1))
    if case.max_cycles > 50:
        candidates.append(
            dataclasses.replace(case, max_cycles=case.max_cycles // 2)
        )
    return candidates


def _simplifications(case: FuzzCase) -> List[FuzzCase]:
    """Single-step simplifications toward the default machine."""
    out: List[FuzzCase] = []

    def simplify(**kwargs):
        candidate = dataclasses.replace(case, **kwargs)
        if candidate != case:
            out.append(candidate)

    if case.n_threads > 1:
        simplify(n_threads=case.n_threads - 1,
                 workload_names=case.workload_names[:-1])
    if case.functional_warmup:
        simplify(functional_warmup=0)
    simplify(bigq=False)
    simplify(itag=False)
    simplify(perfect_branch_prediction=False)
    simplify(infinite_fus=False)
    simplify(infinite_memory_bandwidth=False)
    simplify(speculation="full")
    simplify(issue_policy="OLDEST")
    simplify(fetch_policy="RR")
    simplify(optimistic_issue=True)
    simplify(smt_pipeline=True)
    simplify(fetch_threads=1, fetch_per_thread=8)
    simplify(excess_registers=100)
    simplify(workload_seed=0)
    simplify(check_interval=1)
    return out


def shrink_case(
    case: FuzzCase,
    runner: Callable[[FuzzCase], FuzzOutcome] = run_case,
    max_runs: int = 80,
) -> Tuple[FuzzCase, FuzzOutcome]:
    """Greedy shrink: keep any simplification that still fails.

    Returns the minimal failing case and its outcome.  If the input
    unexpectedly passes, it is returned unchanged with the passing
    outcome.
    """
    outcome = runner(case)
    runs = 1
    if outcome.ok:
        return case, outcome
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _cycle_reductions(case, outcome) + \
                _simplifications(case):
            if runs >= max_runs:
                break
            candidate_outcome = runner(candidate)
            runs += 1
            if not candidate_outcome.ok:
                case, outcome = candidate, candidate_outcome
                improved = True
                break
    return case, outcome


# ----------------------------------------------------------------------
# Corpus (committed golden-regression directory).
# ----------------------------------------------------------------------
def corpus_document(
    case: FuzzCase,
    violation: Optional[Dict[str, Any]] = None,
    note: str = "",
) -> Dict[str, Any]:
    """Schema-versioned corpus entry.

    ``violation`` records the breach that created the entry (provenance
    only); the replay test always asserts the case now runs clean.
    """
    return {
        "schema": export.FUZZ_CASE_SCHEMA,
        "schema_version": export.SCHEMA_VERSION,
        "case": case.to_dict(),
        "note": note,
        "found_violation": violation,
    }


def save_corpus_case(
    case: FuzzCase,
    directory: str,
    violation: Optional[Dict[str, Any]] = None,
    note: str = "",
) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"case-{case.content_hash()}.json")
    export.write(path, corpus_document(case, violation, note))
    return path


def load_corpus_case(path: str) -> Tuple[FuzzCase, Dict[str, Any]]:
    document = export.load(path, export.FUZZ_CASE_SCHEMA)
    return FuzzCase.from_dict(document["case"]), document


def corpus_paths(directory: str) -> List[str]:
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("case-") and name.endswith(".json")
    )


# ----------------------------------------------------------------------
# The fuzzing campaign driver.
# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    seed: int
    case: Any                   # minimal (shrunk) failing case
    outcome: FuzzOutcome
    original_case: Any
    corpus_path: Optional[str] = None


@dataclass
class FuzzSummary:
    seeds: int
    ok: int
    failures: List[FuzzFailure] = field(default_factory=list)
    total_commits: int = 0
    total_cycles: int = 0
    elapsed: float = 0.0
    skipped: int = 0     # seeds the journal already records

    @property
    def clean(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        verdict = "clean" if self.clean else \
            f"{len(self.failures)} FAILING case(s)"
        skipped = f", {self.skipped} resumed-skipped" if self.skipped else ""
        return (
            f"fuzz: {self.seeds} seeds, {self.ok} ok, {verdict}{skipped}; "
            f"{self.total_commits} commits checked over "
            f"{self.total_cycles} cycles in {self.elapsed:.1f}s"
        )


def _generate(seed: int, max_cycles: int, check_interval: int,
              multicore: bool) -> Any:
    if multicore:
        return generate_multicore_case(seed, max_cycles)
    return generate_case(seed, max_cycles, check_interval)


def _run_generated(args: Tuple[int, int, int, bool],
                   watchdog: Optional[Watchdog] = None) -> FuzzOutcome:
    case = _generate(*args)
    if isinstance(case, MulticoreFuzzCase):
        # The driver polls no watchdog: a supervisor's hard kill alone
        # bounds a multicore case, as it bounds a durable multicore cell.
        return run_multicore_case(case)
    return run_case(case, watchdog=watchdog)


def journaled_seeds(journal_dir: str,
                    multicore: bool = False) -> Dict[int, str]:
    """``{seed: status}`` for every ``seed`` record of one case space
    in a campaign directory's journal (empty if there is none).
    Multicore records carry ``"kind": "multicore"``, single-core ones
    no kind."""
    kind = "multicore" if multicore else None
    return {record["seed"]: str(record.get("status", "ok"))
            for record in read_records(journal_dir)
            if record.get("event") == "seed"
            and record.get("kind") == kind
            and isinstance(record.get("seed"), int)}


#: Statuses produced by the campaign supervisor (worker-level faults),
#: as opposed to in-process case verdicts.  They carry no violation and
#: must not be shrunk: replaying a hang in-process would hang the
#: shrinker itself.
_SUPERVISOR_STATUSES = frozenset(("timeout", "crash", "oom", "interrupted"))


def fuzz_run(
    seeds: int = 25,
    start_seed: int = 0,
    max_cycles: int = 3000,
    check_interval: int = 1,
    jobs: int = 1,
    shrink: bool = True,
    corpus_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    timeout: Optional[float] = None,
    journal_dir: Optional[str] = None,
    multicore: bool = False,
) -> FuzzSummary:
    """Run a fuzzing campaign over ``seeds`` consecutive seeds.

    Failing cases are shrunk to minimal reproducers and (when
    ``corpus_dir`` is set) written into the golden-regression corpus.
    With ``multicore`` the cases are :class:`MulticoreFuzzCase` instead;
    they are already tiny, so they are neither shrunk nor written to the
    corpus, and ``check_interval`` does not apply.

    Campaigns reuse the crash-isolated executor
    (:class:`~repro.experiments.supervise.Supervisor`): with ``jobs > 1``
    or a per-case ``timeout``, every case runs in its own worker
    process, so a hung or dying case becomes a structured failure
    instead of wedging the campaign.  ``journal_dir`` is a campaign
    directory: each seed is appended to its journal as a ``seed`` record
    the moment it finishes (an interrupted seed never is), and seeds it
    already records are skipped, so an interrupted campaign continues
    instead of restarting from seed 0.
    """
    started = time.perf_counter()
    say = log or (lambda _msg: None)
    executed = journaled_seeds(journal_dir, multicore) if journal_dir else {}
    all_seeds = range(start_seed, start_seed + seeds)
    seed_list = [s for s in all_seeds if s not in executed]
    work = [(s, max_cycles, check_interval, multicore) for s in seed_list]

    summary = FuzzSummary(seeds=seeds, ok=0,
                          skipped=len(all_seeds) - len(seed_list))
    if summary.skipped:
        say(f"resuming from {journal_dir}: "
            f"{summary.skipped} seed(s) already executed")

    journal = JournalWriter(journal_dir) if journal_dir else None
    outcomes: Dict[int, FuzzOutcome] = {}

    def settle(seed: int, outcome: FuzzOutcome) -> None:
        """Record a finished seed in the journal, then log it."""
        outcomes[seed] = outcome
        if journal is not None:
            entry = {"event": "seed", "seed": seed, "status": outcome.status}
            if multicore:
                entry["kind"] = "multicore"
            journal.append(entry)
        say(f"seed {seed}: {outcome.describe()}")

    def on_outcome(verdict: TaskOutcome) -> None:
        seed = int(verdict.key.split(":")[1])
        failure = verdict.failure
        outcome = verdict.result if failure is None else FuzzOutcome(
            ok=False, status=failure.kind, cycles_run=0, commits=0,
            error=failure.message,
        )
        if outcome.status == "interrupted":
            outcomes[seed] = outcome   # unrecorded: a rerun runs it again
        else:
            settle(seed, outcome)

    try:
        if work and (jobs > 1 or timeout):
            Supervisor(_run_generated, jobs=jobs, timeout=timeout,
                       on_outcome=on_outcome) \
                .run([(f"seed:{item[0]}", item) for item in work])
        else:
            for item in work:
                settle(item[0], _run_generated(item))
    finally:
        if journal is not None:
            journal.close()

    for seed in seed_list:
        outcome = outcomes[seed]
        summary.total_commits += outcome.commits
        summary.total_cycles += outcome.cycles_run
        if outcome.ok:
            summary.ok += 1
            continue
        case = _generate(seed, max_cycles, check_interval, multicore)
        say(f"seed {seed} FAILED: {outcome.describe()}")
        reproducer = not multicore and \
            outcome.status not in _SUPERVISOR_STATUSES
        minimal, minimal_outcome = (
            shrink_case(case) if shrink and reproducer else (case, outcome)
        )
        if minimal_outcome.ok:   # flaky shrink guard; keep the original
            minimal, minimal_outcome = case, outcome
        failure = FuzzFailure(
            seed=seed, case=minimal, outcome=minimal_outcome,
            original_case=case,
        )
        if corpus_dir and reproducer:
            failure.corpus_path = save_corpus_case(
                minimal, corpus_dir,
                violation=minimal_outcome.violation,
                note=f"shrunk from fuzz seed {seed}",
            )
            say(f"seed {seed}: minimal reproducer -> {failure.corpus_path}")
        summary.failures.append(failure)

    summary.elapsed = time.perf_counter() - started
    return summary


# ----------------------------------------------------------------------
# Multicore fuzzing: the allocation layer under the same sanitizers.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MulticoreFuzzCase:
    """One open-system multicore fuzz point (pure function of seed).

    Extends the fuzz config space with the multicore axes — core count
    and allocator spec — and runs the whole open-system driver with a
    :class:`PipelineSanitizer` on every core *and* the driver's own
    allocation-layer invariants armed every quantum.
    """

    seed: int
    n_cores: int
    contexts_per_core: int
    allocator: str
    jobs: int
    rate_per_kcycle: float
    service_instructions: int
    quantum: int
    max_cycles: int

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def run_spec(self):
        from repro.multicore.driver import ArrivalConfig, MulticoreRunSpec

        return MulticoreRunSpec(
            n_cores=self.n_cores,
            allocator=self.allocator,
            config=SMTConfig(n_threads=self.contexts_per_core,
                             seed=self.seed),
            quantum=self.quantum,
            max_cycles=self.max_cycles,
            seed=self.seed,
            arrival=ArrivalConfig(
                jobs=self.jobs,
                rate_per_kcycle=self.rate_per_kcycle,
                service_instructions=self.service_instructions,
                seed=self.seed,
            ),
            check_invariants=True,
        )


#: Allocator specs the multicore fuzzer draws from: every registry name
#: plus parameterised PAIRING corners.
def _multicore_fuzz_allocators() -> Tuple[str, ...]:
    from repro.multicore.alloc import allocator_names

    return allocator_names() + (
        "PAIRING:miss_weight=4.0",
        "PAIRING:miss_weight=0.0,iq_weight=2.0",
        "PAIRING:ipc_weight=1.0",
    )


def generate_multicore_case(seed: int,
                            max_cycles: int = 6000) -> MulticoreFuzzCase:
    """Derive a multicore case from ``seed`` (pure: same seed, same case)."""
    rng = random.Random(0x3C0DE000 + seed)
    return MulticoreFuzzCase(
        seed=seed,
        n_cores=rng.choice((1, 1, 2, 2, 3)),
        contexts_per_core=rng.choice((1, 2, 2)),
        allocator=rng.choice(_multicore_fuzz_allocators()),
        jobs=rng.choice((2, 3, 3, 4, 5)),
        rate_per_kcycle=rng.choice((0.5, 1.0, 2.0, 4.0)),
        service_instructions=rng.choice((100, 200, 300, 400)),
        quantum=rng.choice((100, 150, 200, 250)),
        max_cycles=max_cycles,
    )


def run_multicore_case(case: MulticoreFuzzCase) -> FuzzOutcome:
    """Run one multicore case under every sanitizer; never raises on a
    sim bug.

    Cores carry the pipeline sanitizer (structural invariants + shadow
    oracle), and the driver checks its allocation-layer invariants at
    the end of every quantum, so both a pipeline breach and an
    allocation-bookkeeping breach surface as failing outcomes.
    """
    from repro.multicore.driver import (
        DriverInvariantError,
        OpenSystemDriver,
    )

    try:
        driver = OpenSystemDriver(case.run_spec())
        result = driver.run()
    except InvariantViolation as violation:
        return FuzzOutcome(
            ok=False, status="violation", cycles_run=0, commits=0,
            violation=violation.to_dict(),
        )
    except DriverInvariantError as exc:
        return FuzzOutcome(
            ok=False, status="error", cycles_run=0, commits=0,
            error=f"DriverInvariantError: {exc}",
        )
    except Exception as exc:  # noqa: BLE001 - the fuzzer reports anything
        return FuzzOutcome(
            ok=False, status="error", cycles_run=0, commits=0,
            error=f"{type(exc).__name__}: {exc}",
        )
    commits = sum(core.commits for core in result.cores)
    if commits == 0 and case.max_cycles >= _STALL_CYCLES:
        return FuzzOutcome(
            ok=False, status="stalled", cycles_run=result.cycles, commits=0,
        )
    return FuzzOutcome(
        ok=True, status="ok", cycles_run=result.cycles, commits=commits,
    )
