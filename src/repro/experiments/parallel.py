"""Parallel experiment execution engine.

Every paper artifact (Figures 3-7, Tables 3-5, the Section 7 bottleneck
hunt) is assembled from dozens of independent ``(config, rotation)``
simulations.  This module shards those runs across a ``multiprocessing``
pool — each worker constructs its own :class:`Simulator` from a
picklable :class:`RunSpec` and returns a ``SimResult`` — and memoises
every result in the persistent on-disk cache of
:mod:`repro.experiments.cache`.

Determinism: a simulation is a pure function of its ``RunSpec`` (the
workload generator is seeded from stable content hashes, never from
process state), so the parallel path produces ``SimResult``s that are
field-identical to the serial path, and results are always returned in
spec order regardless of worker scheduling.

This module is the one place that decides how a batch runs.  The
study layer (figures, tables, Section 7, sweeps, the adaptive and
allocation studies) takes no engine options; :func:`configure` is the
one setter (the CLI's ``--jobs`` / ``--no-cache`` / ``--progress`` /
``--check-invariants`` and, in durable mode, ``--fabric-dir`` /
``--timeout`` / ``--max-retries``).  An option it leaves unset falls
back to ``REPRO_NO_CACHE`` or ``REPRO_CHECK_INVARIANTS``, then to the
defaults: serial, cache enabled, no progress, no sanitizer, durable
mode off.

:func:`execute_runs` is the engine's one entry.  Its front half serves
cache hits, dedupes the batch and reports progress; it hands the misses
to the serial loop or the pool here, or in durable mode to the fabric's
drain (:func:`repro.sched.fabric.drain_misses`), whose workers it forks
and bounds.  Only it also takes explicit ``jobs=`` / ``use_cache=`` /
``cache=`` / ``progress=`` arguments, which win over all of these (the
benchmark harness passes them).  The sanitizer option is resolved when
a :class:`RunSpec` is made, so it is part of each run's cache key.

The engine keeps one **persistent worker pool** alive across batches
(re-forked only when the worker count or the parent's warm-image store
changes) and amortises functional warmup through the process-level
warm-image store of :mod:`repro.workloads.images`.  A warm state that
several runs of a batch share is computed once in the pool parent,
inherited copy-on-write by every forked worker, and replayed per run
instead of re-emulated; a warm state only one run needs is computed by
the worker that runs it, so those warmups proceed in parallel.  Both
are transparent — results stay bit-identical to the reference
:func:`run_spec` path.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from operator import methodcaller
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
)

from repro.core.config import SMTConfig
from repro.core.simulator import SimResult, Simulator
from repro.envutil import env_flag
from repro.experiments.cache import (
    ResultCache,
    cache_enabled_by_default,
    result_key,
)
from repro.isa.program import Program
from repro.workloads import images
from repro.workloads.mixes import benchmark_rotation, standard_mix

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import RunBudget


# ----------------------------------------------------------------------
# Run specification.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully specified and picklable.

    A job of the engine, like
    :class:`~repro.multicore.driver.MulticoreRunSpec`: a ``kind``, the
    cache identity ``key()``, a report ``label()``, a journal codec
    (``to_payload()`` / ``from_payload()``) and ``run()``.
    """

    kind: ClassVar[str] = "run"

    config: SMTConfig
    rotation: int
    budget: "RunBudget"
    seed: int = 0
    #: Out-of-config override used by the MSHR sensitivity sweep.
    dcache_mshrs: Optional[int] = None
    #: Run with the pipeline invariant sanitizer attached.  Defaults to
    #: the engine option (:func:`default_check_invariants`), read when
    #: the spec is made.  The sanitizer is purely observational, but a
    #: checked run earns a distinct cache identity: a cached unchecked
    #: result says nothing about whether the run *would* pass the checks.
    check_invariants: bool = dataclasses.field(
        default_factory=lambda: default_check_invariants())

    def key(self) -> str:
        """The run's content hash (its identity in the result cache)."""
        extras = {}
        if self.dcache_mshrs is not None:
            extras["dcache_mshrs"] = self.dcache_mshrs
        if self.check_invariants:
            extras["check_invariants"] = True
        return result_key(
            self.config, self.rotation, self.budget,
            seed=self.seed, extras=extras,
        )

    def label(self) -> str:
        return (f"{self.config.scheme_name}/T{self.config.n_threads}"
                f"/rot{self.rotation}")

    def to_payload(self) -> Dict[str, Any]:
        """The spec as journal JSON.  It names no ``kind``: a payload
        without one is a run, so older journals replay unchanged."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RunSpec":
        from repro.experiments.runner import RunBudget

        return cls(
            config=SMTConfig(**payload["config"]),
            rotation=int(payload["rotation"]),
            budget=RunBudget(**payload["budget"]),
            seed=int(payload.get("seed", 0)),
            dcache_mshrs=payload.get("dcache_mshrs"),
            check_invariants=bool(payload.get("check_invariants", False)),
        )

    def programs(self) -> List[Program]:
        """The workload programs the run simulates, one per context.
        They are memoised per process, so a child forked after this
        call inherits them instead of generating them again."""
        return standard_mix(self.config.n_threads, self.rotation, self.seed)

    def run(self, watchdog: Any = None) -> SimResult:
        """:func:`run_spec_fast`; a timed campaign's worker passes a
        ``watchdog``."""
        return run_spec_fast(self, watchdog)


def build_simulator(spec: RunSpec) -> Simulator:
    """Construct the simulator a spec describes (worker-side)."""
    sim = Simulator(spec.config, spec.programs())
    if spec.dcache_mshrs is not None:
        from repro.memory.hierarchy import DCACHE_PARAMS
        sim.hierarchy.dcache.params = dataclasses.replace(
            DCACHE_PARAMS, mshrs=spec.dcache_mshrs
        )
    return sim


def run_spec(spec: RunSpec, watchdog: Any = None) -> SimResult:
    """Execute one run start to finish (the pool worker function).

    With ``spec.check_invariants`` set, the pipeline sanitizer rides
    along and raises :class:`~repro.verify.sanitizer.InvariantViolation`
    (picklable, so it propagates cleanly out of pool workers) on the
    first breach.  ``watchdog`` (a
    :class:`~repro.core.simulator.Watchdog`, which a campaign worker
    passes when the campaign sets a timeout) attaches as the
    simulator's abort hook so a runaway run raises
    :class:`~repro.core.simulator.SimulationAborted` instead of hanging
    its worker.
    """
    budget = spec.budget
    sim = build_simulator(spec)
    if spec.check_invariants:
        from repro.verify.sanitizer import PipelineSanitizer
        PipelineSanitizer(sim)
    if watchdog is not None:
        watchdog.attach(sim)
    return sim.run(
        warmup_cycles=budget.warmup_cycles,
        measure_cycles=budget.measure_cycles,
        functional_warmup_instructions=budget.functional_warmup_instructions,
    )


# ----------------------------------------------------------------------
# Warm-image integration.
# ----------------------------------------------------------------------
#: The :class:`SMTConfig` fields functional warmup reads: the branch
#: predictor's geometry and tagging.  Every other field shapes only the
#: timed pipeline, and warmup never consults ``perfect_branch_prediction``
#: (it trains the tables either way).  ``tests/workloads/test_images.py``
#: holds the set: varying any other field captures an identical image.
WARM_CONFIG_FIELDS = ("btb_entries", "btb_assoc", "pht_entries",
                      "history_bits", "ras_depth", "btb_thread_tags",
                      "shared_history")


def warm_key(spec: RunSpec) -> str:
    """Identity of a spec's *warm state*: a hash of everything
    functional warmup reads — the programs on each context, the
    workload seed, the predictor fields in :data:`WARM_CONFIG_FIELDS`
    and the warmup length.

    Much narrower than ``spec.key()``: runs that differ only in the
    fetch scheme, queues, issue policy, registers, pipeline,
    speculation, the timed budget, the MSHR override or the sanitizer
    share one image, and so do rotations ``r`` and ``r + 8`` (the same
    programs on the same contexts).
    """
    config = spec.config
    payload = {
        "programs": benchmark_rotation(config.n_threads, spec.rotation),
        "seed": spec.seed,
        "predictor": {name: getattr(config, name)
                      for name in WARM_CONFIG_FIELDS},
        "warm_instructions": spec.budget.functional_warmup_instructions,
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_spec_fast(spec: RunSpec, watchdog: Any = None) -> SimResult:
    """:func:`run_spec`, but warmed through the process warm-image store.

    Bit-identical to :func:`run_spec` (functional warmup is timing-free
    and deterministic; ``tests/workloads/test_images.py`` holds the
    equality).  Falls back to the reference path when the spec does no
    functional warmup.
    """
    budget = spec.budget
    n_warm = budget.functional_warmup_instructions
    if not n_warm:
        return run_spec(spec, watchdog)
    sim = build_simulator(spec)
    if spec.check_invariants:
        from repro.verify.sanitizer import PipelineSanitizer
        PipelineSanitizer(sim)
    if watchdog is not None:
        watchdog.attach(sim)
    images.warm_via_image(sim, warm_key(spec), n_warm)
    return sim.run(
        warmup_cycles=budget.warmup_cycles,
        measure_cycles=budget.measure_cycles,
        functional_warmup_instructions=0,
    )


def _ensure_images(specs: Sequence[Any]) -> None:
    """Precompute, in a parent about to fork workers, the warm states
    that two or more runs among ``specs`` share.

    Every forked worker then inherits them copy-on-write, so each is
    computed exactly once however the batch is sharded.  A state only
    one run needs is left to the worker that runs it, so those warmups
    proceed in parallel; multicore jobs build their cores cold and
    share no warm state.  The pool (:func:`_run_in_process`) and the
    fabric's drain (:func:`repro.sched.fabric.drain_campaign`) call it
    before they fork.
    """
    runs = [(warm_key(spec), spec) for spec in specs
            if spec.kind == "run"
            and spec.budget.functional_warmup_instructions]
    uses = Counter(key for key, _ in runs)
    for key, spec in runs:
        if uses[key] < 2 or images.lookup(key) is not None:
            continue
        n_warm = spec.budget.functional_warmup_instructions
        sim = build_simulator(spec)
        sim.functional_warmup(n_warm)
        images.put(key, images.capture(sim, n_warm))


# ----------------------------------------------------------------------
# Batch progress reporting.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchProgress:
    """Snapshot of one ``execute_runs`` batch, handed to the callback.

    The callback fires once after the cache scan (so instant replays
    still report) and once per distinct run as it settles — on every
    backend, the fabric included; the final snapshot of a batch that
    ran to the end has ``completed == total``.
    """

    total: int        # run slots in the batch
    completed: int    # slots resolved so far (cache hits + settled runs)
    cache_hits: int   # slots served from the persistent cache
    elapsed: float    # seconds since the batch started
    failed: int = 0   # slots that failed for good (fabric runs)
    retried: int = 0  # retry attempts the batch used (fabric runs)

    @property
    def simulated(self) -> int:
        return self.completed - self.cache_hits

    def __str__(self) -> str:
        text = (
            f"{self.completed}/{self.total} runs "
            f"({self.cache_hits} cache hits, {self.elapsed:.1f}s)"
        )
        if self.failed:
            text += f", {self.failed} FAILED"
        if self.retried:
            text += f", {self.retried} retried"
        return text


ProgressCallback = Callable[[BatchProgress], None]


def progress_printer(prefix: str = "",
                     stream: Optional[TextIO] = None) -> ProgressCallback:
    """A callback rendering progress to ``stream`` (default stderr).

    On a terminal the line updates in place; otherwise each snapshot is
    its own line (CI logs stay readable).
    """
    out = stream if stream is not None else sys.stderr
    interactive = getattr(out, "isatty", lambda: False)()

    def render(progress: BatchProgress) -> None:
        line = f"{prefix}{progress}"
        if interactive:
            end = "\n" if progress.completed >= progress.total else ""
            print(f"\r\x1b[2K{line}", end=end, file=out, flush=True)
        else:
            print(line, file=out, flush=True)

    return render


# ----------------------------------------------------------------------
# Engine configuration.
# ----------------------------------------------------------------------
#: What :func:`configure` set; ``None`` means "not set".
_configured: Dict[str, Any] = dict.fromkeys((
    "jobs", "use_cache", "progress", "check_invariants",
    "fabric_dir", "timeout", "max_attempts"))

_UNSET = object()


def configure(jobs: Any = _UNSET, use_cache: Any = _UNSET,
              progress: Any = _UNSET, check_invariants: Any = _UNSET,
              fabric_dir: Any = _UNSET, timeout: Any = _UNSET,
              max_attempts: Any = _UNSET) -> None:
    """Set process-wide defaults: the CLI's ``--jobs`` /
    ``--no-cache`` / ``--progress`` / ``--check-invariants``, and for
    durable mode ``--fabric-dir`` / ``--timeout`` / ``--max-retries``
    (as ``max_attempts``).

    A ``fabric_dir`` turns durable mode on: :func:`execute_runs` then
    drains each batch through that campaign directory
    (:mod:`repro.sched.fabric`), whose config takes ``timeout`` and
    ``max_attempts``.  Pass ``None`` to reset an option to its default:
    serial, the environment's cache and sanitizer settings, no
    progress, durable mode off, and the
    :class:`~repro.sched.campaign.CampaignConfig` timeout and attempts.
    """
    for name, value in locals().items():  # the parameters, by name
        if value is not _UNSET:
            _configured[name] = value


def configured(name: str) -> Any:
    """The value :func:`configure` set for option ``name``, or None."""
    return _configured[name]


def default_progress() -> Optional[ProgressCallback]:
    return _configured["progress"]


def default_jobs() -> int:
    jobs = _configured["jobs"]
    return 1 if jobs is None else jobs


def default_use_cache() -> bool:
    if _configured["use_cache"] is not None:
        return _configured["use_cache"]
    return cache_enabled_by_default()


def default_check_invariants() -> bool:
    """Whether new :class:`RunSpec` s (and the allocation study's
    multicore cells) attach the sanitizer.

    Resolved at spec-construction time (not inside the worker) so the
    knob is reflected in each spec's cache key.
    """
    if _configured["check_invariants"] is not None:
        return _configured["check_invariants"]
    return env_flag("REPRO_CHECK_INVARIANTS")


def core_owners(n_cores: int) -> int:
    """How many processes step one open-system driver's cores (*P*).

    One per usable CPU, at most one per core; but 1 inside a daemonic
    process (pool workers, ``Supervisor`` children), which may not
    fork, and while a second thread runs (a fabric worker's heartbeat),
    where forking is unsafe.  So a pooled or durable cell keeps to its
    one process.
    """
    if (multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(n_cores, cpus))


def _pool(processes: int):
    """A worker pool; ``fork`` keeps the parent's warm program cache."""
    return multiprocessing.get_context("fork").Pool(processes=processes)


# The persistent pool: forked once and reused across batches instead of
# paying pool construction + interpreter-state duplication per
# ``execute_runs`` call.  The pool is re-forked only when its shape no
# longer matches — a different worker count, or a warm-image store that
# has grown since the fork (workers read images copy-on-write, so a
# stale fork would re-warm from scratch inside every worker).
_worker_pool = None
_worker_pool_state: Optional[tuple] = None


def _persistent_pool(processes: int):
    global _worker_pool, _worker_pool_state
    state = (processes, images.generation())
    if _worker_pool is not None:
        if _worker_pool_state == state:
            return _worker_pool
        shutdown_pool()
    _worker_pool = _pool(processes)
    _worker_pool_state = state
    return _worker_pool


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (idempotent).

    Called automatically at interpreter exit and on Ctrl-C; tests call
    it directly to assert a clean slate.
    """
    global _worker_pool, _worker_pool_state
    if _worker_pool is not None:
        _worker_pool.terminate()
        _worker_pool.join()
        _worker_pool = None
        _worker_pool_state = None


atexit.register(shutdown_pool)


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------
#: Reports one settled miss: ``finished(j, result, retried)`` with
#: ``result`` None for a run that failed for good and ``retried`` the
#: retry attempts the batch has used so far.  A backend,
#: ``backend(misses, cache, jobs, finished)``, runs the distinct uncached
#: specs ``misses``, stores each result in ``cache`` (when not None)
#: itself, and calls ``finished`` once per miss.
FinishedCallback = Callable[..., None]


def execute_runs(
    specs: Sequence[Any],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Any]:
    """Run every spec, returning results in spec order.

    A spec is any job of the engine (see :class:`RunSpec`), in any
    mix of kinds; each result is what its spec's ``run()`` returns.

    Cache hits are served without simulating; identical specs within the
    batch are simulated once (runs are deterministic, so this is purely
    an optimisation — the Section 7 report alone repeats its baseline
    half a dozen times).  Misses are sharded across ``jobs`` worker
    processes when ``jobs > 1`` and stored to the cache as they finish,
    so an interrupted batch keeps its completed work.

    ``progress`` (default: the :func:`configure` d callback, if any)
    receives a :class:`BatchProgress` after the cache scan and after
    each completed simulation.

    When :func:`configure` set a ``fabric_dir`` (durable mode: the
    CLI's ``--fabric`` / ``--timeout`` / ``--max-retries`` family), the
    misses drain through the durable scheduler in that directory instead
    (:func:`repro.sched.fabric.drain_misses`): a journal-backed queue
    with leases, retries, per-run timeouts and resume, run by workers
    forked from this process.  Failed points come back as ``None``.
    """
    if jobs is None:
        jobs = default_jobs()
    if use_cache is None:
        use_cache = default_use_cache()
    if cache is None and use_cache:
        cache = ResultCache()
    if progress is None:
        progress = default_progress()
    started = time.perf_counter()

    results: List[Any] = [None] * len(specs)
    keys = [spec.key() for spec in specs]

    if cache is not None:
        for i, key in enumerate(keys):
            results[i] = cache.get(key, specs[i].kind)

    # Dedupe outstanding work by key, preserving first-seen order.
    pending: Dict[str, List[int]] = {}
    order: List[int] = []
    for i, result in enumerate(results):
        if result is None:
            indices = pending.setdefault(keys[i], [])
            if not indices:
                order.append(i)
            indices.append(i)

    hits = len(specs) - sum(len(v) for v in pending.values())
    completed, failed, retried = hits, 0, 0

    def report() -> None:
        if progress is not None:
            progress(BatchProgress(
                total=len(specs), completed=completed, cache_hits=hits,
                elapsed=time.perf_counter() - started,
                failed=failed, retried=retried,
            ))

    def finished(j: int, result: Any, retried_so_far: int = 0) -> None:
        nonlocal completed, failed, retried
        slots = pending[keys[order[j]]]
        for k in slots:
            results[k] = result
        completed += len(slots)
        if result is None:
            failed += len(slots)
        retried = retried_so_far
        report()

    report()
    if order:
        backend = _run_in_process
        directory = _configured["fabric_dir"]
        if directory is not None:
            from repro.sched import fabric

            backend = functools.partial(fabric.drain_misses, directory)
        try:
            backend([specs[i] for i in order], cache, jobs, finished)
        except KeyboardInterrupt:
            # Ctrl-C mid-batch: one last partial snapshot.  Completed
            # runs are already stored, so a rerun resumes from them.
            report()
            raise
    return results


def _run_in_process(misses: List[Any], cache: Optional[ResultCache],
                    jobs: int, finished: FinishedCallback) -> None:
    """The serial / persistent-pool backend."""
    pooled = jobs > 1 and len(misses) > 1
    if pooled:
        _ensure_images(misses)
        # Adaptive chunking: amortise dispatch IPC for big batches while
        # keeping at least four waves per worker so progress stays live
        # and stragglers re-balance.
        chunk = max(1, len(misses) // (jobs * 4))
        # Sized by `jobs` alone, so a small batch reuses the pool (and
        # its workers' warm images) instead of re-forking it.  imap
        # yields lazily and in order, so results stream into the cache
        # as workers finish.
        completions = _persistent_pool(jobs).imap(
            methodcaller("run"), misses, chunksize=chunk)
    else:
        completions = (spec.run() for spec in misses)
    try:
        for j, result in enumerate(completions):
            if cache is not None:
                cache.put(misses[j].key(), result, misses[j].kind)
            finished(j, result)
    except KeyboardInterrupt:
        if pooled:
            # Kill workers promptly (terminate, then join so no
            # children leak).
            shutdown_pool()
        raise
