"""Benchmark collection: one schema-versioned performance profile.

This is the library behind ``repro perf record``.  It runs the two
benchmark suites — the fast-vs-reference core loop and the Figure 3
sweep (serial / pooled / warm-cache) — and assembles the results into a
**performance profile**: a single JSON document keyed by the git SHA it
was measured at, validated by :mod:`repro.perf.store` on every load.

Measurement methodology:

1. ``core_cycles_per_sec`` — timed ``run_cycles`` of an ICOUNT.2.8
   machine at 8 threads.  A warmup pass precedes timing and the figure
   is the **median of >=3 repetitions**, interleaved A/B with the
   reference ``step()`` path so host noise hits both alike.
2. ``figure3_serial_s`` / ``figure3_jobs_s`` — wall time for the fast
   Figure 3 sweep run serially vs on the persistent worker pool
   (``jobs``, default ``max(2, min(4, cpu_count))`` so the pooled path
   is always exercised), both with a cold result cache.  The serial
   sweep populates the process warm-image store, so the pooled sweep
   (forked afterwards) inherits every warm state copy-on-write.
3. ``figure3_warm_cache_s`` — the same sweep replayed from the result
   cache, with the observed ``warm_cache_hit_rate``.

Each sweep gets a **throwaway cache directory handed to the engine as
an explicit** :class:`~repro.experiments.cache.ResultCache` (via
``parallel.configure(cache=...)``, restored in a ``finally``) — the
benchmark no longer mutates ``REPRO_CACHE_DIR``, so nothing run
afterwards in-process can accidentally inherit a deleted temp dir.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from typing import Any, Dict, Optional

from repro.core.config import scheme
from repro.core.simulator import Simulator
from repro.experiments import figures, parallel
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunBudget
from repro.perf.store import PERF_SCHEMA, PERF_SCHEMA_VERSION
from repro.workloads import images
from repro.workloads.mixes import standard_mix

FAST_BUDGET = RunBudget(warmup_cycles=1000, measure_cycles=8000,
                        functional_warmup_instructions=30000, rotations=1)
QUICK_BUDGET = RunBudget(warmup_cycles=500, measure_cycles=3000,
                         functional_warmup_instructions=15000, rotations=1)

DEFAULT_STEPS = 12000
QUICK_STEPS = 4000


def default_bench_jobs() -> int:
    """Workers for the pooled sweep: ``max(2, min(4, cpu_count))`` —
    at least 2 so the pooled path is always exercised, at most 4 so the
    benchmark stays comparable across large hosts."""
    return max(2, min(4, multiprocessing.cpu_count()))


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """HEAD of the repository at ``cwd`` (default: the working
    directory), or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=cwd or os.getcwd(),
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_metadata() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host_cpus": multiprocessing.cpu_count(),
        "platform": platform.platform(),
    }


def bench_core(steps: int, reps: int, warm_instructions: int) -> dict:
    """Median cycles/second of the simulator inner loop, fast vs reference.

    One long-lived simulator per path; repetitions are interleaved
    fast/reference so drift in host load lands on both paths equally.
    """
    config = scheme("ICOUNT", 2, 8, n_threads=8)

    def make(fast: bool) -> Simulator:
        sim = Simulator(config, standard_mix(8, 0))
        sim.use_fast_step = fast
        sim.functional_warmup(warm_instructions)
        sim.run_cycles(500)  # warmup pass: settle the pipeline, warm dicts
        return sim

    sims = {"fast": make(True), "reference": make(False)}
    times = {"fast": [], "reference": []}
    for _ in range(max(3, reps)):
        for label, sim in sims.items():
            t0 = time.perf_counter()
            sim.run_cycles(steps)
            times[label].append(time.perf_counter() - t0)

    fast_med = statistics.median(times["fast"])
    ref_med = statistics.median(times["reference"])
    return {
        "steps": steps,
        "reps": max(3, reps),
        "fast_rep_seconds": [round(t, 3) for t in times["fast"]],
        "reference_rep_seconds": [round(t, 3) for t in times["reference"]],
        "core_cycles_per_sec": round(steps / fast_med, 1),
        "reference_cycles_per_sec": round(steps / ref_med, 1),
        "fast_vs_reference_speedup": round(ref_med / fast_med, 2),
    }


def bench_figure3(jobs: int, budget: RunBudget) -> dict:
    """Figure 3 sweep: serial cold, parallel cold, then warm cache.

    Each sweep writes into an explicit throwaway :class:`ResultCache`
    installed via ``parallel.configure(cache=...)`` — the process
    environment (``REPRO_CACHE_DIR`` included) is never touched, and
    the previously configured cache is restored on every exit path.
    """
    times = {}

    def sweep(label, run_jobs, cache):
        parallel.configure(cache=cache)
        t0 = time.perf_counter()
        figures.figure3(budget=budget, jobs=run_jobs, use_cache=True)
        times[label] = round(time.perf_counter() - t0, 3)

    serial_dir = tempfile.mkdtemp(prefix="bench-cache-")
    pooled_dir = tempfile.mkdtemp(prefix="bench-cache-")
    serial_cache = ResultCache(serial_dir)
    pooled_cache = ResultCache(pooled_dir)
    prior_cache = parallel.default_cache()
    images.clear()
    try:
        sweep("figure3_serial_s", 1, serial_cache)
        # Fork the persistent pool outside the timed region: campaigns
        # reuse one long-lived pool, so steady-state is what matters.
        parallel._persistent_pool(jobs)
        sweep("figure3_jobs_s", jobs, pooled_cache)
        hits_before = pooled_cache.hits
        misses_before = pooled_cache.misses
        sweep("figure3_warm_cache_s", 1, pooled_cache)
        warm_hits = pooled_cache.hits - hits_before
        warm_lookups = warm_hits + (pooled_cache.misses - misses_before)
        entries = len(pooled_cache)
    finally:
        parallel.configure(cache=prior_cache)
        shutil.rmtree(serial_dir, ignore_errors=True)
        shutil.rmtree(pooled_dir, ignore_errors=True)

    serial, pooled = times["figure3_serial_s"], times["figure3_jobs_s"]
    times.update(
        jobs=jobs,
        cache_entries=entries,
        warm_image_entries=images.size(),
        warm_cache_hit_rate=(
            round(warm_hits / warm_lookups, 4) if warm_lookups else None
        ),
        parallel_speedup=round(serial / pooled, 2) if pooled else None,
        warm_cache_speedup=(
            round(serial / times["figure3_warm_cache_s"], 2)
            if times["figure3_warm_cache_s"] else None
        ),
    )
    return times


#: Flat metric names lifted from the raw benchmark blocks into the
#: profile's ``metrics`` mapping (the keys diff/check operate on).
_CORE_METRICS = (
    "core_cycles_per_sec",
    "reference_cycles_per_sec",
    "fast_vs_reference_speedup",
)
_FIGURE3_METRICS = (
    "figure3_serial_s",
    "figure3_jobs_s",
    "figure3_warm_cache_s",
    "parallel_speedup",
    "warm_cache_speedup",
    "warm_cache_hit_rate",
)


def collect_profile(
    quick: bool = False,
    jobs: Optional[int] = None,
    steps: Optional[int] = None,
    reps: int = 3,
    sha: Optional[str] = None,
) -> Dict[str, Any]:
    """Run both benchmark suites and return one performance profile.

    ``sha`` overrides the git SHA the profile is keyed by (default:
    the working directory's HEAD, or ``None`` outside git).
    """
    budget = QUICK_BUDGET if quick else FAST_BUDGET
    if jobs is None:
        jobs = default_bench_jobs()
    if steps is None:
        steps = QUICK_STEPS if quick else DEFAULT_STEPS

    core = bench_core(steps, reps, budget.functional_warmup_instructions)
    figure3 = bench_figure3(jobs, budget)

    metrics: Dict[str, Any] = {}
    for name in _CORE_METRICS:
        metrics[name] = core[name]
    for name in _FIGURE3_METRICS:
        metrics[name] = figure3[name]

    now = time.time()
    return {
        "schema": PERF_SCHEMA,
        "schema_version": PERF_SCHEMA_VERSION,
        "git_sha": sha if sha is not None else git_sha(),
        "recorded_at": now,
        "recorded_at_iso": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)
        ),
        "quick": quick,
        "host": host_metadata(),
        "metrics": metrics,
        "raw": {"core": core, "figure3": figure3},
    }


def summarize(profile: Dict[str, Any]) -> str:
    """The two human-readable benchmark lines ``perf record`` prints."""
    core = profile["raw"]["core"]
    fig = profile["raw"]["figure3"]
    lines = [
        f"core loop      : {core['core_cycles_per_sec']:.0f} cycles/sec "
        f"median of {core['reps']}x{core['steps']} steps "
        f"(reference {core['reference_cycles_per_sec']:.0f}, "
        f"{core['fast_vs_reference_speedup']}x)",
        f"figure 3 sweep : serial {fig['figure3_serial_s']}s, "
        f"--jobs {fig['jobs']} {fig['figure3_jobs_s']}s "
        f"({fig['parallel_speedup']}x), "
        f"warm cache {fig['figure3_warm_cache_s']}s "
        f"({fig['warm_cache_speedup']}x, "
        f"hit rate {fig['warm_cache_hit_rate']})",
    ]
    return "\n".join(lines)
