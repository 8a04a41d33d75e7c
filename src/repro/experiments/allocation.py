"""The allocation study: which thread-to-core allocator wins, where?

Compares the registered allocation policies (``repro allocators``)
across machine sizes and offered loads on the open-system driver
(:mod:`repro.multicore.driver`).  The axes:

* **allocator** — ROUND_ROBIN, LOAD, PAIRING, RANDOM (all four
  registry entries);
* **core count** — 1, 2, and 4 cores (at 1 core every allocator
  collapses to the same machine: a built-in sanity row);
* **offered load** — a moderate and a heavy seeded arrival process
  (same seed across allocators, so every policy faces the identical
  job sequence).

The study reports, per cell: completed jobs, total-latency p50/p99,
queue-latency p50, mean core utilization, and throughput — the
open-system metrics the allocation papers use, rather than the
closed-system IPC of the paper's figures.

Parallelism: each cell is a :class:`MulticoreRunSpec`, a job of the
experiment engine, so the grid runs as one
:func:`repro.experiments.parallel.execute_runs` batch.  Results return
in spec order (output and export do not depend on the worker count),
cells memoise in the result cache, and every engine option reaches
them, durable mode included (journal, per-cell timeout, retries,
resume).  A cell that fails for good in durable mode is left out of
the table and the export; the campaign report counts it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SMTConfig
from repro.experiments import parallel
from repro.experiments.runner import RunBudget
from repro.multicore.alloc import allocator_names
from repro.multicore.driver import ArrivalConfig, MulticoreRunSpec

#: Allocators the study compares (the whole registry, stable order).
STUDY_ALLOCATORS: Tuple[str, ...] = tuple(allocator_names())

#: Machine sizes (cores) the study sweeps.
STUDY_CORE_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: Offered loads: label -> arrival rate in jobs per kilocycle.
STUDY_LOADS: Tuple[Tuple[str, float], ...] = (
    ("moderate", 1.0),
    ("heavy", 3.0),
)


def study_specs(
    budget: RunBudget,
    allocators: Sequence[str] = STUDY_ALLOCATORS,
    core_counts: Sequence[int] = STUDY_CORE_COUNTS,
    loads: Sequence[Tuple[str, float]] = STUDY_LOADS,
    contexts_per_core: int = 2,
    seed: int = 0,
) -> List[Tuple[str, MulticoreRunSpec]]:
    """The study's (load label, run spec) grid, in deterministic order.

    The budget scales the job count and horizon: the ``fast`` budget
    trims both so a smoke pass stays interactive, the ``full`` budget
    grows them for tighter percentiles.  Every cell attaches the
    sanitizer when the engine's option is on
    (:func:`~repro.experiments.parallel.default_check_invariants`).
    """
    scale = max(0.25, min(4.0, budget.measure_cycles / 20000))
    jobs = max(4, int(8 * scale))
    service = max(200, int(400 * scale))
    horizon = max(20_000, int(60_000 * scale))
    template = SMTConfig(n_threads=contexts_per_core)
    check_invariants = parallel.default_check_invariants()
    specs = []
    for label, rate in loads:
        arrival = ArrivalConfig(
            jobs=jobs, rate_per_kcycle=rate,
            service_instructions=service, seed=seed,
        )
        for n_cores in core_counts:
            for alloc in allocators:
                specs.append((label, MulticoreRunSpec(
                    n_cores=n_cores, allocator=alloc, config=template,
                    quantum=200, max_cycles=horizon, seed=seed,
                    arrival=arrival, check_invariants=check_invariants,
                )))
    return specs


def allocation_study(
    budget: Optional[RunBudget] = None,
    allocators: Sequence[str] = STUDY_ALLOCATORS,
    core_counts: Sequence[int] = STUDY_CORE_COUNTS,
    loads: Sequence[Tuple[str, float]] = STUDY_LOADS,
) -> List[Dict]:
    """Run the full grid; one result document per cell, in grid order.

    Results are plain dicts (``MulticoreResult.to_dict`` plus a
    ``load`` label) that feed the export layer directly.  A cell that
    failed for good (durable mode) has no document.
    """
    budget = budget or RunBudget.from_environment()
    grid = study_specs(budget, allocators=allocators,
                       core_counts=core_counts, loads=loads)
    results = parallel.execute_runs([spec for _, spec in grid])
    return [dict(result.to_dict(), load=label)
            for (label, _), result in zip(grid, results)
            if result is not None]


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------
def print_allocation_study(documents: Sequence[Dict]) -> None:
    header = (f"{'load':<10s} {'cores':>5s} {'allocator':<14s} "
              f"{'done':>6s} {'p50':>8s} {'p99':>8s} {'q.p50':>8s} "
              f"{'util':>6s} {'jobs/kc':>8s}")
    print("allocation study: open-system latency/throughput by allocator")
    print(header)
    print("-" * len(header))
    previous = None
    for doc in documents:
        latency = doc["latency"]
        group = (doc.get("load"), doc["n_cores"])
        if previous is not None and group != previous:
            print()
        previous = group
        print(
            f"{doc.get('load', '?'):<10s} {doc['n_cores']:>5d} "
            f"{doc['allocator']:<14s} "
            f"{doc['jobs_completed']:>3d}/{doc['jobs_total']:<2d} "
            f"{latency['total']['p50']:>8.0f} "
            f"{latency['total']['p99']:>8.0f} "
            f"{latency['queue']['p50']:>8.0f} "
            f"{doc['mean_utilization']:>6.1%} "
            f"{doc['throughput_per_kcycle']:>8.2f}"
        )
    print()
    print("latencies in cycles (nearest-rank percentiles over completed "
          "jobs); identical arrival sequences within each load level.")
