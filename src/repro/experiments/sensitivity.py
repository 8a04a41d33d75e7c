"""Parameter sensitivity sweeps — extensions beyond the paper's own
experiments, in the spirit of its Section 7.

The paper asserts (and we verify in ``bottlenecks.py``) that the
improved architecture is insensitive to issue width, queue size, and
memory bandwidth.  These sweeps chart *how* performance responds as
each structure is scaled through its design space, which is what an
architect adopting this simulator would ask next:

* instruction queue size (8 → 64 entries),
* branch predictor capacity (PHT 256 → 8192 entries),
* return-stack depth (0 → 32, the xlisp recursion question),
* D-cache MSHRs (1 → 32, memory-level parallelism),
* hardware contexts at a fixed register budget (generalised Figure 7).

Every sweep submits its full batch to the parallel experiment engine,
so the design space shards across the worker pool and lands in the
persistent result cache.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import SMTConfig, scheme
from repro.experiments.parallel import RunSpec, execute_runs
from repro.experiments.runner import (
    ExperimentPoint,
    RunBudget,
    run_configs,
)

Sweep = List[Tuple[int, ExperimentPoint]]


def _base(n_threads: int = 8, **overrides) -> SMTConfig:
    return scheme("ICOUNT", 2, 8, n_threads=n_threads, **overrides)


def _sweep(values, labeled_configs, budget, jobs, use_cache) -> Sweep:
    points = run_configs(
        labeled_configs, budget=budget, jobs=jobs, use_cache=use_cache
    )
    return list(zip(values, points))


def queue_size_sweep(budget: Optional[RunBudget] = None,
                     sizes=(8, 16, 32, 64),
                     n_threads: int = 8,
                     jobs: Optional[int] = None,
                     use_cache: Optional[bool] = None) -> Sweep:
    """IQ entries per queue.  The paper fixes 32; the sweep shows the
    knee (too-small queues throttle, big ones buy little)."""
    return _sweep(
        sizes,
        [(f"iq{size}", _base(n_threads, iq_size=size)) for size in sizes],
        budget, jobs, use_cache,
    )


def pht_size_sweep(budget: Optional[RunBudget] = None,
                   sizes=(256, 1024, 2048, 8192),
                   n_threads: int = 8,
                   jobs: Optional[int] = None,
                   use_cache: Optional[bool] = None) -> Sweep:
    """Pattern history table entries (paper fixes 2K; doubling both
    tables bought only ~2%)."""
    return _sweep(
        sizes,
        [(f"pht{size}", _base(n_threads, pht_entries=size)) for size in sizes],
        budget, jobs, use_cache,
    )


def ras_depth_sweep(budget: Optional[RunBudget] = None,
                    depths=(1, 4, 12, 32),
                    n_threads: int = 8,
                    jobs: Optional[int] = None,
                    use_cache: Optional[bool] = None) -> Sweep:
    """Per-context return-stack depth (paper fixes 12; xlisp's
    recursion overflows shallow stacks)."""
    return _sweep(
        depths,
        [(f"ras{depth}", _base(n_threads, ras_depth=depth)) for depth in depths],
        budget, jobs, use_cache,
    )


def mshr_sweep(budget: Optional[RunBudget] = None,
               counts=(1, 4, 16, 32),
               n_threads: int = 8,
               jobs: Optional[int] = None,
               use_cache: Optional[bool] = None) -> Sweep:
    """D-cache miss-status registers: memory-level parallelism across
    8 threads' miss streams.

    The MSHR count is not an :class:`SMTConfig` knob, so the sweep
    builds :class:`RunSpec`s with the ``dcache_mshrs`` override directly
    (the override participates in the cache key)."""
    budget = budget or RunBudget.from_environment()
    specs = [
        RunSpec(config=_base(n_threads), rotation=rotation, budget=budget,
                dcache_mshrs=count)
        for count in counts
        for rotation in range(budget.rotations)
    ]
    results = execute_runs(specs, jobs=jobs, use_cache=use_cache)
    out: Sweep = []
    for i, count in enumerate(counts):
        chunk = [
            r for r in
            results[i * budget.rotations:(i + 1) * budget.rotations]
            if r is not None  # rotation failed in a durable campaign
        ]
        ipc = sum(r.ipc for r in chunk) / len(chunk) if chunk \
            else float("nan")
        out.append((count, ExperimentPoint(
            label=f"mshr{count}", n_threads=n_threads, ipc=ipc,
            results=chunk,
        )))
    return out


def contexts_at_register_budget(budget: Optional[RunBudget] = None,
                                total_registers: int = 264,
                                thread_counts=(1, 2, 4, 6),
                                jobs: Optional[int] = None,
                                use_cache: Optional[bool] = None) -> Sweep:
    """Generalised Figure 7: the best context count for any register
    budget (264 = 8 threads' architectural registers + 8)."""
    usable = [t for t in thread_counts if total_registers > 32 * t]
    return _sweep(
        usable,
        [
            (f"{total_registers}regs", _base(t, phys_regs_total=total_registers))
            for t in usable
        ],
        budget, jobs, use_cache,
    )


def print_sweep(title: str, sweep: Sweep, unit: str = "") -> None:
    print(title)
    for value, point in sweep:
        print(f"  {value:>6d}{unit}: {point.ipc:5.2f} IPC")
    best = max(sweep, key=lambda item: item[1].ipc)
    print(f"  best at {best[0]}{unit}")
