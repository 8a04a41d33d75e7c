#!/usr/bin/env python
"""Collect the full set of paper-reproduction results.

Runs every figure and table harness plus the Section 7 bottleneck
report at a serious budget, printing everything in the paper's format.
Used to populate EXPERIMENTS.md.

Run:  python scripts/collect_results.py [--jobs N] [--no-cache] \
          | tee experiments_output.txt

``--jobs N`` shards the simulation runs over N worker processes; the
persistent result cache (see docs/performance.md) makes re-collection
after an interrupted run nearly free.  Results are identical for any
job count and cache state.
"""

import argparse
import time

from repro.experiments import adaptive, bottlenecks, figures, parallel, tables
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.runner import RunBudget

BUDGET = RunBudget(
    warmup_cycles=3000,
    measure_cycles=15000,
    functional_warmup_instructions=80000,
    rotations=2,
)


def stamp(label):
    print(f"\n{'=' * 70}\n{label}\n{'=' * 70}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="worker processes (default 1)")
    ap.add_argument("--no-cache", action="store_true",
                    help="bypass the persistent result cache")
    ap.add_argument("--progress", action="store_true",
                    help="report per-batch progress (runs / cache hits / "
                         "elapsed) on stderr")
    args = ap.parse_args()

    # Unset options stay None so REPRO_NO_CACHE is re-read on every
    # batch instead of being frozen at startup.
    parallel.configure(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        progress=parallel.progress_printer() if args.progress else None,
    )

    t0 = time.time()

    stamp("Figure 3: base hardware throughput")
    figures.print_figure3(
        figures.figure3(budget=BUDGET, thread_counts=(1, 2, 4, 6, 8))
    )

    stamp("Table 3: low-level metrics, base architecture")
    tables.print_table3(tables.table3(budget=BUDGET))

    stamp("Figure 4: fetch partitioning")
    figures.print_figure4(
        figures.figure4(budget=BUDGET, thread_counts=(1, 4, 8))
    )

    stamp("Figure 5: fetch thread-choice policies")
    figures.print_figure5(
        figures.figure5(budget=BUDGET, thread_counts=(4, 8))
    )

    stamp("Table 4: RR vs ICOUNT low-level metrics")
    tables.print_table4(tables.table4(budget=BUDGET))

    stamp("Figure 6: BIGQ and ITAG")
    figures.print_figure6(
        figures.figure6(budget=BUDGET, thread_counts=(4, 8))
    )

    stamp("Table 5: issue priority schemes")
    tables.print_table5(tables.table5(budget=BUDGET))

    stamp("Figure 7: 200 physical registers, 1-5 contexts")
    figures.print_figure7(figures.figure7(budget=BUDGET))

    stamp("Adaptive study: meta-policies vs static fetch policies")
    adaptive.print_adaptive_study(adaptive.adaptive_study(budget=BUDGET))

    stamp("Section 7: bottleneck experiments")
    bottlenecks.print_report(BUDGET)

    print(f"\ntotal collection time: {time.time() - t0:.0f}s", flush=True)
    if not args.no_cache and parallel.default_use_cache():
        cache = ResultCache(default_cache_dir())
        print(f"result cache: {len(cache)} entries at {cache.directory}",
              flush=True)


if __name__ == "__main__":
    main()
