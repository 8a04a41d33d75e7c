"""Section 7 of the paper: "Where are the bottlenecks now?"

Each experiment takes the improved architecture (ICOUNT.2.8) as the
baseline, relieves (or restricts) one component, and reports the
throughput delta — reproducing every experiment in Section 7:

* issue bandwidth (infinite functional units),
* instruction queue size (64-entry searchable queues),
* fetch bandwidth (16-wide fetch from two threads, then also bigger
  queues and more registers),
* branch prediction (perfect prediction; doubled predictor tables),
* speculative execution (no wrong-path issue; no passing branches),
* memory throughput (infinite cache/bus bandwidth),
* register file size (excess register sweep).

Each experiment batches its configurations through the parallel
experiment engine; the repeated ICOUNT.2.8 baseline is deduplicated by
the engine and memoised by the result cache, so the full report
simulates the baseline once, not seven times.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import SMTConfig, scheme
from repro.experiments.runner import (
    ExperimentPoint,
    RunBudget,
    run_configs,
    run_grouped,
)


def improved_baseline(n_threads: int = 8, **overrides) -> SMTConfig:
    """ICOUNT.2.8 — the improved architecture of Section 7."""
    return scheme("ICOUNT", 2, 8, n_threads=n_threads, **overrides)


def _delta(base: ExperimentPoint, variant: ExperimentPoint) -> float:
    return (variant.ipc - base.ipc) / base.ipc if base.ipc else 0.0


def _labeled_batch(batch, budget):
    points = run_configs(batch, budget=budget)
    return {label: point for (label, _), point in zip(batch, points)}


# ----------------------------------------------------------------------
def issue_bandwidth(budget: Optional[RunBudget] = None,
                    n_threads: int = 8) -> Dict[str, ExperimentPoint]:
    """Infinite functional units (paper: +0.5% at 8 threads)."""
    return _labeled_batch(
        [
            ("baseline", improved_baseline(n_threads)),
            ("infinite FUs", improved_baseline(n_threads, infinite_fus=True)),
        ],
        budget,
    )


def queue_size(budget: Optional[RunBudget] = None,
               n_threads: int = 8) -> Dict[str, ExperimentPoint]:
    """Fully searchable 64-entry queues (paper: <1%)."""
    return _labeled_batch(
        [
            ("baseline", improved_baseline(n_threads)),
            ("64-entry queues", improved_baseline(n_threads, iq_size=64)),
        ],
        budget,
    )


def fetch_bandwidth(budget: Optional[RunBudget] = None,
                    n_threads: int = 8) -> Dict[str, ExperimentPoint]:
    """16-wide fetch (up to 8 from each of 2 threads): paper +8%;
    plus 64-entry queues and 140 excess registers: another +7%."""
    wide = improved_baseline(
        n_threads, fetch_width=16, decode_width=16, rename_width=16
    )
    wide_big = wide.with_options(iq_size=64, excess_registers=140)
    return _labeled_batch(
        [
            ("baseline", improved_baseline(n_threads)),
            ("16-wide fetch", wide),
            ("16-wide + 64Q + 140 regs", wide_big),
        ],
        budget,
    )


def branch_prediction(budget: Optional[RunBudget] = None,
                      thread_counts=(1, 4, 8)
                      ) -> Dict[str, List[ExperimentPoint]]:
    """Perfect prediction (paper: +25%/+15%/+9% at 1/4/8 threads) and
    doubled BTB+PHT (paper: ~+2% at 8 threads)."""
    variants = (
        ("baseline", {}),
        ("perfect", {"perfect_branch_prediction": True}),
        ("doubled tables", {"btb_entries": 512, "pht_entries": 4096}),
    )
    batch = [
        (label, improved_baseline(t, **options))
        for t in thread_counts
        for label, options in variants
    ]
    return run_grouped(batch, budget)


def speculative_execution(budget: Optional[RunBudget] = None,
                          thread_counts=(1, 8)
                          ) -> Dict[str, List[ExperimentPoint]]:
    """Restricted speculation (paper at 8/1 threads: no-wrong-path issue
    -7%/-38%; no passing branches -1.5%/-12%)."""
    variants = (
        ("baseline", {}),
        ("no wrong-path issue", {"speculation": "no_wrong_path"}),
        ("no passing branches", {"speculation": "no_pass_branch"}),
    )
    batch = [
        (label, improved_baseline(t, **options))
        for t in thread_counts
        for label, options in variants
    ]
    return run_grouped(batch, budget)


def memory_throughput(budget: Optional[RunBudget] = None,
                      n_threads: int = 8) -> Dict[str, ExperimentPoint]:
    """Infinite bandwidth caches (paper: +3%)."""
    return _labeled_batch(
        [
            ("baseline", improved_baseline(n_threads)),
            (
                "infinite bandwidth",
                improved_baseline(n_threads, infinite_memory_bandwidth=True),
            ),
        ],
        budget,
    )


def register_file_size(budget: Optional[RunBudget] = None,
                       n_threads: int = 8,
                       excess_values=(70, 80, 90, 100, 200, 100000)
                       ) -> List[Tuple[int, ExperimentPoint]]:
    """Excess-register sweep (paper: 90/-1%, 80/-3%, 70/-6%, inf/+2%)."""
    points = run_configs(
        [
            (None, improved_baseline(n_threads, excess_registers=excess))
            for excess in excess_values
        ],
        budget=budget,
    )
    return list(zip(excess_values, points))


# ----------------------------------------------------------------------
def print_report(budget: Optional[RunBudget] = None) -> None:
    """Run every Section 7 experiment and print paper-style deltas."""
    print("Section 7 bottleneck experiments (baseline: ICOUNT.2.8)")

    ib = issue_bandwidth(budget)
    print(f"  infinite FUs: {_delta(ib['baseline'], ib['infinite FUs']):+.1%} "
          "(paper: +0.5%)")

    qs = queue_size(budget)
    print(f"  64-entry searchable queues: "
          f"{_delta(qs['baseline'], qs['64-entry queues']):+.1%} (paper: <+1%)")

    fb = fetch_bandwidth(budget)
    print(f"  16-wide fetch: {_delta(fb['baseline'], fb['16-wide fetch']):+.1%} "
          "(paper: +8%)")
    print(f"  ... + 64Q + 140 regs: "
          f"{_delta(fb['baseline'], fb['16-wide + 64Q + 140 regs']):+.1%} "
          "(paper: +15% total)")

    bp = branch_prediction(budget)
    for i, t in enumerate((1, 4, 8)):
        d = _delta(bp["baseline"][i], bp["perfect"][i])
        paper = {1: "+25%", 4: "+15%", 8: "+9%"}[t]
        print(f"  perfect branch prediction @ {t}T: {d:+.1%} (paper: {paper})")
    d = _delta(bp["baseline"][-1], bp["doubled tables"][-1])
    print(f"  doubled BTB+PHT @ 8T: {d:+.1%} (paper: +2%)")

    sp = speculative_execution(budget)
    for i, t in enumerate((1, 8)):
        d1 = _delta(sp["baseline"][i], sp["no wrong-path issue"][i])
        d2 = _delta(sp["baseline"][i], sp["no passing branches"][i])
        paper1 = {1: "-38%", 8: "-7%"}[t]
        paper2 = {1: "-12%", 8: "-1.5%"}[t]
        print(f"  no wrong-path issue @ {t}T: {d1:+.1%} (paper: {paper1})")
        print(f"  no passing branches @ {t}T: {d2:+.1%} (paper: {paper2})")

    mt = memory_throughput(budget)
    print(f"  infinite memory bandwidth: "
          f"{_delta(mt['baseline'], mt['infinite bandwidth']):+.1%} "
          "(paper: +3%)")

    regs = register_file_size(budget)
    base = dict(regs)[100]
    for excess, point in regs:
        name = "inf" if excess >= 100000 else str(excess)
        print(f"  excess registers {name:>4s}: {_delta(base, point):+.1%}")
