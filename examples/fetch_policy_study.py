#!/usr/bin/env python
"""Fetch-policy study: reproduce the heart of the paper (Section 5).

Sweeps the five thread-choice heuristics (RR, BRCOUNT, MISSCOUNT,
ICOUNT, IQPOSN) over both fetch partitionings the paper plots in
Figure 5, and prints the IQ-clog diagnostics (Table 4) that explain
*why* ICOUNT wins: it keeps the instruction queues from filling with
blocked instructions from a few slow threads.

Run:  python examples/fetch_policy_study.py            (few minutes)
      REPRO_FAST=1 python examples/fetch_policy_study.py  (quick look)
"""

from repro.core.config import scheme
from repro.experiments.runner import RunBudget, run_configs

POLICIES = ("RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN")


def main():
    budget = RunBudget.from_environment()
    print("Fetch thread-choice policies at 8 threads "
          "(paper Figure 5 / Table 4)\n")
    header = (f"{'scheme':16s} {'IPC':>6s} {'int IQ-full':>12s} "
              f"{'fp IQ-full':>11s} {'queue pop':>10s} {'wrong-path':>11s}")
    print(header)
    print("-" * len(header))

    best = {}
    for num1, num2 in ((1, 8), (2, 8)):
        points = run_configs(
            [(None, scheme(policy, num1, num2, n_threads=8))
             for policy in POLICIES],
            budget=budget,
        )
        for point in points:
            print(f"{point.label:16s} {point.ipc:6.2f} "
                  f"{point.metric('int_iq_full_frac'):12.0%} "
                  f"{point.metric('fp_iq_full_frac'):11.0%} "
                  f"{point.metric('avg_queue_population'):10.1f} "
                  f"{point.metric('wrong_path_fetched_frac'):11.1%}")
            best[point.label] = point.ipc
        print()

    rr = best["RR.2.8"]
    icount = best["ICOUNT.2.8"]
    print(f"ICOUNT.2.8 vs RR.2.8: {(icount / rr - 1):+.0%} "
          "(paper: +23% over the best RR)")
    print("Watch the int IQ-full column: instruction counting nearly "
          "eliminates IQ clog, which is the paper's central insight.")


if __name__ == "__main__":
    main()
