#!/usr/bin/env python
"""Design-space exploration: sweeps, charts, and CSV export.

Uses the sensitivity harness to sweep instruction-queue size and
return-stack depth on the improved machine, renders the policy
comparison as a text chart, and exports the figure data as CSV —
the workflow an architect would use this simulator for.

Run:  REPRO_FAST=1 python examples/design_space.py    (quick)
      python examples/design_space.py                 (slower, steadier)
"""

from repro.experiments import figures, sensitivity
from repro.experiments.export import ascii_chart, csv_text, to_rows
from repro.experiments.runner import RunBudget


def main():
    budget = RunBudget.from_environment()

    print("=" * 64)
    print("Instruction-queue size sweep (ICOUNT.2.8, 8 threads)")
    print("=" * 64)
    sweep = sensitivity.queue_size_sweep(budget=budget, sizes=(8, 16, 32, 64))
    sensitivity.print_sweep("IQ entries vs IPC:", sweep, " entries")

    print()
    print("=" * 64)
    print("Return-stack depth sweep")
    print("=" * 64)
    sweep = sensitivity.ras_depth_sweep(budget=budget, depths=(1, 4, 12, 32))
    sensitivity.print_sweep("RAS depth vs IPC:", sweep, " entries")

    print()
    print("=" * 64)
    print("Fetch policies as a chart (RR vs ICOUNT, 1.8 partitioning)")
    print("=" * 64)
    data = figures.figure5(budget=budget, thread_counts=(2, 4, 8),
                           partitions=((1, 8),))
    chart_data = {k: v for k, v in data.items()
                  if k in ("RR.1.8", "ICOUNT.1.8", "IQPOSN.1.8")}
    print(ascii_chart(chart_data, title="IPC vs threads"))

    print()
    print("CSV export (first 5 lines):")
    for line in csv_text(to_rows(data)).splitlines()[:5]:
        print("  " + line)


if __name__ == "__main__":
    main()
