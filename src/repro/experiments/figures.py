"""Reproduction of the paper's figures (3 through 7).

Each ``figureN`` function returns a dict mapping a line label to its
list of :class:`~repro.experiments.runner.ExperimentPoint` (or, for
Figure 7, a list of points), and ``print_figureN`` renders the same
series the paper plots.

Every figure assembles its full set of ``(label, config)`` pairs and
submits them to the experiment engine as **one batch**, so the whole
figure shards across the worker pool (and the result cache) instead of
one data point at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import SMTConfig, scheme
from repro.experiments.runner import (
    ExperimentPoint,
    RunBudget,
    run_configs,
    run_grouped,
)

THREAD_COUNTS = (1, 2, 4, 6, 8)


# ----------------------------------------------------------------------
# Figure 3: instruction throughput for the base hardware design, plus
# the unmodified-superscalar point.
# ----------------------------------------------------------------------
def figure3(budget: Optional[RunBudget] = None,
            thread_counts=THREAD_COUNTS) -> Dict[str, List[ExperimentPoint]]:
    batch = [("RR.1.8", SMTConfig(n_threads=t)) for t in thread_counts]
    batch.append(
        ("superscalar", SMTConfig(n_threads=1, smt_pipeline=False))
    )
    data = run_grouped(batch, budget)
    return {
        "RR.1.8": data["RR.1.8"],
        "Unmodified Superscalar": data["superscalar"],
    }


def print_figure3(data: Dict[str, List[ExperimentPoint]]) -> None:
    print("Figure 3: Instruction throughput, base hardware architecture")
    ss = data["Unmodified Superscalar"][0]
    print(f"  Unmodified superscalar (1 thread): {ss.ipc:.2f} IPC")
    for point in data["RR.1.8"]:
        print(f"  RR.1.8 @ {point.n_threads} threads: {point.ipc:.2f} IPC")
    best = max(p.ipc for p in data["RR.1.8"])
    print(f"  peak SMT / superscalar = {best / ss.ipc:.2f}x "
          f"(paper: 1.84x, peaking before 8 threads)")


# ----------------------------------------------------------------------
# Figure 4: fetch partitioning (RR.1.8, RR.2.4, RR.4.2, RR.2.8).
# ----------------------------------------------------------------------
PARTITIONING_SCHEMES = ((1, 8), (2, 4), (4, 2), (2, 8))


def figure4(budget: Optional[RunBudget] = None,
            thread_counts=THREAD_COUNTS) -> Dict[str, List[ExperimentPoint]]:
    batch = [
        (f"RR.{num1}.{num2}", scheme("RR", num1, num2, n_threads=t))
        for num1, num2 in PARTITIONING_SCHEMES
        for t in thread_counts
    ]
    return run_grouped(batch, budget)


def print_figure4(data: Dict[str, List[ExperimentPoint]]) -> None:
    print("Figure 4: throughput for the I-cache interface / partitioning schemes")
    _print_lines(data)


# ----------------------------------------------------------------------
# Figure 5: fetch policies x {1.8, 2.8} vs round robin.
# ----------------------------------------------------------------------
FETCH_POLICY_NAMES = ("RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN")


def figure5(budget: Optional[RunBudget] = None,
            thread_counts=(2, 4, 6, 8),
            partitions=((1, 8), (2, 8))) -> Dict[str, List[ExperimentPoint]]:
    batch = [
        (f"{policy}.{num1}.{num2}", scheme(policy, num1, num2, n_threads=t))
        for num1, num2 in partitions
        for policy in FETCH_POLICY_NAMES
        for t in thread_counts
    ]
    return run_grouped(batch, budget)


def print_figure5(data: Dict[str, List[ExperimentPoint]]) -> None:
    print("Figure 5: throughput for fetch priority heuristics vs round-robin")
    _print_lines(data)


# ----------------------------------------------------------------------
# Figure 6: BIGQ and ITAG on top of ICOUNT.
# ----------------------------------------------------------------------
def figure6(budget: Optional[RunBudget] = None,
            thread_counts=THREAD_COUNTS,
            partitions=((1, 8), (2, 8))) -> Dict[str, List[ExperimentPoint]]:
    variants = (
        ("ICOUNT", {}),
        ("BIGQ,ICOUNT", {"bigq": True}),
        ("ITAG,ICOUNT", {"itag": True}),
    )
    batch = [
        (
            f"{variant}.{num1}.{num2}",
            scheme("ICOUNT", num1, num2, n_threads=t, **options),
        )
        for num1, num2 in partitions
        for variant, options in variants
        for t in thread_counts
    ]
    return run_grouped(batch, budget)


def print_figure6(data: Dict[str, List[ExperimentPoint]]) -> None:
    print("Figure 6: 64-entry queue (BIGQ) and early tag lookup (ITAG) "
          "with ICOUNT fetch")
    _print_lines(data)


# ----------------------------------------------------------------------
# Figure 7: 200 physical registers, 1-5 hardware contexts.
# ----------------------------------------------------------------------
def figure7(budget: Optional[RunBudget] = None,
            thread_counts=(1, 2, 3, 4, 5),
            total_registers: int = 200) -> List[ExperimentPoint]:
    batch = [
        (
            f"{total_registers}regs",
            scheme("ICOUNT", 2, 8, n_threads=t,
                   phys_regs_total=total_registers),
        )
        for t in thread_counts
    ]
    return run_configs(batch, budget=budget)


def print_figure7(points: List[ExperimentPoint]) -> None:
    print("Figure 7: throughput with 200 physical registers, 1-5 contexts")
    for p in points:
        excess = 200 - 32 * p.n_threads
        print(f"  {p.n_threads} contexts ({excess:3d} excess regs): "
              f"{p.ipc:.2f} IPC")
    best = max(points, key=lambda p: p.ipc)
    print(f"  maximum at {best.n_threads} contexts "
          f"(paper: clear maximum at 4 threads)")


# ----------------------------------------------------------------------
def _print_lines(data: Dict[str, List[ExperimentPoint]]) -> None:
    for label, points in data.items():
        series = "  ".join(
            f"{p.n_threads}T:{p.ipc:.2f}" for p in points
        )
        print(f"  {label:16s} {series}")
