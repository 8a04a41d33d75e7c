"""Reproduction of the paper's tables.

Tables 1 and 2 are machine configuration (verified by the test suite
against the paper's values); Tables 3, 4, and 5 are measurements.
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
from repro.isa.instructions import INSTRUCTION_LATENCIES, InstrClass
from repro.memory.hierarchy import (
    DCACHE_PARAMS,
    ICACHE_PARAMS,
    L2_PARAMS,
    L3_PARAMS,
)


# ----------------------------------------------------------------------
# Table 1: instruction latencies (configuration).
# ----------------------------------------------------------------------
def table1() -> Dict[str, int]:
    """The simulated instruction latencies, keyed as the paper lists them."""
    return {
        "integer multiply": INSTRUCTION_LATENCIES[InstrClass.INT_MUL],
        "integer multiply (wide)": INSTRUCTION_LATENCIES[InstrClass.INT_MULQ],
        "conditional move": INSTRUCTION_LATENCIES[InstrClass.INT_CMOV],
        "compare": INSTRUCTION_LATENCIES[InstrClass.INT_CMP],
        "all other integer": INSTRUCTION_LATENCIES[InstrClass.INT_ALU],
        "FP divide": INSTRUCTION_LATENCIES[InstrClass.FP_DIV],
        "FP divide (double)": INSTRUCTION_LATENCIES[InstrClass.FP_DIVD],
        "all other FP": INSTRUCTION_LATENCIES[InstrClass.FP_ALU],
        "load (cache hit)": INSTRUCTION_LATENCIES[InstrClass.LOAD],
    }


# ----------------------------------------------------------------------
# Table 2: cache hierarchy details (configuration).
# ----------------------------------------------------------------------
def table2() -> Dict[str, Dict[str, object]]:
    rows = {}
    for params in (ICACHE_PARAMS, DCACHE_PARAMS, L2_PARAMS, L3_PARAMS):
        rows[params.name] = {
            "size": params.size,
            "associativity": params.assoc,
            "line size": params.line_size,
            "banks": params.banks,
            "transfer time": params.transfer_time,
            "accesses/cycle": params.accesses_per_cycle,
            "fill time": params.fill_time,
            "latency to next": params.latency_to_next,
        }
    return rows


# ----------------------------------------------------------------------
# Table 3: low-level metrics for the base architecture at 1/4/8 threads.
# ----------------------------------------------------------------------
TABLE3_METRICS = (
    ("out-of-registers (% of cycles)", "out_of_registers_frac"),
    ("branch misprediction rate", "branch_mispredict_rate"),
    ("jump misprediction rate", "jump_mispredict_rate"),
    ("integer IQ-full (% of cycles)", "int_iq_full_frac"),
    ("fp IQ-full (% of cycles)", "fp_iq_full_frac"),
    ("avg (combined) queue population", "avg_queue_population"),
    ("wrong-path instructions fetched", "wrong_path_fetched_frac"),
    ("wrong-path instructions issued", "wrong_path_issued_frac"),
)
TABLE3_CACHES = (
    ("I cache miss rate", "icache"),
    ("D cache miss rate", "dcache"),
    ("L2 cache miss rate", "l2"),
    ("L3 cache miss rate", "l3"),
)


def table3(budget: Optional[RunBudget] = None,
           thread_counts=(1, 4, 8)) -> Dict[int, ExperimentPoint]:
    points = run_configs(
        [(None, SMTConfig(n_threads=t)) for t in thread_counts],
        budget=budget,
    )
    return dict(zip(thread_counts, points))


def print_table3(points: Dict[int, ExperimentPoint]) -> None:
    threads = sorted(points)
    print("Table 3: low-level metrics for the base architecture")
    header = f"  {'metric':38s}" + "".join(f"{t:>9d}T" for t in threads)
    print(header)
    for name, attr in TABLE3_METRICS:
        row = "".join(f"{points[t].metric(attr):>10.3f}" for t in threads)
        print(f"  {name:38s}{row}")
    for name, cache in TABLE3_CACHES:
        row = "".join(
            f"{points[t].cache_metric(cache, 'miss_rate'):>10.3f}"
            for t in threads
        )
        print(f"  {name:38s}{row}")
        row = "".join(
            f"{points[t].cache_metric(cache, 'mpki'):>10.1f}"
            for t in threads
        )
        print(f"  {'-misses per thousand instructions':38s}{row}")


# ----------------------------------------------------------------------
# Table 4: round-robin vs instruction-counting, 2.8 partitioning.
# ----------------------------------------------------------------------
TABLE4_METRICS = (
    ("integer IQ-full (% of cycles)", "int_iq_full_frac"),
    ("fp IQ-full (% of cycles)", "fp_iq_full_frac"),
    ("avg queue population", "avg_queue_population"),
    ("out-of-registers (% of cycles)", "out_of_registers_frac"),
)


def table4(budget: Optional[RunBudget] = None) -> Dict[str, ExperimentPoint]:
    batch = [
        ("1 thread", SMTConfig(n_threads=1)),
        ("RR.2.8", scheme("RR", 2, 8, n_threads=8)),
        ("ICOUNT.2.8", scheme("ICOUNT", 2, 8, n_threads=8)),
    ]
    points = run_configs(batch, budget=budget)
    return {label: point for (label, _), point in zip(batch, points)}


def print_table4(points: Dict[str, ExperimentPoint]) -> None:
    print("Table 4: low-level metrics, RR vs ICOUNT (2.8 partitioning)")
    labels = list(points)
    print(f"  {'metric':34s}" + "".join(f"{l:>12s}" for l in labels))
    for name, attr in TABLE4_METRICS:
        row = "".join(f"{points[l].metric(attr):>12.3f}" for l in labels)
        print(f"  {name:34s}{row}")


# ----------------------------------------------------------------------
# Table 5: issue priority schemes.
# ----------------------------------------------------------------------
ISSUE_SCHEMES = ("OLDEST", "OPT_LAST", "SPEC_LAST", "BRANCH_FIRST")


def table5(budget: Optional[RunBudget] = None,
           thread_counts=(1, 2, 4, 6, 8)) -> Dict[str, List[ExperimentPoint]]:
    batch = [
        (
            issue_policy,
            scheme("ICOUNT", 2, 8, n_threads=t, issue_policy=issue_policy),
        )
        for issue_policy in ISSUE_SCHEMES
        for t in thread_counts
    ]
    return run_grouped(batch, budget)


def print_table5(data: Dict[str, List[ExperimentPoint]]) -> None:
    print("Table 5: issue priority schemes (IPC; wrong-path / optimistic "
          "useless issues at 8 threads)")
    for policy, points in data.items():
        series = "  ".join(f"{p.n_threads}T:{p.ipc:.2f}" for p in points)
        last = points[-1]
        print(f"  {policy:13s} {series}   "
              f"wrong-path={last.metric('wrong_path_issued_frac'):.1%} "
              f"optimistic={last.metric('squashed_optimistic_frac'):.1%}")
