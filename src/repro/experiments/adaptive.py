"""Adaptive fetch-policy study: meta-policies vs the static policies.

The paper's Section 5.2 compares five *static* thread-choice heuristics
and ends by suggesting that "perhaps the best performance could be
achieved from a weighted combination of them".  This study takes the
suggestion further: the registry's meta-policies (HYSTERESIS, BANDIT,
TOURNAMENT — see :mod:`repro.policy.meta`) pick *among* the static
policies at runtime from per-interval pipeline signals, and this
experiment measures whether adapting the picker can match the best
fixed choice across thread counts.

Returns a figure-shaped ``{label: [ExperimentPoint]}`` so the standard
export/chart machinery applies; the printer additionally compares the
best static line against the best adaptive line at the highest thread
count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import scheme
from repro.experiments.runner import ExperimentPoint, RunBudget, run_grouped

THREAD_COUNTS = (1, 2, 4, 8)

#: The static baselines: every Section 5.2 policy at alg.2.8.
STATIC_SPECS = ("RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN")

#: The adaptive lines.  Intervals are short relative to the measured
#: window so the meta-policies see enough decision points to adapt.
META_SPECS = (
    "HYSTERESIS:interval=150,dwell=2",
    "BANDIT:interval=150",
    "BANDIT:interval=150,mode=ucb",
    "TOURNAMENT:ICOUNT/BRCOUNT:interval=150",
)


def _label(spec: str) -> str:
    """Figure label: paper-style alg.2.8 for statics, spec for metas."""
    name = spec.split(":", 1)[0]
    if spec in STATIC_SPECS:
        return f"{spec}.2.8"
    return spec if ":" not in spec else f"{name}({spec.split(':', 1)[1]})"


def adaptive_study(
    budget: Optional[RunBudget] = None,
    thread_counts=THREAD_COUNTS,
) -> Dict[str, List[ExperimentPoint]]:
    """Every static policy vs every meta-policy, across thread counts.

    One batch: the whole study shards across the worker pool and the
    result cache (adaptive specs hash into distinct cache keys because
    the full spec string is part of the config).
    """
    batch = [
        (_label(spec), scheme(spec, 2, 8, n_threads=t))
        for spec in STATIC_SPECS + META_SPECS
        for t in thread_counts
    ]
    return run_grouped(batch, budget)


def _best_at(data: Dict[str, List[ExperimentPoint]], labels, threads: int):
    """(label, ipc) of the best line among ``labels`` at ``threads``."""
    best = None
    for label in labels:
        for point in data.get(label, ()):
            if point.n_threads != threads:
                continue
            if best is None or point.ipc > best[1]:
                best = (label, point.ipc)
    return best


def print_adaptive_study(data: Dict[str, List[ExperimentPoint]]) -> None:
    from repro.experiments.export import ascii_chart

    print("Adaptive study: meta-policies vs static fetch policies (alg.2.8)")
    static_labels = [_label(s) for s in STATIC_SPECS]
    meta_labels = [_label(s) for s in META_SPECS]
    for label in static_labels + meta_labels:
        points = data.get(label, [])
        series = "  ".join(f"{p.n_threads}T:{p.ipc:.2f}" for p in points)
        print(f"  {label:40s} {series}")

    threads = max(p.n_threads for pts in data.values() for p in pts)
    best_static = _best_at(data, static_labels, threads)
    best_meta = _best_at(data, meta_labels, threads)
    if best_static and best_meta:
        delta = best_meta[1] - best_static[1]
        print(f"  best static @ {threads}T : {best_static[0]} "
              f"({best_static[1]:.2f} IPC)")
        print(f"  best meta   @ {threads}T : {best_meta[0]} "
              f"({best_meta[1]:.2f} IPC, {delta:+.2f} vs best static)")
    print()
    print(ascii_chart(data, metric="ipc",
                      title="IPC vs threads (adaptive study)"))
