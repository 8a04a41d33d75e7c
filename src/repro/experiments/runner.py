"""Shared machinery for running experiment configurations.

The paper composes every data point from 8 runs, each assigning a
different combination of benchmarks to the hardware contexts, and
simulates hundreds of millions of instructions.  We reproduce the
rotation and average a configurable number of runs; run lengths are set
by a :class:`RunBudget` that scales down for quick checks (set the
``REPRO_FAST`` environment variable) and up for final numbers.

All execution is routed through the parallel experiment engine
(:mod:`repro.experiments.parallel`), which alone decides how a batch
runs (worker count, result cache, progress, sanitizer): runs shard
across its worker pool and memoise into the persistent result cache,
while preserving the exact rotation seeds and averaging order of the
serial path — the results are field-identical however they were
produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SMTConfig
from repro.core.simulator import SimResult
from repro.envutil import env_flag
from repro.experiments.parallel import RunSpec, execute_runs


@dataclass(frozen=True)
class RunBudget:
    """How much simulation to spend per data point."""

    warmup_cycles: int = 2000
    measure_cycles: int = 15000
    functional_warmup_instructions: int = 60000
    rotations: int = 2

    @classmethod
    def from_environment(cls) -> "RunBudget":
        """The default budget, honouring ``REPRO_FAST``/``REPRO_FULL``."""
        if env_flag("REPRO_FAST"):
            return FAST_BUDGET
        if env_flag("REPRO_FULL"):
            return FULL_BUDGET
        return cls()


#: The quick-check budget (``--fast`` / ``REPRO_FAST``).
FAST_BUDGET = RunBudget(warmup_cycles=1000, measure_cycles=8000,
                        functional_warmup_instructions=30000, rotations=1)
#: The final-numbers budget (``--full`` / ``REPRO_FULL``).
FULL_BUDGET = RunBudget(warmup_cycles=4000, measure_cycles=40000,
                        functional_warmup_instructions=120000, rotations=4)


@dataclass
class ExperimentPoint:
    """One averaged data point (the mean over workload rotations).

    In a durable campaign a rotation can fail permanently (timeout,
    worker crash); the point then averages the rotations that survived,
    and a point with *no* surviving rotations reports ``nan`` rather
    than killing the whole figure.
    """

    label: str
    n_threads: int
    ipc: float
    results: List[SimResult] = field(repr=False, default_factory=list)

    @property
    def complete(self) -> bool:
        return bool(self.results)

    def metric(self, name: str) -> float:
        """Average of any scalar SimResult attribute over the rotations."""
        if not self.results:
            return float("nan")
        values = [getattr(r, name) for r in self.results]
        return sum(values) / len(values)

    def cache_metric(self, cache: str, attr: str) -> float:
        if not self.results:
            return float("nan")
        values = [getattr(getattr(r, cache), attr) for r in self.results]
        return sum(values) / len(values)


def point_from_results(
    label: str, n_threads: int, results: List[Optional[SimResult]]
) -> ExperimentPoint:
    """Average rotations into a point, in rotation order.

    ``None`` entries (rotations that failed in a durable campaign) are
    dropped; an all-failed point degrades to ``ipc = nan``.
    """
    ok = [r for r in results if r is not None]
    if not ok:
        return ExperimentPoint(
            label=label, n_threads=n_threads, ipc=float("nan"), results=[]
        )
    ipc = sum(r.ipc for r in ok) / len(ok)
    return ExperimentPoint(
        label=label, n_threads=n_threads, ipc=ipc, results=ok
    )


def run_configs(
    labeled_configs: Sequence[Tuple[Optional[str], SMTConfig]],
    budget: Optional[RunBudget] = None,
) -> List[ExperimentPoint]:
    """Run a batch of ``(label, config)`` pairs as one sharded workload.

    Every rotation of every config becomes one unit of work, so a whole
    figure parallelises across the pool instead of one data point at a
    time.  Points come back in input order, each averaging its rotations
    in rotation order (exactly as the serial path always has).  A
    ``None`` label falls back to the config's scheme name.
    """
    budget = budget or RunBudget.from_environment()
    specs = [
        RunSpec(config=config, rotation=rotation, budget=budget)
        for _, config in labeled_configs
        for rotation in range(budget.rotations)
    ]
    results = execute_runs(specs)
    points = []
    for i, (label, config) in enumerate(labeled_configs):
        chunk = results[i * budget.rotations:(i + 1) * budget.rotations]
        points.append(
            point_from_results(
                label or config.scheme_name, config.n_threads, list(chunk)
            )
        )
    return points


def run_grouped(
    labeled_configs: Sequence[Tuple[str, SMTConfig]],
    budget: Optional[RunBudget] = None,
) -> Dict[str, List[ExperimentPoint]]:
    """:func:`run_configs`, with the points regrouped by label: each
    label maps to its points in input order, labels in first-seen
    order (a figure's lines)."""
    data: Dict[str, List[ExperimentPoint]] = {}
    points = run_configs(labeled_configs, budget=budget)
    for (label, _), point in zip(labeled_configs, points):
        data.setdefault(label, []).append(point)
    return data
