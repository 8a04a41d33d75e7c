"""Shared machinery for running experiment configurations.

The paper composes every data point from 8 runs, each assigning a
different combination of benchmarks to the hardware contexts, and
simulates hundreds of millions of instructions.  We reproduce the
rotation and average a configurable number of runs; run lengths are set
by a :class:`RunBudget` that scales down for quick checks (set the
``REPRO_FAST`` environment variable) and up for final numbers.

All execution is routed through the parallel experiment engine
(:mod:`repro.experiments.parallel`): runs shard across a worker pool
when ``jobs > 1`` and memoise into the persistent result cache, while
preserving the exact rotation seeds and averaging order of the serial
path — the results are field-identical however they were produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.config import SMTConfig
from repro.core.simulator import SimResult
from repro.envutil import env_flag
from repro.experiments.parallel import (
    RunSpec,
    default_check_invariants,
    execute_runs,
)


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


def _point_from_results(
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
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    progress: Optional[Callable] = None,
    check_invariants: Optional[bool] = None,
) -> List[ExperimentPoint]:
    """Run a batch of ``(label, config)`` pairs as one sharded workload.

    Every rotation of every config becomes one unit of work, so a whole
    figure parallelises across the pool instead of one data point at a
    time.  Points come back in input order, each averaging its rotations
    in rotation order (exactly as the serial path always has).

    ``check_invariants`` (default: the engine-wide knob set by the
    CLI's ``--check-invariants`` or ``REPRO_CHECK_INVARIANTS``) runs
    every simulation with the pipeline sanitizer attached.
    """
    budget = budget or RunBudget.from_environment()
    if check_invariants is None:
        check_invariants = default_check_invariants()
    specs = [
        RunSpec(config=config, rotation=rotation, budget=budget,
                check_invariants=check_invariants)
        for _, config in labeled_configs
        for rotation in range(budget.rotations)
    ]
    results = execute_runs(specs, jobs=jobs, use_cache=use_cache,
                           progress=progress)
    points = []
    for i, (label, config) in enumerate(labeled_configs):
        chunk = results[i * budget.rotations:(i + 1) * budget.rotations]
        points.append(
            _point_from_results(
                label or config.scheme_name, config.n_threads, list(chunk)
            )
        )
    return points


def run_config(
    config: SMTConfig,
    budget: Optional[RunBudget] = None,
    label: Optional[str] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> ExperimentPoint:
    """Run one machine configuration over rotated workloads; average."""
    return run_configs(
        [(label, config)], budget=budget, jobs=jobs, use_cache=use_cache
    )[0]


def average_runs(points: List[ExperimentPoint]) -> float:
    """Mean IPC over a list of points (convenience for summaries)."""
    return sum(p.ipc for p in points) / len(points)


def sweep_threads(
    make_config: Callable[[int], SMTConfig],
    thread_counts=(1, 2, 4, 6, 8),
    budget: Optional[RunBudget] = None,
    label: Optional[str] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> List[ExperimentPoint]:
    """Run a config family across thread counts (a figure line)."""
    return run_configs(
        [(label, make_config(t)) for t in thread_counts],
        budget=budget, jobs=jobs, use_cache=use_cache,
    )
