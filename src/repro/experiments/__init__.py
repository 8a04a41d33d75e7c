"""Experiment harness: every table and figure of the paper's evaluation.

Each experiment function runs the relevant configurations over the
multiprogrammed workload (averaging several benchmark rotations, as the
paper averages 8 runs per data point), returns structured rows, and can
print them in the paper's format.  The benchmarks under ``benchmarks/``
call these functions and assert the qualitative shapes.

All runs flow through the parallel experiment engine
(:mod:`repro.experiments.parallel`): pass ``jobs=N`` to shard across a
worker pool, and results memoise into a persistent on-disk cache
(:mod:`repro.experiments.cache`) keyed by configuration, workload, and
budget — identical results however they were produced.
"""

from repro.experiments import (
    adaptive,
    bottlenecks,
    cache,
    figures,
    parallel,
    sensitivity,
    supervise,
    tables,
)

__all__ = [
    "adaptive",
    "bottlenecks",
    "cache",
    "figures",
    "parallel",
    "sensitivity",
    "supervise",
    "tables",
]
