"""Experiment harness: every table and figure of the paper's evaluation.

Each experiment function runs the relevant configurations over the
multiprogrammed workload (averaging several benchmark rotations, as the
paper averages 8 runs per data point), returns structured rows, and can
print them in the paper's format.  The benchmarks under ``benchmarks/``
call these functions and assert the qualitative shapes.

All runs flow through the parallel experiment engine
(:mod:`repro.experiments.parallel`), the one place that decides how a
batch runs.  Its one setter, ``parallel.configure``, shards every study
across a worker pool (``jobs=N``, the CLI's ``--jobs``) or drains it
through a durable campaign (``fabric_dir``, the CLI's
``--fabric-dir``), and results memoise into a persistent on-disk cache
(:mod:`repro.experiments.cache`) keyed by configuration, workload, and
budget — identical results however they were produced.  The study
functions take no engine options.
"""

import importlib

#: The package's modules, each imported on first attribute access (PEP
#: 562): a process that only runs specs through ``parallel`` does not
#: pay for the study modules.  None of them registers anything when
#: imported, so importing them late changes no behaviour.
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


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
