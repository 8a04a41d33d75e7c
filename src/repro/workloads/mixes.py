"""Multiprogrammed workload composition (paper Section 3).

The paper builds each data point from 8 runs; each run assigns a distinct
program to every hardware context, and each of the 8 runs uses a different
combination of the benchmarks, to remove benchmark-choice effects.  We
reproduce the scheme with a rotation: run ``r`` with ``T`` threads uses
programs ``names[(r + i) % 8]`` for ``i`` in ``0..T-1``.
"""

from __future__ import annotations

from typing import List

from repro.isa.program import Program
from repro.workloads.profiles import PROFILES, profile_names
from repro.workloads.synthetic import generate_program


def benchmark_rotation(n_threads: int, run_index: int) -> List[str]:
    """Names of the programs assigned to each context for one run."""
    if not 1 <= n_threads <= 8:
        raise ValueError("n_threads must be between 1 and 8")
    names = profile_names()
    return [names[(run_index + i) % len(names)] for i in range(n_threads)]


# Generated programs are pure functions of (profile, seed); cache them so
# sweeps over many configurations don't regenerate identical workloads.
_PROGRAM_CACHE = {}


def cached_program(name: str, seed: int = 0) -> Program:
    """The (memoised) generated program for one profile name.

    Shared by the rotation mixes and the multicore driver, which
    regenerates the same job programs across core rebuilds.
    """
    key = (name, seed)
    if key not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[key] = generate_program(PROFILES[name], seed=seed)
    return _PROGRAM_CACHE[key]


def standard_mix(n_threads: int, run_index: int = 0, seed: int = 0) -> List[Program]:
    """The programs for one simulation run of ``n_threads`` contexts."""
    return [
        cached_program(name, seed) for name in benchmark_rotation(n_threads, run_index)
    ]
