"""Where the core loop's time goes, measured on one sampled 8-thread spec.

Both probes run after a rep's timed region, with the tracer disabled:

* :func:`stage_fractions` times the four pipeline-stage calls of the
  reference ``Simulator.step`` loop; the rest of ``step`` is ``other``.
* :func:`subsystem_fractions` runs the fast loop under cProfile and
  groups self time by the ``repro`` package that owns each function.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Dict

#: (stage, simulator attribute, method) timed inside ``step``.
STAGES = (
    ("fetch", "fetch_unit", "fetch_cycle"),
    ("issue", "issue_unit", "issue_cycle"),
    ("execute", "execute_unit", "execute_cycle"),
    ("commit", "retire_unit", "commit_cycle"),
)
#: ``repro`` packages reported on their own; everything else is other.
SUBSYSTEMS = ("core", "memory", "branch", "isa", "policy")

PROBE_CYCLES = 1500


def sampled_simulator(seed: int):
    """A warmed RR.1.8 machine at 8 threads on the seed's programs."""
    from repro.core.config import SMTConfig
    from repro.core.simulator import Simulator
    from repro.workloads.mixes import standard_mix

    sim = Simulator(SMTConfig(n_threads=8), standard_mix(8, 0, seed))
    sim.functional_warmup(5000)
    sim.run_cycles(300)
    return sim


def stage_fractions(sim, cycles: int = PROBE_CYCLES) -> Dict[str, float]:
    """Share of reference-loop time in each stage call, plus ``other``."""
    spent = {stage: 0.0 for stage, _, _ in STAGES}
    for stage, unit_name, method in STAGES:
        unit = getattr(sim, unit_name)
        call = getattr(unit, method)

        def timed(cycle, _call=call, _stage=stage):
            started = time.perf_counter()
            _call(cycle)
            spent[_stage] += time.perf_counter() - started

        setattr(unit, method, timed)
    started = time.perf_counter()
    for _ in range(cycles):
        sim.step()
    total = time.perf_counter() - started
    for _, unit_name, method in STAGES:
        delattr(getattr(sim, unit_name), method)
    fractions = {stage: value / total for stage, value in spent.items()}
    fractions["other"] = max(0.0, 1.0 - sum(fractions.values()))
    return fractions


def subsystem_of(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 1 < len(parts) and parts[index + 1] in SUBSYSTEMS:
            return parts[index + 1]
    return "other"


def subsystem_fractions(sim, cycles: int = PROBE_CYCLES) -> Dict[str, float]:
    """Share of cProfile self time per ``repro`` package over one
    fast-loop ``run_cycles``."""
    profiler = cProfile.Profile()
    profiler.runcall(sim.run_cycles, cycles)
    selfs = dict.fromkeys(SUBSYSTEMS + ("other",), 0.0)
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        selfs[subsystem_of(filename)] += row[2]
    total = sum(selfs.values()) or 1.0
    return {name: value / total for name, value in selfs.items()}
