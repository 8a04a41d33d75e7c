"""One SMT core of the multicore machine.

The multiprogrammed workload shares nothing between contexts (paper
Section 3), so cores share nothing either: each has its own caches,
predictor, and register files.  The open-system driver
(:mod:`repro.multicore.driver`) builds every core through
:func:`build_core` as jobs arrive and retire.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import SMTConfig
from repro.core.simulator import Simulator
from repro.isa.program import Program


def build_core(template: SMTConfig, programs: Sequence[Program],
               check_invariants: bool = False) -> Simulator:
    """One core for ``programs``, configured from the machine template.

    The template's ``n_threads`` is the core's *context capacity*; the
    core is built with exactly as many contexts as it has resident
    programs (a half-empty SMT core does not pay partitioned-resource
    costs for absent threads, matching the paper's per-thread-count
    configurations).
    """
    if not programs:
        raise ValueError("a core needs at least one resident program")
    config = (template if template.n_threads == len(programs)
              else template.with_options(n_threads=len(programs)))
    sim = Simulator(config, list(programs))
    if check_invariants:
        from repro.verify.sanitizer import PipelineSanitizer
        PipelineSanitizer(sim)
    return sim
