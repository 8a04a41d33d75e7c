"""N independent SMT cores as one machine.

A :class:`MultiCoreSimulator` owns N :class:`~repro.core.simulator.
Simulator` cores.  The multiprogrammed workload shares nothing between
contexts (paper Section 3), so cores share nothing either: each has its
own caches, predictor, and register files, and the machine's only job
is to construct them consistently and step them in lockstep.

Two construction modes:

* :meth:`MultiCoreSimulator.static_partition` — a *closed* system: a
  fixed program list is allocated to cores once (through a registry
  allocator) and every core then runs exactly like a standalone
  ``Simulator``.  With one core this collapses to the existing
  single-core path **bit-identically** (the ``tests/multicore``
  equivalence suite enforces it), which is what keeps the multicore
  layer honest against the validated machine model.
* The open-system driver (:mod:`repro.multicore.driver`) builds and
  rebuilds cores itself as jobs arrive and retire; it reuses the same
  per-core construction helper so both paths produce identical cores
  for identical resident sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.config import SMTConfig
from repro.core.simulator import SimResult, Simulator
from repro.isa.program import Program
from repro.multicore.alloc import CoreView, make_allocator

if TYPE_CHECKING:  # pragma: no cover
    from repro.verify.sanitizer import PipelineSanitizer


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


class MultiCoreSimulator:
    """N independent SMT cores stepped in lockstep."""

    def __init__(self, cores: Sequence[Simulator]):
        if not cores:
            raise ValueError("a multicore machine needs at least one core")
        self.cores: List[Simulator] = list(cores)

    # ------------------------------------------------------------------
    @classmethod
    def static_partition(
        cls,
        template: SMTConfig,
        programs: Sequence[Program],
        n_cores: int,
        allocator_spec: str = "ROUND_ROBIN",
        seed: int = 0,
        check_invariants: bool = False,
    ) -> "MultiCoreSimulator":
        """Allocate a fixed program list to ``n_cores`` cores, once.

        Programs are offered to the allocator in list order, each as a
        pseudo-job with no telemetry history; every core's capacity is
        the template's ``n_threads``.  Cores that receive no program are
        dropped (a closed system never populates them).
        """
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        capacity = template.n_threads
        if len(programs) > n_cores * capacity:
            raise ValueError(
                f"{len(programs)} programs exceed {n_cores} cores x "
                f"{capacity} contexts"
            )
        allocator = make_allocator(allocator_spec, seed=seed)
        resident: List[List[Program]] = [[] for _ in range(n_cores)]
        for program in programs:
            views = [
                CoreView(index=i, resident=len(progs), capacity=capacity)
                for i, progs in enumerate(resident)
            ]
            choice = allocator.choose(program, views)
            resident[choice].append(program)
        cores = [
            build_core(template, progs, check_invariants=check_invariants)
            for progs in resident if progs
        ]
        return cls(cores)

    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def run_cycles(self, n: int) -> None:
        """Advance every core by ``n`` cycles (cores are independent,
        so per-core batching preserves lockstep semantics exactly)."""
        for core in self.cores:
            core.run_cycles(n)

    # ------------------------------------------------------------------
    def run(
        self,
        warmup_cycles: int = 3000,
        measure_cycles: int = 20000,
        functional_warmup_instructions: int = 60000,
    ) -> List[SimResult]:
        """Warm up and measure every core; one ``SimResult`` per core.

        Runs each core through the exact :meth:`Simulator.run` sequence,
        so a one-core machine produces the same result object, bit for
        bit, as the standalone simulator path.
        """
        return [
            core.run(
                warmup_cycles=warmup_cycles,
                measure_cycles=measure_cycles,
                functional_warmup_instructions=functional_warmup_instructions,
            )
            for core in self.cores
        ]
