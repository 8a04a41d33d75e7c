"""Correctness tooling: runtime invariant sanitizing and differential
fuzzing of the timing pipeline against the architectural oracle.

* :class:`~repro.verify.sanitizer.PipelineSanitizer` attaches to a live
  :class:`~repro.core.simulator.Simulator` and checks structural
  invariants every cycle, raising a structured
  :class:`~repro.verify.sanitizer.InvariantViolation` on the first
  breach.
* :mod:`repro.verify.fuzz` generates random (config x workload x seed)
  simulations, runs them with the sanitizer attached in lockstep with
  per-thread emulator oracles, shrinks failures to minimal reproducers,
  and maintains the ``tests/corpus/`` golden-regression directory.
* :mod:`repro.verify.chaos` injects deterministic, seeded faults
  (worker kills, stalls, dropped heartbeats, torn journal tails,
  corrupted cache entries) into the campaign scheduler
  (:mod:`repro.sched`) and proves recovery: no run lost, none
  double-counted, reports bit-identical to a fault-free execution.

See ``docs/testing.md`` for the invariant catalogue and workflow, and
``docs/fabric.md`` for the scheduler failure matrix the chaos harness
enforces.
"""

from repro.verify.sanitizer import PipelineSanitizer

__all__ = ["PipelineSanitizer"]
