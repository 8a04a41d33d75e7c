"""Multi-core SMT: N independent cores, a thread-to-core allocation
layer, and an open-system workload driver.

The paper models one SMT core; the modern question (SYNPA, the
thread-to-core allocation papers in PAPERS.md) is *which threads share
a core*.  This package generalises the reproduction:

* :mod:`repro.multicore.machine` — :class:`MultiCoreSimulator`, N
  independent :class:`~repro.core.simulator.Simulator` cores stepped in
  lockstep, plus the static-partition constructor the single-core
  equivalence tests pin down.
* :mod:`repro.multicore.alloc` — the allocation-policy registry
  (RANDOM, ROUND_ROBIN, LOAD, PAIRING), mirroring the fetch-policy
  registry's spec grammar and error messages.
* :mod:`repro.multicore.driver` — the open-system driver: jobs arrive
  from a seeded distribution or a JSONL trace, queue, get allocated to
  a core, run to completion, and retire; the run reports per-job
  latency, per-core utilization, and throughput percentiles.
"""
