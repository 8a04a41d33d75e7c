"""Multi-core SMT: N independent cores, a thread-to-core allocation
layer, and an open-system workload driver.

The paper models one SMT core; the modern question (SYNPA, the
thread-to-core allocation papers in PAPERS.md) is *which threads share
a core*.  This package generalises the reproduction:

* :mod:`repro.multicore.machine` — :func:`build_core`, one core for a
  resident program set, configured from the machine template.
* :mod:`repro.multicore.alloc` — the allocation policies (RANDOM,
  ROUND_ROBIN, LOAD, PAIRING) and ``ALLOCATORS``, an instance of the
  one spec registry (:mod:`repro.policy.registry`) the fetch policies
  use, so both share one grammar, one set of messages and one seeding.
* :mod:`repro.multicore.driver` — the open-system driver: jobs arrive
  from a seeded distribution or a JSONL trace, queue, get allocated to
  a core, run to completion, and retire; the run reports per-job
  latency, per-core utilization, and throughput percentiles.
"""
