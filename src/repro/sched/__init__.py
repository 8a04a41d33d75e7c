"""Durable campaign scheduler: queue, leases, crash recovery.

The distributed campaign fabric (ROADMAP item 2) in its robustness-first
form.  Clients submit :class:`~repro.experiments.parallel.RunSpec` s to
a durable queue; workers (``repro worker <journal-dir>``) claim tasks
under TTL leases with heartbeat renewal; the append-only JSONL journal
is the single source of truth and the shared
:class:`~repro.experiments.cache.ResultCache` is the content-addressed
result store, so completion is idempotent and replay-safe.

Layers (each importable on its own):

* :mod:`repro.sched.journal` — the durable append-only record log
  (``repro.campaign_journal`` schema v2) with advisory locking, torn-tail
  tolerance + self-repair, and optional ``fsync`` durability
  (``REPRO_JOURNAL_FSYNC``).
* :mod:`repro.sched.state` — the replayed state machine: task lifecycle
  (pending → leased → done/failed/quarantined), lease expiry, bounded
  retries with exponential backoff, and poison quarantine.
* :mod:`repro.sched.campaign` — the client API: submit, status,
  result collection, and the canonical (bit-reproducible) campaign
  report document.
* :mod:`repro.sched.worker` — the worker loop: claim, heartbeat,
  execute, complete; graceful drain on SIGTERM; chaos hook points for
  the fault-injection harness (:mod:`repro.verify.chaos`).
* :mod:`repro.sched.fabric` — the durable backend of
  :func:`~repro.experiments.parallel.execute_runs` (``repro experiment``
  with ``--timeout`` / ``--max-retries`` / ``--report`` / ``--fabric``):
  timeouts, retries and resume for the engine's batches.

See ``docs/fabric.md`` for the architecture, the lease protocol, and
the failure matrix the chaos suite holds it to.
"""
