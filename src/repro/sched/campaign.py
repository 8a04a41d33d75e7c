"""Client-side campaign operations: submit, status, collect, report.

A campaign is a directory (see :mod:`repro.sched.journal`) plus the
shared result cache.  Clients append ``submit`` records (idempotent —
resubmitting a key the journal already holds is a no-op), workers drain
them, and anyone can reconstruct progress from the journal alone.

The **campaign report** is deliberately *canonical*: it contains each
task's identity, terminal state, and (for completed tasks) the full
deterministic result payload — and none of the operational noise
(attempt counts, worker ids, wall-clock timings).  Two executions of the
same campaign therefore serialise to byte-identical reports no matter
how many workers died, heartbeats dropped, or journal tails tore along
the way; the chaos suite (tests/verify/test_chaos.py) holds exactly
that equality.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.cache import ENTRY_FORMATS, ResultCache
from repro.sched import state as state_mod
from repro.sched.journal import JournalWriter, lock_journal
from repro.sched.state import CampaignState, Task, load_state

log = logging.getLogger("repro.sched")


# ----------------------------------------------------------------------
# Campaign configuration (stored in the journal's ``campaign`` record).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignConfig:
    """Scheduler knobs, fixed at submit time and replayed by workers."""

    name: str = "campaign"
    #: Seconds a lease lives without a heartbeat before any scanner may
    #: reclaim it.  Size it at several times the slowest expected run.
    lease_ttl: float = 60.0
    #: Executions (initial + retries) a task may consume before FAILED.
    max_attempts: int = 3
    #: Distinct dead workers that mark a task as poison (QUARANTINED).
    poison_threshold: int = 3
    #: Base of the exponential requeue backoff, in seconds.
    backoff: float = 0.5
    #: Per-run wall-clock budget in seconds.  When set, a worker runs
    #: each run under a watchdog with this deadline and stops renewing a
    #: task's lease past it plus ``KILL_GRACE_SECONDS``; a drain's
    #: parent SIGKILLs its forked worker at that point
    #: (:func:`repro.sched.fabric.drain_campaign`).  ``None``: no bound.
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        # Configs arrive from the network (the service ``submit`` verb)
        # and are replayed by every worker: reject bad values here, not
        # in a claim loop later.
        def number(value: Any) -> bool:
            return (isinstance(value, (int, float))
                    and not isinstance(value, bool))

        if not number(self.lease_ttl) or not self.lease_ttl > 0:
            raise ValueError(f"lease_ttl must be a number > 0, "
                             f"got {self.lease_ttl!r}")
        if not number(self.backoff) or not self.backoff >= 0:
            raise ValueError(f"backoff must be a number >= 0, "
                             f"got {self.backoff!r}")
        for name in ("max_attempts", "poison_threshold"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(f"{name} must be an int >= 1, "
                                 f"got {value!r}")
        if self.timeout is not None and (
                not number(self.timeout) or not self.timeout > 0):
            raise ValueError(f"timeout must be None or a number > 0, "
                             f"got {self.timeout!r}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_state(cls, state: CampaignState) -> "CampaignConfig":
        config = dict(state.config)
        config.pop("name", None)
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(name=state.name,
                   **{k: v for k, v in config.items() if k in known})


# ----------------------------------------------------------------------
# Job decoding — the journal stores each spec's ``to_payload()``.
# ----------------------------------------------------------------------
def spec_from_payload(payload: Dict[str, Any]) -> Any:
    """The job a journal payload describes, by its ``kind`` (absent
    means a run; ``ValueError`` if unknown).  A worker serving runs
    alone never imports the multicore driver."""
    kind = payload.get("kind", "run")
    if kind == "run":
        from repro.experiments.parallel import RunSpec

        return RunSpec.from_payload(payload)
    if kind == "multicore":
        from repro.multicore.driver import MulticoreRunSpec

        return MulticoreRunSpec.from_payload(payload)
    raise ValueError(f"unknown job kind {kind!r}")


# ----------------------------------------------------------------------
# Submission.
# ----------------------------------------------------------------------
def submit_specs(
    directory: str,
    specs: Sequence[Any],
    config: Optional[CampaignConfig] = None,
) -> int:
    """Append submit records for every spec the journal doesn't hold.

    Returns the number of *new* tasks.  Submission is idempotent per
    content key: clients may re-submit an overlapping batch (a resumed
    experiment, a second client sharing the campaign) without creating
    duplicate work.  The first submission also persists the campaign
    config so workers and reclaimers agree on TTL/retry/poison knobs.
    """
    config = config or CampaignConfig()
    with lock_journal(directory):
        state = load_state(directory)
        with JournalWriter(directory) as writer:
            if not state.config:
                writer.append({
                    "event": "campaign", "name": config.name,
                    "config": config.to_dict(),
                })
            added = 0
            for spec in specs:
                key = spec.key()
                if key in state.tasks:
                    continue
                record = {
                    "event": "submit", "key": key,
                    "label": spec.label(),
                    "spec": spec.to_payload(),
                }
                writer.append(record)
                state.apply(record)
                added += 1
    return added


# ----------------------------------------------------------------------
# Status and recovery.
# ----------------------------------------------------------------------
def reclaim_expired(
    writer: JournalWriter,
    state: CampaignState,
    now: float,
    config: Optional[CampaignConfig] = None,
) -> int:
    """Resolve every expired lease (caller holds the journal lock).

    Appends the requeue/quarantine/failed record each expired lease
    implies and applies it to ``state`` in place.  Returns the number
    of leases reclaimed.
    """
    config = config or CampaignConfig.from_state(state)
    reclaimed = 0
    for task in state.expired_leases(now):
        record = state_mod.plan_reclaim(
            task, now,
            max_attempts=config.max_attempts,
            poison_threshold=config.poison_threshold,
            backoff=config.backoff,
        )
        writer.append(record)
        state.apply(record)
        reclaimed += 1
    return reclaimed


def campaign_status(
    directory: str,
    now: Optional[float] = None,
    reclaim: bool = False,
) -> CampaignState:
    """Replay the journal; optionally reclaim expired leases first."""
    if not reclaim:
        return load_state(directory)
    import time

    now = time.time() if now is None else now
    with lock_journal(directory):
        state = load_state(directory)
        with JournalWriter(directory) as writer:
            reclaim_expired(writer, state, now)
    return state


def describe_status(state: CampaignState) -> str:
    counts = state.counts()
    lines = [
        f"campaign {state.name}: {counts['done']}/{counts['total']} done, "
        f"{counts['pending']} pending, {counts['leased']} leased, "
        f"{counts['failed']} failed, {counts['quarantined']} quarantined"
        + (f", {counts['duplicates']} duplicate terminal record(s)"
           if counts["duplicates"] else "")
    ]
    for task in state.iter_tasks():
        if task.status == state_mod.LEASED and task.lease is not None:
            lines.append(
                f"  leased: {task.label or task.key[:12]} -> "
                f"{task.lease.worker} (attempt {task.attempt}, "
                f"expires {task.lease.expires:.1f})"
            )
        elif task.status in (state_mod.FAILED, state_mod.QUARANTINED):
            failure = task.failure or {}
            lines.append(
                f"  [{failure.get('kind', task.status)}] "
                f"{task.label or task.key[:12]}: "
                f"{failure.get('message', '')}"
            )
    if state.workers:
        roster = ", ".join(
            f"{name}:{status}" for name, status in sorted(state.workers.items())
        )
        lines.append(f"  workers: {roster}")
    return "\n".join(lines)


def status_rows(state: CampaignState) -> List[Dict[str, Any]]:
    """Per-task status rows (submit order): the *operational* view.

    Unlike :func:`report_rows` — which is canonical and noise-free —
    these rows carry attempts, lease holders, and backoff gates: the
    live detail an operator (or the service ``status`` verb) needs to
    see what the scheduler is doing right now.
    """
    rows = []
    for task in state.iter_tasks():
        failure = task.failure or {}
        row: Dict[str, Any] = {
            "key": task.key,
            "label": task.label,
            "state": task.status,
            "terminal": task.terminal,
            "attempt": task.attempt,
        }
        if task.lease is not None:
            row["lease"] = {
                "worker": task.lease.worker,
                "expires": task.lease.expires,
            }
        if task.not_before:
            row["not_before"] = task.not_before
        if failure:
            row["failure_kind"] = failure.get("kind")
            row["failure_message"] = failure.get("message", "")
        rows.append(row)
    return rows


def status_document(state: CampaignState) -> Dict[str, Any]:
    """The campaign's machine-readable status (``repro.service_status``).

    One builder for both consumers — ``repro campaign status --json``
    and the service ``status`` verb — so socket and filesystem clients
    always see the same shape.
    """
    from repro.experiments import export

    return export.service_status_document(
        state.name, state.counts(), status_rows(state),
        workers=state.workers,
    )


# ----------------------------------------------------------------------
# Cancellation.
# ----------------------------------------------------------------------
def cancel_tasks(
    directory: str,
    keys: Optional[Sequence[str]] = None,
) -> List[str]:
    """Cancel pending tasks: append terminal ``failed`` records with
    kind ``cancelled``.

    ``keys=None`` cancels every PENDING task; otherwise only the named
    keys.  LEASED tasks are deliberately left alone — their worker
    holds a valid lease and will finish or expire on its own; racing it
    with a terminal record would make cancellation outcome-dependent on
    timing, which first-terminal-wins replay forbids us to care about.
    Terminal tasks are no-ops.  Returns the cancelled keys, in submit
    order.
    """
    cancelled: List[str] = []
    with lock_journal(directory):
        state = load_state(directory)
        wanted = None if keys is None else set(keys)
        with JournalWriter(directory) as writer:
            for task in state.iter_tasks():
                if task.status != state_mod.PENDING:
                    continue
                if wanted is not None and task.key not in wanted:
                    continue
                record = {
                    "event": "failed", "key": task.key,
                    "failure": {
                        "kind": "cancelled", "key": task.key,
                        "message": "cancelled by client",
                        "label": task.label,
                    },
                }
                writer.append(record)
                state.apply(record)
                cancelled.append(task.key)
    return cancelled


# ----------------------------------------------------------------------
# Result collection.
# ----------------------------------------------------------------------
def default_result_store(directory: str) -> ResultCache:
    """The campaign-local result store (used when no shared cache is
    configured): lives inside the journal directory so the campaign is
    self-contained."""
    import os

    return ResultCache(os.path.join(directory, "results"))


def task_result(
    task: Task,
    cache: ResultCache,
    rerun_missing: bool = True,
    run_fn: Optional[Any] = None,
) -> Any:
    """One task's result (``None`` unless the task is DONE), read from
    ``cache`` under the task's kind.

    Completion records promise the result is in the content-addressed
    store — but stores rot (the chaos suite corrupts entries on
    purpose).  A DONE task whose cache entry is missing or quarantined
    is deterministically re-executed inline (``run_fn(spec)``, default
    the spec's own ``run()``) and re-stored, so a corrupt cache
    degrades to recomputation, never to a wrong or absent result.
    """
    if task.status != state_mod.DONE:
        return None
    result = cache.get(task.key, task.kind)
    if result is None and rerun_missing and task.payload is not None:
        log.warning(
            "result for completed task %s missing/corrupt in cache; "
            "re-running deterministically", task.key[:12],
        )
        spec = spec_from_payload(task.payload)
        result = spec.run() if run_fn is None else run_fn(spec)
        cache.put(task.key, result, task.kind)
    return result


def collect_results(
    state: CampaignState,
    cache: ResultCache,
    rerun_missing: bool = True,
    run_fn: Optional[Any] = None,
) -> List[Any]:
    """Results in submit order (``None`` for failed/quarantined tasks;
    see :func:`task_result`)."""
    return [task_result(task, cache, rerun_missing, run_fn)
            for task in state.iter_tasks()]


# ----------------------------------------------------------------------
# The canonical campaign report.
# ----------------------------------------------------------------------
def report_rows(
    state: CampaignState,
    results: Sequence[Any],
) -> List[Dict[str, Any]]:
    """Per-task report rows: identity + terminal state + result payload,
    encoded as the task's kind stores it in the result cache.

    Operational detail (attempts, workers, elapsed, duplicates) is
    excluded on purpose — the report must be bit-identical across
    fault-free and fault-ridden executions of the same campaign.
    """
    rows = []
    for task, result in zip(state.iter_tasks(), results):
        failure = task.failure or {}
        row = {
            "key": task.key,
            "label": task.label,
            "state": task.status,
            "failure_kind": failure.get("kind") if task.terminal
            and task.status != state_mod.DONE else None,
            "result": None if result is None
            else ENTRY_FORMATS[task.kind].encode(result),
        }
        if task.kind != "run":
            # Absent means a run, as in journal payloads, so a report of
            # runs alone keeps its bytes.
            row["kind"] = task.kind
        rows.append(row)
    return rows


def report_results(rows: Sequence[Dict[str, Any]]) -> List[Any]:
    """Inverse of :func:`report_rows`: each row's result decoded as its
    task's kind stores it (for report consumers)."""
    return [
        ENTRY_FORMATS[row.get("kind", "run")].decode(row["result"])
        if row.get("result") else None
        for row in rows
    ]


def campaign_report(
    directory: str,
    cache: Optional[ResultCache] = None,
    rerun_missing: bool = True,
    run_fn: Optional[Any] = None,
) -> Dict[str, Any]:
    """The canonical report document for one campaign directory."""
    from repro.experiments import export

    state = load_state(directory)
    cache = cache if cache is not None else default_result_store(directory)
    results = collect_results(state, cache, rerun_missing=rerun_missing,
                              run_fn=run_fn)
    return export.fabric_document(state.name, report_rows(state, results))
