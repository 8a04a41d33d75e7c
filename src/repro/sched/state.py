"""The scheduler state machine, reconstructed by journal replay.

The journal is the single source of truth; this module is a pure fold
over its records.  Crash recovery *is* replay: any process — a worker
scanning for work, ``repro campaign status``, the drain loop — rebuilds
the same :class:`CampaignState` from the same records, decides what the
journal implies (expired leases to reclaim, poison tasks to quarantine)
and appends the outcome.  Nothing lives only in memory.

Task lifecycle::

    submit ─> PENDING ─claim─> LEASED ─done──────> DONE
               ^ ^               │ ─failed───────> FAILED ──────┐
               │ │               │ ─quarantine───> QUARANTINED ─┤
               │ └───requeue─────┘   (lease expired /           │
               │                      retryable failure)        │
               └──────────────reopen (a client resumes) ────────┘

Robustness rules (held by the chaos suite, tests/verify/test_chaos.py):

* **First terminal record wins, until a client reopens it.**  Two
  leases can race to complete the same task (a slow worker finishing
  after its expired lease was reclaimed); replay keeps the first
  terminal record, counts the duplicate, and logs it.  Results are
  content-addressed and deterministic, so the duplicate carries no new
  information.  A ``reopen`` record sends a FAILED or QUARANTINED task
  back to PENDING with a fresh attempt budget; only
  :func:`repro.sched.fabric.drain_misses` appends one, when a rerun of
  a batch asks for a task that failed.
* **Leases expire, tasks never vanish.**  An expired lease sends the
  task back to PENDING with exponential backoff; its worker joins the
  task's *suspect* set.
* **Poison quarantine.**  A task whose leases have died under
  ``poison_threshold`` distinct workers is quarantined — never retried,
  reported like an invariant failure (deterministic property of the
  task, not bad luck).
* **Bounded retries.**  ``max_attempts`` executions, then FAILED.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, List, Optional, Set, Tuple

from repro.sched.journal import journal_path, parse_line, read_records

log = logging.getLogger("repro.sched")

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"

TERMINAL_STATES = frozenset((DONE, FAILED, QUARANTINED))

#: Failure kinds that are *never* requeued (deterministic properties of
#: the task, or the user's interrupt), by :func:`retry_at`.
NON_RETRYABLE_KINDS = frozenset(("invariant", "interrupted"))


def retry_at(kind: str, attempt: int, now: float, max_attempts: int,
             backoff: float) -> Optional[float]:
    """The one retry rule: when a task whose ``attempt``-th execution
    ended in a ``kind`` failure may be claimed again, or ``None`` when
    it fails for good (a non-retryable kind, or ``max_attempts``
    executions spent).  The backoff doubles with every attempt.  A
    worker's verdict, the drain parent's and an expired lease's
    (kind ``lost``) all settle by it."""
    if kind in NON_RETRYABLE_KINDS or attempt >= max(1, max_attempts):
        return None
    return now + backoff * 2 ** max(0, attempt - 1)


@dataclass
class Lease:
    """One worker's claim on one task."""

    worker: str
    expires: float
    attempt: int


@dataclass
class Task:
    """One submitted job and everything the journal says about it."""

    key: str
    seq: int                     # submit order (report/claim order)
    label: str = ""
    payload: Optional[Dict[str, Any]] = None   # the spec's to_payload()
    status: str = PENDING
    attempt: int = 0             # executions started so far
    not_before: float = 0.0      # backoff gate for the next claim
    lease: Optional[Lease] = None
    #: Distinct workers whose lease on this task expired without a
    #: terminal record — the poison-detection evidence.
    suspects: Set[str] = field(default_factory=set)
    failure: Optional[Dict[str, Any]] = None
    completed_by: str = ""
    elapsed: float = 0.0
    duplicate_terminals: int = 0

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def kind(self) -> str:
        """The job kind the payload names (absent means a run)."""
        return (self.payload or {}).get("kind", "run")

    def copy(self) -> "Task":
        """A copy whose lease and suspects are its own (payload and
        failure dicts are shared: nothing mutates them)."""
        clone = Task.__new__(Task)
        clone.__dict__.update(self.__dict__)
        if self.lease is not None:
            clone.lease = Lease(self.lease.worker, self.lease.expires,
                                self.lease.attempt)
        clone.suspects = set(self.suspects)
        return clone


@dataclass
class CampaignState:
    """Everything a journal implies, after replay."""

    tasks: Dict[str, Task] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)   # submit order
    config: Dict[str, Any] = field(default_factory=dict)
    workers: Dict[str, str] = field(default_factory=dict)
    name: str = "campaign"
    duplicates: int = 0          # terminal records for already-terminal tasks
    #: v1-journal records with no task context here (fuzz seeds etc.).
    ignored: int = 0

    def copy(self) -> "CampaignState":
        """A copy whose :meth:`apply` calls and task edits never reach
        this state."""
        return CampaignState(
            tasks={key: task.copy() for key, task in self.tasks.items()},
            order=list(self.order), config=dict(self.config),
            workers=dict(self.workers), name=self.name,
            duplicates=self.duplicates, ignored=self.ignored,
        )

    # ------------------------------------------------------------------
    # Replay.
    # ------------------------------------------------------------------
    def apply(self, record: Dict[str, Any]) -> None:
        event = record.get("event")
        if event == "campaign":
            self.config.update(record.get("config") or {})
            self.name = record.get("name", self.name)
        elif event == "submit":
            self._apply_submit(record)
        elif event == "lease":
            self._apply_lease(record)
        elif event == "heartbeat":
            self._apply_heartbeat(record)
        elif event == "done":
            self._apply_terminal(record, DONE)
        elif event == "failed":
            self._apply_terminal(record, FAILED)
        elif event == "quarantine":
            self._apply_terminal(record, QUARANTINED)
        elif event == "requeue":
            self._apply_requeue(record)
        elif event == "reopen":
            self._apply_reopen(record)
        elif event == "worker":
            worker = record.get("worker")
            if worker:
                self.workers[worker] = str(record.get("status", "?"))
        elif event is not None:
            self.ignored += 1

    def _task(self, record: Dict[str, Any]) -> Optional[Task]:
        key = record.get("key")
        if not key:
            return None
        task = self.tasks.get(key)
        if task is None:
            # A v1 journal (or a tail-torn submit): terminal records may
            # arrive for keys never submitted here.  Track them anyway
            # so readers of the journal see the completion.
            task = Task(key=key, seq=len(self.order))
            self.tasks[key] = task
            self.order.append(key)
        return task

    def _apply_submit(self, record: Dict[str, Any]) -> None:
        key = record.get("key")
        if not key or key in self.tasks:
            return  # resubmission is idempotent
        task = Task(
            key=key, seq=len(self.order),
            label=str(record.get("label", "")),
            payload=record.get("spec"),
        )
        self.tasks[key] = task
        self.order.append(key)

    def _apply_lease(self, record: Dict[str, Any]) -> None:
        task = self._task(record)
        if task is None or task.terminal:
            return
        attempt = int(record.get("attempt", task.attempt + 1))
        task.status = LEASED
        task.attempt = max(task.attempt, attempt)
        task.lease = Lease(
            worker=str(record.get("worker", "?")),
            expires=float(record.get("expires", 0.0)),
            attempt=attempt,
        )

    def _apply_heartbeat(self, record: Dict[str, Any]) -> None:
        task = self._task(record)
        if task is None or task.lease is None or task.terminal:
            return
        if task.lease.worker == record.get("worker"):
            task.lease.expires = float(
                record.get("expires", task.lease.expires)
            )

    def _apply_terminal(self, record: Dict[str, Any], status: str) -> None:
        task = self._task(record)
        if task is None:
            return
        if task.terminal:
            # Duplicate terminal record (two leases completed the same
            # run, or a replayed tail): the first one stands.
            self.duplicates += 1
            task.duplicate_terminals += 1
            log.warning(
                "journal duplicate terminal for %s: kept first (%s), "
                "ignored later %r from %r",
                task.key[:12], task.status, record.get("event"),
                record.get("worker", "?"),
            )
            return
        task.status = status
        task.lease = None
        if status == DONE:
            task.completed_by = str(record.get("worker", ""))
            task.elapsed = float(record.get("elapsed", 0.0))
        elif status == FAILED:
            task.failure = record.get("failure") or {
                "kind": "crash", "key": task.key,
                "message": str(record.get("message", "failed")),
            }
        else:  # QUARANTINED
            task.failure = {
                "kind": "poison", "key": task.key,
                "message": str(record.get("reason", "poison task")),
                "details": {"suspects": record.get("workers") or
                            sorted(task.suspects)},
            }

    def _apply_requeue(self, record: Dict[str, Any]) -> None:
        task = self._task(record)
        if task is None or task.terminal:
            return
        if task.lease is not None and record.get("reason") == "lease-expired":
            task.suspects.add(task.lease.worker)
        task.status = PENDING
        task.lease = None
        task.not_before = float(record.get("not_before", 0.0))

    def _apply_reopen(self, record: Dict[str, Any]) -> None:
        task = self.tasks.get(record.get("key"))
        if task is None or task.status not in (FAILED, QUARANTINED):
            return  # DONE, PENDING and LEASED tasks ignore a reopen
        task.status = PENDING
        task.attempt = 0
        task.not_before = 0.0
        task.failure = None
        task.suspects = set()

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def iter_tasks(self) -> List[Task]:
        return [self.tasks[key] for key in self.order]

    def claimable(self, now: float) -> Optional[Task]:
        """Next task a worker may lease, in submit order."""
        for task in self.iter_tasks():
            if task.status == PENDING and task.not_before <= now:
                return task
        return None

    def expired_leases(self, now: float) -> List[Task]:
        return [
            task for task in self.iter_tasks()
            if task.status == LEASED and task.lease is not None
            and task.lease.expires <= now
        ]

    def next_wake(self, now: float) -> Optional[float]:
        """Seconds until the scheduler state can change on its own
        (a backoff gate opening or a lease expiring); ``None`` if
        nothing is scheduled."""
        horizons = [
            task.not_before for task in self.tasks.values()
            if task.status == PENDING and task.not_before > now
        ]
        horizons.extend(
            task.lease.expires for task in self.tasks.values()
            if task.status == LEASED and task.lease is not None
        )
        if not horizons:
            return None
        return max(0.0, min(horizons) - now)

    def all_terminal(self) -> bool:
        return all(task.terminal for task in self.tasks.values())

    def counts(self) -> Dict[str, int]:
        summary = {"total": len(self.tasks), PENDING: 0, LEASED: 0,
                   DONE: 0, FAILED: 0, QUARANTINED: 0}
        for task in self.tasks.values():
            summary[task.status] += 1
        summary["duplicates"] = self.duplicates
        return summary


# ----------------------------------------------------------------------
# The incremental reader.
# ----------------------------------------------------------------------
class _Tail:
    """What this process has replayed of one journal file: its identity,
    the offset just past the last complete line, that line's bytes, and
    the state the lines before the offset fold to."""

    __slots__ = ("ident", "offset", "last_line", "state")

    def __init__(self, ident: Tuple[int, int]):
        self.ident = ident
        self.offset = 0
        self.last_line = b""
        self.state = CampaignState()

    def holds(self, handle: BinaryIO) -> bool:
        """Whether the open file still begins with the replayed bytes:
        same file, not shrunk, and the remembered last line still sits
        just before the offset (an in-place rewrite of the final record
        followed by longer appends passes the size check alone)."""
        stat = os.fstat(handle.fileno())
        if (stat.st_dev, stat.st_ino) != self.ident \
                or stat.st_size < self.offset:
            return False
        handle.seek(self.offset - len(self.last_line))
        return handle.read(len(self.last_line)) == self.last_line


#: Journals whose replay this process keeps (LRU): one server or worker
#: reads one campaign, one test run opens hundreds.
_MAX_TAILS = 8
_TAILS: "OrderedDict[str, _Tail]" = OrderedDict()
_TAILS_LOCK = threading.Lock()


def _forget_tails_after_fork() -> None:
    # Another thread may have held the lock, or been half way through
    # an update, when this process forked.
    global _TAILS_LOCK
    _TAILS_LOCK = threading.Lock()
    _TAILS.clear()


if hasattr(os, "register_at_fork"):  # POSIX; without fork, no reset
    os.register_at_fork(after_in_child=_forget_tails_after_fork)


def load_state(directory: str) -> CampaignState:
    """Replay a campaign directory's journal into state.

    Incremental per process: the replayed state of the last few
    journals is kept, and a call parses only the complete lines
    appended since the previous one.  The journal is replayed in full
    when it is missing, was replaced, shrank, or no longer holds the
    remembered last line where it was.  An unterminated final fragment
    is never cached; when it already parses (a record torn just before
    its newline) it is applied to the returned state only, as a full
    replay would.  Every caller gets its own copy, free to mutate.
    """
    path = os.path.abspath(journal_path(directory))
    with _TAILS_LOCK:
        # Popped until the update succeeds: a record whose apply raises
        # must not leave a half-advanced tail behind.
        tail = _TAILS.pop(path, None)
        try:
            handle = open(path, "rb")
        except (FileNotFoundError, NotADirectoryError):
            return CampaignState()
        with handle:
            if tail is None or not tail.holds(handle):
                stat = os.fstat(handle.fileno())
                tail = _Tail((stat.st_dev, stat.st_ino))
            handle.seek(tail.offset)
            data = handle.read()
        cut = data.rfind(b"\n") + 1
        if cut:
            # Parsed through read_records, so full and incremental
            # replay share one reader (and one trace span).
            for record in read_records(directory, path, start=tail.offset,
                                       stop=tail.offset + cut):
                tail.state.apply(record)
            tail.last_line = data[data.rfind(b"\n", 0, cut - 1) + 1:cut]
            tail.offset += cut
        _TAILS[path] = tail
        while len(_TAILS) > _MAX_TAILS:
            _TAILS.popitem(last=False)
        state = tail.state.copy()
    fragment = parse_line(data[cut:]) if cut < len(data) else None
    if fragment is not None:
        state.apply(fragment)
    return state


# ----------------------------------------------------------------------
# Reclaim planning: what the journal implies should happen next.
# ----------------------------------------------------------------------
def plan_reclaim(task: Task, now: float, max_attempts: int,
                 poison_threshold: int, backoff: float) -> Dict[str, Any]:
    """The record that resolves one expired lease.

    Poison beats retry accounting: a task that has taken down
    ``poison_threshold`` distinct workers is quarantined even if it has
    attempts left — rerunning it just feeds it more workers.  Otherwise
    :func:`retry_at` requeues the task or fails it for good (kind
    ``lost``).
    """
    worker = task.lease.worker if task.lease is not None else "?"
    suspects = set(task.suspects)
    suspects.add(worker)
    if len(suspects) >= max(1, poison_threshold):
        return {
            "event": "quarantine", "key": task.key,
            "reason": (f"poison: killed {len(suspects)} distinct "
                       f"worker(s)"),
            "workers": sorted(suspects),
        }
    not_before = retry_at("lost", task.attempt, now, max_attempts, backoff)
    if not_before is None:
        return {
            "event": "failed", "key": task.key,
            "failure": {
                "kind": "lost", "key": task.key,
                "message": (f"lease expired on attempt {task.attempt}/"
                            f"{max_attempts} (worker {worker})"),
                "attempts": task.attempt,
                "label": task.label,
            },
        }
    return {
        "event": "requeue", "key": task.key,
        "reason": "lease-expired",
        "worker": worker,
        "not_before": not_before,
    }
