"""The campaign worker: claim, heartbeat, execute, complete.

One worker process serves one campaign directory.  Its loop is a pure
function of the journal: every iteration brings its replay of the
journal up to date under the campaign lock (reading only the records
appended since its last look, :func:`repro.sched.state.load_state`),
reclaims any expired leases it finds (workers double
as recovery scanners — there is no separate janitor process), claims
the next claimable task under a TTL lease, executes it, and appends the
terminal record.  Results go to the content-addressed store *before*
the ``done`` record, so a ``done`` in the journal implies the result
exists (the chaos suite's corrupt-cache faults break that promise on
purpose; :func:`repro.sched.campaign.collect_results` recomputes).

The loop is deliberately decomposed into sub-steps
(:meth:`Worker.claim_task` / :meth:`Worker.send_heartbeat` /
:meth:`Worker.execute` / :meth:`Worker.finish_task`) so the
deterministic chaos controller (:mod:`repro.verify.chaos`) can drive
workers on a virtual clock and kill them *between* any two steps — the
exact interleavings real SIGKILLs produce, minus the nondeterminism.

Every task runs in the worker process, through ``spec.run()``; with a
campaign ``timeout`` a run gets a :class:`~repro.core.simulator.Watchdog`.
Failures are classified by
:func:`repro.experiments.supervise.classify_exception` and settled by
:func:`outcome_record` under the one retry rule
(:func:`repro.sched.state.retry_at`).  A drain's forked worker
that runs past ``timeout + KILL_GRACE_SECONDS`` is killed by its parent
(:func:`repro.sched.fabric.drain_campaign`); any worker stops renewing
its lease at that point, so another reclaims a wedged task within one
TTL.  Only silent death relies on lease expiry for recovery.

Signals (real mode, ``repro worker``): SIGTERM sets the drain flag —
the worker finishes its current task, announces ``stopped``, and exits
cleanly.  SIGINT releases the current task back to the queue, announces
``interrupted``, and raises out of :meth:`Worker.serve` (``repro
worker`` and a drain's forked worker exit cleanly).  A worker given a
``parent`` pid stops claiming once that process is gone.

Idle polling: an idle worker backs off exponentially (capped, with
seeded per-worker jitter — see :func:`idle_delay`) instead of
re-replaying the journal at a fixed cadence, but never sleeps past the
next known lease expiry or backoff gate.  The base interval is
``poll_interval`` (``repro worker --poll``).
"""

from __future__ import annotations

import os
import random
import signal
import socket
import threading
import time
import uuid
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.simulator import Watchdog
from repro.experiments.cache import ResultCache
from repro.experiments.supervise import (
    CYCLE_BUDGET_SLACK,
    KILL_GRACE_SECONDS,
    classify_exception,
)
from repro.sched import state as state_mod
from repro.sched.campaign import (
    CampaignConfig,
    default_result_store,
    reclaim_expired,
    spec_from_payload,
)
from repro.sched.journal import JournalWriter, lock_journal
from repro.sched.state import CampaignState, Task, load_state


class WorkerKilled(BaseException):
    """In-process stand-in for SIGKILL, raised by the chaos controller.

    Subclasses ``BaseException`` so no ``except Exception`` recovery
    path in worker code can accidentally survive it — a killed worker
    records nothing, exactly like the real signal.
    """


@dataclass
class ExecutionOutcome:
    """What one execution attempt produced (not yet journaled)."""

    ok: bool
    result: Any = None
    kind: str = ""                       # failure taxonomy kind
    payload: Optional[Dict[str, Any]] = None
    elapsed: float = 0.0


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


#: Worker idle-poll base interval, seconds.
DEFAULT_POLL_INTERVAL = 0.5
#: Consecutive idle scans double the effective poll interval up to this
#: multiple of the base — a fleet parked on a drained campaign backs off
#: to ~16× instead of hammering the journal in lockstep.
MAX_IDLE_BACKOFF = 16


def outcome_record(task: Task, outcome: ExecutionOutcome, worker: str,
                   config: CampaignConfig, now: float) -> Dict[str, Any]:
    """The journal record that settles one attempt at ``task``.

    Success is ``done``; a failure is requeued or failed for good by
    :func:`repro.sched.state.retry_at`.  Shared by
    :meth:`Worker.finish_task` and the drain parent, which settles the
    task of a worker it killed or saw die.
    """
    if outcome.ok:
        return {"event": "done", "key": task.key, "worker": worker,
                "elapsed": round(outcome.elapsed, 3)}
    attempt = max(task.attempt, 1)
    not_before = state_mod.retry_at(outcome.kind, attempt, now,
                                    config.max_attempts, config.backoff)
    if not_before is not None:
        return {"event": "requeue", "key": task.key,
                "reason": f"retry:{outcome.kind}", "worker": worker,
                "not_before": not_before}
    failure = {
        "kind": outcome.kind, "key": task.key,
        "message": (outcome.payload or {}).get("message", outcome.kind),
        "attempts": attempt,
        "label": task.label,
        "details": outcome.payload,
    }
    return {"event": "failed", "key": task.key, "worker": worker,
            "failure": failure}


def idle_delay(base: float, idle_scans: int, jitter: random.Random) -> float:
    """The idle sleep after ``idle_scans`` consecutive empty scans.

    Capped exponential backoff (1×, 2×, 4×, ... ``MAX_IDLE_BACKOFF``×
    the base) with ±25% deterministic per-worker jitter, so a fleet of
    workers started together neither polls in lockstep nor thunders
    back onto the journal lock at the same instant.
    """
    scale = min(2 ** max(0, idle_scans - 1), MAX_IDLE_BACKOFF)
    return base * scale * jitter.uniform(0.75, 1.25)


class Worker:
    """One lease-holding executor bound to a campaign directory.

    ``run_fn`` maps a task's spec to its result; the default is the
    spec's own ``run()`` (for a :class:`~repro.experiments.parallel.RunSpec`,
    :func:`~repro.experiments.parallel.run_spec_fast`, warmed through
    this process's warm-image store: tasks of one mix share a warm
    state whatever their fetch scheme).  ``clock`` is
    injectable (the chaos controller supplies a virtual clock);
    ``heartbeats=False`` disables the background heartbeat thread so a
    controller can send — or drop — heartbeats explicitly.  ``parent``
    (a pid) ends :meth:`serve` once that process is gone.
    """

    def __init__(
        self,
        directory: str,
        cache: Optional[ResultCache] = None,
        worker_id: Optional[str] = None,
        run_fn: Optional[Callable[[Any], Any]] = None,
        clock: Optional[Callable[[], float]] = None,
        heartbeats: bool = True,
        poll_interval: Optional[float] = None,
        parent: Optional[int] = None,
    ):
        self.directory = directory
        self.parent = parent
        self.cache = cache if cache is not None else \
            default_result_store(directory)
        self.worker_id = worker_id or default_worker_id()
        self._run_fn = run_fn
        self.clock = clock or time.time
        self.heartbeats = heartbeats
        self.poll_interval = poll_interval if poll_interval is not None \
            else DEFAULT_POLL_INTERVAL
        # Seeded per-worker: jitter is reproducible for a given worker
        # id, and different across a fleet of distinct ids.
        self._jitter = random.Random(
            zlib.crc32(self.worker_id.encode("utf-8")))
        self._idle_scans = 0
        self.config = CampaignConfig()
        self.tasks_done = 0
        self._draining = False
        # Chaos hook points (real-mode fault injection); each is called
        # with (worker, task) right before the corresponding step.
        self.on_claim: Optional[Callable[["Worker", Task], None]] = None
        self.on_heartbeat: Optional[Callable[["Worker", Task], bool]] = None
        self.on_finish: Optional[Callable[["Worker", Task], None]] = None

    # ------------------------------------------------------------------
    # Sub-steps (the chaos controller's instruction set).
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.clock()

    def announce(self, status: str) -> None:
        """Record this worker's lifecycle status in the journal."""
        with lock_journal(self.directory):
            with JournalWriter(self.directory) as writer:
                writer.append({"event": "worker", "worker": self.worker_id,
                               "status": status})

    def scan(self) -> CampaignState:
        """Replay the journal (no lock — read-only snapshot)."""
        return load_state(self.directory)

    def claim_task(self) -> Optional[Task]:
        """Reclaim expired leases, then lease the next claimable task.

        The whole read-modify-write runs under the campaign lock, so
        two workers can never lease the same task.  Returns ``None``
        when nothing is claimable right now (all work leased, gated by
        backoff, or terminal).
        """
        now = self.now()
        with lock_journal(self.directory):
            state = load_state(self.directory)
            self.config = CampaignConfig.from_state(state)
            with JournalWriter(self.directory) as writer:
                reclaim_expired(writer, state, now, self.config)
                task = state.claimable(now)
                if task is None:
                    return None
                record = {
                    "event": "lease", "key": task.key,
                    "worker": self.worker_id,
                    "attempt": task.attempt + 1,
                    "expires": now + self.config.lease_ttl,
                }
                writer.append(record)
                state.apply(record)
        if self.on_claim is not None:
            self.on_claim(self, task)
        return task

    def send_heartbeat(self, task: Task) -> None:
        """Extend this worker's lease on ``task`` by one TTL."""
        if self.on_heartbeat is not None and not self.on_heartbeat(self, task):
            return  # chaos dropped the heartbeat
        with lock_journal(self.directory):
            with JournalWriter(self.directory) as writer:
                writer.append({
                    "event": "heartbeat", "key": task.key,
                    "worker": self.worker_id,
                    "expires": self.now() + self.config.lease_ttl,
                })

    def execute(self, task: Task) -> ExecutionOutcome:
        """Run the task's spec in this process (a timed run under a
        watchdog: the timeout, and its budget's cycles plus slack);
        classify any exception, journal nothing.  :class:`WorkerKilled`
        and :class:`KeyboardInterrupt` propagate — they are worker-level
        events, not task outcomes.
        """
        started = self.now()
        try:
            spec = spec_from_payload(task.payload)
            if self._run_fn is not None:
                result = self._run_fn(spec)
            elif self.config.timeout is not None and spec.kind == "run":
                budget = spec.budget
                result = spec.run(Watchdog(
                    wall_seconds=self.config.timeout,
                    max_cycles=(budget.warmup_cycles + budget.measure_cycles
                                + CYCLE_BUDGET_SLACK)))
            else:
                result = spec.run()
        except (WorkerKilled, KeyboardInterrupt):
            raise
        except BaseException as exc:  # noqa: BLE001 - taxonomy boundary
            kind, payload = classify_exception(exc)
            return ExecutionOutcome(ok=False, kind=kind, payload=payload,
                                    elapsed=self.now() - started)
        return ExecutionOutcome(ok=True, result=result,
                                elapsed=self.now() - started)

    def finish_task(self, task: Task, outcome: ExecutionOutcome) -> None:
        """Journal the attempt's :func:`outcome_record`; a success is
        stored in the content-addressed cache, under the task's kind,
        *before* its ``done`` record."""
        if self.on_finish is not None:
            self.on_finish(self, task)
        if outcome.ok:
            self.cache.put(task.key, outcome.result, task.kind)
        record = outcome_record(task, outcome, self.worker_id, self.config,
                                self.now())
        with lock_journal(self.directory):
            with JournalWriter(self.directory) as writer:
                writer.append(record)
        if outcome.ok:
            self.tasks_done += 1

    def release_task(self, task: Task, reason: str = "released") -> None:
        """Hand a claimed-but-unfinished task back to the queue (used on
        interrupt; the attempt stays charged)."""
        with lock_journal(self.directory):
            with JournalWriter(self.directory) as writer:
                writer.append({
                    "event": "requeue", "key": task.key, "reason": reason,
                    "worker": self.worker_id, "not_before": self.now(),
                })

    # ------------------------------------------------------------------
    # The composed loop.
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One claim-execute-finish cycle; ``True`` if work was done."""
        task = self.claim_task()
        if task is None:
            return False
        pump = self._start_heartbeats(task)
        try:
            outcome = self.execute(task)
        except KeyboardInterrupt:
            self._stop_heartbeats(pump)
            self.release_task(task, reason="interrupted")
            raise
        finally:
            self._stop_heartbeats(pump)
        self.finish_task(task, outcome)
        return True

    def serve(
        self,
        drain: bool = False,
        max_tasks: Optional[int] = None,
        install_signals: bool = True,
    ) -> int:
        """Process tasks until told to stop.

        ``drain=True`` exits once every task in the campaign is
        terminal (waiting out other workers' leases as needed);
        otherwise the worker polls forever for new submissions.
        Returns the number of tasks this worker completed.  On
        ``KeyboardInterrupt`` the current task goes back to the queue,
        the worker announces ``interrupted``, and the interrupt
        propagates.
        """
        restore = self._install_signals() if install_signals else None
        self.announce("started")
        served = 0
        try:
            try:
                while not self._draining and not self._orphaned():
                    if max_tasks is not None and served >= max_tasks:
                        break
                    if self.step():
                        served += 1
                        self._idle_scans = 0
                        continue
                    state = self.scan()
                    if drain and state.all_terminal():
                        break
                    self._idle_scans += 1
                    delay = idle_delay(self.poll_interval,
                                       self._idle_scans, self._jitter)
                    # Never sleep past a known wake-up (a lease expiry
                    # or backoff gate) — backoff must not delay reclaim.
                    wake = state.next_wake(self.now())
                    if wake is not None:
                        delay = min(delay, max(0.05, wake))
                    time.sleep(delay)
            except KeyboardInterrupt:
                self.announce("interrupted")
                raise
            self.announce("stopped")
            return served
        finally:
            if restore is not None:
                restore()

    # ------------------------------------------------------------------
    # Plumbing: the parent check, signals and the heartbeat pump.
    # ------------------------------------------------------------------
    def _orphaned(self) -> bool:
        return self.parent is not None and os.getppid() != self.parent

    def _install_signals(self) -> Optional[Callable[[], None]]:
        """Install the SIGTERM drain handler; return a restorer.

        The previous handler MUST come back when :meth:`serve` exits:
        a leaked drain handler is inherited by every ``fork``ed child
        of this process, which then shrugs off the SIGTERM that
        ``multiprocessing`` pools use to terminate workers.
        """
        if threading.current_thread() is not threading.main_thread():
            return None  # signal handlers only exist in the main thread

        def _drain(_signum, _frame):
            self._draining = True

        try:
            previous = signal.signal(signal.SIGTERM, _drain)
        except (ValueError, OSError):  # pragma: no cover - odd runtimes
            return None
        return lambda: signal.signal(signal.SIGTERM, previous)

    def _start_heartbeats(self, task: Task) -> Optional["_HeartbeatPump"]:
        if not self.heartbeats:
            return None
        interval = max(0.05, self.config.lease_ttl / 3.0)
        pump = _HeartbeatPump(self, task, interval)
        pump.start()
        return pump

    def _stop_heartbeats(self, pump: Optional["_HeartbeatPump"]) -> None:
        if pump is not None:
            pump.stop()


class _HeartbeatPump(threading.Thread):
    """Background lease renewal at TTL/3 while a task executes, for at
    most ``timeout + KILL_GRACE_SECONDS`` when the campaign sets a
    timeout (a wedged task's lease then lapses)."""

    def __init__(self, worker: Worker, task: Task, interval: float):
        super().__init__(daemon=True, name=f"heartbeat-{worker.worker_id}")
        self._worker = worker
        self._task = task
        self._interval = interval
        self._stopped = threading.Event()

    def run(self) -> None:
        # The worker's signals are for its main thread, which runs the
        # task: a SIGINT the kernel handed this thread would reach the
        # main thread's handler only once it next runs bytecode.
        signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT,
                                                  signal.SIGTERM))
        timeout = self._worker.config.timeout
        deadline = None if timeout is None \
            else self._worker.now() + timeout + KILL_GRACE_SECONDS
        while not self._stopped.wait(self._interval):
            if deadline is not None and self._worker.now() > deadline:
                return
            try:
                self._worker.send_heartbeat(self._task)
            except Exception:  # pragma: no cover - journal hiccup
                pass  # a missed heartbeat is survivable; a crash is not

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=2.0)
