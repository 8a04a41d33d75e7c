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

Failures are classified by
:func:`repro.experiments.supervise.classify_exception`:
``invariant``/``interrupted`` failures are terminal immediately;
``crash``/``timeout``/``oom`` requeue with exponential backoff while
attempts remain.  A campaign whose config sets ``timeout`` runs each
task in a crash-isolated child with a watchdog and a parent-side hard
kill (:class:`repro.experiments.supervise.Supervisor`); otherwise tasks
run in the worker process.  Only silent death (SIGKILL, power loss)
relies on lease expiry for recovery.

Signals (real mode, ``repro worker``): SIGTERM sets the drain flag —
the worker finishes its current task, announces ``stopped``, and exits
cleanly.  SIGINT releases the current task back to the queue, announces
``interrupted``, and raises out of :meth:`Worker.serve` (``repro
worker`` exits cleanly; an in-process fabric drain stops its batch).

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

from repro.experiments.cache import ResultCache
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
    controller can send — or drop — heartbeats explicitly.
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
    ):
        self.directory = directory
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
        """Run the task's spec; classify any exception, journal nothing.

        With the campaign's ``timeout`` set the spec runs in a
        crash-isolated child (:meth:`_execute_isolated`; a run uses plain
        ``run_spec``: an image the child captured would die with it),
        otherwise in this process through ``spec.run()``.
        :class:`WorkerKilled` and :class:`KeyboardInterrupt` propagate —
        they are worker-level events, not task outcomes.
        """
        from repro.experiments.supervise import classify_exception

        started = self.now()
        try:
            spec = spec_from_payload(task.payload)
            if self.config.timeout is not None:
                return self._execute_isolated(task.key, spec, started)
            result = spec.run() if self._run_fn is None \
                else self._run_fn(spec)
        except (WorkerKilled, KeyboardInterrupt):
            raise
        except BaseException as exc:  # noqa: BLE001 - taxonomy boundary
            kind, payload = classify_exception(exc)
            return ExecutionOutcome(ok=False, kind=kind, payload=payload,
                                    elapsed=self.now() - started)
        return ExecutionOutcome(ok=True, result=result,
                                elapsed=self.now() - started)

    def _execute_isolated(self, key: str, spec: Any,
                          started: float) -> ExecutionOutcome:
        """Run ``spec`` in a forked child under the campaign's timeout:
        a watchdog inside the child, a hard kill from this side.

        The fork happens while the heartbeat thread runs, so the child
        only simulates and pipes back its verdict."""
        from repro.experiments.supervise import Supervisor, _run_spec_task

        # Build the workload programs here, before the fork: the child
        # inherits them copy-on-write instead of generating them again.
        spec.programs()
        fn = _run_spec_task
        if self._run_fn is not None:
            run_fn = self._run_fn
            fn = lambda spec, _watchdog: run_fn(spec)  # noqa: E731
        verdict = Supervisor(fn, timeout=self.config.timeout) \
            .run([(key, spec)])[key]
        elapsed = self.now() - started
        if verdict.ok:
            return ExecutionOutcome(ok=True, result=verdict.result,
                                    elapsed=elapsed)
        failure = verdict.failure
        if failure.kind == "interrupted":
            raise KeyboardInterrupt  # the child was interrupted
        return ExecutionOutcome(
            ok=False, kind=failure.kind,
            payload=dict(failure.details or {}, message=failure.message),
            elapsed=elapsed)

    def finish_task(self, task: Task, outcome: ExecutionOutcome) -> None:
        """Journal the attempt's terminal (or requeue) record.

        Success stores the result in the content-addressed cache, under
        the task's kind, *before* appending ``done``.  Failures follow
        the taxonomy: non-retryable kinds and exhausted attempts fail
        for good; retryable kinds requeue with exponential backoff.
        """
        if self.on_finish is not None:
            self.on_finish(self, task)
        now = self.now()
        if outcome.ok:
            self.cache.put(task.key, outcome.result, task.kind)
            record: Dict[str, Any] = {
                "event": "done", "key": task.key,
                "worker": self.worker_id,
                "elapsed": round(outcome.elapsed, 3),
            }
        else:
            attempt = max(task.attempt, 1)
            retryable = (outcome.kind not in state_mod.NON_RETRYABLE_KINDS
                         and attempt < max(1, self.config.max_attempts))
            if retryable:
                delay = self.config.backoff * (2 ** max(0, attempt - 1))
                record = {
                    "event": "requeue", "key": task.key,
                    "reason": f"retry:{outcome.kind}",
                    "worker": self.worker_id,
                    "not_before": now + delay,
                }
            else:
                failure = {
                    "kind": outcome.kind, "key": task.key,
                    "message": (outcome.payload or {}).get(
                        "message", outcome.kind),
                    "attempts": attempt,
                    "label": task.label,
                    "details": outcome.payload,
                }
                record = {"event": "failed", "key": task.key,
                          "worker": self.worker_id, "failure": failure}
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
        on_task: Optional[Callable[[], None]] = None,
    ) -> int:
        """Process tasks until told to stop.

        ``drain=True`` exits once every task in the campaign is
        terminal (waiting out other workers' leases as needed);
        otherwise the worker polls forever for new submissions.
        ``on_task`` is called after every task this worker finishes.
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
                while not self._draining:
                    if max_tasks is not None and served >= max_tasks:
                        break
                    if self.step():
                        served += 1
                        self._idle_scans = 0
                        if on_task is not None:
                            on_task()
                        continue
                    state = self.scan()
                    if drain and state.tasks and state.all_terminal():
                        break
                    if drain and not state.tasks:
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
    # Plumbing: signals and the heartbeat pump.
    # ------------------------------------------------------------------
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
    """Background lease renewal at TTL/3 while a task executes."""

    def __init__(self, worker: Worker, task: Task, interval: float):
        super().__init__(daemon=True, name=f"heartbeat-{worker.worker_id}")
        self._worker = worker
        self._task = task
        self._interval = interval
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self._interval):
            try:
                self._worker.send_heartbeat(self._task)
            except Exception:  # pragma: no cover - journal hiccup
                pass  # a missed heartbeat is survivable; a crash is not

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=2.0)
