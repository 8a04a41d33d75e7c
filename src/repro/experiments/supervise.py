"""Crash-isolated task execution, and the failure taxonomy.

A case that hangs, dies or eats the host's memory must cost one task,
not the process that ran it.  :class:`Supervisor` runs each task in its
own ``fork`` ed child process, with a wall-clock
:class:`~repro.core.simulator.Watchdog` passed to the task and a hard
kill from the parent at ``timeout + KILL_GRACE_SECONDS`` (a hang inside
one simulator step never polls the watchdog).  Exceptions, signals and
OOM kills become :class:`RunFailure` records whose ``kind`` comes from
the failure taxonomy (``timeout | crash | invariant | oom |
interrupted``); Ctrl-C kills every live child and re-raises.

``repro fuzz`` is the supervisor's one user.  The campaign fabric
(:mod:`repro.sched`) runs its tasks in the worker process and shares
only the taxonomy: :func:`classify_exception` for what a task raises,
:func:`classify_exit` for a worker that died without a verdict, and the
:data:`KILL_GRACE_SECONDS` / :data:`CYCLE_BUDGET_SLACK` bounds.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.core.simulator import SimulationAborted, Watchdog

#: Extra wall-clock slack a parent grants beyond the in-process
#: watchdog before hard-killing a child or fabric worker (covers hangs
#: inside a single simulator step, where the abort hook never gets
#: polled).
KILL_GRACE_SECONDS = 2.0

#: Slack added to a spec's nominal cycle count for the watchdog's
#: cycle-budget guard (a tripwire, not a schedule).
CYCLE_BUDGET_SLACK = 4096


@dataclass(frozen=True)
class RunFailure:
    """One task's structured, picklable post-mortem."""

    kind: str                # a failure taxonomy kind
    message: str
    details: Optional[Dict[str, Any]] = None  # violation dict, traceback tail


@dataclass
class TaskOutcome:
    """One supervised task's verdict."""

    key: str
    result: Any = None
    failure: Optional[RunFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def classify_exception(exc: BaseException) -> Tuple[str, Dict[str, Any]]:
    """Map an exception onto the failure taxonomy: ``(kind, payload)``.

    The single classification boundary shared by the supervisor's child
    processes and the scheduler's campaign workers
    (:mod:`repro.sched.worker`).  Notably, the multicore driver's
    :class:`~repro.multicore.driver.DriverInvariantError` classifies as
    ``invariant`` — a deterministic property of the run, never retried —
    rather than falling through as a generic (retryable) ``crash``.
    """
    # Lazy imports: both modules import this module's package.
    from repro.multicore.driver import DriverInvariantError
    from repro.verify.sanitizer import InvariantViolation

    if isinstance(exc, InvariantViolation):
        return "invariant", {"message": str(exc),
                             "violation": exc.to_dict()}
    if isinstance(exc, DriverInvariantError):
        return "invariant", {"message": str(exc), "details": exc.details}
    if isinstance(exc, SimulationAborted):
        return "timeout", {"message": str(exc), "cycle": exc.cycle}
    if isinstance(exc, MemoryError):
        return "oom", {"message": "MemoryError in worker"}
    if isinstance(exc, KeyboardInterrupt):
        return "interrupted", {"message": "worker interrupted"}
    return "crash", {
        "message": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc()[-2000:],
    }


def classify_exit(exitcode: Optional[int]) -> Tuple[str, str]:
    """Classify a process that died without a verdict: ``(kind,
    message)``.  SIGKILL is the OOM killer's signature (or an
    operator's); anything else is a crash (segfault, bus error, runaway
    recursion, ``os._exit``, ...).  Shared by the supervisor's children
    and the fabric drain's forked workers."""
    if exitcode == -signal.SIGKILL:
        return "oom", "worker killed by SIGKILL (out of memory?)"
    return "crash", f"worker died without a verdict (exit code {exitcode})"


def _child_main(conn, fn, payload, timeout: Optional[float]) -> None:
    """Child entry: run ``fn(payload, watchdog)`` and ship a
    ``(status, payload)`` verdict back over the pipe.  Every exception
    is converted to a structured message — a child never dies silently
    unless the OS kills it."""
    try:
        watchdog = Watchdog(wall_seconds=timeout) if timeout else None
        conn.send(("ok", fn(payload, watchdog)))
    except BaseException as exc:  # noqa: BLE001 - taxonomy boundary
        conn.send(classify_exception(exc))
    finally:
        conn.close()


class _Handle(NamedTuple):
    """One live child process and its bookkeeping."""

    key: str
    process: Any
    conn: Any
    started: float
    deadline: Optional[float]


class Supervisor:
    """Run picklable tasks in crash-isolated child processes with
    timeouts and structured failure records.

    ``fn(payload, watchdog)`` executes in a fresh child process per task
    (``fork`` start method, so the child inherits the parent's programs
    and any monkeypatch); its return value must be picklable.
    ``on_outcome`` fires once per task with its :class:`TaskOutcome` —
    successes and failures both — as tasks complete.

    ``run`` returns ``{key: TaskOutcome}``.  On ``KeyboardInterrupt``
    the supervisor kills every live child, records them as
    ``interrupted`` failures (visible in :attr:`outcomes`), and
    re-raises — queued-but-unstarted tasks carry no record.
    """

    def __init__(
        self,
        fn: Callable[[Any, Optional[Watchdog]], Any],
        jobs: int = 1,
        timeout: Optional[float] = None,
        kill_grace: float = KILL_GRACE_SECONDS,
        on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    ):
        self.fn = fn
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.kill_grace = kill_grace
        self.on_outcome = on_outcome
        self.outcomes: Dict[str, TaskOutcome] = {}
        self._ctx = multiprocessing.get_context("fork")

    def run(self, tasks: Sequence[Tuple[str, Any]]) -> Dict[str, TaskOutcome]:
        queue = list(tasks)
        live: Dict[Any, _Handle] = {}  # conn -> handle
        self.outcomes = {}
        try:
            while queue or live:
                while queue and len(live) < self.jobs:
                    self._launch(*queue.pop(0), live)
                for conn in _conn_wait(list(live),
                                       timeout=self._next_wait(live)):
                    self._reap(live.pop(conn))
                self._kill_expired(live)
        except KeyboardInterrupt:
            for handle in live.values():
                self._kill(handle)
                self._finish(handle.key, "interrupted",
                             "campaign interrupted (worker killed)")
            raise
        return self.outcomes

    def _launch(self, key, payload, live) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_child_main,
            args=(child_conn, self.fn, payload, self.timeout),
            daemon=True,
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        deadline = now + self.timeout + self.kill_grace \
            if self.timeout else None
        live[parent_conn] = _Handle(key, process, parent_conn, now,
                                    deadline)

    def _next_wait(self, live) -> Optional[float]:
        deadlines = [handle.deadline for handle in live.values()
                     if handle.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _reap(self, handle: _Handle) -> None:
        """A child's pipe is ready (verdict sent, or died silently)."""
        try:
            message = handle.conn.recv()
        except (EOFError, OSError):
            message = None
        finally:
            handle.conn.close()
        handle.process.join(timeout=10.0)
        if handle.process.is_alive():  # pragma: no cover - defensive
            handle.process.kill()
            handle.process.join()

        if message is None:
            exitcode = handle.process.exitcode
            kind, text = classify_exit(exitcode)
            self._finish(handle.key, kind, text, {"exitcode": exitcode})
        elif message[0] == "ok":
            self.outcomes[handle.key] = outcome = TaskOutcome(
                key=handle.key, result=message[1])
            if self.on_outcome is not None:
                self.on_outcome(outcome)
        else:
            status, details = message
            self._finish(handle.key, status,
                         details.get("message", status), details)

    def _kill_expired(self, live) -> None:
        now = time.monotonic()
        for conn, handle in list(live.items()):
            if handle.deadline is None or now < handle.deadline:
                continue
            del live[conn]
            self._kill(handle)
            self._finish(
                handle.key, "timeout",
                f"worker hard-killed after {now - handle.started:.1f}s "
                f"(timeout {self.timeout}s + {self.kill_grace}s grace)")

    def _kill(self, handle: _Handle) -> None:
        process = handle.process
        try:
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        finally:
            handle.conn.close()

    def _finish(self, key: str, kind: str, message: str,
                details: Optional[Dict[str, Any]] = None) -> None:
        """Record (and report) a failed task."""
        self.outcomes[key] = outcome = TaskOutcome(
            key=key, failure=RunFailure(kind, message, details))
        if self.on_outcome is not None:
            self.on_outcome(outcome)
