"""Crash-isolated task execution: the campaign worker's timeout path.

A run that hangs, dies or eats the host's memory must cost one task,
not the worker that ran it.  :class:`Supervisor` runs each task in its
own ``fork`` ed child process:

* **Watchdog timeouts** — the child installs a
  :class:`~repro.core.simulator.Watchdog` (wall-clock + cycle budget) as
  the simulator's abort hook, so a pathological configuration aborts
  itself with a structured
  :class:`~repro.core.simulator.SimulationAborted`; the parent also
  hard-kills a child that blows past ``timeout + KILL_GRACE_SECONDS``
  (a hang inside one simulator step never polls the hook).
* **Crash isolation** — exceptions, signals and OOM kills become
  picklable :class:`RunFailure` records with a ``kind`` from the
  failure taxonomy (``timeout | crash | invariant | oom |
  interrupted``, see :func:`classify_exception`).
* **Ctrl-C** kills every live child and re-raises.

Retries, resume and reporting are not here: the campaign scheduler
(:mod:`repro.sched`) owns them.  A campaign whose
:class:`~repro.sched.campaign.CampaignConfig` sets ``timeout`` runs
each task through ``Supervisor(jobs=1, timeout=...)`` inside its worker
(:meth:`repro.sched.worker.Worker.execute`); ``repro fuzz`` uses the
supervisor directly for ``--jobs N`` / ``--timeout``.

Determinism: a run is a pure function of its spec, so an isolated run's
result is field-identical to an in-process one — isolation changes
*where* a run executes, never *what* it computes.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.simulator import SimulationAborted, Watchdog

#: Failure taxonomy (the only values ``RunFailure.kind`` takes).
FAILURE_KINDS = ("timeout", "crash", "invariant", "oom", "interrupted")

#: Extra wall-clock slack the parent grants beyond the in-worker
#: watchdog before hard-killing a worker (covers hangs inside a single
#: simulator step, where the abort hook never gets polled).
KILL_GRACE_SECONDS = 2.0

#: Slack added to a spec's nominal cycle count for the watchdog's
#: cycle-budget guard (a tripwire, not a schedule).
CYCLE_BUDGET_SLACK = 4096


# ----------------------------------------------------------------------
# Failure records.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunFailure:
    """One run's structured, picklable post-mortem."""

    kind: str                # one of FAILURE_KINDS
    key: str                 # task identity (spec hash / "seed:N")
    message: str
    elapsed: float = 0.0     # wall seconds of the final attempt
    details: Optional[Dict[str, Any]] = None  # violation dict, traceback tail


@dataclass
class TaskOutcome:
    """One supervised task's verdict."""

    key: str
    result: Any = None
    failure: Optional[RunFailure] = None
    elapsed: float = 0.0     # wall seconds in the child

    @property
    def ok(self) -> bool:
        return self.failure is None


# ----------------------------------------------------------------------
# The generic supervisor: crash-isolated process-per-task execution.
# ----------------------------------------------------------------------
def classify_exception(exc: BaseException) -> Tuple[str, Dict[str, Any]]:
    """Map an exception onto the failure taxonomy: ``(kind, payload)``.

    The single classification boundary shared by the supervisor's child
    processes and the scheduler's campaign workers
    (:mod:`repro.sched.worker`).  Notably, the multicore driver's
    :class:`~repro.multicore.driver.DriverInvariantError` classifies as
    ``invariant`` — a deterministic property of the run, never retried —
    rather than falling through as a generic (retryable) ``crash``.
    """
    # Lazy imports: repro.verify imports this module's package, so the
    # sanitizer cannot be imported at module load without a cycle.
    from repro.verify.sanitizer import InvariantViolation

    try:
        from repro.multicore.driver import DriverInvariantError
    except ImportError:  # pragma: no cover - partial installs
        DriverInvariantError = None  # type: ignore[assignment]

    if isinstance(exc, InvariantViolation):
        return "invariant", {"message": str(exc),
                             "violation": exc.to_dict()}
    if DriverInvariantError is not None and isinstance(
            exc, DriverInvariantError):
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


def _child_main(conn, fn, payload, timeout: Optional[float]) -> None:
    """Worker-process entry: run ``fn(payload, watchdog)`` and ship a
    ``(status, payload)`` verdict back over the pipe.  Every exception
    is converted to a structured message — a worker never dies silently
    unless the OS kills it."""
    try:
        watchdog = Watchdog(wall_seconds=timeout) if timeout else None
        result = fn(payload, watchdog)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - taxonomy boundary
        conn.send(classify_exception(exc))
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _mp_context():
    """``fork`` keeps the parent's warm program cache (and lets tests
    inject behaviour via monkeypatching before the fork)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Handle:
    """One live worker process and its bookkeeping."""

    __slots__ = ("key", "process", "conn", "started", "deadline")

    def __init__(self, key, process, conn, started, deadline):
        self.key = key
        self.process = process
        self.conn = conn
        self.started = started
        self.deadline = deadline


class Supervisor:
    """Run picklable tasks in crash-isolated worker processes with
    timeouts and structured failure records.

    ``fn(payload, watchdog)`` executes in a fresh child process per task
    (``fork`` start method); its return value must be picklable.
    ``on_outcome`` fires once per task with its :class:`TaskOutcome` —
    successes and failures both — as tasks complete.

    ``run`` returns ``{key: TaskOutcome}``.  On ``KeyboardInterrupt``
    the supervisor kills every live worker, records them as
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
        self._ctx = _mp_context()

    # ------------------------------------------------------------------
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
            self._interrupt(live)
            raise
        return self.outcomes

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def _reap(self, handle: _Handle) -> None:
        """A worker's pipe is ready (verdict sent, or died silently)."""
        message = None
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
        elapsed = time.monotonic() - handle.started

        if message is not None:
            status, payload = message
            if status == "ok":
                self._finish(TaskOutcome(key=handle.key, result=payload,
                                         elapsed=elapsed))
                return
            details = payload if isinstance(payload, dict) else \
                {"message": str(payload)}
            self._failed(handle, status, details.get("message", status),
                         details, elapsed)
            return

        # Died without a verdict: a signal got it.  SIGKILL is the OOM
        # killer's signature (or an operator's); anything else is a
        # crash (segfault, bus error, runaway recursion, ...).
        exitcode = handle.process.exitcode
        if exitcode == -signal.SIGKILL:
            kind, message_text = "oom", (
                "worker killed by SIGKILL (out of memory?)"
            )
        else:
            kind, message_text = "crash", (
                f"worker died without a verdict (exit code {exitcode})"
            )
        self._failed(handle, kind, message_text, {"exitcode": exitcode},
                     elapsed)

    def _kill_expired(self, live) -> None:
        now = time.monotonic()
        expired = [
            conn for conn, handle in live.items()
            if handle.deadline is not None and now >= handle.deadline
        ]
        for conn in expired:
            handle = live.pop(conn)
            self._kill(handle)
            elapsed = now - handle.started
            self._failed(
                handle, "timeout",
                f"worker hard-killed after {elapsed:.1f}s "
                f"(timeout {self.timeout}s + {self.kill_grace}s grace)",
                None, elapsed,
            )

    def _kill(self, handle: _Handle) -> None:
        process = handle.process
        try:
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        finally:
            try:
                handle.conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def _failed(self, handle, kind, message, details, elapsed) -> None:
        self._finish(TaskOutcome(
            key=handle.key,
            failure=RunFailure(kind=kind, key=handle.key, message=message,
                               elapsed=elapsed, details=details),
            elapsed=elapsed,
        ))

    def _finish(self, outcome: TaskOutcome) -> None:
        self.outcomes[outcome.key] = outcome
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _interrupt(self, live) -> None:
        """Ctrl-C: kill workers promptly, record them as interrupted."""
        for conn in list(live):
            handle = live.pop(conn)
            self._kill(handle)
            self._failed(handle, "interrupted",
                         "campaign interrupted (worker killed)", None,
                         time.monotonic() - handle.started)


# ----------------------------------------------------------------------
# Job execution (the campaign worker's isolated path).
# ----------------------------------------------------------------------
def _run_spec_task(spec, watchdog: Optional[Watchdog] = None):
    """Supervisor task fn: one job in a worker, watchdog attached to a
    run (the hard kill alone bounds a multicore job).

    Called through the module so tests can monkeypatch
    ``parallel.run_spec`` to inject crashes/hangs (the ``fork`` start
    method carries the patch into the child)."""
    from repro.experiments import parallel

    if spec.kind != "run":
        return spec.run()
    if watchdog is not None:
        budget = spec.budget
        watchdog.max_cycles = (budget.warmup_cycles
                               + budget.measure_cycles
                               + CYCLE_BUDGET_SLACK)
    return parallel.run_spec(spec, watchdog=watchdog)
