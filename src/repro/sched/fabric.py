"""The durable ``execute_runs`` backend: a batch's misses as a campaign.

The fabric is the scheduler worn as an engine backend.
:func:`repro.experiments.parallel.execute_runs` serves cache hits and
dedupes the batch; :func:`drain_misses` submits the misses to a durable
campaign, forked workers drain it, and results come back in spec order
— same contract as the in-process backend (failed points as ``None``),
different failure story:

* a worker that dies mid-task costs that attempt, settled at once by
  the drain; a SIGKILL'd ``repro worker`` or a torn journal costs one
  lease TTL, not the batch;
* with ``timeout`` set, each run executes under a watchdog in its
  worker, and the drain SIGKILLs a worker that outlives ``timeout``
  plus grace;
* crashes and timeouts retry with backoff up to ``max_attempts``;
* rerunning the batch resumes it: finished runs replay from the journal
  and result store, and the batch's failed runs are reopened and
  retried.

Durable mode is on exactly when
:func:`repro.experiments.parallel.configure` holds a ``fabric_dir``
(``repro experiment`` sets one for every durable run, from
``--fabric-dir`` or ``<cache dir>/campaigns/<name>``: one directory for
all of the experiment's batches, so rerunning the same command resumes
its campaign).  The same setter carries ``--timeout`` and
``--max-retries`` (as ``max_attempts``) into the campaign config.

Worker topology (:func:`drain_campaign`): the calling process forks
``jobs`` workers, one at ``jobs == 1``, and bounds them.  They inherit
its imports, programs, warm images and engine configuration, and
coordinate only through the journal lock — the protocol ``repro
worker`` hosts sharing a filesystem use.  So a run that crashes its
process, or a kill of the command, costs at most the run in flight.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.supervise import KILL_GRACE_SECONDS, classify_exit
from repro.sched.campaign import (
    CampaignConfig,
    default_result_store,
    spec_from_payload,
    submit_specs,
    task_result,
)
from repro.sched.journal import JournalWriter, lock_journal
from repro.sched.state import FAILED, LEASED, QUARANTINED, load_state
from repro.sched.worker import (
    ExecutionOutcome,
    Worker,
    default_worker_id,
    outcome_record,
)


def drain_campaign(
    directory: str,
    store: ResultCache,
    jobs: int = 1,
    poll: float = 0.05,
    on_poll: Optional[Callable[[], None]] = None,
) -> None:
    """Run workers against ``directory`` until every task is terminal.

    The unfinished tasks' programs and shared warm states are built
    here, then ``jobs`` forked workers run under :class:`_Drain`.
    ``on_poll`` (progress reporting) is called on every poll.  Ctrl-C
    propagates once the workers have released their tasks or stopped.
    """
    timeout = CampaignConfig.from_state(load_state(directory)).timeout
    _build_programs(directory)
    _Drain(directory, store, poll, timeout).run(max(1, jobs), on_poll)


def _build_programs(directory: str) -> None:
    """Build the programs of the campaign's unfinished tasks, and the
    warm states two or more of its runs share, so forked workers inherit
    them instead of computing them each."""
    specs = []
    for task in load_state(directory).iter_tasks():
        if task.terminal:
            continue
        try:
            spec = spec_from_payload(task.payload)
            spec.programs()
        except Exception:  # noqa: BLE001 - the worker that claims the
            continue       # task records why it cannot run
        specs.append(spec)
    parallel._ensure_images(specs)


class _Drain:
    """A drain's parent: forks named workers and bounds them.

    Every poll (0.2 s at most) replays the journal and notes when it
    first saw each of its workers' leases.  A worker whose lease has run
    past ``timeout + KILL_GRACE_SECONDS`` is SIGKILLed and its task
    settled as ``timeout`` (a multicore cell polls no watchdog, so this
    bounds it); a worker that dies has its task settled as ``oom`` or
    ``crash`` by exit code.  Then a replacement is forked while
    unfinished tasks remain.  A forked worker handles SIGINT and SIGTERM
    as ``repro worker`` does, and stops claiming once this process is
    gone.
    """

    def __init__(self, directory: str, store: ResultCache, poll: float,
                 timeout: Optional[float]):
        self.directory = directory
        self.store = store
        self.poll = poll
        self.timeout = timeout
        self.prefix = default_worker_id()
        self.procs: Dict[str, Any] = {}   # worker id -> process
        #: (worker, key, attempt) -> when a poll first saw that lease.
        self.leases: Dict[Tuple[str, str, int], float] = {}

    def run(self, jobs: int, on_poll: Optional[Callable[[], None]]) -> None:
        try:
            for _ in range(jobs):
                self.fork()
            while self.procs:
                if on_poll is not None:
                    on_poll()
                wait([proc.sentinel for proc in self.procs.values()],
                     timeout=0.2)
                self.supervise()
        finally:
            for proc in self.procs.values():
                if proc.is_alive():
                    proc.terminate()   # drain: finish the task, then stop
            for proc in self.procs.values():
                proc.join(self.timeout and self.timeout + KILL_GRACE_SECONDS)
                if proc.is_alive():
                    proc.kill()
                    proc.join()

    def fork(self) -> None:
        proc = multiprocessing.get_context("fork").Process(
            target=_serve_forked,
            args=(self.directory, self.store, self.poll, self.prefix,
                  os.getpid()))
        proc.start()
        self.procs[f"{self.prefix}-{proc.pid}"] = proc

    def supervise(self) -> None:
        """Settle the tasks of the workers that died or ran past their
        deadline, and replace them."""
        now = time.monotonic()
        held = {task.lease.worker: (task.key, task.attempt)
                for task in load_state(self.directory).iter_tasks()
                if task.status == LEASED and task.lease is not None}
        for worker, proc in list(self.procs.items()):
            lease = held.get(worker)
            since = None if lease is None else \
                self.leases.setdefault((worker,) + lease, now)
            if not proc.is_alive():
                kind, message = classify_exit(proc.exitcode)
                self.settle(worker, None, kind, {
                    "message": message, "exitcode": proc.exitcode})
            elif self.timeout is not None and since is not None \
                    and now - since > self.timeout + KILL_GRACE_SECONDS:
                self.settle(worker, lease, "timeout", {"message": (
                    f"worker killed after {now - since:.1f}s (timeout "
                    f"{self.timeout}s + {KILL_GRACE_SECONDS}s grace)")})

    def settle(self, worker: str, lease: Optional[Tuple[str, int]],
               kind: str, payload: Dict[str, Any]) -> None:
        """Under the campaign lock, SIGKILL ``worker`` if it still runs
        ``lease`` (a ``(key, attempt)`` past its deadline; ``None`` for
        a worker that died), journal a ``kind`` failure for the task it
        leases by the worker's own retry rule
        (:func:`repro.sched.worker.outcome_record`), and replace it."""
        with lock_journal(self.directory):
            state = load_state(self.directory)
            task = next((task for task in state.iter_tasks()
                         if task.status == LEASED
                         and task.lease.worker == worker), None)
            if lease is not None:
                if task is None or (task.key, task.attempt) != lease:
                    return   # it finished that task meanwhile
                self.procs[worker].kill()
                self.procs[worker].join()
            del self.procs[worker]
            if task is None:
                return
            record = outcome_record(
                task, ExecutionOutcome(ok=False, kind=kind, payload=payload),
                worker, CampaignConfig.from_state(state), time.time())
            with JournalWriter(self.directory) as writer:
                writer.append(record)
            state.apply(record)
        if not state.all_terminal():
            self.fork()


def _serve_forked(directory: str, store: ResultCache, poll: float,
                  prefix: str, parent: int) -> None:
    """A forked worker's body: drain until every task is terminal or
    the parent is gone; end quietly on SIGINT (the task is requeued)."""
    try:
        Worker(directory, cache=store, worker_id=f"{prefix}-{os.getpid()}",
               poll_interval=poll, parent=parent).serve(drain=True)
    except KeyboardInterrupt:
        pass


def drain_misses(
    directory: str,
    misses: List[Any],
    cache: Optional[ResultCache],
    jobs: int,
    finished: Callable[..., None],
) -> None:
    """The fabric backend of
    :func:`~repro.experiments.parallel.execute_runs`: submit the misses,
    reopen the ones the journal holds as failed, drain, and report each
    task as it settles."""
    # Workers store results themselves: in the shared cache when caching
    # is on (completion is idempotent across campaigns), else in a
    # campaign-local store so --no-cache stays side-effect free outside
    # the campaign directory.
    store = cache if cache is not None else default_result_store(directory)
    max_attempts = parallel.configured("max_attempts")
    config = CampaignConfig(
        name=os.path.basename(directory.rstrip(os.sep)) or "fabric",
        max_attempts=CampaignConfig.max_attempts if max_attempts is None
        else max_attempts,
        timeout=parallel.configured("timeout"),
    )
    keys = [spec.key() for spec in misses]
    submit_specs(directory, misses, config)
    _resume(directory, keys, config)

    settled = set()

    def poll() -> None:
        state = load_state(directory)
        tasks = [state.tasks[key] for key in keys]
        retried = sum(max(0, task.attempt - 1) for task in tasks)
        for j, task in enumerate(tasks):
            if task.terminal and j not in settled:
                settled.add(j)
                finished(j, task_result(task, store), retried)

    drain_campaign(directory, store, jobs=min(jobs, len(misses)),
                   on_poll=poll)
    poll()


def _resume(directory: str, keys: Sequence[str], config: Any) -> None:
    """Make a rerun of a batch retry it: reopen the tasks among ``keys``
    that the journal holds as failed or quarantined, and record
    ``config`` if it changed (a rerun may raise ``--timeout`` or
    ``--max-retries``).  Runs under the campaign lock."""
    wanted = set(keys)
    with lock_journal(directory):
        state = load_state(directory)
        records = [{"event": "reopen", "key": task.key}
                   for task in state.iter_tasks()
                   if task.key in wanted
                   and task.status in (FAILED, QUARANTINED)]
        if CampaignConfig.from_state(state) != config:
            records.insert(0, {"event": "campaign", "name": config.name,
                               "config": config.to_dict()})
        if records:
            with JournalWriter(directory) as writer:
                for record in records:
                    writer.append(record)
