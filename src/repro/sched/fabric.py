"""The durable ``execute_runs`` backend: a batch's misses as a campaign.

The fabric is the scheduler worn as an engine backend.  The shared
front half (:func:`repro.experiments.parallel.run_batch`) serves cache
hits and dedupes the batch; the misses are submitted to a durable
campaign, workers drain it, and results come back in spec order — same
contract as the in-process backend (failed points as ``None``),
different failure story:

* a SIGKILL'd worker or a torn journal costs one lease TTL, not the
  batch;
* with ``timeout`` set, each run executes in a crash-isolated child
  under a watchdog (:class:`repro.experiments.supervise.Supervisor`);
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
:func:`fabric_execute_runs` called without a directory uses
``<cache dir>/fabric/<digest>``, where the digest covers the batch's
spec keys.

Worker topology: ``jobs == 1`` drains in process; ``jobs > 1`` forks
``jobs`` workers from the calling process once it has built the
workloads' programs.  The workers inherit its imports, programs and
engine configuration, and coordinate only through the journal lock —
the protocol separate worker hosts sharing a filesystem use, through
``repro worker``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from multiprocessing.connection import wait
from typing import Any, Callable, List, Optional, Sequence

from repro.experiments.cache import ResultCache, default_cache_dir


def campaign_dir_for(keys: Sequence[str]) -> str:
    """The default campaign directory for a batch (content-addressed,
    so identical studies share a resumable campaign)."""
    digest = hashlib.sha256("\n".join(sorted(set(keys))).encode()).hexdigest()
    return os.path.join(default_cache_dir(), "fabric", digest[:16])


def drain_campaign(
    directory: str,
    store: ResultCache,
    jobs: int = 1,
    poll: float = 0.05,
    on_poll: Optional[Callable[[], None]] = None,
) -> None:
    """Run workers against ``directory`` until every task is terminal.

    ``jobs <= 1`` drains with one in-process worker; otherwise the
    unfinished tasks' programs are built here and ``jobs`` workers are
    forked, sharing the campaign through the journal alone.  A forked
    worker handles SIGINT and SIGTERM as ``repro worker`` does.
    ``on_poll`` (progress reporting) is called after every task the
    in-process worker finishes, or periodically while forked workers
    run.  Ctrl-C propagates once the in-process worker has released its
    task, or once the forked workers have stopped.
    """
    from repro.sched.worker import Worker

    if jobs <= 1:
        worker = Worker(directory, cache=store, poll_interval=poll)
        worker.serve(drain=True, install_signals=False, on_task=on_poll)
        return
    _build_programs(directory)
    context = multiprocessing.get_context("fork")
    # Not daemonic: a timeout campaign's worker forks a Supervisor child
    # per task.
    procs = [context.Process(target=_serve_forked,
                             args=(directory, store, poll), daemon=False)
             for _ in range(jobs)]
    try:
        for proc in procs:
            proc.start()
        while any(proc.is_alive() for proc in procs):
            if on_poll is not None:
                on_poll()
            wait([proc.sentinel for proc in procs], timeout=0.2)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()   # drain: finish the task, then stop
        for proc in procs:
            if proc.pid is not None:
                proc.join()


def _build_programs(directory: str) -> None:
    """Build the programs of the campaign's unfinished tasks, so forked
    workers inherit them instead of generating them each."""
    from repro.sched.campaign import spec_from_payload
    from repro.sched.state import load_state

    for task in load_state(directory).iter_tasks():
        if task.terminal:
            continue
        try:
            spec_from_payload(task.payload).programs()
        except Exception:  # noqa: BLE001 - the worker that claims the
            pass           # task records why it cannot run


def _serve_forked(directory: str, store: ResultCache, poll: float) -> None:
    """A forked worker's body: drain, and end quietly on SIGINT (the
    task went back to the queue)."""
    from repro.sched.worker import Worker

    try:
        Worker(directory, cache=store, poll_interval=poll).serve(drain=True)
    except KeyboardInterrupt:
        pass


def fabric_execute_runs(
    specs: Sequence[Any],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Any] = None,
    directory: Optional[str] = None,
    lease_ttl: Optional[float] = None,
) -> List[Any]:
    """Run ``specs`` through the shared front half with the fabric as
    the backend; results in spec order, failed points ``None``.

    The campaign journal and result store survive the call — a rerun of
    the same batch resumes instead of recomputing, and retries the
    runs that failed.
    """
    from repro.experiments.parallel import run_batch

    if not specs:
        return []
    directory = directory or campaign_dir_for([spec.key() for spec in specs])

    def backend(misses: List[Any], cache: Optional[ResultCache], jobs: int,
                finished: Callable[..., None]) -> None:
        _drain_misses(directory, misses, cache, jobs, finished, lease_ttl)

    return run_batch(specs, backend, jobs=jobs, use_cache=use_cache,
                     cache=cache, progress=progress)


def _drain_misses(
    directory: str,
    misses: List[Any],
    cache: Optional[ResultCache],
    jobs: int,
    finished: Callable[..., None],
    lease_ttl: Optional[float],
) -> None:
    """The fabric backend: submit the misses, reopen the ones the journal
    holds as failed, drain, and report each task as it settles."""
    from repro.experiments import parallel
    from repro.sched.campaign import (
        CampaignConfig,
        default_result_store,
        submit_specs,
        task_result,
    )
    from repro.sched.state import load_state

    # Workers store results themselves: in the shared cache when caching
    # is on (completion is idempotent across campaigns), else in a
    # campaign-local store so --no-cache stays side-effect free outside
    # the campaign directory.
    store = cache if cache is not None else default_result_store(directory)
    max_attempts = parallel.configured("max_attempts")
    config = CampaignConfig(
        name=os.path.basename(directory.rstrip(os.sep)) or "fabric",
        lease_ttl=lease_ttl if lease_ttl is not None else 60.0,
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
    from repro.sched.campaign import CampaignConfig
    from repro.sched.journal import JournalWriter, lock_journal
    from repro.sched.state import FAILED, QUARANTINED, load_state

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
