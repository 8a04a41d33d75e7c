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

Enablement mirrors the engine's knob convention: explicit
``configure(fabric=...)`` (``repro experiment`` in durable mode) beats
the ``REPRO_FABRIC`` environment flag.  ``configure`` also carries the
CLI's ``--fabric-dir``, ``--timeout`` and ``--max-retries`` (as
``max_attempts``) into the campaign config.

Campaign directories default to ``<cache dir>/fabric/<digest>`` where
the digest covers the batch's spec keys — re-running the same study
resumes its campaign instead of starting over.  ``repro experiment``
passes ``<cache dir>/campaigns/<name>`` instead, one directory for all
of the experiment's batches.

Worker topology: ``jobs == 1`` drains in-process (no subprocess
overhead, same journal protocol); ``jobs > 1`` launches ``jobs``
independent ``python -m repro worker <dir> --drain`` processes that
coordinate only through the journal lock — exactly the deployment shape
of separate worker hosts sharing a filesystem.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.envutil import env_flag
from repro.experiments.cache import ResultCache, default_cache_dir

_UNSET = object()

_configured_fabric: Optional[bool] = None
_configured_fabric_dir: Optional[str] = None
_configured_timeout: Optional[float] = None
_configured_max_attempts: Optional[int] = None


def configure(fabric: Any = _UNSET, fabric_dir: Any = _UNSET,
              timeout: Any = _UNSET, max_attempts: Any = _UNSET) -> None:
    """Set process-wide fabric defaults (``repro experiment``'s
    ``--fabric-dir`` / ``--timeout`` / ``--max-retries``).  Pass
    ``None`` to reset a knob (``fabric``: to the environment;
    ``timeout`` / ``max_attempts``: to the :class:`CampaignConfig`
    defaults)."""
    global _configured_fabric, _configured_fabric_dir
    global _configured_timeout, _configured_max_attempts
    if fabric is not _UNSET:
        _configured_fabric = fabric
    if fabric_dir is not _UNSET:
        _configured_fabric_dir = fabric_dir
    if timeout is not _UNSET:
        _configured_timeout = timeout
    if max_attempts is not _UNSET:
        _configured_max_attempts = max_attempts


def fabric_enabled() -> bool:
    if _configured_fabric is not None:
        return _configured_fabric
    return env_flag("REPRO_FABRIC")


def campaign_dir_for(keys: Sequence[str]) -> str:
    """The default campaign directory for a batch (content-addressed,
    so identical studies share a resumable campaign)."""
    if _configured_fabric_dir:
        return _configured_fabric_dir
    digest = hashlib.sha256("\n".join(sorted(set(keys))).encode()).hexdigest()
    return os.path.join(default_cache_dir(), "fabric", digest[:16])


def _worker_env() -> dict:
    """Environment for worker subprocesses: inherit, ensure ``repro``
    is importable, and pin fabric off (workers run specs directly)."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (src_root + os.pathsep + existing
                             if existing else src_root)
    env["REPRO_FABRIC"] = "0"
    return env


def drain_campaign(
    directory: str,
    store: ResultCache,
    jobs: int = 1,
    poll: float = 0.05,
    on_poll: Optional[Callable[[], None]] = None,
) -> None:
    """Run workers against ``directory`` until every task is terminal.

    ``jobs <= 1`` drains with one in-process worker; otherwise ``jobs``
    ``python -m repro worker --drain`` subprocesses share the campaign,
    coordinating only through the journal (the deployment shape of
    independent worker hosts).  ``on_poll`` (progress reporting) is
    called after every task the in-process worker finishes, or
    periodically while subprocess workers run.  Ctrl-C propagates once
    the in-process worker has released its task, or once the
    subprocess workers are stopped.
    """
    from repro.sched.worker import Worker

    if jobs <= 1:
        worker = Worker(directory, cache=store, poll_interval=poll)
        worker.serve(drain=True, install_signals=False, on_task=on_poll)
        return
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", directory,
             "--drain", "--cache-dir", store.directory,
             "--poll", str(poll)],
            env=_worker_env(),
        )
        for _ in range(jobs)
    ]
    try:
        while any(proc.poll() is None for proc in procs):
            if on_poll is not None:
                on_poll()
            time.sleep(0.2)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            proc.wait()


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
    overrides = {"timeout": _configured_timeout}
    if _configured_max_attempts is not None:
        overrides["max_attempts"] = _configured_max_attempts
    config = CampaignConfig(
        name=os.path.basename(directory.rstrip(os.sep)) or "fabric",
        lease_ttl=lease_ttl if lease_ttl is not None else 60.0,
        **overrides,
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
