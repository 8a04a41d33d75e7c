"""The fabric as an ``execute_runs`` backend: the shared front half
(cache scan, progress), Ctrl-C on a drain, resume (reopening a rerun
batch's failed tasks), and forked local workers (what they inherit, a
worker's death, a killed drain)."""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro

from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.sched import fabric
from repro.sched.campaign import (
    CampaignConfig,
    default_result_store,
    submit_specs,
    task_result,
)
from repro.sched.journal import read_records
from repro.sched.state import DONE, FAILED, PENDING, load_state
from repro.workloads import mixes

from tests.sched.conftest import tiny_spec

#: The repository root, for subprocesses that import ``tests``.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def engine_reset():
    yield
    parallel.configure(fabric_dir=None, timeout=None, max_attempts=None)


def durable_runs(specs, directory, **kwargs):
    """``execute_runs`` in durable mode, draining through ``directory``."""
    parallel.configure(fabric_dir=directory)
    return parallel.execute_runs(specs, **kwargs)


def leased(directory):
    """The keys the campaign leased, one per attempt, from its journal."""
    return [record["key"] for record in read_records(directory)
            if record.get("event") == "lease"]


def spawn(script, *args, **kwargs):
    """Start ``python -c script args`` with ``src/`` and the repository
    root on its path."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, ROOT, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, **kwargs)


@pytest.fixture
def counting_run_spec(monkeypatch, stub_run_fn):
    """Patch the run function fabric workers call (a forked worker
    carries the patch); returns :func:`leased`, which counts the runs a
    campaign started from its journal."""
    monkeypatch.setattr(parallel, "run_spec_fast", stub_run_fn)
    return leased


class TestFrontHalf:
    def test_cached_specs_are_not_resimulated(self, tmp_path, tiny_specs,
                                              tiny_results,
                                              counting_run_spec):
        cache = ResultCache(str(tmp_path / "cache"))
        parallel.execute_runs(tiny_specs, jobs=1, cache=cache)

        directory = str(tmp_path / "fresh")
        results = durable_runs(tiny_specs, directory, jobs=1, cache=cache)
        assert counting_run_spec(directory) == []
        assert [r.ipc for r in results] == \
            [tiny_results[s.key()].ipc for s in tiny_specs]
        # Cache hits never reach the campaign.
        assert not load_state(directory).tasks

    def test_progress_after_scan_and_every_run(self, tmp_path, tiny_specs,
                                               counting_run_spec):
        snapshots = []
        durable_runs(tiny_specs, str(tmp_path / "fab"), jobs=1,
                     use_cache=False, progress=snapshots.append)
        assert [s.completed for s in snapshots] == [0, 1, 2, 3]
        assert snapshots[-1].failed == 0 and snapshots[-1].retried == 0


class TestInterrupt:
    def test_ctrl_c_propagates_and_rerun_completes(self, tmp_path,
                                                   tiny_specs,
                                                   tiny_results,
                                                   monkeypatch,
                                                   stub_run_fn):
        """SIGINT to a ``jobs=1`` drain's process group while its worker
        runs rotation 1: the task goes back to the queue, the batch
        raises ``KeyboardInterrupt``, and a rerun completes it."""
        directory = str(tmp_path / "fab")
        running = str(tmp_path / "running")
        drain = spawn("""
            import sys, time
            from repro.experiments import parallel
            from tests.sched.conftest import tiny_spec

            real = parallel.run_spec_fast

            def hang_at_rotation_one(spec, watchdog=None):
                if spec.rotation == 1:
                    open(sys.argv[2], "w").close()
                    time.sleep(60)
                return real(spec, watchdog)

            parallel.run_spec_fast = hang_at_rotation_one
            parallel.configure(fabric_dir=sys.argv[1])
            try:
                parallel.execute_runs([tiny_spec(rotation=r)
                                       for r in range(3)],
                                      jobs=1, use_cache=False)
            except KeyboardInterrupt:
                sys.exit(130)
        """, directory, running, start_new_session=True)
        try:
            deadline = time.monotonic() + 60.0
            while not os.path.exists(running):
                assert drain.poll() is None, "the drain exited early"
                assert time.monotonic() < deadline, "rotation 1 never ran"
                time.sleep(0.05)
            os.killpg(drain.pid, signal.SIGINT)
            assert drain.wait(timeout=60) == 130
        finally:
            if drain.poll() is None:
                os.killpg(drain.pid, signal.SIGKILL)
                drain.wait()
        task = load_state(directory).tasks[tiny_specs[1].key()]
        assert task.status == PENDING          # requeued, not failed
        requeues = [r for r in read_records(directory)
                    if r.get("event") == "requeue"]
        assert [r["reason"] for r in requeues] == ["interrupted"]

        monkeypatch.setattr(parallel, "run_spec_fast", stub_run_fn)
        results = durable_runs(tiny_specs, directory, jobs=1,
                               use_cache=False)
        assert [r.ipc for r in results] == \
            [tiny_results[s.key()].ipc for s in tiny_specs]
        assert load_state(directory).counts()[DONE] == len(tiny_specs)


class TestResume:
    @pytest.fixture(autouse=True)
    def no_retries(self):
        parallel.configure(max_attempts=1)

    def test_rerun_reopens_only_the_batchs_failed_tasks(
            self, tmp_path, tiny_specs, monkeypatch, stub_run_fn):
        directory = str(tmp_path / "fab")

        def fail_rotation_one(spec, watchdog=None):
            if spec.rotation == 1:
                raise ValueError("injected crash")
            return stub_run_fn(spec)

        monkeypatch.setattr(parallel, "run_spec_fast", fail_rotation_one)
        first = durable_runs(tiny_specs, directory, jobs=1, use_cache=False)
        assert first[1] is None
        failed_key = tiny_specs[1].key()

        # Resubmission is idempotent; neither it nor a batch without
        # the failed spec reopens the task.
        monkeypatch.setattr(parallel, "run_spec_fast", stub_run_fn)
        submit_specs(directory, tiny_specs)
        durable_runs([tiny_specs[0], tiny_specs[2]], directory, jobs=1,
                     use_cache=False)
        assert load_state(directory).tasks[failed_key].status == "failed"

        rerun = durable_runs(tiny_specs, directory, jobs=1, use_cache=False)
        assert all(result is not None for result in rerun)
        reopens = [r["key"] for r in read_records(directory)
                   if r.get("event") == "reopen"]
        assert reopens == [failed_key]

    def test_rerun_applies_a_changed_timeout(self, tmp_path, tiny_specs,
                                             counting_run_spec):
        directory = str(tmp_path / "fab")
        durable_runs(tiny_specs[:1], directory, jobs=1, use_cache=False)
        assert load_state(directory).config["timeout"] is None
        parallel.configure(timeout=30.0)
        durable_runs(tiny_specs[:1], directory, jobs=1, use_cache=False)
        assert load_state(directory).config["timeout"] == 30.0


def _running(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestForkedWorkers:
    @pytest.mark.parametrize("timeout", [None, 60],
                             ids=["in-worker", "timeout"])
    def test_drain_forks_workers_that_inherit_the_programs(
            self, tmp_path, monkeypatch, timeout):
        """``jobs=2`` forks two workers: no subprocess, no program built
        after the fork, and the plain ``run_spec`` results, for runs and
        a multicore cell alike, timed or not."""
        from repro.multicore.driver import JobSpec, MulticoreRunSpec

        cell = MulticoreRunSpec(
            n_cores=1, allocator="LOAD", config=tiny_spec().config,
            trace=(JobSpec(job_id=0, arrival_cycle=0, profile="xlisp",
                           service_instructions=100),))
        specs = [tiny_spec(rotation=r) for r in range(4)] + [cell]
        expected = [dataclasses.asdict(parallel.run_spec(spec))
                    for spec in specs[:4]] + [cell.run().to_dict()]

        def no_spawn(*args, **kwargs):
            raise AssertionError("the drain spawned a subprocess")

        drain_pid = os.getpid()
        generate = mixes.generate_program

        def generate_before_fork(*args, **kwargs):
            if os.getpid() != drain_pid:
                raise RuntimeError("a program was generated after the fork")
            return generate(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        monkeypatch.setattr(mixes, "_PROGRAM_CACHE", {})
        monkeypatch.setattr(mixes, "generate_program", generate_before_fork)
        directory = str(tmp_path / "fab")
        submit_specs(directory, specs,
                     CampaignConfig(name="forked", max_attempts=1,
                                    timeout=timeout))
        store = default_result_store(directory)
        fabric.drain_campaign(directory, store, jobs=2)

        state = load_state(directory)
        assert state.counts()[DONE] == len(specs)
        results = [task_result(state.tasks[spec.key()], store)
                   for spec in specs]
        assert [dataclasses.asdict(result) for result in results[:4]] \
            + [results[4].to_dict()] == expected
        assert len(started_workers(directory)) == 2

    def test_worker_death_is_settled_at_once_and_replaced(
            self, tmp_path, monkeypatch, stub_run_fn):
        """An untimed ``jobs=2`` drain: a worker that SIGKILLs itself
        mid-task has its task journaled ``oom`` by the parent, with no
        lease-TTL wait, and a replacement helps finish the batch."""
        marker = str(tmp_path / "killed")

        def dies_once_on_rotation_one(spec, watchdog=None):
            if spec.rotation == 1 and not os.path.exists(marker):
                open(marker, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            return stub_run_fn(spec)

        monkeypatch.setattr(parallel, "run_spec_fast",
                            dies_once_on_rotation_one)
        specs = [tiny_spec(rotation=r) for r in range(3)]
        directory = str(tmp_path / "fab")
        submit_specs(directory, specs, CampaignConfig(name="deaths"))
        start = time.monotonic()
        fabric.drain_campaign(directory, default_result_store(directory),
                              jobs=2)
        assert time.monotonic() - start < 30.0   # the TTL is 60 s
        assert load_state(directory).counts()[DONE] == len(specs)
        retries = [record for record in read_records(directory)
                   if record.get("event") == "requeue"]
        assert [(r["key"], r["reason"]) for r in retries] == [
            (specs[1].key(), "retry:oom")]
        assert len(started_workers(directory)) == 3

    def test_serial_drain_settles_a_run_that_kills_its_process(
            self, tmp_path):
        """An untimed ``jobs=1`` batch whose run SIGKILLs its own
        process: the drain journals that task ``oom``, finishes the
        others and returns.  In a subprocess, so a drain that dies with
        the run cannot take pytest down."""
        directory = str(tmp_path / "fab")
        drain = spawn("""
            import os, signal, sys
            from repro.experiments import parallel
            from tests.sched.conftest import tiny_spec

            real = parallel.run_spec_fast

            def die_at_rotation_one(spec, watchdog=None):
                if spec.rotation == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(spec, watchdog)

            parallel.run_spec_fast = die_at_rotation_one
            parallel.configure(fabric_dir=sys.argv[1], max_attempts=1)
            results = parallel.execute_runs(
                [tiny_spec(rotation=r) for r in range(3)], jobs=1,
                use_cache=False)
            print(*[result is None for result in results])
        """, directory, stdout=subprocess.PIPE, text=True)
        out, _ = drain.communicate(timeout=120)
        assert drain.returncode == 0
        assert out.split() == ["False", "True", "False"]
        state = load_state(directory)
        assert state.counts()[DONE] == 2 and state.counts()["leased"] == 0
        task = state.tasks[tiny_spec(rotation=1).key()]
        assert task.status == FAILED and task.failure["kind"] == "oom"
        assert len(started_workers(directory)) == 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads process states under /proc")
    def test_sigkilled_drain_leaves_no_worker_behind(self, tmp_path):
        """SIGKILL a ``--jobs 2`` drain while both workers run a task:
        each finishes that task and claims no other."""
        specs = [tiny_spec(rotation=r) for r in range(8)]
        directory = str(tmp_path / "fab")
        submit_specs(directory, specs, CampaignConfig(name="orphans"))
        drain = spawn("""
            import sys, time
            from repro.experiments import parallel
            from repro.sched import fabric
            from repro.sched.campaign import default_result_store

            real = parallel.run_spec_fast

            def slow(spec, watchdog=None):
                time.sleep(1.0)
                return real(spec)

            parallel.run_spec_fast = slow
            fabric.drain_campaign(sys.argv[1],
                                  default_result_store(sys.argv[1]), jobs=2)
        """, directory)
        try:
            deadline = time.monotonic() + 60.0
            while load_state(directory).counts()["leased"] < 2:
                assert drain.poll() is None, "the drain exited early"
                assert time.monotonic() < deadline, "no two leases"
                time.sleep(0.05)
        finally:
            drain.kill()
            drain.wait()
        pids = [int(worker.rsplit("-", 1)[1])
                for worker in started_workers(directory)]
        assert len(pids) == 2
        deadline = time.monotonic() + 30.0
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, "a worker outlived the drain"
            time.sleep(0.05)
        counts = load_state(directory).counts()
        assert counts["leased"] == 0
        assert counts["pending"] >= len(specs) - 4


def started_workers(directory):
    return {record["worker"] for record in read_records(directory)
            if record.get("event") == "worker"
            and record.get("status") == "started"}
