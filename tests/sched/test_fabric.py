"""The fabric as an ``execute_runs`` backend: the shared front half
(cache scan, progress), Ctrl-C on an in-process drain, resume
(reopening a rerun batch's failed tasks), and forked local workers."""

import dataclasses
import os
import subprocess

import pytest

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
from repro.sched.state import DONE, PENDING, load_state
from repro.workloads import mixes

from tests.sched.conftest import tiny_spec


@pytest.fixture
def counting_run_spec(monkeypatch, stub_run_fn):
    """Patch the run function fabric workers call; returns the list of
    keys it ran.  jobs=1 only: a forked worker appends to its own copy
    of the list."""
    calls = []

    def run(spec, watchdog=None):
        calls.append(spec.key())
        return stub_run_fn(spec)

    monkeypatch.setattr(parallel, "run_spec_fast", run)
    return calls


class TestFrontHalf:
    def test_cached_specs_are_not_resimulated(self, tmp_path, tiny_specs,
                                              tiny_results,
                                              counting_run_spec):
        cache = ResultCache(str(tmp_path / "cache"))
        parallel.execute_runs(tiny_specs, jobs=1, cache=cache)
        del counting_run_spec[:]

        results = fabric.fabric_execute_runs(
            tiny_specs, jobs=1, cache=cache,
            directory=str(tmp_path / "fresh"))
        assert counting_run_spec == []
        assert [r.ipc for r in results] == \
            [tiny_results[s.key()].ipc for s in tiny_specs]
        # Cache hits never reach the campaign.
        assert not load_state(str(tmp_path / "fresh")).tasks

    def test_progress_after_scan_and_every_run(self, tmp_path, tiny_specs,
                                               counting_run_spec):
        snapshots = []
        fabric.fabric_execute_runs(
            tiny_specs, jobs=1, use_cache=False, progress=snapshots.append,
            directory=str(tmp_path / "fab"))
        assert [s.completed for s in snapshots] == [0, 1, 2, 3]
        assert snapshots[-1].failed == 0 and snapshots[-1].retried == 0


class TestInterrupt:
    def test_ctrl_c_propagates_and_rerun_completes(self, tmp_path,
                                                   tiny_specs,
                                                   tiny_results,
                                                   monkeypatch,
                                                   stub_run_fn):
        directory = str(tmp_path / "fab")

        def interrupt_at_rotation_one(spec, watchdog=None):
            if spec.rotation == 1:
                raise KeyboardInterrupt
            return stub_run_fn(spec)

        monkeypatch.setattr(parallel, "run_spec_fast",
                            interrupt_at_rotation_one)
        with pytest.raises(KeyboardInterrupt):
            fabric.fabric_execute_runs(tiny_specs, jobs=1, use_cache=False,
                                       directory=directory)
        task = load_state(directory).tasks[tiny_specs[1].key()]
        assert task.status == PENDING          # requeued, not failed
        requeues = [r for r in read_records(directory)
                    if r.get("event") == "requeue"]
        assert [r["reason"] for r in requeues] == ["interrupted"]

        monkeypatch.setattr(parallel, "run_spec_fast", stub_run_fn)
        results = fabric.fabric_execute_runs(
            tiny_specs, jobs=1, use_cache=False, directory=directory)
        assert [r.ipc for r in results] == \
            [tiny_results[s.key()].ipc for s in tiny_specs]
        assert load_state(directory).counts()[DONE] == len(tiny_specs)


class TestResume:
    @pytest.fixture(autouse=True)
    def no_retries(self):
        parallel.configure(max_attempts=1)
        yield
        parallel.configure(max_attempts=None, timeout=None)

    def test_rerun_reopens_only_the_batchs_failed_tasks(
            self, tmp_path, tiny_specs, monkeypatch, stub_run_fn):
        from repro.sched.campaign import submit_specs

        directory = str(tmp_path / "fab")

        def fail_rotation_one(spec, watchdog=None):
            if spec.rotation == 1:
                raise ValueError("injected crash")
            return stub_run_fn(spec)

        monkeypatch.setattr(parallel, "run_spec_fast", fail_rotation_one)
        first = fabric.fabric_execute_runs(tiny_specs, jobs=1,
                                           use_cache=False,
                                           directory=directory)
        assert first[1] is None
        failed_key = tiny_specs[1].key()

        # Resubmission is idempotent; neither it nor a batch without
        # the failed spec reopens the task.
        monkeypatch.setattr(parallel, "run_spec_fast", stub_run_fn)
        submit_specs(directory, tiny_specs)
        fabric.fabric_execute_runs([tiny_specs[0], tiny_specs[2]], jobs=1,
                                   use_cache=False, directory=directory)
        assert load_state(directory).tasks[failed_key].status == "failed"

        rerun = fabric.fabric_execute_runs(tiny_specs, jobs=1,
                                           use_cache=False,
                                           directory=directory)
        assert all(result is not None for result in rerun)
        reopens = [r["key"] for r in read_records(directory)
                   if r.get("event") == "reopen"]
        assert reopens == [failed_key]

    def test_rerun_applies_a_changed_timeout(self, tmp_path, tiny_specs,
                                             counting_run_spec):
        directory = str(tmp_path / "fab")
        fabric.fabric_execute_runs(tiny_specs[:1], jobs=1, use_cache=False,
                                   directory=directory)
        assert load_state(directory).config["timeout"] is None
        parallel.configure(timeout=30.0)
        fabric.fabric_execute_runs(tiny_specs[:1], jobs=1, use_cache=False,
                                   directory=directory)
        assert load_state(directory).config["timeout"] == 30.0


class TestForkedWorkers:
    @pytest.mark.parametrize("timeout", [None, 60],
                             ids=["in-worker", "timeout"])
    def test_drain_forks_workers_that_inherit_the_programs(
            self, tmp_path, monkeypatch, timeout):
        """``jobs=2`` forks two workers: no subprocess, no program built
        after the fork, and the plain ``run_spec`` results.  A timeout
        campaign's worker forks a ``Supervisor`` child per task too."""
        specs = [tiny_spec(rotation=r) for r in range(4)]
        expected = [dataclasses.asdict(parallel.run_spec(spec))
                    for spec in specs]

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
        assert [dataclasses.asdict(task_result(state.tasks[spec.key()],
                                               store))
                for spec in specs] == expected
        started = {record["worker"] for record in read_records(directory)
                   if record.get("event") == "worker"
                   and record.get("status") == "started"}
        assert len(started) == 2
