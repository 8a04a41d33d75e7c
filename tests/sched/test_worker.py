"""Worker behaviour: leases, recovery, taxonomy routing, idempotence."""

import os
import signal
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.multicore.driver import DriverInvariantError
from repro.sched.campaign import CampaignConfig, submit_specs
from repro.sched.journal import read_records
from repro.sched.state import DONE, FAILED, PENDING, load_state
from repro.sched.worker import Worker


class VirtualClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_campaign(tmp_path, specs, **knobs):
    directory = str(tmp_path / "campaign")
    knobs.setdefault("lease_ttl", 30.0)
    knobs.setdefault("backoff", 0.0)
    submit_specs(directory, specs, CampaignConfig(**knobs))
    return directory


def events(directory, kind):
    return [r for r in read_records(directory) if r.get("event") == kind]


class TestDrain:
    def test_single_worker_drains_campaign(self, tmp_path, tiny_specs,
                                           stub_run_fn, tiny_results):
        directory = make_campaign(tmp_path, tiny_specs)
        worker = Worker(directory, run_fn=stub_run_fn, heartbeats=False)
        served = worker.serve(drain=True, install_signals=False)
        assert served == len(tiny_specs)
        state = load_state(directory)
        assert state.all_terminal()
        assert state.counts()[DONE] == len(tiny_specs)
        for spec in tiny_specs:
            cached = worker.cache.get(spec.key())
            assert cached is not None
            assert cached.ipc == tiny_results[spec.key()].ipc

    def test_drain_is_idempotent(self, tmp_path, tiny_specs, stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs)
        calls = []

        def counting(spec):
            calls.append(spec.key())
            return stub_run_fn(spec)

        Worker(directory, run_fn=counting,
               heartbeats=False).serve(drain=True, install_signals=False)
        Worker(directory, run_fn=counting,
               heartbeats=False).serve(drain=True, install_signals=False)
        assert len(calls) == len(tiny_specs)  # second drain found no work
        assert len(events(directory, "done")) == len(tiny_specs)

    def test_two_workers_split_work_exactly(self, tmp_path, tiny_specs,
                                            stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs)
        a = Worker(directory, worker_id="wa", run_fn=stub_run_fn,
                   heartbeats=False)
        b = Worker(directory, worker_id="wb", run_fn=stub_run_fn,
                   heartbeats=False)
        while not load_state(directory).all_terminal():
            if not a.step() and not b.step():
                break
        assert a.tasks_done + b.tasks_done == len(tiny_specs)
        done = events(directory, "done")
        assert len(done) == len(tiny_specs)
        assert len({r["key"] for r in done}) == len(tiny_specs)


class TestFailureTaxonomy:
    def test_invariant_failure_is_never_retried(self, tmp_path, tiny_specs):
        directory = make_campaign(tmp_path, tiny_specs[:1], max_attempts=5)
        calls = []

        def invariant(spec):
            calls.append(spec.key())
            raise DriverInvariantError("allocation violated",
                                       details={"core": 0})

        worker = Worker(directory, run_fn=invariant, heartbeats=False)
        worker.serve(drain=True, install_signals=False)
        assert len(calls) == 1  # no retry for deterministic failures
        task = load_state(directory).iter_tasks()[0]
        assert task.status == FAILED
        assert task.failure["kind"] == "invariant"
        assert task.failure["details"]["details"] == {"core": 0}

    def test_crash_retries_then_fails_at_max_attempts(self, tmp_path,
                                                      tiny_specs):
        directory = make_campaign(tmp_path, tiny_specs[:1], max_attempts=3)
        calls = []

        def crashing(spec):
            calls.append(spec.key())
            raise RuntimeError("flaky board")

        worker = Worker(directory, run_fn=crashing, heartbeats=False)
        worker.serve(drain=True, install_signals=False)
        assert len(calls) == 3
        task = load_state(directory).iter_tasks()[0]
        assert task.status == FAILED
        assert task.failure["kind"] == "crash"
        assert task.failure["attempts"] == 3
        requeues = events(directory, "requeue")
        assert [r["reason"] for r in requeues] == ["retry:crash"] * 2

    def test_crash_then_success_recovers(self, tmp_path, tiny_specs,
                                         stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs[:1], max_attempts=3)
        attempts = []

        def flaky(spec):
            attempts.append(spec.key())
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return stub_run_fn(spec)

        worker = Worker(directory, run_fn=flaky, heartbeats=False)
        worker.serve(drain=True, install_signals=False)
        assert len(attempts) == 2
        assert load_state(directory).counts()[DONE] == 1


class TestLeaseRecovery:
    def test_expired_lease_is_reclaimed_by_another_worker(
            self, tmp_path, tiny_specs, stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs[:1], lease_ttl=10.0)
        clock = VirtualClock()
        victim = Worker(directory, worker_id="victim", run_fn=stub_run_fn,
                        clock=clock, heartbeats=False)
        task = victim.claim_task()
        assert task is not None
        # victim dies silently; its lease times out
        clock.advance(11.0)
        rescuer = Worker(directory, worker_id="rescuer",
                         run_fn=stub_run_fn, clock=clock, heartbeats=False)
        assert rescuer.step() is True
        state = load_state(directory)
        assert state.iter_tasks()[0].status == DONE
        assert state.iter_tasks()[0].completed_by == "rescuer"
        assert state.iter_tasks()[0].suspects == {"victim"}

    def test_heartbeat_keeps_lease_alive_past_ttl(self, tmp_path, tiny_specs,
                                                  stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs[:1], lease_ttl=10.0)
        clock = VirtualClock()
        holder = Worker(directory, worker_id="holder", run_fn=stub_run_fn,
                        clock=clock, heartbeats=False)
        task = holder.claim_task()
        clock.advance(8.0)
        holder.send_heartbeat(task)
        clock.advance(8.0)  # 16s since claim, 8s since heartbeat
        other = Worker(directory, worker_id="other", run_fn=stub_run_fn,
                       clock=clock, heartbeats=False)
        assert other.claim_task() is None  # lease still live, nothing free
        state = load_state(directory)
        assert state.iter_tasks()[0].lease.worker == "holder"

    def test_late_finish_after_reclaim_is_absorbed(self, tmp_path,
                                                   tiny_specs, stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs[:1], lease_ttl=10.0)
        clock = VirtualClock()
        slow = Worker(directory, worker_id="slow", run_fn=stub_run_fn,
                      clock=clock, heartbeats=False)
        task = slow.claim_task()
        outcome = slow.execute(task)
        clock.advance(11.0)
        fast = Worker(directory, worker_id="fast", run_fn=stub_run_fn,
                      clock=clock, heartbeats=False)
        assert fast.step() is True          # reclaims, completes
        slow.finish_task(task, outcome)     # the zombie finishes anyway
        state = load_state(directory)
        assert state.counts()[DONE] == 1
        assert state.duplicates == 1
        assert state.iter_tasks()[0].completed_by == "fast"

    def test_heartbeat_pump_emits_renewals(self, tmp_path, tiny_specs,
                                           stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs[:1], lease_ttl=0.3)

        def slow_run(spec):
            time.sleep(0.4)
            return stub_run_fn(spec)

        worker = Worker(directory, run_fn=slow_run, heartbeats=True)
        worker.serve(drain=True, install_signals=False)
        assert load_state(directory).counts()[DONE] == 1
        assert len(events(directory, "heartbeat")) >= 1

    def test_heartbeats_stop_past_timeout_and_grace(self, tmp_path,
                                                    tiny_specs, stub_run_fn,
                                                    monkeypatch):
        """A worker no drain parent watches stops renewing its lease once
        a timed task runs past timeout + grace, so any scanner reclaims
        a wedged task within one TTL."""
        from repro.sched import worker as worker_mod
        from repro.sched.campaign import campaign_status

        monkeypatch.setattr(worker_mod, "KILL_GRACE_SECONDS", 0.1)
        directory = make_campaign(tmp_path, tiny_specs[:1], lease_ttl=0.3,
                                  timeout=0.1)
        seen = []

        def wedged(spec):
            time.sleep(1.0)   # a hang no watchdog sees
            state = campaign_status(directory, reclaim=True)
            seen.append(state.tasks[spec.key()].status)
            return stub_run_fn(spec)

        Worker(directory, run_fn=wedged, heartbeats=True) \
            .serve(drain=True, install_signals=False)
        assert len(events(directory, "heartbeat")) <= 2
        assert seen == [PENDING]
        assert [r["reason"] for r in events(directory, "requeue")] == \
            ["lease-expired"]


class TestSignalsAndRelease:
    def test_interrupt_releases_task_and_propagates(self, tmp_path,
                                                    tiny_specs):
        directory = make_campaign(tmp_path, tiny_specs[:1])

        def interrupted(spec):
            raise KeyboardInterrupt

        worker = Worker(directory, run_fn=interrupted, heartbeats=False)
        with pytest.raises(KeyboardInterrupt):
            worker.step()
        task = load_state(directory).iter_tasks()[0]
        assert task.status == PENDING
        assert task.lease is None
        assert events(directory, "requeue")[0]["reason"] == "interrupted"

    def test_sigterm_sets_drain_flag(self, tmp_path, tiny_specs,
                                     stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs[:1])
        worker = Worker(directory, run_fn=stub_run_fn, heartbeats=False)
        previous = signal.getsignal(signal.SIGTERM)
        try:
            worker._install_signals()
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.time() + 2.0
            while not worker._draining and time.time() < deadline:
                time.sleep(0.01)
            assert worker._draining is True
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_serve_restores_previous_sigterm_handler(self, tmp_path,
                                                     tiny_specs,
                                                     stub_run_fn):
        """A leaked drain handler would be inherited by every forked
        child of this process (e.g. multiprocessing pool workers),
        which then ignore the SIGTERM used to terminate them."""
        directory = make_campaign(tmp_path, tiny_specs[:1])
        sentinel = lambda *_: None  # noqa: E731 - identity is the point
        previous = signal.signal(signal.SIGTERM, sentinel)
        try:
            worker = Worker(directory, run_fn=stub_run_fn,
                            heartbeats=False)
            worker.serve(drain=True)  # install_signals=True default
            assert signal.getsignal(signal.SIGTERM) is sentinel
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_worker_lifecycle_announced(self, tmp_path, tiny_specs,
                                        stub_run_fn):
        directory = make_campaign(tmp_path, tiny_specs[:1])
        worker = Worker(directory, worker_id="w-life", run_fn=stub_run_fn,
                        heartbeats=False)
        worker.serve(drain=True, install_signals=False)
        state = load_state(directory)
        assert state.workers["w-life"] == "stopped"


class TestSharedCache:
    def test_completion_is_idempotent_across_campaigns(self, tmp_path,
                                                       tiny_specs,
                                                       stub_run_fn):
        """Two campaigns over the same specs share the content-addressed
        store; the second run's completions overwrite with identical
        bytes (puts are atomic and deterministic)."""
        shared = ResultCache(str(tmp_path / "shared"))
        for name in ("one", "two"):
            directory = str(tmp_path / name)
            submit_specs(directory, tiny_specs,
                         CampaignConfig(backoff=0.0))
            Worker(directory, cache=shared, run_fn=stub_run_fn,
                   heartbeats=False).serve(drain=True,
                                           install_signals=False)
        for spec in tiny_specs:
            assert shared.get(spec.key()) is not None
