"""Replay semantics of the scheduler state machine."""

import pytest

from repro.sched.state import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    CampaignState,
    plan_reclaim,
)


def replay(*records):
    state = CampaignState()
    for record in records:
        state.apply(record)
    return state


def submit(key, label=""):
    return {"event": "submit", "key": key, "label": label}


def lease(key, worker="w1", expires=100.0, attempt=1):
    return {"event": "lease", "key": key, "worker": worker,
            "expires": expires, "attempt": attempt}


class TestLifecycle:
    def test_submit_then_lease_then_done(self):
        state = replay(
            submit("a"), lease("a"),
            {"event": "done", "key": "a", "worker": "w1", "elapsed": 2.5},
        )
        task = state.tasks["a"]
        assert task.status == DONE
        assert task.completed_by == "w1"
        assert task.elapsed == 2.5
        assert task.lease is None
        assert state.all_terminal()

    def test_submit_is_idempotent(self):
        state = replay(submit("a", label="first"), submit("a", label="dupe"),
                       submit("b"))
        assert [t.key for t in state.iter_tasks()] == ["a", "b"]
        assert state.tasks["a"].label == "first"

    def test_campaign_record_sets_name_and_config(self):
        state = replay({"event": "campaign", "name": "exp1",
                        "config": {"lease_ttl": 5.0}})
        assert state.name == "exp1"
        assert state.config["lease_ttl"] == 5.0

    def test_requeue_returns_task_to_pending_with_gate(self):
        state = replay(
            submit("a"), lease("a"),
            {"event": "requeue", "key": "a", "reason": "retry:crash",
             "not_before": 42.0},
        )
        task = state.tasks["a"]
        assert task.status == PENDING
        assert task.not_before == 42.0
        assert task.lease is None

    def test_v1_terminal_without_submit_is_tracked(self):
        # PR-4 journals have done/failed records but no submit records.
        state = replay({"event": "done", "key": "orphan", "worker": "w"})
        assert state.tasks["orphan"].status == DONE

    def test_unknown_events_counted_not_fatal(self):
        state = replay({"event": "seed", "value": 7}, submit("a"))
        assert state.ignored == 1
        assert "a" in state.tasks


class TestFirstTerminalWins:
    """Satellite: duplicate terminal records keep the first, count the rest."""

    def test_done_after_done_keeps_first(self, caplog):
        with caplog.at_level("WARNING", logger="repro.sched"):
            state = replay(
                submit("a"), lease("a"),
                {"event": "done", "key": "a", "worker": "w1", "elapsed": 1.0},
                {"event": "done", "key": "a", "worker": "w2", "elapsed": 9.0},
            )
        task = state.tasks["a"]
        assert task.completed_by == "w1"
        assert task.elapsed == 1.0
        assert state.duplicates == 1
        assert task.duplicate_terminals == 1
        assert "duplicate terminal" in caplog.text

    def test_failed_after_done_is_ignored(self):
        state = replay(
            submit("a"),
            {"event": "done", "key": "a", "worker": "w1"},
            {"event": "failed", "key": "a",
             "failure": {"kind": "crash", "message": "late loser"}},
        )
        assert state.tasks["a"].status == DONE
        assert state.tasks["a"].failure is None
        assert state.duplicates == 1

    def test_done_after_failed_is_ignored(self):
        # Within ONE journal generation first-wins is absolute; retry
        # supersession happens via requeue records, not bare re-dones.
        state = replay(
            submit("a"),
            {"event": "failed", "key": "a",
             "failure": {"kind": "crash", "message": "x"}},
            {"event": "done", "key": "a", "worker": "w2"},
        )
        assert state.tasks["a"].status == FAILED
        assert state.duplicates == 1

    def test_lease_after_terminal_is_ignored(self):
        state = replay(
            submit("a"),
            {"event": "done", "key": "a", "worker": "w1"},
            lease("a", worker="w2"),
        )
        assert state.tasks["a"].status == DONE
        assert state.tasks["a"].lease is None

    def test_counts_expose_duplicates(self):
        state = replay(
            submit("a"),
            {"event": "done", "key": "a"},
            {"event": "done", "key": "a"},
        )
        assert state.counts()["duplicates"] == 1
        assert state.counts()[DONE] == 1


class TestSuspects:
    def test_lease_expired_requeue_records_suspect(self):
        state = replay(
            submit("a"), lease("a", worker="w1"),
            {"event": "requeue", "key": "a", "reason": "lease-expired",
             "worker": "w1", "not_before": 0.0},
        )
        assert state.tasks["a"].suspects == {"w1"}

    def test_retry_requeue_does_not_record_suspect(self):
        # A worker that *reported* a retryable failure is healthy; only
        # vanished workers (expired leases) are poison evidence.
        state = replay(
            submit("a"), lease("a", worker="w1"),
            {"event": "requeue", "key": "a", "reason": "retry:crash",
             "worker": "w1", "not_before": 0.0},
        )
        assert state.tasks["a"].suspects == set()

    def test_suspects_accumulate_distinct_workers(self):
        records = [submit("a")]
        for worker in ("w1", "w2", "w1"):
            records.append(lease("a", worker=worker))
            records.append({"event": "requeue", "key": "a",
                            "reason": "lease-expired", "worker": worker,
                            "not_before": 0.0})
        state = replay(*records)
        assert state.tasks["a"].suspects == {"w1", "w2"}


class TestQueries:
    def test_claimable_in_submit_order(self):
        state = replay(submit("b"), submit("a"))
        assert state.claimable(now=0.0).key == "b"

    def test_claimable_respects_backoff_gate(self):
        state = replay(
            submit("a"), lease("a"),
            {"event": "requeue", "key": "a", "reason": "retry:crash",
             "not_before": 50.0},
            submit("b"),
        )
        assert state.claimable(now=10.0).key == "b"
        done_b = {"event": "done", "key": "b"}
        state.apply(done_b)
        assert state.claimable(now=10.0) is None
        assert state.claimable(now=50.0).key == "a"

    def test_expired_leases(self):
        state = replay(submit("a"), lease("a", expires=30.0),
                       submit("b"), lease("b", expires=90.0))
        expired = state.expired_leases(now=45.0)
        assert [t.key for t in expired] == ["a"]

    def test_heartbeat_extends_lease(self):
        state = replay(
            submit("a"), lease("a", worker="w1", expires=30.0),
            {"event": "heartbeat", "key": "a", "worker": "w1",
             "expires": 80.0},
        )
        assert state.expired_leases(now=45.0) == []
        assert state.tasks["a"].lease.expires == 80.0

    def test_heartbeat_from_stale_worker_is_ignored(self):
        state = replay(
            submit("a"), lease("a", worker="w2", expires=30.0),
            {"event": "heartbeat", "key": "a", "worker": "w1",
             "expires": 999.0},
        )
        assert state.tasks["a"].lease.expires == 30.0

    def test_next_wake_picks_earliest_horizon(self):
        state = replay(
            submit("a"), lease("a", expires=40.0),
            submit("b"),
            {"event": "requeue", "key": "b", "reason": "retry:crash",
             "not_before": 25.0},
        )
        assert state.next_wake(now=10.0) == pytest.approx(15.0)

    def test_next_wake_none_when_idle(self):
        state = replay(submit("a"), {"event": "done", "key": "a"})
        assert state.next_wake(now=0.0) is None


class TestPlanReclaim:
    def _expired_task(self, attempt=1, suspects=(), worker="w1"):
        state = replay(submit("a"),
                       lease("a", worker=worker, attempt=attempt,
                             expires=10.0))
        task = state.tasks["a"]
        task.suspects.update(suspects)
        return task

    def test_requeue_with_exponential_backoff(self):
        for attempt, delay in ((1, 0.5), (2, 1.0), (3, 2.0), (4, 4.0)):
            task = self._expired_task(attempt=attempt)
            record = plan_reclaim(task, now=100.0, max_attempts=10,
                                  poison_threshold=10, backoff=0.5)
            assert record["event"] == "requeue"
            assert record["reason"] == "lease-expired"
            assert record["not_before"] == pytest.approx(100.0 + delay)

    def test_failed_lost_when_attempts_exhausted(self):
        task = self._expired_task(attempt=3)
        record = plan_reclaim(task, now=0.0, max_attempts=3,
                              poison_threshold=10, backoff=0.5)
        assert record["event"] == "failed"
        assert record["failure"]["kind"] == "lost"
        assert record["failure"]["attempts"] == 3

    def test_poison_quarantine_counts_distinct_workers(self):
        task = self._expired_task(attempt=2, suspects={"w2", "w3"},
                                  worker="w1")
        record = plan_reclaim(task, now=0.0, max_attempts=10,
                              poison_threshold=3, backoff=0.5)
        assert record["event"] == "quarantine"
        assert record["workers"] == ["w1", "w2", "w3"]

    def test_poison_beats_retry_accounting(self):
        # Even with attempts left, a worker-killer is quarantined.
        task = self._expired_task(attempt=1, suspects={"w2"}, worker="w1")
        record = plan_reclaim(task, now=0.0, max_attempts=100,
                              poison_threshold=2, backoff=0.5)
        assert record["event"] == "quarantine"

    def test_repeat_offender_worker_counts_once(self):
        task = self._expired_task(attempt=5, suspects={"w1"}, worker="w1")
        record = plan_reclaim(task, now=0.0, max_attempts=10,
                              poison_threshold=2, backoff=0.5)
        assert record["event"] == "requeue"  # one worker, not two

    def test_quarantine_replay_reports_poison_failure(self):
        state = replay(
            submit("a"), lease("a", worker="w1"),
            {"event": "quarantine", "key": "a", "reason": "poison: test",
             "workers": ["w1", "w2"]},
        )
        task = state.tasks["a"]
        assert task.status == QUARANTINED
        assert task.failure["kind"] == "poison"
        assert task.failure["details"]["suspects"] == ["w1", "w2"]


class TestReopen:
    """A client's ``reopen`` sends a failed task back to the queue with a
    fresh attempt budget; every other state ignores it."""

    def reopen(self, key="a"):
        return {"event": "reopen", "key": key}

    def test_failed_task_returns_to_pending_fresh(self):
        state = replay(
            submit("a"), lease("a", attempt=3),
            {"event": "requeue", "key": "a", "reason": "lease-expired",
             "not_before": 9.0},
            lease("a", worker="w2", attempt=3),
            {"event": "failed", "key": "a",
             "failure": {"kind": "crash", "message": "boom"}},
            self.reopen(),
        )
        task = state.tasks["a"]
        assert task.status == PENDING
        assert task.attempt == 0
        assert task.failure is None
        assert task.suspects == set()
        assert task.not_before == 0.0
        assert state.claimable(now=0.0) is task

    def test_quarantined_task_returns_to_pending(self):
        state = replay(submit("a"), lease("a"),
                       {"event": "quarantine", "key": "a",
                        "workers": ["w1", "w2"]},
                       self.reopen())
        assert state.tasks["a"].status == PENDING
        assert state.tasks["a"].failure is None

    @pytest.mark.parametrize("records,status", [
        ((submit("a"),), PENDING),
        ((submit("a"), lease("a")), LEASED),
        ((submit("a"), lease("a"),
          {"event": "done", "key": "a", "worker": "w1"}), DONE),
    ])
    def test_other_states_ignore_reopen(self, records, status):
        state = replay(*records, self.reopen())
        assert state.tasks["a"].status == status
        assert state.duplicates == 0

    def test_unknown_key_is_ignored(self):
        state = replay(submit("a"), self.reopen("ghost"))
        assert list(state.tasks) == ["a"]

    def test_reopened_task_completes_without_a_duplicate(self):
        state = replay(
            submit("a"), lease("a"),
            {"event": "failed", "key": "a", "failure": {"kind": "timeout"}},
            self.reopen(), lease("a"),
            {"event": "done", "key": "a", "worker": "w1"},
        )
        assert state.tasks["a"].status == DONE
        assert state.tasks["a"].attempt == 1
        assert state.duplicates == 0
