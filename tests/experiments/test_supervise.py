"""Tests for crash-isolated execution and for timed campaigns.

Covers the supervisor's failure taxonomy (injected crash, hang, OOM,
invariant, silent worker death) and, through the campaign fabric with a
per-run timeout (workers forked and bounded by the drain): the
determinism contract (a timed run's ``SimResult`` is field-identical to
the reference one), a real hang killed at its deadline, retries, the
journal's record of completions and failures, and resume (a rerun
executes only the failed points).  Timed drains fork their workers, so
a test's run function carries over by the fork but its side effects
stay in the worker: the stubs below log to files.
"""

import dataclasses
import math
import os
import signal
import time

import pytest

from repro.core.config import SMTConfig
from repro.core.simulator import SimulationAborted, Watchdog
from repro.experiments import parallel, supervise
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RunSpec, execute_runs, run_spec
from repro.experiments.runner import ExperimentPoint, RunBudget
from repro.experiments.supervise import Supervisor
from repro.sched import fabric
from repro.sched.campaign import describe_status
from repro.sched.state import DONE, FAILED, NON_RETRYABLE_KINDS, load_state
from repro.verify.sanitizer import InvariantViolation

TINY = RunBudget(warmup_cycles=100, measure_cycles=400,
                 functional_warmup_instructions=2000, rotations=1)


def _spec(rotation=0, n_threads=1):
    return RunSpec(config=SMTConfig(n_threads=n_threads),
                   rotation=rotation, budget=TINY)


def _fields(result):
    return dataclasses.asdict(result)


@pytest.fixture
def durable(tmp_path):
    """Route execute_runs through the fabric with a per-run timeout and
    no retries (the CLI's ``--timeout 120 --max-retries 0``); yields the
    campaign directory."""
    directory = str(tmp_path / "campaign")
    parallel.configure(fabric_dir=directory, timeout=120, max_attempts=1)
    yield directory
    parallel.configure(fabric_dir=None, timeout=None, max_attempts=None)


def _run(specs, jobs=1, **kwargs):
    """One batch, drained by forked workers (the campaign is timed)."""
    kwargs.setdefault("use_cache", False)
    return execute_runs(specs, jobs=jobs, **kwargs)


# ----------------------------------------------------------------------
# Supervisor task functions (module scope; the fork start method also
# carries monkeypatched module state into the workers).
# ----------------------------------------------------------------------
def _task_ok(payload, watchdog):
    return payload * 2


def _task_crash(payload, watchdog):
    raise ValueError("injected crash")


def _task_hang(payload, watchdog):
    time.sleep(60)


def _task_oom(payload, watchdog):
    raise MemoryError


def _task_invariant(payload, watchdog):
    raise InvariantViolation("iq-overflow", "injected", 7, tid=1)


def _task_aborted(payload, watchdog):
    raise SimulationAborted("wall-clock timeout after 0.1s", 512)


def _task_silent_exit(payload, watchdog):
    os._exit(3)


def _task_sigkill(payload, watchdog):
    os.kill(os.getpid(), signal.SIGKILL)


def _task_kbint(payload, watchdog):
    raise KeyboardInterrupt


class TestSupervisorTaxonomy:
    def test_success(self):
        outcomes = Supervisor(_task_ok).run([("a", 21)])
        assert outcomes["a"].ok
        assert outcomes["a"].result == 42

    def test_crash_is_structured(self):
        outcomes = Supervisor(_task_crash).run([("a", None)])
        failure = outcomes["a"].failure
        assert failure.kind == "crash"
        assert "ValueError: injected crash" in failure.message
        assert "injected crash" in failure.details["traceback"]

    def test_hang_is_hard_killed(self):
        sup = Supervisor(_task_hang, timeout=0.2, kill_grace=0.2)
        start = time.monotonic()
        outcomes = sup.run([("a", None)])
        failure = outcomes["a"].failure
        assert failure.kind == "timeout"
        assert "hard-killed" in failure.message
        assert time.monotonic() - start < 10.0

    def test_simulation_aborted_is_timeout(self):
        outcomes = Supervisor(_task_aborted).run([("a", None)])
        failure = outcomes["a"].failure
        assert failure.kind == "timeout"
        assert "wall-clock timeout" in failure.message
        assert failure.details["cycle"] == 512

    def test_memory_error_is_oom(self):
        outcomes = Supervisor(_task_oom).run([("a", None)])
        assert outcomes["a"].failure.kind == "oom"

    def test_invariant_never_retried(self):
        outcomes = Supervisor(_task_invariant).run([("a", None)])
        failure = outcomes["a"].failure
        assert failure.kind == "invariant"
        assert failure.details["violation"]["invariant"] == "iq-overflow"
        # The fabric's one retry rule never requeues this kind.
        assert "invariant" in NON_RETRYABLE_KINDS

    def test_worker_interrupt_never_retried(self):
        outcomes = Supervisor(_task_kbint).run([("a", None)])
        assert outcomes["a"].failure.kind == "interrupted"
        assert "interrupted" in NON_RETRYABLE_KINDS

    def test_silent_death_is_crash(self):
        outcomes = Supervisor(_task_silent_exit).run([("a", None)])
        failure = outcomes["a"].failure
        assert failure.kind == "crash"
        assert "exit code 3" in failure.message

    def test_sigkill_classified_as_oom(self):
        outcomes = Supervisor(_task_sigkill).run([("a", None)])
        assert outcomes["a"].failure.kind == "oom"

    def test_mixed_batch_with_jobs(self):
        sup = Supervisor(_task_ok, jobs=2)
        outcomes = sup.run([(f"k{i}", i) for i in range(5)])
        assert len(outcomes) == 5
        assert all(outcomes[f"k{i}"].result == 2 * i for i in range(5))

    def test_on_outcome_fires_per_task(self):
        seen = []
        sup = Supervisor(_task_ok, jobs=2, on_outcome=seen.append)
        sup.run([("a", 1), ("b", 2)])
        assert sorted(o.key for o in seen) == ["a", "b"]

    def test_parent_interrupt_kills_live_workers(self):
        # A KeyboardInterrupt raised in the parent (here: from the
        # outcome hook) must kill live workers promptly and record them
        # as interrupted rather than leaking them.
        def fn(payload, watchdog):
            if payload == "fast":
                return "done"
            time.sleep(60)

        def boom(outcome):
            if outcome.key == "fast":
                raise KeyboardInterrupt

        sup = Supervisor(fn, jobs=2, on_outcome=boom)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sup.run([("fast", "fast"), ("slow", "slow")])
        assert time.monotonic() - start < 10.0
        assert sup.outcomes["fast"].ok
        assert sup.outcomes["slow"].failure.kind == "interrupted"


class TestClassifyException:
    """The shared classification boundary (supervisor children and
    scheduler workers route through the same function)."""

    def test_driver_invariant_error_is_invariant(self):
        from repro.multicore.driver import DriverInvariantError

        exc = DriverInvariantError("thread 3 on two cores",
                                   details={"thread": 3})
        kind, payload = supervise.classify_exception(exc)
        assert kind == "invariant"
        assert payload["details"] == {"thread": 3}
        assert "thread 3" in payload["message"]

    def test_sanitizer_violation_is_invariant(self):
        violation = InvariantViolation("iq-overflow",
                                       "queue over capacity", cycle=10)
        kind, payload = supervise.classify_exception(violation)
        assert kind == "invariant"
        assert payload["violation"]["invariant"] == "iq-overflow"

    def test_generic_exception_is_crash(self):
        kind, payload = supervise.classify_exception(ValueError("boom"))
        assert kind == "crash"
        assert "ValueError" in payload["message"]

    def test_memory_error_is_oom(self):
        kind, _ = supervise.classify_exception(MemoryError())
        assert kind == "oom"

    def test_interrupt_is_interrupted(self):
        kind, _ = supervise.classify_exception(KeyboardInterrupt())
        assert kind == "interrupted"

    def test_aborted_simulation_is_timeout(self):
        kind, payload = supervise.classify_exception(
            SimulationAborted("watchdog", cycle=123))
        assert kind == "timeout"
        assert payload["cycle"] == 123


# ----------------------------------------------------------------------
# Supervised RunSpec execution: the fabric with a per-run timeout.
# ----------------------------------------------------------------------
class TestSupervisedDeterminism:
    def test_supervised_matches_unsupervised(self, durable):
        spec = _spec()
        results = _run([spec])
        assert _fields(results[0]) == _fields(run_spec(spec))
        assert load_state(durable).config["timeout"] == 120

    def test_watchdog_aborts_pathological_run(self, durable):
        parallel.configure(timeout=1e-5)
        assert _run([_spec()]) == [None]
        failure = load_state(durable).iter_tasks()[0].failure
        assert failure["kind"] == "timeout"
        assert "wall-clock timeout" in failure["message"]

    def test_cycle_budget_guard(self):
        watchdog = Watchdog(max_cycles=64)
        with pytest.raises(SimulationAborted, match="cycle budget"):
            run_spec(_spec(), watchdog=watchdog)


class TestCampaignFaultTolerance:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_real_hang_is_killed_and_journaled_timeout(self, durable,
                                                        monkeypatch, jobs):
        """A run that hangs where no watchdog can see it (a sleep) is
        SIGKILLed by the drain at its timeout plus grace and journaled
        ``timeout``; the batch returns the other results."""
        specs = [_spec(rotation=r) for r in range(3)]
        real_run = parallel.run_spec_fast

        def hangs_on_rotation_one(spec, watchdog=None):
            if spec.rotation == 1:
                time.sleep(600)
            return real_run(spec, watchdog)

        monkeypatch.setattr(parallel, "run_spec_fast", hangs_on_rotation_one)
        monkeypatch.setattr(fabric, "KILL_GRACE_SECONDS", 0.5)
        parallel.configure(timeout=0.5)
        start = time.monotonic()
        results = _run(specs, jobs=jobs)
        assert time.monotonic() - start < 30.0
        assert results[1] is None
        assert [_fields(results[r]) for r in (0, 2)] == \
            [_fields(run_spec(specs[r])) for r in (0, 2)]
        failure = load_state(durable).tasks[specs[1].key()].failure
        assert failure["kind"] == "timeout"
        assert "worker killed after" in failure["message"]

    def test_hang_and_crash_then_resume(self, durable, monkeypatch,
                                        tmp_path):
        """The acceptance scenario: a campaign with an injected crash and
        an injected timeout completes with partial results and a status
        naming both; rerunning the batch then re-executes only the
        failed points."""
        specs = [_spec(rotation=r) for r in range(3)]
        real_run = parallel.run_spec_fast
        first_log = tmp_path / "executed-first.log"
        rerun_log = tmp_path / "executed-rerun.log"

        def injected(spec, watchdog=None, _log=str(first_log)):
            with open(_log, "a") as handle:
                handle.write(spec.key() + "\n")
            if spec.rotation == 1:
                raise ValueError("injected crash")
            if spec.rotation == 2:  # what the watchdog raises on a hang
                raise SimulationAborted("wall-clock timeout after 120s", 512)
            return real_run(spec, watchdog)

        monkeypatch.setattr(parallel, "run_spec_fast", injected)
        cache = ResultCache(str(tmp_path / "cache"))
        results = _run(specs, cache=cache)
        assert results[0] is not None
        assert results[1] is None and results[2] is None
        state = load_state(durable)
        failed = [t for t in state.iter_tasks() if t.status == FAILED]
        assert {t.failure["kind"] for t in failed} == {"crash", "timeout"}
        described = describe_status(state)
        assert "[crash]" in described and "[timeout]" in described
        assert "rot1" in described and "rot2" in described

        # Rerun: the healthy point replays from the cache; the crashed
        # and timed-out points are reopened and re-execute.
        def counting(spec, watchdog=None, _log=str(rerun_log)):
            with open(_log, "a") as handle:
                handle.write(spec.key() + "\n")
            return real_run(spec, watchdog)

        monkeypatch.setattr(parallel, "run_spec_fast", counting)
        resumed = _run(specs, cache=cache)
        assert [_fields(r) for r in resumed] == \
            [_fields(run_spec(s)) for s in specs]
        assert load_state(durable).counts()[DONE] == 3
        re_executed = set(rerun_log.read_text().split())
        assert re_executed == {specs[1].key(), specs[2].key()}

    def test_retry_recovers_flaky_run(self, durable, monkeypatch,
                                      tmp_path):
        spec = _spec()
        real_run = parallel.run_spec_fast
        marker = str(tmp_path / "flaked")

        def flaky(spec, watchdog=None, _marker=marker):
            if not os.path.exists(_marker):
                open(_marker, "w").close()
                raise ValueError("flaky first attempt")
            return real_run(spec, watchdog)

        monkeypatch.setattr(parallel, "run_spec_fast", flaky)
        parallel.configure(max_attempts=2)   # --max-retries 1
        snapshots = []
        results = _run([spec], progress=snapshots.append)
        assert _fields(results[0]) == _fields(run_spec(spec))
        assert load_state(durable).iter_tasks()[0].attempt == 2
        assert snapshots[-1].retried == 1 and snapshots[-1].failed == 0

    def test_journal_records_completions_and_failures(self, durable,
                                                      monkeypatch):
        specs = [_spec(rotation=r) for r in range(2)]
        real_run = parallel.run_spec_fast

        def half_broken(spec, watchdog=None):
            if spec.rotation == 1:
                raise ValueError("boom")
            return real_run(spec, watchdog)

        monkeypatch.setattr(parallel, "run_spec_fast", half_broken)
        _run(specs)
        tasks = load_state(durable).tasks
        assert tasks[specs[0].key()].status == DONE
        assert tasks[specs[1].key()].status == FAILED
        assert tasks[specs[1].key()].failure["kind"] == "crash"

    def test_interrupt_flushes_journal_and_reports(self, durable):
        # Ctrl-C in the drain's parent (here: raised from the progress
        # callback after the first completion) must leave that
        # completion in the journal, report a final partial snapshot,
        # stop the forked worker (SIGTERM: it finishes its task), and
        # re-raise.
        specs = [_spec(rotation=r) for r in range(2)]
        seen = []

        def interrupting_progress(progress):
            seen.append(progress.completed)
            if seen == [0, 1]:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _run(specs, progress=interrupting_progress)
        assert seen == [0, 1, 1]
        state = load_state(durable)
        assert state.counts()[DONE] >= 1
        assert state.counts()["leased"] == 0
        assert list(state.workers.values()) == ["stopped"]

    def test_execute_runs_delegates_when_enabled(self, durable):
        results = _run([_spec()])
        assert results[0] is not None
        state = load_state(durable)
        assert state.counts()[DONE] == 1
        assert state.config["max_attempts"] == 1

    def test_duplicate_specs_simulated_once(self, durable, tmp_path):
        spec = _spec()
        cache = ResultCache(str(tmp_path / "cache"))
        results = _run([spec, spec], cache=cache)
        # The forked worker stores the result; the front half does not
        # store it a second time.
        assert len(cache) == 1 and cache.stats()["stores"] == 0
        assert len(load_state(durable).tasks) == 1
        assert _fields(results[0]) == _fields(results[1])

    def test_progress_reports_failures_and_retries(self, durable,
                                                   monkeypatch):
        monkeypatch.setattr(parallel, "run_spec_fast",
                            lambda spec, watchdog=None: (_ for _ in ()).throw(
                                ValueError("boom")))
        parallel.configure(max_attempts=2)
        snapshots = []
        _run([_spec()], progress=snapshots.append)
        last = snapshots[-1]
        assert last.failed == 1
        assert last.retried == 1
        assert "1 FAILED" in str(last) and "1 retried" in str(last)

    def test_failed_point_degrades_to_nan(self):
        point = ExperimentPoint(label="x", n_threads=1, ipc=float("nan"),
                                results=[])
        assert not point.complete
        assert math.isnan(point.metric("ipc"))
        assert math.isnan(point.cache_metric("dcache", "miss_rate"))
