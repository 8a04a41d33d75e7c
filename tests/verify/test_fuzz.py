"""Differential fuzzer: deterministic case generation, shrinking to
minimal reproducers, corpus round trips, and campaign bookkeeping."""

import dataclasses
import json

import pytest

from repro.experiments import export
from repro.verify.fuzz import (
    FuzzCase,
    FuzzOutcome,
    corpus_document,
    corpus_paths,
    fuzz_run,
    generate_case,
    load_corpus_case,
    run_case,
    save_corpus_case,
    shrink_case,
)


class TestCaseGeneration:
    def test_generation_is_pure(self):
        assert generate_case(7) == generate_case(7)
        assert generate_case(7) != generate_case(8)

    def test_generation_covers_the_config_space(self):
        cases = [generate_case(seed) for seed in range(40)]
        assert len({c.n_threads for c in cases}) >= 4
        assert len({c.fetch_policy for c in cases}) >= 3
        assert any(c.bigq for c in cases)
        assert any(not c.smt_pipeline for c in cases)
        assert any(c.functional_warmup for c in cases)

    def test_workloads_match_thread_count(self):
        for seed in range(20):
            case = generate_case(seed)
            assert len(case.workload_names) == case.n_threads

    def test_dict_round_trip(self):
        case = generate_case(3)
        assert FuzzCase.from_dict(case.to_dict()) == case

    def test_from_dict_rejects_unknown_fields(self):
        data = generate_case(3).to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            FuzzCase.from_dict(data)

    def test_content_hash_is_stable_identity(self):
        a, b = generate_case(5), generate_case(5)
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 12
        assert a.content_hash() != generate_case(6).content_hash()
        assert a.content_hash() != \
            dataclasses.replace(a, max_cycles=1).content_hash()

    def test_config_reflects_case_fields(self):
        case = generate_case(4)
        config = case.config()
        assert config.n_threads == case.n_threads
        assert config.fetch_policy == case.fetch_policy
        assert config.bigq == case.bigq


class TestRunCase:
    def test_small_case_runs_clean(self):
        outcome = run_case(generate_case(0, max_cycles=300))
        assert outcome.ok
        assert outcome.status == "ok"
        assert outcome.cycles_run == 300
        assert outcome.commits > 0

    def test_describe_each_status(self):
        assert "ok" in FuzzOutcome(True, "ok", 100, 50).describe()
        assert "stalled" in FuzzOutcome(False, "stalled", 100, 0).describe()
        assert "error" in FuzzOutcome(
            False, "error", 0, 0, error="ZeroDivisionError: x"
        ).describe()
        violation = {"invariant": "iq-overflow", "message": "m", "cycle": 9}
        assert "iq-overflow" in FuzzOutcome(
            False, "violation", 9, 0, violation=violation
        ).describe()


def _synthetic_runner(calls=None):
    """Fails iff (bigq and n_threads >= 2): shrinking must strip every
    other non-default knob while preserving the failure."""
    violation = {"invariant": "synthetic", "message": "boom", "cycle": 100}

    def runner(case):
        if calls is not None:
            calls.append(case)
        if case.bigq and case.n_threads >= 2:
            return FuzzOutcome(False, "violation", 100, 0,
                               violation=violation)
        return FuzzOutcome(True, "ok", case.max_cycles, 10)

    return runner


class TestShrink:
    def _fat_case(self):
        return dataclasses.replace(
            generate_case(1, max_cycles=3000),
            n_threads=6, workload_names=("alvinn",) * 6,
            bigq=True, itag=True, perfect_branch_prediction=True,
            fetch_policy="MISSCOUNT", issue_policy="BRANCH_FIRST",
            functional_warmup=5000, excess_registers=200,
        )

    def test_shrinks_to_minimal_failing_case(self):
        minimal, outcome = shrink_case(self._fat_case(),
                                       runner=_synthetic_runner())
        assert not outcome.ok
        # The failure needs exactly bigq + 2 threads; everything else
        # must have been simplified away.
        assert minimal.bigq
        assert minimal.n_threads == 2
        assert len(minimal.workload_names) == 2
        assert not minimal.itag
        assert not minimal.perfect_branch_prediction
        assert minimal.fetch_policy == "RR"
        assert minimal.issue_policy == "OLDEST"
        assert minimal.functional_warmup == 0
        assert minimal.excess_registers == 100
        # Cycle budget shrinks toward the violation cycle.
        assert minimal.max_cycles <= 101

    def test_passing_case_returned_unchanged(self):
        case = dataclasses.replace(self._fat_case(), bigq=False)
        same, outcome = shrink_case(case, runner=_synthetic_runner())
        assert outcome.ok
        assert same == case

    def test_run_budget_is_respected(self):
        calls = []
        shrink_case(self._fat_case(), runner=_synthetic_runner(calls),
                    max_runs=10)
        assert len(calls) <= 10


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        case = generate_case(2, max_cycles=500)
        violation = {"invariant": "iq-overflow", "message": "m",
                     "cycle": 40, "tid": 1, "uop": None, "details": {}}
        path = save_corpus_case(case, str(tmp_path), violation=violation,
                                note="shrunk from fuzz seed 2")
        assert path.endswith(f"case-{case.content_hash()}.json")
        loaded, document = load_corpus_case(path)
        assert loaded == case
        assert document["schema"] == export.FUZZ_CASE_SCHEMA
        assert document["schema_version"] == export.SCHEMA_VERSION
        assert document["found_violation"]["invariant"] == "iq-overflow"
        assert document["note"] == "shrunk from fuzz seed 2"
        assert corpus_paths(str(tmp_path)) == [path]

    def test_load_rejects_wrong_schema(self, tmp_path):
        document = corpus_document(generate_case(1))
        document["schema"] = "repro.other"
        path = tmp_path / "case-deadbeef0123.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="schema"):
            load_corpus_case(str(path))

    def test_corpus_paths_empty_for_missing_directory(self, tmp_path):
        assert corpus_paths(str(tmp_path / "nope")) == []


@pytest.mark.fuzz
class TestFuzzCampaign:
    def test_small_campaign_is_clean(self, tmp_path):
        lines = []
        summary = fuzz_run(seeds=3, max_cycles=500, jobs=1,
                           corpus_dir=str(tmp_path), log=lines.append)
        assert summary.clean
        assert summary.ok == 3
        assert summary.total_cycles == 1500
        assert summary.total_commits > 0
        assert "ok" in summary.describe()
        assert len(lines) == 3
        # Clean campaigns leave no corpus entries behind.
        assert corpus_paths(str(tmp_path)) == []


class TestSupervisedJournal:
    def test_interrupt_journals_exactly_the_finished_seeds(self, tmp_path):
        """A supervised campaign records each seed as it finishes, so an
        interrupt keeps those and records none of the killed ones."""
        from repro.verify.fuzz import journaled_seeds

        journal = str(tmp_path / "fuzz")
        finished = []

        def log(line):
            if line.startswith("seed "):
                finished.append(int(line.split()[1].rstrip(":")))
                if len(finished) == 2:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            fuzz_run(seeds=6, max_cycles=300, jobs=2, shrink=False,
                     journal_dir=journal, log=log)
        assert sorted(journaled_seeds(journal)) == sorted(finished)

        resumed = fuzz_run(seeds=6, max_cycles=300, jobs=2, shrink=False,
                           journal_dir=journal)
        assert resumed.skipped == 2
        assert set(journaled_seeds(journal)) == set(range(6))


@pytest.mark.fuzz
class TestFuzzResume:
    def test_journal_and_resume_skip_executed_seeds(self, tmp_path):
        from repro.sched.state import load_state
        from repro.verify.fuzz import journaled_seeds

        journal = str(tmp_path / "fuzz")
        first = fuzz_run(seeds=3, max_cycles=400, jobs=1, shrink=False,
                         journal_dir=journal)
        assert first.skipped == 0
        assert set(journaled_seeds(journal)) == {0, 1, 2}

        lines = []
        resumed = fuzz_run(seeds=5, max_cycles=400, jobs=1, shrink=False,
                           journal_dir=journal, log=lines.append)
        assert resumed.skipped == 3
        assert resumed.ok + len(resumed.failures) == 2
        assert "3 resumed-skipped" in resumed.describe()
        assert any("resuming from" in line for line in lines)
        # The journal now records all five seeds for the next resume,
        # in the one campaign-journal format (seed records carry no
        # task state).
        assert set(journaled_seeds(journal)) == {0, 1, 2, 3, 4}
        assert load_state(journal).ignored == 5

    def test_supervised_timeout_not_shrunk_or_corpussed(self, tmp_path,
                                                        monkeypatch):
        import repro.verify.fuzz as fuzz_module
        from repro.core.simulator import SimulationAborted

        real = fuzz_module._run_generated

        def hang_seed_zero(args, watchdog=None):
            if args[0] == 0:  # what the in-sim watchdog raises on a hang
                raise SimulationAborted("wall-clock timeout after 30s", 512)
            return real(args, watchdog=watchdog)

        monkeypatch.setattr(fuzz_module, "_run_generated", hang_seed_zero)
        summary = fuzz_run(seeds=2, max_cycles=400, jobs=1, timeout=30,
                           corpus_dir=str(tmp_path))
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert failure.seed == 0
        assert failure.outcome.status == "timeout"
        # Supervisor kills are environmental, not reproducers: never
        # shrunk, never written to the golden corpus.
        assert failure.corpus_path is None
        assert corpus_paths(str(tmp_path)) == []


@pytest.mark.slow
class TestFuzzSoak:
    def test_wide_campaign_is_clean(self):
        summary = fuzz_run(seeds=10, max_cycles=1500, jobs=2, shrink=False)
        assert summary.clean, summary.describe()
