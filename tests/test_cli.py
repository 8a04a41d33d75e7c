"""Tests for the command-line interface."""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import FAST_BUDGET, FULL_BUDGET


#: The listings' stdout, byte for byte (captured before the fetch and
#: allocator tables became instances of one registry).
POLICIES_STDOUT = (
    "static fetch policies:\n"
    "  BRCOUNT         fewest unresolved branches first — favours "
    "threads least likely to be on a wrong path\n"
    "  ICOUNT          fewest pre-issue instructions first — the "
    "paper's winner: prevents IQ clog, favours fast-moving threads\n"
    "  ICOUNT_BRCOUNT  weighted ICOUNT + 3x unresolved branches — "
    "the hybrid the paper suggests as future work\n"
    "  IQPOSN          penalise threads closest to either queue head "
    "(oldest = most clog-prone); needs no counters\n"
    "  MISSCOUNT       fewest outstanding D-cache misses first — "
    "attacks IQ clog from long memory latencies\n"
    "  RR              round-robin rotation (the paper's baseline)\n"
    "\n"
    "adaptive meta-policies:\n"
    "  BANDIT          seed-driven epsilon-greedy/UCB over the "
    "static policies, with per-phase arm statistics\n"
    "                  options: arms (ARM/ARM list), epsilon, "
    "interval, mode, phase_threshold, ucb_c\n"
    "  HYSTERESIS      switch to the policy whose proxy pressure is "
    "worst (IQ clog/wrong path/miss stalls), with a dwell time\n"
    "                  options: dwell, floor, interval, miss_weight, "
    "wrong_path_weight\n"
    "  TOURNAMENT      dueling saturating counter between two arms: "
    "sample each, bump toward the winner, exploit, repeat\n"
    "                  options: arms (ARM/ARM list), exploit, "
    "interval\n"
    "\n"
    "spec grammar: NAME, NAME:key=value,...  TOURNAMENT and BANDIT "
    "accept an arm list: NAME:ARM/ARM[:opts]\n"
    "examples    : ICOUNT   HYSTERESIS:interval=300,dwell=2   "
    "BANDIT:mode=ucb   TOURNAMENT:ICOUNT/BRCOUNT\n"
)

ALLOCATORS_STDOUT = (
    "thread-to-core allocation policies:\n"
    "  LOAD         fewest resident threads, ties to the lowest core "
    "index\n"
    "  PAIRING      SYNPA-style predicted-interference pairing from "
    "per-thread telemetry (IPC, IQ pressure, miss rate)\n"
    "               options: ipc_weight, iq_weight, miss_weight\n"
    "  RANDOM       seeded uniform choice among cores with a free "
    "context (baseline)\n"
    "  ROUND_ROBIN  cycle cores in index order, skipping full ones "
    "(fair by construction)\n"
    "\n"
    "spec grammar: NAME, NAME:key=value,...  (e.g. "
    "PAIRING:miss_weight=2.0)\n"
    "used by     : repro multicore run --allocator, repro experiment "
    "allocation\n"
)

LIST_STDOUT = (
    "workloads   : alvinn, doduc, espresso, fpppp, ora, tex, "
    "tomcatv, xlisp\n"
    "fetch       : BRCOUNT, ICOUNT, ICOUNT_BRCOUNT, IQPOSN, "
    "MISSCOUNT, RR\n"
    "meta fetch  : BANDIT, HYSTERESIS, TOURNAMENT (see 'repro "
    "policies')\n"
    "issue       : OLDEST, OPT_LAST, SPEC_LAST, BRANCH_FIRST\n"
    "allocators  : LOAD, PAIRING, RANDOM, ROUND_ROBIN (see 'repro "
    "allocators')\n"
    "experiments : adaptive, allocation, bottlenecks, fig3, fig4, "
    "fig5, fig6, fig7, table3, table4, table5 + all\n"
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.threads == 8
        assert args.policy == "ICOUNT"
        assert args.num1 == 2 and args.num2 == 8

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "FIFO"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.name == "fig3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_workload_choices(self):
        args = build_parser().parse_args(["workload", "xlisp"])
        assert args.name == "xlisp"

    def test_experiment_supervision_flags(self):
        args = build_parser().parse_args([
            "experiment", "fig3", "--timeout", "30", "--max-retries", "2",
            "--fabric-dir", "runs/", "--report", "r.json",
        ])
        assert args.timeout == 30.0
        assert args.max_retries == 2
        assert args.fabric_dir == "runs/"
        assert args.report == "r.json"
        # Resume is rerunning the same command: no --journal/--resume.
        for gone in ("--journal", "--resume"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["experiment", "fig3", gone, "x"])

    def test_fuzz_resume_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--timeout", "60", "--journal", "fuzz/"])
        assert args.timeout == 60.0
        assert args.journal == "fuzz/"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--resume", "fuzz/"])


class TestCommands:
    def test_list(self):
        code, out = run_cli("list")
        assert code == 0
        assert "ICOUNT" in out and "espresso" in out and "fig5" in out

    @pytest.mark.parametrize("command,golden", [
        ("policies", POLICIES_STDOUT),
        ("allocators", ALLOCATORS_STDOUT),
        ("list", LIST_STDOUT),
    ])
    def test_listing_stdout_is_pinned(self, command, golden):
        assert run_cli(command) == (0, golden)

    def test_workload_characterisation(self):
        code, out = run_cli("workload", "espresso", "--instructions", "3000")
        assert code == 0
        assert "conditional branches" in out
        assert "loads+stores" in out

    def test_workload_listing(self):
        code, out = run_cli("workload", "ora", "--listing")
        assert code == 0
        assert "_start:" in out

    def test_run_small(self):
        code, out = run_cli(
            "run", "--threads", "2", "--cycles", "1200", "--warmup", "200",
        )
        assert code == 0
        assert "IPC" in out and "ICOUNT.2.8" in out

    def test_run_superscalar_flag(self):
        code, out = run_cli(
            "run", "--threads", "1", "--superscalar",
            "--cycles", "800", "--warmup", "100",
        )
        assert code == 0
        assert "superscalar pipeline" in out

    def test_run_check_invariants(self):
        code, out = run_cli(
            "run", "--threads", "2", "--cycles", "800", "--warmup", "100",
            "--check-invariants",
        )
        assert code == 0
        assert "invariants    : clean" in out

    def test_fuzz_small_campaign(self, tmp_path):
        code, out = run_cli(
            "fuzz", "--seeds", "2", "--max-cycles", "400",
            "--corpus", str(tmp_path / "corpus"), "--quiet",
        )
        assert code == 0
        assert "2 seeds, 2 ok, clean" in out

    def test_fuzz_replay_corpus_case(self):
        import glob
        import os
        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        paths = sorted(glob.glob(os.path.join(corpus, "case-*.json")))
        assert paths, "committed corpus missing"
        code, out = run_cli("fuzz", "--replay", paths[0])
        assert code == 0
        assert "-> ok" in out


class TestFuzzMaxCycles:
    """``fuzz --max-cycles`` defaults per mode (3000 single-core, 6000
    multicore); an explicit value is passed through unchanged."""

    def _fuzz_run_kwargs(self, monkeypatch, *flags):
        from repro.verify import fuzz
        seen = {}

        def fake_run(**kwargs):
            seen.update(kwargs)
            return fuzz.FuzzSummary(seeds=kwargs["seeds"], ok=kwargs["seeds"])

        monkeypatch.setattr(fuzz, "fuzz_run", fake_run)
        code, _ = run_cli("fuzz", "--seeds", "1", "--quiet", *flags)
        assert code == 0
        return seen

    def test_multicore_default(self, monkeypatch):
        seen = self._fuzz_run_kwargs(monkeypatch, "--multicore")
        assert seen["multicore"] and seen["max_cycles"] == 6000

    def test_multicore_explicit_3000_is_kept(self, monkeypatch):
        seen = self._fuzz_run_kwargs(monkeypatch, "--multicore",
                                     "--max-cycles", "3000")
        assert seen["multicore"] and seen["max_cycles"] == 3000

    def test_single_core_default(self, monkeypatch):
        seen = self._fuzz_run_kwargs(monkeypatch)
        assert not seen["multicore"] and seen["max_cycles"] == 3000


class TestMulticoreFuzz:
    """``fuzz --multicore`` runs through the one campaign loop, so it
    honours ``--journal``, ``--jobs`` and ``--timeout``."""

    @staticmethod
    def seed_records(directory):
        from repro.sched.journal import read_records
        return [record for record in read_records(directory)
                if record.get("event") == "seed"]

    def test_journal_records_tagged_seeds_and_rerun_skips_them(
            self, tmp_path):
        journal = str(tmp_path / "fuzz")
        single = ("fuzz", "--max-cycles", "400", "--quiet",
                  "--journal", journal)
        multi = ("fuzz", "--multicore", "--seeds", "2", "--quiet",
                 "--journal", journal)
        assert run_cli(*single, "--seeds", "1")[0] == 0
        # Seed 0 of the single-core space does not skip multicore seed 0.
        code, out = run_cli(*multi)
        assert code == 0
        assert out.startswith("multicore fuzz: 2 seeds, 2 ok, clean;")
        assert [(r.get("kind"), r["seed"], r["status"])
                for r in self.seed_records(journal)] == [
            (None, 0, "ok"), ("multicore", 0, "ok"), ("multicore", 1, "ok"),
        ]
        code, out = run_cli(*multi)
        assert code == 0
        assert "2 seeds, 0 ok, clean, 2 resumed-skipped;" in out
        # Nor do multicore seeds skip single-core ones.
        code, out = run_cli(*single, "--seeds", "2")
        assert "2 seeds, 1 ok, clean, 1 resumed-skipped;" in out

    def test_jobs_match_the_serial_campaign(self):
        serial = run_cli("fuzz", "--multicore", "--seeds", "3",
                         "--max-cycles", "3000", "--quiet")
        pooled = run_cli("fuzz", "--multicore", "--seeds", "3",
                         "--max-cycles", "3000", "--quiet", "--jobs", "2")
        assert serial[0] == pooled[0] == 0
        counts = [out.split(" in ")[0] for _, out in (serial, pooled)]
        assert counts[0] == counts[1]

    def test_case_that_never_returns_is_a_timeout(self, tmp_path,
                                                  monkeypatch):
        import os
        import threading

        from repro.verify import fuzz

        driver_pid = os.getpid()

        def never_returns(case):
            # In-process, the case would hang the campaign itself.
            assert os.getpid() != driver_pid, "case ran unsupervised"
            threading.Event().wait()

        monkeypatch.setattr(fuzz, "run_multicore_case", never_returns)
        journal = str(tmp_path / "fuzz")
        code, out = run_cli("fuzz", "--multicore", "--seeds", "1",
                            "--quiet", "--timeout", "0.01",
                            "--journal", journal)
        assert code == 1
        assert "1 seeds, 0 ok, 1 FAILING case(s)" in out
        assert "seed 0: error: worker hard-killed" in out
        assert [(r.get("kind"), r["seed"], r["status"])
                for r in self.seed_records(journal)] == [
            ("multicore", 0, "timeout")]

    def test_replay_with_multicore_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["fuzz", "--multicore", "--replay", "case.json"])
        assert excinfo.value.code == 2


class TestObservabilityFlags:
    def test_run_metrics_prints_histograms_and_telemetry(self):
        code, out = run_cli(
            "run", "--threads", "2", "--cycles", "1000", "--warmup", "200",
            "--metrics", "--telemetry-interval", "100",
        )
        assert code == 0
        assert "fetch active" in out
        assert "telemetry (100-cycle intervals):" in out
        assert "IPC" in out and "icount" in out

    def test_run_metrics_json_writes_valid_document(self, tmp_path):
        from repro.experiments import export

        path = str(tmp_path / "run.json")
        code, out = run_cli(
            "run", "--threads", "2", "--cycles", "1000", "--warmup", "200",
            "--metrics-json", path,
        )
        assert code == 0
        assert f"run report    : {path}" in out
        document = export.load(path, export.RUN_SCHEMA)
        assert document["schema_version"] == export.SCHEMA_VERSION
        assert document["result"]["n_threads"] == 2
        assert document["telemetry"]["samples"]
        assert document["metrics"]["histograms"]

    def test_run_trace_prints_pipeview(self):
        code, out = run_cli(
            "run", "--threads", "1", "--cycles", "600", "--warmup", "100",
            "--trace", "32",
        )
        assert code == 0
        assert "pipeline trace, cycles 100-132:" in out
        # Pipeview stage letters appear in the rendered window.
        assert "F" in out.split("pipeline trace")[1]

    def test_experiment_export_writes_artifacts(self, tmp_path, monkeypatch):
        import repro.cli as cli
        from repro.experiments import export
        from repro.experiments.runner import ExperimentPoint
        from tests.experiments.test_export import fake_point

        fake = cli.Experiment(
            compute=lambda budget: {"ICOUNT.2.8": [
                fake_point("ICOUNT.2.8", 1, 2.0),
                fake_point("ICOUNT.2.8", 4, 4.0),
            ]},
            render=lambda data: print("rendered", len(data)),
        )
        monkeypatch.setitem(cli.EXPERIMENTS, "fig3", fake)
        out_dir = str(tmp_path / "artifacts")
        code, out = run_cli("experiment", "fig3", "--fast",
                            "--export", out_dir)
        assert code == 0
        assert "rendered 1" in out
        document = export.load(f"{out_dir}/fig3.json",
                               export.EXPERIMENT_SCHEMA)
        assert document["experiment"] == "fig3"
        assert len(document["rows"]) == 2
        with open(f"{out_dir}/fig3.csv") as f:
            assert len(f.readlines()) == 3

class TestSupervisedCli:
    """Durable mode: ``--timeout`` / ``--max-retries`` / ``--report`` /
    ``--fabric-dir`` run the experiment's batches as one campaign.
    A timed drain forks its worker, which carries a monkeypatched
    ``run_spec_fast`` with it."""

    TINY_SPEC_KWARGS = dict(warmup_cycles=100, measure_cycles=400,
                            functional_warmup_instructions=2000, rotations=1)

    def _fake_experiment(self, cli, monkeypatch, tmp_path, rotations=1):
        from repro.core.config import SMTConfig
        from repro.experiments.parallel import RunSpec, execute_runs
        from repro.experiments.runner import RunBudget

        tiny = RunBudget(**self.TINY_SPEC_KWARGS)
        # The runs and the CLI's closing report share the default
        # result cache; keep it out of the user's cache directory.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        def compute(budget):
            execute_runs(
                [RunSpec(config=SMTConfig(n_threads=1), rotation=rotation,
                         budget=tiny) for rotation in range(rotations)],
                jobs=1,
            )
            return []

        monkeypatch.setitem(cli.EXPERIMENTS, "fig3", cli.Experiment(
            compute=compute, render=lambda data: None, document=None,
        ))

    def test_supervised_experiment_writes_journal_and_report(
            self, tmp_path, monkeypatch):
        import os

        import repro.cli as cli
        from repro.experiments import export

        self._fake_experiment(cli, monkeypatch, tmp_path)
        directory = str(tmp_path / "fig3")
        report = str(tmp_path / "fig3-report.json")
        code, out = run_cli(
            "experiment", "fig3", "--fast", "--timeout", "120",
            "--max-retries", "0", "--fabric-dir", directory,
            "--report", report,
        )
        assert code == 0
        assert f"campaign: {directory} (rerun the same command " \
            "to resume)" in out
        assert os.path.exists(os.path.join(directory, "journal.jsonl"))
        document = export.load(report, export.FABRIC_SCHEMA)
        assert document["counts"] == {"done": 1}

    def test_all_cache_hits_say_that_nothing_ran(self, tmp_path,
                                                 monkeypatch):
        import os

        import repro.cli as cli
        from repro.experiments import export

        self._fake_experiment(cli, monkeypatch, tmp_path)
        assert run_cli("experiment", "fig3", "--fast")[0] == 0  # warm
        directory = str(tmp_path / "fig3")
        report = str(tmp_path / "fig3-report.json")
        code, out = run_cli("experiment", "fig3", "--fast",
                            "--fabric-dir", directory, "--report", report)
        assert code == 0
        assert "rerun the same command" not in out
        assert "every run was a result-cache hit" in out
        assert not os.path.exists(directory)
        # The report is still written, so scripts that read it work.
        assert export.load(report, export.FABRIC_SCHEMA)["counts"] == {}

    def test_failed_campaign_exits_nonzero_and_names_failure(
            self, tmp_path, monkeypatch):
        import repro.cli as cli
        from repro.experiments import parallel

        self._fake_experiment(cli, monkeypatch, tmp_path)

        def broken(spec, watchdog=None):
            raise ValueError("injected crash")

        monkeypatch.setattr(parallel, "run_spec_fast", broken)
        code, out = run_cli(
            "experiment", "fig3", "--fast", "--timeout", "120",
            "--max-retries", "0", "--fabric-dir", str(tmp_path / "fig3"),
        )
        assert code == 1
        assert "[crash]" in out
        assert "injected crash" in out
        assert "0/1 done" in out

    def test_crash_and_timeout_named_then_rerun_resumes(
            self, tmp_path, monkeypatch):
        import repro.cli as cli
        from repro.core.simulator import SimulationAborted
        from repro.experiments import parallel

        self._fake_experiment(cli, monkeypatch, tmp_path, rotations=3)
        real_run = parallel.run_spec_fast

        def injected(spec, watchdog=None):
            if spec.rotation == 1:
                raise ValueError("injected crash")
            if spec.rotation == 2:
                raise SimulationAborted("wall-clock timeout after 120s", 9)
            return real_run(spec, watchdog)

        monkeypatch.setattr(parallel, "run_spec_fast", injected)
        argv = ("experiment", "fig3", "--fast", "--timeout", "120",
                "--max-retries", "0", "--fabric-dir", str(tmp_path / "c"))
        code, out = run_cli(*argv)
        assert code == 1
        assert "[crash]" in out and "[timeout]" in out
        assert "1/3 done" in out

        monkeypatch.setattr(parallel, "run_spec_fast", real_run)
        code, out = run_cli(*argv)
        assert code == 0
        assert "[crash]" not in out and "[timeout]" not in out

    def test_flaky_run_recovers_with_one_retry(self, tmp_path, monkeypatch):
        import os

        import repro.cli as cli
        from repro.experiments import parallel
        from repro.sched.state import load_state

        self._fake_experiment(cli, monkeypatch, tmp_path)
        real_run = parallel.run_spec_fast
        marker = str(tmp_path / "flaked")

        def flaky(spec, watchdog=None):
            if not os.path.exists(marker):
                open(marker, "w").close()
                raise ValueError("flaky first attempt")
            return real_run(spec, watchdog)

        monkeypatch.setattr(parallel, "run_spec_fast", flaky)
        directory = str(tmp_path / "fig3")
        code, _ = run_cli("experiment", "fig3", "--fast", "--timeout", "120",
                          "--max-retries", "1", "--fabric-dir", directory)
        assert code == 0
        assert load_state(directory).iter_tasks()[0].attempt == 2

    def test_bad_timeout_is_a_usage_error(self, tmp_path):
        code, _ = run_cli("experiment", "fig3", "--fast", "--timeout", "0",
                          "--fabric-dir", str(tmp_path / "c"))
        assert code == 2

    def test_fuzz_journal_then_resume(self, tmp_path):
        journal = str(tmp_path / "fuzz")
        code, out = run_cli(
            "fuzz", "--seeds", "2", "--max-cycles", "400", "--quiet",
            "--journal", journal,
        )
        assert code == 0
        code, out = run_cli(
            "fuzz", "--seeds", "3", "--max-cycles", "400", "--quiet",
            "--journal", journal,
        )
        assert code == 0
        assert "2 resumed-skipped" in out


class TestEnvDefaults:
    def test_experiment_does_not_freeze_env_defaults(self, monkeypatch):
        # Regression: cmd_experiment used to resolve default_use_cache()
        # eagerly, freezing REPRO_NO_CACHE for the rest of the process.
        import repro.cli as cli
        from repro.experiments import parallel

        monkeypatch.setitem(cli.EXPERIMENTS, "fig3", cli.Experiment(
            compute=lambda budget: [],
            render=lambda data: None,
            document=None,
        ))
        parallel.configure(jobs=None, use_cache=None, progress=None)
        try:
            code, _ = run_cli("experiment", "fig3", "--fast")
            assert code == 0
            monkeypatch.setenv("REPRO_NO_CACHE", "1")
            assert parallel.default_jobs() == 1
            assert parallel.default_use_cache() is False
        finally:
            parallel.configure(jobs=None, use_cache=None, progress=None)


class TestBudgetFlags:
    """``--fast``/``--full`` and ``REPRO_FAST``/``REPRO_FULL`` select
    the same budgets, for ``experiment`` and for ``campaign submit``."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        monkeypatch.delenv("REPRO_FULL", raising=False)

    def _experiment_budget(self, monkeypatch, *flags):
        import repro.cli as cli

        seen = []
        monkeypatch.setitem(cli.EXPERIMENTS, "fig3", cli.Experiment(
            compute=seen.append, render=lambda data: None, document=None,
        ))
        assert run_cli("experiment", "fig3", *flags)[0] == 0
        return seen[0]

    def _submitted_keys(self, directory, *flags):
        from repro.sched.state import load_state

        assert run_cli("campaign", "submit", directory, "--threads", "2",
                       *flags)[0] == 0
        return sorted(load_state(directory).tasks)

    @pytest.mark.parametrize("flag,env,budget", [
        ("--fast", "REPRO_FAST", FAST_BUDGET),
        ("--full", "REPRO_FULL", FULL_BUDGET),
    ])
    def test_flag_and_environment_agree(self, flag, env, budget,
                                        monkeypatch, tmp_path):
        from_flag = self._experiment_budget(monkeypatch, flag)
        flag_keys = self._submitted_keys(str(tmp_path / "flag"), flag)
        default_keys = self._submitted_keys(str(tmp_path / "default"))
        monkeypatch.setenv(env, "1")
        assert self._experiment_budget(monkeypatch) == from_flag == budget
        assert self._submitted_keys(str(tmp_path / "env")) == flag_keys
        assert flag_keys != default_keys


class TestCampaignCli:
    def test_campaign_parser_defaults(self):
        args = build_parser().parse_args(["campaign", "submit", "runs/"])
        assert args.threads == 8 and args.rotations == 1
        assert args.lease_ttl == 60.0
        assert args.max_attempts == 3 and args.poison_threshold == 3

    def test_worker_parser_flags(self):
        args = build_parser().parse_args([
            "worker", "runs/", "--drain", "--id", "w0",
            "--max-tasks", "5", "--chaos", "plan.json",
        ])
        assert args.directory == "runs/"
        assert args.drain and args.worker_id == "w0"
        assert args.max_tasks == 5 and args.chaos == "plan.json"

    def test_experiment_fabric_flags(self):
        args = build_parser().parse_args([
            "experiment", "fig3", "--fabric", "--fabric-dir", "fab/",
        ])
        assert args.fabric is True
        assert args.fabric_dir == "fab/"

    def test_submit_status_drain_round_trip(self, tmp_path):
        directory = str(tmp_path / "camp")
        report = str(tmp_path / "report.json")
        code, out = run_cli(
            "campaign", "submit", directory, "--threads", "2",
            "--rotations", "1", "--fast",
        )
        assert code == 0
        assert "submitted 1 new task(s)" in out
        assert "1 pending" in out

        code, out = run_cli("campaign", "submit", directory, "--threads",
                            "2", "--rotations", "1", "--fast")
        assert code == 0
        assert "submitted 0 new task(s)" in out  # idempotent

        code, out = run_cli("campaign", "drain", directory,
                            "--report", report)
        assert code == 0
        assert "1/1 done" in out
        from repro.experiments import export
        document = export.load(report, export.FABRIC_SCHEMA)
        assert document["counts"] == {"done": 1}

        code, out = run_cli("campaign", "status", directory)
        assert code == 0
        assert "1/1 done" in out

    def test_worker_serves_nothing_on_empty_campaign(self, tmp_path):
        from repro.sched.campaign import CampaignConfig, submit_specs

        directory = str(tmp_path / "camp")
        submit_specs(directory, [], CampaignConfig())
        code, out = run_cli("worker", directory, "--drain")
        assert code == 0
        assert "0 task(s) completed" in out


class TestInterruptedCommands:
    """Ctrl-C ends ``campaign drain`` and ``fuzz`` as it ends
    ``experiment``: one line on stderr and exit code 130, no
    traceback."""

    @staticmethod
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    def test_campaign_drain(self, tmp_path, monkeypatch, capsys):
        from repro.sched import fabric

        monkeypatch.setattr(fabric, "drain_campaign", self.interrupt)
        code, _ = run_cli("campaign", "drain", str(tmp_path / "camp"))
        assert code == 130
        assert capsys.readouterr().err == \
            "\ninterrupted — finished runs are kept\n"

    def test_fuzz(self, monkeypatch, capsys):
        from repro.verify import fuzz

        monkeypatch.setattr(fuzz, "fuzz_run", self.interrupt)
        code, out = run_cli("fuzz", "--seeds", "1", "--quiet")
        assert code == 130 and out == ""
        assert capsys.readouterr().err == \
            "\ninterrupted — finished runs are kept\n"
