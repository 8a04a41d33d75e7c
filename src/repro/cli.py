"""Command-line interface.

Usage::

    python -m repro run --threads 8 --policy ICOUNT --num1 2 --num2 8
    python -m repro run --threads 1 --superscalar
    python -m repro run --threads 4 --metrics --metrics-json run.json --trace 48
    python -m repro run --threads 4 --check-invariants
    python -m repro experiment fig3 [--fast | --full] [--jobs N] [--no-cache]
    python -m repro experiment fig5 --export results/ --progress
    python -m repro experiment all
    python -m repro experiment fig4 --timeout 300 --max-retries 2 \
        --report campaign.json      # rerun the same command to resume
    python -m repro experiment fig3 --fast --fabric-dir runs/ [--jobs N]
    python -m repro campaign submit runs/ --threads 8 --rotations 4 --fast
    python -m repro campaign status runs/ [--reclaim] [--json]
    python -m repro campaign drain runs/ --jobs 2 --report report.json
    python -m repro campaign cancel runs/ [--keys KEY ...]
    python -m repro serve runs/ --unix serve.sock [--port 7301]
    python -m repro campaign submit --server localhost:7301 --threads 8
    python -m repro campaign status --server serve.sock --follow
    python -m repro worker runs/ --drain [--id w0] [--chaos plan.json]
    python -m repro fuzz --seeds 25 --max-cycles 3000 [--jobs N]
    python -m repro fuzz --seeds 500 --journal fuzz/ --timeout 120
    python -m repro fuzz --replay tests/corpus/case-0123abcd4567.json
    python -m repro run --threads 8 --fetch-policy "BANDIT:mode=ucb"
    python -m repro experiment adaptive --fast
    python -m repro policies
    python -m repro multicore run --cores 2 --allocator PAIRING \
        --arrivals 8 --check-invariants
    python -m repro multicore run --cores 4 --trace jobs.jsonl --json out.json
    python -m repro experiment allocation --fast --export results/
    python -m repro fuzz --multicore --seeds 10
    python -m repro allocators
    python -m repro workload espresso --instructions 20000
    python -m repro list

Every experiment subcommand regenerates one of the paper's tables or
figures and prints it in the paper's format; ``--export DIR`` also
writes schema-versioned JSON + CSV artifacts (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.core.config import (
    ISSUE_POLICIES,
    SMTConfig,
)
from repro.core.histograms import MetricsCollector
from repro.core.simulator import Simulator
from repro.core.telemetry import TelemetrySampler
from repro.core.trace import PipelineTracer
from repro.experiments import (
    adaptive,
    allocation,
    bottlenecks,
    export,
    figures,
    parallel,
    tables,
)
from repro.experiments.runner import FAST_BUDGET, FULL_BUDGET, RunBudget
from repro.multicore.alloc import ALLOCATORS
from repro.policy.registry import FETCH_POLICIES, SpecRegistry
from repro.workloads.mixes import standard_mix
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import generate_program


class Experiment(NamedTuple):
    """One paper artifact: a compute step and a render step.

    Keeping them separate lets ``--export`` serialise the computed data
    alongside the printed tables.  ``document`` builds the exported
    document from ``(name, data)``; it is None for report harnesses
    that print directly without returning tabular data.
    """

    compute: Callable[[RunBudget], Any]
    render: Callable[[Any], None]
    document: Optional[Callable[[str, Any], Dict[str, Any]]] = \
        export.experiment_document


def _print_nothing(_data: Any) -> None:
    pass


EXPERIMENTS = {
    "fig3": Experiment(
        lambda budget: figures.figure3(budget=budget),
        figures.print_figure3,
    ),
    "fig4": Experiment(
        lambda budget: figures.figure4(budget=budget, thread_counts=(1, 4, 8)),
        figures.print_figure4,
    ),
    "fig5": Experiment(
        lambda budget: figures.figure5(budget=budget, thread_counts=(4, 8)),
        figures.print_figure5,
    ),
    "fig6": Experiment(
        lambda budget: figures.figure6(budget=budget, thread_counts=(4, 8)),
        figures.print_figure6,
    ),
    "fig7": Experiment(
        lambda budget: figures.figure7(budget=budget),
        figures.print_figure7,
    ),
    "table3": Experiment(
        lambda budget: tables.table3(budget=budget),
        tables.print_table3,
    ),
    "table4": Experiment(
        lambda budget: tables.table4(budget=budget),
        tables.print_table4,
    ),
    "table5": Experiment(
        lambda budget: tables.table5(budget=budget),
        tables.print_table5,
    ),
    "bottlenecks": Experiment(
        lambda budget: bottlenecks.print_report(budget),
        _print_nothing,
        document=None,
    ),
    "adaptive": Experiment(
        lambda budget: adaptive.adaptive_study(budget=budget),
        adaptive.print_adaptive_study,
    ),
    "allocation": Experiment(
        lambda budget: allocation.allocation_study(budget=budget),
        allocation.print_allocation_study,
        document=export.multicore_experiment_document,
    ),
}


def _spec_of(registry: SpecRegistry) -> Callable[[str], str]:
    """argparse type: validate a spec against ``registry`` at parse
    time (bad specs exit with the registry's message)."""
    def check(value: str) -> str:
        try:
            registry.validate(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value
    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMT processor simulator reproducing Tullsen et al., "
                    "ISCA 1996 ('Exploiting Choice').",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one machine configuration")
    run.add_argument("--threads", type=int, default=8,
                     help="hardware contexts (default 8)")
    run.add_argument("--policy", "--fetch-policy", dest="policy",
                     type=_spec_of(FETCH_POLICIES), default="ICOUNT",
                     metavar="SPEC",
                     help="fetch thread-choice policy: a static name "
                          "(ICOUNT, RR, ...) or an adaptive meta-policy "
                          "spec such as HYSTERESIS, BANDIT:mode=ucb or "
                          "TOURNAMENT:ICOUNT/BRCOUNT "
                          "(see 'repro policies')")
    run.add_argument("--num1", type=int, default=2,
                     help="threads fetched per cycle")
    run.add_argument("--num2", type=int, default=8,
                     help="max instructions per thread per cycle")
    run.add_argument("--issue", choices=ISSUE_POLICIES, default="OLDEST",
                     help="issue priority policy")
    run.add_argument("--bigq", action="store_true",
                     help="double queue capacity, search first 32")
    run.add_argument("--itag", action="store_true",
                     help="early I-cache tag lookup")
    run.add_argument("--superscalar", action="store_true",
                     help="conventional (non-SMT) pipeline")
    run.add_argument("--perfect-bp", action="store_true",
                     help="perfect branch prediction")
    run.add_argument("--cycles", type=int, default=15000,
                     help="measured cycles (default 15000)")
    run.add_argument("--warmup", type=int, default=2000,
                     help="timed warmup cycles (default 2000)")
    run.add_argument("--rotation", type=int, default=0,
                     help="workload rotation index (default 0)")
    run.add_argument("--seed", type=int, default=0,
                     help="config seed; feeds adaptive meta-policy "
                          "randomness (default 0)")
    run.add_argument("--metrics", action="store_true",
                     help="print timing histograms and the telemetry "
                          "time series after the run")
    run.add_argument("--metrics-json", metavar="PATH", default=None,
                     help="write a schema-versioned JSON run report "
                          "(result + histograms + telemetry)")
    run.add_argument("--trace", type=int, metavar="WINDOW", default=None,
                     help="print a text pipeview of the first WINDOW "
                          "measured cycles")
    run.add_argument("--telemetry-interval", type=int, default=200,
                     metavar="CYCLES",
                     help="telemetry sampling interval (default 200)")
    run.add_argument("--check-invariants", action="store_true",
                     help="run with the pipeline invariant sanitizer "
                          "attached (abort on the first violation)")
    run.add_argument("--profile", type=int, nargs="?", const=25,
                     default=None, metavar="N",
                     help="run the simulation under cProfile and print "
                          "the top N functions by cumulative time "
                          "(default 25)")

    exp = sub.add_parser("experiment",
                         help="regenerate a table/figure of the paper")
    exp.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    exp.add_argument("--fast", action="store_true",
                     help="small budget (quick look)")
    exp.add_argument("--full", action="store_true",
                     help="large budget (final numbers)")
    exp.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes for simulation runs: a "
                          "forked pool, or in durable mode forked "
                          "campaign workers (default 1)")
    exp.add_argument("--no-cache", action="store_true",
                     help="bypass the persistent result cache")
    exp.add_argument("--export", metavar="DIR", default=None,
                     help="also write <name>.json and <name>.csv "
                          "artifacts under DIR")
    exp.add_argument("--progress", action="store_true",
                     help="report batch progress (runs / cache hits / "
                          "elapsed) on stderr")
    exp.add_argument("--check-invariants", action="store_true",
                     help="attach the pipeline sanitizer to every "
                          "simulation in the batch")
    exp.add_argument("--timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-run wall-clock watchdog; a worker past it "
                          "plus 2 s is killed (durable mode)")
    exp.add_argument("--max-retries", type=int, default=None, metavar="N",
                     help="retries per crashed/timed-out run (durable "
                          "mode; default 2)")
    exp.add_argument("--report", metavar="PATH", default=None,
                     help="write the canonical campaign report "
                          "(repro.fabric_campaign) as JSON (durable mode)")
    exp.add_argument("--fabric", action="store_true",
                     help="durable mode: run the study's batches as a "
                          "campaign (journal-backed queue, leases, "
                          "retries, resume by rerunning the same "
                          "command; see docs/robustness.md)")
    exp.add_argument("--fabric-dir", metavar="DIR", default=None,
                     help="campaign directory for durable mode "
                          "(default: <cache dir>/campaigns/<name>)")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the pipeline against the oracle",
    )
    fuzz_space = fuzz.add_mutually_exclusive_group()
    fuzz_space.add_argument("--multicore", action="store_true",
                            help="fuzz the multicore allocation surface "
                                 "(core counts x allocator specs x arrival "
                                 "streams) instead of the single-core "
                                 "pipeline; cases are not shrunk")
    fuzz.add_argument("--seeds", type=int, default=25,
                      help="number of consecutive fuzz seeds (default 25)")
    fuzz.add_argument("--start-seed", type=int, default=0,
                      help="first seed (default 0)")
    fuzz.add_argument("--max-cycles", type=int, default=None,
                      help="cycles simulated per case (default 3000; "
                           "6000 with --multicore)")
    fuzz.add_argument("--check-interval", type=int, default=1,
                      help="cycles between full structural sweeps "
                           "(default 1 = every cycle)")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (default 1)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="keep failing cases unshrunk")
    fuzz.add_argument("--corpus", metavar="DIR", default="tests/corpus",
                      help="directory for minimal reproducers "
                           "(default tests/corpus)")
    fuzz.add_argument("--report", metavar="PATH", default=None,
                      help="write the first violation as a "
                           "schema-versioned JSON report")
    fuzz_space.add_argument("--replay", metavar="CASE.json", default=None,
                            help="replay one corpus case instead of "
                                 "fuzzing")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-seed progress lines")
    fuzz.add_argument("--timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="per-case wall-clock watchdog (runs each "
                           "case in a crash-isolated worker)")
    fuzz.add_argument("--journal", metavar="DIR", default=None,
                      help="campaign directory recording executed seeds; "
                           "seeds it already records are skipped")

    wl = sub.add_parser("workload",
                        help="inspect a synthetic benchmark program")
    wl.add_argument("name", choices=sorted(PROFILES))
    wl.add_argument("--instructions", type=int, default=20000,
                    help="dynamic instructions to characterise")
    wl.add_argument("--listing", action="store_true",
                    help="print the first 40 lines of disassembly")

    worker = sub.add_parser(
        "worker",
        help="serve a campaign directory: claim tasks under TTL "
             "leases, execute, journal completion",
    )
    worker.add_argument("directory", metavar="JOURNAL_DIR",
                        help="campaign directory (journal + lock + "
                             "default result store)")
    worker.add_argument("--id", dest="worker_id", default=None,
                        help="worker identity in the journal "
                             "(default: host-pid-suffix)")
    worker.add_argument("--drain", action="store_true",
                        help="exit once every task is terminal instead "
                             "of polling for new submissions")
    worker.add_argument("--max-tasks", type=int, default=None, metavar="N",
                        help="exit after completing N tasks")
    worker.add_argument("--poll", type=float, default=None,
                        metavar="SECONDS",
                        help="idle poll base interval (default 0.5; "
                             "idle workers back off exponentially with "
                             "jitter)")
    worker.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result store (default: "
                             "<JOURNAL_DIR>/results)")
    worker.add_argument("--chaos", metavar="PLAN.json", default=None,
                        help="arm self-inflicted faults from a chaos "
                             "plan (testing only: SIGKILL mid-lease, "
                             "dropped heartbeats)")

    camp = sub.add_parser(
        "campaign",
        help="submit to / inspect / drain a durable run campaign",
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    def _server_args(p):
        p.add_argument("--server", metavar="ADDR", default=None,
                       help="talk to a running 'repro serve' instead of "
                            "the filesystem: HOST:PORT or a Unix socket "
                            "path")
        p.add_argument("--token", default=None,
                       help="shared-secret auth token (default: "
                            "REPRO_SERVE_TOKEN)")

    csubmit = csub.add_parser(
        "submit", help="append a grid of runs to a campaign queue")
    csubmit.add_argument("directory", metavar="JOURNAL_DIR", nargs="?",
                         default=None)
    _server_args(csubmit)
    csubmit.add_argument("--threads", type=int, default=8,
                         help="hardware contexts per run (default 8)")
    csubmit.add_argument("--policy", type=_spec_of(FETCH_POLICIES),
                         default="ICOUNT", metavar="SPEC",
                         help="fetch policy for the submitted runs")
    csubmit.add_argument("--rotations", type=int, default=1, metavar="K",
                         help="submit workload rotations 0..K-1 "
                              "(default 1)")
    csubmit.add_argument("--seed", type=int, default=0,
                         help="config seed (default 0)")
    csubmit.add_argument("--fast", action="store_true",
                         help="small per-run budget")
    csubmit.add_argument("--full", action="store_true",
                         help="large per-run budget")
    csubmit.add_argument("--name", default=None,
                         help="campaign name (default: directory name)")
    csubmit.add_argument("--lease-ttl", type=float, default=60.0,
                         metavar="SECONDS",
                         help="worker lease TTL (default 60)")
    csubmit.add_argument("--max-attempts", type=int, default=3,
                         metavar="N",
                         help="executions per task before it fails for "
                              "good (default 3)")
    csubmit.add_argument("--poison-threshold", type=int, default=3,
                         metavar="K",
                         help="distinct dead workers that quarantine a "
                              "task as poison (default 3)")

    cstatus = csub.add_parser(
        "status", help="replay the journal and print campaign state")
    cstatus.add_argument("directory", metavar="JOURNAL_DIR", nargs="?",
                         default=None)
    _server_args(cstatus)
    cstatus.add_argument("--reclaim", action="store_true",
                         help="also reclaim expired leases (requeue / "
                              "quarantine / fail them) before printing")
    cstatus.add_argument("--json", action="store_true",
                         help="print the machine-readable "
                              "repro.service_status document (the same "
                              "one the service 'status' verb returns)")
    cstatus.add_argument("--follow", action="store_true",
                         help="with --server: stream state deltas until "
                              "the campaign is terminal or the server "
                              "drains")

    ccancel = csub.add_parser(
        "cancel", help="cancel pending tasks (leased and terminal tasks "
                       "are untouched)")
    ccancel.add_argument("directory", metavar="JOURNAL_DIR", nargs="?",
                         default=None)
    _server_args(ccancel)
    ccancel.add_argument("--keys", nargs="*", default=None, metavar="KEY",
                         help="cancel only these task keys "
                              "(default: every pending task)")

    cdrain = csub.add_parser(
        "drain", help="run workers until every task is terminal, then "
                      "print the campaign report")
    cdrain.add_argument("directory", metavar="JOURNAL_DIR")
    cdrain.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="workers: 1 drains in process, N > 1 forks "
                             "N workers (default 1)")
    cdrain.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result store (default: "
                             "<JOURNAL_DIR>/results)")
    cdrain.add_argument("--report", metavar="PATH", default=None,
                        help="write the canonical campaign report "
                             "document as JSON")

    serve = sub.add_parser(
        "serve",
        help="serve a campaign directory over TCP / a Unix socket "
             "(JSON-lines protocol; see docs/fabric.md)",
    )
    serve.add_argument("directory", metavar="JOURNAL_DIR",
                       help="campaign directory to front (created if "
                            "missing)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="TCP port (0 = ephemeral; printed at start)")
    serve.add_argument("--unix", metavar="PATH", default=None,
                       help="Unix-domain socket path")
    serve.add_argument("--token", default=None,
                       help="require this shared-secret token on every "
                            "request (default: REPRO_SERVE_TOKEN)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="concurrent submit limit before structured "
                            "'busy' rejections (default 4)")
    serve.add_argument("--follow-poll", type=float, default=0.2,
                       metavar="SECONDS",
                       help="journal re-replay interval for status "
                            "followers (default 0.2)")

    sub.add_parser(
        "policies",
        help="list registered fetch policies and the spec grammar",
    )

    mc = sub.add_parser(
        "multicore",
        help="run the N-core open-system machine",
    )
    mcsub = mc.add_subparsers(dest="multicore_command", required=True)
    mcr = mcsub.add_parser(
        "run",
        help="drive an open-system job stream through N cores",
    )
    mcr.add_argument("--cores", type=int, default=2,
                     help="number of SMT cores (default 2)")
    mcr.add_argument("--contexts", type=int, default=2,
                     help="hardware contexts per core (default 2)")
    mcr.add_argument("--allocator", type=_spec_of(ALLOCATORS),
                     default="LOAD", metavar="SPEC",
                     help="thread-to-core allocation policy: RANDOM, "
                          "ROUND_ROBIN, LOAD, or PAIRING[:key=value,...] "
                          "(see 'repro allocators')")
    mcr.add_argument("--arrivals", type=int, default=8, metavar="N",
                     help="jobs in the seeded arrival process (default 8)")
    mcr.add_argument("--rate", type=float, default=1.0,
                     metavar="PER_KCYCLE",
                     help="mean arrival rate, jobs per 1000 cycles "
                          "(default 1.0)")
    mcr.add_argument("--service", type=int, default=400,
                     metavar="INSTRUCTIONS",
                     help="committed instructions per job (default 400)")
    mcr.add_argument("--trace", metavar="JSONL", default=None,
                     help="read arrivals from a JSONL trace instead of "
                          "the seeded distribution (one object per "
                          "line: arrival, profile, service)")
    mcr.add_argument("--quantum", type=int, default=200,
                     help="driver scheduling quantum in cycles "
                          "(default 200)")
    mcr.add_argument("--max-cycles", type=int, default=200_000,
                     help="horizon: stop even if jobs remain "
                          "(default 200000)")
    mcr.add_argument("--seed", type=int, default=0,
                     help="arrival + allocator seed (default 0)")
    mcr.add_argument("--check-invariants", action="store_true",
                     help="attach the pipeline sanitizer to every core "
                          "(driver invariants are always on)")
    mcr.add_argument("--no-cache", action="store_true",
                     help="bypass the persistent result cache")
    mcr.add_argument("--json", metavar="PATH", default=None,
                     help="write the schema-versioned multicore run "
                          "document")

    sub.add_parser(
        "allocators",
        help="list thread-to-core allocation policies",
    )

    sub.add_parser("list", help="list workloads, policies, experiments")
    return parser


def cmd_run(args) -> int:
    config = SMTConfig(
        n_threads=args.threads,
        fetch_policy=args.policy,
        fetch_threads=args.num1,
        fetch_per_thread=args.num2,
        issue_policy=args.issue,
        bigq=args.bigq,
        itag=args.itag,
        smt_pipeline=not args.superscalar,
        perfect_branch_prediction=args.perfect_bp,
        seed=args.seed,
    )
    sim = Simulator(config, standard_mix(args.threads, args.rotation))

    want_observers = args.metrics or args.metrics_json
    metrics = MetricsCollector(sim) if want_observers else None
    telemetry = (
        TelemetrySampler(sim, interval=args.telemetry_interval)
        if want_observers else None
    )
    tracer = (
        PipelineTracer(sim, max_records=4096, start_cycle=args.warmup)
        if args.trace else None
    )
    sanitizer = None
    if args.check_invariants:
        from repro.verify.sanitizer import PipelineSanitizer
        sanitizer = PipelineSanitizer(sim)

    profiler = None
    if args.profile is not None:
        import cProfile
        profiler = cProfile.Profile()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = sim.run(warmup_cycles=args.warmup,
                             measure_cycles=args.cycles)
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception as exc:
        from repro.verify.sanitizer import InvariantViolation
        if not isinstance(exc, InvariantViolation):
            raise
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        for key, value in sorted((exc.details or {}).items()):
            print(f"  {key}: {value}", file=sys.stderr)
        return 1
    if telemetry is not None:
        telemetry.finish()

    print(f"configuration : {config.scheme_name}, {args.threads} thread(s)"
          f"{' (superscalar pipeline)' if args.superscalar else ''}")
    print(f"cycles        : {result.cycles}")
    print(f"committed     : {result.committed}")
    print(f"IPC           : {result.ipc:.3f}")
    print(f"useful fetch  : {result.useful_fetch_per_cycle:.3f} /cycle")
    print(f"fetch active  : {result.fetch_active_frac:.1%} of cycles "
          f"({result.icache_miss_stall_events} I-miss stalls)")
    print(f"wrong-path    : {result.wrong_path_fetched_frac:.1%} fetched, "
          f"{result.wrong_path_issued_frac:.1%} issued")
    print(f"branch mpred  : {result.branch_mispredict_rate:.1%} "
          f"(jumps {result.jump_mispredict_rate:.1%})")
    print(f"IQ-full       : int {result.int_iq_full_frac:.1%}, "
          f"fp {result.fp_iq_full_frac:.1%} "
          f"(avg population {result.avg_queue_population:.1f})")
    print(f"out-of-regs   : {result.out_of_registers_frac:.1%}")
    print(f"caches        : I$ {result.icache.miss_rate:.1%}  "
          f"D$ {result.dcache.miss_rate:.1%}  "
          f"L2 {result.l2.miss_rate:.1%}  L3 {result.l3.miss_rate:.1%}")
    per_thread = ", ".join(
        f"t{tid}:{count}" for tid, count in
        sorted(result.committed_per_thread.items())
    )
    print(f"per-thread    : {per_thread}")
    policy_stats = sim.policy_engine.telemetry()
    if policy_stats.get("adaptive"):
        counts = policy_stats.get("choice_counts", {})
        chosen = ", ".join(
            f"{arm}:{n}" for arm, n in counts.items() if n
        ) or "(no completed intervals)"
        print(f"meta-policy   : {policy_stats['spec']} — "
              f"{policy_stats['switch_count']} switches over "
              f"{policy_stats['intervals']} intervals of "
              f"{policy_stats['interval']} cycles; intervals per arm: "
              f"{chosen}")
    if sanitizer is not None:
        print(f"invariants    : clean ({sanitizer.cycles_checked} cycles, "
              f"{sanitizer.commits_checked} commits checked against the "
              f"oracle)")

    if tracer is not None:
        print()
        print(f"pipeline trace, cycles {args.warmup}-"
              f"{args.warmup + args.trace}:")
        print(tracer.render(args.warmup, args.warmup + args.trace))
    if args.metrics:
        print()
        print(metrics.report())
        print()
        print(f"telemetry ({args.telemetry_interval}-cycle intervals):")
        print(telemetry.report())
    if args.metrics_json:
        document = export.run_document(
            result, telemetry=telemetry, metrics=metrics, policy=policy_stats,
        )
        export.write(args.metrics_json, document)
        print(f"\nrun report    : {args.metrics_json} "
              f"(schema {document['schema']} v{document['schema_version']}, "
              f"{len(telemetry.samples)} telemetry samples)")
    if profiler is not None:
        import pstats
        print(f"\nprofile       : top {args.profile} functions by "
              f"cumulative time")
        pstats.Stats(profiler, stream=sys.stdout) \
            .sort_stats("cumulative").print_stats(args.profile)
    return 0


def _budget(args) -> RunBudget:
    """The run budget ``--fast`` / ``--full`` select (default: the
    environment's, see :meth:`RunBudget.from_environment`)."""
    if args.fast:
        return FAST_BUDGET
    if args.full:
        return FULL_BUDGET
    return RunBudget.from_environment()


def cmd_experiment(args) -> int:
    budget = _budget(args)
    durable = bool(args.fabric or args.fabric_dir or args.report
                   or args.timeout is not None
                   or args.max_retries is not None)
    directory = max_attempts = None
    if durable:
        import os

        from repro.experiments.cache import default_cache_dir
        from repro.sched.campaign import CampaignConfig

        max_attempts = CampaignConfig.max_attempts \
            if args.max_retries is None else args.max_retries + 1
        try:  # the campaign config's own checks, before any run starts
            CampaignConfig(timeout=args.timeout, max_attempts=max_attempts)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # One campaign for all of the experiment's batches: rerunning
        # the same command resumes it.
        directory = args.fabric_dir or os.path.join(
            default_cache_dir(), "campaigns", args.name)
    # Pass None for unset options: resolving the environment-derived
    # defaults here would freeze REPRO_NO_CACHE for the rest of the
    # process.
    parallel.configure(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        progress=parallel.progress_printer() if args.progress else None,
        check_invariants=True if args.check_invariants else None,
        fabric_dir=directory, timeout=args.timeout,
        max_attempts=max_attempts,
    )

    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    interrupted = None
    try:
        for name in names:
            experiment = EXPERIMENTS[name]
            data = experiment.compute(budget)
            experiment.render(data)
            if args.export and experiment.document is None:
                print(f"({name} prints a report; no tabular export)")
            elif args.export:
                for path in export.export_experiment(
                        experiment.document(name, data), args.export):
                    print(f"exported: {path}")
            print()
    except KeyboardInterrupt:
        interrupted = _interrupted()
    finally:
        parallel.configure(fabric_dir=None, timeout=None, max_attempts=None)

    if not durable:
        return interrupted or 0

    from repro.experiments.cache import ResultCache
    from repro.sched import campaign as campaign_mod
    from repro.sched.state import load_state

    state = load_state(directory)
    counts = state.counts()
    if counts["failed"] + counts["quarantined"]:
        print(campaign_mod.describe_status(state))
    print(f"campaign: {directory} (rerun the same command to resume)"
          if state.tasks else "campaign: none written (every run was a "
          "result-cache hit)")
    store = ResultCache() if parallel.default_use_cache() else \
        campaign_mod.default_result_store(directory)
    code = _finish_campaign(directory, store, args.report)
    return interrupted or code


def _interrupted() -> int:
    """How a command ends on Ctrl-C: what finished is already in the
    result cache or the journal."""
    print("\ninterrupted — finished runs are kept", file=sys.stderr)
    return 130


def _finish_campaign(directory: str, store, report_path) -> int:
    """Write the campaign's canonical report to ``report_path`` (when
    given); return 1 if any task failed or was quarantined, else 0.
    Shared by ``campaign drain`` and durable ``experiment``."""
    from repro.sched import campaign as campaign_mod

    document = campaign_mod.campaign_report(directory, cache=store)
    if report_path:
        export.write(report_path, document)
        print(f"campaign report: {report_path} "
              f"(schema {document['schema']} "
              f"v{document['schema_version']})")
    counts = document["counts"]
    return 1 if counts.get("failed", 0) + counts.get("quarantined", 0) \
        else 0


def cmd_fuzz(args) -> int:
    from repro.verify import fuzz

    if args.replay:
        case, document = fuzz.load_corpus_case(args.replay)
        note = document.get("note") or "(no note)"
        print(f"replaying {args.replay}")
        print(f"  case : {case.to_dict()}")
        print(f"  note : {note}")
        outcome = fuzz.run_case(case)
        print(f"  -> {outcome.describe()}")
        if not outcome.ok and args.report and outcome.violation:
            export.write(args.report, export.violation_document(
                outcome.violation, case=case.to_dict(),
                context=f"corpus replay of {args.replay}",
            ))
            print(f"  violation report: {args.report}")
        return 0 if outcome.ok else 1

    log = None if args.quiet else (
        lambda message: print(message, file=sys.stderr, flush=True)
    )
    default_cycles = 6000 if args.multicore else 3000
    summary = fuzz.fuzz_run(
        seeds=args.seeds,
        start_seed=args.start_seed,
        max_cycles=(default_cycles if args.max_cycles is None
                    else args.max_cycles),
        check_interval=args.check_interval,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus,
        log=log,
        timeout=args.timeout,
        journal_dir=args.journal,
        multicore=args.multicore,
    )
    mode = "multicore " if args.multicore else ""
    print(mode + summary.describe())
    for failure in summary.failures:
        print(f"  seed {failure.seed}: {failure.outcome.describe()}")
        if failure.corpus_path:
            print(f"    reproducer: {failure.corpus_path}")
        else:
            print(f"    case: {failure.case.to_dict()}")
    if args.report and summary.failures:
        first = summary.failures[0]
        if first.outcome.violation:
            export.write(args.report, export.violation_document(
                first.outcome.violation, case=first.case.to_dict(),
                context=f"{mode}fuzz seed {first.seed}",
            ))
            print(f"violation report: {args.report}")
    return 0 if summary.clean else 1


def cmd_worker(args) -> int:
    """Serve one campaign directory (see docs/fabric.md)."""
    from repro.experiments.cache import ResultCache
    from repro.sched.worker import Worker

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    worker = Worker(args.directory, cache=cache, worker_id=args.worker_id,
                    poll_interval=args.poll)
    if args.chaos:
        import json as _json

        from repro.verify.chaos import install_process_faults

        with open(args.chaos, "r", encoding="utf-8") as handle:
            install_process_faults(worker, _json.load(handle))
        print(f"worker {worker.worker_id}: chaos plan {args.chaos} armed",
              file=sys.stderr)
    try:
        served = worker.serve(drain=args.drain, max_tasks=args.max_tasks)
    except KeyboardInterrupt:  # the task went back to the queue
        print(f"worker {worker.worker_id}: interrupted", file=sys.stderr)
        return 0
    print(f"worker {worker.worker_id}: {served} task(s) completed")
    return 0


def _print_status_counts(document) -> None:
    counts = document["counts"]
    print(f"campaign {document['name']}: "
          f"{counts['done']}/{counts['total']} done, "
          f"{counts['pending']} pending, {counts['leased']} leased, "
          f"{counts['failed']} failed, "
          f"{counts['quarantined']} quarantined")


def cmd_campaign(args) -> int:
    """The ``repro campaign`` family (see docs/fabric.md)."""
    import json as _json
    import os as _os

    from repro.experiments.cache import ResultCache
    from repro.sched import campaign as campaign_mod
    from repro.sched.state import load_state

    server = getattr(args, "server", None)
    if args.campaign_command in ("submit", "status", "cancel"):
        if server is None and args.directory is None:
            print("error: give a JOURNAL_DIR or --server ADDR",
                  file=sys.stderr)
            return 2
        if server is not None and args.directory is not None:
            print("error: JOURNAL_DIR and --server are mutually "
                  "exclusive (the server owns its directory)",
                  file=sys.stderr)
            return 2

    if args.campaign_command == "submit":
        from repro.experiments.parallel import RunSpec

        budget = _budget(args)
        specs = [
            RunSpec(
                config=SMTConfig(n_threads=args.threads,
                                 fetch_policy=args.policy,
                                 seed=args.seed),
                rotation=rotation,
                budget=budget,
            )
            for rotation in range(max(1, args.rotations))
        ]
        name = args.name or (_os.path.basename(
            args.directory.rstrip(_os.sep)) if args.directory else None) \
            or "campaign"
        config = campaign_mod.CampaignConfig(
            name=name, lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts,
            poison_threshold=args.poison_threshold,
        )
        if server is not None:
            from repro.service.client import ServiceClient, ServiceError

            try:
                client = ServiceClient(server, token=args.token)
                ack = client.submit(specs, config)
            except ServiceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"submitted {ack['added']} new task(s) via {server} "
                  f"({ack['total'] - ack['added']} already queued)")
            _print_status_counts(client.status())
            return 0
        added = campaign_mod.submit_specs(args.directory, specs, config)
        print(f"submitted {added} new task(s) "
              f"({len(specs) - added} already queued)")
        print(campaign_mod.describe_status(load_state(args.directory)))
        return 0

    if args.campaign_command == "status":
        if args.follow and server is None:
            print("error: --follow needs --server (filesystem status "
                  "is a one-shot replay)", file=sys.stderr)
            return 2
        if server is not None:
            from repro.service.client import ServiceClient, ServiceError

            client = ServiceClient(server, token=args.token)
            try:
                if args.follow:
                    def _on_frame(frame) -> None:
                        if args.json:
                            print(_json.dumps(frame, sort_keys=True),
                                  flush=True)
                        elif "status" in frame:
                            _print_status_counts(frame["status"])
                        elif "counts" in frame:
                            changed = ", ".join(
                                f"{row['label'] or row['key'][:12]}:"
                                f"{row['state']}"
                                for row in frame.get("changed", []))
                            print(f"  {frame['counts']}"
                                  + (f"  ({changed})" if changed else ""),
                                  flush=True)

                    document, reason = client.follow(on_frame=_on_frame)
                    if not args.json:
                        print(f"follow ended: {reason}")
                    return 0
                document = client.status()
            except (ServiceError, ConnectionError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        else:
            state = campaign_mod.campaign_status(args.directory,
                                                 reclaim=args.reclaim)
            if not args.json:
                print(campaign_mod.describe_status(state))
                return 0
            document = campaign_mod.status_document(state)
        if args.json:
            print(_json.dumps(document, indent=2, sort_keys=True))
        else:
            _print_status_counts(document)
        return 0

    if args.campaign_command == "cancel":
        keys = args.keys if args.keys else None
        if server is not None:
            from repro.service.client import ServiceClient, ServiceError

            try:
                cancelled = ServiceClient(
                    server, token=args.token).cancel(keys)
            except ServiceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        else:
            cancelled = campaign_mod.cancel_tasks(args.directory, keys)
        print(f"cancelled {len(cancelled)} pending task(s)")
        for key in cancelled:
            print(f"  {key}")
        return 0

    # drain
    from repro.sched.fabric import drain_campaign

    store = ResultCache(args.cache_dir) if args.cache_dir else \
        campaign_mod.default_result_store(args.directory)
    drain_campaign(args.directory, store, jobs=args.jobs)
    print(campaign_mod.describe_status(load_state(args.directory)))
    return _finish_campaign(args.directory, store, args.report)


def cmd_serve(args) -> int:
    """Front a campaign directory with the asyncio service
    (see docs/fabric.md, "The service front")."""
    import asyncio
    import signal as _signal

    from repro.service.server import CampaignServer

    if args.unix is None and args.port is None:
        print("error: give --unix PATH and/or --port N", file=sys.stderr)
        return 2
    server = CampaignServer(
        args.directory,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        token=args.token,
        max_inflight_submits=args.max_inflight,
        follow_poll=args.follow_poll,
    )

    async def _amain() -> None:
        await server.start()
        for endpoint in server.endpoints:
            print("serving " + args.directory + " on "
                  + ":".join(str(part) for part in endpoint), flush=True)
        if server.token is not None:
            print("auth: shared-secret token required", flush=True)
        loop = asyncio.get_running_loop()

        def _request_drain() -> None:
            asyncio.ensure_future(server.drain())

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _request_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop: Ctrl-C still lands as KeyboardInterrupt
        await server.wait_drained()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    print(f"drained: {server.describe_counters()}")
    return 0


def cmd_workload(args) -> int:
    profile = PROFILES[args.name]
    program = generate_program(profile, seed=0)
    print(f"{args.name}: {len(program)} static instructions, "
          f"working set {profile.working_set // 1024} KiB "
          f"({profile.access_pattern}), hot region "
          f"{profile.hot_region // 1024} KiB")
    if args.listing:
        for line in program.listing().splitlines()[:40]:
            print("  " + line)
        return 0

    from repro.isa.emulator import Emulator
    emulator = Emulator(program)
    counts = dict(cond=0, taken=0, mem=0, fp=0, calls=0, indirect=0)
    n = args.instructions
    for _ in range(n):
        record = emulator.step()
        instr = record.instr
        if instr.is_cond_branch:
            counts["cond"] += 1
            counts["taken"] += record.taken
        if instr.is_mem:
            counts["mem"] += 1
        if instr.is_fp:
            counts["fp"] += 1
        if instr.is_call:
            counts["calls"] += 1
        if instr.is_indirect:
            counts["indirect"] += 1
    print(f"dynamic mix over {n} instructions:")
    print(f"  conditional branches : {counts['cond'] / n:.1%} "
          f"(taken {counts['taken'] / max(counts['cond'], 1):.0%})")
    print(f"  loads+stores         : {counts['mem'] / n:.1%}")
    print(f"  FP arithmetic        : {counts['fp'] / n:.1%}")
    print(f"  calls                : {counts['calls'] / n:.2%}")
    print(f"  indirect jumps       : {counts['indirect'] / n:.2%}")
    return 0


def cmd_policies(_args) -> int:
    print(FETCH_POLICIES.listing())
    return 0


def cmd_multicore(args) -> int:
    """The ``repro multicore`` family (see docs/multicore.md)."""
    from repro.core.config import SMTConfig as _SMTConfig
    from repro.multicore.driver import (
        ArrivalConfig,
        MulticoreRunSpec,
        load_trace,
    )

    if args.trace:
        trace, arrival = load_trace(args.trace), None
    else:
        trace = None
        arrival = ArrivalConfig(
            jobs=args.arrivals, rate_per_kcycle=args.rate,
            service_instructions=args.service, seed=args.seed,
        )
    try:
        spec = MulticoreRunSpec(
            n_cores=args.cores,
            allocator=args.allocator,
            config=_SMTConfig(n_threads=args.contexts, seed=args.seed),
            quantum=args.quantum,
            max_cycles=args.max_cycles,
            seed=args.seed,
            arrival=arrival,
            trace=trace,
            check_invariants=args.check_invariants,
        )
        (result,) = parallel.execute_runs(
            [spec], use_cache=False if args.no_cache else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    latency = result.latency()
    print(f"machine      : {result.n_cores} core(s) x "
          f"{result.contexts_per_core} context(s), allocator "
          f"{result.allocator}, quantum {result.quantum}")
    print(f"jobs         : {result.jobs_completed}/{result.jobs_total} "
          f"completed over {result.cycles} cycles"
          + (f" ({result.unfinished} unfinished at the horizon)"
             if result.unfinished else ""))
    for kind in ("queue", "service", "total"):
        p = latency[kind]
        print(f"{kind:13s}: p50 {p['p50']:.0f}  p90 {p['p90']:.0f}  "
              f"p99 {p['p99']:.0f} cycles")
    print(f"throughput   : {result.throughput_per_kcycle:.2f} jobs/kcycle")
    for core in result.cores:
        print(f"core {core.core}       : {core.utilization:.1%} busy, "
              f"{core.commits} commits, {core.jobs_served} job(s) served")
    if args.check_invariants:
        print("invariants   : clean (pipeline sanitizer on every core, "
              "driver checks every quantum)")
    if args.json:
        document = export.multicore_document(result, spec=spec)
        export.write(args.json, document)
        print(f"run document : {args.json} (schema {document['schema']} "
              f"v{document['schema_version']})")
    return 0


def cmd_allocators(_args) -> int:
    print(ALLOCATORS.listing())
    return 0


def cmd_list(_args) -> int:
    print("workloads   :", ", ".join(sorted(PROFILES)))
    print("fetch       :", ", ".join(FETCH_POLICIES.names("static")))
    print("meta fetch  :", ", ".join(FETCH_POLICIES.names("meta")),
          "(see 'repro policies')")
    print("issue       :", ", ".join(ISSUE_POLICIES))
    print("allocators  :", ", ".join(ALLOCATORS.names()),
          "(see 'repro allocators')")
    print("experiments :", ", ".join(sorted(EXPERIMENTS)), "+ all")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "experiment": cmd_experiment,
        "fuzz": cmd_fuzz,
        "worker": cmd_worker,
        "campaign": cmd_campaign,
        "serve": cmd_serve,
        "workload": cmd_workload,
        "policies": cmd_policies,
        "multicore": cmd_multicore,
        "allocators": cmd_allocators,
        "list": cmd_list,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        return _interrupted()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
