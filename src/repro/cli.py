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
        --report campaign.json
    python -m repro experiment fig4 --resume ~/.cache/repro-smt/campaigns/fig4.jsonl
    python -m repro experiment fig3 --fast --fabric [--jobs N]
    python -m repro campaign submit runs/ --threads 8 --rotations 4 --fast
    python -m repro campaign status runs/ [--reclaim] [--json]
    python -m repro campaign drain runs/ --jobs 2 --report report.json
    python -m repro campaign cancel runs/ [--keys KEY ...]
    python -m repro serve runs/ --unix serve.sock [--port 7301]
    python -m repro campaign submit --server localhost:7301 --threads 8
    python -m repro campaign status --server serve.sock --follow
    python -m repro worker runs/ --drain [--id w0] [--chaos plan.json]
    python -m repro fuzz --seeds 25 --max-cycles 3000 [--jobs N]
    python -m repro fuzz --seeds 500 --journal fuzz.jsonl --timeout 120
    python -m repro fuzz --seeds 500 --resume fuzz.jsonl
    python -m repro fuzz --replay tests/corpus/case-0123abcd4567.json
    python -m repro run --threads 8 --fetch-policy "BANDIT:mode=ucb"
    python -m repro experiment adaptive --fast
    python -m repro perf record --quick --jobs 2
    python -m repro perf list
    python -m repro perf diff <shaA> <shaB>
    python -m repro perf check [--baseline <sha> | --window 5]
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
from typing import Any, Callable, List, NamedTuple, Optional

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
    supervise,
    tables,
)
from repro.experiments.runner import RunBudget
from repro.workloads.mixes import standard_mix
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import generate_program


class Experiment(NamedTuple):
    """One paper artifact: a compute step and a render step.

    Keeping them separate lets ``--export`` serialise the computed data
    alongside the printed tables; ``exportable`` is False for report
    harnesses that print directly without returning tabular data.
    ``exporter`` overrides the default ``export_experiment`` writer for
    studies whose data is not ExperimentPoint-shaped (the allocation
    study exports multicore documents).
    """

    compute: Callable[[RunBudget], Any]
    render: Callable[[Any], None]
    exportable: bool = True
    exporter: Optional[Callable[[Any, str], List[str]]] = None


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
        exportable=False,
    ),
    "adaptive": Experiment(
        lambda budget: adaptive.adaptive_study(budget=budget),
        adaptive.print_adaptive_study,
    ),
    "allocation": Experiment(
        lambda budget: allocation.allocation_study(budget=budget),
        allocation.print_allocation_study,
        exporter=allocation.export_allocation_study,
    ),
}


def _fetch_policy_spec(value: str) -> str:
    """argparse type: validate a fetch-policy spec against the registry
    at parse time (bad specs exit with the registry's message, exactly
    as ``choices=`` used to)."""
    from repro.policy.registry import validate_spec

    try:
        validate_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _alloc_spec(value: str) -> str:
    """argparse type: validate an allocator spec against the registry."""
    from repro.multicore.alloc import validate_alloc_spec

    try:
        validate_alloc_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


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
                     type=_fetch_policy_spec, default="ICOUNT",
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
                     help="worker processes for simulation runs "
                          "(default: REPRO_JOBS or 1)")
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
                     help="supervised per-run wall-clock watchdog "
                          "(default: REPRO_RUN_TIMEOUT, off)")
    exp.add_argument("--max-retries", type=int, default=None, metavar="N",
                     help="retries per crashed/timed-out run "
                          "(default: REPRO_MAX_RETRIES or 1)")
    exp.add_argument("--journal", metavar="PATH", default=None,
                     help="append the campaign checkpoint journal here "
                          "(default: <cache dir>/campaigns/<name>.jsonl "
                          "when supervision is active)")
    exp.add_argument("--resume", metavar="JOURNAL", default=None,
                     help="resume a campaign: skip points the journal "
                          "records as done, re-queue its failures")
    exp.add_argument("--report", metavar="PATH", default=None,
                     help="write the schema-versioned campaign "
                          "fault-tolerance report as JSON")
    exp.add_argument("--fabric", action="store_true",
                     help="route the study's runs through the durable "
                          "campaign scheduler (journal-backed queue, "
                          "lease-holding workers, crash recovery; "
                          "see docs/fabric.md)")
    exp.add_argument("--fabric-dir", metavar="DIR", default=None,
                     help="campaign directory for --fabric (default: "
                          "<cache dir>/fabric/<batch digest>)")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzz the pipeline against the oracle",
    )
    fuzz.add_argument("--multicore", action="store_true",
                      help="fuzz the multicore allocation surface (core "
                           "counts x allocator specs x arrival streams) "
                           "instead of the single-core pipeline")
    fuzz.add_argument("--seeds", type=int, default=25,
                      help="number of consecutive fuzz seeds (default 25)")
    fuzz.add_argument("--start-seed", type=int, default=0,
                      help="first seed (default 0)")
    fuzz.add_argument("--max-cycles", type=int, default=3000,
                      help="cycles simulated per case (default 3000)")
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
    fuzz.add_argument("--replay", metavar="CASE.json", default=None,
                      help="replay one corpus case instead of fuzzing")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-seed progress lines")
    fuzz.add_argument("--timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="per-case wall-clock watchdog (runs each "
                           "case in a crash-isolated worker)")
    fuzz.add_argument("--journal", metavar="PATH", default=None,
                      help="record executed seeds in an append-only "
                           "campaign journal")
    fuzz.add_argument("--resume", metavar="JOURNAL", default=None,
                      help="skip seeds the journal already records and "
                           "keep journaling to it")

    perf = sub.add_parser(
        "perf",
        help="per-commit performance profiles: record, diff, check",
    )
    psub = perf.add_subparsers(dest="perf_command", required=True)

    def _perf_dir(p):
        p.add_argument("--dir", metavar="DIR", default=None,
                       help="profile store directory "
                            "(default: REPRO_PERF_DIR or ./.perf)")

    rec = psub.add_parser(
        "record",
        help="run the benchmarks, store a profile keyed by git SHA")
    rec.add_argument("--quick", action="store_true",
                     help="CI smoke mode: smaller budgets and step counts")
    rec.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="workers for the pooled sweep "
                          "(default max(2, min(4, cpu_count)))")
    rec.add_argument("--steps", type=int, default=None,
                     help="timed simulator cycles per core-benchmark rep")
    rec.add_argument("--reps", type=int, default=3,
                     help="core-benchmark repetitions (min 3, median wins)")
    rec.add_argument("--sha", default=None,
                     help="store key override (default: git HEAD)")
    _perf_dir(rec)

    lst = psub.add_parser("list", help="list stored profiles, oldest first")
    _perf_dir(lst)

    shw = psub.add_parser("show", help="print one profile's metrics")
    shw.add_argument("ref", nargs="?", default="latest",
                     help="git SHA, unique prefix, or 'latest'")
    shw.add_argument("--json", action="store_true",
                     help="dump the raw profile document")
    _perf_dir(shw)

    dif = psub.add_parser(
        "diff", help="per-metric deltas between two profiles (A -> B)")
    dif.add_argument("ref_a", metavar="A")
    dif.add_argument("ref_b", metavar="B")
    _perf_dir(dif)

    chk = psub.add_parser(
        "check",
        help="regression verdict for a profile (non-zero exit on "
             "significant degradation)")
    chk.add_argument("ref", nargs="?", default="latest",
                     help="profile to judge (default latest)")
    chk.add_argument("--baseline", metavar="REF", default=None,
                     help="compare against this pinned profile instead "
                          "of the trailing trend")
    chk.add_argument("--window", type=int, default=5, metavar="N",
                     help="trailing history size for the trend check "
                          "(default 5)")
    chk.add_argument("--quick", action="store_true",
                     help="double the noise tolerances (quick-mode "
                          "profiles jitter more)")
    _perf_dir(chk)

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
                        help="idle poll base interval (default: "
                             "REPRO_WORKER_POLL or 0.5; idle workers "
                             "back off exponentially with jitter)")
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
    csubmit.add_argument("--policy", type=_fetch_policy_spec,
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
                        help="worker processes (default 1, in-process)")
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
                            "'busy' rejections (default: "
                            "REPRO_SERVE_MAX_INFLIGHT or 4)")
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
    mcr.add_argument("--allocator", type=_alloc_spec, default="LOAD",
                     metavar="SPEC",
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
                     help="bypass the multicore document cache")
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
        document = export.write_run_json(
            args.metrics_json, result, telemetry=telemetry, metrics=metrics,
            policy=policy_stats,
        )
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


def cmd_experiment(args) -> int:
    if args.fast:
        budget = RunBudget(warmup_cycles=1000, measure_cycles=8000,
                           functional_warmup_instructions=30000, rotations=1)
    elif args.full:
        budget = RunBudget(warmup_cycles=4000, measure_cycles=40000,
                           functional_warmup_instructions=120000, rotations=4)
    else:
        budget = RunBudget.from_environment()
    # Pass None for unset knobs: resolving the environment-derived
    # defaults here would freeze REPRO_JOBS / REPRO_NO_CACHE for the
    # rest of the process.
    parallel.configure(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        progress=parallel.progress_printer() if args.progress else None,
        check_invariants=True if args.check_invariants else None,
    )
    fabric_mod = None
    if args.fabric or args.fabric_dir:
        from repro.sched import fabric as fabric_mod

        fabric_mod.configure(fabric=True, fabric_dir=args.fabric_dir)
    supervising = bool(
        args.timeout is not None or args.max_retries is not None
        or args.journal or args.resume or args.report
        or supervise.supervision_enabled()
    )
    knobs = {}
    if args.timeout is not None:
        knobs["timeout"] = args.timeout
    if args.max_retries is not None:
        knobs["max_retries"] = args.max_retries
    if args.resume:
        knobs["resume_path"] = args.resume
    if supervising:
        knobs["supervise"] = True
        knobs["journal_path"] = (
            args.journal or args.resume
            or supervise.default_journal_path(args.name)
        )
    if knobs:
        supervise.configure(**knobs)
    supervise.reset_campaign_log()

    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    interrupted = False
    try:
        for name in names:
            experiment = EXPERIMENTS[name]
            data = experiment.compute(budget)
            experiment.render(data)
            if args.export:
                if experiment.exporter is not None:
                    for path in experiment.exporter(data, args.export):
                        print(f"exported: {path}")
                elif experiment.exportable:
                    for path in export.export_experiment(
                            name, data, args.export):
                        print(f"exported: {path}")
                else:
                    print(f"({name} prints a report; no tabular export)")
            print()
    except KeyboardInterrupt:
        interrupted = True
        print("\ninterrupted — campaign state flushed to the journal",
              file=sys.stderr)
    finally:
        if knobs:
            supervise.configure(supervise=None, timeout=None,
                                max_retries=None, journal_path=None,
                                resume_path=None)
        if fabric_mod is not None:
            fabric_mod.configure(fabric=None, fabric_dir=None)

    if not supervising:
        return 130 if interrupted else 0

    reports = supervise.campaign_reports()
    failed = sum(r.failed for r in reports)
    for report in reports:
        if report.failed or report.retried or report.skipped \
                or report.interrupted:
            print(report.describe())
    if reports:
        total = sum(r.total for r in reports)
        print(f"campaign total: {total - failed}/{total} points ok, "
              f"{sum(r.retried for r in reports)} retried, "
              f"{sum(r.skipped for r in reports)} skipped"
              + (" [INTERRUPTED]" if interrupted else ""))
        print(f"journal: {reports[-1].journal_path} "
              f"(resume with: repro experiment {args.name} "
              f"--resume {reports[-1].journal_path})")
    if args.report:
        export.write_campaign_json(args.report, reports, name=args.name)
        print(f"campaign report: {args.report}")
    if interrupted:
        return 130
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    from repro.verify import fuzz

    if args.multicore:
        log = None if args.quiet else (
            lambda message: print(message, file=sys.stderr, flush=True)
        )
        summary = fuzz.multicore_fuzz_run(
            seeds=args.seeds,
            start_seed=args.start_seed,
            max_cycles=args.max_cycles if args.max_cycles != 3000 else 6000,
            log=log,
        )
        print("multicore " + summary.describe())
        for failure in summary.failures:
            print(f"  seed {failure.seed}: {failure.outcome.describe()}")
            print(f"    case: {failure.case.to_dict()}")
        if args.report and summary.failures:
            first = summary.failures[0]
            if first.outcome.violation:
                export.write_violation_json(
                    args.report, first.outcome.violation,
                    case=first.case.to_dict(),
                    context=f"multicore fuzz seed {first.seed}",
                )
                print(f"violation report: {args.report}")
        return 0 if summary.clean else 1

    if args.replay:
        case, document = fuzz.load_corpus_case(args.replay)
        note = document.get("note") or "(no note)"
        print(f"replaying {args.replay}")
        print(f"  case : {case.to_dict()}")
        print(f"  note : {note}")
        outcome = fuzz.run_case(case)
        print(f"  -> {outcome.describe()}")
        if not outcome.ok and args.report and outcome.violation:
            export.write_violation_json(
                args.report, outcome.violation, case=case.to_dict(),
                context=f"corpus replay of {args.replay}",
            )
            print(f"  violation report: {args.report}")
        return 0 if outcome.ok else 1

    log = None if args.quiet else (
        lambda message: print(message, file=sys.stderr, flush=True)
    )
    summary = fuzz.fuzz_run(
        seeds=args.seeds,
        start_seed=args.start_seed,
        max_cycles=args.max_cycles,
        check_interval=args.check_interval,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus,
        log=log,
        timeout=args.timeout,
        journal_path=args.journal,
        resume_from=args.resume,
    )
    print(summary.describe())
    for failure in summary.failures:
        print(f"  seed {failure.seed}: {failure.outcome.describe()}")
        if failure.corpus_path:
            print(f"    reproducer: {failure.corpus_path}")
    if args.report and summary.failures:
        first = summary.failures[0]
        if first.outcome.violation:
            export.write_violation_json(
                args.report, first.outcome.violation,
                case=first.case.to_dict(),
                context=f"fuzz seed {first.seed}",
            )
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
    served = worker.serve(drain=args.drain, max_tasks=args.max_tasks)
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

        if args.fast:
            budget = RunBudget(warmup_cycles=1000, measure_cycles=8000,
                               functional_warmup_instructions=30000,
                               rotations=1)
        elif args.full:
            budget = RunBudget(warmup_cycles=4000, measure_cycles=40000,
                               functional_warmup_instructions=120000,
                               rotations=4)
        else:
            budget = RunBudget.from_environment()
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
    state = load_state(args.directory)
    print(campaign_mod.describe_status(state))
    document = campaign_mod.campaign_report(args.directory, cache=store)
    if args.report:
        export.write_fabric_json(args.report, document["name"],
                                 document["tasks"])
        print(f"campaign report: {args.report} "
              f"(schema {document['schema']} "
              f"v{document['schema_version']})")
    counts = document["counts"]
    bad = counts.get("failed", 0) + counts.get("quarantined", 0)
    return 1 if bad else 0


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


def cmd_perf(args) -> int:
    """The ``repro perf`` family (see docs/performance.md)."""
    import json as _json

    from repro.perf import diff as perf_diff
    from repro.perf import regress as perf_regress
    from repro.perf.store import ProfileStore

    store = ProfileStore(args.dir)

    def load(ref: str):
        try:
            return store.load(ref)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None

    if args.perf_command == "record":
        from repro.perf import collect

        profile = collect.collect_profile(
            quick=args.quick, jobs=args.jobs, steps=args.steps,
            reps=args.reps, sha=args.sha,
        )
        path = store.save(profile, key=args.sha)
        print(collect.summarize(profile))
        print(f"profile        : {path} "
              f"(schema {profile['schema']} "
              f"v{profile['schema_version']}, "
              f"sha {(profile.get('git_sha') or 'uncommitted')[:12]})")
        return 0

    if args.perf_command == "list":
        profiles = store.profiles()
        if not profiles:
            print(f"no profiles in {store.directory}")
            return 0
        for p in profiles:
            metrics = p.get("metrics", {})
            print(f"{(p.get('git_sha') or 'uncommitted')[:12]:>12s}  "
                  f"{p.get('recorded_at_iso', '?'):20s}  "
                  f"{'quick' if p.get('quick') else 'full ':5s}  "
                  f"core {metrics.get('core_cycles_per_sec', '?')} c/s  "
                  f"parallel {metrics.get('parallel_speedup', '?')}x")
        return 0

    if args.perf_command == "show":
        profile = load(args.ref)
        if profile is None:
            return 1
        if args.json:
            print(_json.dumps(profile, indent=2, sort_keys=True))
            return 0
        print(f"profile {(profile.get('git_sha') or 'uncommitted')[:12]} "
              f"({profile.get('recorded_at_iso', '?')}, "
              f"{'quick' if profile.get('quick') else 'full'} mode)")
        host = profile.get("host", {})
        print(f"  host: {host.get('implementation')} "
              f"{host.get('python')}, {host.get('host_cpus')} cpu(s)")
        for name, value in sorted(profile.get("metrics", {}).items()):
            print(f"  {name:28s} {value}")
        return 0

    if args.perf_command == "diff":
        before, after = load(args.ref_a), load(args.ref_b)
        if before is None or after is None:
            return 1
        scale = perf_diff.quick_tolerance_scale(before, after)
        deltas = perf_diff.diff_profiles(before, after,
                                         tolerance_scale=scale)
        print(f"{(before.get('git_sha') or '?')[:12]} -> "
              f"{(after.get('git_sha') or '?')[:12]} "
              f"(tolerance scale {scale}x)")
        print(perf_diff.format_deltas(deltas))
        regressed = [d for d in deltas
                     if d.classification == perf_diff.REGRESSED]
        return 1 if regressed else 0

    # check
    profile = load(args.ref)
    if profile is None:
        return 1
    scale = 2.0 if (args.quick or profile.get("quick")) else 1.0
    if args.baseline:
        baseline = load(args.baseline)
        if baseline is None:
            return 1
        report = perf_regress.check_against_baseline(
            profile, baseline, tolerance_scale=scale)
    else:
        history = store.history(before=profile, limit=args.window)
        report = perf_regress.check_against_history(
            profile, history, window=args.window, tolerance_scale=scale)
    print(report.describe())
    return 0 if report.ok else 1


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
    from repro.policy.registry import registry_entries

    entries = registry_entries()
    width = max(len(info.name) for info in entries)
    for kind, title in (("static", "static fetch policies"),
                        ("meta", "adaptive meta-policies")):
        print(f"{title}:")
        for info in entries:
            if info.kind != kind:
                continue
            print(f"  {info.name:{width}s}  {info.summary}")
            if info.params:
                options = ", ".join(sorted(info.params))
                if info.takes_arms:
                    options = "arms (ARM/ARM list), " + options
                print(f"  {'':{width}s}  options: {options}")
        print()
    print("spec grammar: NAME, NAME:key=value,...  "
          "TOURNAMENT and BANDIT accept an arm list: NAME:ARM/ARM[:opts]")
    print("examples    : ICOUNT   HYSTERESIS:interval=300,dwell=2   "
          "BANDIT:mode=ucb   TOURNAMENT:ICOUNT/BRCOUNT")
    return 0


def cmd_multicore(args) -> int:
    """The ``repro multicore`` family (see docs/multicore.md)."""
    from repro.core.config import SMTConfig as _SMTConfig
    from repro.multicore.driver import (
        ArrivalConfig,
        MulticoreRunSpec,
        load_trace,
        run_open_system,
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
        result = run_open_system(
            spec, use_cache=False if args.no_cache else None,
        )
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
        document = export.write_multicore_json(args.json, result, spec=spec)
        print(f"run document : {args.json} (schema {document['schema']} "
              f"v{document['schema_version']})")
    return 0


def cmd_allocators(_args) -> int:
    from repro.multicore.alloc import registry_entries

    entries = registry_entries()
    width = max(len(info.name) for info in entries)
    print("thread-to-core allocation policies:")
    for info in entries:
        print(f"  {info.name:{width}s}  {info.summary}")
        if info.params:
            print(f"  {'':{width}s}  options: "
                  f"{', '.join(sorted(info.params))}")
    print()
    print("spec grammar: NAME, NAME:key=value,...  "
          "(e.g. PAIRING:miss_weight=2.0)")
    print("used by     : repro multicore run --allocator, "
          "repro experiment allocation")
    return 0


def cmd_list(_args) -> int:
    from repro.multicore.alloc import allocator_names
    from repro.policy.registry import meta_policy_names, static_policy_names

    print("workloads   :", ", ".join(sorted(PROFILES)))
    print("fetch       :", ", ".join(static_policy_names()))
    print("meta fetch  :", ", ".join(meta_policy_names()),
          "(see 'repro policies')")
    print("issue       :", ", ".join(ISSUE_POLICIES))
    print("allocators  :", ", ".join(allocator_names()),
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
        "perf": cmd_perf,
        "workload": cmd_workload,
        "policies": cmd_policies,
        "multicore": cmd_multicore,
        "allocators": cmd_allocators,
        "list": cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
