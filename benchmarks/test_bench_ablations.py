"""Ablations of design choices the paper takes for granted (DESIGN.md §6).

These quantify the pieces of the design whose value the paper asserts
but does not measure separately:

* per-thread vs shared branch history registers,
* thread-id tags on BTB entries (phantom branches),
* optimistic issue vs conservative load-use scheduling.
"""

from benchmarks.conftest import run_once
from repro.core.config import scheme
from repro.experiments.runner import run_configs


def _point(budget, **options):
    config = scheme("ICOUNT", 2, 8, n_threads=8, **options)
    return run_configs([(None, config)], budget=budget)[0]


def test_shared_history_ablation(benchmark, budget):
    def experiment():
        return (
            _point(budget),
            _point(budget, shared_history=True),
        )
    base, shared = run_once(benchmark, experiment)
    bmr_base = base.metric("branch_mispredict_rate")
    bmr_shared = shared.metric("branch_mispredict_rate")
    print(f"per-thread history: bmr={bmr_base:.1%} IPC={base.ipc:.2f}; "
          f"shared: bmr={bmr_shared:.1%} IPC={shared.ipc:.2f}")
    # Cross-thread history pollution cannot *improve* prediction.
    assert bmr_shared > 0.8 * bmr_base


def test_btb_thread_tags_ablation(benchmark, budget):
    def experiment():
        return (
            _point(budget),
            _point(budget, btb_thread_tags=False),
        )
    base, untagged = run_once(benchmark, experiment)
    print(f"tagged BTB: IPC={base.ipc:.2f} "
          f"jmr={base.metric('jump_mispredict_rate'):.1%}; "
          f"untagged: IPC={untagged.ipc:.2f} "
          f"jmr={untagged.metric('jump_mispredict_rate'):.1%}")
    # Phantom branches must not help; throughput stays in band.
    assert untagged.ipc < 1.10 * base.ipc


def test_optimistic_issue_ablation(benchmark, budget):
    def experiment():
        return (
            _point(budget),
            _point(budget, optimistic_issue=False),
        )
    optimistic, conservative = run_once(benchmark, experiment)
    print(f"optimistic: IPC={optimistic.ipc:.2f} "
          f"squashed={optimistic.metric('squashed_optimistic_frac'):.1%}; "
          f"conservative: IPC={conservative.ipc:.2f}")
    # Conservative scheduling forfeits the 1-cycle load-use latency; it
    # should not beat optimistic issue materially.
    assert conservative.ipc < 1.08 * optimistic.ipc
    assert conservative.metric("squashed_optimistic_frac") == 0.0
